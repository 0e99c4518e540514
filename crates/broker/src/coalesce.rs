//! Single-flight coalescing of miss fetches.
//!
//! The broker tier exists because many frontend subscriptions merge
//! onto one backend subscription — yet a miss storm (right after an
//! eviction or a TTL expiry) makes every co-attached subscriber
//! re-fetch the identical objects over the 10 MB/s + 500 ms-RTT
//! cluster link. [`FetchCoalescer`] collapses those duplicates: the
//! first retrieval of a `(backend sub, range)` pair is the *primary*
//! fetch and goes to the cluster; the fetched objects land in a
//! short-lived, budget-capped **sideline buffer** and serve every
//! co-pending subscriber that asks for the identical range within the
//! hold window, after which they are discarded.
//!
//! The sideline buffer is deliberately *not* the policy-managed cache:
//! the paper's Algorithm 1 never re-admits miss fetches (re-caching
//! them would distort the eviction policies' utility accounting and
//! the hit/miss bookkeeping of the evaluation). The buffer is keyed by
//! the exact requested range, holds entries only for
//! [`CoalescerConfig::hold`] (default: one cluster RTT — requests
//! arriving within the modeled round trip share the flight), and is
//! invalidated for a backend subscription as soon as new results
//! arrive for it, so a buffered range can never go stale.
//!
//! Under the simulator's single-threaded virtual clock, "concurrent"
//! means "within the hold window of a prior identical fetch" — the
//! virtual-time analogue of joining an in-flight request.

use std::collections::{HashMap, VecDeque};

use bad_storage::ResultObject;
use bad_types::{BackendSubId, ByteSize, SimDuration, TimeRange, Timestamp};

/// Tuning knobs of the [`FetchCoalescer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoalescerConfig {
    /// Whether coalescing is active. Off, every miss range goes to the
    /// cluster (the pre-coalescer behaviour, kept for A/B benches).
    pub enabled: bool,
    /// Aggregate bytes the sideline buffer may hold. A single fetch
    /// larger than this is served but never stashed.
    pub budget: ByteSize,
    /// How long a fetched range stays servable. The default equals the
    /// Table II cluster RTT: requests arriving while the primary fetch
    /// would still be on the wire share its flight.
    pub hold: SimDuration,
}

impl Default for CoalescerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            budget: ByteSize::from_mib(4),
            hold: SimDuration::from_millis(500),
        }
    }
}

/// Point-in-time coalescing statistics (monotonic counters).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Miss ranges that went to the cluster (the single flights).
    pub primary_fetches: u64,
    /// Miss ranges served from the sideline buffer instead.
    pub coalesced_fetches: u64,
    /// Bytes those coalesced serves would have re-fetched.
    pub duplicate_bytes_saved: ByteSize,
    /// Bytes actually pulled over the cluster link by primary fetches.
    pub cluster_bytes_fetched: ByteSize,
}

/// One buffered fetch result.
#[derive(Debug)]
struct SidelineEntry {
    objects: Vec<ResultObject>,
    bytes: ByteSize,
    expires: Timestamp,
}

/// What a [`FetchCoalescer::fetch`] served: the objects (borrowed from
/// the buffer — the coalescer owns them until discard), their size,
/// and whether this call was the primary fetch or a coalesced serve.
#[derive(Debug)]
pub struct CoalescedFetch<'a> {
    /// The objects covering the requested range.
    pub objects: &'a [ResultObject],
    /// Their aggregate size.
    pub bytes: ByteSize,
    /// `true` when this call issued the cluster fetch itself.
    pub primary: bool,
}

/// The outcome of one request within a [`FetchCoalescer::fetch_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchServe {
    /// Objects covering the request.
    pub objects: u64,
    /// Their aggregate size.
    pub bytes: ByteSize,
    /// Whether this request was the first asker of its range (part of
    /// the primary batched flight) or coalesced onto buffered /
    /// batch-shared results.
    pub primary: bool,
}

///// The outcome of a whole [`FetchCoalescer::fetch_batch`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Per-request serves, in request order.
    pub serves: Vec<BatchServe>,
    /// Distinct ranges actually fetched from the cluster this call.
    pub fetched_requests: u64,
    /// Bytes actually pulled over the cluster link this call.
    pub fetched_bytes: ByteSize,
}

/// The single-flight miss-fetch deduplicator (see the [module
/// docs](self)).
#[derive(Debug)]
pub struct FetchCoalescer {
    config: CoalescerConfig,
    entries: HashMap<(BackendSubId, TimeRange), SidelineEntry>,
    /// Insertion order; holds are uniform so the front expires first.
    /// May contain keys already invalidated or evicted — purging
    /// tolerates missing map entries.
    fifo: VecDeque<(BackendSubId, TimeRange)>,
    total_bytes: ByteSize,
    stats: CoalesceStats,
    /// Scratch slot for primary fetches too large to stash, so
    /// [`CoalescedFetch`] can always borrow instead of cloning.
    unstashed: Vec<ResultObject>,
}

impl FetchCoalescer {
    /// Creates a coalescer with the given knobs.
    pub fn new(config: CoalescerConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            total_bytes: ByteSize::ZERO,
            stats: CoalesceStats::default(),
            unstashed: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CoalescerConfig {
        &self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> CoalesceStats {
        self.stats
    }

    /// Bytes currently held in the sideline buffer.
    pub fn buffered_bytes(&self) -> ByteSize {
        self.total_bytes
    }

    /// Ranges currently held in the sideline buffer.
    pub fn buffered_entries(&self) -> usize {
        self.entries.len()
    }

    /// Drops every buffered range of `bs`. Called when new results
    /// arrive for (or the broker unsubscribes from) a backend
    /// subscription, so buffered serves never miss later objects.
    pub fn invalidate(&mut self, bs: BackendSubId) {
        if self.entries.is_empty() {
            return;
        }
        let total_bytes = &mut self.total_bytes;
        self.entries.retain(|key, entry| {
            if key.0 == bs {
                // `retain` may visit in any order; only the total is
                // updated, which is order-independent.
                *total_bytes -= entry.bytes;
                false
            } else {
                true
            }
        });
    }

    /// Drops entries whose hold window has passed.
    fn purge(&mut self, now: Timestamp) {
        while let Some(&key) = self.fifo.front() {
            match self.entries.get(&key) {
                Some(entry) if entry.expires > now => break,
                Some(_) => {
                    let entry = self.entries.remove(&key).expect("checked");
                    self.total_bytes -= entry.bytes;
                    self.fifo.pop_front();
                }
                // Already invalidated or evicted; drop the stale key.
                None => {
                    self.fifo.pop_front();
                }
            }
        }
    }

    /// Makes room for `bytes` by evicting oldest-first, then stashes
    /// `objects` under `key`. The caller has already checked that
    /// `bytes` fits the budget at all.
    fn stash(
        &mut self,
        key: (BackendSubId, TimeRange),
        objects: Vec<ResultObject>,
        bytes: ByteSize,
        now: Timestamp,
    ) {
        while self.total_bytes + bytes > self.config.budget {
            let Some(victim) = self.fifo.pop_front() else {
                break;
            };
            if let Some(entry) = self.entries.remove(&victim) {
                self.total_bytes -= entry.bytes;
            }
        }
        self.total_bytes += bytes;
        self.entries.insert(
            key,
            SidelineEntry {
                objects,
                bytes,
                expires: now + self.config.hold,
            },
        );
        self.fifo.push_back(key);
    }

    /// Serves `range` of `bs`: from the sideline buffer when an
    /// identical fetch is still within its hold window, otherwise via
    /// `fetch` (the single flight), stashing the result for co-pending
    /// subscribers. The returned borrow keeps the objects alive without
    /// a per-subscriber clone.
    pub fn fetch(
        &mut self,
        bs: BackendSubId,
        range: TimeRange,
        now: Timestamp,
        fetch: impl FnOnce() -> Vec<ResultObject>,
    ) -> CoalescedFetch<'_> {
        if !self.config.enabled {
            let objects = fetch();
            let bytes: ByteSize = objects.iter().map(|o| o.size).sum();
            self.stats.primary_fetches += 1;
            self.stats.cluster_bytes_fetched += bytes;
            self.unstashed = objects;
            return CoalescedFetch {
                objects: &self.unstashed,
                bytes,
                primary: true,
            };
        }
        self.purge(now);
        let key = (bs, range);
        if self.entries.contains_key(&key) {
            let entry = self.entries.get(&key).expect("checked");
            self.stats.coalesced_fetches += 1;
            self.stats.duplicate_bytes_saved += entry.bytes;
            return CoalescedFetch {
                objects: &entry.objects,
                bytes: entry.bytes,
                primary: false,
            };
        }
        let objects = fetch();
        let bytes: ByteSize = objects.iter().map(|o| o.size).sum();
        self.stats.primary_fetches += 1;
        self.stats.cluster_bytes_fetched += bytes;
        if bytes <= self.config.budget {
            self.stash(key, objects, bytes, now);
            let entry = self.entries.get(&key).expect("just stashed");
            CoalescedFetch {
                objects: &entry.objects,
                bytes,
                primary: true,
            }
        } else {
            // Too large for the buffer: serve it, skip stashing.
            self.unstashed = objects;
            CoalescedFetch {
                objects: &self.unstashed,
                bytes,
                primary: true,
            }
        }
    }

    /// Serves a whole batch of miss ranges: buffered ranges are served
    /// from the sideline buffer, duplicates within the batch collapse
    /// onto one flight, and everything left is fetched from the cluster
    /// in a *single* `fetch` call (one round trip — see
    /// `bad_net::NetworkModel::cluster_fetch_batch_latency`), then
    /// stashed for later co-pending subscribers.
    ///
    /// `on_serve(request_index, objects, primary)` runs once per
    /// request with the objects that covered it — the broker's hook for
    /// per-object tracing without the buffer leaking borrows.
    pub fn fetch_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
        now: Timestamp,
        fetch: impl FnOnce(&[(BackendSubId, TimeRange)]) -> Vec<Vec<ResultObject>>,
        mut on_serve: impl FnMut(usize, &[ResultObject], bool),
    ) -> BatchOutcome {
        let n = requests.len();
        let mut serves = vec![BatchServe::default(); n];
        if !self.config.enabled {
            // Still one batched round trip, but nothing coalesces.
            let mut results = fetch(requests);
            results.resize_with(n, Vec::new);
            let mut fetched_bytes = ByteSize::ZERO;
            for (i, objects) in results.iter().enumerate() {
                let bytes: ByteSize = objects.iter().map(|o| o.size).sum();
                fetched_bytes += bytes;
                on_serve(i, objects, true);
                serves[i] = BatchServe {
                    objects: objects.len() as u64,
                    bytes,
                    primary: true,
                };
            }
            self.stats.primary_fetches += n as u64;
            self.stats.cluster_bytes_fetched += fetched_bytes;
            return BatchOutcome {
                serves,
                fetched_requests: n as u64,
                fetched_bytes,
            };
        }
        self.purge(now);

        /// Where one request's objects come from.
        enum Route {
            /// A prior fetch still held in the sideline buffer.
            Buffered,
            /// The `fetch_idx`-th range of this call's cluster flight.
            Flight { fetch_idx: usize, primary: bool },
        }
        let mut routes: Vec<Route> = Vec::with_capacity(n);
        let mut to_fetch: Vec<(BackendSubId, TimeRange)> = Vec::new();
        let mut first: HashMap<(BackendSubId, TimeRange), usize> = HashMap::new();
        for &(bs, range) in requests {
            let key = (bs, range);
            if self.entries.contains_key(&key) {
                routes.push(Route::Buffered);
            } else if let Some(&fetch_idx) = first.get(&key) {
                routes.push(Route::Flight {
                    fetch_idx,
                    primary: false,
                });
            } else {
                let fetch_idx = to_fetch.len();
                first.insert(key, fetch_idx);
                to_fetch.push(key);
                routes.push(Route::Flight {
                    fetch_idx,
                    primary: true,
                });
            }
        }

        let mut results = if to_fetch.is_empty() {
            Vec::new()
        } else {
            fetch(&to_fetch)
        };
        results.resize_with(to_fetch.len(), Vec::new);
        let result_bytes: Vec<ByteSize> = results
            .iter()
            .map(|objects| objects.iter().map(|o| o.size).sum())
            .collect();
        let mut fetched_bytes = ByteSize::ZERO;
        for &bytes in &result_bytes {
            fetched_bytes += bytes;
        }
        self.stats.primary_fetches += to_fetch.len() as u64;
        self.stats.cluster_bytes_fetched += fetched_bytes;

        for (i, route) in routes.iter().enumerate() {
            match route {
                Route::Buffered => {
                    let key = (requests[i].0, requests[i].1);
                    let entry = self.entries.get(&key).expect("buffered");
                    self.stats.coalesced_fetches += 1;
                    self.stats.duplicate_bytes_saved += entry.bytes;
                    on_serve(i, &entry.objects, false);
                    serves[i] = BatchServe {
                        objects: entry.objects.len() as u64,
                        bytes: entry.bytes,
                        primary: false,
                    };
                }
                Route::Flight { fetch_idx, primary } => {
                    let objects = &results[*fetch_idx];
                    let bytes = result_bytes[*fetch_idx];
                    if !primary {
                        self.stats.coalesced_fetches += 1;
                        self.stats.duplicate_bytes_saved += bytes;
                    }
                    on_serve(i, objects, *primary);
                    serves[i] = BatchServe {
                        objects: objects.len() as u64,
                        bytes,
                        primary: *primary,
                    };
                }
            }
        }

        let fetched_requests = to_fetch.len() as u64;
        for (fetch_idx, key) in to_fetch.into_iter().enumerate() {
            let objects = std::mem::take(&mut results[fetch_idx]);
            let bytes = result_bytes[fetch_idx];
            if bytes <= self.config.budget {
                self.stash(key, objects, bytes, now);
            }
        }
        BatchOutcome {
            serves,
            fetched_requests,
            fetched_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::{DataValue, ObjectId};

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn obj(id: u64, ts_secs: u64, size: u64) -> ResultObject {
        ResultObject {
            id: ObjectId::new(id),
            backend_sub: BackendSubId::new(1),
            ts: t(ts_secs),
            size: ByteSize::new(size),
            payload: DataValue::Null.into(),
        }
    }

    fn range(from: u64, to: u64) -> TimeRange {
        TimeRange::closed(t(from), t(to))
    }

    fn coalescer(budget: u64, hold_secs: u64) -> FetchCoalescer {
        FetchCoalescer::new(CoalescerConfig {
            enabled: true,
            budget: ByteSize::new(budget),
            hold: SimDuration::from_secs(hold_secs),
        })
    }

    #[test]
    fn identical_range_within_hold_is_served_from_the_buffer() {
        let mut c = coalescer(1000, 10);
        let bs = BackendSubId::new(1);
        let first = c.fetch(bs, range(0, 5), t(1), || vec![obj(1, 2, 100)]);
        assert!(first.primary);
        assert_eq!(first.bytes, ByteSize::new(100));
        // The follower's closure must not run: single flight.
        let second = c.fetch(bs, range(0, 5), t(1), || panic!("duplicate cluster fetch"));
        assert!(!second.primary);
        assert_eq!(second.objects.len(), 1);
        assert_eq!(second.objects[0].id, ObjectId::new(1));
        let stats = c.stats();
        assert_eq!(stats.primary_fetches, 1);
        assert_eq!(stats.coalesced_fetches, 1);
        assert_eq!(stats.duplicate_bytes_saved, ByteSize::new(100));
        assert_eq!(stats.cluster_bytes_fetched, ByteSize::new(100));
    }

    #[test]
    fn hold_expiry_forces_a_fresh_fetch() {
        let mut c = coalescer(1000, 2);
        let bs = BackendSubId::new(1);
        c.fetch(bs, range(0, 5), t(1), || vec![obj(1, 2, 100)]);
        // Past the hold window: a new primary fetch, buffer purged.
        let again = c.fetch(bs, range(0, 5), t(4), || vec![obj(1, 2, 100)]);
        assert!(again.primary);
        assert_eq!(c.stats().primary_fetches, 2);
        assert_eq!(c.stats().coalesced_fetches, 0);
    }

    #[test]
    fn different_ranges_do_not_coalesce() {
        let mut c = coalescer(1000, 10);
        let bs = BackendSubId::new(1);
        let a = c.fetch(bs, range(0, 5), t(1), || vec![obj(1, 2, 50)]);
        assert!(a.primary);
        let b = c.fetch(bs, range(0, 6), t(1), || vec![obj(1, 2, 50), obj(2, 6, 50)]);
        assert!(b.primary);
        assert_eq!(c.stats().primary_fetches, 2);
        assert_eq!(c.buffered_entries(), 2);
    }

    #[test]
    fn invalidate_drops_only_that_backend_sub() {
        let mut c = coalescer(1000, 10);
        c.fetch(BackendSubId::new(1), range(0, 5), t(1), || {
            vec![obj(1, 2, 100)]
        });
        c.fetch(BackendSubId::new(2), range(0, 5), t(1), || {
            vec![obj(2, 2, 40)]
        });
        c.invalidate(BackendSubId::new(1));
        assert_eq!(c.buffered_entries(), 1);
        assert_eq!(c.buffered_bytes(), ByteSize::new(40));
        // The invalidated range refetches; the survivor still serves.
        let refetch = c.fetch(BackendSubId::new(1), range(0, 5), t(1), || {
            vec![obj(1, 2, 100), obj(3, 3, 10)]
        });
        assert!(refetch.primary);
        let kept = c.fetch(BackendSubId::new(2), range(0, 5), t(1), || {
            panic!("survivor must serve from buffer")
        });
        assert!(!kept.primary);
    }

    #[test]
    fn budget_evicts_oldest_and_oversized_is_never_stashed() {
        let mut c = coalescer(100, 10);
        let bs = BackendSubId::new(1);
        c.fetch(bs, range(0, 1), t(1), || vec![obj(1, 1, 60)]);
        c.fetch(bs, range(0, 2), t(1), || vec![obj(2, 2, 60)]);
        // The second fetch evicted the first to fit.
        assert_eq!(c.buffered_entries(), 1);
        assert_eq!(c.buffered_bytes(), ByteSize::new(60));
        let refetch = c.fetch(bs, range(0, 1), t(1), || vec![obj(1, 1, 60)]);
        assert!(refetch.primary);
        // An entry bigger than the whole budget is served, not stashed.
        let big = c.fetch(bs, range(0, 9), t(1), || vec![obj(9, 3, 500)]);
        assert!(big.primary);
        assert_eq!(big.objects.len(), 1);
        assert!(c.buffered_bytes() <= ByteSize::new(100));
    }

    #[test]
    fn disabled_coalescer_always_goes_to_the_cluster() {
        let mut c = FetchCoalescer::new(CoalescerConfig {
            enabled: false,
            ..CoalescerConfig::default()
        });
        let bs = BackendSubId::new(1);
        for _ in 0..3 {
            let f = c.fetch(bs, range(0, 5), t(1), || vec![obj(1, 2, 100)]);
            assert!(f.primary);
        }
        let stats = c.stats();
        assert_eq!(stats.primary_fetches, 3);
        assert_eq!(stats.coalesced_fetches, 0);
        assert_eq!(stats.cluster_bytes_fetched, ByteSize::new(300));
        assert_eq!(c.buffered_entries(), 0);
    }

    #[test]
    fn batch_collapses_duplicates_and_serves_buffered() {
        let mut c = coalescer(10_000, 10);
        let bs = BackendSubId::new(1);
        // Pre-buffer one range.
        c.fetch(bs, range(0, 1), t(1), || vec![obj(1, 1, 10)]);
        let requests = [
            (bs, range(0, 1)),                   // buffered
            (bs, range(0, 2)),                   // fresh
            (bs, range(0, 2)),                   // duplicate within the batch
            (BackendSubId::new(2), range(0, 2)), // distinct backend sub
        ];
        let mut served: Vec<(usize, u64, bool)> = Vec::new();
        let outcome = c.fetch_batch(
            &requests,
            t(1),
            |to_fetch| {
                // One flight for the two distinct un-buffered ranges.
                assert_eq!(to_fetch.len(), 2);
                vec![vec![obj(2, 2, 20)], vec![obj(3, 2, 30)]]
            },
            |i, objects, primary| served.push((i, objects.len() as u64, primary)),
        );
        assert_eq!(outcome.fetched_requests, 2);
        assert_eq!(outcome.fetched_bytes, ByteSize::new(50));
        assert_eq!(
            served,
            vec![(0, 1, false), (1, 1, true), (2, 1, false), (3, 1, true)]
        );
        assert_eq!(outcome.serves[0].bytes, ByteSize::new(10));
        assert!(!outcome.serves[0].primary);
        assert!(outcome.serves[1].primary);
        assert!(!outcome.serves[2].primary);
        assert!(outcome.serves[3].primary);
        // Fresh flights are stashed: a later identical request coalesces.
        let later = c.fetch(bs, range(0, 2), t(2), || panic!("stashed"));
        assert!(!later.primary);
        let stats = c.stats();
        assert_eq!(stats.primary_fetches, 3); // 1 single + 2 batch flights
        assert_eq!(stats.coalesced_fetches, 3);
    }

    #[test]
    fn empty_fetch_results_are_buffered_too() {
        // A range with no objects still coalesces: the knowledge that
        // the range is empty is itself worth one round trip.
        let mut c = coalescer(1000, 10);
        let bs = BackendSubId::new(1);
        let first = c.fetch(bs, range(0, 5), t(1), Vec::new);
        assert!(first.primary);
        assert_eq!(first.bytes, ByteSize::ZERO);
        let second = c.fetch(bs, range(0, 5), t(1), || panic!("empty is cached"));
        assert!(!second.primary);
        assert_eq!(second.objects.len(), 0);
    }
}
