//! Lock-free GET hot path: seqlock snapshots and the deferred
//! bookkeeping mailbox.
//!
//! The shard mutex serializes every cache operation, and PR 8's
//! profiler showed GETs — the paper's user-facing operation — queueing
//! behind writers on that mutex. This module lets a GET run without
//! the shard lock in the common read-mostly case:
//!
//! * Each cache publishes an immutable [`CacheSnapshot`] of exactly
//!   the state [`crate::ResultCache::plan_get`] reads (entry
//!   descriptors, coverage watermark, admission gaps) behind a
//!   seqlock-style generation counter ([`CacheSlot`]). Readers
//!   validate the generation before and after planning and fall back
//!   to the locked path on any conflict; writers (which always hold
//!   the shard mutex) bump the generation to odd on every
//!   plan-relevant mutation.
//! * A GET still owes bookkeeping (LRU touch, hit counters, telemetry,
//!   victim reindex) and the broker still owes a consume-ack. Both
//!   become [`ReadRecord`]s pushed into a bounded per-shard
//!   [`ReadMailbox`] that every subsequent shard-lock acquisition
//!   drains *first*, so any state observed under the lock — metrics,
//!   eviction decisions, TTL sweeps — is post-drain and byte-identical
//!   to the serial locked execution.
//!
//! Everything here is `std`-only: `AtomicU64` + `Arc` swaps, with
//! tiny mutexes whose critical sections are pointer copies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use bad_types::{BackendSubId, ByteSize, ObjectId, SubscriberId, TimeRange, Timestamp};

use crate::result_cache::{plan_range, GetPlan, ResultCache};
use crate::sharded::mix64;

/// Deferred bookkeeping for the mailbox: one optimistic GET's hit
/// accounting, or one consume-ack taken off the contended path.
#[derive(Clone, Debug)]
pub(crate) enum ReadRecord {
    /// An optimistic GET served `objects`/`bytes` from a snapshot of
    /// cache `bs` at time `now`; replay the LRU touch, hit counters,
    /// telemetry event and policy reindex the locked path would have
    /// done inline.
    Hits {
        bs: BackendSubId,
        objects: u64,
        bytes: ByteSize,
        now: Timestamp,
    },
    /// A consume-ack deferred off a contended shard; replay the full
    /// `ack_consume` (drops land in the manager's deferred-drop stash).
    Ack {
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    },
}

/// Mailbox capacity; a full mailbox forces the GET/ack onto the locked
/// path, which drains it, so the bound is back-pressure, not loss.
pub(crate) const MAILBOX_CAP: usize = 1024;

/// Bounded swap-drain mailbox for [`ReadRecord`]s.
///
/// Pushes lock the inner `Vec` mutex only long enough for one `push`;
/// the drain takes the whole `Vec` in one `mem::take`. `len` is a
/// racy fast-path hint so uncontended lock acquisitions skip the
/// mutex entirely when nothing is pending.
#[derive(Debug, Default)]
pub(crate) struct ReadMailbox {
    records: Mutex<Vec<ReadRecord>>,
    len: AtomicUsize,
    /// 64-bit bloom filter over `mix64(bs)` of caches with a deferred
    /// ack in flight. An optimistic GET whose cache hits the filter
    /// must fall back to the locked path (which drains first), or it
    /// could serve pre-ack state the serial execution has already
    /// consumed. False positives only cost a fallback.
    ack_filter: AtomicU64,
}

fn ack_bit(bs: BackendSubId) -> u64 {
    1u64 << (mix64(bs.as_u64()) & 63)
}

impl ReadMailbox {
    /// Whether nothing is pending (racy hint; exact under the shard
    /// lock because all pushes for a drained shard happen-before the
    /// drain that observed them).
    pub(crate) fn is_empty(&self) -> bool {
        self.len.load(Ordering::Acquire) == 0
    }

    /// Whether cache `bs` may have a deferred ack pending.
    pub(crate) fn maybe_pending_ack(&self, bs: BackendSubId) -> bool {
        self.ack_filter.load(Ordering::Acquire) & ack_bit(bs) != 0
    }

    /// Enqueues one record; returns `false` (record not enqueued) when
    /// the mailbox is full.
    pub(crate) fn push(&self, record: ReadRecord) -> bool {
        let mut records = self.records.lock().expect("mailbox poisoned");
        if records.len() >= MAILBOX_CAP {
            return false;
        }
        if let ReadRecord::Ack { bs, .. } = record {
            self.ack_filter.fetch_or(ack_bit(bs), Ordering::AcqRel);
        }
        records.push(record);
        self.len.store(records.len(), Ordering::Release);
        true
    }

    /// Takes every pending record in FIFO order and clears the ack
    /// filter. Filter reset and take happen under the same mutex as
    /// pushes, so no concurrently pushed ack can lose its filter bit.
    pub(crate) fn drain(&self) -> Vec<ReadRecord> {
        let mut records = self.records.lock().expect("mailbox poisoned");
        let out = std::mem::take(&mut *records);
        self.ack_filter.store(0, Ordering::Release);
        self.len.store(0, Ordering::Release);
        out
    }
}

/// An immutable copy of exactly the state `ResultCache::plan_get`
/// reads. Published behind a [`CacheSlot`]; never mutated after
/// construction, so optimistic readers can never observe a torn plan —
/// the generation check only guards *freshness*.
#[derive(Clone, Debug)]
pub(crate) struct CacheSnapshot {
    /// The slot generation this snapshot was built at (always even).
    gen: u64,
    coverage_from: Timestamp,
    /// Admission-gap timestamps, ascending.
    gaps: Vec<Timestamp>,
    /// `(id, ts, size)` per resident object, timestamp-ascending
    /// (tail→head), mirroring the deque order the locked scan walks.
    entries: Vec<(ObjectId, Timestamp, ByteSize)>,
}

impl CacheSnapshot {
    fn empty() -> Self {
        Self {
            gen: 0,
            coverage_from: Timestamp::ZERO,
            gaps: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Captures the plan-relevant state of a live cache at generation
    /// `gen`. Caller must hold the shard lock.
    pub(crate) fn capture(cache: &ResultCache, gen: u64) -> Self {
        Self {
            gen,
            coverage_from: cache.coverage_from(),
            gaps: cache.gaps().collect(),
            entries: cache.iter().map(|o| (o.id, o.ts, o.size)).collect(),
        }
    }

    /// Plans a range retrieval against the snapshot —
    /// [`ResultCache::plan_get`] minus the `last_access` touch (replayed
    /// later via a [`ReadRecord::Hits`]).
    pub(crate) fn plan_get(&self, range: TimeRange) -> GetPlan {
        plan_range(
            range,
            self.coverage_from,
            |from| {
                let first = self.gaps.partition_point(|&g| g < from);
                self.gaps[first..].iter().copied()
            },
            |from| {
                let first = self.entries.partition_point(|&(_, ts, _)| ts < from);
                self.entries[first..].iter().copied()
            },
        )
    }
}

/// One cache's published snapshot plus its seqlock generation.
///
/// Protocol: `gen` even = `snap` is current; odd = stale (a writer
/// mutated plan-relevant state since the last rebuild). Writers always
/// hold the shard mutex, so they never race each other:
///
/// * invalidate (any plan-relevant mutation): even→odd (`gen + 1`).
/// * rebuild (locked GET fallback): store the new snapshot, then store
///   the even `gen + 1` with `Release`.
///
/// Readers load `gen` (`Acquire`, must be even), copy the `Arc` under
/// the micro-mutex, check the snapshot's embedded generation matches,
/// plan, then re-load `gen`; any mismatch falls back to the locked
/// path.
#[derive(Debug)]
pub(crate) struct CacheSlot {
    gen: AtomicU64,
    snap: Mutex<Arc<CacheSnapshot>>,
    /// Set by optimistic readers, cleared on republish: lets writers
    /// eagerly refresh only the slots that GETs actually touch, so the
    /// snapshot-capture cost lands on the (already locked) writer
    /// instead of the reader's fallback path.
    read_hint: AtomicBool,
}

impl CacheSlot {
    /// A new slot starts stale (odd generation) so the first GET takes
    /// the locked path and publishes a real snapshot.
    fn new() -> Self {
        Self {
            gen: AtomicU64::new(1),
            snap: Mutex::new(Arc::new(CacheSnapshot::empty())),
            read_hint: AtomicBool::new(false),
        }
    }

    /// Marks the published snapshot stale. Caller holds the shard lock.
    pub(crate) fn invalidate(&self) {
        let gen = self.gen.load(Ordering::Relaxed);
        if gen & 1 == 0 {
            self.gen.store(gen + 1, Ordering::Release);
        }
    }

    /// Rebuilds and republishes the snapshot from the live cache if it
    /// is stale. Caller holds the shard lock.
    pub(crate) fn refresh(&self, cache: &ResultCache) {
        let gen = self.gen.load(Ordering::Relaxed);
        if gen & 1 == 0 {
            return;
        }
        let next = gen + 1;
        *self.snap.lock().expect("snapshot poisoned") =
            Arc::new(CacheSnapshot::capture(cache, next));
        self.gen.store(next, Ordering::Release);
        self.read_hint.store(false, Ordering::Relaxed);
    }

    /// True if an optimistic GET touched this slot since the last
    /// republish. Caller holds the shard lock.
    pub(crate) fn read_since_refresh(&self) -> bool {
        self.read_hint.load(Ordering::Relaxed)
    }

    /// Returns a validated snapshot, or `None` if a writer is (or was)
    /// active since it was published.
    pub(crate) fn read(&self) -> Option<Arc<CacheSnapshot>> {
        // Load-first so the common case (hint already set) never dirties
        // the cache line under other readers.
        if !self.read_hint.load(Ordering::Relaxed) {
            self.read_hint.store(true, Ordering::Relaxed);
        }
        let gen = self.gen.load(Ordering::Acquire);
        if gen & 1 == 1 {
            return None;
        }
        let snap = Arc::clone(&self.snap.lock().expect("snapshot poisoned"));
        if snap.gen != gen {
            return None;
        }
        Some(snap)
    }

    /// Re-validates a snapshot after planning against it.
    pub(crate) fn still_valid(&self, snap: &CacheSnapshot) -> bool {
        self.gen.load(Ordering::Acquire) == snap.gen
    }
}

/// The published `bs → slot` map: copy-on-write `BTreeMap` behind an
/// `Arc`, swapped only on cache create/remove (rare), read by every
/// optimistic GET with one mutex-guarded pointer copy.
#[derive(Debug)]
struct SlotMap {
    map: Mutex<Arc<BTreeMap<BackendSubId, Arc<CacheSlot>>>>,
}

impl SlotMap {
    fn new() -> Self {
        Self {
            map: Mutex::new(Arc::new(BTreeMap::new())),
        }
    }

    fn load(&self) -> Arc<BTreeMap<BackendSubId, Arc<CacheSlot>>> {
        Arc::clone(&self.map.lock().expect("slot map poisoned"))
    }

    fn add(&self, bs: BackendSubId) {
        let mut map = self.map.lock().expect("slot map poisoned");
        if map.contains_key(&bs) {
            return;
        }
        let mut next = (**map).clone();
        next.insert(bs, Arc::new(CacheSlot::new()));
        *map = Arc::new(next);
    }

    fn remove(&self, bs: BackendSubId) {
        let mut map = self.map.lock().expect("slot map poisoned");
        if !map.contains_key(&bs) {
            return;
        }
        let mut next = (**map).clone();
        next.remove(&bs);
        *map = Arc::new(next);
    }
}

/// Per-shard lock-free read state: the snapshot slots, the deferred
/// bookkeeping mailbox, and the optimistic-reads master switch.
#[derive(Debug)]
pub(crate) struct ShardReadPath {
    slots: SlotMap,
    pub(crate) mailbox: ReadMailbox,
    /// Cleared when shadow evaluation attaches: ghost replay needs the
    /// plan synchronously under the shard lock, so every GET falls
    /// back to the locked path while a shadow is live.
    optimistic: AtomicBool,
}

impl ShardReadPath {
    pub(crate) fn new() -> Self {
        Self {
            slots: SlotMap::new(),
            mailbox: ReadMailbox::default(),
            optimistic: AtomicBool::new(true),
        }
    }

    /// Whether optimistic reads are currently allowed on this shard.
    pub(crate) fn optimistic(&self) -> bool {
        self.optimistic.load(Ordering::Acquire)
    }

    /// Disables (or re-enables) optimistic reads.
    pub(crate) fn set_optimistic(&self, on: bool) {
        self.optimistic.store(on, Ordering::Release);
    }

    /// The current published slot map.
    pub(crate) fn slots(&self) -> Arc<BTreeMap<BackendSubId, Arc<CacheSlot>>> {
        self.slots.load()
    }

    /// Registers a slot for a newly created cache (stale until the
    /// first locked GET publishes a snapshot).
    pub(crate) fn add_slot(&self, bs: BackendSubId) {
        self.slots.add(bs);
    }

    /// Unpublishes a removed cache's slot; optimistic readers then see
    /// the cache as missing, exactly like the locked path.
    pub(crate) fn remove_slot(&self, bs: BackendSubId) {
        self.slots.remove(bs);
    }

    /// Marks cache `bs`'s snapshot stale. Caller holds the shard lock.
    pub(crate) fn invalidate(&self, bs: BackendSubId) {
        if let Some(slot) = self.slots.load().get(&bs) {
            slot.invalidate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::NewObject;
    use bad_types::SimDuration;

    fn cache_with_entries(ts_list: &[u64]) -> ResultCache {
        let mut c = ResultCache::new(
            BackendSubId::new(7),
            Timestamp::ZERO,
            SimDuration::from_mins(5),
        );
        c.add_subscriber(SubscriberId::new(1));
        for (i, &ts) in ts_list.iter().enumerate() {
            c.insert(
                NewObject {
                    id: ObjectId::new(i as u64),
                    ts: Timestamp::from_secs(ts),
                    size: ByteSize::new(10),
                    fetch_latency: SimDuration::from_millis(500),
                },
                Timestamp::from_secs(ts),
            );
        }
        c
    }

    /// The snapshot planner must agree with the live planner on every
    /// range shape: empty, fully before coverage, straddling, gaps.
    #[test]
    fn snapshot_plan_matches_live_plan() {
        let mut cache = cache_with_entries(&[10, 20, 30, 40]);
        cache.record_gap(Timestamp::from_secs(25));
        let snap = CacheSnapshot::capture(&cache, 2);
        let ranges = [
            TimeRange::closed(Timestamp::from_secs(10), Timestamp::from_secs(40)),
            TimeRange::closed(Timestamp::from_secs(15), Timestamp::from_secs(35)),
            TimeRange::half_open(Timestamp::from_secs(10), Timestamp::from_secs(30)),
            TimeRange::closed(Timestamp::from_secs(50), Timestamp::from_secs(60)),
            TimeRange::half_open(Timestamp::from_secs(5), Timestamp::from_secs(5)),
            TimeRange::closed(Timestamp::from_secs(25), Timestamp::from_secs(25)),
        ];
        for range in ranges {
            let live = cache.plan_get(range, Timestamp::from_secs(100));
            let optimistic = snap.plan_get(range);
            assert_eq!(live, optimistic, "range {range:?}");
        }
    }

    #[test]
    fn slot_read_rejects_stale_generation() {
        let cache = cache_with_entries(&[10]);
        let slot = CacheSlot::new();
        assert!(slot.read().is_none(), "new slot starts stale");
        slot.refresh(&cache);
        let snap = slot.read().expect("fresh after refresh");
        assert!(slot.still_valid(&snap));
        slot.invalidate();
        assert!(!slot.still_valid(&snap));
        assert!(slot.read().is_none());
    }

    #[test]
    fn mailbox_bounds_and_ack_filter() {
        let mbox = ReadMailbox::default();
        assert!(mbox.is_empty());
        let bs = BackendSubId::new(3);
        assert!(mbox.push(ReadRecord::Ack {
            bs,
            sub: SubscriberId::new(1),
            up_to: Timestamp::from_secs(1),
            now: Timestamp::from_secs(1),
        }));
        assert!(mbox.maybe_pending_ack(bs));
        assert!(!mbox.is_empty());
        let drained = mbox.drain();
        assert_eq!(drained.len(), 1);
        assert!(mbox.is_empty());
        assert!(!mbox.maybe_pending_ack(bs));
        for i in 0..MAILBOX_CAP {
            assert!(mbox.push(ReadRecord::Hits {
                bs,
                objects: i as u64,
                bytes: ByteSize::ZERO,
                now: Timestamp::ZERO,
            }));
        }
        assert!(
            !mbox.push(ReadRecord::Hits {
                bs,
                objects: 0,
                bytes: ByteSize::ZERO,
                now: Timestamp::ZERO,
            }),
            "push past capacity must report back-pressure"
        );
    }
}
