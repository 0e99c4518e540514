//! The per-backend-subscription result cache.
//!
//! "Each result cache is a sorted list of objects ordered in the
//! descending order of their timestamps as new objects are pushed at the
//! head and old objects are deleted from the tail when needed"
//! (Section III-C). Internally the deque keeps the oldest object (the
//! paper's *tail*) at index 0 and the newest (the *head*) at the back.
//!
//! An object's subscriber list `S(i,j)` is not materialised. Section
//! IV-A defines it by attachment time and Algorithm 1 retrieves by
//! timestamp range, so it is fully determined by one retrieval
//! **cursor** per attached subscriber — the sequence number of the
//! first object that subscriber has not retrieved, set at attach to the
//! next sequence number: `s ∈ S(i,j) ⇔ cursor_s ≤ seq_ij`. Each object
//! keeps only the count `f_ij = |S(i,j)|`. Cursors are sequence numbers
//! rather than timestamps because one cluster tick emits several
//! results at one `ts`, and a subscriber attaching between two of them
//! is pending on the later one only.
//!
//! For `j` older than `k`, `S(i,j) ⊆ S(i,k)`: whoever is still pending
//! on `j` has been attached since before `j`, so was attached at `k`,
//! and acks are prefixes, so has not passed `k` either. Fully consumed
//! objects are therefore always a prefix of the deque and entries only
//! ever leave from the front.
//!
//! A retrieval by one subscriber ([`ResultCache::get_and_consume`])
//! looks its cursor up once, in a hashed map, and starts the plan at
//! the cursor's position: the first object the subscriber has not
//! retrieved is, in the common case, the first object of the range it
//! asks for, so the plan needs no search of the deque.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

use crate::object::{CachedObject, NewObject};
use crate::rate::RateEstimator;

/// The outcome of planning a range retrieval against one cache —
/// the `GET` routine of Algorithm 1.
///
/// `cached` lists the objects servable from the cache; `missed` is the
/// part of the request before the coverage watermark, which the broker
/// fetches from the data cluster. Missed objects are *not* re-cached
/// ("they may not be sharable by other subscribers any more").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetPlan {
    /// `(id, ts, size)` of each object servable from the cache, in
    /// timestamp order.
    pub cached: Vec<(ObjectId, Timestamp, ByteSize)>,
    /// Total size of the cached part.
    pub cached_bytes: ByteSize,
    /// The range that must be fetched from the data cluster: empty on a
    /// full hit, otherwise the one range leading up to the coverage
    /// watermark. A `Vec` rather than an `Option` only because the
    /// benchmark harness calls `.is_empty()` on it.
    pub missed: Vec<TimeRange>,
}

impl GetPlan {
    /// A plan in which everything missed (nothing, for an empty range).
    pub(crate) fn all_missed(range: TimeRange) -> Self {
        Self {
            cached: Vec::new(),
            cached_bytes: ByteSize::ZERO,
            missed: if range.is_empty() {
                Vec::new()
            } else {
                vec![range]
            },
        }
    }

    /// Whether the plan requires no cluster fetch.
    pub fn is_full_hit(&self) -> bool {
        self.missed.is_empty()
    }
}

/// Position in the deque of the object with sequence number `cursor`,
/// clamped to the tail when eviction or expiry already took it.
fn index_of(cursor: u64, base_seq: u64) -> usize {
    cursor.saturating_sub(base_seq) as usize
}

/// Whether `h` is the partition point of `entries` at `from`: every
/// object before it is older than `from`, and it is either the end or
/// an object not older than `from`.
fn starts_at(entries: &VecDeque<CachedObject>, h: usize, from: Timestamp) -> bool {
    h <= entries.len()
        && (h == 0 || entries[h - 1].ts < from)
        && entries.get(h).is_none_or(|o| from <= o.ts)
}

/// Algorithm 1 `GET` over `entries`, covered from `coverage_from`. The
/// first candidate is `hint` when that is the partition point at
/// `range.from` (see [`starts_at`]), and is found by binary search
/// otherwise; either way the plan is the same.
fn plan_in(
    entries: &VecDeque<CachedObject>,
    coverage_from: Timestamp,
    range: TimeRange,
    hint: Option<usize>,
) -> GetPlan {
    if range.is_empty() {
        return GetPlan {
            cached: Vec::new(),
            cached_bytes: ByteSize::ZERO,
            missed: Vec::new(),
        };
    }
    if range.to < coverage_from || (range.to == coverage_from && !range.closed_right) {
        // Case 3: the whole request lies before the covered region.
        return GetPlan::all_missed(range);
    }

    // Case 1/2: the covered part of the range is served from the
    // cache; anything before the coverage watermark is missed.
    let mut missed = Vec::new();
    if range.from < coverage_from {
        missed.push(TimeRange::half_open(range.from, coverage_from));
    }
    let mut cached = Vec::new();
    let mut cached_bytes = ByteSize::ZERO;
    let first = match hint {
        Some(h) if starts_at(entries, h, range.from) => h,
        _ => entries.partition_point(|o| o.ts < range.from),
    };
    for o in entries.range(first..) {
        if o.ts > range.to {
            break;
        }
        if range.contains(o.ts) {
            cached.push((o.id, o.ts, o.size));
            cached_bytes += o.size;
        }
    }
    GetPlan {
        cached,
        cached_bytes,
        missed,
    }
}

/// Marks every object from `cursor` with `ts <= up_to` as retrieved
/// and moves `cursor` past them: one forward pass, so an ack that
/// advances by `k` objects touches `k` entries however long the cache
/// is.
fn mark_in(
    entries: &mut VecDeque<CachedObject>,
    base_seq: u64,
    cursor: &mut u64,
    up_to: Timestamp,
) {
    let start = index_of(*cursor, base_seq);
    let mut passed = start;
    for entry in entries.range_mut(start..) {
        if entry.ts > up_to {
            break;
        }
        entry.pending -= 1;
        passed += 1;
    }
    *cursor = base_seq + passed as u64;
}

/// One backend subscription's in-memory result cache.
#[derive(Clone)]
pub struct ResultCache {
    id: BackendSubId,
    /// Oldest (tail) at the front, newest (head) at the back.
    entries: VecDeque<CachedObject>,
    /// Sequence number of `entries[0]`; `entries[i]` has sequence
    /// `base_seq + i`. Bumps on every `pop_front`.
    base_seq: u64,
    /// Subscribers currently attached to the cache (`S(i)`), each with
    /// its retrieval cursor. A cursor left behind `base_seq` by eviction
    /// or expiry means "at the tail". Hashed on the keyed default
    /// hasher, because a client chooses its `SubscriberId`.
    subs: HashMap<SubscriberId, u64>,
    total_bytes: ByteSize,
    /// Last time a subscriber retrieved from this cache (LRU key).
    last_access: Timestamp,
    /// Measured arrival rate `λ_i` (bytes/s).
    arrivals: RateEstimator,
    /// Measured consumption rate `η_i` (bytes/s) — bytes leaving because
    /// every attached subscriber retrieved them.
    consumption: RateEstimator,
    /// Current TTL `T_i` assigned by the TTL computer.
    ttl: SimDuration,
    created_at: Timestamp,
    /// The cache fully covers cluster results with `ts >= coverage_from`:
    /// every such result is either resident or was consumed by all its
    /// attached subscribers. Starts at creation time and advances past
    /// each evicted/expired tail, so only genuinely lost ranges miss.
    coverage_from: Timestamp,
}

impl ResultCache {
    /// Creates an empty cache for one backend subscription.
    pub fn new(id: BackendSubId, now: Timestamp, rate_window: SimDuration) -> Self {
        Self {
            id,
            entries: VecDeque::new(),
            base_seq: 0,
            subs: HashMap::new(),
            total_bytes: ByteSize::ZERO,
            last_access: now,
            arrivals: RateEstimator::new(rate_window),
            consumption: RateEstimator::new(rate_window),
            ttl: SimDuration::from_hours(24),
            created_at: now,
            coverage_from: now,
        }
    }

    /// The backend subscription this cache belongs to.
    pub fn id(&self) -> BackendSubId {
        self.id
    }

    /// Number of resident objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total size of resident objects.
    pub fn total_bytes(&self) -> ByteSize {
        self.total_bytes
    }

    /// Attached subscribers (`S(i)`), in id order.
    pub fn subscribers(&self) -> impl Iterator<Item = SubscriberId> {
        let mut subs: Vec<SubscriberId> = self.subs.keys().copied().collect();
        subs.sort_unstable();
        subs.into_iter()
    }

    /// Number of attached subscribers (`n_i`).
    pub fn subscriber_count(&self) -> usize {
        self.subs.len()
    }

    /// Timestamp of the newest resident object (the paper's `head`).
    pub fn head_ts(&self) -> Option<Timestamp> {
        self.entries.back().map(|o| o.ts)
    }

    /// Timestamp of the oldest resident object (the paper's `tail`).
    pub fn tail_ts(&self) -> Option<Timestamp> {
        self.entries.front().map(|o| o.ts)
    }

    /// The oldest resident object — the only eviction candidate.
    pub fn tail(&self) -> Option<&CachedObject> {
        self.entries.front()
    }

    /// Last retrieval time (LRU key).
    pub fn last_access(&self) -> Timestamp {
        self.last_access
    }

    /// When the cache was created.
    pub fn created_at(&self) -> Timestamp {
        self.created_at
    }

    /// The coverage watermark: results with `ts >= coverage_from` are
    /// fully represented by this cache (resident or consumed).
    pub fn coverage_from(&self) -> Timestamp {
        self.coverage_from
    }

    /// Current TTL `T_i`.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Assigns a new TTL (from the periodic recomputation).
    pub fn set_ttl(&mut self, ttl: SimDuration) {
        self.ttl = ttl;
    }

    /// Measured arrival rate `λ_i` in bytes/s.
    pub fn arrival_rate(&self, now: Timestamp) -> f64 {
        self.arrivals.rate(now)
    }

    /// Measured consumption rate `η_i` in bytes/s.
    pub fn consumption_rate(&self, now: Timestamp) -> f64 {
        self.consumption.rate(now)
    }

    /// Net growth rate `ρ_i = (λ_i − η_i)⁺` in bytes/s (eq. 5).
    pub fn growth_rate(&self, now: Timestamp) -> f64 {
        (self.arrivals.rate(now) - self.consumption.rate(now)).max(0.0)
    }

    /// Measured arrival rate `λ_i` in objects/s — the event-count view
    /// the analytical hit-ratio model (eqs. 5–7) works in.
    pub fn arrival_event_rate(&self, now: Timestamp) -> f64 {
        self.arrivals.event_rate(now)
    }

    /// Measured consumption rate `η_i` in objects/s, aggregated over
    /// all attached subscribers.
    pub fn consumption_event_rate(&self, now: Timestamp) -> f64 {
        self.consumption.event_rate(now)
    }

    /// Attaches a subscriber to the cache. Only objects inserted from now
    /// on will count it as pending (Section IV-A: earlier objects "would
    /// not contain this particular subscriber in their subscriber list").
    /// Re-attaching an attached subscriber keeps its cursor.
    pub fn add_subscriber(&mut self, sub: SubscriberId) {
        let next_seq = self.base_seq + self.entries.len() as u64;
        self.subs.entry(sub).or_insert(next_seq);
    }

    /// Detaches a subscriber, also removing it from the pending count
    /// of every resident object it has not retrieved (the `UNSUBSCRIBE`
    /// routine). Objects nobody is pending on any more are dropped and
    /// returned.
    pub fn remove_subscriber(&mut self, sub: SubscriberId) -> Vec<CachedObject> {
        if let Some(cursor) = self.subs.remove(&sub) {
            let start = index_of(cursor, self.base_seq);
            for entry in self.entries.range_mut(start..) {
                entry.pending -= 1;
            }
        }
        let dropped = self.pop_consumed(Timestamp::MAX);
        debug_assert!(
            self.entries.iter().all(|o| o.pending > 0),
            "consumed objects must form a prefix"
        );
        dropped
    }

    /// Pushes a new result at the head of the cache, pending on every
    /// currently attached subscriber, and records the arrival for `λ_i`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `desc.ts` is older than the current
    /// head — the cluster produces results in timestamp order per
    /// subscription.
    pub fn insert(&mut self, desc: NewObject, now: Timestamp) -> &CachedObject {
        debug_assert!(
            self.head_ts().is_none_or(|head| desc.ts >= head),
            "results must arrive in timestamp order"
        );
        self.arrivals.record(now, desc.size.as_u64());
        self.total_bytes += desc.size;
        // Note: insertion does NOT update `last_access` — the LRU policy
        // ranks caches by how recently a *subscriber* accessed them.
        let pending = u32::try_from(self.subs.len()).expect("fewer than 2^32 subscribers");
        let object = CachedObject::new(desc, now, self.ttl, pending);
        self.entries.push_back(object);
        self.entries.back().expect("just pushed")
    }

    /// Plans a range retrieval per Algorithm 1 and updates the LRU key.
    ///
    /// The request asks for objects with `ts ∈ range`. Returns which
    /// objects are servable from the cache and which sub-range (if any)
    /// must be fetched from the data cluster. The first candidate is
    /// found by binary search, so a plan costs `O(log n + k)`;
    /// [`ResultCache::get_and_consume`] starts at the subscriber's
    /// cursor instead.
    pub fn plan_get(&mut self, range: TimeRange, now: Timestamp) -> GetPlan {
        self.last_access = now;
        plan_in(&self.entries, self.coverage_from, range, None)
    }

    /// One retrieval by `sub`: [`ResultCache::plan_get`] of `range`,
    /// then [`ResultCache::consume_up_to`] of `sub` up to `up_to` when
    /// `consume` is set, or [`ResultCache::mark_retrieved_up_to`] when it
    /// is not. Returns the plan and the dropped objects, exactly as
    /// the two calls would.
    ///
    /// The cursor is looked up once. Its position is the plan's first
    /// candidate whenever it is the partition point at `range.from` —
    /// the subscriber asks for what follows what it retrieved — so the
    /// plan costs `O(k)`. Otherwise (a subscriber attached between two
    /// results of one tick, a cursor clamped behind the tail, an
    /// unattached subscriber) the plan binary-searches as `plan_get`
    /// does.
    pub fn get_and_consume(
        &mut self,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
        consume: bool,
    ) -> (GetPlan, Vec<CachedObject>) {
        self.last_access = now;
        let base_seq = self.base_seq;
        let cursor = self.subs.get_mut(&sub);
        let hint = cursor.as_deref().map(|&c| index_of(c, base_seq));
        let plan = plan_in(&self.entries, self.coverage_from, range, hint);
        if let Some(cursor) = cursor {
            mark_in(&mut self.entries, base_seq, cursor, up_to);
        }
        let dropped = if consume {
            self.drop_consumed(up_to, now)
        } else {
            Vec::new()
        };
        (plan, dropped)
    }

    /// Marks every object with `ts ∈ (·, up_to]` as retrieved by `sub`,
    /// dropping objects nobody is pending on any more (full consumption)
    /// and recording their bytes for `η_i`. Returns the dropped objects.
    pub fn consume_up_to(
        &mut self,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Vec<CachedObject> {
        self.mark_retrieved_up_to(sub, up_to);
        self.drop_consumed(up_to, now)
    }

    /// Marks objects up to `up_to` as retrieved by `sub` *without*
    /// dropping fully consumed objects (the consumption-drop ablation:
    /// objects then only leave via eviction or expiry).
    ///
    /// One forward pass from the subscriber's cursor: an ack that
    /// advances by `k` objects touches `k` entries however long the
    /// cache is. A subscriber that is not attached is pending on
    /// nothing.
    pub fn mark_retrieved_up_to(&mut self, sub: SubscriberId, up_to: Timestamp) {
        if let Some(cursor) = self.subs.get_mut(&sub) {
            mark_in(&mut self.entries, self.base_seq, cursor, up_to);
        }
    }

    /// Removes and returns the tail (oldest) object, if any — the only
    /// form of policy eviction.
    pub fn drop_tail(&mut self) -> Option<CachedObject> {
        let object = self.pop_front()?;
        self.advance_coverage_past(object.ts);
        Some(object)
    }

    /// Drops expired tail objects under the cache's current TTL,
    /// returning them. Objects are dropped strictly from the tail; an
    /// unexpired object stops the scan (older objects always expire
    /// first because insertion is timestamp-ordered).
    pub fn expire_tail(&mut self, now: Timestamp) -> Vec<CachedObject> {
        let mut dropped = Vec::new();
        while let Some(tail) = self.entries.front() {
            if tail.expires_at(self.ttl) <= now {
                let object = self.pop_front().expect("non-empty");
                self.advance_coverage_past(object.ts);
                dropped.push(object);
            } else {
                break;
            }
        }
        dropped
    }

    /// Iterates over resident objects from tail (oldest) to head (newest).
    pub fn iter(&self) -> impl Iterator<Item = &CachedObject> {
        self.entries.iter()
    }

    fn pop_front(&mut self) -> Option<CachedObject> {
        let object = self.entries.pop_front()?;
        self.base_seq += 1;
        self.total_bytes -= object.size;
        Some(object)
    }

    /// [`ResultCache::pop_consumed`] as far as `up_to`, recording the
    /// dropped bytes for `η_i`.
    fn drop_consumed(&mut self, up_to: Timestamp, now: Timestamp) -> Vec<CachedObject> {
        let dropped = self.pop_consumed(up_to);
        for object in &dropped {
            self.consumption.record(now, object.size.as_u64());
        }
        dropped
    }

    /// Pops the fully consumed prefix — objects with a pending count of
    /// zero — as far as `up_to`. Coverage does not move: a consumed
    /// object was served to everyone it was owed to.
    fn pop_consumed(&mut self, up_to: Timestamp) -> Vec<CachedObject> {
        let mut dropped = Vec::new();
        while self
            .entries
            .front()
            .is_some_and(|o| o.pending == 0 && o.ts <= up_to)
        {
            dropped.extend(self.pop_front());
        }
        dropped
    }

    /// Advances the coverage watermark just past a dropped tail's
    /// timestamp, so the dropped object itself falls in the missed range
    /// of future retrievals.
    fn advance_coverage_past(&mut self, ts: Timestamp) {
        let past = ts + SimDuration::from_micros(1);
        self.coverage_from = self.coverage_from.max(past);
    }
}

/// The derived layout, with the cursors in subscriber order so that
/// two caches in the same state print the same whatever order their
/// subscribers attached in.
impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let subs: BTreeMap<&SubscriberId, &u64> = self.subs.iter().collect();
        f.debug_struct("ResultCache")
            .field("id", &self.id)
            .field("entries", &self.entries)
            .field("base_seq", &self.base_seq)
            .field("subs", &subs)
            .field("total_bytes", &self.total_bytes)
            .field("last_access", &self.last_access)
            .field("arrivals", &self.arrivals)
            .field("consumption", &self.consumption)
            .field("ttl", &self.ttl)
            .field("created_at", &self.created_at)
            .field("coverage_from", &self.coverage_from)
            .finish()
    }
}

impl fmt::Display for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache {} ({} objects, {}, {} subscribers)",
            self.id,
            self.entries.len(),
            self.total_bytes,
            self.subs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn obj(id: u64, ts_secs: u64, size: u64) -> NewObject {
        NewObject {
            id: ObjectId::new(id),
            ts: t(ts_secs),
            size: ByteSize::new(size),
            fetch_latency: SimDuration::from_millis(500),
        }
    }

    fn cache_with(subs: &[u64]) -> ResultCache {
        let mut c = ResultCache::new(
            BackendSubId::new(0),
            Timestamp::ZERO,
            SimDuration::from_mins(5),
        );
        for &s in subs {
            c.add_subscriber(SubscriberId::new(s));
        }
        c
    }

    #[test]
    fn insert_orders_head_and_tail() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 1, 10), t(1));
        c.insert(obj(1, 2, 10), t(2));
        c.insert(obj(2, 3, 10), t(3));
        assert_eq!(c.tail_ts(), Some(t(1)));
        assert_eq!(c.head_ts(), Some(t(3)));
        assert_eq!(c.total_bytes(), ByteSize::new(30));
    }

    #[test]
    fn plan_get_all_cached() {
        let mut c = cache_with(&[1]);
        for s in 1..=3 {
            c.insert(obj(s, s, 10), t(s));
        }
        let plan = c.plan_get(TimeRange::closed(t(1), t(3)), t(4));
        assert!(plan.is_full_hit());
        assert_eq!(plan.cached.len(), 3);
        assert_eq!(plan.cached_bytes, ByteSize::new(30));
    }

    #[test]
    fn plan_get_partial_miss_after_eviction() {
        let mut c = cache_with(&[1]);
        for s in 1..=5 {
            c.insert(obj(s, s, 10), t(s));
        }
        // Evict the two oldest objects (ts 1 and 2).
        c.drop_tail();
        c.drop_tail();
        // Request [1, 4]: the evicted region is missed, up to and
        // including the last evicted timestamp.
        let plan = c.plan_get(TimeRange::closed(t(1), t(4)), t(6));
        assert_eq!(plan.missed.len(), 1, "one leading missed range");
        let missed = plan.missed[0];
        assert_eq!(missed.from, t(1));
        assert!(missed.contains(t(2)), "evicted ts 2 must be refetchable");
        assert!(
            !missed.contains(t(3)),
            "resident ts 3 must not be refetched"
        );
        let cached_ts: Vec<Timestamp> = plan.cached.iter().map(|&(_, ts, _)| ts).collect();
        assert_eq!(cached_ts, vec![t(3), t(4)]);
    }

    #[test]
    fn plan_get_all_missed_before_coverage() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 2, 10), t(2));
        c.insert(obj(1, 10, 10), t(10));
        c.drop_tail(); // coverage now starts just past ts 2
        let range = TimeRange::closed(t(0), t(2));
        let plan = c.plan_get(range, t(11));
        assert_eq!(plan, GetPlan::all_missed(range));
    }

    #[test]
    fn plan_get_fresh_cache_covers_from_creation() {
        // A cache created at t=0 with its first object at t=5 fully
        // covers [0, 5]: nothing existed before the first result, so
        // nothing is missed.
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 5, 10), t(5));
        let plan = c.plan_get(TimeRange::closed(Timestamp::ZERO, t(5)), t(6));
        assert!(plan.is_full_hit());
        assert_eq!(plan.cached.len(), 1);
    }

    #[test]
    fn plan_get_empty_fresh_cache_is_empty_hit() {
        // A fresh cache covers everything since creation: an empty cache
        // that never dropped anything has simply seen no results yet.
        let mut c = cache_with(&[1]);
        let range = TimeRange::closed(t(1), t(5));
        let plan = c.plan_get(range, t(6));
        assert!(plan.is_full_hit());
        assert!(plan.cached.is_empty());
    }

    #[test]
    fn plan_get_emptied_cache_misses_dropped_range() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 3, 10), t(3));
        c.drop_tail(); // cache now empty, coverage starts past t=3
        let range = TimeRange::closed(t(1), t(3));
        assert_eq!(c.plan_get(range, t(4)), GetPlan::all_missed(range));
        // But the still-covered (empty) region ahead is a clean hit.
        let ahead = TimeRange::closed(t(4), t(5));
        assert!(c.plan_get(ahead, t(6)).is_full_hit());
    }

    #[test]
    fn plan_get_empty_range_is_noop_hit() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 1, 10), t(1));
        let plan = c.plan_get(TimeRange::half_open(t(2), t(2)), t(3));
        assert!(plan.is_full_hit());
        assert!(plan.cached.is_empty());
    }

    #[test]
    fn plan_get_updates_lru_key() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 1, 10), t(1));
        c.plan_get(TimeRange::closed(t(0), t(1)), t(9));
        assert_eq!(c.last_access(), t(9));
    }

    #[test]
    fn consumption_drops_fully_retrieved_objects() {
        let mut c = cache_with(&[1, 2]);
        c.insert(obj(0, 1, 10), t(1));
        c.insert(obj(1, 2, 10), t(2));
        // Subscriber 1 consumes both; objects stay (2 still pending).
        let dropped = c.consume_up_to(SubscriberId::new(1), t(2), t(3));
        assert!(dropped.is_empty());
        assert_eq!(c.len(), 2);
        // Subscriber 2 consumes only the first; it is now fully consumed.
        let dropped = c.consume_up_to(SubscriberId::new(2), t(1), t(4));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].ts, t(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_bytes(), ByteSize::new(10));
    }

    #[test]
    fn late_subscriber_not_attached_to_old_objects() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 1, 10), t(1));
        c.add_subscriber(SubscriberId::new(2));
        c.insert(obj(1, 2, 10), t(2));
        assert_eq!(c.iter().next().unwrap().fanout(), 1);
        assert_eq!(c.iter().nth(1).unwrap().fanout(), 2);
        // Sub 1 consuming both leaves only the newer one (sub 2 pending).
        let dropped = c.consume_up_to(SubscriberId::new(1), t(2), t(3));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].ts, t(1));
    }

    /// The two places a cursor can go wrong where a set cannot: one
    /// tick emits several results at one `ts`, and eviction can take
    /// the object a cursor points at.
    #[test]
    fn cursors_are_sequence_numbers_and_clamp_to_the_tail() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 5, 10), t(5));
        c.add_subscriber(SubscriberId::new(2));
        c.insert(obj(1, 5, 10), t(5)); // same ts, after the attach
        let fanouts: Vec<usize> = c.iter().map(CachedObject::fanout).collect();
        assert_eq!(fanouts, vec![1, 2]);
        // Sub 2 acks ts 5: it was pending on the second object only.
        assert!(c.consume_up_to(SubscriberId::new(2), t(5), t(6)).is_empty());
        let fanouts: Vec<usize> = c.iter().map(CachedObject::fanout).collect();
        assert_eq!(fanouts, vec![1, 1]);

        // Evict both; sub 1's cursor now points below the tail.
        c.drop_tail();
        c.drop_tail();
        c.insert(obj(2, 7, 10), t(7));
        assert_eq!(c.tail().unwrap().fanout(), 2);
        let dropped = c.consume_up_to(SubscriberId::new(1), t(7), t(8));
        assert!(dropped.is_empty());
        assert_eq!(c.tail().unwrap().fanout(), 1);
        assert_eq!(c.remove_subscriber(SubscriberId::new(2)).len(), 1);
    }

    #[test]
    fn remove_subscriber_strips_pending_sets() {
        let mut c = cache_with(&[1, 2]);
        c.insert(obj(0, 1, 10), t(1));
        let dropped = c.remove_subscriber(SubscriberId::new(1));
        assert!(dropped.is_empty());
        assert_eq!(c.subscriber_count(), 1);
        // Removing the last pending subscriber drops the object.
        let dropped = c.remove_subscriber(SubscriberId::new(2));
        assert_eq!(dropped.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn drop_tail_removes_oldest() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 1, 10), t(1));
        c.insert(obj(1, 2, 20), t(2));
        let victim = c.drop_tail().unwrap();
        assert_eq!(victim.ts, t(1));
        assert_eq!(c.total_bytes(), ByteSize::new(20));
        assert_eq!(c.tail_ts(), Some(t(2)));
    }

    #[test]
    fn expire_tail_respects_ttl() {
        let mut c = cache_with(&[1]);
        c.set_ttl(SimDuration::from_secs(5));
        c.insert(obj(0, 1, 10), t(1)); // expires at 6
        c.insert(obj(1, 4, 10), t(4)); // expires at 9
        let dropped = c.expire_tail(t(7));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].ts, t(1));
        assert_eq!(c.len(), 1);
        // Nothing more until t=9.
        assert!(c.expire_tail(t(8)).is_empty());
        assert_eq!(c.expire_tail(t(9)).len(), 1);
    }

    /// Every range shape against one cache — objects at 10, 20, 30 and
    /// 40 s, covered from 0 — with the plan written out by hand.
    #[test]
    fn plan_get_range_shapes() {
        let mut c = cache_with(&[1]);
        for (id, ts) in [(0, 10), (1, 20), (2, 30), (3, 40)] {
            c.insert(obj(id, ts, 10), t(ts));
        }
        let hit = |id: u64, ts: u64| (ObjectId::new(id), t(ts), ByteSize::new(10));
        let cases = [
            // Closed over everything resident.
            (
                TimeRange::closed(t(10), t(40)),
                vec![hit(0, 10), hit(1, 20), hit(2, 30), hit(3, 40)],
            ),
            // Strictly inside, both ends between objects.
            (
                TimeRange::closed(t(15), t(35)),
                vec![hit(1, 20), hit(2, 30)],
            ),
            // Half-open: the object at the upper bound is excluded.
            (
                TimeRange::half_open(t(10), t(30)),
                vec![hit(0, 10), hit(1, 20)],
            ),
            // Beyond the head: covered, nothing there yet.
            (TimeRange::closed(t(50), t(60)), vec![]),
            // Empty range.
            (TimeRange::half_open(t(5), t(5)), vec![]),
            // Between two objects.
            (TimeRange::closed(t(25), t(25)), vec![]),
        ];
        for (range, cached) in cases {
            let want = GetPlan {
                cached_bytes: ByteSize::new(10 * cached.len() as u64),
                cached,
                missed: Vec::new(),
            };
            assert_eq!(c.plan_get(range, t(100)), want, "range {range:?}");
        }
    }

    /// One fused retrieval on `c`, checked against `plan_get` followed
    /// by `consume_up_to` (or `mark_retrieved_up_to`) on a clone: same
    /// plan, same drops, same state. Returns the plan and the drops.
    fn fused_as_unfused(
        c: &mut ResultCache,
        sub: u64,
        range: TimeRange,
        up_to: u64,
        now: u64,
        consume: bool,
    ) -> (GetPlan, Vec<CachedObject>) {
        let (sub, up_to, now) = (SubscriberId::new(sub), t(up_to), t(now));
        let mut twin = c.clone();
        let want_plan = twin.plan_get(range, now);
        let want_dropped = if consume {
            twin.consume_up_to(sub, up_to, now)
        } else {
            twin.mark_retrieved_up_to(sub, up_to);
            Vec::new()
        };
        let (plan, dropped) = c.get_and_consume(sub, range, up_to, now, consume);
        assert_eq!(plan, want_plan, "plan of {range:?}");
        assert_eq!(dropped, want_dropped, "drops of {range:?}");
        assert_eq!(
            format!("{c:?}"),
            format!("{twin:?}"),
            "state after {range:?}"
        );
        (plan, dropped)
    }

    #[test]
    fn fused_retrieval_starts_at_the_cursor() {
        let mut c = cache_with(&[1, 2]);
        for s in 1..=6 {
            c.insert(obj(s, s, 10), t(s));
        }
        // Each subscriber asks for what follows what it retrieved.
        let (plan, _) = fused_as_unfused(&mut c, 1, TimeRange::closed(t(0), t(3)), 3, 7, true);
        assert_eq!(plan.cached.len(), 3);
        let (plan, dropped) =
            fused_as_unfused(&mut c, 2, TimeRange::closed(t(0), t(4)), 4, 8, true);
        assert_eq!((plan.cached.len(), dropped.len()), (4, 3));
        let (plan, dropped) =
            fused_as_unfused(&mut c, 1, TimeRange::half_open(t(4), t(7)), 6, 9, true);
        assert_eq!((plan.cached.len(), dropped.len()), (3, 1));
        assert_eq!(c.len(), 2);
    }

    /// A subscriber attached between two results of one tick at one
    /// `ts`: its cursor points at the second, but the partition point at
    /// that `ts` is the first.
    #[test]
    fn fused_retrieval_of_a_subscriber_attached_mid_tick() {
        let mut c = cache_with(&[1]);
        c.insert(obj(0, 5, 10), t(5));
        c.add_subscriber(SubscriberId::new(2));
        c.insert(obj(1, 5, 10), t(5));
        c.insert(obj(2, 6, 10), t(6));
        let (plan, dropped) =
            fused_as_unfused(&mut c, 2, TimeRange::closed(t(5), t(6)), 6, 7, true);
        assert_eq!(plan.cached.len(), 3);
        assert!(dropped.is_empty());
        let (_, dropped) = fused_as_unfused(&mut c, 1, TimeRange::closed(t(5), t(6)), 6, 8, true);
        assert_eq!(dropped.len(), 3);
    }

    /// Eviction and expiry leave cursors behind the tail; the plan must
    /// still start at the right object and miss the lost range.
    #[test]
    fn fused_retrieval_of_a_cursor_clamped_behind_the_tail() {
        for expire in [false, true] {
            let mut c = cache_with(&[1, 2]);
            c.set_ttl(SimDuration::from_secs(10));
            for s in 1..=5 {
                c.insert(obj(s, s, 10), t(s));
            }
            fused_as_unfused(&mut c, 1, TimeRange::closed(t(0), t(1)), 1, 1, true);
            if expire {
                assert_eq!(c.expire_tail(t(12)).len(), 2);
            } else {
                c.drop_tail();
                c.drop_tail();
            }
            let (plan, _) = fused_as_unfused(&mut c, 2, TimeRange::closed(t(0), t(4)), 4, 13, true);
            assert_eq!(plan.missed.len(), 1, "expire {expire}");
            assert_eq!(plan.cached.len(), 2, "expire {expire}");
            let (plan, _) = fused_as_unfused(&mut c, 1, TimeRange::closed(t(2), t(5)), 5, 14, true);
            assert_eq!(plan.cached.len(), 3, "expire {expire}");
        }
    }

    /// An unattached subscriber is owed nothing, but its retrieval still
    /// plans the range and pops a prefix nobody is pending on.
    #[test]
    fn fused_retrieval_of_an_unattached_subscriber() {
        let mut c = cache_with(&[]);
        c.insert(obj(0, 1, 10), t(1));
        c.insert(obj(1, 2, 10), t(2));
        c.add_subscriber(SubscriberId::new(1));
        c.insert(obj(2, 3, 10), t(3));
        let (plan, dropped) =
            fused_as_unfused(&mut c, 9, TimeRange::closed(t(1), t(3)), 3, 4, true);
        assert_eq!((plan.cached.len(), dropped.len()), (3, 2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fused_retrieval_of_an_empty_range_or_one_before_coverage() {
        let mut c = cache_with(&[1, 2]);
        for s in 1..=4 {
            c.insert(obj(s, s, 10), t(s));
        }
        let (plan, _) = fused_as_unfused(&mut c, 1, TimeRange::half_open(t(2), t(2)), 2, 5, true);
        assert!(plan.is_full_hit() && plan.cached.is_empty());
        c.drop_tail();
        c.drop_tail();
        let range = TimeRange::closed(t(0), t(2));
        let (plan, _) = fused_as_unfused(&mut c, 2, range, 2, 6, true);
        assert_eq!(plan, GetPlan::all_missed(range));
    }

    /// `consume = false` marks without dropping, as
    /// `mark_retrieved_up_to` does.
    #[test]
    fn fused_retrieval_without_consumption_drops() {
        let mut c = cache_with(&[1]);
        for s in 1..=3 {
            c.insert(obj(s, s, 10), t(s));
        }
        let (plan, dropped) =
            fused_as_unfused(&mut c, 1, TimeRange::closed(t(0), t(3)), 3, 4, false);
        assert_eq!((plan.cached.len(), dropped.len()), (3, 0));
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|o| o.fanout() == 0));
        let (plan, _) = fused_as_unfused(&mut c, 1, TimeRange::half_open(t(4), t(5)), 5, 6, false);
        assert!(plan.cached.is_empty());
    }

    /// Cursors are hashed; what the cache shows of them is not.
    #[test]
    fn attach_order_does_not_show() {
        let order = [7, 3, 11, 1, 5, 2, 13];
        let mut a = cache_with(&order);
        let mut b = cache_with(&order.iter().rev().copied().collect::<Vec<_>>());
        for c in [&mut a, &mut b] {
            c.insert(obj(0, 1, 10), t(1));
            c.consume_up_to(SubscriberId::new(3), t(1), t(2));
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let ids: Vec<SubscriberId> = a.subscribers().collect();
        assert_eq!(ids, b.subscribers().collect::<Vec<_>>());
        let mut sorted = order.map(SubscriberId::new);
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn rates_reflect_arrivals_and_consumption() {
        let mut c = cache_with(&[1]);
        for s in 0..10u64 {
            c.insert(obj(s, s, 1000), t(s));
        }
        let lambda = c.arrival_rate(t(10));
        assert!(
            lambda > 0.0,
            "arrival rate should be positive, got {lambda}"
        );
        // Consume everything: consumption rate becomes positive, growth
        // rate is clamped at >= 0.
        c.consume_up_to(SubscriberId::new(1), t(9), t(10));
        assert!(c.consumption_rate(t(10)) > 0.0);
        assert!(c.growth_rate(t(10)) >= 0.0);
    }

    #[test]
    fn growth_rate_is_lambda_minus_eta_clamped() {
        let mut c = cache_with(&[1]);
        for s in 0..5u64 {
            c.insert(obj(s, s, 100), t(s));
        }
        c.consume_up_to(SubscriberId::new(1), t(4), t(5));
        let now = t(5);
        let expected = (c.arrival_rate(now) - c.consumption_rate(now)).max(0.0);
        assert_eq!(c.growth_rate(now), expected);
    }
}
