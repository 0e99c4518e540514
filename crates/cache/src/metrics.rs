//! Cache-side measurement of every quantity the paper's evaluation plots.
//!
//! * **hit ratio** — objects served from cache / objects requested,
//! * **hit byte / miss byte** — bytes served from cache vs bytes fetched
//!   from the cluster due to misses,
//! * **fetch** — total bytes pulled from the cluster (`Vol` + miss bytes),
//! * **holding time** — how long objects stay cached before being dropped,
//! * **time-averaged and maximum cache size** (Fig. 5a), where the time
//!   average weights each size by how long the cache stayed at that size.

use std::fmt;

use bad_types::{ByteSize, SimDuration, Timestamp};

/// Why an object left the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropKind {
    /// Every attached subscriber retrieved it.
    Consumed,
    /// Evicted by the policy under budget pressure.
    Evicted,
    /// Its TTL expired.
    Expired,
    /// Its subscription was torn down.
    Unsubscribed,
}

impl DropKind {
    /// The stable lowercase label of this drop cause. The telemetry
    /// event kinds are derived from it (`cache.<label>`), so traces,
    /// logs and `Display` all agree on one spelling.
    pub fn label(self) -> &'static str {
        match self {
            DropKind::Consumed => "consume",
            DropKind::Evicted => "evict",
            DropKind::Expired => "expire",
            DropKind::Unsubscribed => "unsubscribe",
        }
    }
}

impl fmt::Display for DropKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Aggregate metrics for one broker's cache manager.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheMetrics {
    // --- request/hit accounting -----------------------------------------
    /// Objects requested by subscribers.
    pub requested_objects: u64,
    /// Objects served from the cache.
    pub hit_objects: u64,
    /// Objects fetched from the cluster on misses.
    pub miss_objects: u64,
    /// Bytes served from the cache.
    pub hit_bytes: ByteSize,
    /// Bytes fetched from the cluster due to misses.
    pub miss_bytes: ByteSize,
    /// Bytes pulled from the cluster to populate caches (the paper's
    /// `Vol` component of *fetch*).
    pub populate_bytes: ByteSize,

    // --- occupancy -------------------------------------------------------
    /// Objects inserted.
    pub inserted_objects: u64,
    /// Bytes inserted.
    pub inserted_bytes: ByteSize,
    /// Objects dropped, by cause.
    pub consumed_objects: u64,
    /// Objects evicted by the policy.
    pub evicted_objects: u64,
    /// Objects expired by TTL.
    pub expired_objects: u64,
    /// Objects dropped by unsubscription.
    pub unsubscribed_objects: u64,

    // --- holding times ----------------------------------------------------
    holding_total: SimDuration,
    holding_count: u64,

    // --- size over time ---------------------------------------------------
    /// `∫ size dt` in byte·microseconds.
    size_integral: u128,
    last_size_change: Timestamp,
    current_size: ByteSize,
    /// Construction anchor for the size integral, in microseconds.
    start_micros: u64,
    /// Largest aggregate size ever observed.
    pub max_bytes: ByteSize,
}

impl CacheMetrics {
    /// Creates zeroed metrics anchored at `start` for the size integral.
    pub fn new(start: Timestamp) -> Self {
        Self {
            last_size_change: start,
            start_micros: start.as_micros(),
            ..Self::default()
        }
    }

    /// Records objects served from cache during a retrieval.
    pub fn record_hits(&mut self, objects: u64, bytes: ByteSize) {
        self.requested_objects += objects;
        self.hit_objects += objects;
        self.hit_bytes += bytes;
    }

    /// Records objects that had to be fetched from the cluster.
    pub fn record_misses(&mut self, objects: u64, bytes: ByteSize) {
        self.requested_objects += objects;
        self.miss_objects += objects;
        self.miss_bytes += bytes;
    }

    /// Records bytes pulled from the cluster to populate a cache.
    pub fn record_populate(&mut self, bytes: ByteSize) {
        self.populate_bytes += bytes;
    }

    /// Records an insertion and the new aggregate size.
    pub fn record_insert(&mut self, bytes: ByteSize, total: ByteSize, now: Timestamp) {
        self.inserted_objects += 1;
        self.inserted_bytes += bytes;
        self.record_size(total, now);
    }

    /// Records a drop with its cause and residence time.
    pub fn record_drop(
        &mut self,
        kind: DropKind,
        held_for: SimDuration,
        total: ByteSize,
        now: Timestamp,
    ) {
        match kind {
            DropKind::Consumed => self.consumed_objects += 1,
            DropKind::Evicted => self.evicted_objects += 1,
            DropKind::Expired => self.expired_objects += 1,
            DropKind::Unsubscribed => self.unsubscribed_objects += 1,
        }
        self.holding_total += held_for;
        self.holding_count += 1;
        self.record_size(total, now);
    }

    /// Updates the time-weighted size integral with a new aggregate size.
    ///
    /// The maximum is *not* updated here: operations like `PUT` overshoot
    /// transiently (append, then evict back under budget), and the
    /// paper's "maximum cache size" is the largest *settled* size. Call
    /// [`CacheMetrics::observe_peak`] once an operation completes.
    ///
    /// `now` values are allowed to arrive out of order (threads race on
    /// a shared clock):
    /// a `now` earlier than the latest one seen contributes zero
    /// elapsed time instead of rewinding, so the size integral is
    /// monotonically non-decreasing and the internal clock never moves
    /// backwards.
    pub fn record_size(&mut self, total: ByteSize, now: Timestamp) {
        // `Timestamp::since` saturates, so an out-of-order `now` yields
        // dt == 0 rather than a negative (wrapping) interval.
        let dt = now.since(self.last_size_change);
        self.size_integral += self.current_size.as_u64() as u128 * dt.as_micros() as u128;
        self.last_size_change = self.last_size_change.max(now);
        self.current_size = total;
    }

    /// Records a settled aggregate size for the maximum-size metric.
    pub fn observe_peak(&mut self, total: ByteSize) {
        self.max_bytes = self.max_bytes.max(total);
    }

    /// Folds another manager's metrics into this one — the shard
    /// aggregation of [`crate::ShardedCacheManager`].
    ///
    /// Counters, byte totals, holding times and size integrals add; the
    /// integral anchor becomes the earliest of the two and the internal
    /// clock the latest. `max_bytes` becomes the *sum* of the per-shard
    /// peaks: the shards hit their peaks at different instants, so the
    /// sum is an upper bound on the true aggregate peak — and since the
    /// per-shard budgets sum to the global budget, the reported maximum
    /// still respects the `max ≤ B` invariant for eviction policies.
    pub fn merge(&mut self, other: &CacheMetrics) {
        self.requested_objects += other.requested_objects;
        self.hit_objects += other.hit_objects;
        self.miss_objects += other.miss_objects;
        self.hit_bytes += other.hit_bytes;
        self.miss_bytes += other.miss_bytes;
        self.populate_bytes += other.populate_bytes;
        self.inserted_objects += other.inserted_objects;
        self.inserted_bytes += other.inserted_bytes;
        self.consumed_objects += other.consumed_objects;
        self.evicted_objects += other.evicted_objects;
        self.expired_objects += other.expired_objects;
        self.unsubscribed_objects += other.unsubscribed_objects;
        self.holding_total += other.holding_total;
        self.holding_count += other.holding_count;
        self.size_integral += other.size_integral;
        self.current_size += other.current_size;
        self.last_size_change = self.last_size_change.max(other.last_size_change);
        self.start_micros = self.start_micros.min(other.start_micros);
        self.max_bytes += other.max_bytes;
    }

    /// The raw time-weighted size integral `∫ size dt` accumulated so
    /// far, in byte·microseconds. Monotonically non-decreasing (see
    /// [`CacheMetrics::record_size`]); exposed so generative tests can
    /// assert that invariant across arbitrary operation sequences.
    pub fn size_integral(&self) -> u128 {
        self.size_integral
    }

    /// Fraction of requested objects served from the cache, in `[0, 1]`.
    /// Returns `None` before any request.
    pub fn hit_ratio(&self) -> Option<f64> {
        if self.requested_objects == 0 {
            None
        } else {
            Some(self.hit_objects as f64 / self.requested_objects as f64)
        }
    }

    /// Total bytes pulled from the data cluster: population + misses.
    pub fn fetched_bytes(&self) -> ByteSize {
        self.populate_bytes + self.miss_bytes
    }

    /// Mean residence time of dropped objects.
    pub fn mean_holding_time(&self) -> Option<SimDuration> {
        if self.holding_count == 0 {
            None
        } else {
            Some(self.holding_total / self.holding_count)
        }
    }

    /// Time-averaged aggregate cache size from the anchor to `end`.
    pub fn time_averaged_bytes(&self, end: Timestamp) -> ByteSize {
        let dt = end.since(self.last_size_change);
        let integral =
            self.size_integral + self.current_size.as_u64() as u128 * dt.as_micros() as u128;
        let span = self.size_integral_span(end);
        if span == 0 {
            return self.current_size;
        }
        ByteSize::new((integral / span as u128) as u64)
    }

    fn size_integral_span(&self, end: Timestamp) -> u64 {
        end.as_micros().saturating_sub(self.start_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn hit_ratio_counts_objects() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        assert_eq!(m.hit_ratio(), None);
        m.record_hits(3, ByteSize::new(300));
        m.record_misses(1, ByteSize::new(100));
        assert_eq!(m.hit_ratio(), Some(0.75));
        assert_eq!(m.hit_bytes, ByteSize::new(300));
        assert_eq!(m.miss_bytes, ByteSize::new(100));
    }

    #[test]
    fn fetched_is_populate_plus_miss() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        m.record_populate(ByteSize::new(1000));
        m.record_misses(1, ByteSize::new(50));
        assert_eq!(m.fetched_bytes(), ByteSize::new(1050));
    }

    #[test]
    fn holding_time_averages_drops() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        m.record_drop(
            DropKind::Evicted,
            SimDuration::from_secs(10),
            ByteSize::ZERO,
            t(1),
        );
        m.record_drop(
            DropKind::Consumed,
            SimDuration::from_secs(20),
            ByteSize::ZERO,
            t(2),
        );
        assert_eq!(m.mean_holding_time(), Some(SimDuration::from_secs(15)));
        assert_eq!(m.evicted_objects, 1);
        assert_eq!(m.consumed_objects, 1);
    }

    #[test]
    fn time_average_weights_by_duration() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        // Size 100 during [0, 10), size 300 during [10, 20).
        m.record_size(ByteSize::new(100), t(0));
        m.record_size(ByteSize::new(300), t(10));
        let avg = m.time_averaged_bytes(t(20));
        assert_eq!(avg, ByteSize::new(200));
        // Max tracks settled sizes only, via observe_peak.
        assert_eq!(m.max_bytes, ByteSize::ZERO);
        m.observe_peak(ByteSize::new(300));
        assert_eq!(m.max_bytes, ByteSize::new(300));
    }

    #[test]
    fn time_average_with_no_span_is_current() {
        let m = CacheMetrics::new(Timestamp::ZERO);
        assert_eq!(m.time_averaged_bytes(Timestamp::ZERO), ByteSize::ZERO);
    }

    #[test]
    fn out_of_order_sizes_never_rewind_the_integral() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        m.record_size(ByteSize::new(100), t(10));
        let after_forward = m.time_averaged_bytes(t(10));
        // A stale timestamp must contribute zero elapsed time, not a
        // negative one, and must not move the internal clock backwards.
        m.record_size(ByteSize::new(500), t(5));
        assert_eq!(m.last_size_change, t(10));
        // Size 0 over [0,10), then 500 over [10,20) -> mean 250.
        assert_eq!(m.time_averaged_bytes(t(20)), ByteSize::new(250));
        assert!(m.time_averaged_bytes(t(10)) >= after_forward);
    }

    #[test]
    fn merge_sums_counters_and_keeps_earliest_anchor() {
        let mut a = CacheMetrics::new(Timestamp::ZERO);
        a.record_hits(3, ByteSize::new(300));
        a.record_insert(ByteSize::new(100), ByteSize::new(100), t(5));
        a.observe_peak(ByteSize::new(100));
        let mut b = CacheMetrics::new(Timestamp::ZERO);
        b.record_misses(2, ByteSize::new(200));
        b.record_insert(ByteSize::new(50), ByteSize::new(50), t(10));
        b.record_drop(
            DropKind::Evicted,
            SimDuration::from_secs(4),
            ByteSize::ZERO,
            t(12),
        );
        b.observe_peak(ByteSize::new(50));

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.requested_objects, 5);
        assert_eq!(merged.hit_objects, 3);
        assert_eq!(merged.miss_objects, 2);
        assert_eq!(merged.inserted_objects, 2);
        assert_eq!(merged.inserted_bytes, ByteSize::new(150));
        assert_eq!(merged.evicted_objects, 1);
        assert_eq!(merged.max_bytes, ByteSize::new(150));
        assert_eq!(merged.last_size_change, t(12));
        assert_eq!(
            merged.size_integral(),
            a.size_integral() + b.size_integral()
        );
        assert_eq!(merged.mean_holding_time(), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn merge_into_fresh_metrics_is_identity() {
        let mut m = CacheMetrics::new(Timestamp::ZERO);
        m.record_hits(1, ByteSize::new(10));
        m.record_insert(ByteSize::new(20), ByteSize::new(20), t(3));
        m.observe_peak(ByteSize::new(20));
        let mut folded = CacheMetrics::new(Timestamp::ZERO);
        folded.merge(&m);
        assert_eq!(folded, m);
    }

    #[test]
    fn drop_kind_display_matches_label() {
        for (kind, label) in [
            (DropKind::Consumed, "consume"),
            (DropKind::Evicted, "evict"),
            (DropKind::Expired, "expire"),
            (DropKind::Unsubscribed, "unsubscribe"),
        ] {
            assert_eq!(kind.label(), label);
            assert_eq!(kind.to_string(), label);
        }
    }
}
