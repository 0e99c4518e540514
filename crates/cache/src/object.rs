//! Cached result objects.

use bad_types::{ByteSize, ObjectId, SimDuration, Timestamp};

/// The payload-independent description of a result object handed to the
/// cache by the broker when the cluster produces a new result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NewObject {
    /// Unique object identifier.
    pub id: ObjectId,
    /// Production timestamp assigned by the data cluster.
    pub ts: Timestamp,
    /// Object size (`s_ij` in the paper).
    pub size: ByteSize,
    /// Latency of re-fetching this object from the data cluster
    /// (`l_ij` in the paper), as estimated by the network model.
    pub fetch_latency: SimDuration,
}

/// A result object resident in a [`crate::ResultCache`].
///
/// Every object tracks how many subscribers are still waiting to
/// retrieve it — `f_ij`, the size of the paper's `S(i,j)`. Which
/// subscribers those are follows from the owning cache's per-subscriber
/// cursors (see [`crate::ResultCache`]). The object's *caching value*
/// `φ_ij` depends on `f_ij` and is what the utility-driven policies of
/// Section IV-A rank on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedObject {
    /// Unique object identifier.
    pub id: ObjectId,
    /// Production timestamp; caches are ordered by this.
    pub ts: Timestamp,
    /// Object size (`s_ij`).
    pub size: ByteSize,
    /// Cluster re-fetch latency (`l_ij`).
    pub fetch_latency: SimDuration,
    /// When the object entered the cache.
    pub cached_at: Timestamp,
    /// Expiry instant frozen at insertion (`cached_at + T_i` with the
    /// cache's TTL at that moment) — the EXP policy's dropping key.
    /// Later TTL recomputations do not move it, mirroring how a cached
    /// object's expiration header is fixed when it is admitted.
    pub frozen_expiry: Timestamp,
    /// Number of subscribers attached to the object that have not
    /// retrieved it yet (`f_ij`).
    pub pending: u32,
}

impl CachedObject {
    /// Builds a resident object from its description, pending on
    /// `pending` subscribers.
    pub fn new(
        desc: NewObject,
        cached_at: Timestamp,
        ttl_at_insert: SimDuration,
        pending: u32,
    ) -> Self {
        Self {
            id: desc.id,
            ts: desc.ts,
            size: desc.size,
            fetch_latency: desc.fetch_latency,
            cached_at,
            frozen_expiry: cached_at + ttl_at_insert,
            pending,
        }
    }

    /// Number of subscribers still attached (`f_ij`).
    pub fn fanout(&self) -> usize {
        self.pending as usize
    }

    /// `f_ij / s_ij` — the LSCz dropping key (uniform utility).
    pub fn subscribers_per_byte(&self) -> f64 {
        self.fanout() as f64 / self.size.as_u64().max(1) as f64
    }

    /// `f_ij · l_ij / s_ij` — the LSD dropping key (latency utility).
    pub fn delay_value_per_byte(&self) -> f64 {
        self.fanout() as f64 * self.fetch_latency.as_secs_f64() / self.size.as_u64().max(1) as f64
    }

    /// How long the object has been resident.
    pub fn age(&self, now: Timestamp) -> SimDuration {
        now.since(self.cached_at)
    }

    /// Expiry instant under a per-cache TTL.
    pub fn expires_at(&self, ttl: SimDuration) -> Timestamp {
        self.cached_at + ttl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(size: u64, latency_ms: u64) -> NewObject {
        NewObject {
            id: ObjectId::new(1),
            ts: Timestamp::from_secs(10),
            size: ByteSize::new(size),
            fetch_latency: SimDuration::from_millis(latency_ms),
        }
    }

    #[test]
    fn fanout_counts_pending() {
        let obj = CachedObject::new(
            desc(100, 500),
            Timestamp::ZERO,
            SimDuration::from_secs(60),
            3,
        );
        assert_eq!(obj.fanout(), 3);
    }

    #[test]
    fn value_keys_match_table_i() {
        let obj = CachedObject::new(
            desc(200, 500),
            Timestamp::ZERO,
            SimDuration::from_secs(60),
            4,
        );
        assert_eq!(obj.subscribers_per_byte(), 4.0 / 200.0);
        assert_eq!(obj.delay_value_per_byte(), 4.0 * 0.5 / 200.0);
    }

    #[test]
    fn zero_size_does_not_divide_by_zero() {
        let obj = CachedObject::new(desc(0, 500), Timestamp::ZERO, SimDuration::from_secs(60), 1);
        assert!(obj.subscribers_per_byte().is_finite());
        assert!(obj.delay_value_per_byte().is_finite());
    }

    #[test]
    fn age_and_expiry() {
        let obj = CachedObject::new(
            desc(1, 1),
            Timestamp::from_secs(5),
            SimDuration::from_secs(60),
            1,
        );
        assert_eq!(obj.age(Timestamp::from_secs(8)), SimDuration::from_secs(3));
        assert_eq!(
            obj.expires_at(SimDuration::from_secs(10)),
            Timestamp::from_secs(15)
        );
        assert_eq!(obj.frozen_expiry, Timestamp::from_secs(65));
    }
}
