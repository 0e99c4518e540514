//! The broker's aggregate cache manager.
//!
//! One [`CacheManager`] owns every per-backend-subscription
//! [`ResultCache`] of a broker, enforces the shared budget `B` via the
//! configured policy, runs the periodic TTL recomputation, and feeds
//! [`CacheMetrics`].

use std::sync::Arc;

use bad_telemetry::{OpTimer, Profiler, SketchRecorder, StagePath};
use bad_types::ids::IdSlab;
use bad_types::{
    BackendSubId, BadError, ByteSize, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

use crate::index::VictimIndex;
use crate::metrics::CacheMetrics;
pub use crate::metrics::DropKind as DropReason;
use crate::object::{CachedObject, NewObject};
use crate::policy::{EvictionPolicy, PolicyKind, PolicyName};
use crate::result_cache::{GetPlan, ResultCache};
use crate::telemetry::CacheTelemetry;
use crate::ttl::TtlComputer;

/// Tuning knobs of the cache manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Aggregate budget `B` across all result caches.
    pub budget: ByteSize,
    /// Window of the λ/η moving-average rate estimators.
    pub rate_window: SimDuration,
    /// How often TTLs are recomputed (TTL/EXP policies).
    pub ttl_recompute_interval: SimDuration,
    /// TTL assigned when no cache is growing.
    pub idle_ttl: SimDuration,
    /// TTL a fresh cache starts with until the first recomputation.
    pub initial_ttl: SimDuration,
    /// Whether victim selection uses the ordered index (`O(log N)`)
    /// instead of a linear scan (`O(N)`); results are identical.
    pub use_victim_index: bool,
    /// Whether fully consumed objects are dropped immediately (the
    /// paper's behaviour). Disabling this is an ablation: objects then
    /// only leave via eviction or expiry.
    pub drop_on_full_consumption: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            budget: ByteSize::from_mib(50),
            rate_window: SimDuration::from_mins(5),
            ttl_recompute_interval: SimDuration::from_mins(1),
            idle_ttl: SimDuration::from_hours(1),
            initial_ttl: SimDuration::from_secs(30),
            use_victim_index: true,
            drop_on_full_consumption: true,
        }
    }
}

/// An object that left the cache, with the cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DroppedObject {
    /// The cache the object lived in.
    pub cache: BackendSubId,
    /// Why it was dropped.
    pub reason: DropReason,
    /// The object itself.
    pub object: CachedObject,
}

/// All result caches of one broker, under one budget and one policy.
///
/// See the [crate-level documentation](crate) for a usage example.
#[derive(Debug)]
pub struct CacheManager {
    policy: Box<dyn EvictionPolicy>,
    policy_name: PolicyName,
    config: CacheConfig,
    /// Indexed by the cluster-minted id, so every iteration (TTL
    /// recomputation, expiry, the linear victim scan) is in id order —
    /// float accumulation order matters for bit-exact reproducibility.
    /// Boxed: a shard's slab spans every id up to the largest it holds,
    /// the other shards' ids and retired ones included, and an empty
    /// slot costs 8 bytes instead of a whole cache.
    caches: IdSlab<BackendSubId, Box<ResultCache>>,
    total_bytes: ByteSize,
    index: VictimIndex,
    ttl: TtlComputer,
    last_ttl_recompute: Timestamp,
    metrics: CacheMetrics,
    telemetry: CacheTelemetry,
    /// Hot-key attribution sketches ([`bad_telemetry::sketch`]).
    /// Strictly metadata-only — never consulted by any caching
    /// decision, so enabling sketches cannot perturb oracle parity.
    /// Lives here (not inside [`CacheTelemetry`]) because
    /// [`CacheManager::set_telemetry`] replaces the telemetry bundle
    /// wholesale and must not silently drop the recorder.
    sketches: Option<Arc<SketchRecorder>>,
}

/// What a GET or an ACK writes besides the [`ResultCache`] itself,
/// borrowed apart from the cache map: `plan_get`, `ack_consume` and the
/// fused `get_and_ack` are these bodies in different combinations, over
/// one lookup of the cache. The sketches are fed by the callers, once
/// per retrieval (see [`CacheManager::sketch_served`]).
struct Books<'a> {
    policy: &'a dyn EvictionPolicy,
    policy_name: PolicyName,
    config: &'a CacheConfig,
    total_bytes: &'a mut ByteSize,
    index: &'a mut VictimIndex,
    metrics: &'a mut CacheMetrics,
    telemetry: &'a CacheTelemetry,
}

impl Books<'_> {
    /// Algorithm 1 `GET` on one cache, hits entered in the metrics and
    /// telemetry. No cache (unknown subscription) and the NC policy
    /// miss the whole range.
    fn plan(
        &mut self,
        cache: Option<&mut ResultCache>,
        range: TimeRange,
        now: Timestamp,
    ) -> GetPlan {
        let cache = match cache {
            Some(cache) if self.policy.kind() != PolicyKind::NoCache => cache,
            _ => return GetPlan::all_missed(range),
        };
        let plan = cache.plan_get(range, now);
        self.record_hits(&plan);
        plan
    }

    /// The `ACK` routine on one cache: `sub`'s consumption up to
    /// `up_to` is applied and the objects it completed are dropped.
    fn ack(
        &mut self,
        cache: Option<&mut ResultCache>,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        let cache = cache.ok_or_else(|| BadError::not_found("cache", bs.to_string()))?;
        if !self.config.drop_on_full_consumption {
            cache.mark_retrieved_up_to(sub, up_to);
            return Ok(Vec::new());
        }
        let consumed = cache.consume_up_to(sub, up_to, now);
        Ok(self.record_consumed(bs, consumed, now))
    }

    /// [`Books::plan`] then [`Books::ack`] as one
    /// [`ResultCache::get_and_consume`]: hits are entered before the
    /// drops, as from the two calls. No cache misses the whole range
    /// and drops nothing; under NC the plan misses it all and the ack
    /// still applies.
    fn get_and_ack(
        &mut self,
        cache: Option<&mut ResultCache>,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>) {
        let Some(cache) = cache else {
            return (GetPlan::all_missed(range), Vec::new());
        };
        if self.policy.kind() == PolicyKind::NoCache {
            let dropped = self.ack(Some(cache), bs, sub, up_to, now);
            return (GetPlan::all_missed(range), dropped.unwrap_or_default());
        }
        let consume = self.config.drop_on_full_consumption;
        let (plan, consumed) = cache.get_and_consume(sub, range, up_to, now, consume);
        self.record_hits(&plan);
        let dropped = self.record_consumed(bs, consumed, now);
        (plan, dropped)
    }

    /// Enters a plan's cache-served part in the metrics and telemetry.
    fn record_hits(&mut self, plan: &GetPlan) {
        let (objects, bytes) = (plan.cached.len() as u64, plan.cached_bytes);
        self.metrics.record_hits(objects, bytes);
        self.telemetry.on_hits(objects);
    }

    /// Books the objects an ack completed as consumption drops.
    fn record_consumed(
        &mut self,
        bs: BackendSubId,
        consumed: Vec<CachedObject>,
        now: Timestamp,
    ) -> Vec<DroppedObject> {
        let mut dropped = Vec::with_capacity(consumed.len());
        for object in consumed {
            *self.total_bytes -= object.size;
            self.metrics.record_drop(
                DropReason::Consumed,
                object.age(now),
                *self.total_bytes,
                now,
            );
            self.telemetry.on_drop(
                now,
                bs,
                DropReason::Consumed,
                &object,
                *self.total_bytes,
                self.policy_name.as_str(),
                0.0,
                SimDuration::ZERO,
            );
            dropped.push(DroppedObject {
                cache: bs,
                reason: DropReason::Consumed,
                object,
            });
        }
        dropped
    }

    /// Re-scores `cache` in the victim index after it changed.
    fn reindex(&mut self, cache: &ResultCache, now: Timestamp) {
        if !self.config.use_victim_index || self.policy.kind() != PolicyKind::Eviction {
            return;
        }
        if cache.is_empty() {
            self.index.remove(cache.id());
        } else {
            self.index.update(cache.id(), self.policy.score(cache, now));
        }
    }
}

impl CacheManager {
    /// Creates a manager with the given policy and configuration.
    pub fn new(policy: PolicyName, config: CacheConfig) -> Self {
        let mut ttl = TtlComputer::new(config.budget);
        ttl.recompute_interval = config.ttl_recompute_interval;
        ttl.idle_ttl = config.idle_ttl;
        Self {
            policy: policy.build(),
            policy_name: policy,
            config,
            caches: IdSlab::new(),
            total_bytes: ByteSize::ZERO,
            index: VictimIndex::new(),
            ttl,
            last_ttl_recompute: Timestamp::ZERO,
            metrics: CacheMetrics::new(Timestamp::ZERO),
            telemetry: CacheTelemetry::detached(),
            sketches: None,
        }
    }

    /// Installs shared telemetry (registry-backed counters plus a
    /// lifecycle tracer). The default is a detached bundle with the
    /// disabled tracer, which keeps every instrumented path
    /// allocation-free.
    pub fn set_telemetry(&mut self, telemetry: CacheTelemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry bundle in force.
    pub fn telemetry(&self) -> &CacheTelemetry {
        &self.telemetry
    }

    /// Attaches a hot-key sketch recorder. The hooks it feeds (hits and
    /// the served objects' delivery lags at plan time,
    /// `record_miss_fetch`, acks) are pure observation: a sampling
    /// load/store pair per skipped op, at most one recorder lock per
    /// retrieval, and never an input to any caching decision.
    pub fn set_sketches(&mut self, recorder: Arc<SketchRecorder>) {
        self.sketches = Some(recorder);
    }

    /// The sketch recorder in force, if any.
    pub fn sketches(&self) -> Option<&Arc<SketchRecorder>> {
        self.sketches.as_ref()
    }

    /// The configured policy.
    pub fn policy_name(&self) -> PolicyName {
        self.policy_name
    }

    /// How the policy bounds the cache.
    pub fn kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Whether the broker should prefetch results into the cache on
    /// cluster notifications (everything except the NC baseline).
    pub fn caches_results(&self) -> bool {
        self.policy.kind() != PolicyKind::NoCache
    }

    /// The aggregate budget `B`.
    pub fn budget(&self) -> ByteSize {
        self.config.budget
    }

    /// The full configuration in force.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Re-targets the budget `B` — the shard-rebalancing hook of
    /// [`crate::ShardedCacheManager`]. The TTL computer follows the new
    /// budget. Shrinking below the current occupancy does not evict
    /// eagerly; call [`CacheManager::enforce_budget`] (or let the next
    /// insert do it) to settle back under the new bound.
    pub fn set_budget(&mut self, budget: ByteSize) {
        self.config.budget = budget;
        self.ttl.budget = budget;
    }

    /// Current aggregate size across all caches.
    pub fn total_bytes(&self) -> ByteSize {
        self.total_bytes
    }

    /// Number of result caches.
    pub fn cache_count(&self) -> usize {
        self.caches.len()
    }

    /// Read access to the metrics.
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// Records objects fetched from the cluster due to a cache miss
    /// (called by the broker after it completes the fetch).
    pub fn record_miss_fetch(&mut self, bs: BackendSubId, objects: u64, bytes: ByteSize) {
        self.book_misses(bs, objects, bytes, std::iter::empty());
    }

    /// [`CacheManager::record_miss_fetch`] of a fetch whose objects'
    /// produce→deliver lags (`lags_us`, one per object) are known: the
    /// sketches see the miss and every lag under one recorder lock.
    pub fn record_miss_fetch_with_lags(
        &mut self,
        bs: BackendSubId,
        bytes: ByteSize,
        lags_us: impl ExactSizeIterator<Item = u64>,
    ) {
        self.book_misses(bs, lags_us.len() as u64, bytes, lags_us);
    }

    fn book_misses(
        &mut self,
        bs: BackendSubId,
        objects: u64,
        bytes: ByteSize,
        lags_us: impl Iterator<Item = u64>,
    ) {
        self.metrics.record_misses(objects, bytes);
        self.telemetry.on_misses(objects);
        if let Some(sketches) = &self.sketches {
            let mut batch = sketches.batch();
            batch.miss(bs.as_u64(), objects);
            batch.delivery_lags(bs.as_u64(), lags_us);
        }
    }

    /// Records bytes pulled from the cluster to populate caches (`Vol`).
    pub fn record_populate(&mut self, bytes: ByteSize) {
        self.metrics.record_populate(bytes);
    }

    /// Looks up a cache.
    pub fn cache(&self, bs: BackendSubId) -> Option<&ResultCache> {
        self.caches.get(bs).map(Box::as_ref)
    }

    /// Iterates over all caches.
    pub fn iter_caches(&self) -> impl Iterator<Item = &ResultCache> {
        self.caches.values().map(Box::as_ref)
    }

    /// Creates an empty cache for a new backend subscription.
    ///
    /// Creating a cache that already exists is a no-op.
    pub fn create_cache(&mut self, bs: BackendSubId, now: Timestamp) {
        let config = &self.config;
        self.caches.get_or_insert_with(bs, || {
            let mut cache = ResultCache::new(bs, now, config.rate_window);
            cache.set_ttl(config.initial_ttl);
            Box::new(cache)
        });
    }

    /// Tears down a backend subscription's cache, dropping its objects.
    pub fn remove_cache(&mut self, bs: BackendSubId, now: Timestamp) -> Vec<DroppedObject> {
        let Some(mut cache) = self.caches.remove(bs) else {
            return Vec::new();
        };
        self.index.remove(bs);
        let mut dropped = Vec::new();
        while let Some(object) = cache.drop_tail() {
            self.total_bytes -= object.size;
            self.metrics.record_drop(
                DropReason::Unsubscribed,
                object.age(now),
                self.total_bytes,
                now,
            );
            self.telemetry.on_drop(
                now,
                bs,
                DropReason::Unsubscribed,
                &object,
                self.total_bytes,
                self.policy_name.as_str(),
                0.0,
                SimDuration::ZERO,
            );
            dropped.push(DroppedObject {
                cache: bs,
                reason: DropReason::Unsubscribed,
                object,
            });
        }
        dropped
    }

    /// Attaches a subscriber to a cache.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] when no cache exists for `bs`.
    pub fn add_subscriber(&mut self, bs: BackendSubId, sub: SubscriberId) -> Result<()> {
        let cache = self.cache_mut(bs)?;
        cache.add_subscriber(sub);
        Ok(())
    }

    /// Detaches a subscriber from a cache, dropping objects that were
    /// only waiting on it.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] when no cache exists for `bs`.
    pub fn remove_subscriber(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        let cache = self.cache_mut(bs)?;
        let removed = cache.remove_subscriber(sub);
        let mut dropped = Vec::new();
        for object in removed {
            self.total_bytes -= object.size;
            self.metrics.record_drop(
                DropReason::Unsubscribed,
                object.age(now),
                self.total_bytes,
                now,
            );
            self.telemetry.on_drop(
                now,
                bs,
                DropReason::Unsubscribed,
                &object,
                self.total_bytes,
                self.policy_name.as_str(),
                0.0,
                SimDuration::ZERO,
            );
            dropped.push(DroppedObject {
                cache: bs,
                reason: DropReason::Unsubscribed,
                object,
            });
        }
        self.reindex(bs, now);
        Ok(dropped)
    }

    /// Inserts a freshly produced result into `bs`'s cache (the `PUT`
    /// routine of Algorithm 1), then evicts until the aggregate size is
    /// back within budget. Returns the evicted objects.
    ///
    /// Under the NC policy nothing is stored and nothing is evicted.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] when no cache exists for `bs`.
    pub fn insert(
        &mut self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        self.insert_staged(bs, desc, now, &Profiler::disabled(), &mut None)
    }

    /// [`CacheManager::insert`] with profiler stage boundaries —
    /// apply / victim-scan attribution on the caller's [`OpTimer`]. The
    /// sharded manager threads its per-op timer through here so the
    /// insert envelope includes the lock wait. Stage calls are
    /// metadata-only; behaviour is identical to the plain `insert`.
    pub(crate) fn insert_staged(
        &mut self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
        profiler: &Profiler,
        timer: &mut Option<OpTimer>,
    ) -> Result<Vec<DroppedObject>> {
        // Exemplars use the same trace-id derivation as the flight
        // recorder, so a slow bucket links straight to its spans.
        let trace = match timer {
            Some(_) => bad_telemetry::TraceId::for_object(desc.id.as_u64()).as_u64(),
            None => 0,
        };
        if self.policy.kind() == PolicyKind::NoCache {
            // The baseline broker delivers straight through.
            self.cache_mut(bs)?; // still validate the subscription
            return Ok(Vec::new());
        }
        let cache = self.cache_mut(bs)?;
        cache.insert(desc, now);
        self.total_bytes += desc.size;
        self.metrics.record_insert(desc.size, self.total_bytes, now);
        self.telemetry
            .on_insert(now, bs, desc.id, desc.ts, desc.size, self.total_bytes);
        self.reindex(bs, now);
        profiler.stage(timer, StagePath::InsertApply, trace);

        let dropped = self.enforce_budget(now);
        if !dropped.is_empty() {
            profiler.stage(timer, StagePath::InsertVictimScan, trace);
        }
        self.metrics.observe_peak(self.total_bytes);
        Ok(dropped)
    }

    /// Evicts until the aggregate size is back within the budget (the
    /// tail of the `PUT` routine). A no-op for non-eviction policies or
    /// when already within budget; also invoked after a shard-budget
    /// rebalance shrinks this manager's share below its occupancy.
    pub fn enforce_budget(&mut self, now: Timestamp) -> Vec<DroppedObject> {
        let mut dropped = Vec::new();
        if self.policy.kind() != PolicyKind::Eviction {
            return dropped;
        }
        while self.total_bytes > self.config.budget {
            let Some(victim) = self.choose_victim(now) else {
                break;
            };
            let cache = self.caches.get_mut(victim).expect("victim exists");
            // The victim cache's φ/s score, captured before the drop
            // mutates it — this is the quantity the policy minimised.
            let score = self.policy.score(cache, now);
            let Some(object) = cache.drop_tail() else {
                // Stale index entry for an empty cache; fix and retry.
                self.index.remove(victim);
                continue;
            };
            self.total_bytes -= object.size;
            self.metrics
                .record_drop(DropReason::Evicted, object.age(now), self.total_bytes, now);
            self.telemetry.on_drop(
                now,
                victim,
                DropReason::Evicted,
                &object,
                self.total_bytes,
                self.policy_name.as_str(),
                score,
                SimDuration::ZERO,
            );
            self.reindex(victim, now);
            dropped.push(DroppedObject {
                cache: victim,
                reason: DropReason::Evicted,
                object,
            });
        }
        dropped
    }

    /// Plans a range retrieval against `bs`'s cache (Algorithm 1 `GET`)
    /// and records the cache-served part in the metrics. The caller is
    /// responsible for fetching `plan.missed` from the cluster and then
    /// calling [`CacheManager::record_miss_fetch`].
    ///
    /// A missing cache (NC policy or unknown subscription) misses the
    /// whole range.
    pub fn plan_get(&mut self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan {
        let plan = self.plan_unsketched(bs, range, now);
        self.sketch_served(std::iter::once((bs, &plan)), None, now);
        plan
    }

    fn plan_unsketched(&mut self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan {
        let (mut cache, mut books) = self.cache_and_books(bs);
        let plan = books.plan(cache.as_deref_mut(), range, now);
        if let Some(cache) = cache {
            books.reindex(cache, now);
        }
        plan
    }

    /// Tells the sketches what retrievals served, under one recorder
    /// lock: every plan's hit, the ack of `acked` (a fused retrieval's
    /// cache), then each served object's produce→deliver lag. A
    /// sampled recorder ticks in that order — hits, ack, lags.
    fn sketch_served<'p>(
        &self,
        served: impl Iterator<Item = (BackendSubId, &'p GetPlan)> + Clone,
        acked: Option<BackendSubId>,
        now: Timestamp,
    ) {
        let Some(sketches) = &self.sketches else {
            return;
        };
        let mut batch = sketches.batch();
        for (bs, plan) in served.clone() {
            let objects = plan.cached.len() as u64;
            batch.hit(bs.as_u64(), objects, plan.cached_bytes.as_u64());
        }
        // Activity signal only (distinct-active estimator) — acks mark
        // a subscription live even when it never hits or misses.
        if let Some(bs) = acked {
            batch.ack(bs.as_u64());
        }
        for (bs, plan) in served {
            let lags_us = plan
                .cached
                .iter()
                .map(|&(_, ts, _)| now.since(ts).as_micros());
            batch.delivery_lags(bs.as_u64(), lags_us);
        }
    }

    /// Marks everything up to `up_to` as retrieved by `sub` (the `ACK`
    /// routine), dropping fully consumed objects.
    ///
    /// # Errors
    ///
    /// Returns [`BadError::NotFound`] when no cache exists for `bs`.
    pub fn ack_consume(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        // The whole body is one profiler stage (`…;ack_consume`); the
        // sharded caller attributes it when releasing the shard.
        if let Some(sketches) = &self.sketches {
            sketches.record_ack(bs.as_u64());
        }
        self.ack_unsketched(bs, sub, up_to, now)
    }

    fn ack_unsketched(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        let (mut cache, mut books) = self.cache_and_books(bs);
        let dropped = books.ack(cache.as_deref_mut(), bs, sub, up_to, now)?;
        if let Some(cache) = cache {
            books.reindex(cache, now);
        }
        Ok(dropped)
    }

    /// One retrieval: [`CacheManager::plan_get`] of `range` followed by
    /// [`CacheManager::ack_consume`] of `sub` up to `up_to`, with one
    /// lookup of the cache and one re-scoring for the pair. Metrics and
    /// telemetry see the access, then the ack, exactly as from the two
    /// calls; the sketches see the hit, the ack and the served lags
    /// under one recorder lock. An unknown cache misses the whole range
    /// and drops nothing.
    pub fn get_and_ack(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>) {
        self.get_and_ack_staged(bs, sub, range, up_to, now, &Profiler::disabled(), &mut None)
    }

    /// [`CacheManager::get_and_ack`] with a stage boundary on the
    /// caller's [`OpTimer`] after the fused plan and ack: that is the
    /// lookup. The re-scoring and the sketches are the tail, which the
    /// caller books as [`StagePath::GetAck`] when it releases the shard.
    #[allow(clippy::too_many_arguments)] // the call's five plus the staged pair
    pub(crate) fn get_and_ack_staged(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
        profiler: &Profiler,
        timer: &mut Option<OpTimer>,
    ) -> (GetPlan, Vec<DroppedObject>) {
        let (mut cache, mut books) = self.cache_and_books(bs);
        let (plan, dropped) = books.get_and_ack(cache.as_deref_mut(), bs, sub, range, up_to, now);
        profiler.stage(timer, StagePath::GetLookup, 0);
        if let Some(cache) = cache {
            books.reindex(cache, now);
        }
        self.sketch_served(std::iter::once((bs, &plan)), Some(bs), now);
        (plan, dropped)
    }

    /// Plans a batch of range retrievals in request order — the
    /// monolithic counterpart of
    /// [`crate::ShardedCacheManager::plan_get_batch`], so the `shards =
    /// 1` oracle parity extends to the batched `GET` path. Each plan is
    /// exactly what [`CacheManager::plan_get`] would have returned for
    /// that request in sequence; the sketches see the whole batch under
    /// one recorder lock.
    pub fn plan_get_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
        now: Timestamp,
    ) -> Vec<GetPlan> {
        let plans: Vec<GetPlan> = requests
            .iter()
            .map(|&(bs, range)| self.plan_unsketched(bs, range, now))
            .collect();
        let served = requests.iter().map(|&(bs, _)| bs).zip(&plans);
        self.sketch_served(served, None, now);
        plans
    }

    /// Applies a batch of `ACK`s in request order, concatenating the
    /// consumption drops. Unknown caches are skipped (a concurrent
    /// unsubscribe may have removed them mid-batch) rather than failing
    /// the whole batch.
    pub fn ack_consume_batch(
        &mut self,
        requests: &[(BackendSubId, SubscriberId, Timestamp)],
        now: Timestamp,
    ) -> Vec<DroppedObject> {
        // Like `ack_consume`, the whole batch is one profiler stage,
        // attributed by the sharded caller at shard release.
        if let Some(sketches) = &self.sketches {
            let mut batch = sketches.batch();
            for &(bs, _, _) in requests {
                batch.ack(bs.as_u64());
            }
        }
        let mut dropped = Vec::new();
        for &(bs, sub, up_to) in requests {
            if let Ok(batch) = self.ack_unsketched(bs, sub, up_to, now) {
                dropped.extend(batch);
            }
        }
        dropped
    }

    /// Periodic maintenance: recomputes TTLs on schedule (TTL and EXP
    /// policies) and expires tails under the TTL policy. The caller
    /// should invoke this on a regular tick; the work is proportional to
    /// the number of caches only when something is due.
    pub fn maintain(&mut self, now: Timestamp) -> Vec<DroppedObject> {
        self.maintain_staged(now, &Profiler::disabled(), &mut None)
    }

    /// [`CacheManager::maintain`] attributing the TTL recompute +
    /// expiry sweep to the `maintain;ttl_expiry` stage of the caller's
    /// [`OpTimer`].
    pub(crate) fn maintain_staged(
        &mut self,
        now: Timestamp,
        profiler: &Profiler,
        timer: &mut Option<OpTimer>,
    ) -> Vec<DroppedObject> {
        let dropped = self.maintain_inner(now);
        profiler.stage(timer, StagePath::MaintainTtlExpiry, 0);
        dropped
    }

    fn maintain_inner(&mut self, now: Timestamp) -> Vec<DroppedObject> {
        let mut dropped = Vec::new();
        if self.policy.uses_ttl()
            && now.since(self.last_ttl_recompute) >= self.ttl.recompute_interval
        {
            self.ttl
                .recompute(self.caches.values_mut().map(Box::as_mut), now);
            self.last_ttl_recompute = now;
            self.telemetry.on_ttl_recompute();
            if self.telemetry.tracing() {
                for cache in self.caches.values() {
                    self.telemetry.on_ttl_retune(
                        now,
                        cache.id(),
                        cache.arrival_rate(now),
                        cache.consumption_rate(now),
                        cache.growth_rate(now),
                        cache.ttl(),
                    );
                }
            }
            if self.policy.kind() == PolicyKind::Eviction && self.config.use_victim_index {
                // EXP scores are expiry instants; refresh them all in
                // one pass over the map (inlined `reindex` — the id
                // list is never materialized).
                for (bs, cache) in self.caches.iter() {
                    if cache.is_empty() {
                        self.index.remove(bs);
                    } else {
                        self.index.update(bs, self.policy.score(cache, now));
                    }
                }
            }
        }
        if self.policy.kind() == PolicyKind::TtlExpiry {
            for (bs, cache) in self.caches.iter_mut() {
                let ttl = cache.ttl();
                for object in cache.expire_tail(now) {
                    self.total_bytes -= object.size;
                    self.metrics.record_drop(
                        DropReason::Expired,
                        object.age(now),
                        self.total_bytes,
                        now,
                    );
                    self.telemetry.on_drop(
                        now,
                        bs,
                        DropReason::Expired,
                        &object,
                        self.total_bytes,
                        self.policy_name.as_str(),
                        0.0,
                        ttl,
                    );
                    dropped.push(DroppedObject {
                        cache: bs,
                        reason: DropReason::Expired,
                        object,
                    });
                }
            }
        }
        self.metrics.observe_peak(self.total_bytes);
        dropped
    }

    /// The expected aggregate size `Σ ρ_i · T_i` under current TTLs
    /// (Fig. 5a overlay).
    pub fn expected_ttl_size(&self, now: Timestamp) -> ByteSize {
        self.ttl
            .expected_total_size(self.caches.values().map(Box::as_ref), now)
    }

    /// Per-subscription analytical-model inputs for the drift detector:
    /// measured `n_i`, λ̂ᵢ/η̂ᵢ in objects/s, ρ̂ᵢ in bytes/s and the TTL
    /// in force — everything eqs. 5–7 need to predict hit ratio,
    /// staleness and occupancy for the coming window.
    pub fn model_inputs(&self, now: Timestamp) -> Vec<bad_telemetry::SubscriptionModel> {
        self.caches
            .values()
            .map(|c| bad_telemetry::SubscriptionModel {
                subscribers: c.subscriber_count() as u64,
                lambda_events_per_s: c.arrival_event_rate(now),
                eta_events_per_s: c.consumption_event_rate(now),
                rho_bytes_per_s: c.growth_rate(now),
                ttl_s: c.ttl().as_secs_f64(),
            })
            .collect()
    }

    /// The victim the policy would evict from right now, if any —
    /// exposed for tests, benchmarks and the ablation comparing indexed
    /// vs linear selection.
    pub fn choose_victim(&self, now: Timestamp) -> Option<BackendSubId> {
        if self.config.use_victim_index {
            self.index.min()
        } else {
            self.linear_victim(now)
        }
    }

    /// Linear-scan victim selection over all non-empty caches.
    pub fn linear_victim(&self, now: Timestamp) -> Option<BackendSubId> {
        self.caches
            .values()
            .filter(|c| !c.is_empty())
            .map(|c| (self.policy.score(c, now), c.id()))
            .min_by(|(a, ia), (b, ib)| a.total_cmp(b).then(ia.cmp(ib)))
            .map(|(_, id)| id)
    }

    fn reindex(&mut self, bs: BackendSubId, now: Timestamp) {
        let (cache, mut books) = self.cache_and_books(bs);
        match cache {
            Some(cache) => books.reindex(cache, now),
            None => books.index.remove(bs),
        }
    }

    /// Looks `bs`'s cache up once and borrows, apart from it, everything
    /// a GET or an ACK on it writes.
    fn cache_and_books(&mut self, bs: BackendSubId) -> (Option<&mut ResultCache>, Books<'_>) {
        let books = Books {
            policy: self.policy.as_ref(),
            policy_name: self.policy_name,
            config: &self.config,
            total_bytes: &mut self.total_bytes,
            index: &mut self.index,
            metrics: &mut self.metrics,
            telemetry: &self.telemetry,
        };
        (self.caches.get_mut(bs).map(Box::as_mut), books)
    }

    fn cache_mut(&mut self, bs: BackendSubId) -> Result<&mut ResultCache> {
        self.caches
            .get_mut(bs)
            .map(Box::as_mut)
            .ok_or_else(|| BadError::not_found("cache", bs.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::ObjectId;

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

    fn manager(policy: PolicyName, budget: u64) -> CacheManager {
        CacheManager::new(
            policy,
            CacheConfig {
                budget: ByteSize::new(budget),
                ..CacheConfig::default()
            },
        )
    }

    /// Creates `n` caches with one subscriber each.
    fn with_caches(mgr: &mut CacheManager, n: u64) {
        for i in 0..n {
            let bs = BackendSubId::new(i);
            mgr.create_cache(bs, Timestamp::ZERO);
            mgr.add_subscriber(bs, SubscriberId::new(i)).unwrap();
        }
    }

    #[test]
    fn eviction_keeps_total_within_budget() {
        let mut mgr = manager(PolicyName::Lsc, 100);
        with_caches(&mut mgr, 2);
        let mut next_id = 0;
        for sec in 1..=20u64 {
            for bs in 0..2u64 {
                mgr.insert(BackendSubId::new(bs), obj(next_id, sec, 30), t(sec))
                    .unwrap();
                next_id += 1;
                assert!(mgr.total_bytes() <= ByteSize::new(100));
            }
        }
        assert!(mgr.metrics().evicted_objects > 0);
    }

    #[test]
    fn lsc_evicts_fewest_subscriber_tail() {
        let mut mgr = manager(PolicyName::Lsc, 100);
        let lonely = BackendSubId::new(1);
        let popular = BackendSubId::new(2);
        mgr.create_cache(lonely, Timestamp::ZERO);
        mgr.create_cache(popular, Timestamp::ZERO);
        mgr.add_subscriber(lonely, SubscriberId::new(1)).unwrap();
        for s in 10..15 {
            mgr.add_subscriber(popular, SubscriberId::new(s)).unwrap();
        }
        mgr.insert(lonely, obj(1, 1, 60), t(1)).unwrap();
        mgr.insert(popular, obj(2, 2, 60), t(2)).unwrap(); // over budget
        let dropped: Vec<_> = mgr.insert(popular, obj(3, 3, 10), t(3)).unwrap();
        // The lonely cache's tail went first (fanout 1 < 5).
        let all: Vec<BackendSubId> = dropped.iter().map(|d| d.cache).collect();
        assert!(mgr.cache(lonely).unwrap().is_empty() || all.contains(&lonely));
        assert!(!mgr.cache(popular).unwrap().is_empty());
    }

    #[test]
    fn nc_policy_stores_nothing() {
        let mut mgr = manager(PolicyName::Nc, 1_000_000);
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        mgr.insert(bs, obj(1, 1, 100), t(1)).unwrap();
        assert_eq!(mgr.total_bytes(), ByteSize::ZERO);
        let plan = mgr.plan_get(bs, TimeRange::closed(t(0), t(1)), t(2));
        assert!(plan.cached.is_empty());
        assert_eq!(plan.missed, vec![TimeRange::closed(t(0), t(1))]);
        assert!(!mgr.caches_results());
    }

    #[test]
    fn ttl_policy_can_exceed_budget_until_expiry() {
        let mut mgr = CacheManager::new(
            PolicyName::Ttl,
            CacheConfig {
                budget: ByteSize::new(50),
                ttl_recompute_interval: SimDuration::from_secs(5),
                idle_ttl: SimDuration::from_secs(30),
                ..CacheConfig::default()
            },
        );
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        for sec in 1..=5u64 {
            mgr.insert(bs, obj(sec, sec, 30), t(sec)).unwrap();
        }
        // No eviction: TTL caches grow beyond the budget.
        assert!(mgr.total_bytes() > ByteSize::new(50));
        // After the idle TTL elapses, maintenance expires the tails.
        mgr.maintain(t(10)); // recompute TTLs
        let dropped = mgr.maintain(t(40));
        assert!(!dropped.is_empty());
        assert!(dropped.iter().all(|d| d.reason == DropReason::Expired));
    }

    #[test]
    fn consumption_drops_do_not_count_as_evictions() {
        let mut mgr = manager(PolicyName::Lsc, 1000);
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        mgr.insert(bs, obj(1, 1, 100), t(1)).unwrap();
        let dropped = mgr
            .ack_consume(bs, SubscriberId::new(0), t(1), t(2))
            .unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].reason, DropReason::Consumed);
        assert_eq!(mgr.metrics().consumed_objects, 1);
        assert_eq!(mgr.metrics().evicted_objects, 0);
        assert_eq!(mgr.total_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn plan_get_records_hits() {
        let mut mgr = manager(PolicyName::Lru, 1000);
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        mgr.insert(bs, obj(1, 1, 100), t(1)).unwrap();
        let plan = mgr.plan_get(bs, TimeRange::closed(t(0), t(1)), t(2));
        assert_eq!(plan.cached.len(), 1);
        mgr.record_miss_fetch(bs, 2, ByteSize::new(50));
        let m = mgr.metrics();
        assert_eq!(m.requested_objects, 3);
        assert_eq!(m.hit_objects, 1);
        assert_eq!(m.miss_objects, 2);
        assert_eq!(m.hit_ratio(), Some(1.0 / 3.0));
    }

    #[test]
    fn indexed_and_linear_victims_agree() {
        let mut indexed = manager(PolicyName::Lscz, u64::MAX);
        let mut linear = CacheManager::new(
            PolicyName::Lscz,
            CacheConfig {
                budget: ByteSize::MAX,
                use_victim_index: false,
                ..CacheConfig::default()
            },
        );
        for mgr in [&mut indexed, &mut linear] {
            with_caches(mgr, 4);
            for i in 0..4u64 {
                let bs = BackendSubId::new(i);
                mgr.insert(bs, obj(i, 1, 10 + i * 37), t(1)).unwrap();
            }
        }
        assert_eq!(indexed.choose_victim(t(2)), linear.choose_victim(t(2)));
    }

    #[test]
    fn remove_cache_drops_everything() {
        let mut mgr = manager(PolicyName::Lsc, 1000);
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        mgr.insert(bs, obj(1, 1, 100), t(1)).unwrap();
        mgr.insert(bs, obj(2, 2, 100), t(2)).unwrap();
        let dropped = mgr.remove_cache(bs, t(3));
        assert_eq!(dropped.len(), 2);
        assert_eq!(mgr.total_bytes(), ByteSize::ZERO);
        assert_eq!(mgr.cache_count(), 0);
        // Unknown cache afterwards: operations error, reads are empty.
        assert!(mgr.insert(bs, obj(3, 3, 10), t(3)).is_err());
        assert!(mgr.remove_cache(bs, t(3)).is_empty());
    }

    #[test]
    fn unknown_cache_errors() {
        let mut mgr = manager(PolicyName::Lsc, 1000);
        let bs = BackendSubId::new(9);
        assert!(mgr.add_subscriber(bs, SubscriberId::new(1)).is_err());
        assert!(mgr
            .ack_consume(bs, SubscriberId::new(1), t(1), t(1))
            .is_err());
        assert!(mgr
            .remove_subscriber(bs, SubscriberId::new(1), t(1))
            .is_err());
    }

    #[test]
    fn oversized_object_evicts_itself_gracefully() {
        let mut mgr = manager(PolicyName::Lsc, 50);
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        // Object bigger than the whole budget: it is admitted then evicted
        // immediately; the budget invariant is restored.
        let dropped = mgr.insert(bs, obj(1, 1, 200), t(1)).unwrap();
        assert_eq!(dropped.len(), 1);
        assert_eq!(mgr.total_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn exp_policy_recomputes_ttls_via_maintain() {
        let mut mgr = CacheManager::new(
            PolicyName::Exp,
            CacheConfig {
                budget: ByteSize::new(1000),
                ttl_recompute_interval: SimDuration::from_secs(1),
                ..CacheConfig::default()
            },
        );
        with_caches(&mut mgr, 1);
        let bs = BackendSubId::new(0);
        mgr.insert(bs, obj(1, 1, 100), t(1)).unwrap();
        let before = mgr.cache(bs).unwrap().ttl();
        mgr.maintain(t(10));
        let after = mgr.cache(bs).unwrap().ttl();
        // The recomputation replaced the construction default with a
        // rate-derived TTL bounded by the idle ceiling.
        assert_ne!(after, before);
        assert!(after <= mgr.ttl.idle_ttl);
        assert!(after >= mgr.ttl.min_ttl);
    }
}
