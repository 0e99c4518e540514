//! Lock-striped sharding of the broker cache tier.
//!
//! [`ShardedCacheManager`] partitions one broker's result caches across
//! `N` independent [`CacheManager`] shards, each behind its own
//! `std::sync::Mutex`. Per-backend-subscription caches are independent
//! except for the shared budget `B` (the knapsack coupling of Section
//! IV-A), so a cache's shard is fixed by a hash of its
//! [`BackendSubId`] and every data-path operation (`insert`,
//! `plan_get`, `ack_consume`, subscriber churn) takes `&self` and locks
//! exactly one shard — broker worker threads proceed concurrently as
//! long as they touch different shards.
//!
//! The budget coupling is resolved in two pieces:
//!
//! * each shard owns a fixed share of `B` (`B/N`, remainder spread over
//!   the first shards so the shares sum to `B` exactly) and enforces
//!   it locally — evictions and the per-shard TTL retune (eq. 5–7) use
//!   the shard-local `Σ n_j·ρ_j`;
//! * the periodic [`ShardedCacheManager::maintain`] pass rebalances
//!   the shares — half of `B` split equally as a per-shard floor, half
//!   by per-shard occupancy — so a hot shard borrows budget from cold
//!   ones while the global sum stays exactly `B` and no shard is ever
//!   starved below `B/2N`.
//!
//! With `shards = 1` the single shard owns the whole budget, sees the
//! global `Σ n_j·ρ_j`, and the rebalance is skipped — every eviction
//! and expiry decision is byte-for-byte identical to a monolithic
//! [`CacheManager`]. That parity is the paper-faithful mode (the
//! ICDCS 2018 evaluation is single-threaded) and is pinned by the
//! `oracle_parity` integration test for all six policies.

use std::sync::{Arc, Mutex, OnceLock};

use bad_telemetry::{
    HotSnapshot, LockSite, OpTimer, ProfiledGuard, Profiler, SketchConfig, SketchRecorder,
    StagePath, TraceId,
};
use bad_types::ids::mix64;
use bad_types::{BackendSubId, ByteSize, Result, SubscriberId, TimeRange, Timestamp};

use crate::manager::{CacheConfig, CacheManager, DroppedObject};
use crate::metrics::CacheMetrics;
use crate::object::NewObject;
use crate::policy::{PolicyKind, PolicyName};
use crate::result_cache::{GetPlan, ResultCache};
use crate::telemetry::CacheTelemetry;

/// Splits `budget` into `n` shares that sum to `budget` exactly, the
/// remainder bytes going to the first shards.
fn split_budget(budget: ByteSize, n: u64) -> Vec<ByteSize> {
    let base = budget.as_u64() / n;
    let remainder = budget.as_u64() % n;
    (0..n)
        .map(|i| ByteSize::new(base + u64::from(i < remainder)))
        .collect()
}

/// One shard's point-in-time occupancy, as reported by
/// [`ShardedCacheManager::shard_health`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub index: usize,
    /// Bytes currently resident in the shard.
    pub occupancy_bytes: u64,
    /// The shard's current budget share.
    pub budget_bytes: u64,
    /// Result caches owned by the shard.
    pub caches: usize,
}

/// N lock-striped [`CacheManager`] shards under one global budget.
///
/// All operations take `&self`; each data-path call locks the single
/// shard owning the addressed cache. See the [module docs](self) for
/// the budget model and the `shards = 1` parity guarantee.
#[derive(Debug)]
pub struct ShardedCacheManager {
    shards: Vec<Mutex<CacheManager>>,
    budget: ByteSize,
    /// The policy every shard runs, fixed at construction, and its
    /// kind — read without a lock, so
    /// [`ShardedCacheManager::caches_results`] never queues behind a
    /// shard.
    policy: PolicyName,
    kind: PolicyKind,
    /// Continuous profiler attachment (write-once): per-shard lock
    /// sites plus the stage-timer handle. `None` keeps every lock
    /// acquisition a plain `Mutex::lock` and every stage call a single
    /// branch. The sites only *observe* the shard mutexes.
    profile: OnceLock<ShardProfile>,
    /// Hot-key sketch recorders, one per shard, index-aligned with
    /// `shards` (write-once, like `profile`). Each shard's hooks feed
    /// its own recorder under the shard lock (so the recorder mutex is
    /// uncontended), delivery lags included;
    /// [`ShardedCacheManager::hot_snapshot`] merges the per-shard
    /// states at read time, order-independently.
    sketch: OnceLock<Vec<Arc<SketchRecorder>>>,
}

/// The profiler attachment of one [`ShardedCacheManager`].
#[derive(Debug)]
struct ShardProfile {
    profiler: Profiler,
    /// One instrumented site per shard, index-aligned with `shards`.
    sites: Vec<LockSite>,
}

impl ShardedCacheManager {
    /// Creates `shards.max(1)` shards of `policy`, splitting
    /// `config.budget` evenly across them.
    pub fn new(policy: PolicyName, config: CacheConfig, shards: usize) -> Self {
        let n = shards.max(1) as u64;
        let shards = split_budget(config.budget, n)
            .into_iter()
            .map(|share| {
                Mutex::new(CacheManager::new(
                    policy,
                    CacheConfig {
                        budget: share,
                        ..config
                    },
                ))
            })
            .collect();
        Self {
            shards,
            budget: config.budget,
            policy,
            kind: policy.build().kind(),
            profile: OnceLock::new(),
            sketch: OnceLock::new(),
        }
    }

    /// The shard index owning `bs` — a stable hash, so routing is
    /// deterministic across runs and platforms.
    pub fn shard_index(&self, bs: BackendSubId) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (mix64(bs.as_u64()) % self.shards.len() as u64) as usize
        }
    }

    /// Acquires shard `idx` through its lock site when the profiler is
    /// attached, a plain acquisition otherwise.
    fn lock(&self, idx: usize) -> ProfiledGuard<'_, CacheManager> {
        match self.profile.get() {
            Some(p) => p.sites[idx].lock(&self.shards[idx], false),
            None => ProfiledGuard::plain(&self.shards[idx]),
        }
    }

    /// Acquires shard `idx` through its lock site, crossing the
    /// sampled op's lock-wait boundary with the same tick read that
    /// starts the hold timer (see [`LockSite::lock_staged`]).
    fn lock_staged(
        &self,
        idx: usize,
        timer: &mut Option<OpTimer>,
        path: StagePath,
        trace: u64,
    ) -> ProfiledGuard<'_, CacheManager> {
        match self.profile.get() {
            Some(p) => p.sites[idx].lock_staged(&self.shards[idx], timer, path, trace),
            None => ProfiledGuard::plain(&self.shards[idx]),
        }
    }

    fn shard(&self, bs: BackendSubId) -> ProfiledGuard<'_, CacheManager> {
        self.lock(self.shard_index(bs))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global budget `B` (the per-shard shares sum to this).
    pub fn budget(&self) -> ByteSize {
        self.budget
    }

    /// The current budget share of one shard.
    pub fn shard_budget(&self, idx: usize) -> ByteSize {
        self.lock(idx).budget()
    }

    /// The configured policy.
    pub fn policy_name(&self) -> PolicyName {
        self.policy
    }

    /// How the policy bounds the cache.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Whether the broker should prefetch results into the cache on
    /// cluster notifications (everything except the NC baseline).
    pub fn caches_results(&self) -> bool {
        self.kind != PolicyKind::NoCache
    }

    /// Current aggregate size across all shards.
    pub fn total_bytes(&self) -> ByteSize {
        (0..self.shards.len())
            .map(|i| self.lock(i).total_bytes())
            .sum()
    }

    /// Number of result caches across all shards.
    pub fn cache_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock(i).cache_count())
            .sum()
    }

    /// Point-in-time occupancy of every shard — the payload behind the
    /// scrape endpoint's `/healthz` and the runtime's shard-imbalance
    /// anomaly check. Locks one shard at a time, so the rows are each
    /// internally consistent but not a global atomic snapshot.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        (0..self.shards.len())
            .map(|idx| {
                let shard = self.lock(idx);
                ShardHealth {
                    index: idx,
                    occupancy_bytes: shard.total_bytes().as_u64(),
                    budget_bytes: shard.budget().as_u64(),
                    caches: shard.cache_count(),
                }
            })
            .collect()
    }

    /// Aggregated metrics: the fold of every shard's [`CacheMetrics`]
    /// via [`CacheMetrics::merge`]. With one shard this is an exact
    /// clone of the shard's metrics.
    pub fn metrics(&self) -> CacheMetrics {
        let mut out = self.lock(0).metrics().clone();
        for i in 1..self.shards.len() {
            out.merge(self.lock(i).metrics());
        }
        out
    }

    /// Installs a telemetry bundle on every shard. The bundle's metric
    /// handles are registry-backed and shared, so per-shard counter
    /// bumps aggregate automatically; the occupancy gauge becomes
    /// last-writer-wins across shards (an approximation documented in
    /// DESIGN.md).
    pub fn set_telemetry(&self, telemetry: CacheTelemetry) {
        self.set_profiler(telemetry.profiler());
        for i in 0..self.shards.len() {
            self.lock(i).set_telemetry(telemetry.clone());
        }
    }

    /// Attaches the continuous profiler: registers one
    /// `cache_shard<i>` lock site per shard and enables stage timing
    /// on the data paths. Write-once — later calls (and disabled
    /// profilers) are no-ops, so re-installing telemetry can't tear
    /// sites out from under concurrent operations.
    pub fn set_profiler(&self, profiler: &Profiler) {
        if !profiler.enabled() {
            return;
        }
        let sites = (0..self.shards.len())
            .map(|i| profiler.lock_site(&format!("cache_shard{i}")))
            .collect();
        let _ = self.profile.set(ShardProfile {
            profiler: profiler.clone(),
            sites,
        });
    }

    /// Enables hot-key attribution sketches ([`bad_telemetry::sketch`]):
    /// one recorder per shard, installed on each shard manager's hooks.
    /// Write-once, like [`ShardedCacheManager::set_profiler`] — later
    /// calls are no-ops. Strictly metadata-only: no caching decision
    /// reads the sketches, so `shards = 1` with sketches enabled stays
    /// byte-identical to the monolith (pinned by `oracle_parity`).
    pub fn enable_sketches(&self, config: SketchConfig) {
        let recorders: Vec<Arc<SketchRecorder>> = (0..self.shards.len())
            .map(|_| Arc::new(SketchRecorder::new(config)))
            .collect();
        if self.sketch.set(recorders).is_err() {
            return;
        }
        let recorders = self.sketch.get().expect("just set");
        for (i, recorder) in recorders.iter().enumerate() {
            self.lock(i).set_sketches(Arc::clone(recorder));
        }
    }

    /// Whether sketches are enabled.
    pub fn sketches_enabled(&self) -> bool {
        self.sketch.get().is_some()
    }

    /// The merged hot-key snapshot across all shards (`None` until
    /// [`ShardedCacheManager::enable_sketches`]). Reads each shard's
    /// recorder directly — never the shard mutexes — and merges
    /// order-independently, so two scrapes over the same quiescent
    /// state render byte-identical `/hot` JSON regardless of shard
    /// iteration order.
    pub fn hot_snapshot(&self) -> Option<HotSnapshot> {
        let recorders = self.sketch.get()?;
        let snapshots: Vec<HotSnapshot> = recorders.iter().map(|r| r.snapshot()).collect();
        HotSnapshot::merge(&snapshots)
    }

    /// Creates an empty cache for a new backend subscription.
    pub fn create_cache(&self, bs: BackendSubId, now: Timestamp) {
        self.shard(bs).create_cache(bs, now);
    }

    /// Tears down a backend subscription's cache, dropping its objects.
    pub fn remove_cache(&self, bs: BackendSubId, now: Timestamp) -> Vec<DroppedObject> {
        self.shard(bs).remove_cache(bs, now)
    }

    /// Attaches a subscriber to a cache.
    ///
    /// # Errors
    ///
    /// Returns [`bad_types::BadError::NotFound`] when no cache exists
    /// for `bs`.
    pub fn add_subscriber(&self, bs: BackendSubId, sub: SubscriberId) -> Result<()> {
        self.shard(bs).add_subscriber(bs, sub)
    }

    /// Detaches a subscriber, dropping objects only waiting on it.
    ///
    /// # Errors
    ///
    /// Returns [`bad_types::BadError::NotFound`] when no cache exists
    /// for `bs`.
    pub fn remove_subscriber(
        &self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        self.shard(bs).remove_subscriber(bs, sub, now)
    }

    /// Inserts a freshly produced result (Algorithm 1 `PUT`), evicting
    /// within the owning shard until its share is respected.
    ///
    /// # Errors
    ///
    /// Returns [`bad_types::BadError::NotFound`] when no cache exists
    /// for `bs`.
    pub fn insert(
        &self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        let Some(p) = self.profile.get() else {
            return self.shard(bs).insert(bs, desc, now);
        };
        let mut timer = p.profiler.op();
        let trace = match timer {
            Some(_) => TraceId::for_object(desc.id.as_u64()).as_u64(),
            None => 0,
        };
        let idx = self.shard_index(bs);
        let mut shard = self.lock_staged(idx, &mut timer, StagePath::InsertLockWait, trace);
        let out = shard.insert_staged(bs, desc, now, &p.profiler, &mut timer);
        drop(shard);
        p.profiler.finish(timer, StagePath::InsertTotal, trace);
        out
    }

    /// Plans a range retrieval (Algorithm 1 `GET`) under the owning
    /// shard's mutex.
    pub fn plan_get(&self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan {
        let Some(p) = self.profile.get() else {
            return self.shard(bs).plan_get(bs, range, now);
        };
        // No route boundary: routing one key is a single hash, and its
        // time folds into the lookup stage crossed at release.
        let mut timer = p.profiler.op();
        let idx = self.shard_index(bs);
        let mut shard = self.lock_staged(idx, &mut timer, StagePath::GetLockWait, 0);
        let plan = shard.plan_get(bs, range, now);
        shard.unlock_staged(&mut timer, StagePath::GetLookup);
        p.profiler.finish_at_boundary(timer, StagePath::GetTotal, 0);
        plan
    }

    /// Marks everything up to `up_to` as retrieved by `sub` (`ACK`),
    /// dropping fully consumed objects.
    ///
    /// # Errors
    ///
    /// Returns [`bad_types::BadError::NotFound`] when no cache exists
    /// for `bs`.
    pub fn ack_consume(
        &self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        self.shard(bs).ack_consume(bs, sub, up_to, now)
    }

    /// One retrieval under one acquisition of the owning shard:
    /// [`ShardedCacheManager::plan_get`] of `range`, then
    /// [`ShardedCacheManager::ack_consume`] of `sub` up to `up_to` (see
    /// [`CacheManager::get_and_ack`]). An unknown cache misses the whole
    /// range and drops nothing.
    pub fn get_and_ack(
        &self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>) {
        let Some(p) = self.profile.get() else {
            return self.shard(bs).get_and_ack(bs, sub, range, up_to, now);
        };
        let mut timer = p.profiler.op();
        let mut served = None;
        let request = [(bs, range, up_to)];
        self.get_and_ack_on(self.shard_index(bs), sub, request, now, &mut timer, |got| {
            served = Some(got);
        });
        p.profiler.finish_at_boundary(timer, StagePath::GetTotal, 0);
        served.expect("one request, one retrieval")
    }

    /// `sub`'s retrievals over several caches, each a
    /// [`ShardedCacheManager::get_and_ack`] of `(cache, range, up_to)`,
    /// with each shard locked once however many of the caches it owns.
    /// Results come back in request order. Within a shard the requests
    /// run in request order, and caches on different shards are
    /// independent, so each result is the one a sequence of single
    /// calls would have returned.
    pub fn get_and_ack_batch(
        &self,
        sub: SubscriberId,
        requests: &[(BackendSubId, TimeRange, Timestamp)],
        now: Timestamp,
    ) -> Vec<(GetPlan, Vec<DroppedObject>)> {
        let Some(p) = self.profile.get() else {
            return self.get_and_ack_batch_staged(
                sub,
                requests,
                now,
                &Profiler::disabled(),
                &mut None,
            );
        };
        let mut timer = p.profiler.op();
        let served = self.get_and_ack_batch_staged(sub, requests, now, &p.profiler, &mut timer);
        p.profiler.finish(timer, StagePath::GetTotal, 0);
        served
    }

    /// [`ShardedCacheManager::get_and_ack_batch`] recording its route,
    /// lock-wait, lookup and ack stages on a caller-owned [`OpTimer`]:
    /// the broker threads its `get_all_pending` timer through here, so
    /// one envelope spans the broker and the cache.
    pub fn get_and_ack_batch_staged(
        &self,
        sub: SubscriberId,
        requests: &[(BackendSubId, TimeRange, Timestamp)],
        now: Timestamp,
        profiler: &Profiler,
        timer: &mut Option<OpTimer>,
    ) -> Vec<(GetPlan, Vec<DroppedObject>)> {
        if self.shards.len() == 1 {
            let mut served = Vec::with_capacity(requests.len());
            let requests = requests.iter().copied();
            self.get_and_ack_on(0, sub, requests, now, timer, |got| served.push(got));
            return served;
        }
        // `(shard, request)` pairs sorted: each shard's requests in a
        // run, in request order.
        let mut routed: Vec<(usize, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, &(bs, _, _))| (self.shard_index(bs), i))
            .collect();
        routed.sort_unstable();
        profiler.stage(timer, StagePath::GetRoute, 0);
        let mut served: Vec<Option<_>> = (0..requests.len()).map(|_| None).collect();
        for run in routed.chunk_by(|a, b| a.0 == b.0) {
            let mut slots = run.iter().map(|&(_, i)| i);
            let group = run.iter().map(|&(_, i)| requests[i]);
            self.get_and_ack_on(run[0].0, sub, group, now, timer, |got| {
                served[slots.next().expect("one slot per request")] = Some(got);
            });
        }
        served
            .into_iter()
            .map(|got| got.expect("every request served"))
            .collect()
    }

    /// Shard `idx` locked once, then per request the fused body of every
    /// retrieval, [`CacheManager::get_and_ack`] (the GET, the ACK, the
    /// re-scoring and the sketches), each result handed to `served` in
    /// request order. Every request must route to `idx`.
    fn get_and_ack_on(
        &self,
        idx: usize,
        sub: SubscriberId,
        requests: impl IntoIterator<Item = (BackendSubId, TimeRange, Timestamp)>,
        now: Timestamp,
        timer: &mut Option<OpTimer>,
        mut served: impl FnMut((GetPlan, Vec<DroppedObject>)),
    ) {
        let disabled = Profiler::disabled();
        let profiler = self.profile.get().map_or(&disabled, |p| &p.profiler);
        let mut shard = self.lock_staged(idx, timer, StagePath::GetLockWait, 0);
        for (i, (bs, range, up_to)) in requests.into_iter().enumerate() {
            if i > 0 {
                // The previous request's tail.
                profiler.stage(timer, StagePath::GetAck, 0);
            }
            served(shard.get_and_ack_staged(bs, sub, range, up_to, now, profiler, timer));
        }
        shard.unlock_staged(timer, StagePath::GetAck);
    }

    /// Always empty: every operation returns its own drops before it
    /// releases the shard, so there is nothing left to collect. Kept
    /// only because `benchmark/src/rw.rs` calls it and a PR that claims
    /// a gain may not edit `benchmark/`; ROADMAP item 8 removes both.
    #[doc(hidden)]
    pub fn quiesce(&self) -> Vec<DroppedObject> {
        Vec::new()
    }

    /// Re-splits a new global budget `B` across the shards (same
    /// even-split-with-remainder rule as construction) and enforces
    /// each share immediately. Returns the evictions a shrink forces.
    pub fn set_budget(&mut self, budget: ByteSize, now: Timestamp) -> Vec<DroppedObject> {
        self.budget = budget;
        let shares = split_budget(budget, self.shards.len() as u64);
        let mut dropped = Vec::new();
        for (idx, share) in shares.into_iter().enumerate() {
            let mut shard = self.lock(idx);
            shard.set_budget(share);
            dropped.extend(shard.enforce_budget(now));
        }
        dropped
    }

    /// Records objects fetched from the cluster due to a cache miss.
    pub fn record_miss_fetch(&self, bs: BackendSubId, objects: u64, bytes: ByteSize) {
        self.shard(bs).record_miss_fetch(bs, objects, bytes);
    }

    /// Records a miss fetch with each fetched object's produce→deliver
    /// lag (see [`CacheManager::record_miss_fetch_with_lags`]).
    pub fn record_miss_fetch_with_lags(
        &self,
        bs: BackendSubId,
        bytes: ByteSize,
        lags_us: impl ExactSizeIterator<Item = u64>,
    ) {
        self.shard(bs)
            .record_miss_fetch_with_lags(bs, bytes, lags_us);
    }

    /// Records bytes pulled from the cluster to populate `bs`'s cache
    /// (`Vol`), accounted to the owning shard.
    pub fn record_populate(&self, bs: BackendSubId, bytes: ByteSize) {
        self.shard(bs).record_populate(bytes);
    }

    /// Per-subscription analytical-model inputs across every shard —
    /// the sharded counterpart of [`CacheManager::model_inputs`]. Locks
    /// one shard at a time, never two at once.
    pub fn model_inputs(&self, now: Timestamp) -> Vec<bad_telemetry::SubscriptionModel> {
        let mut models = Vec::new();
        for idx in 0..self.shards.len() {
            models.extend(self.lock(idx).model_inputs(now));
        }
        models
    }

    /// Periodic maintenance: runs every shard's TTL retune/expiry pass
    /// in shard order, then (with more than one shard) rebalances the
    /// budget shares by occupancy. With one shard this is exactly
    /// [`CacheManager::maintain`].
    pub fn maintain(&self, now: Timestamp) -> Vec<DroppedObject> {
        let mut dropped = Vec::new();
        for idx in 0..self.shards.len() {
            dropped.extend(self.maintain_shard(idx, now));
        }
        if self.shards.len() > 1 {
            match self.profile.get() {
                Some(p) => {
                    let mut timer = p.profiler.op();
                    dropped.extend(self.rebalance(now));
                    p.profiler
                        .stage(&mut timer, StagePath::MaintainRebalance, 0);
                    p.profiler.finish(timer, StagePath::MaintainTotal, 0);
                }
                None => dropped.extend(self.rebalance(now)),
            }
        }
        if let Some(p) = self.profile.get() {
            // Fold this thread's buffered stage samples so scrapes lag
            // a quiet thread by at most one maintenance interval.
            p.profiler.flush_thread();
        }
        dropped
    }

    /// Runs one shard's maintenance pass. TTL retuning uses the
    /// shard-local `Σ n_j·ρ_j` against the shard's budget share.
    fn maintain_shard(&self, idx: usize, now: Timestamp) -> Vec<DroppedObject> {
        let Some(p) = self.profile.get() else {
            return self.lock(idx).maintain(now);
        };
        let mut timer = p.profiler.op();
        let mut shard = self.lock_staged(idx, &mut timer, StagePath::MaintainLockWait, 0);
        let dropped = shard.maintain_staged(now, &p.profiler, &mut timer);
        drop(shard);
        p.profiler.finish(timer, StagePath::MaintainTotal, 0);
        dropped
    }

    /// Rebalances the per-shard budget shares: half of `B` is split
    /// equally (a floor of `B/2N` per shard, so a currently-cold shard
    /// always keeps real headroom to grow into), the other half in
    /// proportion to current occupancy (`w_i = occ_i + 1`, so the
    /// weights never vanish) — a hot shard borrows cold shards'
    /// proportional half while the exact-sum invariant `Σ share_i = B`
    /// holds. Shards shrunk below their occupancy evict down
    /// immediately; the returned drops are those evictions.
    ///
    /// Locks one shard at a time — never two at once — so it can run
    /// concurrently with data-path operations without deadlock.
    pub fn rebalance(&self, now: Timestamp) -> Vec<DroppedObject> {
        let n = self.shards.len();
        if n <= 1 {
            return Vec::new();
        }
        let occupancy: Vec<u64> = (0..n)
            .map(|i| self.lock(i).total_bytes().as_u64())
            .collect();
        let weights: Vec<u128> = occupancy.iter().map(|&o| u128::from(o) + 1).collect();
        let total_weight: u128 = weights.iter().sum();
        let equal_total = self.budget.as_u64() / 2;
        let prop_total = u128::from(self.budget.as_u64() - equal_total);
        let mut shares: Vec<u64> = split_budget(ByteSize::new(equal_total), n as u64)
            .into_iter()
            .zip(&weights)
            .map(|(floor, w)| floor.as_u64() + (prop_total * w / total_weight) as u64)
            .collect();
        // Flooring leaves a few bytes unassigned; hand them out in
        // shard order so the shares sum to B exactly.
        let mut leftover = self.budget.as_u64() - shares.iter().sum::<u64>();
        for share in shares.iter_mut() {
            if leftover == 0 {
                break;
            }
            *share += 1;
            leftover -= 1;
        }
        let mut dropped = Vec::new();
        for (idx, share) in shares.into_iter().enumerate() {
            let mut shard = self.lock(idx);
            if shard.budget() != ByteSize::new(share) {
                shard.set_budget(ByteSize::new(share));
                dropped.extend(shard.enforce_budget(now));
            }
        }
        dropped
    }

    /// The expected aggregate size `Σ ρ_i·T_i` under current TTLs,
    /// summed across shards (Fig. 5a overlay).
    pub fn expected_ttl_size(&self, now: Timestamp) -> ByteSize {
        (0..self.shards.len())
            .map(|i| self.lock(i).expected_ttl_size(now))
            .sum()
    }

    /// Visits every result cache across all shards, in shard order then
    /// id order within a shard. (References cannot escape the shard
    /// locks, hence the visitor shape instead of an iterator.)
    pub fn for_each_cache(&self, mut f: impl FnMut(&ResultCache)) {
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            for cache in shard.iter_caches() {
                f(cache);
            }
        }
    }

    /// Runs `f` on `bs`'s cache (or `None` when it does not exist)
    /// while holding the owning shard's lock.
    pub fn with_cache<R>(&self, bs: BackendSubId, f: impl FnOnce(Option<&ResultCache>) -> R) -> R {
        let shard = self.shard(bs);
        f(shard.cache(bs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::{ObjectId, SimDuration};

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

    fn sharded(policy: PolicyName, budget: u64, shards: usize) -> ShardedCacheManager {
        ShardedCacheManager::new(
            policy,
            CacheConfig {
                budget: ByteSize::new(budget),
                ..CacheConfig::default()
            },
            shards,
        )
    }

    fn with_caches(mgr: &ShardedCacheManager, n: u64) {
        for i in 0..n {
            let bs = BackendSubId::new(i);
            mgr.create_cache(bs, Timestamp::ZERO);
            mgr.add_subscriber(bs, SubscriberId::new(1000 + i)).unwrap();
        }
    }

    #[test]
    fn budget_shares_sum_to_global_budget() {
        for (budget, shards) in [(100u64, 3usize), (7, 4), (1, 8), (1000, 1)] {
            let mgr = sharded(PolicyName::Lsc, budget, shards);
            let sum: u64 = (0..mgr.shard_count())
                .map(|i| mgr.shard_budget(i).as_u64())
                .sum();
            assert_eq!(sum, budget, "budget {budget} over {shards} shards");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let mgr = sharded(PolicyName::Lru, 100, 0);
        assert_eq!(mgr.shard_count(), 1);
        assert_eq!(mgr.shard_budget(0), ByteSize::new(100));
    }

    #[test]
    fn routing_is_deterministic_and_single_shard_maps_to_zero() {
        let one = sharded(PolicyName::Lsc, 100, 1);
        let four = sharded(PolicyName::Lsc, 100, 4);
        for i in 0..64u64 {
            let bs = BackendSubId::new(i);
            assert_eq!(one.shard_index(bs), 0);
            assert_eq!(four.shard_index(bs), four.shard_index(bs));
            assert!(four.shard_index(bs) < 4);
        }
    }

    #[test]
    fn routing_spreads_across_shards() {
        let mgr = sharded(PolicyName::Lsc, 1000, 4);
        let mut seen = [false; 4];
        for i in 0..64u64 {
            seen[mgr.shard_index(BackendSubId::new(i))] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "64 ids left a shard empty: {seen:?}"
        );
    }

    #[test]
    fn eviction_respects_per_shard_shares_and_global_budget() {
        let mgr = sharded(PolicyName::Lsc, 400, 4);
        with_caches(&mgr, 16);
        let mut id = 0u64;
        for sec in 1..=20u64 {
            for c in 0..16u64 {
                mgr.insert(BackendSubId::new(c), obj(id, sec, 30), t(sec))
                    .unwrap();
                id += 1;
            }
            assert!(mgr.total_bytes() <= ByteSize::new(400));
        }
        assert!(mgr.metrics().evicted_objects > 0);
    }

    #[test]
    fn rebalance_moves_budget_toward_occupied_shards() {
        let mgr = sharded(PolicyName::Lsc, 400, 4);
        with_caches(&mgr, 16);
        // Load exactly one cache heavily; its shard should end up with
        // most of the budget after a rebalance.
        let hot = BackendSubId::new(0);
        let hot_shard = mgr.shard_index(hot);
        for sec in 1..=10u64 {
            mgr.insert(hot, obj(sec, sec, 10), t(sec)).unwrap();
        }
        mgr.rebalance(t(11));
        let hot_share = mgr.shard_budget(hot_shard).as_u64();
        for idx in 0..4 {
            if idx != hot_shard {
                assert!(
                    mgr.shard_budget(idx).as_u64() < hot_share,
                    "cold shard {idx} kept share >= hot shard's {hot_share}"
                );
            }
            // The equal half guarantees every shard a B/2N floor.
            assert!(
                mgr.shard_budget(idx).as_u64() >= 400 / 8,
                "shard {idx} starved below the B/2N floor"
            );
        }
        let sum: u64 = (0..4).map(|i| mgr.shard_budget(i).as_u64()).sum();
        assert_eq!(sum, 400);
    }

    #[test]
    fn rebalance_shrink_evicts_down_to_the_new_share() {
        let mgr = sharded(PolicyName::Lru, 100, 2);
        // Occupy one shard right at the global budget split, then force
        // a rebalance that shrinks the other; totals stay within B.
        with_caches(&mgr, 8);
        let mut id = 0u64;
        for sec in 1..=10u64 {
            for c in 0..8u64 {
                mgr.insert(BackendSubId::new(c), obj(id, sec, 7), t(sec))
                    .unwrap();
                id += 1;
            }
        }
        let dropped = mgr.rebalance(t(20));
        let total: u64 = (0..2).map(|i| mgr.shard_budget(i).as_u64()).sum();
        assert_eq!(total, 100);
        assert!(mgr.total_bytes() <= ByteSize::new(100));
        // Any rebalance evictions are tagged as such.
        assert!(dropped
            .iter()
            .all(|d| d.reason == crate::manager::DropReason::Evicted));
    }

    #[test]
    fn single_shard_maintain_skips_rebalance_and_keeps_budget() {
        let mgr = sharded(PolicyName::Ttl, 1000, 1);
        with_caches(&mgr, 2);
        mgr.insert(BackendSubId::new(0), obj(1, 1, 100), t(1))
            .unwrap();
        mgr.maintain(t(120));
        assert_eq!(mgr.shard_budget(0), ByteSize::new(1000));
    }

    #[test]
    fn metrics_aggregate_across_shards() {
        let mgr = sharded(PolicyName::Lru, 10_000, 4);
        with_caches(&mgr, 8);
        for c in 0..8u64 {
            mgr.insert(BackendSubId::new(c), obj(c, 1, 50), t(1))
                .unwrap();
        }
        let m = mgr.metrics();
        assert_eq!(m.inserted_objects, 8);
        assert_eq!(m.inserted_bytes, ByteSize::new(400));
        assert_eq!(mgr.total_bytes(), ByteSize::new(400));
        assert_eq!(mgr.cache_count(), 8);
    }

    #[test]
    fn profiler_attaches_lock_sites_and_stage_tree() {
        use bad_telemetry::{ProfileConfig, Registry};

        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig::default());
        let mgr = sharded(PolicyName::Lsc, 400, 2);
        mgr.set_profiler(&profiler);
        let twin = sharded(PolicyName::Lsc, 400, 2);
        // One subscriber on every cache, retrieving them all at once.
        let reader = SubscriberId::new(7);
        for side in [&mgr, &twin] {
            for c in 0..8u64 {
                side.create_cache(BackendSubId::new(c), Timestamp::ZERO);
                side.add_subscriber(BackendSubId::new(c), reader).unwrap();
            }
        }

        let mut id = 0u64;
        for sec in 1..=5u64 {
            for c in 0..8u64 {
                let bs = BackendSubId::new(c);
                mgr.insert(bs, obj(id, sec, 30), t(sec)).unwrap();
                twin.insert(bs, obj(id, sec, 30), t(sec)).unwrap();
                id += 1;
            }
        }
        let requests: Vec<_> = (0..8u64)
            .map(|c| (BackendSubId::new(c), TimeRange::closed(t(0), t(5)), t(5)))
            .collect();
        let sites = profiler.lock_sites();
        let before: Vec<u64> = sites.iter().map(LockSite::acquisitions).collect();
        let served = mgr.get_and_ack_batch(reader, &requests, t(6));
        let twin_served = twin.get_and_ack_batch(reader, &requests, t(6));
        // Each shard was locked once for the whole batch.
        for (site, before) in sites.iter().zip(before) {
            assert_eq!(site.acquisitions() - before, 1, "{}", site.name());
        }
        mgr.maintain(t(7));
        twin.maintain(t(7));
        profiler.flush_thread();

        // Stage tree covers all three roots' hot leaves. Lock-wait
        // stages are fed only by *contended* acquisitions (mirroring
        // the wait histogram), so this single-threaded tape must show
        // none at all.
        let folded = profiler.render_folded();
        assert!(folded.contains("insert;apply "), "{folded}");
        assert!(!folded.contains("lock_wait"), "{folded}");
        assert!(folded.contains("get_all_pending;route "), "{folded}");
        assert!(folded.contains("get_all_pending;lookup "), "{folded}");
        assert!(folded.contains("get_all_pending;ack_consume "), "{folded}");
        assert!(folded.contains("maintain;ttl_expiry "), "{folded}");
        // …the per-shard lock sites are registered and counting…
        let text = registry.render();
        assert!(
            text.contains(r#"bad_profile_lock_acquisitions_total{site="cache_shard0"}"#),
            "{text}"
        );
        assert!(
            text.contains(r#"bad_profile_lock_acquisitions_total{site="cache_shard1"}"#),
            "{text}"
        );
        // …and profiling is metadata-only: an unprofiled twin fed the
        // same tape lands in the same state with the same plans and
        // drops.
        assert_eq!(served, twin_served);
        assert!(served
            .iter()
            .any(|(plan, dropped)| !plan.cached.is_empty() && !dropped.is_empty()));
        assert_eq!(mgr.total_bytes(), twin.total_bytes());
        assert_eq!(
            mgr.metrics().evicted_objects,
            twin.metrics().evicted_objects
        );
    }

    #[test]
    fn fused_get_is_one_acquisition_with_the_ack_as_its_last_stage() {
        use bad_telemetry::{ProfileConfig, Registry};

        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig::default());
        let mgr = sharded(PolicyName::Lsc, 10_000, 1);
        mgr.set_profiler(&profiler);
        with_caches(&mgr, 1);
        let (bs, sub) = (BackendSubId::new(0), SubscriberId::new(1000));
        for sec in 1..=3u64 {
            mgr.insert(bs, obj(sec, sec, 30), t(sec)).unwrap();
        }
        let site = &profiler.lock_sites()[0];

        let before = site.acquisitions();
        let plan = mgr.plan_get(bs, TimeRange::closed(t(1), t(1)), t(4));
        let dropped = mgr.ack_consume(bs, sub, t(1), t(4)).unwrap();
        assert_eq!(site.acquisitions() - before, 2);
        assert_eq!((plan.cached.len(), dropped.len()), (1, 1));

        let before = site.acquisitions();
        let (plan, dropped) = mgr.get_and_ack(bs, sub, TimeRange::closed(t(2), t(2)), t(2), t(5));
        assert_eq!(site.acquisitions() - before, 1);
        assert_eq!(plan.cached.len(), 1);
        assert_eq!(dropped[0].object.id, ObjectId::new(2));

        // An unknown cache misses the whole range and drops nothing.
        let range = TimeRange::closed(t(0), t(9));
        let (plan, dropped) = mgr.get_and_ack(BackendSubId::new(77), sub, range, t(9), t(6));
        assert_eq!(plan.missed, vec![range]);
        assert!(plan.cached.is_empty() && dropped.is_empty());

        profiler.flush_thread();
        let folded = profiler.render_folded();
        assert!(folded.contains("get_all_pending;lookup "), "{folded}");
        assert!(folded.contains("get_all_pending;ack_consume "), "{folded}");
    }

    #[test]
    fn per_shard_ttl_retune_balances_each_share() {
        // Satellite: after a retune, every shard satisfies the eq. 5
        // balance Σ ρ_i·T_i ≈ shard budget against its *own* share (as
        // long as its TTLs are not clamped).
        let mgr = ShardedCacheManager::new(
            PolicyName::Ttl,
            CacheConfig {
                budget: ByteSize::from_mib(8),
                ttl_recompute_interval: SimDuration::from_secs(60),
                ..CacheConfig::default()
            },
            4,
        );
        for i in 0..16u64 {
            let bs = BackendSubId::new(i);
            mgr.create_cache(bs, Timestamp::ZERO);
            mgr.add_subscriber(bs, SubscriberId::new(1000 + i)).unwrap();
        }
        // Sustained growth on every cache: ~2 KB/s for 5 minutes.
        let mut id = 0u64;
        for sec in 1..=300u64 {
            for i in 0..16u64 {
                mgr.insert(BackendSubId::new(i), obj(id, sec, 2048), t(sec))
                    .unwrap();
                id += 1;
            }
        }
        let now = t(301);
        for idx in 0..mgr.shard_count() {
            mgr.maintain_shard(idx, now);
            let share = mgr.shard_budget(idx).as_u64() as f64;
            let expected = {
                let shard = mgr.lock(idx);
                shard.expected_ttl_size(now).as_u64() as f64
            };
            assert!(
                (expected - share).abs() / share < 0.02,
                "shard {idx}: Σρ_iT_i = {expected}, share = {share}"
            );
        }
    }
}
