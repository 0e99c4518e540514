//! Shadow-policy ghost caches: online counterfactual policy evaluation.
//!
//! The paper's contribution is a *comparison* of eviction/expiration
//! policies, yet a running broker only ever observes the one policy it
//! was configured with. A [`ShadowEvaluator`] replays the live access
//! stream — insert, retrieval plan, consumption ack, unsubscription —
//! through miniature *ghost* simulations of every catalog policy
//! ([`crate::policy_catalog`]), each honoring a proportional share of
//! the live budget `B`, and answers three questions online:
//!
//! * **counterfactual hit ratio** — what fraction of requests would
//!   policy *p* have served from cache on this exact workload?
//! * **regret** — how many objects did the live policy miss that ghost
//!   *p* would have hit (and vice versa)?
//! * **eviction audit** — when the live policy evicted, which victim
//!   would each alternative policy have picked, and did they agree?
//!
//! # Metadata only
//!
//! Ghosts are [`CacheManager`]s like the live one — and the cache tier
//! stores *descriptors* (ids, sizes, timestamps, subscriber sets),
//! never payload bytes, so a full ghost fleet costs a small constant
//! factor in descriptor memory and zero payload copies.
//!
//! # Sampling
//!
//! `shadow_sample_every_n = n` spatially samples backend subscriptions:
//! a stream is shadowed iff `mix64(bs ^ SALT) % n == 0`, so roughly
//! `1/n` of streams pay ghost updates and the rest skip the evaluator
//! entirely (one hash per access). The hash is salted so sampling does
//! not correlate with [`crate::ShardedCacheManager`]'s shard routing,
//! which uses the same mixer unsalted. Ghost budgets are scaled to
//! `B/n` to match the sampled fraction of the load. `n = 1` shadows
//! everything at full budget — the exact mode the parity tests use.
//!
//! Eviction audits are sampled on the same `n` (every n-th live
//! eviction), bounding the `O(policies × caches)` victim rescans.

use std::collections::{BTreeMap, VecDeque};

use bad_telemetry::json::ObjectWriter;
use bad_telemetry::{Counter, Histogram, Registry};
use bad_types::ids::mix64;
use bad_types::{BackendSubId, ByteSize, ObjectId, SubscriberId, TimeRange, Timestamp};

use crate::manager::{CacheConfig, CacheManager};
use crate::metrics::CacheMetrics;
use crate::object::{CachedObject, NewObject};
use crate::policy::{policy_catalog, EvictionPolicy, PolicyKind, PolicyName};
use crate::result_cache::{GetPlan, ResultCache};

/// Decorrelates the sampling hash from the shard-routing hash, which
/// uses the same mixer on the raw id.
const SAMPLE_SALT: u64 = 0x51AD_0077_C0FF_EE11;

/// Tuning knobs of the shadow evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowConfig {
    /// Shadow one in `n` backend subscriptions (and audit one in `n`
    /// evictions). `1` shadows everything; `0` is treated as `1`.
    pub sample_every_n: u32,
    /// Bounded capacity of the eviction-decision audit ring; the oldest
    /// record is overwritten when full ([`ShadowSnapshot::audit_dropped`]
    /// counts the overwrites).
    pub audit_capacity: usize,
}

impl Default for ShadowConfig {
    /// Defaults chosen for production overhead: the catalog holds seven
    /// policies, so every sampled access costs ~7 ghost updates and the
    /// sampling rate must satisfy `7/n ≤ 0.1` to keep the ghost fleet
    /// under the 10 % overhead gate (`shadow_overhead --smoke`).
    fn default() -> Self {
        Self {
            sample_every_n: 128,
            audit_capacity: 128,
        }
    }
}

/// Registry handles for one ghost's `bad_cache_shadow_*` series, all
/// labeled `{policy="..."}`.
#[derive(Debug)]
struct GhostSeries {
    hit_objects: Counter,
    hit_bytes: Counter,
    miss_objects: Counter,
    miss_bytes: Counter,
    regret_live_hit_ghost_miss: Counter,
    regret_ghost_hit_live_miss: Counter,
    victim_score_milli: Histogram,
}

impl GhostSeries {
    fn new(registry: &Registry, policy: PolicyName) -> Self {
        let labels = [("policy", policy.as_str())];
        Self {
            hit_objects: registry.counter_with("bad_cache_shadow_hit_objects_total", &labels),
            hit_bytes: registry.counter_with("bad_cache_shadow_hit_bytes_total", &labels),
            miss_objects: registry.counter_with("bad_cache_shadow_miss_objects_total", &labels),
            miss_bytes: registry.counter_with("bad_cache_shadow_miss_bytes_total", &labels),
            regret_live_hit_ghost_miss: registry
                .counter_with("bad_cache_shadow_regret_live_hit_ghost_miss_total", &labels),
            regret_ghost_hit_live_miss: registry
                .counter_with("bad_cache_shadow_regret_ghost_hit_live_miss_total", &labels),
            victim_score_milli: registry
                .histogram_with("bad_cache_shadow_victim_score_milli", &labels),
        }
    }
}

/// One miniature policy simulation.
#[derive(Debug)]
struct Ghost {
    policy: PolicyName,
    mgr: CacheManager,
    regret_live_hit_ghost_miss: u64,
    regret_ghost_hit_live_miss: u64,
    /// Per-stream hit credit: objects/bytes this ghost served from its
    /// cache that the live cache missed. The broker fetches those
    /// misses from the cluster and reports them via
    /// `record_miss_fetch`; the banked credit is consumed there so the
    /// counterfactual ghost is not charged for fetches it would have
    /// avoided.
    credit: BTreeMap<BackendSubId, (u64, u64)>,
    series: Option<GhostSeries>,
}

/// What one alternative policy would have evicted (see
/// [`AuditRecord::alternatives`]). Only eviction-kind policies appear;
/// TTL and NC never pick victims.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditChoice {
    /// The alternative policy.
    pub policy: PolicyName,
    /// The victim cache it would have picked (`None` when every cache
    /// was empty at decision time).
    pub victim: Option<BackendSubId>,
    /// Its φ/s score of that victim — the quantity it minimised.
    pub score: f64,
    /// Whether it agrees with the live policy's choice.
    pub agrees: bool,
}

/// One audited live eviction with every alternative's counterfactual
/// choice.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Virtual time of the eviction.
    pub at: Timestamp,
    /// The policy that made the call.
    pub live_policy: PolicyName,
    /// The cache the live policy evicted from.
    pub victim: BackendSubId,
    /// The evicted object.
    pub object: ObjectId,
    /// Its size.
    pub bytes: ByteSize,
    /// The live policy's φ/s score of the victim cache.
    pub score: f64,
    /// What each other eviction policy would have picked instead.
    pub alternatives: Vec<AuditChoice>,
}

/// Per-policy counterfactual counters, merged across shards at read
/// time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostCounters {
    /// Objects the ghost would have served from cache.
    pub hit_objects: u64,
    /// Bytes the ghost would have served from cache.
    pub hit_bytes: u64,
    /// Objects the ghost would have fetched from the cluster.
    pub miss_objects: u64,
    /// Bytes the ghost would have fetched from the cluster.
    pub miss_bytes: u64,
    /// Objects the live policy hit that this ghost missed.
    pub regret_live_hit_ghost_miss: u64,
    /// Objects this ghost hit that the live policy missed.
    pub regret_ghost_hit_live_miss: u64,
    /// Objects the ghost evicted.
    pub evicted_objects: u64,
    /// Objects the ghost expired.
    pub expired_objects: u64,
    /// The ghost's current occupancy.
    pub occupancy_bytes: u64,
}

impl GhostCounters {
    /// Counterfactual hit ratio in `[0, 1]`; `None` before any request.
    pub fn hit_ratio(&self) -> Option<f64> {
        let requested = self.hit_objects + self.miss_objects;
        if requested == 0 {
            None
        } else {
            Some(self.hit_objects as f64 / requested as f64)
        }
    }

    /// Adds another shard's counters into this one.
    pub fn merge(&mut self, other: &GhostCounters) {
        self.hit_objects += other.hit_objects;
        self.hit_bytes += other.hit_bytes;
        self.miss_objects += other.miss_objects;
        self.miss_bytes += other.miss_bytes;
        self.regret_live_hit_ghost_miss += other.regret_live_hit_ghost_miss;
        self.regret_ghost_hit_live_miss += other.regret_ghost_hit_live_miss;
        self.evicted_objects += other.evicted_objects;
        self.expired_objects += other.expired_objects;
        self.occupancy_bytes += other.occupancy_bytes;
    }
}

/// One ghost's identity and counters in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct GhostReport {
    /// The ghost's policy.
    pub policy: PolicyName,
    /// Its counterfactual counters.
    pub counters: GhostCounters,
}

/// A point-in-time view of the whole evaluator (or, merged, of every
/// shard's evaluator).
#[derive(Clone, Debug, PartialEq)]
pub struct ShadowSnapshot {
    /// The policy the real cache runs.
    pub live_policy: PolicyName,
    /// The sampling rate in force (normalised: never 0).
    pub sample_every_n: u32,
    /// Accesses (retrieval plans + inserts) that updated the ghosts.
    pub sampled_accesses: u64,
    /// Accesses that skipped the ghosts entirely.
    pub skipped_accesses: u64,
    /// Per-policy reports, in catalog order.
    pub ghosts: Vec<GhostReport>,
    /// The audit ring's contents, oldest first (merged snapshots sort
    /// by eviction time).
    pub audit: Vec<AuditRecord>,
    /// Audit records overwritten because the ring was full.
    pub audit_dropped: u64,
}

impl ShadowSnapshot {
    /// Folds another shard's snapshot into this one.
    pub fn merge(&mut self, other: &ShadowSnapshot) {
        self.sampled_accesses += other.sampled_accesses;
        self.skipped_accesses += other.skipped_accesses;
        self.audit_dropped += other.audit_dropped;
        for report in &other.ghosts {
            match self.ghosts.iter_mut().find(|g| g.policy == report.policy) {
                Some(mine) => mine.counters.merge(&report.counters),
                None => self.ghosts.push(report.clone()),
            }
        }
        self.audit.extend(other.audit.iter().cloned());
        self.audit.sort_by_key(|r| r.at);
    }

    /// The report for one policy, if present.
    pub fn ghost(&self, policy: PolicyName) -> Option<&GhostReport> {
        self.ghosts.iter().find(|g| g.policy == policy)
    }

    /// The ghost with the highest counterfactual hit ratio (first in
    /// catalog order on ties); `None` before any request.
    pub fn best_policy(&self) -> Option<PolicyName> {
        let mut best: Option<(f64, PolicyName)> = None;
        for g in &self.ghosts {
            let Some(ratio) = g.counters.hit_ratio() else {
                continue;
            };
            let better = match best {
                Some((r, _)) => ratio > r,
                None => true,
            };
            if better {
                best = Some((ratio, g.policy));
            }
        }
        best.map(|(_, p)| p)
    }

    /// Renders the `/policies` JSON body: live vs. ghost hit ratios,
    /// cumulative regret, the current best policy and the most recent
    /// audited evictions.
    pub fn to_json(&self, live: &CacheMetrics) -> String {
        let mut out = String::new();
        {
            let mut obj = ObjectWriter::new(&mut out);
            obj.field_str("live_policy", self.live_policy.as_str());
            obj.field_u64("sample_every_n", u64::from(self.sample_every_n));
            obj.field_u64("sampled_accesses", self.sampled_accesses);
            obj.field_u64("skipped_accesses", self.skipped_accesses);
            match self.best_policy() {
                Some(p) => obj.field_str("best_policy", p.as_str()),
                None => obj.field_raw("best_policy", "null"),
            }
            let mut live_json = String::new();
            {
                let mut lw = ObjectWriter::new(&mut live_json);
                lw.field_u64("hit_objects", live.hit_objects);
                lw.field_u64("miss_objects", live.miss_objects);
                lw.field_u64("hit_bytes", live.hit_bytes.as_u64());
                lw.field_u64("miss_bytes", live.miss_bytes.as_u64());
                match live.hit_ratio() {
                    Some(r) => lw.field_f64("hit_ratio", r),
                    None => lw.field_raw("hit_ratio", "null"),
                }
            }
            obj.field_raw("live", &live_json);
            let ghost_rows: Vec<String> = self
                .ghosts
                .iter()
                .map(|g| {
                    let mut row = String::new();
                    {
                        let mut gw = ObjectWriter::new(&mut row);
                        gw.field_str("policy", g.policy.as_str());
                        gw.field_u64("hit_objects", g.counters.hit_objects);
                        gw.field_u64("miss_objects", g.counters.miss_objects);
                        gw.field_u64("hit_bytes", g.counters.hit_bytes);
                        gw.field_u64("miss_bytes", g.counters.miss_bytes);
                        match g.counters.hit_ratio() {
                            Some(r) => gw.field_f64("hit_ratio", r),
                            None => gw.field_raw("hit_ratio", "null"),
                        }
                        gw.field_u64(
                            "regret_live_hit_ghost_miss",
                            g.counters.regret_live_hit_ghost_miss,
                        );
                        gw.field_u64(
                            "regret_ghost_hit_live_miss",
                            g.counters.regret_ghost_hit_live_miss,
                        );
                        gw.field_u64("evicted_objects", g.counters.evicted_objects);
                        gw.field_u64("expired_objects", g.counters.expired_objects);
                        gw.field_u64("occupancy_bytes", g.counters.occupancy_bytes);
                    }
                    row
                })
                .collect();
            obj.field_raw("ghosts", &format!("[{}]", ghost_rows.join(",")));
            obj.field_u64("audit_dropped", self.audit_dropped);
            obj.field_u64("audit_len", self.audit.len() as u64);
            // The most recent audits only: the ring can hold hundreds.
            let audit_rows: Vec<String> = self
                .audit
                .iter()
                .rev()
                .take(16)
                .map(|r| {
                    let mut row = String::new();
                    {
                        let mut aw = ObjectWriter::new(&mut row);
                        aw.field_u64("at_us", r.at.as_micros());
                        aw.field_str("live_policy", r.live_policy.as_str());
                        aw.field_u64("victim_cache", r.victim.as_u64());
                        aw.field_u64("object", r.object.as_u64());
                        aw.field_u64("bytes", r.bytes.as_u64());
                        aw.field_f64("score", r.score);
                        let alts: Vec<String> = r
                            .alternatives
                            .iter()
                            .map(|alt| {
                                let mut a = String::new();
                                {
                                    let mut w = ObjectWriter::new(&mut a);
                                    w.field_str("policy", alt.policy.as_str());
                                    match alt.victim {
                                        Some(v) => w.field_u64("victim_cache", v.as_u64()),
                                        None => w.field_raw("victim_cache", "null"),
                                    }
                                    w.field_f64("score", alt.score);
                                    w.field_raw(
                                        "agrees",
                                        if alt.agrees { "true" } else { "false" },
                                    );
                                }
                                a
                            })
                            .collect();
                        aw.field_raw("alternatives", &format!("[{}]", alts.join(",")));
                    }
                    row
                })
                .collect();
            obj.field_raw("audit_recent", &format!("[{}]", audit_rows.join(",")));
        }
        out
    }
}

/// The metadata-only ghost-cache evaluator. Owned by a
/// [`CacheManager`]; every live mutation calls the matching `on_*`
/// hook (see the [module docs](self)).
#[derive(Debug)]
pub struct ShadowEvaluator {
    live_policy: PolicyName,
    config: ShadowConfig,
    ghosts: Vec<Ghost>,
    /// Stateless scorers for the eviction audit, one per non-live
    /// eviction-kind policy.
    scorers: Vec<(PolicyName, Box<dyn EvictionPolicy>)>,
    sampled_accesses: u64,
    skipped_accesses: u64,
    sampled_counter: Option<Counter>,
    skipped_counter: Option<Counter>,
    audit: VecDeque<AuditRecord>,
    audit_dropped: u64,
    evictions_seen: u64,
    pending_audit: Option<Vec<AuditChoice>>,
    /// Whether a ghost may be over its budget. Ghosts self-enforce on
    /// their own inserts, so this is only raised by a budget change —
    /// letting the per-insert [`ShadowEvaluator::on_enforce_budget`]
    /// call skip the whole ghost fleet on the hot path.
    budget_dirty: bool,
}

impl ShadowEvaluator {
    /// Creates an evaluator mirroring a live manager running
    /// `live_policy` under `live_config`. Each ghost gets the same
    /// configuration with a `B / n` budget (matching the sampled
    /// fraction of the load).
    pub fn new(live_policy: PolicyName, live_config: CacheConfig, config: ShadowConfig) -> Self {
        let ghost_config = CacheConfig {
            budget: Self::ghost_budget(live_config.budget, config),
            ..live_config
        };
        let ghosts = policy_catalog()
            .into_iter()
            .map(|info| Ghost {
                policy: info.name,
                mgr: CacheManager::new(info.name, ghost_config),
                regret_live_hit_ghost_miss: 0,
                regret_ghost_hit_live_miss: 0,
                credit: BTreeMap::new(),
                series: None,
            })
            .collect();
        let scorers = PolicyName::ALL
            .iter()
            .filter(|&&p| p != live_policy)
            .map(|&p| (p, p.build()))
            .filter(|(_, policy)| policy.kind() == PolicyKind::Eviction)
            .collect();
        Self {
            live_policy,
            config,
            ghosts,
            scorers,
            sampled_accesses: 0,
            skipped_accesses: 0,
            sampled_counter: None,
            skipped_counter: None,
            audit: VecDeque::new(),
            audit_dropped: 0,
            evictions_seen: 0,
            pending_audit: None,
            budget_dirty: false,
        }
    }

    fn ghost_budget(live_budget: ByteSize, config: ShadowConfig) -> ByteSize {
        let n = u64::from(config.sample_every_n.max(1));
        ByteSize::new((live_budget.as_u64() / n).max(1))
    }

    /// The configuration in force.
    pub fn config(&self) -> ShadowConfig {
        self.config
    }

    /// The live policy the ghosts are compared against.
    pub fn live_policy(&self) -> PolicyName {
        self.live_policy
    }

    /// Whether `bs` is in the sampled subset.
    pub fn sampled(&self, bs: BackendSubId) -> bool {
        let n = u64::from(self.config.sample_every_n.max(1));
        n == 1 || mix64(bs.as_u64() ^ SAMPLE_SALT).is_multiple_of(n)
    }

    /// Registers the `bad_cache_shadow_*` series on `registry`. Call
    /// before traffic: counters are not backfilled.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        for ghost in &mut self.ghosts {
            ghost.series = Some(GhostSeries::new(registry, ghost.policy));
        }
        self.sampled_counter = Some(registry.counter("bad_cache_shadow_sampled_accesses_total"));
        self.skipped_counter = Some(registry.counter("bad_cache_shadow_skipped_accesses_total"));
    }

    /// Seeds the ghosts with caches/subscribers that already existed
    /// when shadowing was enabled (their cached objects cannot be
    /// replayed; the ghosts start cold).
    pub(crate) fn seed(&mut self, caches: &BTreeMap<BackendSubId, ResultCache>, now: Timestamp) {
        for (&bs, cache) in caches {
            if !self.sampled(bs) {
                continue;
            }
            for ghost in &mut self.ghosts {
                ghost.mgr.create_cache(bs, now);
                for sub in cache.subscribers() {
                    let _ = ghost.mgr.add_subscriber(bs, sub);
                }
            }
        }
    }

    fn note_access(&mut self, sampled: bool) {
        if sampled {
            self.sampled_accesses += 1;
            if let Some(c) = &self.sampled_counter {
                c.inc();
            }
        } else {
            self.skipped_accesses += 1;
            if let Some(c) = &self.skipped_counter {
                c.inc();
            }
        }
    }

    pub(crate) fn on_create_cache(&mut self, bs: BackendSubId, now: Timestamp) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            ghost.mgr.create_cache(bs, now);
        }
    }

    pub(crate) fn on_remove_cache(&mut self, bs: BackendSubId, now: Timestamp) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            let _ = ghost.mgr.remove_cache(bs, now);
            ghost.credit.remove(&bs);
        }
    }

    pub(crate) fn on_add_subscriber(&mut self, bs: BackendSubId, sub: SubscriberId) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            let _ = ghost.mgr.add_subscriber(bs, sub);
        }
    }

    pub(crate) fn on_remove_subscriber(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            let _ = ghost.mgr.remove_subscriber(bs, sub, now);
        }
    }

    pub(crate) fn on_insert(&mut self, bs: BackendSubId, desc: NewObject, now: Timestamp) {
        let sampled = self.sampled(bs);
        self.note_access(sampled);
        if !sampled {
            return;
        }
        for ghost in &mut self.ghosts {
            // Ghosts apply their own NC short-circuit.
            let _ = ghost.mgr.insert(bs, desc, now);
        }
    }

    /// Replays a retrieval plan. The ghost's own `plan_get` records its
    /// counterfactual hits; diffing the plans yields the two regret
    /// directions and the ghost-side misses the live plan reveals.
    pub(crate) fn on_plan_get(
        &mut self,
        bs: BackendSubId,
        range: TimeRange,
        live_plan: &GetPlan,
        now: Timestamp,
    ) {
        let sampled = self.sampled(bs);
        self.note_access(sampled);
        if !sampled {
            return;
        }
        for ghost in &mut self.ghosts {
            let ghost_plan = ghost.mgr.plan_get(bs, range, now);
            if let Some(series) = &ghost.series {
                series.hit_objects.add(ghost_plan.cached.len() as u64);
                series.hit_bytes.add(ghost_plan.cached_bytes.as_u64());
            }
            let (live_only, ghost_only) = diff_plans(&live_plan.cached, &ghost_plan.cached);
            if live_only.0 > 0 || live_only.1 > 0 {
                // Live hits the ghost missed: the counterfactual broker
                // would have fetched these from the cluster right now.
                ghost
                    .mgr
                    .record_miss_fetch(bs, live_only.0, ByteSize::new(live_only.1), now);
                ghost.regret_live_hit_ghost_miss += live_only.0;
                if let Some(series) = &ghost.series {
                    series.miss_objects.add(live_only.0);
                    series.miss_bytes.add(live_only.1);
                    series.regret_live_hit_ghost_miss.add(live_only.0);
                }
            }
            if ghost_only.0 > 0 || ghost_only.1 > 0 {
                // Ghost hits the live cache missed: the real broker
                // will fetch them and call `record_miss_fetch`; bank a
                // credit so the ghost is not charged for that fetch.
                let entry = ghost.credit.entry(bs).or_insert((0, 0));
                entry.0 += ghost_only.0;
                entry.1 += ghost_only.1;
                ghost.regret_ghost_hit_live_miss += ghost_only.0;
                if let Some(series) = &ghost.series {
                    series.regret_ghost_hit_live_miss.add(ghost_only.0);
                }
            }
        }
    }

    pub(crate) fn on_record_miss_fetch(
        &mut self,
        bs: BackendSubId,
        objects: u64,
        bytes: ByteSize,
        now: Timestamp,
    ) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            let (mut o, mut b) = (objects, bytes.as_u64());
            if let Some(credit) = ghost.credit.get_mut(&bs) {
                let co = credit.0.min(o);
                let cb = credit.1.min(b);
                credit.0 -= co;
                credit.1 -= cb;
                o -= co;
                b -= cb;
                if credit.0 == 0 && credit.1 == 0 {
                    ghost.credit.remove(&bs);
                }
            }
            if o > 0 || b > 0 {
                ghost.mgr.record_miss_fetch(bs, o, ByteSize::new(b), now);
                if let Some(series) = &ghost.series {
                    series.miss_objects.add(o);
                    series.miss_bytes.add(b);
                }
            }
        }
    }

    pub(crate) fn on_ack_consume(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) {
        if !self.sampled(bs) {
            return;
        }
        for ghost in &mut self.ghosts {
            let _ = ghost.mgr.ack_consume(bs, sub, up_to, now);
        }
    }

    pub(crate) fn on_maintain(&mut self, now: Timestamp) {
        for ghost in &mut self.ghosts {
            ghost.mgr.maintain(now);
        }
    }

    pub(crate) fn on_set_budget(&mut self, budget: ByteSize) {
        let share = Self::ghost_budget(budget, self.config);
        for ghost in &mut self.ghosts {
            ghost.mgr.set_budget(share);
        }
        self.budget_dirty = true;
    }

    pub(crate) fn on_enforce_budget(&mut self, now: Timestamp) {
        // Fires on every live insert; the ghosts already settled under
        // their budgets during their own inserts, so there is nothing
        // to do unless a budget change left one over its share.
        if !self.budget_dirty {
            return;
        }
        self.budget_dirty = false;
        for ghost in &mut self.ghosts {
            ghost.mgr.enforce_budget(now);
        }
    }

    /// Called before the live policy drops its chosen victim: every
    /// sampled eviction rescans the live caches with each alternative
    /// scorer and stashes their choices for [`Self::record_audit`].
    pub(crate) fn pre_evict_audit(
        &mut self,
        caches: &BTreeMap<BackendSubId, ResultCache>,
        now: Timestamp,
    ) {
        self.evictions_seen += 1;
        let n = u64::from(self.config.sample_every_n.max(1));
        if !(self.evictions_seen - 1).is_multiple_of(n) {
            self.pending_audit = None;
            return;
        }
        let mut alternatives = Vec::with_capacity(self.scorers.len());
        for (policy, scorer) in &self.scorers {
            // Replicates `CacheManager::linear_victim`, tie-break
            // included, with the alternative policy's score.
            let choice = caches
                .values()
                .filter(|c| !c.is_empty())
                .map(|c| (scorer.score(c, now), c.id()))
                .min_by(|(a, ia), (b, ib)| a.total_cmp(b).then(ia.cmp(ib)));
            let (score, victim) = match choice {
                Some((s, v)) => (s, Some(v)),
                None => (0.0, None),
            };
            if victim.is_some() {
                if let Some(series) = self
                    .ghosts
                    .iter()
                    .find(|g| g.policy == *policy)
                    .and_then(|g| g.series.as_ref())
                {
                    series.victim_score_milli.record(score_milli(score));
                }
            }
            alternatives.push(AuditChoice {
                policy: *policy,
                victim,
                score,
                agrees: false,
            });
        }
        self.pending_audit = Some(alternatives);
    }

    /// Called after the live policy's drop succeeded; pushes the audit
    /// record assembled by [`Self::pre_evict_audit`] into the ring.
    pub(crate) fn record_audit(
        &mut self,
        victim: BackendSubId,
        object: &CachedObject,
        score: f64,
        at: Timestamp,
    ) {
        let Some(mut alternatives) = self.pending_audit.take() else {
            return;
        };
        for alt in &mut alternatives {
            alt.agrees = alt.victim == Some(victim);
        }
        if let Some(series) = self
            .ghosts
            .iter()
            .find(|g| g.policy == self.live_policy)
            .and_then(|g| g.series.as_ref())
        {
            series.victim_score_milli.record(score_milli(score));
        }
        if self.audit.len() >= self.config.audit_capacity.max(1) {
            self.audit.pop_front();
            self.audit_dropped += 1;
        }
        self.audit.push_back(AuditRecord {
            at,
            live_policy: self.live_policy,
            victim,
            object: object.id,
            bytes: object.size,
            score,
            alternatives,
        });
    }

    /// A point-in-time snapshot of every ghost, the access sampling
    /// counters and the audit ring.
    pub fn snapshot(&self) -> ShadowSnapshot {
        let ghosts = self
            .ghosts
            .iter()
            .map(|g| {
                let m = g.mgr.metrics();
                GhostReport {
                    policy: g.policy,
                    counters: GhostCounters {
                        hit_objects: m.hit_objects,
                        hit_bytes: m.hit_bytes.as_u64(),
                        miss_objects: m.miss_objects,
                        miss_bytes: m.miss_bytes.as_u64(),
                        regret_live_hit_ghost_miss: g.regret_live_hit_ghost_miss,
                        regret_ghost_hit_live_miss: g.regret_ghost_hit_live_miss,
                        evicted_objects: m.evicted_objects,
                        expired_objects: m.expired_objects,
                        occupancy_bytes: g.mgr.total_bytes().as_u64(),
                    },
                }
            })
            .collect();
        ShadowSnapshot {
            live_policy: self.live_policy,
            sample_every_n: self.config.sample_every_n.max(1),
            sampled_accesses: self.sampled_accesses,
            skipped_accesses: self.skipped_accesses,
            ghosts,
            audit: self.audit.iter().cloned().collect(),
            audit_dropped: self.audit_dropped,
        }
    }

    /// The ghost manager's metrics for one policy — exposed so parity
    /// tests can compare a ghost's full hit/miss accounting with the
    /// live manager's.
    pub fn ghost_metrics(&self, policy: PolicyName) -> Option<&CacheMetrics> {
        self.ghosts
            .iter()
            .find(|g| g.policy == policy)
            .map(|g| g.mgr.metrics())
    }
}

/// Clamped milli fixed-point conversion for the victim-score
/// histograms (`Histogram::record` takes integers).
fn score_milli(score: f64) -> u64 {
    if !score.is_finite() || score <= 0.0 {
        return 0;
    }
    let milli = score * 1000.0;
    if milli >= u64::MAX as f64 {
        u64::MAX
    } else {
        milli as u64
    }
}

/// Two-pointer diff of two retrieval plans over the same range, both
/// in `(ts, id)` order. Returns `((objects, bytes)` present only in
/// `live`, `(objects, bytes)` present only in `ghost)`.
fn diff_plans(
    live: &[(ObjectId, Timestamp, ByteSize)],
    ghost: &[(ObjectId, Timestamp, ByteSize)],
) -> ((u64, u64), (u64, u64)) {
    use std::cmp::Ordering;
    let (mut li, mut gi) = (0usize, 0usize);
    let mut live_only = (0u64, 0u64);
    let mut ghost_only = (0u64, 0u64);
    while li < live.len() && gi < ghost.len() {
        let lk = (live[li].1, live[li].0);
        let gk = (ghost[gi].1, ghost[gi].0);
        match lk.cmp(&gk) {
            Ordering::Equal => {
                li += 1;
                gi += 1;
            }
            Ordering::Less => {
                live_only.0 += 1;
                live_only.1 += live[li].2.as_u64();
                li += 1;
            }
            Ordering::Greater => {
                ghost_only.0 += 1;
                ghost_only.1 += ghost[gi].2.as_u64();
                gi += 1;
            }
        }
    }
    for &(_, _, size) in &live[li..] {
        live_only.0 += 1;
        live_only.1 += size.as_u64();
    }
    for &(_, _, size) in &ghost[gi..] {
        ghost_only.0 += 1;
        ghost_only.1 += size.as_u64();
    }
    (live_only, ghost_only)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, ts: u64, size: u64) -> (ObjectId, Timestamp, ByteSize) {
        (
            ObjectId::new(id),
            Timestamp::from_secs(ts),
            ByteSize::new(size),
        )
    }

    #[test]
    fn diff_counts_both_directions() {
        let live = [entry(1, 1, 10), entry(2, 2, 20), entry(4, 4, 40)];
        let ghost = [entry(2, 2, 20), entry(3, 3, 30), entry(4, 4, 40)];
        let (live_only, ghost_only) = diff_plans(&live, &ghost);
        assert_eq!(live_only, (1, 10));
        assert_eq!(ghost_only, (1, 30));
    }

    #[test]
    fn diff_of_identical_plans_is_empty() {
        let plan = [entry(1, 1, 10), entry(2, 2, 20)];
        assert_eq!(diff_plans(&plan, &plan), ((0, 0), (0, 0)));
    }

    #[test]
    fn diff_handles_disjoint_tails() {
        let live = [entry(1, 1, 10)];
        let ghost = [entry(2, 2, 20), entry(3, 3, 30)];
        let (live_only, ghost_only) = diff_plans(&live, &ghost);
        assert_eq!(live_only, (1, 10));
        assert_eq!(ghost_only, (2, 50));
    }

    #[test]
    fn sample_every_one_shadows_everything() {
        let sh = ShadowEvaluator::new(
            PolicyName::Lru,
            CacheConfig::default(),
            ShadowConfig {
                sample_every_n: 1,
                audit_capacity: 4,
            },
        );
        for i in 0..256 {
            assert!(sh.sampled(BackendSubId::new(i)));
        }
    }

    #[test]
    fn sampling_is_a_rough_fraction_and_decorrelated_from_shards() {
        let sh = ShadowEvaluator::new(
            PolicyName::Lru,
            CacheConfig::default(),
            ShadowConfig {
                sample_every_n: 8,
                audit_capacity: 4,
            },
        );
        let total = 4096u64;
        let sampled = (0..total)
            .filter(|&i| sh.sampled(BackendSubId::new(i)))
            .count();
        // Roughly 1/8 of streams, with generous slack.
        assert!((total as usize / 16..total as usize / 4).contains(&sampled));
        // Salted hash: sampled streams land on every shard of a
        // 4-shard tier, not just shard 0.
        let mut shards_hit = std::collections::BTreeSet::new();
        for i in 0..total {
            if sh.sampled(BackendSubId::new(i)) {
                shards_hit.insert(mix64(i) % 4);
            }
        }
        assert_eq!(shards_hit.len(), 4);
    }

    #[test]
    fn ghost_budget_scales_with_sampling() {
        let config = ShadowConfig {
            sample_every_n: 8,
            audit_capacity: 4,
        };
        assert_eq!(
            ShadowEvaluator::ghost_budget(ByteSize::new(800), config),
            ByteSize::new(100)
        );
        let full = ShadowConfig {
            sample_every_n: 1,
            audit_capacity: 4,
        };
        assert_eq!(
            ShadowEvaluator::ghost_budget(ByteSize::new(800), full),
            ByteSize::new(800)
        );
        // Never zero, so ghost eviction loops terminate.
        assert_eq!(
            ShadowEvaluator::ghost_budget(ByteSize::new(3), config),
            ByteSize::new(1)
        );
    }

    #[test]
    fn audit_ring_overwrites_oldest() {
        let mut sh = ShadowEvaluator::new(
            PolicyName::Lru,
            CacheConfig::default(),
            ShadowConfig {
                sample_every_n: 1,
                audit_capacity: 2,
            },
        );
        let caches = BTreeMap::new();
        let object = CachedObject {
            id: ObjectId::new(7),
            ts: Timestamp::from_secs(1),
            size: ByteSize::new(10),
            fetch_latency: bad_types::SimDuration::from_millis(500),
            cached_at: Timestamp::from_secs(1),
            frozen_expiry: Timestamp::MAX,
            pending: 0,
        };
        for i in 0..5u64 {
            sh.pre_evict_audit(&caches, Timestamp::from_secs(i));
            sh.record_audit(BackendSubId::new(1), &object, 1.0, Timestamp::from_secs(i));
        }
        let snap = sh.snapshot();
        assert_eq!(snap.audit.len(), 2);
        assert_eq!(snap.audit_dropped, 3);
        assert_eq!(snap.audit[0].at, Timestamp::from_secs(3));
        assert_eq!(snap.audit[1].at, Timestamp::from_secs(4));
    }

    #[test]
    fn snapshot_merge_sums_and_best_policy_prefers_higher_ratio() {
        let sh = ShadowEvaluator::new(
            PolicyName::Lru,
            CacheConfig::default(),
            ShadowConfig::default(),
        );
        let mut a = sh.snapshot();
        let mut b = sh.snapshot();
        assert_eq!(a.best_policy(), None);
        // Fake counters: LSC hits 3/4 in shard A, 1/4 in shard B; LRU
        // hits 1/2 in shard A only.
        a.ghosts
            .iter_mut()
            .find(|g| g.policy == PolicyName::Lsc)
            .unwrap()
            .counters = GhostCounters {
            hit_objects: 3,
            miss_objects: 1,
            ..GhostCounters::default()
        };
        a.ghosts
            .iter_mut()
            .find(|g| g.policy == PolicyName::Lru)
            .unwrap()
            .counters = GhostCounters {
            hit_objects: 1,
            miss_objects: 1,
            ..GhostCounters::default()
        };
        b.ghosts
            .iter_mut()
            .find(|g| g.policy == PolicyName::Lsc)
            .unwrap()
            .counters = GhostCounters {
            hit_objects: 1,
            miss_objects: 3,
            ..GhostCounters::default()
        };
        a.sampled_accesses = 10;
        b.sampled_accesses = 4;
        b.skipped_accesses = 2;
        a.merge(&b);
        assert_eq!(a.sampled_accesses, 14);
        assert_eq!(a.skipped_accesses, 2);
        let lsc = a.ghost(PolicyName::Lsc).unwrap();
        assert_eq!(lsc.counters.hit_objects, 4);
        assert_eq!(lsc.counters.miss_objects, 4);
        // LSC merged ratio 1/2 ties LRU's 1/2; catalog order puts LSCz
        // first but it has no requests, and LSC precedes LRU.
        assert_eq!(a.best_policy(), Some(PolicyName::Lsc));
    }

    #[test]
    fn to_json_renders_all_sections() {
        let sh = ShadowEvaluator::new(
            PolicyName::Lru,
            CacheConfig::default(),
            ShadowConfig::default(),
        );
        let live = CacheMetrics::new(Timestamp::ZERO);
        let json = sh.snapshot().to_json(&live);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"live_policy\":\"LRU\""));
        assert!(json.contains("\"best_policy\":null"));
        assert!(json.contains("\"ghosts\":["));
        assert!(json.contains("\"policy\":\"LSCz\""));
        assert!(json.contains("\"audit_recent\":[]"));
    }

    #[test]
    fn score_milli_clamps() {
        assert_eq!(score_milli(f64::INFINITY), 0);
        assert_eq!(score_milli(f64::NAN), 0);
        assert_eq!(score_milli(-3.0), 0);
        assert_eq!(score_milli(1.5), 1500);
        assert_eq!(score_milli(f64::MAX), u64::MAX);
    }
}
