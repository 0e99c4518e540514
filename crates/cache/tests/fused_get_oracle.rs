//! Parity oracle for the fused retrieval: a manager driven with
//! `get_and_ack` and one driven with `plan_get` then `ack_consume` must
//! agree after every step of a generated tape — on the plan, on the
//! drops of the step, on `metrics()`, `total_bytes()`, every cache's
//! contents and the victim the policy would evict next — under every
//! policy, with a budget that evicts and one that never does, with
//! sketches on, and monolith against `shards = 1`.
//!
//! The split side reports its miss fetch *between* the plan and the
//! ack, which is where `Broker::get_results` used to do it; the fused
//! side can only report it afterwards. Agreement at every step is the
//! evidence that the miss report reads no cache state the ack writes.

mod common;

use bad_cache::{CacheConfig, CacheManager, GetPlan, PolicyName, ResultCache, ShardedCacheManager};
use bad_telemetry::SketchConfig;
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};
use common::{gen_ops, Driver, Op, Replay, Tape};

const SEEDS: u64 = 32;
const STEPS: usize = 1_000;
const CACHES: u64 = 4;
const SUBS: u64 = 8;
/// Evicts (or, under TTL, overshoots and expires) throughout the tape.
const TIGHT: u64 = 40_000;
/// Never evicts: objects leave by consumption and churn only.
const AMPLE: u64 = 100_000_000;
/// Steps between comparisons of the caches' `Debug` renderings, which
/// show every field — the subscriber cursors among them.
const FULL_STATE_EVERY: usize = 32;

fn config(budget: u64) -> CacheConfig {
    CacheConfig {
        budget: ByteSize::new(budget),
        ttl_recompute_interval: SimDuration::from_secs(30),
        ..CacheConfig::default()
    }
}

/// How a side issues its retrievals.
#[derive(Clone, Copy, Debug)]
enum Retrieval {
    Fused,
    Split,
}

/// What the public API shows of one cache, cheap enough for every step.
#[derive(Debug, PartialEq)]
struct CacheSummary {
    id: BackendSubId,
    bytes: ByteSize,
    coverage_from: Timestamp,
    last_access: Timestamp,
    ttl: SimDuration,
    subscribers: Vec<SubscriberId>,
    /// Resident objects, tail first, each with its pending count — the
    /// number of cursors at or before it.
    objects: Vec<(ObjectId, u32)>,
}

/// Read access to a manager's caches and victim choice.
trait Inspect: Driver {
    fn visit_caches(&self, f: impl FnMut(&ResultCache));
    /// `None` where the manager does not expose its victim.
    fn victim(&self, now: Timestamp) -> Option<Option<BackendSubId>>;
}

impl Inspect for CacheManager {
    fn visit_caches(&self, f: impl FnMut(&ResultCache)) {
        self.iter_caches().for_each(f);
    }
    fn victim(&self, now: Timestamp) -> Option<Option<BackendSubId>> {
        Some(self.choose_victim(now))
    }
}

impl Inspect for ShardedCacheManager {
    fn visit_caches(&self, f: impl FnMut(&ResultCache)) {
        self.for_each_cache(f);
    }
    fn victim(&self, _now: Timestamp) -> Option<Option<BackendSubId>> {
        None
    }
}

fn summaries(mgr: &impl Inspect) -> Vec<CacheSummary> {
    let mut out = Vec::new();
    mgr.visit_caches(|c| {
        out.push(CacheSummary {
            id: c.id(),
            bytes: c.total_bytes(),
            coverage_from: c.coverage_from(),
            last_access: c.last_access(),
            ttl: c.ttl(),
            subscribers: c.subscribers().collect(),
            objects: c.iter().map(|o| (o.id, o.pending)).collect(),
        });
    });
    out
}

fn full_state(mgr: &impl Inspect) -> Vec<String> {
    let mut out = Vec::new();
    mgr.visit_caches(|c| out.push(format!("{c:?}")));
    out
}

/// One manager under test with the harness state that goes with it.
struct Side<D> {
    mgr: D,
    how: Retrieval,
    tape: Tape,
}

impl<D: Driver> Side<D> {
    fn new(mut mgr: D, how: Retrieval) -> Self {
        let tape = Tape::start(&mut mgr, CACHES);
        Self { mgr, how, tape }
    }

    /// One retrieval of `range` by `sub`, acknowledged up to `up_to`.
    fn retrieve(
        &mut self,
        cache: u64,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
        log: &mut Replay,
    ) -> GetPlan {
        let bs = BackendSubId::new(cache);
        match self.how {
            Retrieval::Fused => {
                let (plan, dropped) = self.mgr.get_and_ack(bs, sub, range, up_to, now);
                log.dropped.extend(dropped);
                log.misses += self.tape.fetch_misses(&mut self.mgr, cache, &plan);
                plan
            }
            Retrieval::Split => {
                let plan = self.mgr.plan_get(bs, range, now);
                log.misses += self.tape.fetch_misses(&mut self.mgr, cache, &plan);
                if let Ok(dropped) = self.mgr.ack_consume(bs, sub, up_to, now) {
                    log.dropped.extend(dropped);
                }
                plan
            }
        }
    }
}

/// The retrieval a generated `Get` stands for. One in three has the
/// broker's shape — the cache's permanent subscriber takes everything
/// since its last retrieval and acknowledges all of it; the others are
/// an arbitrary window by a subscriber that may or may not be attached,
/// every fifth acknowledged only half way.
fn retrieval_of(
    cache: u64,
    from_sec: u64,
    len_sec: u64,
    now: Timestamp,
    fts: &mut [Timestamp],
) -> (SubscriberId, TimeRange, Timestamp) {
    if len_sec.is_multiple_of(3) {
        let since = std::mem::replace(&mut fts[cache as usize], now);
        let range = TimeRange::closed(since + SimDuration::from_micros(1), now);
        return (SubscriberId::new(1000 + cache), range, now);
    }
    // `from_sec` is drawn below 500 and the tape runs 1 000 seconds.
    let from = 2 * from_sec;
    let range = TimeRange::closed(
        Timestamp::from_secs(from),
        Timestamp::from_secs(from + len_sec),
    );
    let up_to = if len_sec.is_multiple_of(5) {
        from + len_sec / 2
    } else {
        from + len_sec
    };
    (
        SubscriberId::new(from_sec % SUBS),
        range,
        Timestamp::from_secs(up_to),
    )
}

/// Drives `a` and `b` through the tape of `seed` in lockstep and holds
/// them to agreement after every step. Returns the two managers and the
/// number of objects the retrievals' acks dropped.
fn assert_lockstep<A: Inspect, B: Inspect>(
    label: &str,
    seed: u64,
    mut a: Side<A>,
    mut b: Side<B>,
) -> (A, B, usize) {
    let ops = gen_ops(seed, STEPS, CACHES, SUBS);
    let mut fts = vec![Timestamp::ZERO; CACHES as usize];
    let mut retrievals = 0u64;
    let mut ack_drops = 0usize;
    for (step, &op) in ops.iter().enumerate() {
        let now = Timestamp::from_secs(step as u64 + 1);
        let at = format!("{label} seed {seed} step {step} {op:?}");
        let (mut log_a, mut log_b) = (Replay::default(), Replay::default());
        if let Op::Get {
            cache,
            from_sec,
            len_sec,
        } = op
        {
            let (sub, range, up_to) = retrieval_of(cache, from_sec, len_sec, now, &mut fts);
            let plan_a = a.retrieve(cache, sub, range, up_to, now, &mut log_a);
            let plan_b = b.retrieve(cache, sub, range, up_to, now, &mut log_b);
            assert_eq!(plan_a, plan_b, "{at}: plans");
            retrievals += 1;
            ack_drops += log_a.dropped.len();
        } else {
            a.tape.apply(&mut a.mgr, op, now, &mut log_a);
            b.tape.apply(&mut b.mgr, op, now, &mut log_b);
        }
        assert_eq!(log_a, log_b, "{at}: drops and miss fetches of the step");
        assert_eq!(
            a.mgr.metrics_snapshot(),
            b.mgr.metrics_snapshot(),
            "{at}: metrics"
        );
        assert_eq!(a.mgr.total_bytes(), b.mgr.total_bytes(), "{at}: bytes");
        assert_eq!(summaries(&a.mgr), summaries(&b.mgr), "{at}: caches");
        if let (Some(va), Some(vb)) = (a.mgr.victim(now), b.mgr.victim(now)) {
            assert_eq!(va, vb, "{at}: victim index minimum");
        }
        if step % FULL_STATE_EVERY == 0 || step + 1 == ops.len() {
            assert_eq!(full_state(&a.mgr), full_state(&b.mgr), "{at}: cursors");
        }
    }
    assert!(retrievals > 200, "{label} seed {seed}: {retrievals} GETs");
    (a.mgr, b.mgr, ack_drops)
}

#[test]
fn fused_matches_plan_then_ack_under_every_policy() {
    for policy in PolicyName::ALL {
        for budget in [TIGHT, AMPLE] {
            let label = format!("{policy:?} budget {budget}");
            let mut ack_drops = 0;
            for seed in 1..=SEEDS {
                ack_drops += assert_lockstep(
                    &label,
                    seed,
                    Side::new(CacheManager::new(policy, config(budget)), Retrieval::Fused),
                    Side::new(CacheManager::new(policy, config(budget)), Retrieval::Split),
                )
                .2;
            }
            // The acks really did consume (NC stores nothing).
            assert_eq!(ack_drops > 100, policy != PolicyName::Nc, "{label}");
        }
    }
}

/// `drop_on_full_consumption = false` is the one configuration in which
/// the ack body takes its other branch: cursors move, nothing drops.
#[test]
fn fused_matches_plan_then_ack_without_consumption_drops() {
    let config = CacheConfig {
        drop_on_full_consumption: false,
        ..config(TIGHT)
    };
    for policy in [PolicyName::Lsc, PolicyName::Ttl] {
        for seed in 1..=SEEDS {
            let (fused, _, ack_drops) = assert_lockstep(
                &format!("{policy:?} keep consumed"),
                seed,
                Side::new(CacheManager::new(policy, config), Retrieval::Fused),
                Side::new(CacheManager::new(policy, config), Retrieval::Split),
            );
            assert_eq!(ack_drops, 0);
            assert_eq!(fused.metrics().consumed_objects, 0);
        }
    }
}

#[test]
fn fused_matches_plan_then_ack_with_sketches() {
    let sketched = |policy, budget| {
        let mgr = ShardedCacheManager::new(policy, config(budget), 1);
        mgr.enable_sketches(SketchConfig::default());
        mgr
    };
    for policy in PolicyName::ALL {
        for seed in 1..=SEEDS {
            let fused = Side::new(sketched(policy, TIGHT), Retrieval::Fused);
            let split = Side::new(sketched(policy, TIGHT), Retrieval::Split);
            let label = format!("{policy:?} sketches");
            let (fused, split, _) = assert_lockstep(&label, seed, fused, split);
            let hot_fused = fused.hot_snapshot().expect("sketches enabled");
            let hot_split = split.hot_snapshot().expect("sketches enabled");
            assert_eq!(
                hot_fused.to_json(),
                hot_split.to_json(),
                "{label} seed {seed}: the sketches saw different streams"
            );
            assert!(hot_fused.totals().requests > 0);
        }
    }
}

#[test]
fn fused_monolith_matches_fused_single_shard() {
    for policy in PolicyName::ALL {
        for seed in 1..=SEEDS {
            assert_lockstep(
                &format!("{policy:?} mono vs shards=1"),
                seed,
                Side::new(CacheManager::new(policy, config(TIGHT)), Retrieval::Fused),
                Side::new(
                    ShardedCacheManager::new(policy, config(TIGHT), 1),
                    Retrieval::Fused,
                ),
            );
        }
    }
}
