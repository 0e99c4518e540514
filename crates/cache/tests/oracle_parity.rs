//! The `shards = 1` parity oracle: a [`ShardedCacheManager`] with one
//! shard must be observationally identical to the monolithic
//! [`CacheManager`] under every policy — same `DroppedObject` stream in
//! the same order, same metrics, same telemetry event stream, same
//! rendered registry. This is what lets the deterministic simulator run
//! `shards = 1` for exact paper reproduction while the prototype scales
//! out.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use bad_cache::{
    CacheConfig, CacheManager, CacheTelemetry, DroppedObject, PolicyName, ShardedCacheManager,
};
use bad_telemetry::{
    Event, FlightRecorder, ProfileConfig, Profiler, Registry, RingBufferSink, SharedTracer,
    TraceConfig, Tracer,
};
use bad_types::{BackendSubId, ByteSize, SimDuration, SubscriberId, Timestamp};
use common::{gen_ops, replay, Driver};

const SEEDS: [u64; 4] = [7, 21, 42, 1009];
const OPS_PER_SEED: usize = 250;

fn config(budget: u64) -> CacheConfig {
    CacheConfig {
        budget: ByteSize::new(budget),
        ttl_recompute_interval: SimDuration::from_secs(30),
        ..CacheConfig::default()
    }
}

/// All policies under parity test: the six simulated ones plus the
/// no-cache baseline.
fn policies() -> impl Iterator<Item = PolicyName> {
    PolicyName::SIMULATED.into_iter().chain([PolicyName::Nc])
}

#[test]
fn single_shard_matches_monolith_dropped_streams_and_metrics() {
    for policy in policies() {
        for seed in SEEDS {
            let ops = gen_ops(seed, OPS_PER_SEED, 4, 8);

            let mut mono = CacheManager::new(policy, config(10_000));
            let mono_log = replay(&mut mono, &ops, 4);

            let mut sharded = ShardedCacheManager::new(policy, config(10_000), 1);
            let sharded_log = replay(&mut sharded, &ops, 4);

            assert_eq!(
                mono_log, sharded_log,
                "{policy:?} seed {seed}: replay logs diverged"
            );
            assert_eq!(
                mono.metrics().clone(),
                Driver::metrics_snapshot(&sharded),
                "{policy:?} seed {seed}: metrics diverged"
            );
            assert_eq!(Driver::total_bytes(&mono), Driver::total_bytes(&sharded));
            assert_eq!(mono.cache_count(), sharded.cache_count());
        }
    }
}

/// Retires every cache's subscribers after a replay of `ops` ops:
/// the tape's subscribers (`0..8`) ack everything, then the permanent
/// one acks too on the first half of the caches and just leaves on the
/// second. The tape's caches never lose their permanent subscriber, so
/// this is where consumption and unsubscription drops happen.
fn retire<D: Driver>(mgr: &mut D, n_caches: u64, ops: usize) -> Vec<DroppedObject> {
    let end = Timestamp::from_secs(ops as u64 + 1);
    let mut dropped = Vec::new();
    for c in 0..n_caches {
        let bs = BackendSubId::new(c);
        for sub in (0..8).map(SubscriberId::new) {
            dropped.extend(mgr.ack_consume(bs, sub, end, end).unwrap_or_default());
        }
        let permanent = SubscriberId::new(1000 + c);
        let last = if c < n_caches / 2 {
            mgr.ack_consume(bs, permanent, end, end)
        } else {
            mgr.remove_subscriber(bs, permanent, end)
        };
        dropped.extend(last.unwrap_or_default());
    }
    dropped
}

/// A live tracer on `registry` whose sink is a ring of its own, so the
/// stream holds every lifecycle record (insert, evict, expire, consume,
/// unsubscribe) and every TTL retune.
fn traced(registry: &Registry) -> (SharedTracer, Arc<RingBufferSink>) {
    let ring = Arc::new(RingBufferSink::new(100_000));
    let recorder = Arc::new(FlightRecorder::new(1, 1));
    let tracer = Tracer::new(registry, ring.clone(), recorder, TraceConfig::default());
    (tracer, ring)
}

/// Replays one tape into a monolith and a one-shard manager — each
/// with telemetry on a registry, tracer and event ring of its own, the
/// shard armed by the caller — and holds the two to byte parity: replay
/// log, metrics, telemetry event stream, rendered cache registry.
/// Returns the sharded manager and the event stream for whatever else
/// the caller wants to check.
fn assert_single_shard_parity(
    policy: PolicyName,
    seed: u64,
    arm_sharded: impl FnOnce(&mut ShardedCacheManager),
) -> (ShardedCacheManager, Vec<Event>) {
    let ops = gen_ops(seed, OPS_PER_SEED, 4, 8);

    let mono_registry = Registry::new();
    let (mono_tracer, mono_ring) = traced(&mono_registry);
    let mut mono = CacheManager::new(policy, config(10_000));
    mono.set_telemetry(CacheTelemetry::new(&mono_registry, mono_tracer));
    let mono_log = (replay(&mut mono, &ops, 4), retire(&mut mono, 4, ops.len()));

    let sharded_registry = Registry::new();
    let (sharded_tracer, sharded_ring) = traced(&sharded_registry);
    let mut sharded = ShardedCacheManager::new(policy, config(10_000), 1);
    sharded.set_telemetry(CacheTelemetry::new(&sharded_registry, sharded_tracer));
    arm_sharded(&mut sharded);
    let sharded_log = (
        replay(&mut sharded, &ops, 4),
        retire(&mut sharded, 4, ops.len()),
    );

    assert_eq!(mono_log, sharded_log, "{policy:?}: replay logs diverged");
    assert_eq!(
        mono.metrics().clone(),
        Driver::metrics_snapshot(&sharded),
        "{policy:?}: metrics diverged"
    );
    let events = mono_ring.events();
    assert_eq!(
        events,
        sharded_ring.events(),
        "{policy:?}: telemetry event streams diverged"
    );
    assert_eq!(
        mono_registry.render(),
        sharded_registry.render(),
        "{policy:?}: rendered registries diverged"
    );
    (sharded, events)
}

#[test]
fn single_shard_matches_monolith_telemetry() {
    // Which records the compared streams held, over all policies: the
    // parity must cover every lifecycle step the cache writes.
    let mut seen = BTreeSet::new();
    for policy in policies() {
        let (_, events) = assert_single_shard_parity(policy, 42, |_| {});
        seen.extend(events.iter().map(|event| match event {
            Event::Span(span) if !span.drop_kind.is_empty() => span.drop_kind,
            other => other.kind(),
        }));
    }
    for kind in [
        "span.cache_insert",
        "evict",
        "expire",
        "consume",
        "unsubscribe",
        "cache.ttl_retune",
    ] {
        assert!(seen.contains(kind), "no {kind} record compared: {seen:?}");
    }
}

/// Full stage-and-lock profiling is metadata-only: a profiled
/// single-shard manager must stay byte-identical to the unprofiled
/// monolith. The profiler's own series register on a separate registry
/// precisely so the cache registries stay byte-comparable here.
#[test]
fn single_shard_with_full_profiling_matches_monolith() {
    for policy in policies() {
        let profile_registry = Registry::new();
        let profiler = Profiler::new(&profile_registry, ProfileConfig { sample_every_n: 1 });
        assert_single_shard_parity(policy, 1009, |sharded| sharded.set_profiler(&profiler));

        // And the profiler really was live: it attributed lock
        // acquisitions to the single shard and folded stage samples.
        profiler.flush_thread();
        let sites = profiler.lock_sites();
        assert_eq!(sites.len(), 1, "{policy:?}: expected one lock site");
        assert!(
            sites[0].acquisitions() > 0,
            "{policy:?}: profiler saw no lock acquisitions"
        );
        assert!(
            profile_registry
                .render()
                .contains("bad_profile_stage_ns_count"),
            "{policy:?}: profiler stage series missing"
        );
    }
}

/// Hot-key sketches are metadata-only: they live entirely outside the
/// caching decision path (their own per-shard recorder, no registry
/// series), so a fully sketched single shard must stay byte-identical
/// to the unsketched monolith.
#[test]
fn single_shard_with_sketches_matches_monolith() {
    use bad_telemetry::SketchConfig;

    for policy in policies() {
        let (sharded, _) = assert_single_shard_parity(policy, 21, |sharded| {
            sharded.enable_sketches(SketchConfig::default())
        });

        // And the sketches really were live: the replay's requests
        // landed in the heavy-hitter axes.
        let snapshot = sharded.hot_snapshot().expect("sketches enabled");
        assert!(
            snapshot.totals().requests > 0,
            "{policy:?}: sketches saw no requests"
        );
    }
}

#[test]
fn multi_shard_preserves_aggregate_accounting() {
    // With an ample budget the *eviction* policies never drop, so a
    // 4-shard run must serve exactly the same hits and misses as the
    // monolith and retain the same bytes. The TTL-driven policies are
    // different by design: per-shard retuning solves `Σρ·T = share`
    // rather than `Σρ·T = B`, so expiry times (and hence occupancy)
    // legitimately diverge — for those, check conservation instead.
    for policy in PolicyName::SIMULATED {
        let seed = 7;
        let ops = gen_ops(seed, OPS_PER_SEED, 8, 8);

        let mut mono = CacheManager::new(policy, config(100_000_000));
        let mono_log = replay(&mut mono, &ops, 8);

        let mut sharded = ShardedCacheManager::new(policy, config(100_000_000), 4);
        let sharded_log = replay(&mut sharded, &ops, 8);

        // Every object in a requested range is either a hit or a
        // fetched miss, in both deployments.
        assert_eq!(
            mono_log.hits + mono_log.misses,
            sharded_log.hits + sharded_log.misses,
            "{policy:?}: hit/miss conservation diverged"
        );
        assert!(Driver::total_bytes(&sharded) <= Driver::budget(&sharded));

        if !matches!(policy, PolicyName::Ttl | PolicyName::Exp) {
            assert_eq!(
                mono_log.hits, sharded_log.hits,
                "{policy:?}: hits diverged with an ample budget"
            );
            assert_eq!(mono_log.misses, sharded_log.misses);
            assert_eq!(
                Driver::total_bytes(&mono),
                Driver::total_bytes(&sharded),
                "{policy:?}: retained bytes diverged with an ample budget"
            );
        }
    }
}
