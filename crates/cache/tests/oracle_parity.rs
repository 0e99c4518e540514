//! The `shards = 1` parity oracle: a [`ShardedCacheManager`] with one
//! shard must be observationally identical to the monolithic
//! [`CacheManager`] under every policy — same `DroppedObject` stream in
//! the same order, same metrics, same telemetry event stream, same
//! rendered registry. This is what lets the deterministic simulator run
//! `shards = 1` for exact paper reproduction while the prototype scales
//! out.

mod common;

use std::sync::Arc;

use bad_cache::{CacheConfig, CacheManager, CacheTelemetry, PolicyName, ShardedCacheManager};
use bad_telemetry::{ProfileConfig, Profiler, Registry, RingBufferSink, SharedSink};
use bad_types::{ByteSize, SimDuration};
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

/// Replays one tape into a monolith and a one-shard manager — each
/// with telemetry on a registry and event ring of its own, the shard
/// armed by the caller — and holds the two to byte parity: replay log,
/// metrics, telemetry event stream, rendered cache registry. Returns the
/// sharded manager for whatever else the caller wants to check.
fn assert_single_shard_parity(
    policy: PolicyName,
    seed: u64,
    arm_sharded: impl FnOnce(&mut ShardedCacheManager),
) -> ShardedCacheManager {
    let ops = gen_ops(seed, OPS_PER_SEED, 4, 8);

    let mono_registry = Registry::new();
    let mono_ring = Arc::new(RingBufferSink::new(100_000));
    let mut mono = CacheManager::new(policy, config(10_000));
    mono.set_telemetry(CacheTelemetry::new(
        &mono_registry,
        mono_ring.clone() as SharedSink,
    ));
    let mono_log = replay(&mut mono, &ops, 4);

    let sharded_registry = Registry::new();
    let sharded_ring = Arc::new(RingBufferSink::new(100_000));
    let mut sharded = ShardedCacheManager::new(policy, config(10_000), 1);
    sharded.set_telemetry(CacheTelemetry::new(
        &sharded_registry,
        sharded_ring.clone() as SharedSink,
    ));
    arm_sharded(&mut sharded);
    let sharded_log = replay(&mut sharded, &ops, 4);

    assert_eq!(mono_log, sharded_log, "{policy:?}: replay logs diverged");
    assert_eq!(
        mono.metrics().clone(),
        Driver::metrics_snapshot(&sharded),
        "{policy:?}: metrics diverged"
    );
    assert_eq!(
        mono_ring.events(),
        sharded_ring.events(),
        "{policy:?}: telemetry event streams diverged"
    );
    assert_eq!(
        mono_registry.render(),
        sharded_registry.render(),
        "{policy:?}: rendered registries diverged"
    );
    sharded
}

#[test]
fn single_shard_matches_monolith_telemetry() {
    for policy in policies() {
        assert_single_shard_parity(policy, 42, |_| {});
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
        let sharded = assert_single_shard_parity(policy, 21, |sharded| {
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
