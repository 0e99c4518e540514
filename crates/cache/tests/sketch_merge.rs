//! Shard-merge properties of the hot-key sketches.
//!
//! Three layers, all driven by seeded `bad_types::rng` streams:
//!
//! - **Space-Saving merge soundness** (property, across seeds × K ×
//!   capacity): merging per-part sketches of a skewed stream preserves
//!   the Metwally bounds — every reported count brackets the true count
//!   within its error term, every key heavier than `N / capacity` is
//!   retained, and no key outside the reported top-K can truly
//!   outweigh the reported K-th. That last clause is the "merged top-K
//!   ⊇ exact top-K within the error bound" contract: an exact-top-K
//!   key may only be missing when the bound cannot distinguish it from
//!   the reported K-th.
//! - **Merge order-independence** (regression): permuting the order in
//!   which per-shard snapshots reach the read-time merge yields a
//!   byte-identical `/hot` JSON body. The merge is symmetric by
//!   construction (every input's keys enter one union, truncated on
//!   the total order (count desc, key asc)); this pins it against a
//!   future "fold left into the first shard" rewrite.
//! - **Deployment parity** (integration): replaying one op tape into a
//!   1-shard and a 4-shard [`ShardedCacheManager`] (ample budget, so
//!   the access streams match) produces byte-identical `/hot` JSON —
//!   the read-time merge of per-shard recorders reports exactly what a
//!   single recorder would have seen.
//! - **Zipf accuracy** (estimation quality): on a Zipf(1.0) tape, one
//!   recorder and four per-shard recorders merged at read time each
//!   report at least 9 of the exact top 10, every reported count is an
//!   upper bound within `N / capacity`, and the distinct-active
//!   estimate lands within 20 % of the true key count.

mod common;

use std::collections::BTreeMap;

use bad_cache::{CacheConfig, PolicyName, ShardedCacheManager};
use bad_telemetry::{HotSnapshot, SketchConfig, SketchRecorder, SpaceSaving};
use bad_types::rng::{Rng, Zipf};
use bad_types::ByteSize;
use common::{gen_ops, replay};

/// A deterministic skewed key stream: ~80 % of draws land on a hot set
/// an eighth of the keyspace wide, the rest spread over the full
/// space. Enough skew for heavy hitters to exist, enough tail for the
/// sketches to evict under pressure.
fn skewed_stream(seed: u64, len: usize, keyspace: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let hot = (keyspace / 8).max(1);
    (0..len)
        .map(|_| {
            if rng.below(10) < 8 {
                rng.below(hot)
            } else {
                rng.below(keyspace)
            }
        })
        .collect()
}

#[test]
fn merged_top_k_covers_exact_heavy_hitters_within_error_bound() {
    for seed in [3u64, 17, 99, 2024] {
        for capacity in [16usize, 64] {
            for k in [4usize, 8, 16] {
                // Two parts of one logical stream (e.g. two shards'
                // views), sketched independently and merged at read
                // time.
                let part_a = skewed_stream(seed, 3_000, 512);
                let part_b = skewed_stream(seed ^ 0xABCD, 5_000, 512);

                let mut sketch_a = SpaceSaving::new(capacity);
                let mut sketch_b = SpaceSaving::new(capacity);
                let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
                for &key in &part_a {
                    sketch_a.record(key, 1);
                    *exact.entry(key).or_insert(0) += 1;
                }
                for &key in &part_b {
                    sketch_b.record(key, 1);
                    *exact.entry(key).or_insert(0) += 1;
                }

                let merged = SpaceSaving::merge(&[&sketch_a, &sketch_b]);
                let total = (part_a.len() + part_b.len()) as u64;
                assert_eq!(merged.total(), total, "merge loses mass");

                // Metwally bounds survive the merge: count is an upper
                // bound, count - err a lower bound.
                for (key, entry) in merged.entries() {
                    let true_count = exact.get(key).copied().unwrap_or(0);
                    assert!(
                        entry.count >= true_count,
                        "seed {seed} cap {capacity}: key {key} count {} < true {true_count}",
                        entry.count
                    );
                    assert!(
                        entry.count - entry.err <= true_count,
                        "seed {seed} cap {capacity}: key {key} lower bound {} > true {true_count}",
                        entry.count - entry.err
                    );
                }

                // Guaranteed retention: any key heavier than
                // `total / capacity` must still be tracked post-merge.
                let epsilon = total / capacity as u64;
                for (&key, &true_count) in &exact {
                    if true_count > epsilon {
                        assert!(
                            merged.entries().contains_key(&key),
                            "seed {seed} cap {capacity}: heavy key {key} \
                             ({true_count} > {epsilon}) evicted by merge"
                        );
                    }
                }

                // Top-K containment within the error bound: no absent
                // key may truly outweigh the reported K-th entry's
                // upper bound — i.e. the reported top-K covers the
                // exact top-K except where the bound cannot tell the
                // candidates apart.
                let top = merged.top(k);
                if top.len() == k {
                    let kth_upper = top.last().expect("k entries").1.count;
                    let reported: Vec<u64> = top.iter().map(|(key, _)| *key).collect();
                    for (&key, &true_count) in &exact {
                        if !reported.contains(&key) {
                            assert!(
                                true_count <= kth_upper,
                                "seed {seed} cap {capacity} k {k}: absent key {key} \
                                 (true {true_count}) outweighs reported K-th ({kth_upper})"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn permuting_shard_snapshot_order_yields_byte_identical_hot_json() {
    const SHARDS: usize = 6;
    for seed in [5u64, 77, 4242] {
        // Feed one deterministic mixed stream through six per-shard
        // recorders, routing by key — the deployment's shape.
        let recorders: Vec<SketchRecorder> = (0..SHARDS)
            .map(|_| {
                SketchRecorder::new(SketchConfig {
                    capacity: 32,
                    top_k: 8,
                    ..SketchConfig::default()
                })
            })
            .collect();
        let mut rng = Rng::new(seed);
        for _ in 0..4_000 {
            let key = rng.below(200);
            let recorder = &recorders[(key % SHARDS as u64) as usize];
            match rng.below(10) {
                0..=5 => recorder.record_hit(key, 1 + rng.below(3), 64 + rng.below(4000)),
                6..=7 => recorder.record_miss(key, 1 + rng.below(2)),
                8 => recorder.record_ack(key),
                _ => recorder.record_delivery_lag(key, rng.below(5_000_000)),
            }
        }
        let snapshots: Vec<HotSnapshot> = recorders.iter().map(|r| r.snapshot()).collect();

        let reference = HotSnapshot::merge(&snapshots)
            .expect("non-empty shard set")
            .to_json();

        // Rotations, the reversal and randomly shuffled orders must
        // all render the same bytes.
        let mut orders: Vec<Vec<usize>> = (0..SHARDS)
            .map(|rot| (0..SHARDS).map(|i| (i + rot) % SHARDS).collect())
            .collect();
        orders.push((0..SHARDS).rev().collect());
        let mut shuffle_rng = Rng::new(seed ^ 0xF00D);
        for _ in 0..4 {
            let mut order: Vec<usize> = (0..SHARDS).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, shuffle_rng.below(i as u64 + 1) as usize);
            }
            orders.push(order);
        }
        for order in orders {
            let permuted: Vec<HotSnapshot> = order.iter().map(|&i| snapshots[i].clone()).collect();
            let json = HotSnapshot::merge(&permuted)
                .expect("non-empty shard set")
                .to_json();
            assert_eq!(
                json, reference,
                "seed {seed}: merge order {order:?} changed the /hot body"
            );
        }
    }
}

#[test]
fn sharded_hot_snapshot_matches_single_shard_byte_for_byte() {
    // Ample budget so eviction never makes the 1- and 4-shard access
    // streams diverge (see oracle_parity's aggregate-accounting note),
    // and fewer distinct keys than sketch capacity so both sides track
    // exactly. The 4-shard read-time merge must then reproduce the
    // single recorder's `/hot` body byte for byte.
    for seed in [7u64, 42] {
        let ops = gen_ops(seed, 400, 8, 8);
        let run = |shards: usize| {
            let mut mgr = ShardedCacheManager::new(
                PolicyName::Lru,
                CacheConfig {
                    budget: ByteSize::new(100_000_000),
                    ..CacheConfig::default()
                },
                shards,
            );
            mgr.enable_sketches(SketchConfig::default());
            replay(&mut mgr, &ops, 8);
            mgr.hot_snapshot().expect("sketches enabled").to_json()
        };
        let single = run(1);
        let four = run(4);
        assert_eq!(
            single, four,
            "seed {seed}: shard count changed the merged /hot body"
        );
        assert!(
            single.contains("\"top\"") && single.contains("\"requests\""),
            "seed {seed}: /hot body missing axes: {single}"
        );
    }
}

#[test]
fn zipf_top_ten_and_distinct_count_hold_single_and_merged() {
    const OPS: u64 = 100_000;
    const KEYS: usize = 10_000;
    const SHARDS: u64 = 4;
    const TOP: usize = 10;
    const CAPACITY: usize = 256;
    let config = SketchConfig {
        capacity: CAPACITY,
        top_k: TOP,
        ..SketchConfig::default()
    };
    let single = SketchRecorder::new(config);
    let shards: Vec<SketchRecorder> = (0..SHARDS).map(|_| SketchRecorder::new(config)).collect();
    let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
    let zipf = Zipf::new(KEYS, 1.0);
    let mut rng = Rng::new(0x5eed);
    for _ in 0..OPS {
        let key = zipf.sample(&mut rng) as u64;
        *exact.entry(key).or_insert(0) += 1;
        single.record_hit(key, 1, 64);
        // Routed by key modulo the shard count, as the sharded manager
        // routes subscriptions.
        shards[(key % SHARDS) as usize].record_hit(key, 1, 64);
    }
    let mut ranked: Vec<(u64, u64)> = exact.iter().map(|(&k, &c)| (k, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let exact_top: Vec<u64> = ranked.iter().take(TOP).map(|&(k, _)| k).collect();

    let snapshots: Vec<HotSnapshot> = shards.iter().map(|r| r.snapshot()).collect();
    let merged = HotSnapshot::merge(&snapshots).expect("non-empty shard set");
    let epsilon = OPS / CAPACITY as u64;
    for (name, snapshot) in [("single", single.snapshot()), ("merged", merged)] {
        let reported = snapshot.top_requests(TOP);
        let overlap = exact_top
            .iter()
            .filter(|k| reported.iter().any(|(key, _)| key == *k))
            .count();
        assert!(overlap >= 9, "{name}: top-10 overlap {overlap}/10");
        for (key, entry) in &reported {
            let truth = exact.get(key).copied().unwrap_or(0);
            assert!(
                entry.count >= truth && entry.count - truth <= epsilon,
                "{name}: key {key} reported {} against {truth} (epsilon {epsilon})",
                entry.count
            );
            assert!(
                entry.count - entry.err <= truth,
                "{name}: key {key} lower bound"
            );
        }
        let estimate = snapshot.distinct_active() as f64;
        let error = estimate / exact.len() as f64 - 1.0;
        assert!(
            error.abs() <= 0.2,
            "{name}: distinct estimate {estimate} against {} keys",
            exact.len()
        );
    }
}
