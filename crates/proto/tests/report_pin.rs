//! Pins the exact `PrototypeReport` of NC, LRU, LSC and TTL on the
//! smoke trace, seeds 1 and 2, so any change to what the prototype
//! measures shows up as a diff of the table below (`hit_ratio` is
//! pinned by its bit pattern), and checks what the frontend count
//! counts.

use std::collections::HashSet;

use bad_cache::PolicyName;
use bad_proto::{run_prototype, PrototypeConfig, PrototypeReport};
use bad_workload::{ActivityKind, TraceGenerator};

/// `(policy, seed, hit_ratio bits, mean latency µs, mean wait µs,
/// fetched bytes, vol bytes, frontends, peak backends, deliveries,
/// delivered objects, publications)`.
type Row = (
    PolicyName,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
);

// Latency less wait (NC 755 869 / 756 037 µs, the rest 255 790 /
// 255 942 µs) and every other column but the frontends are what the
// direct-call replay that preceded the deployed nodes measured.
#[rustfmt::skip]
const PINNED: [Row; 8] = [
    (PolicyName::Nc, 1, 0x0, 3291816, 2535947, 253511, 111076, 91, 49, 306, 349, 116),
    (PolicyName::Nc, 2, 0x0, 3606247, 2850210, 274865, 153943, 91, 49, 278, 352, 118),
    (PolicyName::Lru, 1, 0x3ff0000000000000, 1477931, 1222141, 111076, 111076, 91, 49, 306, 349, 116),
    (PolicyName::Lru, 2, 0x3ff0000000000000, 1353065, 1097122, 153943, 153943, 91, 49, 278, 352, 118),
    (PolicyName::Lsc, 1, 0x3ff0000000000000, 1477931, 1222141, 111076, 111076, 91, 49, 306, 349, 116),
    (PolicyName::Lsc, 2, 0x3ff0000000000000, 1353065, 1097122, 153943, 153943, 91, 49, 278, 352, 118),
    (PolicyName::Ttl, 1, 0x3ff0000000000000, 1477931, 1222141, 111076, 111076, 91, 49, 306, 349, 116),
    (PolicyName::Ttl, 2, 0x3ff0000000000000, 1353065, 1097122, 153943, 153943, 91, 49, 278, 352, 118),
];

fn row(r: &PrototypeReport) -> Row {
    (
        r.policy,
        r.seed,
        r.hit_ratio.to_bits(),
        r.mean_latency.as_micros(),
        r.mean_wait.as_micros(),
        r.fetched_bytes.as_u64(),
        r.vol_bytes.as_u64(),
        r.frontend_subscriptions,
        r.backend_subscriptions,
        r.deliveries,
        r.delivered_objects,
        r.publications,
    )
}

#[test]
fn smoke_reports_are_pinned() {
    let config = PrototypeConfig::smoke();
    for pinned in PINNED {
        let report = run_prototype(pinned.0, &config, pinned.1).unwrap();
        assert_eq!(report.cache_budget, config.cache.budget);
        assert_eq!(row(&report), pinned, "{} seed {}", pinned.0, pinned.1);
    }
}

#[test]
fn nc_serves_every_retrieval_it_is_offered() {
    // NC misses every object, so each retrieval holds the broker node
    // across a cluster round trip and the replay runs behind; it still
    // serves the retrievals the direct-call replay served (306 and 278),
    // the same as every caching scheme.
    let config = PrototypeConfig::smoke();
    for (seed, served) in [(1, 306), (2, 278)] {
        let nc = run_prototype(PolicyName::Nc, &config, seed).unwrap();
        assert_eq!(nc.deliveries, served, "seed {seed}");
        assert!(nc.mean_wait > bad_types::SimDuration::ZERO, "seed {seed}");
    }
}

#[test]
fn frontends_are_the_traces_distinct_interests() {
    // The generator schedules every unsubscribe after every subscribe,
    // so no frontend is freed and made again.
    let config = PrototypeConfig::smoke();
    let trace = TraceGenerator::new(config.trace.clone(), 1)
        .generate()
        .unwrap();
    let interests: HashSet<_> = (trace.iter())
        .filter_map(|activity| match &activity.kind {
            ActivityKind::Subscribe {
                subscriber,
                channel,
                params,
                ..
            } => Some((*subscriber, channel.clone(), params.canonical_key())),
            _ => None,
        })
        .collect();
    let report = run_prototype(PolicyName::Lsc, &config, 1).unwrap();
    assert_eq!(report.frontend_subscriptions, interests.len() as u64);
}
