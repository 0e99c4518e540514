//! The health engine notices when reality leaves the eq. 5–7 model.
//!
//! A real [`ShardedCacheManager`] feeds a [`HealthEngine`] on one
//! registry, one tick per window, as an observed broker does after
//! maintenance. The first phase is stationary: every request asks for
//! the fresh tail and every subscriber consumes it at once, so the
//! model's predicted hit ratio and occupancy match what the cache
//! observes. Then consumption stops and deep-history scans take over.
//! The measured η̂ collapses, so the model predicts the hits should
//! vanish, but the scans keep hitting the growing unconsumed pool, and
//! occupancy leaves the ρ̂·T prediction. The `model_drift` alert must
//! stay Inactive through the first phase and fire within a bounded
//! number of windows of the stop.

use std::sync::Arc;

use bad_cache::{CacheConfig, CacheTelemetry, NewObject, PolicyName, ShardedCacheManager};
use bad_telemetry::{
    drift, AlertState, FlightRecorder, HealthConfig, HealthEngine, HealthObservation, Registry,
    Tracer,
};
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const CACHES: u64 = 16;
const SUBSCRIBERS: u64 = 8;
const WINDOW_S: u64 = 60;
const STATIONARY_WINDOWS: u64 = 8;
/// The alert has this many windows after the stop to reach Firing.
const FIRING_BOUND: u64 = 10;

#[test]
fn model_drift_fires_after_consumption_stops_and_not_before() {
    let registry = Registry::new();
    let mgr = ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(4_000_000),
            // A generous TTL keeps μ̂·T deep in the saturated regime
            // (p ≈ 1) while consumers are prompt, so the stationary
            // prediction matches the all-hit reality. A rate window of
            // one evaluation window makes λ̂ and η̂ react within a
            // window of the stop.
            initial_ttl: SimDuration::from_secs(600),
            rate_window: SimDuration::from_secs(WINDOW_S),
            ..CacheConfig::default()
        },
        1,
    );
    mgr.set_telemetry(CacheTelemetry::new(&registry, Tracer::disabled()));
    let engine = HealthEngine::new(
        &registry,
        Arc::new(FlightRecorder::new(1, 64)),
        bad_telemetry::null_sink(),
        HealthConfig {
            window_us: SimDuration::from_secs(WINDOW_S).as_micros(),
            ..HealthConfig::default()
        },
    );
    for c in 0..CACHES {
        let bs = BackendSubId::new(c);
        mgr.create_cache(bs, Timestamp::ZERO);
        for s in 0..SUBSCRIBERS {
            mgr.add_subscriber(bs, SubscriberId::new(c * 100 + s))
                .unwrap();
        }
    }

    let mut rng = Rng::new(0xD21F_7001);
    let mut next_id = 0;
    let mut states = Vec::new();
    for w in 0..STATIONARY_WINDOWS + FIRING_BOUND {
        let stopped = w >= STATIONARY_WINDOWS;
        let base = w * WINDOW_S;
        for k in 1..WINDOW_S {
            let now = Timestamp::from_secs(base + k);
            let c = rng.below(CACHES);
            let bs = BackendSubId::new(c);
            let object = NewObject {
                id: ObjectId::new(next_id),
                ts: now,
                size: ByteSize::new(2_000),
                fetch_latency: SimDuration::from_millis(500),
            };
            mgr.insert(bs, object, now).unwrap();
            next_id += 1;
            if stopped {
                let plan = mgr.plan_get(bs, TimeRange::closed(Timestamp::ZERO, now), now);
                let missed = plan.missed.len().max(1) as u64;
                mgr.record_miss_fetch(bs, missed, ByteSize::new(64));
            } else {
                let _ = mgr.plan_get(bs, TimeRange::closed(now, now), now);
                for s in 0..SUBSCRIBERS {
                    let _ = mgr.ack_consume(bs, SubscriberId::new(c * 100 + s), now, now);
                }
            }
        }
        let now = Timestamp::from_secs(base + WINDOW_S);
        let t_us = now.as_micros();
        assert!(engine.due(t_us), "window {w} did not close");
        engine.tick(
            t_us,
            HealthObservation {
                occupancy_bytes: mgr.total_bytes().as_u64(),
                budget_bytes: mgr.budget().as_u64(),
                model: Some(drift::predict(&mgr.model_inputs(now))),
                hot_skew: None,
            },
        );
        states.push(engine.alerts().state_of("model_drift"));
    }

    let (stationary, after) = states.split_at(STATIONARY_WINDOWS as usize);
    assert!(
        stationary.iter().all(|&s| s == Some(AlertState::Inactive)),
        "model_drift left Inactive while the model held: {stationary:?}"
    );
    assert!(
        after.contains(&Some(AlertState::Firing)),
        "model_drift did not fire within {FIRING_BOUND} windows of the stop: {after:?}\n{}",
        engine.alerts_json()
    );
}
