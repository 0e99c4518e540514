//! Std-only integration test: every dropped object emits exactly one
//! drop record — a lifecycle span whose `drop_kind` is
//! [`DropKind::label`] — and the per-cause counters in
//! [`bad_cache::CacheMetrics`] agree with the record stream.

use std::sync::Arc;

use bad_cache::{CacheConfig, CacheManager, CacheTelemetry, DropKind, NewObject, PolicyName};
use bad_telemetry::{
    Event, FlightRecorder, Registry, RingBufferSink, Span, SpanKind, TraceConfig, Tracer,
};
use bad_types::{BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, Timestamp};

/// The drop records of `kind` in the stream.
fn drops_of(events: &[Event], kind: DropKind) -> Vec<Span> {
    events
        .iter()
        .filter_map(|event| match event {
            Event::Span(span) if span.drop_kind == kind.label() => Some(*span),
            _ => None,
        })
        .collect()
}

fn insert(mgr: &mut CacheManager, bs: BackendSubId, id: u64, sec: u64, size: u64) {
    let ts = Timestamp::from_secs(sec);
    mgr.insert(
        bs,
        NewObject {
            id: ObjectId::new(id),
            ts,
            size: ByteSize::new(size),
            fetch_latency: SimDuration::from_millis(1),
        },
        ts,
    )
    .unwrap();
}

/// Drives one scenario per [`DropKind`] through two managers sharing a
/// tracer whose sink is a ring buffer, then cross-checks the record
/// stream against the metrics counters: one record per drop, no more,
/// no less.
#[test]
fn every_drop_kind_emits_exactly_one_event() {
    let registry = Registry::new();
    let ring = Arc::new(RingBufferSink::new(4096));
    let tracer = Tracer::new(
        &registry,
        ring.clone(),
        Arc::new(FlightRecorder::new(1, 16)),
        TraceConfig::default(),
    );

    // Manager 1 (LSC, tight budget): evictions, consumption drops and
    // unsubscription drops.
    let mut lsc = CacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(1_000),
            ..CacheConfig::default()
        },
    );
    lsc.set_telemetry(CacheTelemetry::new(&registry, Arc::clone(&tracer)));

    // Cache 0: single subscriber; budget pressure forces evictions.
    let c0 = BackendSubId::new(0);
    lsc.create_cache(c0, Timestamp::ZERO);
    lsc.add_subscriber(c0, SubscriberId::new(1)).unwrap();
    for i in 0..5 {
        insert(&mut lsc, c0, i, i + 1, 400);
    }
    // Consumption: the lone subscriber acks everything still resident.
    let t10 = Timestamp::from_secs(10);
    let consumed = lsc.ack_consume(c0, SubscriberId::new(1), t10, t10).unwrap();
    assert!(
        !consumed.is_empty(),
        "ack should drop fully consumed objects"
    );

    // Cache 1: two subscribers; one acks, then the other leaves, which
    // drops the objects that were only waiting on it.
    let c1 = BackendSubId::new(1);
    lsc.create_cache(c1, Timestamp::ZERO);
    lsc.add_subscriber(c1, SubscriberId::new(2)).unwrap();
    lsc.add_subscriber(c1, SubscriberId::new(3)).unwrap();
    insert(&mut lsc, c1, 100, 11, 100);
    let t12 = Timestamp::from_secs(12);
    let early = lsc.ack_consume(c1, SubscriberId::new(2), t12, t12).unwrap();
    assert!(early.is_empty(), "subscriber 3 has not consumed yet");
    let gone = lsc
        .remove_subscriber(c1, SubscriberId::new(3), t12)
        .unwrap();
    assert!(
        !gone.is_empty(),
        "unsubscribe should drop the waiting object"
    );
    assert!(gone.iter().all(|d| d.reason == DropKind::Unsubscribed));

    // Manager 2 (TTL): expiries. The recompute interval is pushed out so
    // the initial 30 s TTL stays in force for the whole scenario.
    let mut ttl = CacheManager::new(
        PolicyName::Ttl,
        CacheConfig {
            budget: ByteSize::new(1_000),
            ttl_recompute_interval: SimDuration::from_secs(1_000_000),
            ..CacheConfig::default()
        },
    );
    ttl.set_telemetry(CacheTelemetry::new(&registry, Arc::clone(&tracer)));
    let c2 = BackendSubId::new(2);
    ttl.create_cache(c2, Timestamp::ZERO);
    ttl.add_subscriber(c2, SubscriberId::new(4)).unwrap();
    insert(&mut ttl, c2, 200, 1, 100);
    insert(&mut ttl, c2, 201, 2, 100);
    let expired = ttl.maintain(Timestamp::from_secs(100));
    assert_eq!(expired.len(), 2, "both objects outlived the 30s TTL");

    // Record stream vs. metrics counters: exact agreement per DropKind.
    let events = ring.events();
    let lsc_m = lsc.metrics();
    let ttl_m = ttl.metrics();
    let drops = [
        (
            DropKind::Evicted,
            lsc_m.evicted_objects + ttl_m.evicted_objects,
        ),
        (
            DropKind::Consumed,
            lsc_m.consumed_objects + ttl_m.consumed_objects,
        ),
        (
            DropKind::Expired,
            lsc_m.expired_objects + ttl_m.expired_objects,
        ),
        (
            DropKind::Unsubscribed,
            lsc_m.unsubscribed_objects + ttl_m.unsubscribed_objects,
        ),
    ];
    for (kind, counted) in drops {
        let emitted = drops_of(&events, kind).len() as u64;
        assert!(counted > 0, "scenario never exercised {kind}");
        assert_eq!(
            emitted, counted,
            "{kind}: {emitted} records vs {counted} metric drops"
        );
    }

    // An eviction records the evicting policy and the victim cache's
    // φ/s score; an expiry the 30 s TTL in force, as its detail.
    for evict in drops_of(&events, DropKind::Evicted) {
        assert_eq!(
            (evict.kind, evict.policy),
            (SpanKind::Drop, PolicyName::Lsc.as_str())
        );
        assert!(evict.score.is_finite() && evict.score > 0.0, "{evict:?}");
    }
    for expire in drops_of(&events, DropKind::Expired) {
        assert_eq!(
            (expire.kind, expire.policy),
            (SpanKind::Expire, PolicyName::Ttl.as_str())
        );
        assert_eq!(expire.detail, SimDuration::from_secs(30).as_micros());
    }

    // The shared registry's counters line up with the same totals.
    let text = registry.render();
    for (name, (_, counted)) in [
        "bad_cache_evicted_objects_total",
        "bad_cache_consumed_objects_total",
        "bad_cache_expired_objects_total",
        "bad_cache_unsubscribed_objects_total",
    ]
    .iter()
    .zip(drops)
    {
        assert!(
            text.contains(&format!("{name} {counted}")),
            "registry should render `{name} {counted}`:\n{text}"
        );
    }
}
