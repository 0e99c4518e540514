//! End-to-end lifecycle reconstruction: a notification's entire story —
//! produced at the cluster, admitted into the broker cache, retrieved
//! by its subscribers (or missed and re-fetched from the durable
//! store), and released (consumed or evicted) — must be reconstructable from the flight recorder by
//! `TraceId` alone, with causally consistent parent links, even though
//! no layer passes span ids to any other layer (every id is derived
//! deterministically from the object id).

use std::sync::Arc;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::{CacheConfig, PolicyName};
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::{FlightRecorder, Registry, SharedTracer, Span, SpanKind, TraceConfig, Tracer};
use bad_types::{ByteSize, DataValue, SubscriberId, Timestamp};

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn params(kind: &str) -> ParamBindings {
    ParamBindings::from_pairs([("kind", DataValue::from(kind))])
}

/// A cluster + broker pair sharing one live tracer, with `budget`
/// overriding the cache budget when given.
fn traced_setup(budget: Option<ByteSize>) -> (DataCluster, Broker, SharedTracer) {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Reports", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByKind(kind: string) from Reports r \
             where r.kind == $kind select r",
        )
        .unwrap();
    let mut config = BrokerConfig::default();
    if let Some(budget) = budget {
        config.cache = CacheConfig {
            budget,
            ..config.cache
        };
    }
    let mut broker = Broker::new(PolicyName::Lsc, config);

    let registry = Registry::new();
    let recorder = Arc::new(FlightRecorder::new(4, 256));
    let tracer = Tracer::new(
        &registry,
        bad_telemetry::null_sink(),
        recorder,
        TraceConfig {
            trace_sample_every_n: 1,
            ..TraceConfig::default()
        },
    );
    cluster.set_tracer(Arc::clone(&tracer));
    broker.attach_telemetry(
        &registry,
        Arc::clone(&tracer),
        bad_telemetry::Profiler::disabled(),
    );
    (cluster, broker, tracer)
}

fn publish(
    cluster: &mut DataCluster,
    secs: u64,
    kind: &str,
    body: usize,
) -> Vec<bad_cluster::Notification> {
    cluster
        .publish(
            "Reports",
            t(secs),
            DataValue::object([
                ("kind", DataValue::from(kind)),
                ("body", DataValue::from("x".repeat(body))),
            ]),
        )
        .unwrap()
}

/// All recorded spans of the (single) trace touching `kind`, grouped by
/// their shared `TraceId`.
fn spans_of_trace(spans: &[Span], kind: SpanKind) -> Vec<Span> {
    let anchor = spans
        .iter()
        .find(|s| s.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} span recorded"));
    spans
        .iter()
        .filter(|s| s.trace == anchor.trace)
        .copied()
        .collect()
}

#[test]
fn full_lifecycle_reconstructs_by_trace_id() {
    let (mut cluster, mut broker, tracer) = traced_setup(None);
    let alice = SubscriberId::new(1);
    let bob = SubscriberId::new(2);
    let fa = broker
        .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
        .unwrap();
    let fb = broker
        .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
        .unwrap();

    let n = publish(&mut cluster, 1, "fire", 100);
    assert_eq!(n.len(), 1);
    broker.on_notification(&mut cluster, n[0], t(2));
    broker.get_results(&mut cluster, alice, fa, t(3)).unwrap();
    // Bob is the last pending subscriber: his retrieval fully consumes
    // the object and releases it from the cache.
    broker.get_results(&mut cluster, bob, fb, t(4)).unwrap();

    let all = tracer.recorder().recent();
    let trace = spans_of_trace(&all, SpanKind::ResultProduced);

    // produce → insert → hit ×2 → fully-consumed, one trace.
    let produced = trace
        .iter()
        .find(|s| s.kind == SpanKind::ResultProduced)
        .unwrap();
    let insert = trace
        .iter()
        .find(|s| s.kind == SpanKind::CacheInsert)
        .unwrap();
    let hits: Vec<_> = trace
        .iter()
        .filter(|s| s.kind == SpanKind::RetrieveHit)
        .collect();
    let consumed = trace
        .iter()
        .find(|s| s.kind == SpanKind::FullyConsumed)
        .unwrap();

    assert_eq!(produced.parent, None, "produce is the root span");
    assert_eq!(
        insert.parent,
        Some(produced.span),
        "insert hangs off produce"
    );
    assert_eq!(hits.len(), 2, "one hit per subscriber");
    for hit in &hits {
        assert_eq!(hit.parent, Some(insert.span), "hits hang off the insert");
    }
    let mut hit_subs: Vec<u64> = hits.iter().map(|s| s.subscriber).collect();
    hit_subs.sort_unstable();
    assert_eq!(hit_subs, vec![alice.as_u64(), bob.as_u64()]);
    assert_eq!(consumed.parent, Some(insert.span));
    assert_eq!(consumed.drop_kind, "consume");

    // Every span agrees on the object identity, and ids are recomputed
    // identically by layers that never exchanged them.
    for span in &trace {
        assert_eq!(span.object, produced.object);
        assert_eq!(span.cache, produced.cache);
    }

    // Virtual-time ordering: produce (1s) ≤ insert (2s) ≤ hits ≤ consume.
    assert!(produced.t_us <= insert.t_us);
    assert!(insert.t_us <= hits.iter().map(|s| s.t_us).min().unwrap());
    assert!(hits.iter().map(|s| s.t_us).max().unwrap() <= consumed.t_us);
}

#[test]
fn cache_miss_traces_through_the_backend_fetch() {
    // A budget too small for even one object: the insert is refused, so
    // the retrieval misses and re-fetches from the durable store. The
    // miss is one record, carrying the modeled fetch latency.
    let (mut cluster, mut broker, tracer) = traced_setup(Some(ByteSize::new(8)));
    let alice = SubscriberId::new(1);
    let fa = broker
        .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
        .unwrap();
    let n = publish(&mut cluster, 1, "fire", 100);
    broker.on_notification(&mut cluster, n[0], t(2));
    let delivery = broker.get_results(&mut cluster, alice, fa, t(3)).unwrap();
    assert!(delivery.miss_objects >= 1, "expected a cache miss");

    let all = tracer.recorder().recent();
    let trace = spans_of_trace(&all, SpanKind::RetrieveMiss);
    let produced = trace
        .iter()
        .find(|s| s.kind == SpanKind::ResultProduced)
        .unwrap();
    let misses: Vec<_> = trace
        .iter()
        .filter(|s| s.kind == SpanKind::RetrieveMiss)
        .collect();
    assert_eq!(misses.len(), 1, "one record per missed object");
    let miss = misses[0];

    assert_eq!(miss.parent, Some(produced.span), "miss hangs off produce");
    assert_eq!(miss.subscriber, alice.as_u64());
    assert_eq!(miss.object, produced.object);
    let fetch_us = broker
        .net()
        .cluster_fetch_latency(ByteSize::new(miss.bytes))
        .as_micros();
    assert!(fetch_us > 0, "the backend fetch has a modeled latency");
    assert_eq!(miss.detail, fetch_us, "the miss carries its fetch latency");
}

#[test]
fn policy_eviction_records_the_victims_score() {
    // Measure one cached object, then set a budget that fits the first
    // object but not both — the second insert evicts the first.
    let one_object = {
        let (mut cluster, mut broker, _tracer) = traced_setup(None);
        broker
            .subscribe(
                &mut cluster,
                SubscriberId::new(1),
                "ByKind",
                params("fire"),
                t(0),
            )
            .unwrap();
        let n = publish(&mut cluster, 1, "fire", 100);
        broker.on_notification(&mut cluster, n[0], t(2));
        broker.cache().total_bytes()
    };
    assert!(one_object > ByteSize::ZERO);

    let (mut cluster, mut broker, tracer) = traced_setup(Some(ByteSize::new(
        one_object.as_u64() + one_object.as_u64() / 2,
    )));
    broker
        .subscribe(
            &mut cluster,
            SubscriberId::new(1),
            "ByKind",
            params("fire"),
            t(0),
        )
        .unwrap();
    let n = publish(&mut cluster, 1, "fire", 100);
    broker.on_notification(&mut cluster, n[0], t(2));
    let n = publish(&mut cluster, 10, "fire", 100);
    broker.on_notification(&mut cluster, n[0], t(11));

    let all = tracer.recorder().recent();
    let drop_span = all
        .iter()
        .find(|s| s.kind == SpanKind::Drop && s.drop_kind == "evict")
        .expect("an eviction drop span");
    assert_eq!(drop_span.policy, PolicyName::Lsc.as_str());
    assert!(
        drop_span.score.is_finite(),
        "victim φ/s score travels on the span"
    );
    // The evicted object is the first one; its trace also holds the
    // produce and insert spans.
    let trace = spans_of_trace(&all, SpanKind::Drop);
    assert!(trace.iter().any(|s| s.kind == SpanKind::ResultProduced));
    let insert = trace
        .iter()
        .find(|s| s.kind == SpanKind::CacheInsert)
        .unwrap();
    assert_eq!(drop_span.parent, Some(insert.span));
}
