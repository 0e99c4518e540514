//! Scrape-endpoint smoke test: boots an *observed* deployment (live
//! lifecycle tracer, continuous health engine) on OS threads
//! (`Exec::threads`), drives one publish → notify → retrieve round
//! through it, then scrapes
//! `/metrics`, `/healthz`, `/trace/recent` (including its `?limit=`
//! cap), `/timeseries`, `/alerts` and `/hot` over a real TCP socket
//! like Prometheus would — and checks that an unknown path gets a JSON
//! 404 and malformed request lines a clean 400. A second test
//! checks that `/healthz` answers while the broker is stuck in a cluster
//! round trip.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use bad_broker::{BrokerConfig, Observability};
use bad_cache::PolicyName;
use bad_proto::harness::build_emergency_cluster;
use bad_proto::{Deployment, Exec};
use bad_query::ParamBindings;
use bad_telemetry::TraceConfig;
use bad_types::{DataValue, SimDuration, SubscriberId};

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// Sends raw bytes (possibly not valid HTTP) and returns whatever the
/// server answers, tolerating an early reset after the response.
fn http_raw(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(request).expect("write request");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn observed_deployment_serves_metrics_health_and_traces() {
    let cluster = build_emergency_cluster().unwrap();
    let config = BrokerConfig {
        shards: 2,
        ..BrokerConfig::default()
    };
    let dep = Deployment::start(
        PolicyName::Lsc,
        config,
        cluster,
        Exec::threads(100_000.0),
        Observability::full(bad_telemetry::null_sink(), TraceConfig::default()),
    );

    let (events_tx, events) = dep.exec().channel();
    let alice = dep.client(SubscriberId::new(1), &events_tx);
    let fs = alice
        .subscribe(
            "EmergenciesOfType",
            ParamBindings::from_pairs([("etype", DataValue::from("flood"))]),
            dep.exec().now(),
        )
        .unwrap();
    dep.publish(
        "EmergencyReports",
        dep.exec().now(),
        DataValue::object([
            ("kind", DataValue::from("flood")),
            ("severity", DataValue::from(3i64)),
            ("district", DataValue::from("district-1")),
        ]),
    )
    .unwrap();
    let notified = (0..200).any(|_| {
        dep.tick(dep.exec().now()).unwrap();
        dep.maintain(dep.exec().now());
        // A virtual minute: 0.6 ms of wall time.
        events.recv_timeout(SimDuration::from_mins(1)).is_some()
    });
    assert!(notified, "client was not notified");
    let delivery = alice
        .get_results(fs, dep.exec().now())
        .unwrap()
        .expect("results are owed");
    assert!(delivery.total_objects() >= 1);
    // One more maintenance pass folds the broker thread's profiler ring
    // (the retrieval stages above) into the global aggregates; the
    // stats round trip rendezvouses with the broker node so the flush
    // has definitely happened before the scrape below.
    dep.maintain(dep.exec().now());
    let _ = dep.broker_stats().unwrap();

    let server = dep
        .serve_scrape("127.0.0.1:0")
        .expect("bind scrape endpoint");
    let addr = server.local_addr();

    // /metrics: Prometheus text with the span-counter family, the SLO
    // counters and the pre-existing cache counters, all on one registry.
    let metrics = http_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.contains("text/plain"), "{metrics}");
    assert!(
        metrics.contains("bad_trace_spans_total{kind=\"result_produced\"}"),
        "missing produced-span counter:\n{metrics}"
    );
    assert!(
        metrics.contains("bad_trace_spans_total{kind=\"cache_insert\"}"),
        "missing insert-span counter:\n{metrics}"
    );
    assert!(metrics.contains("bad_delivery_latency_slo_violations_total"));
    assert!(metrics.contains("bad_staleness_slo_violations_total"));
    assert!(metrics.contains("bad_cache_hit_objects_total"));
    // The profiler publishes its stage/lock series on the same registry,
    // and the build-info gauge identifies what is running.
    assert!(
        metrics.contains("bad_profile_stage_ns_count{stage=\"insert\"}"),
        "missing insert stage histogram:\n{metrics}"
    );
    assert!(
        metrics.contains("bad_profile_lock_acquisitions_total{site=\"cache_shard0\"}"),
        "missing shard lock site:\n{metrics}"
    );
    assert!(
        metrics.contains("bad_build_info{") && metrics.contains("version=\""),
        "missing build-info gauge:\n{metrics}"
    );
    assert!(
        metrics.contains("policy=\"LSC\"") && metrics.contains("profile=\"on\""),
        "build-info labels incomplete:\n{metrics}"
    );
    assert!(
        metrics.contains("sketches=\"on\""),
        "observed deployments default the sketches on:\n{metrics}"
    );
    assert!(metrics.contains("bad_proto_cluster_inflight_rpcs"));

    // /healthz: per-shard occupancy plus the continuous-health summary
    // (alert counts and model-drift score) from the health engine.
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"shards\":2"), "{health}");
    assert!(health.contains("\"shard_occupancy\":["), "{health}");
    assert!(health.contains("\"budget_bytes\""), "{health}");
    assert!(health.contains("\"health\":{"), "{health}");
    assert!(health.contains("\"firing\""), "{health}");
    assert!(health.contains("\"drift_score\""), "{health}");
    // Build info and the profiler's top-contended summary ride the
    // same body.
    assert!(health.contains("\"build\":{"), "{health}");
    assert!(health.contains("\"policy\":\"LSC\""), "{health}");
    assert!(health.contains("\"profile\":\"on\""), "{health}");
    assert!(health.contains("\"top_contended\":["), "{health}");
    // The sketches' top-5 summary rides the same body: the "who is
    // eating the cache" answer from one probe.
    assert!(health.contains("\"hot\":{"), "{health}");
    assert!(health.contains("\"top_requests\":["), "{health}");
    assert!(health.contains("\"distinct_active_estimate\""), "{health}");

    // /profile: the continuous profiler's folded-stack stage tree and
    // per-site lock breakdown, served over real TCP. The retrieval
    // above guarantees at least the insert and get_all_pending
    // envelopes have samples.
    let profile = http_get(addr, "/profile");
    assert!(profile.starts_with("HTTP/1.1 200"), "{profile}");
    assert!(profile.contains("application/json"), "{profile}");
    assert!(profile.contains("\"enabled\":true"), "{profile}");
    assert!(profile.contains("\"folded\":["), "{profile}");
    assert!(
        profile.contains("\"insert "),
        "no insert envelope in folded stacks:\n{profile}"
    );
    assert!(
        profile.contains("get_all_pending"),
        "no retrieval envelope:\n{profile}"
    );
    assert!(profile.contains("\"stages\":["), "{profile}");
    assert!(profile.contains("\"locks\":["), "{profile}");
    assert!(
        profile.contains("\"site\":\"cache_shard0\""),
        "no shard lock site:\n{profile}"
    );

    // /policies is not a route: it gets the JSON 404 that every unknown
    // path gets.
    let policies = http_get(addr, "/policies");
    assert!(policies.starts_with("HTTP/1.1 404"), "{policies}");
    assert!(
        policies.ends_with(r#"{"error":"not found","path":"/policies"}"#),
        "{policies}"
    );

    // /trace/recent: the flight recorder saw the lifecycle (at minimum
    // the produced-result root spans and the cache inserts).
    let traces = http_get(addr, "/trace/recent");
    assert!(traces.starts_with("HTTP/1.1 200"), "{traces}");
    assert!(
        traces.contains("\"kind\":\"result_produced\""),
        "no produced spans in:\n{traces}"
    );
    assert!(
        traces.contains("\"kind\":\"cache_insert\""),
        "no insert spans in:\n{traces}"
    );
    assert!(
        traces.contains("\"kind\":\"retrieve_hit\""),
        "no hit spans in:\n{traces}"
    );
    // `?limit=` caps the span dump to the most recent spans; a bogus
    // value falls back to the default rather than erroring.
    let limited = http_get(addr, "/trace/recent?limit=1");
    assert!(limited.starts_with("HTTP/1.1 200"), "{limited}");
    let spans = limited.matches("\"kind\":").count();
    assert!(spans <= 1, "limit=1 returned {spans} spans:\n{limited}");
    let bogus = http_get(addr, "/trace/recent?limit=banana");
    assert!(bogus.starts_with("HTTP/1.1 200"), "{bogus}");

    // /hot: sketch-based heavy-hitter attribution, on by default in
    // observed deployments — all four axes, the distinct-active
    // estimate and the skew gauge, with at least one attributed key
    // from the retrieval above.
    let hot = http_get(addr, "/hot");
    assert!(hot.starts_with("HTTP/1.1 200"), "{hot}");
    assert!(hot.contains("application/json"), "{hot}");
    assert!(hot.contains("\"totals\":{"), "{hot}");
    assert!(hot.contains("\"top\":{"), "{hot}");
    assert!(hot.contains("\"requests\":["), "{hot}");
    assert!(hot.contains("\"bytes\":["), "{hot}");
    assert!(hot.contains("\"misses\":["), "{hot}");
    assert!(hot.contains("\"slo_violations\":["), "{hot}");
    assert!(hot.contains("\"distinct_active_estimate\""), "{hot}");
    assert!(hot.contains("\"skew_top_k\""), "{hot}");
    assert!(hot.contains("\"lag_us\":["), "{hot}");
    assert!(
        hot.contains("\"key\":"),
        "no attributed keys after a delivery:\n{hot}"
    );

    // /timeseries: the windowed history ring as JSON. The short run
    // may not have crossed a window boundary yet, so assert the
    // always-present envelope rather than window contents.
    let ts = http_get(addr, "/timeseries");
    assert!(ts.starts_with("HTTP/1.1 200"), "{ts}");
    assert!(ts.contains("application/json"), "{ts}");
    assert!(ts.contains("\"window_us\":60000000"), "{ts}");
    assert!(ts.contains("\"capacity\""), "{ts}");
    assert!(ts.contains("\"series\":["), "{ts}");
    assert!(ts.contains("\"samples\":["), "{ts}");

    // /alerts: every registered burn-rate and drift rule reports a
    // state from the moment the engine boots.
    let alerts = http_get(addr, "/alerts");
    assert!(alerts.starts_with("HTTP/1.1 200"), "{alerts}");
    assert!(alerts.contains("application/json"), "{alerts}");
    assert!(alerts.contains("\"rules\":["), "{alerts}");
    assert!(
        alerts.contains("\"rule\":\"delivery_latency_burn\""),
        "{alerts}"
    );
    assert!(alerts.contains("\"rule\":\"staleness_burn\""), "{alerts}");
    assert!(alerts.contains("\"rule\":\"model_drift\""), "{alerts}");
    assert!(alerts.contains("\"state\":"), "{alerts}");
    assert!(alerts.contains("\"transitions\":["), "{alerts}");

    // Unknown paths 404 instead of crashing the endpoint.
    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    // Malformed and oversized request lines get a 400 with a JSON
    // body — not a silently dropped connection.
    let garbage = http_raw(addr, b"BOGUS-LINE-WITHOUT-METHOD\r\n\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
    assert!(garbage.contains("application/json"), "{garbage}");
    let mut big = Vec::from(&b"GET /"[..]);
    big.extend(std::iter::repeat_n(b'a', 8 * 1024));
    big.extend(b" HTTP/1.1\r\n\r\n");
    let oversized = http_raw(addr, &big);
    assert!(oversized.starts_with("HTTP/1.1 400"), "{oversized}");

    server.shutdown();
    dep.shutdown();
}

/// A stalled cluster must not stall the health probe: with the broker
/// thread inside cluster round trips (500 ms each at compression 1),
/// `/healthz` still answers at once, because it reads only shared state
/// and never queues behind the broker.
#[test]
fn healthz_answers_while_the_broker_waits_on_the_cluster() {
    let cluster = build_emergency_cluster().unwrap();
    let dep = Deployment::start(
        PolicyName::Lsc,
        BrokerConfig::default(),
        cluster,
        Exec::threads(1.0),
        Observability::detached(),
    );
    let rtt = BrokerConfig::default().net.cluster.rtt;
    let server = dep
        .serve_scrape("127.0.0.1:0")
        .expect("bind scrape endpoint");
    let addr = server.local_addr();

    // Two new backend subscriptions: each holds the broker thread for
    // one cluster round trip, so the broker is busy from ≈ 0 ms to
    // ≈ 1000 ms.
    let (events_tx, _events) = dep.exec().channel();
    let subscribers: Vec<_> = ["flood", "fire"]
        .into_iter()
        .enumerate()
        .map(|(i, etype)| {
            let client = dep.client(SubscriberId::new(i as u64 + 1), &events_tx);
            let exec = dep.exec().clone();
            thread::spawn(move || {
                client
                    .subscribe(
                        "EmergenciesOfType",
                        ParamBindings::from_pairs([("etype", DataValue::from(etype))]),
                        exec.now(),
                    )
                    .unwrap()
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(400));

    let started = Instant::now();
    let health = http_get(addr, "/healthz");
    let elapsed = started.elapsed();
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(
        elapsed.as_secs_f64() < rtt.as_secs_f64() / 2.0,
        "/healthz took {elapsed:?} with the broker in a {} ms cluster round trip",
        rtt.as_millis_f64()
    );

    for subscriber in subscribers {
        subscriber.join().unwrap();
    }
    server.shutdown();
    dep.shutdown();
}
