//! End-to-end tests of the prototype deployments: the deterministic
//! full-stack harness and the threaded runtime.

use big_active_data::broker::BrokerConfig;
use big_active_data::cache::PolicyName;
use big_active_data::prelude::*;
use big_active_data::proto::harness::build_emergency_cluster;
use big_active_data::proto::ClientEvent;
use std::time::Duration;

#[test]
fn harness_prototype_replays_trace_for_all_policies() {
    let config = PrototypeConfig::smoke();
    let mut reports = Vec::new();
    for policy in [
        PolicyName::Nc,
        PolicyName::Lru,
        PolicyName::Lsc,
        PolicyName::Ttl,
    ] {
        let report = run_prototype(policy, &config, 11).unwrap();
        assert!(report.deliveries > 0, "{policy}: nothing delivered");
        reports.push(report);
    }
    // Same trace: identical publication counts and subscription shapes.
    for pair in reports.windows(2) {
        assert_eq!(pair[0].publications, pair[1].publications);
        assert_eq!(
            pair[0].frontend_subscriptions,
            pair[1].frontend_subscriptions
        );
    }
    // NC is the latency/fetch worst case.
    let nc = &reports[0];
    for cached in &reports[1..] {
        assert!(cached.hit_ratio > nc.hit_ratio);
        assert!(cached.mean_latency <= nc.mean_latency);
    }
}

#[test]
fn threaded_deployment_serves_many_clients() {
    let cluster = build_emergency_cluster().unwrap();
    let deployment = Deployment::start(
        PolicyName::Lsc,
        BrokerConfig::default(),
        cluster,
        50_000.0,
        Observability::detached(),
    );

    // Ten clients share one hot interest.
    let params = ParamBindings::from_pairs([("etype", DataValue::from("tornado"))]);
    let clients: Vec<_> = (0..10)
        .map(|i| {
            let client = deployment.client(SubscriberId::new(i));
            let fs = client
                .subscribe("EmergenciesOfType", params.clone())
                .unwrap();
            (client, fs)
        })
        .collect();

    deployment
        .publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("tornado")),
                ("severity", DataValue::from(5i64)),
                ("district", DataValue::from("district-2")),
            ]),
        )
        .unwrap();

    // Pump ticks until each client has been notified (compressed periods).
    let mut total = 0u64;
    for (i, (client, fs)) in clients.iter().enumerate() {
        let notified = (0..500).find_map(|_| {
            deployment.tick().unwrap();
            client.events.recv_timeout(Duration::from_millis(2)).ok()
        });
        let Some(ClientEvent::ResultsAvailable { frontend, .. }) = notified else {
            panic!("client {i} was not notified");
        };
        assert_eq!(frontend, *fs);
        total += client.get_results(*fs).unwrap().total_objects();
    }
    assert_eq!(total, 10, "each client received the tornado alert once");

    let (metrics, hit_ratio) = deployment.broker_metrics();
    assert_eq!(metrics.deliveries, 10);
    // One backend fetch, ten deliveries: the shared cache turned nine of
    // them into hits.
    assert!(hit_ratio > 0.85, "hit ratio {hit_ratio}");
    deployment.shutdown();
}

#[test]
fn threaded_deployment_survives_churny_clients() {
    let cluster = build_emergency_cluster().unwrap();
    let deployment = Deployment::start(
        PolicyName::Ttl,
        BrokerConfig::default(),
        cluster,
        50_000.0,
        Observability::detached(),
    );
    for i in 0..20u64 {
        let client = deployment.client(SubscriberId::new(i));
        let fs = client
            .subscribe(
                "SevereEmergencies",
                ParamBindings::from_pairs([("minsev", DataValue::from(1i64))]),
            )
            .unwrap();
        if i % 2 == 0 {
            client.unsubscribe(fs).unwrap();
        }
        // Half the clients disconnect immediately (handles dropped).
    }
    deployment
        .publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("fire")),
                ("severity", DataValue::from(3i64)),
                ("district", DataValue::from("district-0")),
            ]),
        )
        .unwrap();
    for _ in 0..50 {
        deployment.tick().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    deployment.shutdown();
}
