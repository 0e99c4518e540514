//! End-to-end tests of the prototype: the Fig. 7 trace replay and the
//! deployed nodes under seeded schedules.

use std::panic::{catch_unwind, AssertUnwindSafe};

use big_active_data::broker::BrokerConfig;
use big_active_data::cache::PolicyName;
use big_active_data::prelude::*;
use big_active_data::proto::harness::build_emergency_cluster;
use big_active_data::proto::Exec;

/// Runs `scenario` on 64 seeded schedules, naming the seed that fails.
fn on_seeds(scenario: impl Fn(Exec)) {
    for seed in 0..64 {
        if catch_unwind(AssertUnwindSafe(|| scenario(Exec::seeded(seed)))).is_err() {
            panic!("failed on Exec::seeded({seed})");
        }
    }
}

fn deployment(policy: PolicyName, exec: Exec) -> Deployment {
    let cluster = build_emergency_cluster().unwrap();
    Deployment::start(
        policy,
        BrokerConfig::default(),
        cluster,
        exec,
        Observability::detached(),
    )
}

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
    on_seeds(|exec| {
        let deployment = deployment(PolicyName::Lsc, exec);

        // Ten clients share one hot interest.
        let (events_tx, events) = deployment.exec().channel();
        let params = ParamBindings::from_pairs([("etype", DataValue::from("tornado"))]);
        let clients: Vec<_> = (0..10)
            .map(|i| {
                let client = deployment.client(SubscriberId::new(i), &events_tx);
                let fs = client
                    .subscribe("EmergenciesOfType", params.clone(), deployment.exec().now())
                    .unwrap();
                (client, fs)
            })
            .collect();

        deployment
            .publish(
                "EmergencyReports",
                deployment.exec().now(),
                DataValue::object([
                    ("kind", DataValue::from("tornado")),
                    ("severity", DataValue::from(5i64)),
                    ("district", DataValue::from("district-2")),
                ]),
            )
            .unwrap();

        // Tick once a virtual second until every client was pushed to.
        let mut pushed = Vec::new();
        for _ in 0..120 {
            if pushed.len() == clients.len() {
                break;
            }
            deployment.tick(deployment.exec().now()).unwrap();
            while let Some(event) = events.recv_timeout(SimDuration::from_secs(1)) {
                pushed.push(event);
            }
        }
        assert_eq!(pushed.len(), clients.len(), "one push per client");
        let mut total = 0u64;
        for event in pushed {
            let (client, fs) = &clients[event.subscriber.as_u64() as usize];
            assert_eq!(event.frontend, *fs);
            total += client
                .get_results(*fs, deployment.exec().now())
                .unwrap()
                .unwrap()
                .total_objects();
        }
        assert_eq!(total, 10, "each client received the tornado alert once");

        let stats = deployment.broker_stats().unwrap();
        assert_eq!(stats.delivery.deliveries, 10);
        // One backend fetch, ten deliveries: the shared cache turned nine of
        // them into hits.
        let hit_ratio = stats.cache.hit_ratio().unwrap();
        assert!(hit_ratio > 0.85, "hit ratio {hit_ratio}");
    });
}

#[test]
fn threaded_deployment_survives_churny_clients() {
    on_seeds(|exec| {
        let deployment = deployment(PolicyName::Ttl, exec);
        for i in 0..20u64 {
            // Every client disconnects at the end of its iteration: its
            // handle and its push channel are dropped.
            let (events_tx, _events) = deployment.exec().channel();
            let client = deployment.client(SubscriberId::new(i), &events_tx);
            let fs = client
                .subscribe(
                    "SevereEmergencies",
                    ParamBindings::from_pairs([("minsev", DataValue::from(1i64))]),
                    deployment.exec().now(),
                )
                .unwrap();
            if i % 2 == 0 {
                client.unsubscribe(fs, deployment.exec().now()).unwrap();
            }
        }
        deployment
            .publish(
                "EmergencyReports",
                deployment.exec().now(),
                DataValue::object([
                    ("kind", DataValue::from("fire")),
                    ("severity", DataValue::from(3i64)),
                    ("district", DataValue::from("district-0")),
                ]),
            )
            .unwrap();
        for _ in 0..50 {
            deployment.tick(deployment.exec().now()).unwrap();
            deployment.exec().sleep(SimDuration::from_secs(1));
        }
        let stats = deployment.broker_stats().unwrap();
        assert_eq!(stats.peak_backends, 1);
        assert_eq!(stats.delivery.deliveries, 0);
    });
}
