//! The seeded executor: a schedule is a function of its seed (and the
//! seed picks it), virtual time moves only when every actor waits, and a
//! wait nothing can end is a named deadlock, not a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use bad_broker::{BrokerConfig, Observability};
use bad_cache::PolicyName;
use bad_proto::harness::build_emergency_cluster;
use bad_proto::{Deployment, Exec};
use bad_query::ParamBindings;
use bad_types::{DataValue, SimDuration, SubscriberId, Timestamp};

#[test]
fn a_recv_nothing_can_satisfy_panics_as_a_deadlock() {
    let exec = Exec::seeded(7);
    let (idle_tx, idle_rx) = exec.channel::<()>();
    let _idle = exec.spawn("idle", move || {
        let _ = idle_rx.recv();
    });
    let (_tx, rx) = exec.channel::<()>();
    let err = catch_unwind(AssertUnwindSafe(|| rx.recv())).unwrap_err();
    let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(message.contains("Exec::seeded(7)"), "{message}");
    assert!(message.contains("main, idle blocked"), "{message}");
    drop(idle_tx);
}

#[test]
fn virtual_time_jumps_to_the_earliest_sleeper() {
    for seed in 0..64 {
        let exec = Exec::seeded(seed);
        let (tx, rx) = exec.channel();
        let sleeper = exec.clone();
        let actor = exec.spawn("sleeper", move || {
            sleeper.sleep(SimDuration::from_secs(3));
            tx.send(sleeper.now()).unwrap();
        });
        assert_eq!(rx.recv_timeout(SimDuration::from_secs(1)), None);
        assert_eq!(exec.now(), Timestamp::from_secs(1), "seed {seed}");
        assert_eq!(rx.recv(), Some(Timestamp::from_secs(3)), "seed {seed}");
        assert!(matches!(actor.recv(), Some(Ok(()))), "seed {seed}");
        assert_eq!(rx.recv(), None, "seed {seed}: the sender is gone");
    }
}

/// Four client actors on two interests retrieve every push they get
/// while the calling actor publishes and ticks: the `(time, subscriber,
/// delivery)` sequence, in the order the retrievals returned.
fn deliveries(seed: u64) -> Vec<(Timestamp, u64, Option<bad_broker::Delivery>)> {
    let cluster = build_emergency_cluster().unwrap();
    let exec = Exec::seeded(seed);
    let dep = Deployment::start(
        PolicyName::Lru,
        BrokerConfig::default(),
        cluster,
        exec.clone(),
        Observability::detached(),
    );
    let log = Arc::new(Mutex::new(Vec::new()));
    let kinds = ["flood", "fire"];
    let clients: Vec<_> = (0..4u64)
        .map(|i| {
            let (events_tx, events) = exec.channel();
            let client = dep.client(SubscriberId::new(i), &events_tx);
            let (exec, log) = (exec.clone(), Arc::clone(&log));
            exec.clone().spawn(&format!("client-{i}"), move || {
                let interest = [("etype", DataValue::from(kinds[i as usize % 2]))];
                let interest = ParamBindings::from_pairs(interest);
                client
                    .subscribe("EmergenciesOfType", interest, exec.now())
                    .unwrap();
                while let Some(event) = events.recv_timeout(SimDuration::from_secs(60)) {
                    let delivery = client.get_results(event.frontend, exec.now()).unwrap();
                    log.lock().unwrap().push((exec.now(), i, delivery));
                }
            })
        })
        .collect();
    for round in 0..20 {
        let report = DataValue::object([
            ("kind", DataValue::from(kinds[round % 2])),
            ("severity", DataValue::from(3i64)),
            ("district", DataValue::from("district-1")),
        ]);
        dep.publish("EmergencyReports", exec.now(), report).unwrap();
        dep.tick(exec.now()).unwrap();
        exec.sleep(SimDuration::from_secs(5));
    }
    for client in clients {
        assert!(matches!(client.recv(), Some(Ok(()))));
    }
    dep.shutdown();
    let log = log.lock().unwrap().clone();
    log
}

#[test]
fn one_seed_replays_one_delivery_sequence() {
    let mut schedules = Vec::new();
    for seed in 0..64 {
        let first = deliveries(seed);
        assert!(first.iter().any(|(_, _, d)| d.is_some()), "seed {seed}");
        assert_eq!(first, deliveries(seed), "seed {seed} replayed differently");
        schedules.push(first);
    }
    // And the seed is what decides: the interleavings differ.
    assert!(schedules.iter().any(|s| *s != schedules[0]));
}

#[test]
fn shutdown_waits_for_the_brokers_queued_round_trips() {
    for seed in 0..64 {
        let exec = Exec::seeded(seed);
        let cluster = build_emergency_cluster().unwrap();
        let config = BrokerConfig::default();
        let dep = Deployment::start(
            PolicyName::Lsc,
            config,
            cluster,
            exec.clone(),
            Observability::detached(),
        );
        let (events_tx, _events) = exec.channel();
        let flood = ParamBindings::from_pairs([("etype", DataValue::from("flood"))]);
        let alice = dep.client(SubscriberId::new(1), &events_tx);
        alice
            .subscribe("EmergenciesOfType", flood, exec.now())
            .unwrap();
        let report = DataValue::object([("kind", DataValue::from("flood"))]);
        dep.publish("EmergencyReports", exec.now(), report).unwrap();
        exec.sleep(SimDuration::from_secs(10));
        // The notification's pull-in, a cluster round trip, is still
        // queued on the broker when the nodes are stopped.
        assert_eq!(dep.tick(exec.now()).unwrap(), 1, "seed {seed}");
        if catch_unwind(AssertUnwindSafe(|| dep.shutdown())).is_err() {
            panic!("shutdown failed on Exec::seeded({seed})");
        }
    }
}
