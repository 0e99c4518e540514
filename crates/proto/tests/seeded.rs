//! The seeded executor: a schedule is a function of its seed (and the
//! seed picks it), virtual time moves only when every actor waits, a
//! wait nothing can end is a named deadlock, not a hang, and a node
//! runs one job at a time.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use bad_broker::{BrokerConfig, Observability};
use bad_cache::PolicyName;
use bad_proto::harness::build_emergency_cluster;
use bad_proto::{Deployment, Exec};
use bad_query::ParamBindings;
use bad_types::{BadError, DataValue, SimDuration, SubscriberId, Timestamp};

fn deployment(exec: &Exec) -> Deployment {
    let cluster = build_emergency_cluster().unwrap();
    Deployment::start(
        PolicyName::Lsc,
        BrokerConfig::default(),
        cluster,
        exec.clone(),
        Observability::detached(),
    )
}

fn etype(kind: &str) -> ParamBindings {
    ParamBindings::from_pairs([("etype", DataValue::from(kind))])
}

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
fn tick_returns_after_its_notifications_pull_in() {
    let rtt = BrokerConfig::default().net.cluster.rtt;
    for seed in 0..64 {
        let exec = Exec::seeded(seed);
        let dep = deployment(&exec);
        let (events_tx, _events) = exec.channel();
        let alice = dep.client(SubscriberId::new(1), &events_tx);
        alice
            .subscribe("EmergenciesOfType", etype("flood"), exec.now())
            .unwrap();
        let report = DataValue::object([("kind", DataValue::from("flood"))]);
        dep.publish("EmergencyReports", exec.now(), report).unwrap();
        exec.sleep(SimDuration::from_secs(10));
        let ticked = exec.now();
        assert_eq!(dep.tick(ticked).unwrap(), 1, "seed {seed}");
        // The notification's pull-in, a cluster round trip, ran before
        // the tick returned.
        assert!(exec.now() >= ticked + rtt, "seed {seed}");
        let cache = dep.broker_stats().unwrap().cache;
        assert_eq!(cache.inserted_objects, 1, "seed {seed}");
    }
}

/// Runs `scenario` on a thread of its own and fails if it has not
/// returned within a wall-clock minute. A node that lets a second job in
/// while a first is held blocks the seeded executor's running actor on
/// the state's mutex: a hang, not a deadlock the executor can name.
fn within_a_minute(scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done) = mpsc::channel();
    let runner = thread::spawn(move || {
        scenario();
        let _ = done_tx.send(());
    });
    // A panicking scenario drops the sender, which ends the wait too.
    let waited = done.recv_timeout(Duration::from_secs(60));
    assert!(
        !matches!(waited, Err(RecvTimeoutError::Timeout)),
        "hung for a minute"
    );
    if let Err(panic) = runner.join() {
        resume_unwind(panic);
    }
}

/// Two client actors each subscribe to a new backend at t = 0. The
/// broker node is held across each one's cluster round trip, so one call
/// returns after one RTT and the other after two.
#[test]
fn the_broker_node_runs_one_call_at_a_time() {
    let rtt = BrokerConfig::default().net.cluster.rtt;
    within_a_minute(move || {
        for seed in 0..64 {
            let exec = Exec::seeded(seed);
            let dep = deployment(&exec);
            let (events_tx, _events) = exec.channel();
            let (returned_tx, returns) = exec.channel();
            let callers: Vec<_> = (["flood", "fire"].into_iter().enumerate())
                .map(|(i, kind)| {
                    let client = dep.client(SubscriberId::new(i as u64), &events_tx);
                    let (exec, returned_tx) = (exec.clone(), returned_tx.clone());
                    exec.clone().spawn(&format!("client-{i}"), move || {
                        (client.subscribe("EmergenciesOfType", etype(kind), Timestamp::ZERO))
                            .unwrap();
                        returned_tx.send(exec.now()).unwrap();
                    })
                })
                .collect();
            drop(returned_tx);
            let mut returned: Vec<_> = std::iter::from_fn(|| returns.recv()).collect();
            returned.sort();
            let expected = [Timestamp::ZERO + rtt, Timestamp::ZERO + rtt * 2];
            assert_eq!(returned, expected, "seed {seed}");
            for caller in callers {
                assert!(matches!(caller.recv(), Some(Ok(()))), "seed {seed}");
            }
        }
    });
}

/// A job that panics stops its node: the caller parked behind it is
/// woken and told so, rather than left to deadlock.
#[test]
fn a_panicked_job_stops_the_node_and_wakes_its_waiters() {
    for seed in 0..64 {
        let exec = Exec::seeded(seed);
        let node = exec.node(0u64);
        let (held, clock) = (node.clone(), exec.clone());
        let holder = exec.spawn("holder", move || {
            let _ = held.with(|_| {
                clock.sleep(SimDuration::from_secs(2));
                panic!("the job fails");
            });
        });
        exec.sleep(SimDuration::from_secs(1));
        let stopped = node.with(|count| *count);
        assert!(
            matches!(&stopped, Err(BadError::InvalidState(m)) if m == "node stopped"),
            "seed {seed}: {stopped:?}"
        );
        assert_eq!(exec.now(), Timestamp::from_secs(2), "seed {seed}");
        assert!(matches!(holder.recv(), Some(Err(_))), "seed {seed}");
    }
}
