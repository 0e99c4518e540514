//! Property tests of the broker's bookkeeping under random
//! subscribe/unsubscribe/publish/retrieve interleavings:
//!
//! * frontends with equal `(channel, params)` always share one backend,
//! * the cluster's subscription count equals the broker's backend count,
//! * cache manager caches exist exactly for live backends,
//! * retrieval is exactly-once: every frontend subscription is
//!   delivered each result published on its kind since it was made,
//!   once — whether it is retrieved alone (`get_results`) or with all
//!   of its subscriber's others (`get_all_pending`).
//!
//! `CASES` generated interleavings, one seeded [`Rng`] per case; a
//! failing case names its seed.

use std::collections::HashMap;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::PolicyName;
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_types::rng::Rng;
use bad_types::{ByteSize, DataValue, FrontendSubId, SimDuration, SubscriberId, Timestamp};

const CASES: u64 = 48;

#[derive(Clone, Debug)]
enum Op {
    Subscribe { sub: u64, kind: u8 },
    Unsubscribe { nth: usize },
    Publish { kind: u8 },
    Retrieve { nth: usize },
    RetrieveAll { sub: u64 },
}

/// One op, weighted Subscribe 3, Unsubscribe 1, Publish 3, Retrieve 3,
/// RetrieveAll 2.
fn op(rng: &mut Rng) -> Op {
    match rng.below(12) {
        0..=2 => Op::Subscribe {
            sub: rng.below(6),
            kind: rng.below(4) as u8,
        },
        3 => Op::Unsubscribe {
            nth: rng.below(64) as usize,
        },
        4..=6 => Op::Publish {
            kind: rng.below(4) as u8,
        },
        7..=9 => Op::Retrieve {
            nth: rng.below(64) as usize,
        },
        _ => Op::RetrieveAll { sub: rng.below(6) },
    }
}

fn kind_name(kind: u8) -> &'static str {
    ["fire", "flood", "quake", "storm"][kind as usize % 4]
}

#[test]
fn broker_invariants_under_random_interleavings() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let ops: Vec<Op> = (0..rng.range(1, 79)).map(|_| op(&mut rng)).collect();
        let policies = [
            PolicyName::Lru,
            PolicyName::Lsc,
            PolicyName::Ttl,
            PolicyName::Nc,
        ];
        let policy = policies[rng.below(4) as usize];
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        let mut config = BrokerConfig::default();
        config.cache.budget = ByteSize::from_kib(4);
        let mut broker = Broker::new(policy, config);

        // Live frontend subscriptions: (owner, fs).
        let mut live: Vec<(SubscriberId, FrontendSubId)> = Vec::new();
        // Exactly-once tracking, per frontend: objects delivered, and
        // objects published on its kind since it was made.
        let mut delivered: HashMap<FrontendSubId, u64> = HashMap::new();
        let mut owed: HashMap<FrontendSubId, u64> = HashMap::new();
        let mut kind_of: HashMap<FrontendSubId, u8> = HashMap::new();
        let mut now = Timestamp::ZERO;

        for op in &ops {
            now += SimDuration::from_secs(1);
            match *op {
                Op::Subscribe { sub, kind } => {
                    let subscriber = SubscriberId::new(sub);
                    let params =
                        ParamBindings::from_pairs([("kind", DataValue::from(kind_name(kind)))]);
                    let fs = broker
                        .subscribe(&mut cluster, subscriber, "ByKind", params, now)
                        .unwrap();
                    // Subscribing is idempotent per (subscriber, params).
                    if !live.contains(&(subscriber, fs)) {
                        live.push((subscriber, fs));
                        kind_of.insert(fs, kind);
                    }
                }
                Op::Unsubscribe { nth } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (subscriber, fs) = live.remove(nth % live.len());
                    broker
                        .unsubscribe(&mut cluster, subscriber, fs, now)
                        .unwrap();
                    let (got, due) = (delivered.remove(&fs), owed.remove(&fs));
                    assert!(got.unwrap_or(0) <= due.unwrap_or(0), "seed {seed}: {fs}");
                    kind_of.remove(&fs);
                }
                Op::Publish { kind } => {
                    let record = DataValue::object([
                        ("kind", DataValue::from(kind_name(kind))),
                        ("pad", DataValue::from("x".repeat(64))),
                    ]);
                    for n in cluster.publish("Reports", now, record).unwrap() {
                        broker.on_notification(&mut cluster, n, now);
                    }
                    for (fs, _) in kind_of.iter().filter(|&(_, &k)| k == kind) {
                        *owed.entry(*fs).or_insert(0) += 1;
                    }
                }
                Op::Retrieve { nth } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (subscriber, fs) = live[nth % live.len()];
                    let delivery = broker
                        .get_results(&mut cluster, subscriber, fs, now)
                        .unwrap();
                    *delivered.entry(fs).or_insert(0) += delivery.total_objects();
                }
                Op::RetrieveAll { sub } => {
                    let subscriber = SubscriberId::new(sub);
                    for delivery in broker
                        .get_all_pending(&mut cluster, subscriber, now)
                        .unwrap()
                    {
                        assert!(live.contains(&(subscriber, delivery.frontend)));
                        *delivered.entry(delivery.frontend).or_insert(0) +=
                            delivery.total_objects();
                    }
                }
            }

            // --- invariants ------------------------------------------------
            let subs = broker.subscriptions();
            assert_eq!(subs.frontend_count(), live.len(), "seed {seed}");
            assert_eq!(
                subs.backend_count(),
                cluster.subscription_count(),
                "seed {seed}"
            );
            assert_eq!(
                subs.backend_count(),
                broker.cache().cache_count(),
                "seed {seed}"
            );
            // Merging: frontends with equal params share backends.
            let mut key_to_backend: HashMap<String, bad_types::BackendSubId> = HashMap::new();
            for &(_, fs) in &live {
                let frontend = subs.frontend(fs).unwrap();
                let backend = subs.backend(frontend.backend).unwrap();
                let key = backend.params.canonical_key();
                if let Some(expected) = key_to_backend.get(&key) {
                    assert_eq!(*expected, backend.id, "seed {seed}");
                } else {
                    key_to_backend.insert(key, backend.id);
                }
            }
            // Eviction policies stay within budget.
            if matches!(policy, PolicyName::Lru | PolicyName::Lsc) {
                assert!(
                    broker.cache().total_bytes() <= broker.cache().budget(),
                    "seed {seed}"
                );
            }
        }

        // Exactly-once: drain everything, then re-retrieving yields zero.
        for &(subscriber, fs) in &live {
            let last = broker
                .get_results(&mut cluster, subscriber, fs, now)
                .unwrap();
            *delivered.entry(fs).or_insert(0) += last.total_objects();
            assert_eq!(
                delivered.get(&fs).copied().unwrap_or(0),
                owed.get(&fs).copied().unwrap_or(0),
                "seed {seed}: {fs} was not delivered what it is owed"
            );
            let again = broker
                .get_results(
                    &mut cluster,
                    subscriber,
                    fs,
                    now + SimDuration::from_secs(1),
                )
                .unwrap();
            assert_eq!(
                again.total_objects(),
                0,
                "seed {seed}: double delivery on {fs}"
            );
        }
    }
}
