//! Property tests of the broker's bookkeeping under random
//! subscribe/unsubscribe/publish/retrieve interleavings:
//!
//! * frontends with equal `(channel, params)` always share one backend,
//! * the cluster's subscription count equals the broker's backend count,
//! * cache manager caches exist exactly for live backends,
//! * retrieval is exactly-once: the same object is never delivered twice
//!   to the same frontend subscription.

use std::collections::HashMap;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::PolicyName;
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_types::{ByteSize, DataValue, FrontendSubId, SimDuration, SubscriberId, Timestamp};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Subscribe { sub: u64, kind: u8 },
    Unsubscribe { nth: usize },
    Publish { kind: u8 },
    Retrieve { nth: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..6, 0u8..4).prop_map(|(sub, kind)| Op::Subscribe { sub, kind }),
        1 => (0usize..64).prop_map(|nth| Op::Unsubscribe { nth }),
        3 => (0u8..4).prop_map(|kind| Op::Publish { kind }),
        3 => (0usize..64).prop_map(|nth| Op::Retrieve { nth }),
    ]
}

fn kind_name(kind: u8) -> &'static str {
    ["fire", "flood", "quake", "storm"][kind as usize % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn broker_invariants_under_random_interleavings(
        ops in prop::collection::vec(arb_op(), 1..80),
        policy in prop::sample::select(vec![
            PolicyName::Lru,
            PolicyName::Lsc,
            PolicyName::Ttl,
            PolicyName::Nc,
        ]),
    ) {
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
        // Exactly-once tracking: per frontend, count of delivered objects.
        let mut delivered: HashMap<FrontendSubId, u64> = HashMap::new();
        let mut now = Timestamp::ZERO;

        for op in &ops {
            now += SimDuration::from_secs(1);
            match *op {
                Op::Subscribe { sub, kind } => {
                    let subscriber = SubscriberId::new(sub);
                    let params = ParamBindings::from_pairs([
                        ("kind", DataValue::from(kind_name(kind))),
                    ]);
                    let fs = broker
                        .subscribe(&mut cluster, subscriber, "ByKind", params, now)
                        .unwrap();
                    // Subscribing is idempotent per (subscriber, params).
                    if !live.contains(&(subscriber, fs)) {
                        live.push((subscriber, fs));
                    }
                }
                Op::Unsubscribe { nth } => {
                    if live.is_empty() { continue; }
                    let (subscriber, fs) = live.remove(nth % live.len());
                    broker.unsubscribe(&mut cluster, subscriber, fs, now).unwrap();
                    delivered.remove(&fs);
                }
                Op::Publish { kind } => {
                    let record = DataValue::object([
                        ("kind", DataValue::from(kind_name(kind))),
                        ("pad", DataValue::from("x".repeat(64))),
                    ]);
                    for n in cluster.publish("Reports", now, record).unwrap() {
                        broker.on_notification(&mut cluster, n, now);
                    }
                }
                Op::Retrieve { nth } => {
                    if live.is_empty() { continue; }
                    let (subscriber, fs) = live[nth % live.len()];
                    let delivery =
                        broker.get_results(&mut cluster, subscriber, fs, now).unwrap();
                    *delivered.entry(fs).or_insert(0) += delivery.total_objects();
                }
            }

            // --- invariants ------------------------------------------------
            let subs = broker.subscriptions();
            prop_assert_eq!(subs.frontend_count(), live.len());
            prop_assert_eq!(subs.backend_count(), cluster.subscription_count());
            prop_assert_eq!(subs.backend_count(), broker.cache().cache_count());
            // Merging: frontends with equal params share backends.
            let mut key_to_backend: HashMap<String, bad_types::BackendSubId> =
                HashMap::new();
            for &(_, fs) in &live {
                let frontend = subs.frontend(fs).unwrap();
                let backend = subs.backend(frontend.backend).unwrap();
                let key = backend.params.canonical_key();
                if let Some(expected) = key_to_backend.get(&key) {
                    prop_assert_eq!(*expected, backend.id);
                } else {
                    key_to_backend.insert(key, backend.id);
                }
            }
            // Eviction policies stay within budget.
            if matches!(policy, PolicyName::Lru | PolicyName::Lsc) {
                prop_assert!(broker.cache().total_bytes() <= broker.cache().budget());
            }
        }

        // Exactly-once: drain everything, then re-retrieving yields zero.
        for &(subscriber, fs) in &live {
            let _ = broker.get_results(&mut cluster, subscriber, fs, now).unwrap();
            let again = broker
                .get_results(&mut cluster, subscriber, fs, now + SimDuration::from_secs(1))
                .unwrap();
            prop_assert_eq!(again.total_objects(), 0, "double delivery on {}", fs);
        }
    }
}
