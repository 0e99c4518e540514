//! The fan-out list against the map it replaced: after every step of a
//! seeded subscribe / unsubscribe / re-subscribe churn over several
//! backends, each backend's `frontends` must equal a
//! `BTreeMap<FrontendSubId, SubscriberId>` model in keys, values and
//! length. Unsubscribing frees frontend slots and the next subscribe
//! takes the most recently freed one, so ids stop arriving in order.
//! Through the broker, every notification must also list exactly the
//! model's owners, in frontend id order.

use std::collections::BTreeMap;

use bad_broker::{Broker, BrokerConfig, SubscriptionTable};
use bad_cache::PolicyName;
use bad_cluster::{DataCluster, Notification};
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_types::rng::Rng;
use bad_types::{BackendSubId, ByteSize, DataValue, FrontendSubId, SubscriberId, Timestamp};

const STEPS: u64 = 12_000;
const SUBSCRIBERS: u64 = 40;
const KINDS: u64 = 5;

type Model = BTreeMap<BackendSubId, BTreeMap<FrontendSubId, SubscriberId>>;

fn params(kind: u64) -> ParamBindings {
    ParamBindings::from_pairs([("kind", DataValue::from(format!("k{kind}").as_str()))])
}

/// Every backend of the model, as the table lists it.
fn check_table(table: &SubscriptionTable, model: &Model, step: u64) {
    assert_eq!(table.backend_count(), model.len(), "step {step}");
    for (bs, want) in model {
        let got = &table.backend(*bs).expect("live backend").frontends;
        assert_eq!(got.len(), want.len(), "step {step}, {bs}");
        assert!(got.keys().eq(want.keys()), "step {step}, {bs}");
        assert!(got.values().eq(want.values()), "step {step}, {bs}");
        assert_eq!(got.is_empty(), want.is_empty(), "step {step}, {bs}");
    }
}

/// One churn step: subscribe `(sub, kind)` if it is not held,
/// unsubscribe it if it is (so a pair keeps coming back, each time
/// into whichever slot was freed last).
struct Churn {
    rng: Rng,
    held: BTreeMap<(u64, u64), FrontendSubId>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            held: BTreeMap::new(),
        }
    }

    /// The pair the next step toggles, and the frontend it holds.
    fn next(&mut self) -> ((u64, u64), Option<FrontendSubId>) {
        let pair = (self.rng.below(SUBSCRIBERS), self.rng.below(KINDS));
        (pair, self.held.get(&pair).copied())
    }
}

#[test]
fn table_frontends_equal_the_map_model_through_churn() {
    let mut table = SubscriptionTable::new();
    let mut model = Model::new();
    let mut churn = Churn::new(41);
    let mut backend_of_kind: BTreeMap<u64, BackendSubId> = BTreeMap::new();
    let mut next_backend = 0;
    let mut mid_inserts = 0;
    let now = Timestamp::ZERO;
    for step in 0..STEPS {
        let ((sub, kind), held) = churn.next();
        let subscriber = SubscriberId::new(sub);
        match held {
            None => {
                let bs = *backend_of_kind.entry(kind).or_insert_with(|| {
                    next_backend += 1;
                    let bs = BackendSubId::new(next_backend);
                    table.add_backend(bs, "C", params(kind), now).unwrap();
                    bs
                });
                let fs = table.add_frontend(subscriber, bs, now).unwrap();
                churn.held.insert((sub, kind), fs);
                let frontends = model.entry(bs).or_default();
                mid_inserts += u64::from(frontends.last_key_value().is_some_and(|(l, _)| fs < *l));
                frontends.insert(fs, subscriber);
            }
            Some(fs) => {
                let (bs, orphaned) = table.remove_frontend(subscriber, fs).unwrap();
                churn.held.remove(&(sub, kind));
                let frontends = model.get_mut(&bs).unwrap();
                frontends.remove(&fs);
                assert_eq!(orphaned, frontends.is_empty(), "step {step}");
                if orphaned {
                    model.remove(&bs);
                    backend_of_kind.remove(&kind);
                }
            }
        }
        check_table(&table, &model, step);
    }
    // Reused slots put new frontends mid-list, not only at the end.
    assert!(mid_inserts > STEPS / 10, "{mid_inserts} mid-list inserts");
    assert!(table.frontend_slots() < (SUBSCRIBERS * KINDS) as usize);
}

#[test]
fn notify_equals_the_map_model_through_churn() {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Reports", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByKind(kind: string) from Reports r where r.kind == $kind select r",
        )
        .unwrap();
    let mut broker = Broker::new(PolicyName::Lsc, BrokerConfig::default());
    let mut model = Model::new();
    let mut churn = Churn::new(7);
    for step in 0..STEPS {
        let now = Timestamp::from_secs(step + 1);
        let ((sub, kind), held) = churn.next();
        let subscriber = SubscriberId::new(sub);
        match held {
            None => {
                let fs = broker
                    .subscribe(&mut cluster, subscriber, "ByKind", params(kind), now)
                    .unwrap();
                let bs = broker.subscriptions().frontend(fs).unwrap().backend;
                churn.held.insert((sub, kind), fs);
                model.entry(bs).or_default().insert(fs, subscriber);
            }
            Some(fs) => {
                let bs = broker.subscriptions().frontend(fs).unwrap().backend;
                broker
                    .unsubscribe(&mut cluster, subscriber, fs, now)
                    .unwrap();
                churn.held.remove(&(sub, kind));
                let frontends = model.get_mut(&bs).unwrap();
                frontends.remove(&fs);
                if frontends.is_empty() {
                    model.remove(&bs);
                }
            }
        }
        check_table(broker.subscriptions(), &model, step);
        for (bs, want) in &model {
            let notification = Notification {
                backend_sub: *bs,
                latest_ts: now,
                count: 0,
                bytes: ByteSize::ZERO,
            };
            let notify = broker
                .on_notification(&mut cluster, notification, now)
                .notify;
            assert!(notify.iter().eq(want.values()), "step {step}, {bs}");
        }
    }
}
