//! Cross-crate integration: the full publish → match → enrich → notify →
//! cache → deliver pipeline through the public API of the umbrella crate.

use big_active_data::cache::PolicyName;
use big_active_data::cluster::EnrichmentRule;
use big_active_data::prelude::*;

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

/// Builds a cluster with a continuous channel and a shelter enrichment.
fn city_cluster() -> DataCluster {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Reports", Schema::open()).unwrap();
    cluster.create_dataset("Shelters", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel CityAlerts(city: string) from Reports r \
             where r.city == $city select r",
        )
        .unwrap();
    cluster
        .add_enrichment(EnrichmentRule::join(
            "CityAlerts",
            "Shelters",
            "city",
            "city",
            "shelters",
            5,
        ))
        .unwrap();
    cluster
}

fn report(city: &str, n: i64) -> DataValue {
    DataValue::object([
        ("city", DataValue::from(city)),
        ("n", DataValue::from(n)),
        ("pad", DataValue::from("x".repeat(200))),
    ])
}

#[test]
fn publish_to_delivery_with_enrichment() {
    let mut cluster = city_cluster();
    cluster
        .publish(
            "Shelters",
            t(1),
            DataValue::object([
                ("city", DataValue::from("irvine")),
                ("name", DataValue::from("UCI Arena")),
            ]),
        )
        .unwrap();

    let mut broker = Broker::new(PolicyName::Lsc, BrokerConfig::default());
    let alice = SubscriberId::new(1);
    let fs = broker
        .subscribe(
            &mut cluster,
            alice,
            "CityAlerts",
            ParamBindings::from_pairs([("city", DataValue::from("irvine"))]),
            t(2),
        )
        .unwrap();

    // Publish two matching reports and one that does not match.
    for (sec, city) in [(3u64, "irvine"), (4, "tustin"), (5, "irvine")] {
        for n in cluster
            .publish("Reports", t(sec), report(city, sec as i64))
            .unwrap()
        {
            broker.on_notification(&mut cluster, n, t(sec));
        }
    }

    let delivery = broker.get_results(&mut cluster, alice, fs, t(6)).unwrap();
    assert_eq!(delivery.hit_objects, 2);
    assert_eq!(delivery.miss_objects, 0);

    // The enriched payloads are in the cluster's result store; check one.
    let results = cluster.fetch(
        broker.subscriptions().frontend(fs).unwrap().backend,
        TimeRange::closed(t(0), t(10)),
    );
    assert_eq!(results.len(), 2);
    for result in &results {
        let shelters = result.payload.get("shelters").unwrap().as_array().unwrap();
        assert_eq!(shelters.len(), 1, "enrichment embedded the shelter");
    }
}

#[test]
fn eviction_causes_misses_that_are_refetched_exactly_once() {
    let mut cluster = city_cluster();
    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(300); // fits ~1 report object
    let mut broker = Broker::new(PolicyName::Lru, config);
    let alice = SubscriberId::new(1);
    let fs = broker
        .subscribe(
            &mut cluster,
            alice,
            "CityAlerts",
            ParamBindings::from_pairs([("city", DataValue::from("irvine"))]),
            t(0),
        )
        .unwrap();

    // Three results; the tiny budget evicts the older ones.
    for sec in [1u64, 2, 3] {
        for n in cluster
            .publish("Reports", t(sec), report("irvine", sec as i64))
            .unwrap()
        {
            broker.on_notification(&mut cluster, n, t(sec));
        }
    }
    assert!(broker.cache().metrics().evicted_objects >= 2);

    let delivery = broker.get_results(&mut cluster, alice, fs, t(4)).unwrap();
    // All three objects still arrive: hits + misses partition them.
    assert_eq!(delivery.total_objects(), 3);
    assert!(delivery.miss_objects >= 2);
    assert!(delivery.hit_objects >= 1);

    // Nothing left pending afterwards.
    assert!(!broker.has_pending(fs));
    let again = broker.get_results(&mut cluster, alice, fs, t(5)).unwrap();
    assert_eq!(again.total_objects(), 0);
}

#[test]
fn two_brokers_share_one_cluster() {
    let mut cluster = city_cluster();
    let mut brokers = [
        Broker::new(PolicyName::Lsc, BrokerConfig::default()),
        Broker::new(PolicyName::Lsc, BrokerConfig::default()),
    ];

    // Four subscribers, placed alternately on the two brokers.
    let mut fss = Vec::new();
    for i in 0..4u64 {
        let subscriber = SubscriberId::new(i);
        let idx = (i % 2) as usize;
        let fs = brokers[idx]
            .subscribe(
                &mut cluster,
                subscriber,
                "CityAlerts",
                ParamBindings::from_pairs([("city", DataValue::from("irvine"))]),
                t(0),
            )
            .unwrap();
        fss.push((idx, subscriber, fs));
    }
    assert_eq!(brokers[0].subscriptions().frontend_count(), 2);
    assert_eq!(brokers[1].subscriptions().frontend_count(), 2);
    // Each broker merged its two frontends into one backend; the cluster
    // sees one subscription per broker.
    assert_eq!(cluster.subscription_count(), 2);

    // A publication reaches subscribers on both brokers.
    let notifications = cluster
        .publish("Reports", t(1), report("irvine", 1))
        .unwrap();
    assert_eq!(notifications.len(), 2);
    for n in notifications {
        for broker in brokers.iter_mut() {
            broker.on_notification(&mut cluster, n, t(1));
        }
    }
    for (idx, subscriber, fs) in fss {
        let delivery = brokers[idx]
            .get_results(&mut cluster, subscriber, fs, t(2))
            .unwrap();
        assert_eq!(delivery.total_objects(), 1, "{subscriber} got the alert");
    }
}

#[test]
fn repetitive_channels_deliver_in_batches() {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Reports", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel Batched(city: string) from Reports r \
             where r.city == $city select r every 30s",
        )
        .unwrap();
    let mut broker = Broker::new(PolicyName::Ttl, BrokerConfig::default());
    let alice = SubscriberId::new(1);
    let fs = broker
        .subscribe(
            &mut cluster,
            alice,
            "Batched",
            ParamBindings::from_pairs([("city", DataValue::from("irvine"))]),
            t(0),
        )
        .unwrap();

    for sec in [5u64, 10, 15] {
        assert!(cluster
            .publish("Reports", t(sec), report("irvine", sec as i64))
            .unwrap()
            .is_empty());
    }
    // Nothing delivered until the channel executes.
    assert!(!broker.has_pending(fs));
    let notifications = cluster.tick(t(30)).unwrap();
    assert_eq!(notifications.len(), 1);
    assert_eq!(notifications[0].count, 3);
    broker.on_notification(&mut cluster, notifications[0], t(30));
    let delivery = broker.get_results(&mut cluster, alice, fs, t(31)).unwrap();
    assert_eq!(delivery.total_objects(), 3);
}
