//! End-to-end tests of the miss path (Algorithm 1): a range the cache
//! no longer holds is fetched from the cluster for the retrieval that
//! asks for it, and is not re-cached. So K subscribers that miss the
//! same range at the same virtual instant make K cluster fetches, and
//! each one observes a complete delivery.

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery};
use bad_cache::{CacheMetrics, PolicyName};
use bad_cluster::{DataCluster, Notification};
use bad_query::ParamBindings;
use bad_storage::{ResultObject, Schema};
use bad_types::{BackendSubId, ByteSize, DataValue, Result, SubscriberId, TimeRange, Timestamp};

fn t(secs: u64) -> Timestamp {
    Timestamp::from_secs(secs)
}

fn params(kind: &str) -> ParamBindings {
    ParamBindings::from_pairs([("kind", DataValue::from(kind))])
}

/// Wraps the in-process cluster and logs every fetched range, so tests
/// can assert on the cluster traffic the broker actually generates.
struct CountingCluster {
    inner: DataCluster,
    fetches: Vec<(BackendSubId, TimeRange)>,
    batch_calls: u64,
}

impl CountingCluster {
    fn new() -> Self {
        let mut inner = DataCluster::new();
        inner.create_dataset("Reports", Schema::open()).unwrap();
        inner
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        Self {
            inner,
            fetches: Vec::new(),
            batch_calls: 0,
        }
    }

    fn publish(&mut self, secs: u64, kind: &str) -> Vec<Notification> {
        self.inner
            .publish(
                "Reports",
                t(secs),
                DataValue::object([
                    ("kind", DataValue::from(kind)),
                    ("body", DataValue::from("x".repeat(100))),
                ]),
            )
            .unwrap()
    }
}

impl ClusterHandle for CountingCluster {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        self.inner.subscribe(channel, params, now)
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        self.inner.unsubscribe(bs)
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.fetches.push((bs, range));
        self.inner.fetch(bs, range)
    }

    fn cluster_fetch_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
    ) -> Vec<Vec<ResultObject>> {
        self.batch_calls += 1;
        requests
            .iter()
            .map(|&(bs, range)| self.cluster_fetch(bs, range))
            .collect()
    }
}

/// A broker whose cache keeps nothing (1-byte budget): every retrieval
/// misses its whole range and fetches it from the cluster.
fn evicting_broker(policy: PolicyName, shards: usize) -> Broker {
    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(1);
    config.shards = shards;
    Broker::new(policy, config)
}

fn delivery_shape(
    d: &Delivery,
) -> (
    u64,
    ByteSize,
    u64,
    ByteSize,
    bad_types::SimDuration,
    Timestamp,
) {
    (
        d.hit_objects,
        d.hit_bytes,
        d.miss_objects,
        d.miss_bytes,
        d.latency,
        d.up_to,
    )
}

#[test]
fn every_miss_crosses_the_cluster_link() {
    const K: u64 = 8;
    for policy in [
        PolicyName::Lru,
        PolicyName::Lsc,
        PolicyName::Lscz,
        PolicyName::Lsd,
    ] {
        let mut cluster = CountingCluster::new();
        let mut broker = evicting_broker(policy, 1);

        let mut fronts = Vec::new();
        for k in 1..=K {
            let sub = SubscriberId::new(k);
            let fs = broker
                .subscribe(&mut cluster, sub, "ByKind", params("fire"), t(0))
                .unwrap();
            fronts.push((sub, fs));
        }

        for secs in [1u64, 2, 3] {
            for n in cluster.publish(secs, "fire") {
                broker.on_notification(&mut cluster, n, t(secs));
            }
        }
        assert_eq!(broker.cache().total_bytes(), ByteSize::ZERO, "{policy:?}");
        cluster.fetches.clear(); // drop the notification-path pulls

        // All K retrievals happen at the same virtual instant, and each
        // makes its own cluster round trip: misses are never re-cached,
        // not even for the next subscriber asking for the same range.
        let deliveries: Vec<Delivery> = fronts
            .iter()
            .map(|&(sub, fs)| broker.get_results(&mut cluster, sub, fs, t(5)).unwrap())
            .collect();

        // One cluster fetch per retrieval, all of the same range.
        assert_eq!(cluster.fetches.len() as u64, K, "{policy:?}");
        assert!(
            cluster.fetches.iter().all(|f| *f == cluster.fetches[0]),
            "{policy:?}: {:?}",
            cluster.fetches
        );

        // Every subscriber sees the identical delivery (modulo its own
        // frontend id) with the full range intact.
        let first = delivery_shape(&deliveries[0]);
        for d in &deliveries {
            assert_eq!(delivery_shape(d), first, "{policy:?}");
        }
        assert_eq!(deliveries[0].hit_objects, 0, "{policy:?}");
        assert_eq!(deliveries[0].miss_objects, 3, "{policy:?}");

        // Every retrieval records its own misses (hit + miss ==
        // requested).
        let m = broker.cache().metrics();
        assert_eq!(m.hit_objects + m.miss_objects, m.requested_objects);
        assert_eq!(m.requested_objects, K * 3, "{policy:?}");
    }
}

#[test]
fn a_same_timestamp_result_reaches_the_next_retrieval() {
    let mut cluster = CountingCluster::new();
    let mut broker = evicting_broker(PolicyName::Lsc, 1);
    let alice = SubscriberId::new(1);
    let bob = SubscriberId::new(2);
    let fa = broker
        .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
        .unwrap();
    let fb = broker
        .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
        .unwrap();
    for secs in [1u64, 2, 3] {
        for n in cluster.publish(secs, "fire") {
            broker.on_notification(&mut cluster, n, t(secs));
        }
    }
    cluster.fetches.clear();

    let da = broker.get_results(&mut cluster, alice, fa, t(5)).unwrap();
    assert_eq!(da.miss_objects, 3);

    // A fourth result lands with the *same* timestamp as the current
    // bts marker, so Bob's retrieval range is byte-identical to Alice's.
    // Bob must still see the new result.
    for n in cluster.publish(3, "fire") {
        broker.on_notification(&mut cluster, n, t(5));
    }
    let db = broker.get_results(&mut cluster, bob, fb, t(5)).unwrap();
    assert_eq!(db.miss_objects, 4, "a stale serve hid the new result");
}

#[test]
fn get_all_pending_batches_the_cluster_round_trip() {
    let mut cluster = CountingCluster::new();
    let mut broker = evicting_broker(PolicyName::Lsc, 1);
    let alice = SubscriberId::new(1);
    broker
        .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
        .unwrap();
    broker
        .subscribe(&mut cluster, alice, "ByKind", params("flood"), t(0))
        .unwrap();
    for n in cluster.publish(1, "fire") {
        broker.on_notification(&mut cluster, n, t(1));
    }
    for n in cluster.publish(2, "flood") {
        broker.on_notification(&mut cluster, n, t(2));
    }
    cluster.fetches.clear();
    cluster.batch_calls = 0;

    let deliveries = broker.get_all_pending(&mut cluster, alice, t(3)).unwrap();
    assert_eq!(deliveries.len(), 2);
    assert!(deliveries.iter().all(|d| d.miss_objects == 1));

    // Both backend subs' misses ride one batched cluster call.
    assert_eq!(cluster.batch_calls, 1);
    assert_eq!(cluster.fetches.len(), 2);

    // Each delivery is charged its own subscriber leg plus the shared
    // batch cluster leg (one RTT over the combined payload) — not a
    // private cluster round trip each.
    let net = *broker.net();
    let fetched: ByteSize = deliveries.iter().map(|d| d.miss_bytes).sum();
    let batch_leg = net.cluster_fetch_batch_latency(2, fetched);
    for d in &deliveries {
        let expected = net.processing + net.subscriber_latency(d.total_bytes()) + batch_leg;
        assert_eq!(d.latency, expected);
    }
}

#[test]
fn miss_path_is_metrics_identical_mono_vs_sharded() {
    fn run(shards: usize) -> (CacheMetrics, u64, usize) {
        let mut cluster = CountingCluster::new();
        let mut broker = evicting_broker(PolicyName::Lsc, shards);
        let mut fronts = Vec::new();
        for k in 1..=4u64 {
            let sub = SubscriberId::new(k);
            let fire = broker
                .subscribe(&mut cluster, sub, "ByKind", params("fire"), t(0))
                .unwrap();
            let flood = broker
                .subscribe(&mut cluster, sub, "ByKind", params("flood"), t(0))
                .unwrap();
            fronts.push((sub, fire, flood));
        }
        for secs in [1u64, 2] {
            for kind in ["fire", "flood"] {
                for n in cluster.publish(secs, kind) {
                    broker.on_notification(&mut cluster, n, t(secs));
                }
            }
        }
        cluster.fetches.clear();
        for &(sub, fire, _) in &fronts {
            broker.get_results(&mut cluster, sub, fire, t(4)).unwrap();
        }
        for &(sub, _, _) in &fronts {
            broker.get_all_pending(&mut cluster, sub, t(4)).unwrap();
        }
        (
            broker.cache().metrics(),
            broker.delivery_metrics().delivered_objects,
            cluster.fetches.len(),
        )
    }

    // Miss fetches happen above the cache tier, so shard count must not
    // change a single number: cache metrics, deliveries or the actual
    // cluster traffic.
    assert_eq!(run(1), run(4));
}
