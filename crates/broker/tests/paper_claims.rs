//! The paper's consumption semantics as executable claims, checked
//! through the real [`Broker`] under every policy of Table I on a
//! reduced Table II tape (Zipf-popular streams, per-stream arrival
//! rates, ON/OFF subscribers that retrieve on notification while online
//! and catch up with `get_all_pending` when they return):
//!
//! * full consumption drops the object, whatever the policy;
//! * `hit + miss == requested` on every delivery;
//! * a missed object is never re-cached (Algorithm 1: "they may not be
//!   sharable by other subscribers any more");
//! * a subscriber attached after an insert is not pending on it
//!   (Section IV-A);
//! * only per-cache tails are evicted, and under LSC the victim is the
//!   tail with the minimum `f_ij`;
//! * a result is *enriched*: whatever the broker fetches, to populate a
//!   cache or to serve a miss, embeds the newest shelters of the post's
//!   district known when the post was published.
//!
//! These guard the data structure behind `S(i,j)`: they held with
//! per-object subscriber sets and must hold with cursors and counts.
//! The last guards the payload the cluster shares between subscriptions.

// The cache crate's std-only generator, until ROADMAP item 1 promotes
// it to a shared dev crate.
#[path = "../../cache/tests/common/mod.rs"]
mod common;

use std::collections::{BTreeMap, HashMap};

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery};
use bad_cache::{policy_catalog, PolicyKind, PolicyName};
use bad_cluster::{DataCluster, EnrichmentRule};
use bad_query::ParamBindings;
use bad_storage::{ResultObject, Schema};
use bad_types::{
    BackendSubId, ByteSize, DataValue, FrontendSubId, ObjectId, Result, SimDuration, SubscriberId,
    TimeRange, Timestamp,
};
use common::XorShift64;

const STREAMS: u64 = 12;
const SUBSCRIBERS: u64 = 24;
const PER_SUBSCRIBER: usize = 4;
const LATE_JOINERS: u64 = 4;
const HORIZON_SECS: u64 = 900;
const DISTRICTS: u64 = 3;
/// Shelters embedded per result (the newest win).
const SHELTER_LIMIT: usize = 3;

fn stream_params(stream: u64) -> ParamBindings {
    ParamBindings::from_pairs([("stream", DataValue::from(stream as i64))])
}

/// Zipf(1.0) over the streams.
fn zipf(rng: &mut XorShift64) -> u64 {
    let total: f64 = (1..=STREAMS).map(|r| 1.0 / r as f64).sum();
    let mut u = rng.below(1 << 24) as f64 / (1u64 << 24) as f64 * total;
    for s in 0..STREAMS {
        u -= 1.0 / (s + 1) as f64;
        if u < 0.0 {
            return s;
        }
    }
    STREAMS - 1
}

/// `(id, f_ij)` of every resident object per cache, tail first.
fn resident(broker: &Broker) -> BTreeMap<BackendSubId, Vec<(ObjectId, usize)>> {
    let mut out = BTreeMap::new();
    broker.cache().for_each_cache(|c| {
        out.insert(c.id(), c.iter().map(|o| (o.id, o.fanout())).collect());
    });
    out
}

/// The cluster as the broker reaches it, checking the content of every
/// result a fetch hands over.
struct CheckedCluster {
    inner: DataCluster,
    /// Every shelter published so far with its timestamp, oldest first.
    shelters: Vec<(Timestamp, DataValue)>,
    /// Results checked that embed `SHELTER_LIMIT` rows, and fewer.
    capped: u64,
    short: u64,
}

impl CheckedCluster {
    fn publish_shelter(&mut self, district: i64, name: String, now: Timestamp) {
        let row = DataValue::object([
            ("district", DataValue::from(district)),
            ("name", DataValue::from(name)),
        ]);
        let notifications = self.inner.publish("Shelters", now, row.clone()).unwrap();
        assert!(notifications.is_empty(), "no channel reads Shelters");
        self.shelters.push((now, row));
    }

    /// Claim: the result embeds the newest `SHELTER_LIMIT` shelters of
    /// its district opened no later than the post, in timestamp order,
    /// beside the post's own fields.
    fn check_enriched(&mut self, object: &ResultObject) {
        let post = &object.payload;
        assert!(post.get("stream").is_some() && post.get("body").is_some());
        let district = post.get("district");
        assert!(district.is_some());
        let known: Vec<&DataValue> = self
            .shelters
            .iter()
            .filter(|(opened, row)| *opened <= object.ts && row.get("district") == district)
            .map(|(_, row)| row)
            .collect();
        let newest = &known[known.len().saturating_sub(SHELTER_LIMIT)..];
        let embedded = post.get("shelters").and_then(DataValue::as_array).unwrap();
        assert!(
            embedded.iter().eq(newest.iter().copied()),
            "{} embeds {embedded:?}, the newest shelters are {newest:?}",
            object.id
        );
        if embedded.len() == SHELTER_LIMIT {
            self.capped += 1;
        } else {
            self.short += 1;
        }
    }
}

impl ClusterHandle for CheckedCluster {
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
        let out = self.inner.fetch(bs, range);
        for object in &out {
            self.check_enriched(object);
        }
        out
    }
}

/// One policy's run over the tape; the claims are asserted inline.
struct Run {
    policy: PolicyName,
    cluster: CheckedCluster,
    broker: Broker,
    /// Result timestamps per backend subscription, as notified.
    produced: HashMap<BackendSubId, Vec<Timestamp>>,
    /// `(backend, fts)` per frontend: what the next delivery is owed.
    marker: HashMap<FrontendSubId, (BackendSubId, Timestamp)>,
}

impl Run {
    fn new(policy: PolicyName) -> Self {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Posts", Schema::open()).unwrap();
        cluster.create_dataset("Shelters", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByStream(stream: int) from Posts p \
                 where p.stream == $stream select p",
            )
            .unwrap();
        cluster
            .add_enrichment(EnrichmentRule::join(
                "ByStream",
                "Shelters",
                "district",
                "district",
                "shelters",
                SHELTER_LIMIT,
            ))
            .unwrap();
        let mut config = BrokerConfig::default();
        // Far below the backlog offline subscribers retain, so the
        // eviction policies evict and returning subscribers miss.
        config.cache.budget = ByteSize::from_kib(48);
        Self {
            policy,
            cluster: CheckedCluster {
                inner: cluster,
                shelters: Vec::new(),
                capped: 0,
                short: 0,
            },
            broker: Broker::new(policy, config),
            produced: HashMap::new(),
            marker: HashMap::new(),
        }
    }

    fn subscribe(&mut self, subscriber: SubscriberId, stream: u64, now: Timestamp) {
        let fs = self
            .broker
            .subscribe(
                &mut self.cluster,
                subscriber,
                "ByStream",
                stream_params(stream),
                now,
            )
            .unwrap();
        let backend = self.broker.subscriptions().frontend(fs).unwrap().backend;
        self.marker.insert(fs, (backend, now));
    }

    /// Claim: `hit + miss == requested`, where requested is what the
    /// cluster produced in `(fts, up_to]`.
    fn check_delivery(&mut self, d: &Delivery) {
        let (backend, since) = self.marker[&d.frontend];
        let requested = self.produced.get(&backend).map_or(0, |all| {
            all.iter()
                .filter(|&&ts| since < ts && ts <= d.up_to)
                .count()
        });
        assert_eq!(
            d.hit_objects + d.miss_objects,
            requested as u64,
            "{}: hit + miss == requested on {}",
            self.policy,
            d.frontend
        );
        self.marker.insert(d.frontend, (backend, d.up_to));
    }

    /// Runs one retrieval call. Claim: a GET never puts anything into
    /// the cache — missed objects are not re-cached.
    fn retrieve(&mut self, subscriber: SubscriberId, fs: Option<FrontendSubId>, now: Timestamp) {
        let before = (
            self.broker.cache().metrics().inserted_objects,
            self.broker.cache().total_bytes(),
        );
        let deliveries = match fs {
            Some(fs) => vec![self
                .broker
                .get_results(&mut self.cluster, subscriber, fs, now)
                .unwrap()],
            None => self
                .broker
                .get_all_pending(&mut self.cluster, subscriber, now)
                .unwrap(),
        };
        for d in &deliveries {
            self.check_delivery(d);
        }
        assert_eq!(
            self.broker.cache().metrics().inserted_objects,
            before.0,
            "{}: a retrieval inserted into the cache",
            self.policy
        );
        assert!(self.broker.cache().total_bytes() <= before.1);
    }

    /// Publishes one post and lets the broker pull it. Claims: objects
    /// leave a cache only from its tail, and an LSC victim's `f_ij` is
    /// no larger than that of any tail left behind.
    fn publish(&mut self, stream: u64, body: usize, now: Timestamp, online: &[bool]) {
        let record = DataValue::object([
            ("stream", DataValue::from(stream as i64)),
            ("district", DataValue::from((stream % DISTRICTS) as i64)),
            ("body", DataValue::from("x".repeat(body))),
        ]);
        for n in self.cluster.inner.publish("Posts", now, record).unwrap() {
            self.produced
                .entry(n.backend_sub)
                .or_default()
                .push(n.latest_ts);
            let before = resident(&self.broker);
            let outcome = self.broker.on_notification(&mut self.cluster, n, now);
            let after = resident(&self.broker);

            let mut max_evicted = None;
            for (bs, was) in &before {
                let is = &after[bs];
                let gone = was.iter().take_while(|e| !is.contains(e)).count();
                assert!(
                    is.starts_with(&was[gone..]),
                    "{}: {bs} lost an object that was not its tail",
                    self.policy
                );
                max_evicted = max_evicted.max(was[..gone].iter().map(|&(_, f)| f).max());
            }
            if let (PolicyName::Lsc, Some(evicted)) = (self.policy, max_evicted) {
                let min_tail = after.values().filter_map(|c| c.first()).map(|&(_, f)| f);
                assert!(
                    min_tail.clone().all(|f| evicted <= f),
                    "LSC evicted f_ij = {evicted} past a tail with {:?}",
                    min_tail.min()
                );
            }

            for subscriber in outcome.notify {
                if online[subscriber.as_u64() as usize] {
                    let fs = self
                        .broker
                        .subscriptions()
                        .find_frontend(subscriber, n.backend_sub);
                    assert!(fs.is_some(), "{subscriber} notified without a frontend");
                    self.retrieve(subscriber, fs, now);
                }
            }
        }
    }
}

fn run_policy(policy: PolicyName, seed: u64) {
    let mut rng = XorShift64::new(seed);
    // Shelters open on a stream of their own, so the post tape is the
    // one the consumption claims have always run on.
    let mut shelter_rng = XorShift64::new(seed ^ 0x5e17);
    let mut run = Run::new(policy);
    let total = SUBSCRIBERS + LATE_JOINERS;
    let mut online: Vec<bool> = (0..total).map(|_| rng.below(5) < 2).collect();

    for k in 0..SUBSCRIBERS {
        let mut streams = Vec::new();
        while streams.len() < PER_SUBSCRIBER {
            let s = zipf(&mut rng);
            if !streams.contains(&s) {
                streams.push(s);
            }
        }
        for s in streams {
            run.subscribe(SubscriberId::new(k), s, Timestamp::ZERO);
        }
    }
    // Mean inter-arrival per stream, spread over [4, 24] s.
    let mean_secs: Vec<u64> = (0..STREAMS).map(|s| 4 + (s * 7) % 21).collect();

    for sec in 1..=HORIZON_SECS {
        let now = Timestamp::from_secs(sec);
        if shelter_rng.below(20) == 0 {
            let district = shelter_rng.below(DISTRICTS) as i64;
            run.cluster
                .publish_shelter(district, format!("shelter-{sec}"), now);
        }
        for s in 0..STREAMS {
            if rng.below(mean_secs[s as usize]) == 0 {
                run.publish(s, rng.range(200, 1000) as usize, now, &online);
            }
        }
        // ON/OFF sessions: mean 60 s on, 90 s off.
        for k in 0..total {
            let flip = if online[k as usize] { 60 } else { 90 };
            if rng.below(flip) == 0 {
                online[k as usize] = !online[k as usize];
                if online[k as usize] {
                    run.retrieve(SubscriberId::new(k), None, now);
                }
            }
        }
        if sec == HORIZON_SECS / 2 {
            // Claim: attaching to caches that already hold objects
            // leaves every resident object's f_ij as it was.
            let before = resident(&run.broker);
            let joined_at = now + SimDuration::from_millis(500);
            for k in SUBSCRIBERS..total {
                for s in 0..PER_SUBSCRIBER as u64 {
                    run.subscribe(SubscriberId::new(k), s, joined_at);
                }
            }
            assert_eq!(
                resident(&run.broker),
                before,
                "{policy}: a late subscriber became pending on an earlier object"
            );
            if run.broker.cache().kind() != PolicyKind::NoCache {
                assert!(
                    before.values().any(|c| !c.is_empty()),
                    "nothing was resident when the late subscribers joined"
                );
            }
        }
        run.broker.maintain(now);
    }

    // Everyone comes back and catches up: every object has now been
    // retrieved by each subscriber it was owed to.
    let end = Timestamp::from_secs(HORIZON_SECS + 1);
    for k in 0..total {
        run.retrieve(SubscriberId::new(k), None, end);
    }
    let metrics = run.broker.cache().metrics();
    assert_eq!(
        run.broker.cache().total_bytes(),
        ByteSize::ZERO,
        "{policy}: fully consumed objects must leave the cache"
    );
    run.broker
        .cache()
        .for_each_cache(|c| assert!(c.is_empty(), "{policy}: {c} after full consumption"));
    assert_eq!(
        metrics.hit_objects + metrics.miss_objects,
        metrics.requested_objects
    );

    // The tape must actually exercise what the claims are about.
    assert!(
        run.cluster.capped > 0 && run.cluster.short > 0,
        "{policy}: {} results at the limit, {} below it",
        run.cluster.capped,
        run.cluster.short
    );
    match run.broker.cache().kind() {
        PolicyKind::NoCache => assert_eq!(metrics.inserted_objects, 0),
        PolicyKind::Eviction => {
            assert!(metrics.consumed_objects > 0, "{policy}: nothing consumed");
            assert!(metrics.evicted_objects > 0, "{policy}: nothing evicted");
            assert!(metrics.miss_objects > 0, "{policy}: nothing missed");
        }
        PolicyKind::TtlExpiry => {
            assert!(metrics.consumed_objects > 0, "{policy}: nothing consumed");
        }
    }
}

#[test]
fn consumption_semantics_hold_under_every_policy() {
    for info in policy_catalog() {
        for seed in [1, 2] {
            run_policy(info.name, seed);
        }
    }
}
