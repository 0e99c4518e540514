//! The prototype deployment: the shape of the paper's Fig. 6.
//!
//! A data-cluster node and a broker node (standing in for the servers
//! behind the REST/AQL calls) are state that each call's job holds in
//! turn, on the caller's actor; clients subscribe and retrieve through
//! the broker, which pushes news back to connected clients (the
//! WebSocket path). A node runs each call at the virtual time the call
//! names: its state evolves in the callers' time, and the executor's
//! clock shows how long calls wait. Only the broker→cluster leg is slept
//! (its RTT per round trip, the broker held); the subscriber legs are
//! in [`Delivery::latency`].

use std::collections::HashMap;
use std::sync::Arc;

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery, DeliveryMetrics, Observability};
use bad_cache::{CacheMetrics, PolicyName, ShardedCacheManager};
use bad_cluster::{ClusterStats, DataCluster, Notification};
use bad_query::ParamBindings;
use bad_storage::ResultObject;
use bad_telemetry::{Gauge, ScrapeServer, DEFAULT_SCRAPE_LIMIT};
use bad_types::{
    BackendSubId, FrontendSubId, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

use crate::exec::{Exec, Node, Tx};

/// The broker node's remote handle to the cluster node: each call is a
/// round trip after a virtual cluster-link RTT.
struct ClusterClient {
    node: Node<DataCluster>,
    exec: Exec,
    rtt: SimDuration,
    /// `bad_proto_cluster_inflight_rpcs`: broker→cluster requests sent
    /// but not yet answered.
    inflight: Gauge,
}

impl ClusterClient {
    fn roundtrip<T>(&self, job: impl FnOnce(&mut DataCluster) -> T) -> T {
        self.exec.sleep(self.rtt);
        self.inflight.inc();
        let reply = self.node.with(job);
        self.inflight.dec();
        reply.expect("cluster node replies")
    }
}

impl ClusterHandle for ClusterClient {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        self.roundtrip(|cluster| cluster.subscribe(channel, params, now))
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        self.roundtrip(|cluster| cluster.unsubscribe(bs))
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.roundtrip(|cluster| cluster.fetch(bs, range))
    }

    fn cluster_fetch_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
    ) -> Vec<Vec<ResultObject>> {
        // One round trip — and one virtual RTT — for the whole batch,
        // matching `NetworkModel::cluster_fetch_batch_latency`.
        self.roundtrip(|cluster| {
            (requests.iter())
                .map(|&(bs, r)| cluster.fetch(bs, r))
                .collect()
        })
    }
}

/// The broker node's state.
struct BrokerNode {
    broker: Broker,
    cluster: ClusterClient,
    clients: HashMap<SubscriberId, Tx<ClientEvent>>,
    peak_backends: u64,
    obs: Observability,
}

impl BrokerNode {
    /// Runs `job` on the broker node, then folds the profiler samples it
    /// left on the calling thread, so that `/profile` sees them whichever
    /// thread made the call.
    fn run<T>(node: &Node<Self>, job: impl FnOnce(&mut Self) -> T) -> Result<T> {
        node.with(|broker| {
            let out = job(broker);
            broker.obs.profiler().flush_thread();
            out
        })
    }

    /// Pulls a notification's results in and pushes the news to every
    /// connected subscriber of its backend subscription.
    fn notify(&mut self, notification: Notification, now: Timestamp) {
        let outcome = self
            .broker
            .on_notification(&mut self.cluster, notification, now);
        for subscriber in outcome.notify {
            let table = self.broker.subscriptions();
            let frontend = table.find_frontend(subscriber, notification.backend_sub);
            if let (Some(events), Some(frontend)) = (self.clients.get(&subscriber), frontend) {
                let _ = events.send(ClientEvent {
                    subscriber,
                    frontend,
                });
            }
        }
    }
}

/// A push to a connected client (the WebSocket path): new results are
/// available on one of its subscriptions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientEvent {
    /// The subscriber pushed to.
    pub subscriber: SubscriberId,
    /// The frontend subscription with news.
    pub frontend: FrontendSubId,
}

/// A snapshot of the broker node's books.
#[derive(Clone, Debug)]
pub struct BrokerStats {
    /// Retrievals served and what they delivered.
    pub delivery: DeliveryMetrics,
    /// The cache's counters (hit ratio, bytes fetched, ...).
    pub cache: CacheMetrics,
    /// The most backend subscriptions held at once.
    pub peak_backends: u64,
}

/// A subscriber's handle to the broker node. Every call is one job on
/// the broker node, run on the calling actor; the subscriber leg is not
/// slept.
#[derive(Clone)]
pub struct BrokerClient {
    subscriber: SubscriberId,
    broker: Node<BrokerNode>,
}

impl BrokerClient {
    /// Subscribes to a parameterized channel at `now`.
    ///
    /// # Errors
    ///
    /// Propagates broker/cluster-side subscription errors.
    pub fn subscribe(
        &self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<FrontendSubId> {
        self.ask(|broker, cluster, me| broker.subscribe(cluster, me, channel, params, now))
    }

    /// Cancels a subscription at `now`.
    ///
    /// # Errors
    ///
    /// Unknown subscription or wrong owner.
    pub fn unsubscribe(&self, fs: FrontendSubId, now: Timestamp) -> Result<()> {
        self.ask(|broker, cluster, me| broker.unsubscribe(cluster, me, fs, now))
    }

    /// Retrieves what one subscription is owed at `now`; `None` when it
    /// is live and owed nothing (no delivery is booked then).
    ///
    /// # Errors
    ///
    /// Unknown subscription or wrong owner.
    pub fn get_results(&self, fs: FrontendSubId, now: Timestamp) -> Result<Option<Delivery>> {
        self.ask(|broker, cluster, me| {
            // A live frontend of this subscriber owed nothing books no
            // delivery; an unknown or foreign one goes through, to err.
            let front = broker.subscriptions().frontend(fs);
            let idle = front.is_some_and(|f| f.subscriber == me) && !broker.has_pending(fs);
            let delivery = (!idle).then(|| broker.get_results(cluster, me, fs, now));
            delivery.transpose()
        })
    }

    /// Retrieves everything the subscriber is owed at `now` across its
    /// subscriptions: what a client does when it logs in.
    ///
    /// # Errors
    ///
    /// Propagates marker-advance errors.
    pub fn get_all_pending(&self, now: Timestamp) -> Result<Vec<Delivery>> {
        self.ask(|broker, cluster, me| broker.get_all_pending(cluster, me, now))
    }

    /// Runs `job` as this subscriber on the broker node, and books the
    /// backend subscriptions held after it.
    fn ask<T>(
        &self,
        job: impl FnOnce(&mut Broker, &mut ClusterClient, SubscriberId) -> Result<T>,
    ) -> Result<T> {
        BrokerNode::run(&self.broker, |node| {
            let out = job(&mut node.broker, &mut node.cluster, self.subscriber);
            let backends = node.broker.subscriptions().backend_count() as u64;
            node.peak_backends = node.peak_backends.max(backends);
            out
        })?
    }
}

/// A running two-node deployment (cluster node + broker node).
pub struct Deployment {
    exec: Exec,
    cluster: Node<DataCluster>,
    broker: Node<BrokerNode>,
    obs: Observability,
    cache: Arc<ShardedCacheManager>,
    /// Pre-rendered `bad_build_info` labels as a JSON object, embedded
    /// in every `/healthz` body.
    build_info: String,
}

impl Deployment {
    /// Starts the cluster and broker nodes on `exec`, from the initial
    /// cluster state `cluster`, with the observers in `obs` attached to
    /// both nodes.
    ///
    /// Metric counters are registered whatever `obs` is and rendered by
    /// [`Deployment::metrics_text`]. With [`Observability::full`] both
    /// nodes' causally linked spans and records reach the bundle's sink
    /// through its tracer (see `bad_telemetry::trace`), and each
    /// maintenance pass runs [`Observability::after_maintain`];
    /// [`Deployment::serve_scrape`] serves the picture over HTTP.
    pub fn start(
        policy: PolicyName,
        config: BrokerConfig,
        mut cluster: DataCluster,
        exec: Exec,
        obs: Observability,
    ) -> Self {
        let registry = obs.registry();

        // Build the broker here so the deployment can keep a shared
        // cache handle (for `/healthz` shard occupancy) before the
        // broker node takes ownership.
        let mut broker = Broker::new(policy, config);
        obs.attach(&mut cluster, &mut broker);
        let cache = broker.cache_handle();
        let cluster = exec.node(cluster);

        // `bad_build_info`: one constant-1 gauge whose labels identify
        // what is running — crate version plus the feature knobs that
        // change hot-path behaviour. Scrapes join it against any other
        // series to tell "which build/config produced these numbers".
        let on_off = |on: bool| if on { "on" } else { "off" }.to_owned();
        let build_labels: [(&str, String); 5] = [
            ("version", env!("CARGO_PKG_VERSION").to_owned()),
            ("policy", policy.as_str().to_owned()),
            ("shards", config.shards.to_string()),
            ("profile", on_off(obs.profiler().enabled())),
            ("sketches", on_off(cache.sketches_enabled())),
        ];
        let label_refs: Vec<(&str, &str)> =
            build_labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        registry.gauge_with("bad_build_info", &label_refs).set(1);
        let mut build_info = String::new();
        {
            let mut obj = bad_telemetry::json::ObjectWriter::new(&mut build_info);
            for (key, value) in &build_labels {
                obj.field_str(key, value);
            }
        }
        registry
            .gauge("bad_broker_cache_shards")
            .set(cache.shard_count() as u64);

        let broker = BrokerNode {
            broker,
            cluster: ClusterClient {
                node: cluster.clone(),
                exec: exec.clone(),
                rtt: config.net.cluster.rtt,
                inflight: registry.gauge("bad_proto_cluster_inflight_rpcs"),
            },
            clients: HashMap::new(),
            peak_backends: 0,
            obs: obs.clone(),
        };
        let broker = exec.node(broker);

        Self {
            exec,
            cluster,
            broker,
            obs,
            cache,
            build_info,
        }
    }

    /// Binds a scrape endpoint (use port `0` for an ephemeral port)
    /// serving `/metrics` (Prometheus text), `/healthz` (per-shard cache
    /// occupancy, build info, each observer's sampling period and top
    /// contended locks as JSON),
    /// `/trace/recent` (the flight recorder's span ring as JSON, capped
    /// by `?limit=`), `/timeseries` and `/alerts` (the health engine's
    /// windowed history and alert states), `/profile` (the continuous
    /// profiler's folded-stack stage tree plus per-site lock wait/hold
    /// breakdown) — those three with [`Observability::full`] — and
    /// `/hot` (sketch-based
    /// heavy-hitter attribution, when sketches are enabled). Any other
    /// path answers a JSON `404`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_scrape(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<ScrapeServer> {
        let cache = Arc::clone(&self.cache);
        let recorder = Arc::clone(self.obs.tracer().recorder());
        let anomaly_recorder = Arc::clone(&recorder);
        let health_engine = self.obs.health().cloned();
        let health_profiler = self.obs.profiler().clone();
        let build_info = self.build_info.clone();
        // What `/trace/recent`, `/profile` and `/hot` are a sample of:
        // each observer's 1-in-n period, 0 when it is off. Every
        // counter in `/metrics` and `/healthz` is exact.
        let mut sampling = String::new();
        {
            let mut obj = bad_telemetry::json::ObjectWriter::new(&mut sampling);
            obj.field_u64("trace", self.obs.tracer().sample_every_n());
            let profile = self.obs.profiler().sample_every_n();
            obj.field_u64("profile", u64::from(profile));
            let sketches = self.cache.hot_snapshot().map_or(0, |s| s.sample_every_n());
            obj.field_u64("sketches", u64::from(sketches));
        }
        // Everything `/healthz` reads is shared state: it never waits for
        // the broker node, so a broker held in a cluster round trip
        // cannot stall the probe.
        let health: bad_telemetry::HealthFn = Arc::new(move || {
            let shards = cache.shard_health();
            let total_occupancy: u64 = shards.iter().map(|s| s.occupancy_bytes).sum();
            let total_budget: u64 = shards.iter().map(|s| s.budget_bytes).sum();
            let mut rows = String::new();
            rows.push('[');
            for (i, shard) in shards.iter().enumerate() {
                if i > 0 {
                    rows.push(',');
                }
                let mut obj = bad_telemetry::json::ObjectWriter::new(&mut rows);
                obj.field_u64("index", shard.index as u64);
                obj.field_u64("occupancy_bytes", shard.occupancy_bytes);
                obj.field_u64("budget_bytes", shard.budget_bytes);
                obj.field_u64("caches", shard.caches as u64);
            }
            rows.push(']');
            let mut out = String::with_capacity(128 + rows.len());
            {
                let mut obj = bad_telemetry::json::ObjectWriter::new(&mut out);
                obj.field_str("status", "ok");
                obj.field_u64("shards", shards.len() as u64);
                obj.field_u64("occupancy_bytes", total_occupancy);
                obj.field_u64("budget_bytes", total_budget);
                obj.field_u64("anomalies", anomaly_recorder.anomalies());
                obj.field_raw("shard_occupancy", &rows);
                // Alert + drift summary so one `/healthz` probe answers
                // "is anything on fire and does reality still match the
                // model" without walking the dedicated endpoints.
                match &health_engine {
                    Some(engine) => {
                        obj.field_raw("health", &engine.summary_json());
                        obj.field_f64("drift_score", engine.drift_score());
                    }
                    None => obj.field_raw("health", "null"),
                }
                // What's running: the `bad_build_info` labels, embedded
                // so one probe identifies the build and its knobs.
                obj.field_raw("build", &build_info);
                obj.field_raw("sampling", &sampling);
                // Top-k contended lock sites: the "which shard mutex is
                // hot right now" answer without walking `/profile`.
                if health_profiler.enabled() {
                    let top = health_profiler.top_contended(3);
                    let sites: Vec<String> = top.iter().map(|site| site.render_json()).collect();
                    obj.field_raw("top_contended", &format!("[{}]", sites.join(",")));
                } else {
                    obj.field_raw("top_contended", "null");
                }
                // Top-5 hot subscriptions by requests: the "who is
                // eating the cache" answer without walking `/hot`.
                match cache.hot_snapshot() {
                    Some(snapshot) => obj.field_raw("hot", &snapshot.summary_json(5)),
                    None => obj.field_raw("hot", "null"),
                }
            }
            out
        });
        let endpoints = bad_telemetry::ScrapeEndpoints {
            health,
            timeseries: self.obs.health().map(|engine| {
                let engine = Arc::clone(engine);
                Arc::new(move || engine.timeseries_json()) as bad_telemetry::EndpointFn
            }),
            alerts: self.obs.health().map(|engine| {
                let engine = Arc::clone(engine);
                Arc::new(move || engine.alerts_json()) as bad_telemetry::EndpointFn
            }),
            profile: self.obs.profiler().enabled().then(|| {
                let profiler = self.obs.profiler().clone();
                Arc::new(move |limit: Option<usize>| {
                    profiler.render_json_limit(limit.unwrap_or(DEFAULT_SCRAPE_LIMIT))
                }) as bad_telemetry::LimitFn
            }),
            hot: self.cache.sketches_enabled().then(|| {
                let hot_cache = Arc::clone(&self.cache);
                Arc::new(move || {
                    hot_cache
                        .hot_snapshot()
                        .map_or_else(|| "null".to_owned(), |snapshot| snapshot.to_json())
                }) as bad_telemetry::EndpointFn
            }),
        };
        ScrapeServer::bind_with_endpoints(addr, self.obs.registry().clone(), recorder, endpoints)
    }

    /// Prometheus-text snapshot of every metric family the deployment
    /// has registered (cache hit/miss/eviction counters, broker
    /// retrieval/delivery counters, latency/size histograms).
    pub fn metrics_text(&self) -> String {
        self.obs.registry().render()
    }

    /// The executor the deployment's callers run on.
    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Connects a client for `subscriber` whose push events go to
    /// `events` (several clients may share one).
    pub fn client(&self, subscriber: SubscriberId, events: &Tx<ClientEvent>) -> BrokerClient {
        let _ = BrokerNode::run(&self.broker, |node| {
            node.clients.insert(subscriber, events.clone())
        });
        BrokerClient {
            subscriber,
            broker: self.broker.clone(),
        }
    }

    /// Publishes a record stamped `ts` into the cluster, firing
    /// continuous channels (their notifications run at `ts`), and
    /// returns once the broker has pulled their results in.
    ///
    /// # Errors
    ///
    /// Schema violations or unknown datasets.
    pub fn publish(
        &self,
        dataset: &str,
        ts: Timestamp,
        record: bad_types::DataValue,
    ) -> Result<Vec<Notification>> {
        let notifications =
            (self.cluster).with(|cluster| cluster.publish(dataset, ts, record))??;
        self.dispatch(&notifications, ts)?;
        Ok(notifications)
    }

    /// Executes the repetitive channels due at `now` on the records
    /// stamped up to `now`, and returns once the broker has pulled
    /// their notifications' results in.
    ///
    /// # Errors
    ///
    /// Propagates channel evaluation errors.
    pub fn tick(&self, now: Timestamp) -> Result<usize> {
        let notifications = self.cluster.with(|cluster| cluster.tick(now))??;
        self.dispatch(&notifications, now)?;
        Ok(notifications.len())
    }

    /// Runs a cache maintenance pass at `now` on the broker (none once
    /// the broker node has stopped).
    pub fn maintain(&self, now: Timestamp) {
        let _ = BrokerNode::run(&self.broker, |node| {
            node.broker.maintain(now);
            node.obs.after_maintain(node.broker.cache(), now);
        });
    }

    /// Snapshot of the broker's books.
    ///
    /// # Errors
    ///
    /// The broker node has stopped.
    pub fn broker_stats(&self) -> Result<BrokerStats> {
        BrokerNode::run(&self.broker, |node| BrokerStats {
            delivery: node.broker.delivery_metrics(),
            cache: node.broker.cache().metrics(),
            peak_backends: node.peak_backends,
        })
    }

    /// Snapshot of the cluster's counters.
    ///
    /// # Errors
    ///
    /// The cluster node has stopped.
    pub fn cluster_stats(&self) -> Result<ClusterStats> {
        self.cluster.with(|cluster| cluster.stats())
    }

    /// Pulls each notification's results into the broker, one job each.
    fn dispatch(&self, notifications: &[Notification], now: Timestamp) -> Result<()> {
        for &notification in notifications {
            BrokerNode::run(&self.broker, |node| node.notify(notification, now))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Rx;
    use crate::harness::build_emergency_cluster;
    use bad_types::DataValue;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Runs `scenario` on 64 seeded schedules, naming the seed that fails.
    fn on_seeds(scenario: impl Fn(Exec)) {
        for seed in 0..64 {
            if catch_unwind(AssertUnwindSafe(|| scenario(Exec::seeded(seed)))).is_err() {
                panic!("failed on Exec::seeded({seed})");
            }
        }
    }

    fn deployment(policy: PolicyName, shards: usize, exec: Exec, obs: Observability) -> Deployment {
        let cluster = build_emergency_cluster().unwrap();
        let config = BrokerConfig {
            shards,
            ..BrokerConfig::default()
        };
        Deployment::start(policy, config, cluster, exec, obs)
    }

    fn etype(kind: &str) -> ParamBindings {
        ParamBindings::from_pairs([("etype", DataValue::from(kind))])
    }

    /// Publishes a `kind` report, then ticks the cluster and runs a
    /// maintenance pass once a virtual second until a push arrives.
    fn publish_until_pushed(dep: &Deployment, kind: &str, events: &Rx<ClientEvent>) -> ClientEvent {
        let report = DataValue::object([
            ("kind", DataValue::from(kind)),
            ("severity", DataValue::from(3i64)),
            ("district", DataValue::from("district-1")),
        ]);
        dep.publish("EmergencyReports", dep.exec().now(), report)
            .unwrap();
        (0..120)
            .find_map(|_| {
                dep.tick(dep.exec().now()).unwrap();
                dep.maintain(dep.exec().now());
                events.recv_timeout(SimDuration::from_secs(1))
            })
            .expect("a push within two virtual minutes")
    }

    /// One subscriber's flood alert, from subscribe to retrieval.
    fn deliver_one_flood_alert(dep: &Deployment) {
        let (events_tx, events) = dep.exec().channel();
        let alice = dep.client(SubscriberId::new(1), &events_tx);
        let fs = alice
            .subscribe("EmergenciesOfType", etype("flood"), dep.exec().now())
            .unwrap();
        assert_eq!(publish_until_pushed(dep, "flood", &events).frontend, fs);
        let delivery = alice
            .get_results(fs, dep.exec().now())
            .unwrap()
            .expect("results are owed");
        assert!(delivery.total_objects() >= 1);
        assert_eq!(
            alice.get_results(fs, dep.exec().now()).unwrap(),
            None,
            "nothing more is owed"
        );
        let stats = dep.broker_stats().unwrap();
        assert_eq!(stats.delivery.deliveries, 1);
        assert!(stats.cache.hit_ratio().unwrap() > 0.0, "the retrieval hits");
    }

    #[test]
    fn end_to_end_publish_subscribe_deliver() {
        on_seeds(|exec| {
            let dep = deployment(PolicyName::Lsc, 1, exec, Observability::detached());
            deliver_one_flood_alert(&dep);
        });
    }

    #[test]
    fn unsubscribe_via_client() {
        on_seeds(|exec| {
            let dep = deployment(PolicyName::Lru, 1, exec, Observability::detached());
            let (events_tx, _events) = dep.exec().channel();
            let bob = dep.client(SubscriberId::new(2), &events_tx);
            let minsev = ParamBindings::from_pairs([("minsev", DataValue::from(4i64))]);
            let now = dep.exec().now();
            let fs = bob.subscribe("SevereEmergencies", minsev, now).unwrap();
            bob.unsubscribe(fs, now).unwrap();
            assert!(bob.unsubscribe(fs, now).is_err());
            assert!(bob.get_results(fs, now).is_err());
        });
    }

    #[test]
    fn clients_share_backend_subscriptions() {
        on_seeds(|exec| {
            let dep = deployment(PolicyName::Lsc, 1, exec, Observability::detached());
            let (events_tx, events) = dep.exec().channel();
            let a = dep.client(SubscriberId::new(1), &events_tx);
            let b = dep.client(SubscriberId::new(2), &events_tx);
            let now = dep.exec().now();
            let fa = a
                .subscribe("EmergenciesOfType", etype("fire"), now)
                .unwrap();
            let fb = b
                .subscribe("EmergenciesOfType", etype("fire"), now)
                .unwrap();
            assert_ne!(fa, fb);
            assert!(b.get_results(fa, now).is_err(), "fa is not b's");
            let first = publish_until_pushed(&dep, "fire", &events);
            let second = events
                .recv_timeout(SimDuration::from_secs(1))
                .expect("both");
            let mut fronts = [first.frontend, second.frontend];
            fronts.sort();
            assert_eq!(fronts, [fa, fb], "one notification reaches both");
            assert_eq!(dep.broker_stats().unwrap().peak_backends, 1);
        });
    }

    #[test]
    fn traced_deployment_streams_events_and_renders_metrics() {
        on_seeds(|exec| {
            let ring = Arc::new(bad_telemetry::RingBufferSink::new(65536));
            let obs = Observability::full(
                ring.clone(),
                bad_telemetry::TraceConfig {
                    trace_sample_every_n: 1,
                    ..bad_telemetry::TraceConfig::default()
                },
            );
            let dep = deployment(PolicyName::Lsc, 1, exec, obs);
            deliver_one_flood_alert(&dep);

            // The Prometheus snapshot renders the hit/miss/eviction counters.
            let text = dep.metrics_text();
            assert!(text.contains("bad_cache_hit_objects_total"));
            assert!(text.contains("bad_cache_miss_objects_total"));
            assert!(text.contains("bad_cache_evicted_objects_total"));
            assert!(text.contains("bad_broker_retrievals_total"));

            // And the structured event stream saw both tiers: the cluster's
            // result_produced root spans and the broker's retrieval summary.
            let events = ring.events();
            assert!(events.iter().any(|e| matches!(
                e,
                bad_telemetry::Event::Span(span)
                    if span.kind == bad_telemetry::SpanKind::ResultProduced
            )));
            assert!(events
                .iter()
                .any(|e| matches!(e, bad_telemetry::Event::BrokerRetrieve { .. })));
        });
    }

    #[test]
    fn sharded_deployment_delivers_and_aggregates_metrics() {
        on_seeds(|exec| {
            let dep = deployment(PolicyName::Lsc, 4, exec, Observability::detached());
            deliver_one_flood_alert(&dep);
            // metrics_text aggregates across shards: the shard-count gauge
            // and the shared cache counter family are both present.
            let text = dep.metrics_text();
            assert!(text.contains("bad_broker_cache_shards 4"));
            assert!(text.contains("bad_cache_hit_objects_total"));
        });
    }

    #[test]
    fn virtual_clock_compresses_time() {
        let exec = Exec::threads(1000.0);
        let before = exec.now();
        exec.sleep(SimDuration::from_secs(1)); // ~1 ms real
        assert!(exec.now() - before >= SimDuration::from_millis(900));
    }
}
