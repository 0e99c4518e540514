//! The threaded prototype runtime.
//!
//! This is the deployment shape of the paper's Fig. 6: a data-cluster
//! node and a broker node running independently (here: OS threads
//! communicating over channels, standing in for REST/AQL calls), clients
//! that subscribe and retrieve through the broker, and push notifications
//! flowing back to connected clients (the WebSocket path). A
//! [`VirtualClock`] maps the network model's virtual latencies onto
//! (compressed) wall-clock sleeps so an hour-long scenario can run in
//! seconds without changing any broker logic.

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery, DeliveryMetrics, Observability};
use bad_cache::{PolicyName, ShardedCacheManager};
use bad_cluster::{DataCluster, Notification};
use bad_query::ParamBindings;
use bad_storage::ResultObject;
use bad_telemetry::{Gauge, ScrapeServer, DEFAULT_SCRAPE_LIMIT};
use bad_types::{
    BackendSubId, BadError, FrontendSubId, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

/// A wall-clock-backed virtual clock with time compression.
///
/// With a compression factor of `60.0`, one real second advances the
/// virtual clock by one minute, and a virtual 250 ms sleep takes ~4 ms of
/// real time.
#[derive(Clone, Debug)]
pub struct VirtualClock {
    start: Instant,
    compression: f64,
}

impl VirtualClock {
    /// Creates a clock that compresses time by `compression` (>= 1.0
    /// makes virtual time run faster than real time).
    pub fn new(compression: f64) -> Self {
        Self {
            start: Instant::now(),
            compression: compression.max(1e-9),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        let real = self.start.elapsed().as_secs_f64();
        Timestamp::ZERO + SimDuration::from_secs_f64(real * self.compression)
    }

    /// Sleeps for a *virtual* duration (compressed into real time).
    pub fn sleep(&self, virtual_duration: SimDuration) {
        let real = virtual_duration.as_secs_f64() / self.compression;
        if real > 0.0 {
            thread::sleep(std::time::Duration::from_secs_f64(real));
        }
    }
}

enum ClusterRequest {
    Subscribe {
        channel: String,
        params: ParamBindings,
        now: Timestamp,
        reply: SyncSender<Result<BackendSubId>>,
    },
    Unsubscribe {
        bs: BackendSubId,
        reply: SyncSender<Result<()>>,
    },
    Fetch {
        bs: BackendSubId,
        range: TimeRange,
        reply: SyncSender<Vec<ResultObject>>,
    },
    FetchBatch {
        requests: Vec<(BackendSubId, TimeRange)>,
        reply: SyncSender<Vec<Vec<ResultObject>>>,
    },
    Publish {
        dataset: String,
        ts: Timestamp,
        record: bad_types::DataValue,
        reply: SyncSender<Result<Vec<Notification>>>,
    },
    Tick {
        now: Timestamp,
        reply: SyncSender<Result<Vec<Notification>>>,
    },
    Stop,
}

/// The broker thread's remote handle to the cluster node: each call is a
/// channel round trip plus the virtual cluster-link RTT.
struct ClusterClient {
    tx: Sender<ClusterRequest>,
    clock: VirtualClock,
    rtt: SimDuration,
    /// `bad_proto_cluster_inflight_rpcs`: broker→cluster requests sent
    /// but not yet answered (the fetch worker channel's live depth).
    inflight: Gauge,
}

impl ClusterClient {
    fn roundtrip<T>(&self, build: impl FnOnce(SyncSender<T>) -> ClusterRequest) -> T
    where
        T: Send,
    {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.clock.sleep(self.rtt);
        self.inflight.inc();
        self.tx.send(build(reply_tx)).expect("cluster thread alive");
        let reply = reply_rx.recv().expect("cluster thread replies");
        self.inflight.dec();
        reply
    }
}

impl ClusterHandle for ClusterClient {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        let channel = channel.to_owned();
        self.roundtrip(|reply| ClusterRequest::Subscribe {
            channel,
            params,
            now,
            reply,
        })
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        self.roundtrip(|reply| ClusterRequest::Unsubscribe { bs, reply })
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.roundtrip(|reply| ClusterRequest::Fetch { bs, range, reply })
    }

    fn cluster_fetch_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
    ) -> Vec<Vec<ResultObject>> {
        // One channel round trip — and one virtual RTT — for the whole
        // batch, matching `NetworkModel::cluster_fetch_batch_latency`.
        let requests = requests.to_vec();
        self.roundtrip(|reply| ClusterRequest::FetchBatch { requests, reply })
    }
}

enum BrokerRequest {
    RegisterClient {
        subscriber: SubscriberId,
        events: Sender<ClientEvent>,
    },
    Subscribe {
        subscriber: SubscriberId,
        channel: String,
        params: ParamBindings,
        reply: SyncSender<Result<FrontendSubId>>,
    },
    Unsubscribe {
        subscriber: SubscriberId,
        fs: FrontendSubId,
        reply: SyncSender<Result<()>>,
    },
    GetResults {
        subscriber: SubscriberId,
        fs: FrontendSubId,
        reply: SyncSender<Result<Delivery>>,
    },
    Notify(Notification),
    Maintain,
    Metrics {
        reply: SyncSender<(DeliveryMetrics, f64)>,
    },
    Stop,
}

/// A push event delivered to a connected client (the WebSocket path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// New results are available on one of the client's subscriptions.
    ResultsAvailable {
        /// The frontend subscription with news.
        frontend: FrontendSubId,
        /// Timestamp of the newest result.
        latest_ts: Timestamp,
    },
}

/// A client-side handle to the broker node.
pub struct BrokerClient {
    subscriber: SubscriberId,
    tx: Sender<BrokerRequest>,
    /// Push notifications from the broker.
    pub events: Receiver<ClientEvent>,
    clock: VirtualClock,
    subscriber_rtt: SimDuration,
}

impl BrokerClient {
    /// Subscribes to a parameterized channel.
    ///
    /// # Errors
    ///
    /// Propagates broker/cluster-side subscription errors.
    pub fn subscribe(&self, channel: &str, params: ParamBindings) -> Result<FrontendSubId> {
        let (reply, rx) = sync_channel(1);
        self.clock.sleep(self.subscriber_rtt);
        self.tx
            .send(BrokerRequest::Subscribe {
                subscriber: self.subscriber,
                channel: channel.to_owned(),
                params,
                reply,
            })
            .map_err(|_| BadError::InvalidState("broker stopped".into()))?;
        rx.recv()
            .map_err(|_| BadError::InvalidState("broker stopped".into()))?
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Unknown subscription or wrong owner.
    pub fn unsubscribe(&self, fs: FrontendSubId) -> Result<()> {
        let (reply, rx) = sync_channel(1);
        self.tx
            .send(BrokerRequest::Unsubscribe {
                subscriber: self.subscriber,
                fs,
                reply,
            })
            .map_err(|_| BadError::InvalidState("broker stopped".into()))?;
        rx.recv()
            .map_err(|_| BadError::InvalidState("broker stopped".into()))?
    }

    /// Retrieves pending results on one subscription, blocking for the
    /// (compressed) delivery latency.
    ///
    /// # Errors
    ///
    /// Unknown subscription or wrong owner.
    pub fn get_results(&self, fs: FrontendSubId) -> Result<Delivery> {
        let (reply, rx) = sync_channel(1);
        self.tx
            .send(BrokerRequest::GetResults {
                subscriber: self.subscriber,
                fs,
                reply,
            })
            .map_err(|_| BadError::InvalidState("broker stopped".into()))?;
        let delivery = rx
            .recv()
            .map_err(|_| BadError::InvalidState("broker stopped".into()))??;
        // The subscriber experiences the delivery latency.
        self.clock.sleep(delivery.latency);
        Ok(delivery)
    }
}

/// A running two-node deployment (cluster thread + broker thread).
pub struct Deployment {
    cluster_tx: Sender<ClusterRequest>,
    broker_tx: Sender<BrokerRequest>,
    clock: VirtualClock,
    subscriber_rtt: SimDuration,
    handles: Vec<JoinHandle<()>>,
    obs: Observability,
    cache: Arc<ShardedCacheManager>,
    /// Pre-rendered `bad_build_info` labels as a JSON object, embedded
    /// in every `/healthz` body.
    build_info: String,
}

impl Deployment {
    /// Boots the cluster and broker threads with the observers in
    /// `obs` attached to both nodes.
    ///
    /// `cluster` is the initial cluster state (datasets, channels,
    /// enrichments); `compression` is the virtual-time speedup. Metric
    /// counters are registered whatever `obs` is and rendered by
    /// [`Deployment::metrics_text`]. With [`Observability::full`] every
    /// tier emits causally linked lifecycle spans (see
    /// `bad_telemetry::trace`) through the bundle's tracer, which writes
    /// them and the other records of both nodes (retrieval summaries
    /// and TTL retunes on the broker thread, enrich records on the
    /// cluster thread) to its sink, and each maintenance pass runs
    /// [`Observability::after_maintain`]. Pair it with
    /// [`Deployment::serve_scrape`] to expose the whole picture over
    /// HTTP.
    pub fn start(
        policy: PolicyName,
        config: BrokerConfig,
        mut cluster: DataCluster,
        compression: f64,
        obs: Observability,
    ) -> Self {
        let clock = VirtualClock::new(compression);
        let (cluster_tx, cluster_rx) = channel::<ClusterRequest>();
        let (broker_tx, broker_rx) = channel::<BrokerRequest>();
        let registry = obs.registry();

        // Build the broker on this thread so the deployment can keep a
        // shared cache handle (for `/healthz` shard occupancy) before the
        // broker node takes ownership.
        let mut broker = Broker::new(policy, config);
        obs.attach(&mut cluster, &mut broker);
        let cache = broker.cache_handle();
        let cluster_handle = thread::spawn(move || cluster_node(cluster, cluster_rx));

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

        let cluster_client = ClusterClient {
            tx: cluster_tx.clone(),
            clock: clock.clone(),
            rtt: config.net.cluster.rtt,
            inflight: registry.gauge("bad_proto_cluster_inflight_rpcs"),
        };
        registry
            .gauge("bad_broker_cache_shards")
            .set(cache.shard_count() as u64);
        // One queue-depth gauge per shard maintenance worker: jobs
        // enqueued but not yet drained by `shard_worker`.
        let shard_queue_depth: Vec<Gauge> = (0..cache.shard_count())
            .map(|idx| {
                registry.gauge_with(
                    "bad_proto_shard_queue_depth",
                    &[("shard", &idx.to_string())],
                )
            })
            .collect();

        let broker_clock = clock.clone();
        let broker_obs = obs.clone();
        let broker_handle = thread::spawn(move || {
            broker_node(
                broker,
                cluster_client,
                broker_rx,
                broker_clock,
                broker_obs,
                shard_queue_depth,
            )
        });

        Self {
            cluster_tx,
            broker_tx,
            clock,
            subscriber_rtt: config.net.subscriber.rtt,
            handles: vec![cluster_handle, broker_handle],
            obs,
            cache,
            build_info,
        }
    }

    /// Binds a scrape endpoint (use port `0` for an ephemeral port)
    /// serving `/metrics` (Prometheus text), `/healthz` (per-shard cache
    /// occupancy, build info and top contended locks as JSON),
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
        // Everything `/healthz` reads is shared state: it never waits on
        // the broker thread, so a broker stuck in a cluster round trip
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
                // Top-k contended lock sites: the "which shard mutex is
                // hot right now" answer without walking `/profile`.
                if health_profiler.enabled() {
                    let mut sites = String::from("[");
                    for (i, site) in health_profiler.top_contended(3).iter().enumerate() {
                        if i > 0 {
                            sites.push(',');
                        }
                        sites.push_str(&site.render_json());
                    }
                    sites.push(']');
                    obj.field_raw("top_contended", &sites);
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

    /// The observers the deployment was started with.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Prometheus-text snapshot of every metric family the deployment
    /// has registered (cache hit/miss/eviction counters, broker
    /// retrieval/delivery counters, latency/size histograms).
    pub fn metrics_text(&self) -> String {
        self.obs.registry().render()
    }

    /// The deployment's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Creates a connected client for `subscriber`.
    pub fn client(&self, subscriber: SubscriberId) -> BrokerClient {
        let (events_tx, events_rx) = channel();
        self.broker_tx
            .send(BrokerRequest::RegisterClient {
                subscriber,
                events: events_tx,
            })
            .expect("broker thread alive");
        BrokerClient {
            subscriber,
            tx: self.broker_tx.clone(),
            events: events_rx,
            clock: self.clock.clone(),
            subscriber_rtt: self.subscriber_rtt,
        }
    }

    /// Publishes a record into the cluster, firing continuous channels.
    ///
    /// # Errors
    ///
    /// Schema violations or unknown datasets.
    pub fn publish(
        &self,
        dataset: &str,
        record: bad_types::DataValue,
    ) -> Result<Vec<Notification>> {
        let (reply, rx) = sync_channel(1);
        let now = self.clock.now();
        self.cluster_tx
            .send(ClusterRequest::Publish {
                dataset: dataset.to_owned(),
                ts: now,
                record,
                reply,
            })
            .map_err(|_| BadError::InvalidState("cluster stopped".into()))?;
        let notifications = rx
            .recv()
            .map_err(|_| BadError::InvalidState("cluster stopped".into()))??;
        self.dispatch(&notifications);
        Ok(notifications)
    }

    /// Executes due repetitive channels and dispatches their
    /// notifications to the broker.
    ///
    /// # Errors
    ///
    /// Propagates channel evaluation errors.
    pub fn tick(&self) -> Result<usize> {
        let (reply, rx) = sync_channel(1);
        let now = self.clock.now();
        self.cluster_tx
            .send(ClusterRequest::Tick { now, reply })
            .map_err(|_| BadError::InvalidState("cluster stopped".into()))?;
        let notifications = rx
            .recv()
            .map_err(|_| BadError::InvalidState("cluster stopped".into()))??;
        self.dispatch(&notifications);
        Ok(notifications.len())
    }

    /// Runs a cache maintenance pass on the broker.
    pub fn maintain(&self) {
        let _ = self.broker_tx.send(BrokerRequest::Maintain);
    }

    /// Snapshot of the broker's delivery metrics and hit ratio.
    pub fn broker_metrics(&self) -> (DeliveryMetrics, f64) {
        let (reply, rx) = sync_channel(1);
        self.broker_tx
            .send(BrokerRequest::Metrics { reply })
            .expect("broker thread alive");
        rx.recv().expect("broker thread replies")
    }

    /// Stops both nodes and joins their threads.
    pub fn shutdown(mut self) {
        let _ = self.broker_tx.send(BrokerRequest::Stop);
        let _ = self.cluster_tx.send(ClusterRequest::Stop);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    fn dispatch(&self, notifications: &[Notification]) {
        for n in notifications {
            let _ = self.broker_tx.send(BrokerRequest::Notify(*n));
        }
    }
}

fn cluster_node(mut cluster: DataCluster, rx: Receiver<ClusterRequest>) {
    while let Ok(request) = rx.recv() {
        match request {
            ClusterRequest::Subscribe {
                channel,
                params,
                now,
                reply,
            } => {
                let _ = reply.send(cluster.subscribe(&channel, params, now));
            }
            ClusterRequest::Unsubscribe { bs, reply } => {
                let _ = reply.send(cluster.unsubscribe(bs));
            }
            ClusterRequest::Fetch { bs, range, reply } => {
                let _ = reply.send(cluster.fetch(bs, range));
            }
            ClusterRequest::FetchBatch { requests, reply } => {
                let results = requests
                    .iter()
                    .map(|&(bs, range)| cluster.fetch(bs, range))
                    .collect();
                let _ = reply.send(results);
            }
            ClusterRequest::Publish {
                dataset,
                ts,
                record,
                reply,
            } => {
                let _ = reply.send(cluster.publish(&dataset, ts, record));
            }
            ClusterRequest::Tick { now, reply } => {
                let _ = reply.send(cluster.tick(now));
            }
            ClusterRequest::Stop => break,
        }
    }
}

/// Work dispatched to one cache-shard maintenance worker.
enum ShardJob {
    /// Run the shard's TTL retune/expiry pass, then signal `done`.
    Maintain {
        now: Timestamp,
        done: SyncSender<()>,
    },
    Stop,
}

fn shard_worker(
    cache: std::sync::Arc<bad_cache::ShardedCacheManager>,
    idx: usize,
    rx: Receiver<ShardJob>,
    queue_depth: Gauge,
) {
    while let Ok(job) = rx.recv() {
        match job {
            ShardJob::Maintain { now, done } => {
                let _ = cache.maintain_shard(idx, now);
                queue_depth.dec();
                let _ = done.send(());
            }
            ShardJob::Stop => break,
        }
    }
}

fn broker_node(
    mut broker: Broker,
    mut cluster: ClusterClient,
    rx: Receiver<BrokerRequest>,
    clock: VirtualClock,
    obs: Observability,
    shard_queue_depth: Vec<Gauge>,
) {
    // One maintenance worker per cache shard: a Maintain request fans
    // the per-shard TTL retune/expiry passes out in parallel (the whole
    // point of lock striping), then the broker thread runs the global
    // budget rebalance once every shard has reported in.
    let cache = broker.cache_handle();
    let mut shard_txs: Vec<Sender<ShardJob>> = Vec::with_capacity(cache.shard_count());
    let mut shard_handles = Vec::with_capacity(cache.shard_count());
    for (idx, depth) in shard_queue_depth.iter().enumerate() {
        let (tx, shard_rx) = channel::<ShardJob>();
        let cache = broker.cache_handle();
        let depth = depth.clone();
        shard_handles.push(thread::spawn(move || {
            shard_worker(cache, idx, shard_rx, depth)
        }));
        shard_txs.push(tx);
    }

    let mut clients: std::collections::HashMap<SubscriberId, Sender<ClientEvent>> =
        std::collections::HashMap::new();
    while let Ok(request) = rx.recv() {
        let now = clock.now();
        match request {
            BrokerRequest::RegisterClient { subscriber, events } => {
                clients.insert(subscriber, events);
            }
            BrokerRequest::Subscribe {
                subscriber,
                channel,
                params,
                reply,
            } => {
                let _ =
                    reply.send(broker.subscribe(&mut cluster, subscriber, &channel, params, now));
            }
            BrokerRequest::Unsubscribe {
                subscriber,
                fs,
                reply,
            } => {
                let _ = reply.send(broker.unsubscribe(&mut cluster, subscriber, fs, now));
            }
            BrokerRequest::GetResults {
                subscriber,
                fs,
                reply,
            } => {
                let _ = reply.send(broker.get_results(&mut cluster, subscriber, fs, now));
            }
            BrokerRequest::Notify(notification) => {
                let outcome = broker.on_notification(&mut cluster, notification, now);
                for subscriber in outcome.notify {
                    if let Some(events) = clients.get(&subscriber) {
                        // Find the frontend sub of this subscriber for the
                        // notified backend subscription.
                        let fs = broker
                            .subscriptions()
                            .subscriptions_of(subscriber)
                            .into_iter()
                            .find(|fs| {
                                broker
                                    .subscriptions()
                                    .frontend(*fs)
                                    .map(|f| f.backend == notification.backend_sub)
                                    .unwrap_or(false)
                            });
                        if let Some(fs) = fs {
                            let _ = events.send(ClientEvent::ResultsAvailable {
                                frontend: fs,
                                latest_ts: notification.latest_ts,
                            });
                        }
                    }
                }
            }
            BrokerRequest::Maintain => {
                let (done_tx, done_rx) = sync_channel(shard_txs.len());
                for (idx, tx) in shard_txs.iter().enumerate() {
                    shard_queue_depth[idx].inc();
                    let _ = tx.send(ShardJob::Maintain {
                        now,
                        done: done_tx.clone(),
                    });
                }
                drop(done_tx);
                for _ in 0..shard_txs.len() {
                    let _ = done_rx.recv();
                }
                let _ = broker.cache().rebalance(now);
                // Fold the broker thread's stage accumulators (the
                // retrieval envelopes recorded since the last tick) into
                // the global aggregates; shard workers self-flush when
                // they fill.
                obs.profiler().flush_thread();
                obs.after_maintain(&cache, now);
            }
            BrokerRequest::Metrics { reply } => {
                let hit = broker.cache().metrics().hit_ratio().unwrap_or(0.0);
                let _ = reply.send((broker.delivery_metrics(), hit));
            }
            BrokerRequest::Stop => break,
        }
    }
    for tx in &shard_txs {
        let _ = tx.send(ShardJob::Stop);
    }
    for handle in shard_handles {
        let _ = handle.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_emergency_cluster;
    use bad_types::DataValue;
    use std::time::Duration;

    /// How long a test waits for a push event after each tick.
    const WAIT: Duration = Duration::from_millis(2);

    fn deployment(policy: PolicyName) -> Deployment {
        let cluster = build_emergency_cluster().unwrap();
        // Strong compression: virtual RTTs cost microseconds of real time.
        Deployment::start(
            policy,
            BrokerConfig::default(),
            cluster,
            100_000.0,
            Observability::detached(),
        )
    }

    #[test]
    fn end_to_end_publish_subscribe_deliver() {
        let dep = deployment(PolicyName::Lsc);
        let alice = dep.client(SubscriberId::new(1));
        let fs = alice
            .subscribe(
                "EmergenciesOfType",
                ParamBindings::from_pairs([("etype", DataValue::from("flood"))]),
            )
            .unwrap();

        dep.publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("flood")),
                ("severity", DataValue::from(3i64)),
                ("district", DataValue::from("district-1")),
            ]),
        )
        .unwrap();

        // Repetitive channels fire on tick; tick until the notification
        // arrives (bounded by the compressed channel period).
        let notified = (0..200).find_map(|_| {
            dep.tick().unwrap();
            alice.events.recv_timeout(WAIT).ok()
        });
        let ClientEvent::ResultsAvailable { frontend, .. } = notified.expect("client was notified");
        assert_eq!(frontend, fs);

        let delivery = alice.get_results(fs).unwrap();
        assert!(delivery.total_objects() >= 1);
        let (metrics, hit) = dep.broker_metrics();
        assert!(metrics.deliveries >= 1);
        assert!(hit > 0.0, "first retrieval should hit the cache");
        dep.shutdown();
    }

    #[test]
    fn unsubscribe_via_client() {
        let dep = deployment(PolicyName::Lru);
        let bob = dep.client(SubscriberId::new(2));
        let fs = bob
            .subscribe(
                "SevereEmergencies",
                ParamBindings::from_pairs([("minsev", DataValue::from(4i64))]),
            )
            .unwrap();
        bob.unsubscribe(fs).unwrap();
        assert!(bob.unsubscribe(fs).is_err());
        assert!(bob.get_results(fs).is_err());
        dep.shutdown();
    }

    #[test]
    fn clients_share_backend_subscriptions() {
        let dep = deployment(PolicyName::Lsc);
        let a = dep.client(SubscriberId::new(1));
        let b = dep.client(SubscriberId::new(2));
        let params = ParamBindings::from_pairs([("etype", DataValue::from("fire"))]);
        let fa = a.subscribe("EmergenciesOfType", params.clone()).unwrap();
        let fb = b.subscribe("EmergenciesOfType", params).unwrap();
        assert_ne!(fa, fb);
        dep.publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("fire")),
                ("severity", DataValue::from(2i64)),
                ("district", DataValue::from("district-0")),
            ]),
        )
        .unwrap();
        for (name, client) in [("a", &a), ("b", &b)] {
            let notified = (0..200).any(|_| {
                dep.tick().unwrap();
                client.events.recv_timeout(WAIT).is_ok()
            });
            assert!(notified, "{name} not notified");
        }
        dep.shutdown();
    }

    #[test]
    fn traced_deployment_streams_events_and_renders_metrics() {
        let cluster = build_emergency_cluster().unwrap();
        let ring = std::sync::Arc::new(bad_telemetry::RingBufferSink::new(65536));
        let dep = Deployment::start(
            PolicyName::Lsc,
            BrokerConfig::default(),
            cluster,
            100_000.0,
            Observability::full(ring.clone(), bad_telemetry::TraceConfig::default()),
        );
        let alice = dep.client(SubscriberId::new(1));
        let fs = alice
            .subscribe(
                "EmergenciesOfType",
                ParamBindings::from_pairs([("etype", DataValue::from("flood"))]),
            )
            .unwrap();
        dep.publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("flood")),
                ("severity", DataValue::from(3i64)),
                ("district", DataValue::from("district-2")),
            ]),
        )
        .unwrap();
        let _ = (0..200).any(|_| {
            dep.tick().unwrap();
            alice.events.recv_timeout(WAIT).is_ok()
        });
        let _ = alice.get_results(fs);

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
        dep.shutdown();
    }

    #[test]
    fn sharded_deployment_delivers_and_aggregates_metrics() {
        let cluster = build_emergency_cluster().unwrap();
        let config = BrokerConfig {
            shards: 4,
            ..BrokerConfig::default()
        };
        let dep = Deployment::start(
            PolicyName::Lsc,
            config,
            cluster,
            100_000.0,
            Observability::detached(),
        );
        let alice = dep.client(SubscriberId::new(1));
        let fs = alice
            .subscribe(
                "EmergenciesOfType",
                ParamBindings::from_pairs([("etype", DataValue::from("flood"))]),
            )
            .unwrap();
        dep.publish(
            "EmergencyReports",
            DataValue::object([
                ("kind", DataValue::from("flood")),
                ("severity", DataValue::from(3i64)),
                ("district", DataValue::from("district-1")),
            ]),
        )
        .unwrap();
        let notified = (0..200).any(|_| {
            dep.tick().unwrap();
            // Exercise the fan-out maintenance path while waiting.
            dep.maintain();
            alice.events.recv_timeout(WAIT).is_ok()
        });
        assert!(notified, "client was not notified");
        let delivery = alice.get_results(fs).unwrap();
        assert!(delivery.total_objects() >= 1);

        // metrics_text aggregates across shards: the shard-count gauge
        // and the shared cache counter family are both present.
        let text = dep.metrics_text();
        assert!(text.contains("bad_broker_cache_shards 4"));
        assert!(text.contains("bad_cache_hit_objects_total"));
        let (metrics, hit) = dep.broker_metrics();
        assert!(metrics.deliveries >= 1);
        assert!(hit > 0.0);
        dep.shutdown();
    }

    #[test]
    fn virtual_clock_compresses_time() {
        let clock = VirtualClock::new(1000.0);
        let before = clock.now();
        clock.sleep(SimDuration::from_secs(1)); // ~1 ms real
        let after = clock.now();
        assert!(after - before >= SimDuration::from_millis(900));
    }
}
