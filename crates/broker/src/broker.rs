//! The broker engine: subscription management, cache-mediated delivery
//! and cluster interaction, independent of any particular runtime.

use std::sync::Arc;

use bad_cache::{CacheConfig, GetPlan, NewObject, PolicyName, ShardedCacheManager};
use bad_cluster::{DataCluster, Notification};
use bad_net::NetworkModel;
use bad_query::ParamBindings;
use bad_storage::ResultObject;
use bad_telemetry::{Profiler, StagePath, TraceId, Tracer};
use bad_types::{
    BackendSubId, ByteSize, FrontendSubId, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

use crate::subscriptions::{PendingRange, SubscriptionTable};
use crate::telemetry::BrokerTelemetry;

/// The broker's view of the data cluster.
///
/// The in-process [`DataCluster`] implements this directly; the threaded
/// prototype wraps it with a transport that injects network latency.
pub trait ClusterHandle {
    /// Creates a backend subscription.
    ///
    /// # Errors
    ///
    /// Unknown channel or invalid parameter bindings.
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId>;

    /// Tears down a backend subscription.
    ///
    /// # Errors
    ///
    /// Unknown subscription.
    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()>;

    /// Retrieves results in a timestamp range.
    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject>;

    /// Retrieves several ranges in one round trip, results in request
    /// order. The default forwards to [`ClusterHandle::cluster_fetch`]
    /// per range; transports override it to issue a single batched
    /// request (see `bad_net::NetworkModel::cluster_fetch_batch_latency`
    /// for the latency model).
    fn cluster_fetch_batch(
        &mut self,
        requests: &[(BackendSubId, TimeRange)],
    ) -> Vec<Vec<ResultObject>> {
        requests
            .iter()
            .map(|&(bs, range)| self.cluster_fetch(bs, range))
            .collect()
    }
}

impl ClusterHandle for DataCluster {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        self.subscribe(channel, params, now)
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        self.unsubscribe(bs)
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.fetch(bs, range)
    }
}

/// Broker configuration.
#[derive(Clone, Copy, Debug)]
pub struct BrokerConfig {
    /// Cache manager settings (budget, rate windows, TTL intervals).
    pub cache: CacheConfig,
    /// The network model used for latency accounting.
    pub net: NetworkModel,
    /// Number of lock-striped cache shards. `1` (the default) keeps
    /// eviction/expiry decisions byte-for-byte identical to the
    /// paper's monolithic cache manager; more shards let runtime
    /// worker threads operate on the cache concurrently.
    pub shards: usize,
    /// Hot-key attribution sketches (`bad_telemetry::sketch`): per-
    /// shard Space-Saving heavy hitters, a distinct-active estimator
    /// and top-K delivery-lag quantiles, merged at read time behind
    /// the `/hot` endpoint. `None` (the default) records nothing.
    pub sketches: Option<bad_telemetry::SketchConfig>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            net: NetworkModel::paper_defaults(),
            shards: 1,
            sketches: None,
        }
    }
}

/// What happened when the broker processed a cluster notification.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NotificationOutcome {
    /// Subscribers that should be notified of new results.
    pub notify: Vec<SubscriberId>,
    /// Objects pulled into the cache.
    pub fetched_objects: u64,
    /// Bytes pulled into the cache (counted into `Vol`).
    pub fetched_bytes: ByteSize,
    /// Time the broker spent fetching from the cluster.
    pub fetch_latency: SimDuration,
}

/// The result of one subscriber retrieval (`GETRESULTS`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The frontend subscription served.
    pub frontend: FrontendSubId,
    /// Objects served from the broker cache.
    pub hit_objects: u64,
    /// Bytes served from the broker cache.
    pub hit_bytes: ByteSize,
    /// Objects fetched from the cluster due to misses.
    pub miss_objects: u64,
    /// Bytes fetched from the cluster due to misses.
    pub miss_bytes: ByteSize,
    /// End-to-end latency the subscriber observes.
    pub latency: SimDuration,
    /// The marker to acknowledge up to (the served range's right end).
    pub up_to: Timestamp,
}

impl Delivery {
    /// Total objects delivered.
    pub fn total_objects(&self) -> u64 {
        self.hit_objects + self.miss_objects
    }

    /// Total bytes delivered.
    pub fn total_bytes(&self) -> ByteSize {
        self.hit_bytes + self.miss_bytes
    }
}

/// Aggregated delivery-side measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryMetrics {
    /// Number of retrievals served.
    pub deliveries: u64,
    /// Number of retrievals that delivered at least one object.
    pub non_empty_deliveries: u64,
    /// Sum of observed latencies.
    pub total_latency: SimDuration,
    /// Objects delivered in total.
    pub delivered_objects: u64,
    /// Bytes delivered in total.
    pub delivered_bytes: ByteSize,
}

impl DeliveryMetrics {
    /// Mean subscriber latency over non-empty deliveries.
    pub fn mean_latency(&self) -> Option<SimDuration> {
        if self.non_empty_deliveries == 0 {
            None
        } else {
            Some(self.total_latency / self.non_empty_deliveries)
        }
    }
}

/// Always-zero miss-coalescing counters, kept so that callers reading
/// [`Broker::coalesce_stats`] still build. Every miss range goes to the
/// cluster once per retrieval (Algorithm 1), so nothing is coalesced.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Always 0.
    pub coalesced_fetches: u64,
    /// Always 0.
    pub duplicate_bytes_saved: ByteSize,
}

/// A BAD broker node.
///
/// All methods take the current virtual time and a [`ClusterHandle`];
/// the broker itself holds no clock and spawns no threads, which is what
/// lets the simulator and the prototype share it. See the [crate-level
/// example](crate).
#[derive(Debug)]
pub struct Broker {
    subs: SubscriptionTable,
    cache: Arc<ShardedCacheManager>,
    net: NetworkModel,
    delivery: DeliveryMetrics,
    telemetry: BrokerTelemetry,
    /// Continuous hot-path profiler ([`Profiler::disabled`] unless
    /// attached). The broker owns the `get_all_pending` envelope and
    /// threads its stage timer through the sharded cache's batch paths.
    profiler: Profiler,
}

impl Broker {
    /// Creates a broker with the given caching policy and configuration.
    pub fn new(policy: PolicyName, config: BrokerConfig) -> Self {
        let cache = ShardedCacheManager::new(policy, config.cache, config.shards);
        if let Some(sketches) = config.sketches {
            cache.enable_sketches(sketches);
        }
        Self {
            subs: SubscriptionTable::new(),
            cache: Arc::new(cache),
            net: config.net,
            delivery: DeliveryMetrics::default(),
            telemetry: BrokerTelemetry::detached(),
            profiler: Profiler::disabled(),
        }
    }

    /// Wires this broker and its cache manager to a shared metric
    /// registry, a lifecycle [`bad_telemetry::Tracer`] and the
    /// continuous hot-path [`Profiler`]. The default is detached: a
    /// private registry and the disabled tracer (whose sink is the
    /// allocation-free null sink) and profiler. Pass
    /// [`bad_telemetry::Tracer::disabled`] or [`Profiler::disabled`] for
    /// an observer you do not want.
    ///
    /// The tracer makes retrievals, inserts and drops emit causally
    /// linked spans (see `bad_telemetry::trace`), and writes them, the
    /// retrieval summaries and the TTL retunes to its sink. The profiler
    /// registers per-shard lock sites and decomposes `get_all_pending`
    /// into stage timings (route, lock-wait, lookup, cluster-RTT, ack).
    /// Both are metadata-only: delivery plans are byte-identical.
    /// [`crate::Observability`] bundles one of each.
    pub fn attach_telemetry(
        &mut self,
        registry: &bad_telemetry::Registry,
        tracer: bad_telemetry::SharedTracer,
        profiler: Profiler,
    ) {
        self.cache.set_telemetry(
            bad_cache::CacheTelemetry::new(registry, Arc::clone(&tracer))
                .with_profiler(profiler.clone()),
        );
        self.telemetry = BrokerTelemetry::new(registry, tracer);
        self.profiler = profiler;
    }

    /// [`Broker::attach_telemetry`] under its old name and with the
    /// event sink it once took beside the tracer, kept only for callers
    /// that still use it. `sink` must be the tracer's own: every record
    /// reaches the sink through the tracer.
    #[doc(hidden)]
    pub fn attach_telemetry_profiled(
        &mut self,
        registry: &bad_telemetry::Registry,
        sink: bad_telemetry::SharedSink,
        tracer: bad_telemetry::SharedTracer,
        profiler: Profiler,
    ) {
        debug_assert!(
            std::ptr::addr_eq(Arc::as_ptr(&sink), Arc::as_ptr(tracer.sink())),
            "the sink must be the tracer's own"
        );
        self.attach_telemetry(registry, tracer, profiler);
    }

    /// The profiler in force ([`Profiler::disabled`] by default).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The subscription table (read-only).
    pub fn subscriptions(&self) -> &SubscriptionTable {
        &self.subs
    }

    /// The (sharded) cache manager (read-only).
    pub fn cache(&self) -> &ShardedCacheManager {
        &self.cache
    }

    /// A shared handle to the cache tier, for runtimes that fan cache
    /// maintenance out to shard worker threads.
    pub fn cache_handle(&self) -> Arc<ShardedCacheManager> {
        Arc::clone(&self.cache)
    }

    /// The network model in use.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Delivery-side metrics.
    pub fn delivery_metrics(&self) -> DeliveryMetrics {
        self.delivery
    }

    /// Always [`CoalesceStats::default`]: the broker coalesces no miss
    /// fetch. Kept only for callers that still read it.
    #[doc(hidden)]
    pub fn coalesce_stats(&self) -> CoalesceStats {
        CoalesceStats::default()
    }

    /// Subscribes `subscriber` to `channel(params)`, merging with an
    /// existing backend subscription when one matches (`SUBSCRIBE` of
    /// Algorithm 1). Idempotent: a subscriber that already holds this
    /// `channel(params)` gets its existing frontend subscription back,
    /// markers and cache attachment untouched.
    ///
    /// # Errors
    ///
    /// Propagates cluster-side subscription errors (unknown channel,
    /// invalid bindings).
    pub fn subscribe(
        &mut self,
        cluster: &mut impl ClusterHandle,
        subscriber: SubscriberId,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<FrontendSubId> {
        let backend = match self.subs.find_backend(channel, &params) {
            Some(bs) => bs,
            None => {
                let bs = cluster.cluster_subscribe(channel, params.clone(), now)?;
                self.subs.add_backend(bs, channel, params, now)?;
                self.cache.create_cache(bs, now);
                bs
            }
        };
        let fs = self.subs.add_frontend(subscriber, backend, now)?;
        self.cache.add_subscriber(backend, subscriber)?;
        Ok(fs)
    }

    /// Removes a frontend subscription (`UNSUBSCRIBE` of Algorithm 1).
    /// When the last frontend detaches, the backend subscription and its
    /// cache are torn down.
    ///
    /// # Errors
    ///
    /// Unknown subscription or wrong owner.
    pub fn unsubscribe(
        &mut self,
        cluster: &mut impl ClusterHandle,
        subscriber: SubscriberId,
        fs: FrontendSubId,
        now: Timestamp,
    ) -> Result<()> {
        let (backend, orphaned) = self.subs.remove_frontend(subscriber, fs)?;
        if orphaned {
            self.cache.remove_cache(backend, now);
            cluster.cluster_unsubscribe(backend)?;
        } else {
            self.cache.remove_subscriber(backend, subscriber, now)?;
        }
        Ok(())
    }

    /// Handles a "new results available" webhook from the cluster: pulls
    /// the new results into the cache (except under NC) and returns the
    /// subscribers to notify.
    pub fn on_notification(
        &mut self,
        cluster: &mut impl ClusterHandle,
        notification: Notification,
        now: Timestamp,
    ) -> NotificationOutcome {
        let bs = notification.backend_sub;
        let Some(entry) = self.subs.backend(bs) else {
            // Raced with an unsubscribe; nothing to do.
            return NotificationOutcome::default();
        };
        let since = entry.last_seen;
        let mut outcome = NotificationOutcome::default();

        if self.cache.caches_results() {
            // PULL model: fetch everything newer than our bts marker.
            let range =
                TimeRange::closed(since + SimDuration::from_micros(1), notification.latest_ts);
            let objects = cluster.cluster_fetch(bs, range);
            for object in &objects {
                let desc = NewObject {
                    id: object.id,
                    ts: object.ts,
                    size: object.size,
                    fetch_latency: self.net.cluster_fetch_latency(object.size),
                };
                outcome.fetched_bytes += object.size;
                outcome.fetched_objects += 1;
                // The cache exists as long as the backend entry does.
                let _ = self.cache.insert(bs, desc, now);
            }
            self.cache.record_populate(bs, outcome.fetched_bytes);
            outcome.fetch_latency = self.net.cluster_fetch_latency(outcome.fetched_bytes);
        }

        outcome.notify = self
            .subs
            .advance_backend_marker(bs, notification.latest_ts)
            .expect("backend entry exists")
            .frontends
            .values()
            .copied()
            .collect();
        outcome
    }

    /// Whether `fs` has results its subscriber has not retrieved yet.
    pub fn has_pending(&self, fs: FrontendSubId) -> bool {
        let Some(frontend) = self.subs.frontend(fs) else {
            return false;
        };
        let Some(backend) = self.subs.backend(frontend.backend) else {
            return false;
        };
        backend.last_seen > frontend.last_delivered
    }

    /// Serves a retrieval (`GETRESULTS` + implicit `ACK`): advances the
    /// `fts` marker, plans the range `(fts, bts]` against the cache and
    /// drops what the retrieval fully consumed (one
    /// [`ShardedCacheManager::get_and_ack`]), fetches misses from the
    /// cluster (not re-caching them) and computes the
    /// subscriber-observed latency.
    ///
    /// # Errors
    ///
    /// Unknown subscription, or a subscription not owned by `subscriber`.
    pub fn get_results(
        &mut self,
        cluster: &mut impl ClusterHandle,
        subscriber: SubscriberId,
        fs: FrontendSubId,
        now: Timestamp,
    ) -> Result<Delivery> {
        // Ownership is checked and `fts` advanced in one lookup per
        // table: nothing below can fail, so delivery and ack are one
        // step here as they are in the cache.
        let PendingRange {
            backend: backend_id,
            last_delivered,
            last_seen,
            ..
        } = self.subs.take_pending(subscriber, fs)?;

        // GET + ACK under one acquisition of the cache's shard: the
        // plan, and `subscriber`'s consumption up to the range's end.
        // The miss fetch below reads no cache state, so acking first
        // changes no outcome.
        let range = TimeRange::closed(last_delivered + SimDuration::from_micros(1), last_seen);
        let (plan, _) = self
            .cache
            .get_and_ack(backend_id, subscriber, range, last_seen, now);

        // One hit span per cached object: the end-to-end lag a
        // subscriber observes is produce→deliver. (The cache fed the
        // same lags to the sketches while it held the shard.)
        self.telemetry.tracer().on_retrieve_hits(
            now.as_micros(),
            backend_id.as_u64(),
            subscriber.as_u64(),
            served_objects(&plan, now),
        );

        // Each miss range goes to the cluster, and is not re-cached.
        let mut miss_objects = 0u64;
        let mut miss_bytes = ByteSize::ZERO;
        for &missed_range in &plan.missed {
            let objects = cluster.cluster_fetch(backend_id, missed_range);
            miss_objects += objects.len() as u64;
            miss_bytes += record_misses(
                &self.cache,
                self.telemetry.tracer(),
                &self.net,
                backend_id,
                subscriber,
                &objects,
                now,
            );
        }

        let latency = self.net.delivery_latency(plan.cached_bytes, miss_bytes);
        let delivery = Delivery {
            frontend: fs,
            hit_objects: plan.cached.len() as u64,
            hit_bytes: plan.cached_bytes,
            miss_objects,
            miss_bytes,
            latency,
            up_to: last_seen,
        };

        self.delivery.deliveries += 1;
        if delivery.total_objects() > 0 {
            self.delivery.non_empty_deliveries += 1;
            self.delivery.total_latency += latency;
        }
        self.delivery.delivered_objects += delivery.total_objects();
        self.delivery.delivered_bytes += delivery.total_bytes();
        self.telemetry.on_retrieval(now, subscriber, &delivery);
        Ok(delivery)
    }

    /// Retrieves all pending results across a subscriber's subscriptions
    /// (what a client does when it comes back online).
    ///
    /// Unlike looping over [`Broker::get_results`], this is the batched
    /// hot path: one [`ShardedCacheManager::plan_get_batch`] locking
    /// each cache shard once, and every missed range shipped in a single
    /// [`ClusterHandle::cluster_fetch_batch`] round trip whose RTT is
    /// amortized over the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates marker-advance errors (table inconsistency).
    pub fn get_all_pending(
        &mut self,
        cluster: &mut impl ClusterHandle,
        subscriber: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<Delivery>> {
        // The fields are borrowed apart: the profiler is read all along
        // while the subscription table and the delivery books change.
        let Self {
            subs,
            cache,
            net,
            delivery: books,
            telemetry,
            profiler,
        } = self;
        // Envelope for the whole batched retrieval; leaves recorded by
        // the cache tier (route/lock-wait/lookup) and the cluster round
        // trip below fold under `get_all_pending` in the call tree.
        let mut timer = profiler.op();
        let trace_id = match timer {
            Some(_) => TraceId::for_object(subscriber.as_u64()).as_u64(),
            None => 0,
        };

        // Gather every pending subscription's context in one pass over
        // the subscriber's frontends (Copy fields only).
        let pending: Vec<(FrontendSubId, BackendSubId, TimeRange, Timestamp)> = subs
            .pending_of(subscriber)
            .map(|p| {
                let range =
                    TimeRange::closed(p.last_delivered + SimDuration::from_micros(1), p.last_seen);
                (p.frontend, p.backend, range, p.last_seen)
            })
            .collect();
        if pending.is_empty() {
            profiler.finish(timer, StagePath::GetTotal, trace_id);
            return Ok(Vec::new());
        }

        // One batched plan: each cache shard is locked once for the
        // whole subscriber, not once per subscription.
        let requests: Vec<(BackendSubId, TimeRange)> = pending
            .iter()
            .map(|&(_, bs, range, _)| (bs, range))
            .collect();
        // The gather loop above is envelope self-time; start the stage
        // clock at the cache boundary so route/lock-wait stay honest.
        profiler.stage_skip(&mut timer);
        let plans = cache.plan_get_batch_staged(&requests, now, profiler, &mut timer);

        let tracer = telemetry.tracer();
        for (&(_, backend_id, _, _), plan) in pending.iter().zip(&plans) {
            tracer.on_retrieve_hits(
                now.as_micros(),
                backend_id.as_u64(),
                subscriber.as_u64(),
                served_objects(plan, now),
            );
        }

        // Flatten the missed ranges across the batch, remembering which
        // subscription each one belongs to.
        let mut miss_requests: Vec<(BackendSubId, TimeRange)> = Vec::new();
        let mut owner_of: Vec<usize> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            for missed in &plan.missed {
                miss_requests.push((pending[i].1, *missed));
                owner_of.push(i);
            }
        }

        // Every missed range rides one batched cluster round trip.
        let mut miss_objects = vec![0u64; pending.len()];
        let mut miss_bytes = vec![ByteSize::ZERO; pending.len()];
        let mut fetched_bytes = ByteSize::ZERO;
        if !miss_requests.is_empty() {
            // Don't bill the tracer spans above to the cluster leg.
            profiler.stage_skip(&mut timer);
            let results = cluster.cluster_fetch_batch(&miss_requests);
            profiler.stage(&mut timer, StagePath::GetClusterRtt, trace_id);
            for ((&(bs, _), &i), objects) in miss_requests.iter().zip(&owner_of).zip(&results) {
                let bytes = record_misses(cache, tracer, net, bs, subscriber, objects, now);
                miss_objects[i] += objects.len() as u64;
                miss_bytes[i] += bytes;
                fetched_bytes += bytes;
            }
        }

        // One shared cluster leg for the whole batch: a single RTT over
        // every missed byte.
        let batch_leg = net.cluster_fetch_batch_latency(miss_requests.len() as u64, fetched_bytes);

        let mut out = Vec::with_capacity(pending.len());
        for (i, &(fs, _, _, last_seen)) in pending.iter().enumerate() {
            let plan = &plans[i];
            let latency = if miss_bytes[i].is_zero() {
                net.delivery_latency(plan.cached_bytes, ByteSize::ZERO)
            } else {
                // Processing + own subscriber leg + the shared batch
                // cluster leg (instead of a private cluster RTT each).
                net.processing
                    + net.subscriber_latency(plan.cached_bytes + miss_bytes[i])
                    + batch_leg
            };
            let delivery = Delivery {
                frontend: fs,
                hit_objects: plan.cached.len() as u64,
                hit_bytes: plan.cached_bytes,
                miss_objects: miss_objects[i],
                miss_bytes: miss_bytes[i],
                latency,
                up_to: last_seen,
            };
            subs.advance_frontend_marker(fs, last_seen)?;
            books.deliveries += 1;
            if delivery.total_objects() > 0 {
                books.non_empty_deliveries += 1;
                books.total_latency += latency;
            }
            books.delivered_objects += delivery.total_objects();
            books.delivered_bytes += delivery.total_bytes();
            telemetry.on_retrieval(now, subscriber, &delivery);
            out.push(delivery);
        }

        // Batched ACK: again one lock acquisition per cache shard.
        let acks: Vec<(BackendSubId, SubscriberId, Timestamp)> = pending
            .iter()
            .map(|&(_, bs, _, last_seen)| (bs, subscriber, last_seen))
            .collect();
        // Delivery accounting above is envelope self-time, not ack
        // lock-wait: reset the stage clock before the staged acks.
        profiler.stage_skip(&mut timer);
        let _ = cache.ack_consume_batch_staged(&acks, now, profiler, &mut timer);
        profiler.finish(timer, StagePath::GetTotal, trace_id);
        Ok(out)
    }

    /// Periodic maintenance: TTL recomputation and expiration.
    pub fn maintain(&mut self, now: Timestamp) {
        let _ = self.cache.maintain(now);
        // Fold this thread's stage ring (retrieval envelopes recorded
        // since the last tick) into the global call-tree aggregates.
        self.profiler.flush_thread();
    }
}

/// `(object, bytes, lag_us)` of every object `plan` served from the
/// cache — what the tracer's retrieve-hit spans carry.
fn served_objects(plan: &GetPlan, now: Timestamp) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
    plan.cached
        .iter()
        .map(move |&(object, ts, size)| (object.as_u64(), size.as_u64(), now.since(ts).as_micros()))
}

/// Books one fetched miss range and returns its size: the
/// per-retrieval miss accounting (hit + miss == requested) with each
/// object's delivery lag for the sketches, and one miss span per
/// object carrying its modeled fetch latency.
fn record_misses(
    cache: &ShardedCacheManager,
    tracer: &Tracer,
    net: &NetworkModel,
    bs: BackendSubId,
    subscriber: SubscriberId,
    objects: &[ResultObject],
    now: Timestamp,
) -> ByteSize {
    let bytes: ByteSize = objects.iter().map(|o| o.size).sum();
    let lags_us = objects.iter().map(|o| now.since(o.ts).as_micros());
    cache.record_miss_fetch_with_lags(bs, bytes, lags_us);
    tracer.on_retrieve_misses(
        now.as_micros(),
        bs.as_u64(),
        subscriber.as_u64(),
        objects.iter().map(|o| {
            let fetch_us = net.cluster_fetch_latency(o.size).as_micros();
            (
                o.id.as_u64(),
                o.size.as_u64(),
                now.since(o.ts).as_micros(),
                fetch_us,
            )
        }),
    );
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_storage::Schema;
    use bad_types::DataValue;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn setup() -> (DataCluster, Broker) {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        let broker = Broker::new(PolicyName::Lsc, BrokerConfig::default());
        (cluster, broker)
    }

    fn params(kind: &str) -> ParamBindings {
        ParamBindings::from_pairs([("kind", DataValue::from(kind))])
    }

    fn publish(cluster: &mut DataCluster, secs: u64, kind: &str) -> Vec<Notification> {
        cluster
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

    #[test]
    fn identical_subscriptions_share_one_backend() {
        let (mut cluster, mut broker) = setup();
        broker
            .subscribe(
                &mut cluster,
                SubscriberId::new(1),
                "ByKind",
                params("fire"),
                t(0),
            )
            .unwrap();
        broker
            .subscribe(
                &mut cluster,
                SubscriberId::new(2),
                "ByKind",
                params("fire"),
                t(0),
            )
            .unwrap();
        broker
            .subscribe(
                &mut cluster,
                SubscriberId::new(3),
                "ByKind",
                params("flood"),
                t(0),
            )
            .unwrap();
        assert_eq!(broker.subscriptions().frontend_count(), 3);
        assert_eq!(broker.subscriptions().backend_count(), 2);
        assert_eq!(cluster.subscription_count(), 2);
    }

    #[test]
    fn notification_pulls_results_and_lists_subscribers() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let bob = SubscriberId::new(2);
        broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        broker
            .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
            .unwrap();
        let n = publish(&mut cluster, 1, "fire");
        assert_eq!(n.len(), 1);
        let outcome = broker.on_notification(&mut cluster, n[0], t(1));
        assert_eq!(outcome.fetched_objects, 1);
        assert!(outcome.fetched_bytes > ByteSize::ZERO);
        let mut notified = outcome.notify.clone();
        notified.sort();
        assert_eq!(notified, vec![alice, bob]);
        assert!(broker.cache().total_bytes() > ByteSize::ZERO);
    }

    #[test]
    fn shared_cache_serves_second_subscriber_from_memory() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let bob = SubscriberId::new(2);
        let fa = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let fb = broker
            .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
            .unwrap();
        let n = publish(&mut cluster, 1, "fire");
        broker.on_notification(&mut cluster, n[0], t(1));

        let da = broker.get_results(&mut cluster, alice, fa, t(2)).unwrap();
        assert_eq!((da.hit_objects, da.miss_objects), (1, 0));
        // The object is still cached (bob has not consumed it).
        let db = broker.get_results(&mut cluster, bob, fb, t(3)).unwrap();
        assert_eq!((db.hit_objects, db.miss_objects), (1, 0));
        // Now fully consumed: dropped from the cache.
        assert_eq!(broker.cache().total_bytes(), ByteSize::ZERO);
        assert_eq!(broker.cache().metrics().consumed_objects, 1);
    }

    /// A repeated `subscribe` used to mint a second frontend on the
    /// same backend. Consumption is keyed by subscriber, so the first
    /// frontend's ack consumed what the second was owed (hit 0 / miss
    /// 0), unsubscribing either one detached both from the cache, and
    /// notifications listed the subscriber twice.
    #[test]
    fn duplicate_subscription_is_idempotent() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let bob = SubscriberId::new(2);
        let f1 = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let fb = broker
            .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
            .unwrap();
        let f2 = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        assert_eq!(f1, f2);
        assert_eq!(broker.subscriptions().frontend_count(), 2);

        let n = publish(&mut cluster, 1, "fire");
        let outcome = broker.on_notification(&mut cluster, n[0], t(1));
        let mut notified = outcome.notify;
        notified.sort();
        assert_eq!(notified, vec![alice, bob], "each subscriber once");

        // Whichever id the client kept, the object it is owed arrives,
        // exactly once.
        let d = broker.get_results(&mut cluster, alice, f2, t(2)).unwrap();
        assert_eq!((d.hit_objects, d.miss_objects), (1, 0));
        let again = broker.get_results(&mut cluster, alice, f1, t(3)).unwrap();
        assert_eq!(again.total_objects(), 0);

        // Unsubscribing ends the subscription outright — the id is dead,
        // not silently empty — and leaves bob's share in the cache.
        broker.unsubscribe(&mut cluster, alice, f1, t(4)).unwrap();
        assert!(broker.get_results(&mut cluster, alice, f2, t(5)).is_err());
        let db = broker.get_results(&mut cluster, bob, fb, t(5)).unwrap();
        assert_eq!((db.hit_objects, db.miss_objects), (1, 0));
    }

    #[test]
    fn miss_fetches_from_cluster_without_recaching() {
        let (mut cluster, broker) = setup();
        // Budget so small that nothing survives in the cache.
        let mut config = BrokerConfig::default();
        config.cache.budget = ByteSize::new(1);
        let mut broker2 = Broker::new(PolicyName::Lsc, config);
        let alice = SubscriberId::new(1);
        let fs = broker2
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let n = publish(&mut cluster, 1, "fire");
        broker2.on_notification(&mut cluster, n[0], t(1));
        assert_eq!(broker2.cache().total_bytes(), ByteSize::ZERO); // evicted

        let d = broker2.get_results(&mut cluster, alice, fs, t(2)).unwrap();
        assert_eq!((d.hit_objects, d.miss_objects), (0, 1));
        assert!(d.miss_bytes > ByteSize::ZERO);
        // Still not cached afterwards.
        assert_eq!(broker2.cache().total_bytes(), ByteSize::ZERO);
        let _ = broker;
    }

    #[test]
    fn nc_policy_always_misses_but_delivers() {
        let (mut cluster, broker) = setup();
        let mut nc = Broker::new(PolicyName::Nc, BrokerConfig::default());
        let alice = SubscriberId::new(1);
        let fs = nc
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let n = publish(&mut cluster, 1, "fire");
        let outcome = nc.on_notification(&mut cluster, n[0], t(1));
        assert_eq!(outcome.fetched_objects, 0); // no prefetch under NC
        let d = nc.get_results(&mut cluster, alice, fs, t(2)).unwrap();
        assert_eq!((d.hit_objects, d.miss_objects), (0, 1));
        let _ = broker;
    }

    #[test]
    fn latency_hit_faster_than_miss() {
        let (mut cluster, mut broker) = setup();
        let mut nc = Broker::new(PolicyName::Nc, BrokerConfig::default());
        let alice = SubscriberId::new(1);
        let f_hit = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let f_miss = nc
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let notifications = publish(&mut cluster, 1, "fire");
        for n in &notifications {
            broker.on_notification(&mut cluster, *n, t(1));
            nc.on_notification(&mut cluster, *n, t(1));
        }
        let hit = broker
            .get_results(&mut cluster, alice, f_hit, t(2))
            .unwrap();
        let miss = nc.get_results(&mut cluster, alice, f_miss, t(2)).unwrap();
        assert!(
            hit.latency < miss.latency,
            "{} !< {}",
            hit.latency,
            miss.latency
        );
    }

    #[test]
    fn empty_retrieval_is_cheap_and_idempotent() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let fs = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        assert!(!broker.has_pending(fs));
        let d = broker.get_results(&mut cluster, alice, fs, t(1)).unwrap();
        assert_eq!(d.total_objects(), 0);
        let m = broker.delivery_metrics();
        assert_eq!(m.deliveries, 1);
        assert_eq!(m.non_empty_deliveries, 0);
        assert_eq!(m.mean_latency(), None);
    }

    #[test]
    fn get_all_pending_covers_all_subscriptions() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        broker
            .subscribe(&mut cluster, alice, "ByKind", params("flood"), t(0))
            .unwrap();
        for n in publish(&mut cluster, 1, "fire") {
            broker.on_notification(&mut cluster, n, t(1));
        }
        for n in publish(&mut cluster, 2, "flood") {
            broker.on_notification(&mut cluster, n, t(2));
        }
        let deliveries = broker.get_all_pending(&mut cluster, alice, t(3)).unwrap();
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.total_objects() == 1));
        // Everything consumed; nothing pending.
        assert!(broker
            .get_all_pending(&mut cluster, alice, t(4))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unsubscribe_tears_down_shared_state_lazily() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let bob = SubscriberId::new(2);
        let fa = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let fb = broker
            .subscribe(&mut cluster, bob, "ByKind", params("fire"), t(0))
            .unwrap();
        broker.unsubscribe(&mut cluster, alice, fa, t(1)).unwrap();
        // Backend and cluster subscription survive for bob.
        assert_eq!(broker.subscriptions().backend_count(), 1);
        assert_eq!(cluster.subscription_count(), 1);
        broker.unsubscribe(&mut cluster, bob, fb, t(2)).unwrap();
        assert_eq!(broker.subscriptions().backend_count(), 0);
        assert_eq!(cluster.subscription_count(), 0);
        assert_eq!(broker.cache().cache_count(), 0);
    }

    /// A refused retrieval is refused before anything moves: the cache's
    /// metrics and contents (cursors included), the `fts` marker and the
    /// delivery metrics all read as they did.
    #[test]
    fn wrong_owner_or_unknown_frontend_changes_nothing() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let fs = broker
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let n = publish(&mut cluster, 1, "fire");
        broker.on_notification(&mut cluster, n[0], t(1));
        let backend = broker.subscriptions().frontend(fs).unwrap().backend;

        let observe = |broker: &Broker| {
            (
                broker.cache().metrics(),
                broker.cache().with_cache(backend, |c| format!("{c:?}")),
                broker.subscriptions().frontend(fs).cloned(),
                broker.delivery_metrics(),
            )
        };
        let before = observe(&broker);
        let stranger = broker.get_results(&mut cluster, SubscriberId::new(9), fs, t(2));
        assert!(matches!(
            stranger,
            Err(bad_types::BadError::InvalidArgument(_))
        ));
        let unknown = broker.get_results(&mut cluster, alice, FrontendSubId::new(77), t(2));
        assert!(matches!(unknown, Err(bad_types::BadError::NotFound { .. })));
        assert_eq!(observe(&broker), before);

        // The owner is still owed the object, from the cache.
        let d = broker.get_results(&mut cluster, alice, fs, t(3)).unwrap();
        assert_eq!((d.hit_objects, d.miss_objects), (1, 0));
    }

    /// The notify list is read straight off the backend entry. It must
    /// be what the two-table walk gave — owners in frontend-id order,
    /// each subscriber once — whatever subscribe / unsubscribe /
    /// re-subscribe churn came before.
    #[test]
    fn notify_lists_owners_in_frontend_order_through_churn() {
        let (mut cluster, mut broker) = setup();
        let sub = SubscriberId::new;
        let mut held = std::collections::BTreeMap::new();
        let mut secs = 0;
        let mut check = |cluster: &mut DataCluster, broker: &mut Broker, want: Vec<u64>| {
            secs += 1;
            let n = publish(cluster, secs, "fire");
            let notify = broker.on_notification(cluster, n[0], t(secs)).notify;
            let table = broker.subscriptions();
            let walked: Vec<SubscriberId> = table
                .backend(n[0].backend_sub)
                .unwrap()
                .frontends
                .keys()
                .map(|fs| table.frontend(*fs).unwrap().subscriber)
                .collect();
            assert_eq!(notify, walked);
            assert_eq!(notify, want.into_iter().map(sub).collect::<Vec<_>>());
        };

        for s in [5, 3, 8, 1] {
            let fs = broker
                .subscribe(&mut cluster, sub(s), "ByKind", params("fire"), t(0))
                .unwrap();
            held.insert(s, fs);
        }
        // An unrelated backend in between does not show up.
        broker
            .subscribe(&mut cluster, sub(3), "ByKind", params("flood"), t(0))
            .unwrap();
        check(&mut cluster, &mut broker, vec![5, 3, 8, 1]);

        // A duplicate subscribe is idempotent: still listed once, in place.
        broker
            .subscribe(&mut cluster, sub(3), "ByKind", params("fire"), t(0))
            .unwrap();
        check(&mut cluster, &mut broker, vec![5, 3, 8, 1]);

        broker
            .unsubscribe(&mut cluster, sub(3), held[&3], t(0))
            .unwrap();
        check(&mut cluster, &mut broker, vec![5, 8, 1]);

        // Re-subscribing mints a newer frontend: back, at the end.
        broker
            .subscribe(&mut cluster, sub(3), "ByKind", params("fire"), t(0))
            .unwrap();
        broker
            .unsubscribe(&mut cluster, sub(5), held[&5], t(0))
            .unwrap();
        check(&mut cluster, &mut broker, vec![8, 1, 3]);
    }

    /// `get_all_pending` serves exactly the subscriptions with something
    /// new, in frontend-id order.
    #[test]
    fn get_all_pending_keeps_frontend_order_and_skips_idle_subscriptions() {
        let (mut cluster, mut broker) = setup();
        let alice = SubscriberId::new(1);
        let kinds = ["fire", "flood", "quake", "storm"];
        let fs: Vec<FrontendSubId> = kinds
            .iter()
            .map(|kind| {
                broker
                    .subscribe(&mut cluster, alice, "ByKind", params(kind), t(0))
                    .unwrap()
            })
            .collect();
        // Results arrive for the fourth, the first and the third.
        for (secs, kind) in [(1, "storm"), (2, "fire"), (3, "quake")] {
            for n in publish(&mut cluster, secs, kind) {
                broker.on_notification(&mut cluster, n, t(secs));
            }
        }
        let served: Vec<FrontendSubId> = broker
            .get_all_pending(&mut cluster, alice, t(4))
            .unwrap()
            .iter()
            .map(|d| d.frontend)
            .collect();
        assert_eq!(served, vec![fs[0], fs[2], fs[3]]);
        assert!(fs.iter().all(|&f| !broker.has_pending(f)));
    }

    /// A freed frontend's id is dead for good, even once another
    /// subscriber holds its slot, and an id nobody minted is refused
    /// the same way: neither moves a marker, the cache or a table.
    #[test]
    fn stale_and_hostile_handles_change_nothing() {
        use bad_types::BadError;
        let (mut cluster, mut broker) = setup();
        let (alice, bob, carol) = (
            SubscriberId::new(1),
            SubscriberId::new(2),
            SubscriberId::new(3),
        );
        let fire = |broker: &mut Broker, cluster: &mut DataCluster, who, secs| {
            broker
                .subscribe(cluster, who, "ByKind", params("fire"), t(secs))
                .unwrap()
        };
        let carols = fire(&mut broker, &mut cluster, carol, 0);
        let alices = fire(&mut broker, &mut cluster, alice, 0);
        let n = publish(&mut cluster, 1, "fire");
        broker.on_notification(&mut cluster, n[0], t(1));
        broker
            .unsubscribe(&mut cluster, alice, alices, t(2))
            .unwrap();
        let bobs = fire(&mut broker, &mut cluster, bob, 3);
        assert_eq!(bobs.slot(), alices.slot(), "bob reuses alice's slot");
        assert_ne!(bobs, alices);
        let n = publish(&mut cluster, 4, "fire");
        broker.on_notification(&mut cluster, n[0], t(4));
        let backend = n[0].backend_sub;

        let observe = |broker: &Broker, cluster: &DataCluster| {
            let table = broker.subscriptions();
            (
                broker.cache().metrics(),
                broker.cache().with_cache(backend, |c| format!("{c:?}")),
                table.frontend(bobs).cloned(),
                table.frontend(carols).cloned(),
                broker.delivery_metrics(),
                (table.frontend_slots(), table.frontend_count()),
                (table.backend_count(), broker.cache().cache_count()),
                cluster.subscription_count(),
            )
        };
        let before = observe(&broker, &cluster);
        fn not_found<T>(r: Result<T>) -> bool {
            matches!(r, Err(BadError::NotFound { .. }))
        }
        for who in [alice, bob] {
            assert!(not_found(broker.get_results(
                &mut cluster,
                who,
                alices,
                t(5)
            )));
        }
        assert!(not_found(broker.unsubscribe(
            &mut cluster,
            alice,
            alices,
            t(5)
        )));
        assert!(!broker.has_pending(alices));

        let hostile_fs = FrontendSubId::new(u64::MAX);
        assert!(not_found(broker.get_results(
            &mut cluster,
            alice,
            hostile_fs,
            t(5)
        )));
        assert!(not_found(broker.unsubscribe(
            &mut cluster,
            alice,
            hostile_fs,
            t(5)
        )));
        assert!(broker.subscriptions().frontend(hostile_fs).is_none());
        let hostile_bs = BackendSubId::new(u64::MAX);
        assert!(broker.subscriptions().backend(hostile_bs).is_none());
        assert!(not_found(broker.cache().add_subscriber(hostile_bs, alice)));
        assert!(not_found(broker.cache().remove_subscriber(
            hostile_bs,
            alice,
            t(5)
        )));
        assert!(not_found(cluster.unsubscribe(hostile_bs)));
        let stray = Notification {
            backend_sub: hostile_bs,
            latest_ts: t(5),
            count: 1,
            bytes: ByteSize::new(1),
        };
        assert!(broker
            .on_notification(&mut cluster, stray, t(5))
            .notify
            .is_empty());
        assert_eq!(observe(&broker, &cluster), before);

        // Bob is owed what came after his subscription, carol both.
        let d = broker.get_results(&mut cluster, bob, bobs, t(6)).unwrap();
        assert_eq!((d.hit_objects, d.miss_objects), (1, 0));
        let d = broker
            .get_results(&mut cluster, carol, carols, t(6))
            .unwrap();
        assert_eq!(d.total_objects(), 2);
    }

    /// 100 000 subscribe / unsubscribe cycles among ten subscribers: the
    /// frontend slab stays as long as the peak number of live frontends,
    /// and every subscription left standing is owed exactly the results
    /// published on its kind since it was made.
    #[test]
    fn churn_keeps_the_frontend_slab_bounded() {
        let (mut cluster, mut broker) = setup();
        let kinds = ["fire", "flood", "quake"];
        let mut rng = bad_types::rng::Rng::new(39);
        // subscriber -> (frontend, kind, published on that kind since).
        let mut live: [Option<(FrontendSubId, usize, u64)>; 10] = [None; 10];
        for cycle in 0..100_000u64 {
            let k = rng.below(10) as usize;
            let who = SubscriberId::new(k as u64);
            let now = t(2 * cycle);
            if let Some((fs, _, _)) = live[k].take() {
                broker.unsubscribe(&mut cluster, who, fs, now).unwrap();
            }
            let kind = rng.below(kinds.len() as u64) as usize;
            let fs = broker
                .subscribe(&mut cluster, who, "ByKind", params(kinds[kind]), now)
                .unwrap();
            live[k] = Some((fs, kind, 0));
            if cycle % 1_000 == 999 {
                let published = t(2 * cycle + 1);
                for (i, name) in kinds.iter().enumerate() {
                    for n in publish(&mut cluster, 2 * cycle + 1, name) {
                        broker.on_notification(&mut cluster, n, published);
                    }
                    for (_, held, owed) in live.iter_mut().flatten() {
                        *owed += u64::from(*held == i);
                    }
                }
            }
        }
        let table = broker.subscriptions();
        assert_eq!(table.frontend_count(), 10);
        assert!(
            table.frontend_slots() <= 10,
            "{} slots",
            table.frontend_slots()
        );
        let end = t(200_001);
        for (k, entry) in live.iter().enumerate() {
            let (fs, _, owed) = entry.expect("every subscriber holds one");
            let d = broker
                .get_results(&mut cluster, SubscriberId::new(k as u64), fs, end)
                .unwrap();
            assert_eq!(d.total_objects(), owed, "subscriber {k}");
        }
    }
}
