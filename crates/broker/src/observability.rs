//! What an observed broker is.
//!
//! An [`Observability`] bundles every observer a runtime can attach to
//! one broker and its cluster: the metric registry, the lifecycle
//! tracer with its flight recorder and event sink, the continuous
//! profiler, the health engine and the hot-key sketches. It has two shapes —
//! [`Observability::detached`] and [`Observability::full`] (with
//! [`Observability::full_with`] choosing the profiler's sampling) — and it owns
//! the checks an observed broker runs after each maintenance pass
//! ([`Observability::after_maintain`]). Every observer is
//! metadata-only: caching decisions and deliveries are byte-identical
//! with the bundle detached or full.

use std::sync::Arc;

use bad_cache::ShardedCacheManager;
use bad_cluster::DataCluster;
use bad_telemetry::{
    FlightRecorder, HealthConfig, HealthEngine, HealthObservation, ProfileConfig, Profiler,
    Registry, SharedSink, SharedTracer, SketchConfig, TraceConfig, Tracer,
};
use bad_types::Timestamp;

use crate::Broker;

/// Flight-recorder geometry of [`Observability::full`]: eight lock
/// stripes (producer threads: the cluster and broker nodes) of 128
/// spans each — a ~1k-span ring, enough to reconstruct the recent
/// lifecycle neighbourhood of any anomaly while keeping the ring's
/// working set small enough (~140 KiB) that full-rate span emission
/// stays cache-resident on the data path.
const FLIGHT_RECORDER_STRIPES: usize = 8;
const FLIGHT_RECORDER_STRIPE_CAPACITY: usize = 128;

/// Occupancy slack before a max/min shard skew counts as an imbalance
/// anomaly: tiny absolute differences on a near-empty cache are noise.
const SHARD_IMBALANCE_SLACK_BYTES: u64 = 1 << 20;

/// The observers attached to one broker and its cluster. Cloning
/// shares them.
#[derive(Clone)]
pub struct Observability {
    registry: Registry,
    tracer: SharedTracer,
    profiler: Profiler,
    health: Option<Arc<HealthEngine>>,
    /// Sketches [`Observability::attach`] enables when the broker's
    /// configuration did not already.
    sketches: Option<SketchConfig>,
}

impl Observability {
    /// Nothing observed: a private registry (metric families are still
    /// registered on it), the disabled tracer (whose sink is the null
    /// sink) and profiler, no health engine, and sketches only as
    /// `BrokerConfig::sketches` asks.
    pub fn detached() -> Self {
        Self {
            registry: Registry::new(),
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
            health: None,
            sketches: None,
        }
    }

    /// Everything on, records into `sink`, which only the tracer and
    /// the health engine's alerts write. The tracer, the profiler and
    /// the health engine share one registry; the health engine also
    /// shares the tracer's flight recorder and `sink`, so its windowed
    /// snapshots, burn rates and drift scores read the counters the
    /// tracer and cache telemetry write, and its alert transitions
    /// land in the same post-mortem ring as span anomalies. The
    /// profiler and the hot-key sketches take their defaults — stage
    /// timings of one op in 64, sketch updates of one in 16 — and the
    /// sketches are on unless the broker's configuration chose others:
    /// `/hot` and the `/healthz` top-5 summary are only useful with
    /// them. Every counter stays exact at any sampling but the alert
    /// series, whose `hot_skew` rule reads the sampled sketches.
    pub fn full(sink: SharedSink, trace: TraceConfig) -> Self {
        Self::full_with(sink, trace, ProfileConfig::default())
    }

    /// [`Observability::full`] with the profiler's sampling chosen by
    /// the caller, e.g. every op (`sample_every_n: 1`) for a test that
    /// checks full observation. The sketches' sampling is the broker's
    /// to choose, through `BrokerConfig::sketches`.
    pub fn full_with(sink: SharedSink, trace: TraceConfig, profile: ProfileConfig) -> Self {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(
            FLIGHT_RECORDER_STRIPES,
            FLIGHT_RECORDER_STRIPE_CAPACITY,
        ));
        let health = HealthEngine::new(
            &registry,
            Arc::clone(&recorder),
            sink.clone(),
            HealthConfig::default(),
        );
        let tracer = Tracer::new(&registry, sink, recorder, trace);
        let profiler = Profiler::new(&registry, profile);
        Self {
            registry,
            tracer,
            profiler,
            health: Some(health),
            sketches: Some(SketchConfig::default()),
        }
    }

    /// Wires `cluster` (`result_produced` root spans and enrich events)
    /// and `broker` (cache and broker metrics, records and stage
    /// timings) to the bundle's tracer and registry. With sketches on, an anomaly
    /// dump also names the hot subscriptions of that moment.
    pub fn attach(&self, cluster: &mut DataCluster, broker: &mut Broker) {
        cluster.set_tracer(Arc::clone(&self.tracer));
        broker.attach_telemetry(
            &self.registry,
            Arc::clone(&self.tracer),
            self.profiler.clone(),
        );
        let cache = broker.cache_handle();
        if let Some(sketches) = self.sketches {
            // Write-once: a configuration that already enabled
            // sketches keeps its own.
            cache.enable_sketches(sketches);
        }
        if cache.sketches_enabled() {
            self.tracer
                .recorder()
                .set_anomaly_context(Arc::new(move || {
                    cache
                        .hot_snapshot()
                        .map_or_else(|| "null".to_owned(), |snapshot| snapshot.summary_json(5))
                }));
        }
    }

    /// The checks an observed broker runs after each maintenance pass.
    /// With tracing on, a budget overrun or a shard imbalance is noted
    /// on the flight recorder, which dumps its recent spans so the run
    /// can be reconstructed offline. With a health engine, once its
    /// window has closed, the registry is snapshotted into the
    /// time-series ring, the burn-rate alerts are evaluated, and the
    /// eq. 5–7 prediction is scored against what actually happened.
    pub fn after_maintain(&self, cache: &ShardedCacheManager, now: Timestamp) {
        let t_us = now.as_micros();
        let tick = self.health.as_ref().filter(|engine| engine.due(t_us));
        if !self.tracer.enabled() && tick.is_none() {
            return;
        }
        let shards = cache.shard_health();
        let occupancy: u64 = shards.iter().map(|s| s.occupancy_bytes).sum();
        let budget: u64 = shards.iter().map(|s| s.budget_bytes).sum();
        if self.tracer.enabled() {
            if occupancy > budget {
                self.tracer.recorder().note_anomaly("budget_overrun", t_us);
            }
            if shards.len() > 1 {
                let max = shards.iter().map(|s| s.occupancy_bytes).max().unwrap_or(0);
                let min = shards.iter().map(|s| s.occupancy_bytes).min().unwrap_or(0);
                if max > 4 * min + SHARD_IMBALANCE_SLACK_BYTES {
                    self.tracer.recorder().note_anomaly("shard_imbalance", t_us);
                }
            }
        }
        if let Some(engine) = tick {
            let model = bad_telemetry::drift::predict(&cache.model_inputs(now));
            engine.tick(
                t_us,
                HealthObservation {
                    occupancy_bytes: occupancy,
                    budget_bytes: budget,
                    model: Some(model),
                    hot_skew: cache.hot_snapshot().map(|snapshot| snapshot.skew()),
                },
            );
        }
    }

    /// The registry every attached observer writes.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The lifecycle tracer ([`Tracer::disabled`] when detached).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// The continuous profiler ([`Profiler::disabled`] when detached).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The health engine ([`None`] when detached).
    pub fn health(&self) -> Option<&Arc<HealthEngine>> {
        self.health.as_ref()
    }
}
