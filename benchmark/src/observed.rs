//! Everything `bad_proto::Deployment::start_observed` switches on, built
//! from the std-only crates (the `proto` runtime does not build offline):
//! shared registry, flight recorder, health engine, default tracer,
//! default profiler, default sketches and a ring-buffer event sink, with
//! the maintenance-path checks and scrape renders of its broker thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bad_broker::Broker;
use bad_cache::ShardedCacheManager;
use bad_cluster::DataCluster;
use bad_telemetry::{
    Event, EventSink, FlightRecorder, HealthConfig, HealthEngine, HealthObservation, ProfileConfig,
    Profiler, Registry, RingBufferSink, SharedTracer, TraceConfig, Tracer, DEFAULT_SCRAPE_LIMIT,
};
use bad_types::Timestamp;

use crate::measure::{put, Values};

/// Same geometry as the observed deployment's flight recorder.
const RECORDER_STRIPES: usize = 8;
const RECORDER_STRIPE_CAPACITY: usize = 128;
const EVENT_RING_CAPACITY: usize = 4096;
/// As `runtime.rs`: skew below this many bytes is not an imbalance.
const SHARD_IMBALANCE_SLACK_BYTES: u64 = 1 << 20;

/// A ring-buffer sink that also counts what it was handed.
#[derive(Debug)]
struct CountingRing {
    ring: RingBufferSink,
    recorded: AtomicU64,
}

impl EventSink for CountingRing {
    fn record(&self, event: &Event) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.ring.record(event);
    }
}

pub struct Observed {
    registry: Registry,
    sink: Arc<CountingRing>,
    tracer: SharedTracer,
    health: Arc<HealthEngine>,
    profiler: Profiler,
    /// The broker's cache tier, once attached (`/hot` reads its sketches).
    cache: Option<Arc<ShardedCacheManager>>,
    scrapes: u64,
    scrape_bytes: u64,
    events_at_open: u64,
    spans_at_open: u64,
}

impl Observed {
    pub fn new() -> Self {
        let registry = Registry::new();
        let sink = Arc::new(CountingRing {
            ring: RingBufferSink::new(EVENT_RING_CAPACITY),
            recorded: AtomicU64::new(0),
        });
        let recorder = Arc::new(FlightRecorder::new(
            RECORDER_STRIPES,
            RECORDER_STRIPE_CAPACITY,
        ));
        let health = HealthEngine::new(
            &registry,
            Arc::clone(&recorder),
            sink.clone(),
            HealthConfig::default(),
        );
        let tracer = Tracer::new(&registry, sink.clone(), recorder, TraceConfig::default());
        let profiler = Profiler::new(&registry, ProfileConfig::default());
        Self {
            registry,
            sink,
            tracer,
            health,
            profiler,
            cache: None,
            scrapes: 0,
            scrape_bytes: 0,
            events_at_open: 0,
            spans_at_open: 0,
        }
    }

    pub fn attach(&mut self, cluster: &mut DataCluster, broker: &mut Broker) {
        cluster.set_event_sink(self.sink.clone());
        cluster.set_tracer(Arc::clone(&self.tracer));
        broker.attach_telemetry_profiled(
            &self.registry,
            self.sink.clone(),
            Arc::clone(&self.tracer),
            self.profiler.clone(),
        );
        let cache = broker.cache_handle();
        self.cache = Some(Arc::clone(&cache));
        self.tracer
            .recorder()
            .set_anomaly_context(Arc::new(move || {
                cache
                    .hot_snapshot()
                    .map_or_else(|| "null".to_owned(), |snapshot| snapshot.summary_json(5))
            }));
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The invariant checks and window-gated health evaluation the
    /// observed broker thread runs after each maintenance pass.
    pub fn after_maintain(&mut self, broker: &Broker, now: Timestamp) {
        let cache = broker.cache();
        let t_us = now.as_micros();
        let shards = cache.shard_health();
        let occupancy: u64 = shards.iter().map(|s| s.occupancy_bytes).sum();
        let budget: u64 = shards.iter().map(|s| s.budget_bytes).sum();
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
        if self.health.due(t_us) {
            let model = bad_telemetry::drift::predict(&cache.model_inputs(now));
            self.health.tick(
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

    /// Renders the `/metrics`, `/profile`, `/hot`, `/alerts` and
    /// `/timeseries` bodies, as one scrape of each endpoint would.
    pub fn scrape(&mut self) {
        let hot = self.cache.as_ref().and_then(|cache| cache.hot_snapshot());
        let bodies = [
            self.registry.render(),
            self.profiler.render_json_limit(DEFAULT_SCRAPE_LIMIT),
            hot.map_or_else(|| "null".to_owned(), |snapshot| snapshot.to_json()),
            self.health.alerts_json(),
            self.health.timeseries_json(),
        ];
        self.scrapes += 1;
        self.scrape_bytes += bodies.iter().map(|b| b.len() as u64).sum::<u64>();
    }

    fn spans_recorded(&self) -> u64 {
        let counters = self.registry.counter_values();
        let spans = counters
            .iter()
            .filter(|(key, _)| key.starts_with("bad_trace_spans_total"));
        spans.map(|(_, v)| v).sum()
    }

    /// Starts the window's event and span counts from here.
    pub fn open_window(&mut self) {
        (self.scrapes, self.scrape_bytes) = (0, 0);
        self.events_at_open = self.sink.recorded.load(Ordering::Relaxed);
        self.spans_at_open = self.spans_recorded();
    }

    pub fn values(&self, out: &mut Values) {
        put(
            out,
            "telemetry.scrape_kib",
            self.scrape_bytes as f64 / 1024.0 / self.scrapes.max(1) as f64,
        );
        put(
            out,
            "telemetry.events_recorded",
            (self.sink.recorded.load(Ordering::Relaxed) - self.events_at_open) as f64,
        );
        put(
            out,
            "telemetry.spans_recorded",
            (self.spans_recorded() - self.spans_at_open) as f64,
        );
    }
}
