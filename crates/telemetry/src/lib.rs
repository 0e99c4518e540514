//! `bad-telemetry` — zero-dependency observability for the BAD
//! edge-caching system.
//!
//! The build environment has no crates.io access, so this crate
//! re-implements the minimal useful subset of `tracing` +
//! `prometheus` on `std` alone:
//!
//! - [`Registry`], [`Counter`], [`Gauge`]: `AtomicU64`-backed named
//!   metrics cheap enough for hot paths, rendered on demand in the
//!   Prometheus text exposition format by [`Registry::render`].
//! - [`Histogram`]: log-bucketed (power-of-two buckets) latency/size
//!   distributions with `p50/p90/p99/max` readout.
//! - [`Event`] + [`EventSink`]: one record per decision — a lifecycle
//!   [`Span`] per step, plus the records no span carries (retrieval
//!   summaries, TTL retunes, enrichment runs, sim epoch samples, alert
//!   transitions) — with [`RingBufferSink`] (tests, post-mortem) and
//!   [`JsonlSink`] (trace files) implementations. The default
//!   [`NullSink`] reports `enabled() == false`, so instrumented code
//!   skips event construction entirely when tracing is off.
//! - [`Sampler`]: periodic virtual-time snapshots of occupancy, hit
//!   ratio and the expected TTL-bounded size `Σ ρ_i·T_i`.
//! - [`trace`]: end-to-end notification lifecycle spans
//!   ([`TraceId`]/[`SpanId`] derived deterministically via splitmix64,
//!   causal parent links, per-stage lag + staleness histograms, SLO
//!   violation counters) with a [`FlightRecorder`] ring for post-mortem
//!   dumps and a [`Tracer`] emission point shared by every layer —
//!   each layer's only way to the event sink.
//! - [`ScrapeServer`]: a std-only TCP endpoint serving `/metrics`
//!   (Prometheus text), `/healthz`, `/trace/recent`, `/timeseries`,
//!   `/alerts`, `/profile` and `/hot` live.
//! - [`sketch`]: fixed-memory hot-key attribution — Space-Saving
//!   heavy hitters along four axes (requests / bytes / misses / SLO
//!   violations), a HyperLogLog-style distinct-active estimator and
//!   top-K-only delivery-lag quantiles, merged order-independently
//!   across cache shards at read time.
//! - [`profile`]: the continuous hot-path profiler — instrumented
//!   cache shard lock acquisition (wait/hold/contention per
//!   [`LockSite`]), per-operation stage timers folded into a
//!   flamegraph-exportable call tree, and per-bucket trace-id
//!   exemplars linking latency outliers to the flight recorder.
//! - [`timeseries`]: a fixed-capacity ring of delta-encoded windowed
//!   registry snapshots — `rate()`, sliding-window quantiles and
//!   min/max/avg over arbitrary virtual-time lookbacks.
//! - [`alert`]: SLO error budgets with multi-window burn-rate rules
//!   and a pending→firing→resolved state machine emitting typed
//!   transitions into the flight recorder and event sinks.
//! - [`drift`]: the paper's eqs. 5–7 as a live predictor — measured
//!   λ/η/ρ/TTL in, predicted hit ratio/staleness/occupancy out,
//!   compared against observed values by an exponentially-smoothed
//!   drift score.
//! - [`HealthEngine`]: the three layers above composed behind one
//!   window-gated `tick`, driven from maintenance paths.
//!
//! ```
//! use bad_telemetry::{Event, FlightRecorder, Registry, RingBufferSink, TraceConfig, Tracer};
//! use std::sync::Arc;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("bad_cache_hit_objects_total");
//! hits.add(3);
//!
//! let ring = Arc::new(RingBufferSink::new(16));
//! let recorder = Arc::new(FlightRecorder::new(1, 16));
//! let tracer = Tracer::new(&registry, ring.clone(), recorder, TraceConfig::default());
//! tracer.on_retrieve_hits(42, 1, 7, [(9, 96, 1_000)]);
//! tracer.record(&Event::BrokerRetrieve {
//!     t_us: 42,
//!     subscriber: 7,
//!     hit_objects: 1,
//!     miss_objects: 0,
//!     hit_bytes: 96,
//!     miss_bytes: 0,
//!     latency_us: 250,
//! });
//! assert_eq!(ring.len(), 2);
//! assert!(registry.render().contains("bad_cache_hit_objects_total 3"));
//! ```

pub mod alert;
pub mod drift;
pub mod event;
pub mod health;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod registry;
pub mod sampler;
pub mod scrape;
pub mod sketch;
pub mod timeseries;
pub mod trace;

pub use alert::{AlertManager, AlertState, AlertStateMachine, BurnRateRule, ValueSource};
pub use drift::{
    predict, DriftConfig, DriftDetector, DriftSample, EventRateEstimator, ModelPrediction,
    SubscriptionModel,
};
pub use event::{null_sink, Event, EventSink, JsonlSink, NullSink, RingBufferSink, SharedSink};
pub use health::{HealthConfig, HealthEngine, HealthObservation};
pub use histogram::{Histogram, HistogramSnapshot, OwnerHistogram};
pub use profile::{LockSite, OpTimer, ProfileConfig, ProfiledGuard, Profiler, StagePath};
pub use registry::{escape_label_value, Counter, Gauge, OwnerCounter, Registry};
pub use sampler::{Sample, Sampler};
pub use scrape::{
    EndpointFn, HealthFn, LimitFn, ScrapeEndpoints, ScrapeServer, DEFAULT_SCRAPE_LIMIT,
};
pub use sketch::{
    DistinctEstimator, HotSnapshot, LagHist, SketchBatch, SketchConfig, SketchRecorder,
    SketchTotals, SpaceSaving, SsEntry,
};
pub use timeseries::{SeriesStats, TimeSeriesConfig, TimeSeriesStore};
pub use trace::{
    FlightRecorder, SharedTracer, SloConfig, Span, SpanId, SpanKind, TraceConfig, TraceId, Tracer,
};
