//! Cache-side telemetry wiring: named counters/gauges/histograms plus
//! the structured per-decision event stream.
//!
//! A [`CacheTelemetry`] bundles the metric handles one broker's cache
//! manager touches with the [`SharedSink`] its events go to. The
//! default is detached: no registry a caller could read, the null sink
//! and no tracer, so every hook of an unconfigured manager returns
//! after one branch.
//!
//! Its counters and histograms are owner cells
//! ([`bad_telemetry::OwnerCounter`]): every hook runs under the
//! manager's `&mut` (a shard's mutex, in the sharded manager), so a
//! bump is a plain load and store. Each clone — one per shard — owns
//! cells of its own, and the registry sums them at render.

use bad_telemetry::{
    Event, Gauge, OwnerCounter, OwnerHistogram, Profiler, Registry, SharedSink, SharedTracer,
    SpanKind, Tracer,
};
use bad_types::{BackendSubId, ByteSize, ObjectId, SimDuration, Timestamp};

use crate::metrics::DropKind;
use crate::object::CachedObject;

/// Metric handles + event sink for one [`crate::CacheManager`].
#[derive(Clone, Debug)]
pub struct CacheTelemetry {
    /// Whether a caller-held [`Registry`] backs the handles below.
    attached: bool,
    sink: SharedSink,
    tracer: SharedTracer,
    profiler: Profiler,
    hit_objects: OwnerCounter,
    miss_objects: OwnerCounter,
    inserted_objects: OwnerCounter,
    consumed_objects: OwnerCounter,
    evicted_objects: OwnerCounter,
    expired_objects: OwnerCounter,
    unsubscribed_objects: OwnerCounter,
    ttl_retunes: OwnerCounter,
    occupancy_bytes: Gauge,
    object_bytes: OwnerHistogram,
    holding_us: OwnerHistogram,
}

impl Default for CacheTelemetry {
    fn default() -> Self {
        Self::detached()
    }
}

impl CacheTelemetry {
    /// Registers the cache metric family on `registry` and routes
    /// events to `sink`. Lifecycle tracing stays off; use
    /// [`CacheTelemetry::traced`] to thread a live tracer through.
    pub fn new(registry: &Registry, sink: SharedSink) -> Self {
        Self::traced(registry, sink, Tracer::disabled())
    }

    /// Like [`CacheTelemetry::new`], but also emits lifecycle spans
    /// (insert / drop / expire / fully-consumed) through `tracer`.
    pub fn traced(registry: &Registry, sink: SharedSink, tracer: SharedTracer) -> Self {
        Self {
            attached: true,
            sink,
            tracer,
            profiler: Profiler::disabled(),
            hit_objects: registry.owner_counter("bad_cache_hit_objects_total"),
            miss_objects: registry.owner_counter("bad_cache_miss_objects_total"),
            inserted_objects: registry.owner_counter("bad_cache_inserted_objects_total"),
            consumed_objects: registry.owner_counter("bad_cache_consumed_objects_total"),
            evicted_objects: registry.owner_counter("bad_cache_evicted_objects_total"),
            expired_objects: registry.owner_counter("bad_cache_expired_objects_total"),
            unsubscribed_objects: registry.owner_counter("bad_cache_unsubscribed_objects_total"),
            ttl_retunes: registry.owner_counter("bad_cache_ttl_retunes_total"),
            occupancy_bytes: registry.gauge("bad_cache_occupancy_bytes"),
            object_bytes: registry.owner_histogram("bad_cache_object_bytes"),
            holding_us: registry.owner_histogram("bad_cache_holding_us"),
        }
    }

    /// A bundle that records nothing — the default for standalone
    /// managers and tests. Its registry is gone before it returns, so
    /// its hooks do not count into it either (a profiler attached with
    /// [`CacheTelemetry::with_profiler`] is separate and still runs).
    pub fn detached() -> Self {
        Self {
            attached: false,
            ..Self::new(&Registry::new(), bad_telemetry::null_sink())
        }
    }

    /// Attaches the continuous profiler
    /// ([`bad_telemetry::profile`]); the manager this bundle is
    /// installed on registers its per-shard lock sites through it and
    /// threads stage timers through the data paths. Profiling is
    /// metadata-only: a profiled manager makes byte-identical caching
    /// decisions.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// The profiler in force ([`Profiler::disabled`] by default).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The event sink in force.
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }

    /// The lifecycle tracer in force ([`Tracer::disabled`] unless
    /// constructed via [`CacheTelemetry::traced`]).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Whether event construction is worth the trouble at all.
    pub fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// `produced` is the object's result timestamp; the tracer turns
    /// the difference into the produce→insert stage lag.
    #[allow(clippy::too_many_arguments)] // mirrors the insert call's full context
    pub(crate) fn on_insert(
        &self,
        now: Timestamp,
        cache: BackendSubId,
        object: ObjectId,
        produced: Timestamp,
        bytes: ByteSize,
        total: ByteSize,
    ) {
        if !self.attached {
            return;
        }
        self.inserted_objects.inc();
        self.object_bytes.record(bytes.as_u64());
        self.occupancy_bytes.set(total.as_u64());
        if self.sink.enabled() {
            self.sink.record(&Event::CacheInsert {
                t_us: now.as_micros(),
                cache: cache.as_u64(),
                object: object.as_u64(),
                bytes: bytes.as_u64(),
                total_bytes: total.as_u64(),
            });
        }
        if self.tracer.enabled() {
            let lag_us = now.as_micros().saturating_sub(produced.as_micros());
            self.tracer.on_cache_insert(
                now.as_micros(),
                cache.as_u64(),
                object.as_u64(),
                bytes.as_u64(),
                lag_us,
            );
        }
    }

    pub(crate) fn on_hits(
        &self,
        now: Timestamp,
        cache: BackendSubId,
        objects: u64,
        bytes: ByteSize,
    ) {
        if !self.attached || objects == 0 {
            return;
        }
        self.hit_objects.add(objects);
        if self.sink.enabled() {
            self.sink.record(&Event::CacheHit {
                t_us: now.as_micros(),
                cache: cache.as_u64(),
                objects,
                bytes: bytes.as_u64(),
            });
        }
    }

    pub(crate) fn on_misses(
        &self,
        now: Timestamp,
        cache: BackendSubId,
        objects: u64,
        bytes: ByteSize,
    ) {
        if !self.attached || objects == 0 {
            return;
        }
        self.miss_objects.add(objects);
        if self.sink.enabled() {
            self.sink.record(&Event::CacheMiss {
                t_us: now.as_micros(),
                cache: cache.as_u64(),
                objects,
                bytes: bytes.as_u64(),
            });
        }
    }

    /// Records one dropped object: bumps the per-cause counter, the
    /// holding-time histogram and the occupancy gauge, then emits the
    /// event variant whose kind is `cache.<DropKind::label()>`.
    ///
    /// `score` is the victim's policy score φ/s (evictions only);
    /// `ttl` the TTL in force (expiries only).
    #[allow(clippy::too_many_arguments)] // single fan-in for all four drop causes
    pub(crate) fn on_drop(
        &self,
        now: Timestamp,
        cache: BackendSubId,
        kind: DropKind,
        object: &CachedObject,
        total: ByteSize,
        policy: &'static str,
        score: f64,
        ttl: SimDuration,
    ) {
        if !self.attached {
            return;
        }
        match kind {
            DropKind::Consumed => self.consumed_objects.inc(),
            DropKind::Evicted => self.evicted_objects.inc(),
            DropKind::Expired => self.expired_objects.inc(),
            DropKind::Unsubscribed => self.unsubscribed_objects.inc(),
        }
        let age_us = object.age(now).as_micros();
        self.holding_us.record(age_us);
        self.occupancy_bytes.set(total.as_u64());
        if self.tracer.enabled() {
            let (span_kind, drop_label) = match kind {
                DropKind::Consumed => (SpanKind::FullyConsumed, "consume"),
                DropKind::Evicted => (SpanKind::Drop, "evict"),
                DropKind::Expired => (SpanKind::Expire, "expire"),
                DropKind::Unsubscribed => (SpanKind::Drop, "unsubscribe"),
            };
            self.tracer.on_drop(
                now.as_micros(),
                cache.as_u64(),
                object.id.as_u64(),
                object.size.as_u64(),
                span_kind,
                drop_label,
                policy,
                score,
                age_us,
            );
        }
        if !self.sink.enabled() {
            return;
        }
        let t_us = now.as_micros();
        let cache = cache.as_u64();
        let bytes = object.size.as_u64();
        let event = match kind {
            DropKind::Consumed => Event::CacheConsume {
                t_us,
                cache,
                objects: 1,
                bytes,
            },
            DropKind::Evicted => Event::CacheEvict {
                t_us,
                cache,
                object: object.id.as_u64(),
                bytes,
                policy,
                score,
            },
            DropKind::Expired => Event::CacheExpire {
                t_us,
                cache,
                object: object.id.as_u64(),
                bytes,
                ttl_us: ttl.as_micros(),
            },
            DropKind::Unsubscribed => Event::CacheUnsubscribe {
                t_us,
                cache,
                objects: 1,
                bytes,
            },
        };
        self.sink.record(&event);
    }

    /// One TTL recomputation pass completed (counter only; the
    /// per-cache [`Event::TtlRetune`] events go through
    /// [`CacheTelemetry::on_ttl_retune`] when tracing is enabled).
    pub(crate) fn on_ttl_recompute(&self) {
        if !self.attached {
            return;
        }
        self.ttl_retunes.inc();
    }

    pub(crate) fn on_ttl_retune(
        &self,
        now: Timestamp,
        cache: BackendSubId,
        lambda: f64,
        eta: f64,
        rho: f64,
        ttl: SimDuration,
    ) {
        if self.sink.enabled() {
            self.sink.record(&Event::TtlRetune {
                t_us: now.as_micros(),
                cache: cache.as_u64(),
                lambda,
                eta,
                rho,
                ttl_us: ttl.as_micros(),
            });
        }
    }
}
