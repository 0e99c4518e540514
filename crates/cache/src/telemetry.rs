//! Cache-side telemetry wiring: named counters/gauges/histograms plus
//! the lifecycle records of every cached object.
//!
//! A [`CacheTelemetry`] bundles the metric handles one broker's cache
//! manager touches with the [`SharedTracer`] its records go through:
//! one span per insert and per dropped object, and the TTL retunes,
//! all into the tracer's sink. The default is detached: no registry a
//! caller could read and the disabled tracer (whose sink is the null
//! sink), so every hook of an unconfigured manager returns after one
//! branch.
//!
//! Its counters and histograms are owner cells
//! ([`bad_telemetry::OwnerCounter`]): every hook runs under the
//! manager's `&mut` (a shard's mutex, in the sharded manager), so a
//! bump is a plain load and store. Each clone — one per shard — owns
//! cells of its own, and the registry sums them at render.

use bad_telemetry::{
    Event, Gauge, OwnerCounter, OwnerHistogram, Profiler, Registry, SharedTracer, SpanKind, Tracer,
};
use bad_types::{BackendSubId, ByteSize, ObjectId, SimDuration, Timestamp};

use crate::metrics::DropKind;
use crate::object::CachedObject;

/// Metric handles + lifecycle tracer for one [`crate::CacheManager`].
#[derive(Clone, Debug)]
pub struct CacheTelemetry {
    /// Whether a caller-held [`Registry`] backs the handles below.
    attached: bool,
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
    /// Registers the cache metric family on `registry` and emits the
    /// lifecycle spans (insert / drop / expire / fully-consumed) and
    /// TTL retunes through `tracer` ([`Tracer::disabled`] for metrics
    /// alone).
    pub fn new(registry: &Registry, tracer: SharedTracer) -> Self {
        Self {
            attached: true,
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
            ..Self::new(&Registry::new(), Tracer::disabled())
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

    /// The lifecycle tracer in force ([`Tracer::disabled`] when
    /// detached).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Whether event construction is worth the trouble at all.
    pub fn tracing(&self) -> bool {
        self.tracer.sink().enabled()
    }

    /// `produced` is the object's result timestamp; the tracer turns
    /// the difference into the produce→insert stage lag. `total` is the
    /// occupancy after the insert, the span's detail.
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
        if self.tracer.enabled() {
            let lag_us = now.as_micros().saturating_sub(produced.as_micros());
            self.tracer.on_cache_insert(
                now.as_micros(),
                cache.as_u64(),
                object.as_u64(),
                bytes.as_u64(),
                lag_us,
                total.as_u64(),
            );
        }
    }

    /// Counts a retrieval's cache-served objects. Their records are the
    /// broker's per-object `retrieve_hit` spans.
    pub(crate) fn on_hits(&self, objects: u64) {
        if self.attached {
            self.hit_objects.add(objects);
        }
    }

    /// Counts a retrieval's re-fetched objects. Their records are the
    /// broker's per-object `retrieve_miss` spans.
    pub(crate) fn on_misses(&self, objects: u64) {
        if self.attached {
            self.miss_objects.add(objects);
        }
    }

    /// Records one dropped object: bumps the per-cause counter, the
    /// holding-time histogram and the occupancy gauge, then emits its
    /// one drop span, whose `drop_kind` is [`DropKind::label`].
    ///
    /// `score` is the victim's policy score φ/s (evictions only);
    /// `ttl` the TTL in force (expiries only, the span's detail).
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
            let span_kind = match kind {
                DropKind::Consumed => SpanKind::FullyConsumed,
                DropKind::Evicted | DropKind::Unsubscribed => SpanKind::Drop,
                DropKind::Expired => SpanKind::Expire,
            };
            self.tracer.on_drop(
                now.as_micros(),
                cache.as_u64(),
                object.id.as_u64(),
                object.size.as_u64(),
                span_kind,
                kind.label(),
                policy,
                score,
                age_us,
                ttl.as_micros(),
            );
        }
    }

    /// One TTL recomputation pass completed (counter only; the
    /// per-cache [`Event::TtlRetune`] records go through
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
        self.tracer.record(&Event::TtlRetune {
            t_us: now.as_micros(),
            cache: cache.as_u64(),
            lambda,
            eta,
            rho,
            ttl_us: ttl.as_micros(),
        });
    }
}
