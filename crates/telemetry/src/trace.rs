//! End-to-end notification lifecycle tracing.
//!
//! A notification's journey — channel result produced on the cluster,
//! inserted into a broker cache, retrieved by each of its `n_i`
//! frontend subscribers (or missed and re-fetched from the backend),
//! and finally dropped (consumed / evicted / expired) — is recorded as
//! a set of [`Span`]s sharing one [`TraceId`]. Ids are splitmix64
//! mixes of the *object id* (never of time), so traces are
//! deterministic under the simulator's virtual clock and every layer
//! can derive both its own span id and its causal parent's without
//! threading ids through call signatures:
//!
//! ```text
//! ResultProduced ─┬─ CacheInsert ─┬─ RetrieveHit   (one per subscriber)
//!                 │               ├─ Drop / Expire (policy decision, φ/s score)
//!                 │               └─ FullyConsumed
//!                 └─ RetrieveMiss                  (one per missing subscriber,
//!                                                   re-fetched from the backend)
//! ```
//!
//! A span is the one record of its step: what a step knows beyond the
//! common fields rides in [`Span::detail`] (see
//! [`SpanKind::detail_name`]).
//!
//! The [`Tracer`] is the single emission point: it bumps per-kind span
//! counters, feeds the stage-latency / staleness histograms and their
//! SLO-violation counters on *every* span, and forwards the span record
//! itself to the [`FlightRecorder`] and the event sink only for sampled
//! traces (`trace_sample_every_n`), keeping the hot path allocation
//! free. It is also every layer's only way to the sink:
//! [`Tracer::record`] writes the records no span carries.
//! [`Tracer::disabled`] is the default wiring everywhere, holds the
//! null sink and costs one branch per call site.

use std::fmt;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{Event, SharedSink};
use crate::histogram::Histogram;
use crate::json::ObjectWriter;
use crate::registry::{Counter, Registry};

/// A finalizer-quality 64-bit mix (splitmix64), the same mix the cache
/// tier uses for shard routing — id derivation must be deterministic
/// across platforms and runs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identifies one notification's lifecycle across all layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// The trace of the notification carrying result object `object`.
    /// Derived from the object id alone — every layer that knows the
    /// object recovers the same trace, with no id plumbing.
    #[inline]
    pub fn for_object(object: u64) -> Self {
        Self(mix64(object ^ 0xBAD0_0B1E_C71D))
    }

    /// Raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identifies one span within a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Derives the id of the `(kind, actor)` span of `trace`. `actor`
    /// disambiguates per-subscriber spans (retrievals, backend fetches)
    /// from each other; cache-side spans use the cache id. Because the
    /// derivation is pure, a child span recomputes its parent's id from
    /// the same inputs instead of carrying it through the stack.
    #[inline]
    pub fn derive(trace: TraceId, kind: SpanKind, actor: u64) -> Self {
        Self(mix64(trace.0 ^ mix64(((kind as u64) << 56) ^ actor)))
    }

    /// Raw id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The lifecycle stage a [`Span`] records. The discriminants feed
/// [`SpanId::derive`], so they never change; 4 belonged to a retired
/// kind and stays unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A channel execution appended the result object (cluster side).
    ResultProduced = 0,
    /// The broker admitted the object into a result cache.
    CacheInsert = 1,
    /// A subscriber retrieval was served from cache.
    RetrieveHit = 2,
    /// A subscriber retrieval missed the cache and re-fetched the
    /// object from the durable backend store.
    RetrieveMiss = 3,
    /// The eviction policy dropped the object (`score` is φ/s).
    Drop = 5,
    /// The TTL policy expired the object.
    Expire = 6,
    /// Every pending subscriber consumed the object, releasing it.
    FullyConsumed = 7,
}

impl SpanKind {
    /// All kinds, in discriminant order (the per-kind counters follow it).
    pub const ALL: [SpanKind; 7] = [
        SpanKind::ResultProduced,
        SpanKind::CacheInsert,
        SpanKind::RetrieveHit,
        SpanKind::RetrieveMiss,
        SpanKind::Drop,
        SpanKind::Expire,
        SpanKind::FullyConsumed,
    ];

    /// Stable lowercase label (metric label values, JSON `kind`).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::ResultProduced => "result_produced",
            SpanKind::CacheInsert => "cache_insert",
            SpanKind::RetrieveHit => "retrieve_hit",
            SpanKind::RetrieveMiss => "retrieve_miss",
            SpanKind::Drop => "drop",
            SpanKind::Expire => "expire",
            SpanKind::FullyConsumed => "fully_consumed",
        }
    }

    /// What [`Span::detail`] holds for this kind, as its JSON field
    /// name: the cache's occupancy after an insert, the TTL in force at
    /// an expiry, the producing channel of a result, the modeled
    /// backend fetch latency of a miss. `None` (and a zero detail) for
    /// the other kinds.
    pub fn detail_name(self) -> Option<&'static str> {
        match self {
            SpanKind::CacheInsert => Some("total_bytes"),
            SpanKind::Expire => Some("ttl_us"),
            SpanKind::ResultProduced => Some("channel"),
            SpanKind::RetrieveMiss => Some("fetch_us"),
            SpanKind::RetrieveHit | SpanKind::Drop | SpanKind::FullyConsumed => None,
        }
    }

    /// This kind's position in [`SpanKind::ALL`].
    fn index(self) -> usize {
        let discriminant = self as usize;
        discriminant - usize::from(discriminant > 4)
    }
}

/// One lifecycle span. `Copy` like [`Event`]: raw ids, a virtual-time
/// timestamp and `&'static str` labels, so emission never allocates.
///
/// `lag_us` is the stage latency: produce→insert lag for
/// [`SpanKind::CacheInsert`], end-to-end produce→deliver lag for
/// retrievals, and the time-in-cache (staleness) for the drop kinds.
/// `detail` depends on the kind ([`SpanKind::detail_name`]).
/// `policy`/`drop_kind`/`score` are only meaningful on drop spans
/// (empty / 0 elsewhere); `subscriber` is 0 on spans not attributable
/// to one subscriber.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// The notification lifecycle this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// The causal parent, if any (roots have none).
    pub parent: Option<SpanId>,
    /// Lifecycle stage.
    pub kind: SpanKind,
    /// Virtual-time timestamp in microseconds.
    pub t_us: u64,
    /// The backend subscription cache involved.
    pub cache: u64,
    /// The result object.
    pub object: u64,
    /// The frontend subscriber (0 when not subscriber-specific).
    pub subscriber: u64,
    /// Object bytes.
    pub bytes: u64,
    /// Stage latency / staleness in microseconds (see type docs).
    pub lag_us: u64,
    /// The kind's extra value, named by [`SpanKind::detail_name`]
    /// (0 for kinds without one).
    pub detail: u64,
    /// Evicting policy name (drop spans only, else empty).
    pub policy: &'static str,
    /// Drop cause label (drop spans only, else empty).
    pub drop_kind: &'static str,
    /// The victim cache's φ/s utility-per-byte score (evictions only).
    pub score: f64,
}

impl Span {
    /// The `kind` span of `object`'s notification in `trace`, its id
    /// and causal parent derived from the lifecycle tree in the
    /// [module docs](self): retrievals are per `subscriber`, every
    /// other span per `cache`. The timestamp and payload are zero /
    /// empty; callers fill in what they know.
    pub fn new(trace: TraceId, kind: SpanKind, cache: u64, object: u64, subscriber: u64) -> Self {
        let (actor, parent) = match kind {
            SpanKind::ResultProduced => (cache, None),
            SpanKind::CacheInsert => (cache, Some(SpanKind::ResultProduced)),
            SpanKind::RetrieveHit => (subscriber, Some(SpanKind::CacheInsert)),
            SpanKind::RetrieveMiss => (subscriber, Some(SpanKind::ResultProduced)),
            SpanKind::Drop | SpanKind::Expire | SpanKind::FullyConsumed => {
                (cache, Some(SpanKind::CacheInsert))
            }
        };
        Self {
            trace,
            span: SpanId::derive(trace, kind, actor),
            parent: parent.map(|parent| SpanId::derive(trace, parent, cache)),
            kind,
            t_us: 0,
            cache,
            object,
            subscriber,
            bytes: 0,
            lag_us: 0,
            detail: 0,
            policy: "",
            drop_kind: "",
            score: 0.0,
        }
    }

    /// Appends this span as one JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field_str("kind", self.kind.label());
        obj.field_u64("t_us", self.t_us);
        self.write_fields(&mut obj);
    }

    /// Appends the span's payload fields (everything after `kind` and
    /// `t_us`) to an already-open JSON object — shared between the
    /// standalone rendering above and [`Event::Span`]'s JSONL form.
    pub fn write_fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.field_u64("trace", self.trace.as_u64());
        obj.field_u64("span", self.span.as_u64());
        if let Some(parent) = self.parent {
            obj.field_u64("parent", parent.as_u64());
        }
        obj.field_u64("cache", self.cache);
        obj.field_u64("object", self.object);
        if self.subscriber != 0 {
            obj.field_u64("subscriber", self.subscriber);
        }
        obj.field_u64("bytes", self.bytes);
        obj.field_u64("lag_us", self.lag_us);
        if let Some(name) = self.kind.detail_name() {
            obj.field_u64(name, self.detail);
        }
        if !self.drop_kind.is_empty() {
            obj.field_str("drop_kind", self.drop_kind);
            obj.field_str("policy", self.policy);
            obj.field_f64("score", self.score);
        }
    }

    /// Renders this span as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_json(&mut out);
        out
    }
}

/// Per-stage latency / staleness SLO thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloConfig {
    /// Produce→deliver deadline for retrievals (hit or miss), in
    /// microseconds of virtual time.
    pub delivery_latency_us: u64,
    /// Maximum time-in-cache before full consumption, in microseconds.
    pub staleness_us: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            delivery_latency_us: 30_000_000,
            staleness_us: 600_000_000,
        }
    }
}

/// Tracer tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace sampling: 0 emits no span records (metrics and SLO
    /// accounting still run), 1 records every trace, `n` records the
    /// traces whose id is divisible by `n` — whole lifecycles are
    /// sampled atomically, never individual spans.
    pub trace_sample_every_n: u64,
    /// SLO thresholds.
    pub slo: SloConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            trace_sample_every_n: 1,
            slo: SloConfig::default(),
        }
    }
}

/// How many anomaly dumps a recorder writes before going quiet (the
/// recorder keeps counting anomalies either way).
const MAX_ANOMALY_DUMPS: u64 = 8;

/// A lock-striped ring of recent spans — the post-mortem buffer behind
/// the scrape endpoint's `/trace/recent` and the JSONL anomaly dumps.
///
/// Writers `try_lock` their stripe and drop the span on contention
/// rather than block the data path; `contended_drops` counts how often
/// that happened. Rings are pre-sized at construction, so steady-state
/// recording never allocates.
#[derive(Debug)]
pub struct FlightRecorder {
    stripes: Vec<Stripe>,
    capacity: usize,
    contended_drops: AtomicU64,
    anomalies: AtomicU64,
    dumps_written: AtomicU64,
    /// Mirrors `dump_path.is_some()` so the hot anomaly path can skip
    /// the mutex entirely when nothing will ever be written.
    dumps_enabled: AtomicBool,
    dump_path: Mutex<Option<PathBuf>>,
    anomaly_context: AnomalyContext,
}

/// An optional dump-time context closure (see
/// [`FlightRecorder::set_anomaly_context`]); newtyped for a manual
/// `Debug` since closures have none.
#[derive(Default)]
struct AnomalyContext(Mutex<Option<Arc<dyn Fn() -> String + Send + Sync>>>);

impl std::fmt::Debug for AnomalyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.lock().map(|guard| guard.is_some()).unwrap_or(false);
        f.debug_tuple("AnomalyContext").field(&installed).finish()
    }
}

/// One flight-recorder ring: writers claim the next slot by bumping
/// `head` (one relaxed add), then overwrite that slot in place. Claims
/// are FIFO, so the ring always holds the most recent `capacity` spans
/// and overwrites oldest-first; locking is per *slot*, never per ring,
/// so two writers only collide when the ring has fully wrapped between
/// them.
#[derive(Debug)]
struct Stripe {
    head: AtomicU64,
    slots: Vec<Mutex<Option<Span>>>,
}

impl FlightRecorder {
    /// Creates `stripes.max(1)` rings of `capacity.max(1)` spans each
    /// (both rounded up to powers of two so `record` routes and wraps
    /// with masks instead of divisions). Wire one stripe per cache
    /// shard so shard workers rarely contend.
    pub fn new(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let capacity = capacity.max(1).next_power_of_two();
        Self {
            stripes: (0..stripes)
                .map(|_| Stripe {
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                })
                .collect(),
            capacity,
            contended_drops: AtomicU64::new(0),
            anomalies: AtomicU64::new(0),
            dumps_written: AtomicU64::new(0),
            dumps_enabled: AtomicBool::new(false),
            dump_path: Mutex::new(None),
            anomaly_context: AnomalyContext::default(),
        }
    }

    /// Routes anomaly dumps to a JSONL file at `path` (append mode; at
    /// most eight dumps per recorder, `MAX_ANOMALY_DUMPS`). Without a
    /// path, anomalies are counted but nothing is written.
    pub fn set_dump_path(&self, path: impl Into<PathBuf>) {
        *self.dump_path.lock().expect("dump path poisoned") = Some(path.into());
        self.dumps_enabled.store(true, Ordering::Release);
    }

    /// Records one span into its trace's stripe, overwriting the oldest
    /// slot on overflow. Drops the span instead of blocking in the
    /// (ring-has-wrapped) case where another writer still holds the
    /// claimed slot.
    #[inline]
    pub fn record(&self, span: &Span) {
        // Trace ids are already splitmix64 outputs, so their low bits
        // route directly; stripe count and capacity are powers of two.
        let stripe = &self.stripes[span.trace.as_u64() as usize & (self.stripes.len() - 1)];
        let slot = stripe.head.fetch_add(1, Ordering::Relaxed) as usize & (self.capacity - 1);
        match stripe.slots[slot].try_lock() {
            Ok(mut held) => *held = Some(*span),
            Err(_) => {
                self.contended_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans dropped because their stripe was contended.
    pub fn contended_drops(&self) -> u64 {
        self.contended_drops.load(Ordering::Relaxed)
    }

    /// Total slot claims across all stripes. Every `record` call claims
    /// exactly one slot (one `fetch_add`) *before* the per-slot
    /// `try_lock`, so claims count attempted records — a span dropped
    /// on slot contention still shows up here. The striping invariant
    /// `claims == records attempted` (and therefore
    /// `visible spans + overwritten + contended_drops == claims`) is
    /// pinned by the generative overwrite-under-contention test.
    pub fn claims(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Anomalies noted so far.
    pub fn anomalies(&self) -> u64 {
        self.anomalies.load(Ordering::Relaxed)
    }

    /// Buffered spans across all stripes, merged oldest first.
    pub fn recent(&self) -> Vec<Span> {
        let mut out: Vec<Span> = Vec::new();
        for stripe in &self.stripes {
            for slot in &stripe.slots {
                if let Some(span) = *slot.lock().expect("flight slot poisoned") {
                    out.push(span);
                }
            }
        }
        out.sort_by_key(|s| (s.t_us, s.trace, s.span));
        out
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .flat_map(|s| &s.slots)
            .filter(|slot| slot.lock().expect("flight slot poisoned").is_some())
            .count()
    }

    /// Whether no span is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered spans as a JSON array (the `/trace/recent` body).
    pub fn to_json(&self) -> String {
        self.to_json_limit(usize::MAX)
    }

    /// Like [`FlightRecorder::to_json`], but rendering only the most
    /// recent `limit` spans — the scrape endpoint caps `/trace/recent`
    /// with this so a full recorder cannot produce an unbounded
    /// response body.
    pub fn to_json_limit(&self, limit: usize) -> String {
        let spans = self.recent();
        let skip = spans.len().saturating_sub(limit);
        let spans = &spans[skip..];
        let mut out = String::with_capacity(64 + spans.len() * 160);
        out.push('[');
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span.write_json(&mut out);
        }
        out.push(']');
        out
    }

    /// Installs a context closure whose output (a raw JSON value, e.g.
    /// a hot-key top-K summary) is stamped into every subsequent
    /// anomaly-dump header as `"context"` — a budget-overrun dump then
    /// names its suspects. Only invoked on the (already cold, already
    /// capped) dump path, never on the hot note path.
    pub fn set_anomaly_context(&self, context: Arc<dyn Fn() -> String + Send + Sync>) {
        *self
            .anomaly_context
            .0
            .lock()
            .expect("anomaly context poisoned") = Some(context);
    }

    /// Notes an anomaly (SLO violation, budget overrun, shard
    /// imbalance). When a dump path is configured and the dump cap is
    /// not yet exhausted, appends a JSONL block — one header line
    /// naming the anomaly, then every buffered span, one per line.
    pub fn note_anomaly(&self, reason: &str, t_us: u64) {
        self.anomalies.fetch_add(1, Ordering::Relaxed);
        // Anomalies can fire per object on the data path (e.g. every
        // stale consumption); without a dump path this must stay one
        // relaxed add plus one load — never a mutex.
        if !self.dumps_enabled.load(Ordering::Acquire) {
            return;
        }
        let path = self.dump_path.lock().expect("dump path poisoned").clone();
        let Some(path) = path else {
            return;
        };
        if self.dumps_written.fetch_add(1, Ordering::Relaxed) >= MAX_ANOMALY_DUMPS {
            return;
        }
        let spans = self.recent();
        let mut text = String::with_capacity(96 + spans.len() * 160);
        {
            let mut header = ObjectWriter::new(&mut text);
            header.field_str("kind", "anomaly");
            header.field_str("reason", reason);
            header.field_u64("t_us", t_us);
            header.field_u64("spans", spans.len() as u64);
            // When the continuous profiler is live on this thread, say
            // what the thread was doing when it noticed the anomaly —
            // the stage path is the cheapest possible backtrace.
            if let Some(stage) = crate::profile::last_stage_path() {
                header.field_str("last_stage", stage);
            }
            // And when a hot-key context source is wired, name the
            // current heavy hitters right in the header.
            let context = self
                .anomaly_context
                .0
                .lock()
                .expect("anomaly context poisoned")
                .clone();
            if let Some(context) = context {
                header.field_raw("context", &context());
            }
        }
        text.push('\n');
        for span in &spans {
            span.write_json(&mut text);
            text.push('\n');
        }
        if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
            let _ = file.write_all(text.as_bytes());
        }
    }
}

/// The lifecycle-span emission point, shared by cluster, cache, broker
/// and sim. See the [module docs](self) for the span taxonomy.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    trace_sample_every_n: u64,
    slo: SloConfig,
    sink: SharedSink,
    recorder: Arc<FlightRecorder>,
    spans_total: [Counter; SpanKind::ALL.len()],
    insert_lag_us: Histogram,
    delivery_lag_us: Histogram,
    staleness_us: Histogram,
    delivery_slo_violations: Counter,
    staleness_slo_violations: Counter,
}

/// A shareable tracer handle — the shape every layer stores.
pub type SharedTracer = Arc<Tracer>;

impl Tracer {
    /// Registers the trace metric family on `registry` (per-kind
    /// labeled span counters, stage-lag histograms, SLO violation
    /// counters), records sampled spans into `recorder`, and forwards
    /// them to `sink` when it is enabled.
    pub fn new(
        registry: &Registry,
        sink: SharedSink,
        recorder: Arc<FlightRecorder>,
        config: TraceConfig,
    ) -> SharedTracer {
        let spans_total = SpanKind::ALL
            .map(|kind| registry.counter_with("bad_trace_spans_total", &[("kind", kind.label())]));
        Arc::new(Self {
            on: true,
            trace_sample_every_n: config.trace_sample_every_n,
            slo: config.slo,
            sink,
            recorder,
            spans_total,
            insert_lag_us: registry.histogram("bad_trace_insert_lag_us"),
            delivery_lag_us: registry.histogram("bad_trace_delivery_lag_us"),
            staleness_us: registry.histogram("bad_trace_staleness_us"),
            delivery_slo_violations: registry.counter("bad_delivery_latency_slo_violations_total"),
            staleness_slo_violations: registry.counter("bad_staleness_slo_violations_total"),
        })
    }

    /// The default wiring: every emission helper returns after one
    /// branch, nothing is registered anywhere.
    pub fn disabled() -> SharedTracer {
        Arc::new(Self {
            on: false,
            trace_sample_every_n: 0,
            slo: SloConfig::default(),
            sink: crate::event::null_sink(),
            recorder: Arc::new(FlightRecorder::new(1, 1)),
            spans_total: std::array::from_fn(|_| Counter::default()),
            insert_lag_us: Histogram::new(),
            delivery_lag_us: Histogram::new(),
            staleness_us: Histogram::new(),
            delivery_slo_violations: Counter::default(),
            staleness_slo_violations: Counter::default(),
        })
    }

    /// Whether emission helpers do anything — hot paths check this
    /// before looping over per-object spans.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The flight recorder spans land in.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The SLO thresholds in force.
    pub fn slo(&self) -> SloConfig {
        self.slo
    }

    /// Whether `trace`'s span records are kept (metrics always are).
    #[inline]
    pub fn sampled(&self, trace: TraceId) -> bool {
        match self.trace_sample_every_n {
            0 => false,
            1 => true,
            n => trace.as_u64().is_multiple_of(n),
        }
    }

    /// The sink this tracer writes to ([`crate::null_sink`] when
    /// disabled).
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }

    /// Writes one record no span carries (a retrieval summary, a TTL
    /// retune, an enrichment run, a sampler epoch) to the tracer's
    /// sink. A disabled tracer holds the null sink, so this is one
    /// branch there.
    #[inline]
    pub fn record(&self, event: &Event) {
        if self.sink.enabled() {
            self.sink.record(event);
        }
    }

    /// The per-kind span counter of `kind`.
    #[inline]
    fn spans_of(&self, kind: SpanKind) -> &Counter {
        &self.spans_total[kind.index()]
    }

    /// Forwards one *sampled* span to the recorder and the sink. The
    /// per-kind counter and the stage metrics are bumped by the caller
    /// *before* the sampling decision, so unsampled traces never pay
    /// for span construction or id derivation.
    #[inline]
    fn emit(&self, span: Span) {
        self.recorder.record(&span);
        if self.sink.enabled() {
            self.sink.record(&Event::Span(span));
        }
    }

    /// Channel `channel` appended result `object` for `cache` — the
    /// root span of the notification's trace.
    pub fn on_result_produced(&self, t_us: u64, channel: u64, cache: u64, object: u64, bytes: u64) {
        if !self.on {
            return;
        }
        self.spans_of(SpanKind::ResultProduced).inc();
        let trace = TraceId::for_object(object);
        if !self.sampled(trace) {
            return;
        }
        self.emit(Span {
            t_us,
            bytes,
            detail: channel,
            ..Span::new(trace, SpanKind::ResultProduced, cache, object, 0)
        });
    }

    /// The broker admitted `object` into `cache`; `lag_us` is the
    /// produce→insert lag and `total_bytes` the cache tier's occupancy
    /// after the insert.
    pub fn on_cache_insert(
        &self,
        t_us: u64,
        cache: u64,
        object: u64,
        bytes: u64,
        lag_us: u64,
        total_bytes: u64,
    ) {
        if !self.on {
            return;
        }
        self.spans_of(SpanKind::CacheInsert).inc();
        self.insert_lag_us.record(lag_us);
        let trace = TraceId::for_object(object);
        if !self.sampled(trace) {
            return;
        }
        self.emit(Span {
            t_us,
            bytes,
            lag_us,
            detail: total_bytes,
            ..Span::new(trace, SpanKind::CacheInsert, cache, object, 0)
        });
    }

    /// `subscriber`'s retrieval was served `hits` from `cache`, each an
    /// `(object, bytes, lag_us)` triple whose lag is the end-to-end
    /// produce→deliver lag, checked against the delivery SLO. One
    /// retrieve-hit span per object.
    pub fn on_retrieve_hits(
        &self,
        t_us: u64,
        cache: u64,
        subscriber: u64,
        hits: impl IntoIterator<Item = (u64, u64, u64)>,
    ) {
        let hits = hits
            .into_iter()
            .map(|(object, bytes, lag)| (object, bytes, lag, 0));
        self.on_retrievals(SpanKind::RetrieveHit, t_us, cache, subscriber, hits);
    }

    /// `subscriber`'s retrieval missed `misses` in `cache` (never
    /// admitted, or already dropped) and re-fetched them from the
    /// durable backend store. Each is an `(object, bytes, lag_us,
    /// fetch_us)` tuple: `lag_us` is the produce→deliver lag, with the
    /// same delivery-SLO accounting as a hit (the subscriber does not
    /// care why delivery was late), and `fetch_us` the modeled cluster
    /// fetch latency, the span's detail. One retrieve-miss span per
    /// object.
    pub fn on_retrieve_misses(
        &self,
        t_us: u64,
        cache: u64,
        subscriber: u64,
        misses: impl IntoIterator<Item = (u64, u64, u64, u64)>,
    ) {
        self.on_retrievals(SpanKind::RetrieveMiss, t_us, cache, subscriber, misses);
    }

    /// One `kind` span per `(object, bytes, lag_us, detail)`; the span
    /// counter, the SLO violation counter and the lag histogram's sum
    /// are updated once for the lot.
    fn on_retrievals(
        &self,
        kind: SpanKind,
        t_us: u64,
        cache: u64,
        subscriber: u64,
        items: impl IntoIterator<Item = (u64, u64, u64, u64)>,
    ) {
        if !self.on {
            return;
        }
        let mut lags = self.delivery_lag_us.batch();
        let (mut spans, mut violations) = (0, 0);
        for (object, bytes, lag_us, detail) in items {
            spans += 1;
            lags.record(lag_us);
            if lag_us > self.slo.delivery_latency_us {
                violations += 1;
                self.recorder.note_anomaly("delivery_latency_slo", t_us);
            }
            let trace = TraceId::for_object(object);
            if self.sampled(trace) {
                self.emit(Span {
                    t_us,
                    bytes,
                    lag_us,
                    detail,
                    ..Span::new(trace, kind, cache, object, subscriber)
                });
            }
        }
        if spans > 0 {
            self.spans_of(kind).add(spans);
        }
        if violations > 0 {
            self.delivery_slo_violations.add(violations);
        }
    }

    /// `object` left `cache`. `kind` must be one of [`SpanKind::Drop`],
    /// [`SpanKind::Expire`] or [`SpanKind::FullyConsumed`];
    /// `staleness_us` is its time in cache, `policy`/`drop_kind`/`score`
    /// the audited policy decision (φ/s for evictions) and `ttl_us` the
    /// TTL in force, kept as an expiry's detail. Full consumption is
    /// checked against the staleness SLO.
    #[allow(clippy::too_many_arguments)] // single fan-in for all drop causes
    pub fn on_drop(
        &self,
        t_us: u64,
        cache: u64,
        object: u64,
        bytes: u64,
        kind: SpanKind,
        drop_kind: &'static str,
        policy: &'static str,
        score: f64,
        staleness_us: u64,
        ttl_us: u64,
    ) {
        if !self.on {
            return;
        }
        debug_assert!(matches!(
            kind,
            SpanKind::Drop | SpanKind::Expire | SpanKind::FullyConsumed
        ));
        self.spans_of(kind).inc();
        self.staleness_us.record(staleness_us);
        if kind == SpanKind::FullyConsumed && staleness_us > self.slo.staleness_us {
            self.staleness_slo_violations.inc();
            self.recorder.note_anomaly("staleness_slo", t_us);
        }
        let trace = TraceId::for_object(object);
        if !self.sampled(trace) {
            return;
        }
        self.emit(Span {
            t_us,
            bytes,
            lag_us: staleness_us,
            detail: if kind == SpanKind::Expire { ttl_us } else { 0 },
            policy,
            drop_kind,
            score,
            ..Span::new(trace, kind, cache, object, 0)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RingBufferSink;

    fn tracer_with(
        registry: &Registry,
        recorder: Arc<FlightRecorder>,
        config: TraceConfig,
    ) -> (SharedTracer, Arc<RingBufferSink>) {
        let ring = Arc::new(RingBufferSink::new(1024));
        let sink: SharedSink = ring.clone();
        (Tracer::new(registry, sink, recorder, config), ring)
    }

    #[test]
    fn ids_are_deterministic_and_time_free() {
        let a = TraceId::for_object(42);
        let b = TraceId::for_object(42);
        assert_eq!(a, b);
        assert_ne!(a, TraceId::for_object(43));
        let s1 = SpanId::derive(a, SpanKind::RetrieveHit, 7);
        assert_eq!(s1, SpanId::derive(b, SpanKind::RetrieveHit, 7));
        assert_ne!(s1, SpanId::derive(a, SpanKind::RetrieveHit, 8));
        assert_ne!(s1, SpanId::derive(a, SpanKind::RetrieveMiss, 7));
    }

    #[test]
    fn lifecycle_parents_chain_without_id_plumbing() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(2, 64));
        let (tracer, _) = tracer_with(&registry, recorder.clone(), TraceConfig::default());
        tracer.on_result_produced(1, 3, 9, 77, 100);
        tracer.on_cache_insert(2, 9, 77, 100, 1, 100);
        tracer.on_retrieve_hits(3, 9, 1001, [(77, 100, 2)]);
        tracer.on_drop(
            4,
            9,
            77,
            100,
            SpanKind::FullyConsumed,
            "consume",
            "lsc",
            0.0,
            2,
            0,
        );
        let spans = recorder.recent();
        assert_eq!(spans.len(), 4);
        let trace = TraceId::for_object(77);
        assert!(spans.iter().all(|s| s.trace == trace));
        let produced = &spans[0];
        let insert = &spans[1];
        let hit = &spans[2];
        let consumed = &spans[3];
        assert_eq!(produced.parent, None);
        assert_eq!(insert.parent, Some(produced.span));
        assert_eq!(hit.parent, Some(insert.span));
        assert_eq!(consumed.parent, Some(insert.span));
    }

    #[test]
    fn sampling_keeps_whole_traces() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 256));
        let config = TraceConfig {
            trace_sample_every_n: 4,
            ..TraceConfig::default()
        };
        let (tracer, _) = tracer_with(&registry, recorder.clone(), config);
        for object in 0..64u64 {
            tracer.on_result_produced(1, 1, 1, object, 10);
            tracer.on_cache_insert(2, 1, object, 10, 1, 10);
        }
        let spans = recorder.recent();
        assert!(!spans.is_empty());
        assert!(spans.len() < 128);
        // Sampled traces keep every span: each sampled object has both.
        for span in &spans {
            assert_eq!(
                spans.iter().filter(|s| s.trace == span.trace).count(),
                2,
                "trace {} partially sampled",
                span.trace
            );
        }
        // Metrics still count everything.
        assert!(registry
            .render()
            .contains("bad_trace_spans_total{kind=\"result_produced\"} 64"));
    }

    #[test]
    fn sample_zero_is_metrics_only() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        let config = TraceConfig {
            trace_sample_every_n: 0,
            ..TraceConfig::default()
        };
        let (tracer, ring) = tracer_with(&registry, recorder.clone(), config);
        tracer.on_result_produced(1, 1, 1, 5, 10);
        assert!(recorder.is_empty());
        assert!(ring.is_empty());
        assert!(registry
            .render()
            .contains("bad_trace_spans_total{kind=\"result_produced\"} 1"));
    }

    #[test]
    fn slo_violations_are_counted_and_noted() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        let config = TraceConfig {
            slo: SloConfig {
                delivery_latency_us: 100,
                staleness_us: 100,
            },
            ..TraceConfig::default()
        };
        let (tracer, _) = tracer_with(&registry, recorder.clone(), config);
        tracer.on_retrieve_hits(1, 1, 9, [(5, 10, 50)]); // within SLO
        tracer.on_retrieve_hits(2, 1, 9, [(5, 10, 500)]); // violation
        tracer.on_retrieve_misses(3, 1, 9, [(6, 10, 900, 0)]); // violation
        tracer.on_drop(
            4,
            1,
            5,
            10,
            SpanKind::FullyConsumed,
            "consume",
            "lsc",
            0.0,
            5_000, // stale
            0,
        );
        let text = registry.render();
        assert!(text.contains("bad_delivery_latency_slo_violations_total 2"));
        assert!(text.contains("bad_staleness_slo_violations_total 1"));
        assert_eq!(recorder.anomalies(), 3);
    }

    #[test]
    fn batched_retrievals_count_and_link_every_object() {
        let registry = Registry::new();
        let recorder = Arc::new(FlightRecorder::new(1, 64));
        let (tracer, ring) = tracer_with(&registry, recorder.clone(), TraceConfig::default());
        tracer.on_retrieve_hits(10, 3, 7, [(1, 100, 5), (2, 200, 6), (3, 300, 4_000)]);
        tracer.on_retrieve_misses(11, 3, 7, [(4, 400, 9, 500), (5, 500, 1, 600)]);
        tracer.on_retrieve_hits(12, 3, 7, []);

        let text = registry.render();
        for line in [
            "bad_trace_spans_total{kind=\"retrieve_hit\"} 3\n",
            "bad_trace_spans_total{kind=\"retrieve_miss\"} 2\n",
            "bad_trace_delivery_lag_us_sum 4021\n",
            "bad_trace_delivery_lag_us_count 5\n",
            "bad_trace_delivery_lag_us_max 4000\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in\n{text}");
        }
        // One span per object, in object order; a miss carries its
        // fetch latency.
        let spans: Vec<Span> = ring
            .events()
            .into_iter()
            .map(|event| match event {
                Event::Span(span) => span,
                other => panic!("not a span: {other:?}"),
            })
            .collect();
        let kinds: Vec<(SpanKind, u64)> = spans.iter().map(|s| (s.kind, s.object)).collect();
        assert_eq!(
            kinds,
            [
                (SpanKind::RetrieveHit, 1),
                (SpanKind::RetrieveHit, 2),
                (SpanKind::RetrieveHit, 3),
                (SpanKind::RetrieveMiss, 4),
                (SpanKind::RetrieveMiss, 5),
            ]
        );
        assert_eq!((spans[3].lag_us, spans[3].detail), (9, 500));
        assert_eq!((spans[4].lag_us, spans[4].detail), (1, 600));
        assert_eq!(spans[0].detail, 0);
        assert_eq!(
            spans[0].parent,
            Some(SpanId::derive(spans[0].trace, SpanKind::CacheInsert, 3))
        );
        assert_eq!(recorder.len(), 5);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.on_result_produced(1, 1, 1, 1, 1);
        tracer.on_cache_insert(1, 1, 1, 1, 1, 1);
        tracer.on_retrieve_hits(1, 1, 1, [(1, 1, u64::MAX)]);
        tracer.on_retrieve_misses(1, 1, 1, [(1, 1, u64::MAX, 1)]);
        assert!(tracer.recorder().is_empty());
        assert_eq!(tracer.recorder().anomalies(), 0);
    }

    #[test]
    fn flight_recorder_rings_evict_oldest() {
        let recorder = FlightRecorder::new(1, 2);
        let trace = TraceId::for_object(1);
        for t in 0..5u64 {
            recorder.record(&Span {
                t_us: t,
                ..Span::new(trace, SpanKind::ResultProduced, 1, 1, 0)
            });
        }
        let spans = recorder.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].t_us, 3);
        assert_eq!(spans[1].t_us, 4);
    }

    #[test]
    fn anomaly_dump_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!(
            "bad-trace-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&dir);
        let recorder = FlightRecorder::new(1, 8);
        recorder.note_anomaly("before_path_is_set", 1);
        recorder.set_dump_path(&dir);
        let trace = TraceId::for_object(3);
        recorder.record(&Span {
            t_us: 9,
            bytes: 64,
            lag_us: 1000,
            detail: 30_000,
            policy: "ttl",
            drop_kind: "expire",
            ..Span::new(trace, SpanKind::Expire, 2, 3, 0)
        });
        recorder.note_anomaly("budget_overrun", 10);
        assert_eq!(recorder.anomalies(), 2);
        let text = std::fs::read_to_string(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""kind":"anomaly","reason":"budget_overrun"#));
        assert!(lines[1].contains(r#""kind":"expire""#));
        assert!(lines[1].contains(r#""ttl_us":30000,"drop_kind":"expire","policy":"ttl""#));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn overwrite_under_contention_never_loses_the_claim() {
        // Generative striping test: many threads hammer tiny rings so
        // slots wrap constantly and writers collide on the per-slot
        // try_lock. Whatever the interleaving, the *claim* counter must
        // stay exact: every attempted record bumps exactly one stripe
        // head, so Σ heads == records attempted, with contended drops
        // only ever reducing what is *visible*, never what was claimed.
        let mut seed = 0xC1A1_35EEu64;
        for round in 0..4 {
            // xorshift64* the shape: stripe/capacity in [1, 8], thread
            // and record counts per round.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let mixed = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let stripes = 1 + (mixed % 8) as usize;
            let capacity = 1 + ((mixed >> 8) % 8) as usize;
            let threads = 4;
            let per_thread = 2_000u64;
            let recorder = Arc::new(FlightRecorder::new(stripes, capacity));
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let recorder = Arc::clone(&recorder);
                    std::thread::spawn(move || {
                        for i in 0..per_thread {
                            let trace = TraceId::for_object(t * per_thread + i);
                            recorder.record(&Span {
                                t_us: i,
                                ..Span::new(trace, SpanKind::CacheInsert, t, i, 0)
                            });
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().unwrap();
            }
            let attempted = threads * per_thread;
            assert_eq!(
                recorder.claims(),
                attempted,
                "round {round}: stripes={stripes} capacity={capacity} lost a claim"
            );
            // Drops only ever come out of claimed slots, every visible
            // span came from a successful (non-dropped) write, and the
            // ring can never show more spans than it has slots.
            let visible = recorder.len() as u64;
            assert!(
                visible + recorder.contended_drops() <= attempted,
                "round {round}: visible={visible} drops={} attempted={attempted}",
                recorder.contended_drops()
            );
            assert!(visible <= (recorder.stripes.len() * recorder.capacity) as u64);
        }
    }

    #[test]
    fn anomaly_dump_carries_the_threads_last_stage_path() {
        use crate::profile::{ProfileConfig, Profiler, StagePath};
        use crate::registry::Registry;

        let dir = std::env::temp_dir().join(format!(
            "bad-trace-stage-dump-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&dir);
        let recorder = FlightRecorder::new(1, 8);
        recorder.set_dump_path(&dir);

        // Profiler on: record a stage on *this* thread, then note an
        // anomaly — the dump header must carry the stage path.
        let profiler = Profiler::new(&Registry::new(), ProfileConfig::default());
        let mut timer = profiler.op();
        profiler.stage(&mut timer, StagePath::InsertVictimScan, 42);
        recorder.note_anomaly("budget_overrun", 10);
        let text = std::fs::read_to_string(&dir).unwrap();
        assert!(
            text.contains(r#""last_stage":"insert;victim_scan""#),
            "{text}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn span_json_is_stable() {
        let trace = TraceId::for_object(11);
        let span = Span {
            t_us: 1_000,
            bytes: 256,
            lag_us: 77,
            ..Span::new(trace, SpanKind::RetrieveHit, 2, 11, 42)
        };
        let json = span.to_json();
        assert!(json.starts_with(r#"{"kind":"retrieve_hit","t_us":1000,"trace":"#));
        assert!(json.contains(r#""subscriber":42"#));
        assert!(json.contains(r#""lag_us":77"#));
        assert!(!json.contains("drop_kind"));
    }

    /// The exact JSON of a `kind` span on object 11 whose detail is
    /// `detail`, with no parent (drop fields only on an expiry).
    fn detail_json(kind: SpanKind, detail: u64) -> String {
        let expire = kind == SpanKind::Expire;
        Span {
            parent: None,
            t_us: 1_000,
            bytes: 256,
            lag_us: 77,
            detail,
            policy: if expire { "ttl" } else { "" },
            drop_kind: if expire { "expire" } else { "" },
            ..Span::new(TraceId::for_object(11), kind, 2, 11, 0)
        }
        .to_json()
    }

    #[test]
    fn cache_insert_json_names_its_detail_total_bytes() {
        assert_eq!(
            detail_json(SpanKind::CacheInsert, 4_096),
            r#"{"kind":"cache_insert","t_us":1000,"trace":15575214822844273363,"span":10212145161074951364,"cache":2,"object":11,"bytes":256,"lag_us":77,"total_bytes":4096}"#
        );
    }

    #[test]
    fn expire_json_names_its_detail_ttl_us() {
        assert_eq!(
            detail_json(SpanKind::Expire, 30_000_000),
            r#"{"kind":"expire","t_us":1000,"trace":15575214822844273363,"span":5789813082746134069,"cache":2,"object":11,"bytes":256,"lag_us":77,"ttl_us":30000000,"drop_kind":"expire","policy":"ttl","score":0}"#
        );
    }

    #[test]
    fn result_produced_json_names_its_detail_channel() {
        assert_eq!(
            detail_json(SpanKind::ResultProduced, 5),
            r#"{"kind":"result_produced","t_us":1000,"trace":15575214822844273363,"span":8885108097813721509,"cache":2,"object":11,"bytes":256,"lag_us":77,"channel":5}"#
        );
    }

    #[test]
    fn retrieve_miss_json_names_its_detail_fetch_us() {
        assert_eq!(
            detail_json(SpanKind::RetrieveMiss, 1_250),
            r#"{"kind":"retrieve_miss","t_us":1000,"trace":15575214822844273363,"span":2328304605329950337,"cache":2,"object":11,"bytes":256,"lag_us":77,"fetch_us":1250}"#
        );
    }
}
