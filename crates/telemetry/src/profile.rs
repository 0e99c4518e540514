//! Continuous hot-path profiler: lock-contention attribution and
//! stage-latency breakdown for the paper's Algorithm 1 GET path.
//!
//! Three layers, all std-only and cheap enough to leave on:
//!
//! - **Instrumented locks** — [`LockSite::lock`] wraps a cache shard
//!   mutex acquisition. The uncontended fast path is
//!   one `try_lock` plus one tick pair for hold time, no allocation and
//!   no atomic read-modify-write beyond the mutex's own; only when
//!   `try_lock` would block does the site count a contention and time
//!   the wait. Wait/hold distributions and contention counts
//!   render as `bad_profile_lock_*{site="…"}` series.
//! - **Stage timers** — an [`OpTimer`] carries a running timestamp
//!   through one operation; each [`Profiler::stage`] call attributes
//!   the time since the previous boundary to a static [`StagePath`]
//!   (`get_all_pending;lock_wait`, `insert;victim_scan`, …). Deltas
//!   accumulate *inside* the timer (a boundary is one tick read and
//!   two stores); [`Profiler::finish`] adds one sample per touched
//!   path to per-thread, per-path bucket accumulators, which fold into
//!   the shared per-path histograms every [`RING_CAPACITY`] samples
//!   (and on [`Profiler::flush_thread`]) with one read-modify-write
//!   per touched bucket — the sampled-op count folds with them. Every
//!   boundary also notes its path in a thread-local
//!   ([`last_stage_path`]), the "what was this thread doing" hook for
//!   anomaly dumps.
//! - **Exemplars** — every stage histogram bucket retains the most
//!   recent trace id that landed in it
//!   ([`crate::Histogram::with_exemplars`]), so a `/profile` latency
//!   outlier links straight to the flight-recorder spans of the
//!   operation that produced it.
//!
//! Timestamps come from [`ticks`]: the TSC on `x86_64` (calibrated
//! against `Instant` once per process, assuming the constant-TSC
//! behaviour of every post-2008 part), a monotonic `Instant` delta
//! elsewhere. Reading the TSC costs a fraction of a `clock_gettime`:
//! when a standalone overhead bench (since deleted) timed a 4-shard
//! manager's batched GETs, inserts and acks with and without stages
//! on every op, full profiling cost ~5–8 % against a 10 % budget.
//!
//! The profiler is metadata-only: no instrumentation point influences
//! an insert, eviction or TTL decision, so a profiled `shards = 1`
//! manager stays byte-identical to the monolithic oracle (pinned by
//! `oracle_parity`).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError, Weak};
use std::time::Instant;

use crate::histogram::{Histogram, BUCKET_COUNT};
use crate::json::ObjectWriter;
use crate::registry::{Counter, Registry};

/// Stage samples a thread gathers before folding them into the shared
/// histograms: a fold happens at most once per this many samples (or
/// on [`Profiler::flush_thread`]).
pub const RING_CAPACITY: usize = 64;

// ---------------------------------------------------------------------------
// Cheap clock
// ---------------------------------------------------------------------------

struct Clock {
    /// Process-start reference for the non-TSC fallback; only read by
    /// the fallback `raw_ticks`, so it is dead weight on `x86_64`.
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    start: Instant,
    /// Nanoseconds per raw tick (1.0 on the `Instant` fallback).
    ns_per_tick: f64,
}

static CLOCK: OnceLock<Clock> = OnceLock::new();

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions; it is unprivileged on every
    // OS this runs on.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(target_arch = "x86_64")]
fn make_clock() -> Clock {
    // Calibrate the TSC against the OS monotonic clock over a short
    // spin. 2 ms keeps first-use latency negligible while bounding the
    // frequency error well under 1 % — stage timings are attribution
    // data, not billing data.
    let start = Instant::now();
    let t0 = raw_ticks();
    let elapsed = loop {
        let elapsed = start.elapsed();
        if elapsed.as_micros() >= 2_000 {
            break elapsed;
        }
        std::hint::spin_loop();
    };
    let ticks = raw_ticks().wrapping_sub(t0);
    let ns_per_tick = if ticks == 0 {
        1.0
    } else {
        elapsed.as_nanos() as f64 / ticks as f64
    };
    Clock { start, ns_per_tick }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks() -> u64 {
    clock().start.elapsed().as_nanos() as u64
}

#[cfg(not(target_arch = "x86_64"))]
fn make_clock() -> Clock {
    Clock {
        start: Instant::now(),
        ns_per_tick: 1.0,
    }
}

fn clock() -> &'static Clock {
    CLOCK.get_or_init(make_clock)
}

/// A raw timestamp from the cheapest monotonic-enough source the
/// target offers. Only differences of two `ticks()` readings are
/// meaningful; convert with [`ticks_to_ns`].
#[inline]
pub fn ticks() -> u64 {
    // Touch the calibration before the first reading so a tick pair
    // never straddles the calibration spin.
    let _ = clock();
    raw_ticks()
}

/// Converts a difference of two [`ticks`] readings to nanoseconds.
#[inline]
pub fn ticks_to_ns(delta: u64) -> u64 {
    (delta as f64 * clock().ns_per_tick) as u64
}

// ---------------------------------------------------------------------------
// Stage paths
// ---------------------------------------------------------------------------

/// The closed set of stage paths the hot paths decompose into. Paths
/// are static so recording is an array index, not an interning lookup;
/// the `root;leaf` names are already in folded-stack form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StagePath {
    /// Whole `get_all_pending` / `plan_get` operation (root).
    GetTotal,
    /// Shard routing: splitmix64 hash + per-shard grouping.
    GetRoute,
    /// Waiting on (and acquiring) shard mutexes on the GET path.
    GetLockWait,
    /// In-cache range lookup under the shard lock.
    GetLookup,
    /// The one batched cluster round trip for the missed ranges.
    GetClusterRtt,
    /// Post-delivery consume acknowledgement under the shard lock.
    GetAck,
    /// Never emitted: the seqlock snapshot read it timed is gone. This
    /// and the next two variants stay only because
    /// `benchmark/src/measure.rs` reads their sample counts (as 0) and
    /// a change that claims a gain may not edit `benchmark/`.
    GetOptimisticRead,
    /// Never emitted (see [`StagePath::GetOptimisticRead`]).
    GetSeqlockRetry,
    /// Never emitted (see [`StagePath::GetOptimisticRead`]).
    GetAckDrain,
    /// Whole `insert` operation (root).
    InsertTotal,
    /// Waiting on (and acquiring) the shard mutex on the insert path.
    InsertLockWait,
    /// Map insert + policy reindex.
    InsertApply,
    /// The `enforce_budget` victim-selection/eviction loop.
    InsertVictimScan,
    /// Whole `maintain` operation (root).
    MaintainTotal,
    /// Waiting on (and acquiring) shard mutexes during maintenance.
    MaintainLockWait,
    /// TTL recomputation + expiry sweep under the shard lock.
    MaintainTtlExpiry,
    /// Occupancy-weighted budget rebalancing across shards.
    MaintainRebalance,
}

impl StagePath {
    /// Number of stage paths (array sizes).
    pub const COUNT: usize = 17;

    /// Every path, in render order.
    pub const ALL: [StagePath; Self::COUNT] = [
        StagePath::GetTotal,
        StagePath::GetRoute,
        StagePath::GetLockWait,
        StagePath::GetLookup,
        StagePath::GetClusterRtt,
        StagePath::GetAck,
        StagePath::GetOptimisticRead,
        StagePath::GetSeqlockRetry,
        StagePath::GetAckDrain,
        StagePath::InsertTotal,
        StagePath::InsertLockWait,
        StagePath::InsertApply,
        StagePath::InsertVictimScan,
        StagePath::MaintainTotal,
        StagePath::MaintainLockWait,
        StagePath::MaintainTtlExpiry,
        StagePath::MaintainRebalance,
    ];

    /// The folded-stack name (`root` or `root;leaf`).
    pub const fn name(self) -> &'static str {
        match self {
            StagePath::GetTotal => "get_all_pending",
            StagePath::GetRoute => "get_all_pending;route",
            StagePath::GetLockWait => "get_all_pending;lock_wait",
            StagePath::GetLookup => "get_all_pending;lookup",
            StagePath::GetClusterRtt => "get_all_pending;cluster_rtt",
            StagePath::GetAck => "get_all_pending;ack_consume",
            StagePath::GetOptimisticRead => "get_all_pending;optimistic_read",
            StagePath::GetSeqlockRetry => "get_all_pending;seqlock_retry",
            StagePath::GetAckDrain => "get_all_pending;ack_drain",
            StagePath::InsertTotal => "insert",
            StagePath::InsertLockWait => "insert;lock_wait",
            StagePath::InsertApply => "insert;apply",
            StagePath::InsertVictimScan => "insert;victim_scan",
            StagePath::MaintainTotal => "maintain",
            StagePath::MaintainLockWait => "maintain;lock_wait",
            StagePath::MaintainTtlExpiry => "maintain;ttl_expiry",
            StagePath::MaintainRebalance => "maintain;rebalance",
        }
    }

    /// The root this path belongs to (`self` for roots).
    const fn root(self) -> StagePath {
        match self {
            StagePath::GetTotal
            | StagePath::GetRoute
            | StagePath::GetLockWait
            | StagePath::GetLookup
            | StagePath::GetClusterRtt
            | StagePath::GetAck
            | StagePath::GetOptimisticRead
            | StagePath::GetSeqlockRetry
            | StagePath::GetAckDrain => StagePath::GetTotal,
            StagePath::InsertTotal
            | StagePath::InsertLockWait
            | StagePath::InsertApply
            | StagePath::InsertVictimScan => StagePath::InsertTotal,
            StagePath::MaintainTotal
            | StagePath::MaintainLockWait
            | StagePath::MaintainTtlExpiry
            | StagePath::MaintainRebalance => StagePath::MaintainTotal,
        }
    }

    /// Whether this is an operation root (whole-op duration) rather
    /// than a leaf stage.
    const fn is_root(self) -> bool {
        matches!(
            self,
            StagePath::GetTotal | StagePath::InsertTotal | StagePath::MaintainTotal
        )
    }
}

// ---------------------------------------------------------------------------
// Per-thread sample accumulators
// ---------------------------------------------------------------------------

/// One path's samples since the last fold, bucketed as the shared
/// histogram buckets them.
#[derive(Clone, Copy)]
struct PathAcc {
    buckets: [u64; BUCKET_COUNT],
    /// Per bucket, the most recent nonzero trace id to land in it.
    exemplars: [u64; BUCKET_COUNT],
    /// Bitmask of buckets with samples.
    touched: u128,
    sum: u64,
    max: u64,
}

impl PathAcc {
    const EMPTY: Self = Self {
        buckets: [0; BUCKET_COUNT],
        exemplars: [0; BUCKET_COUNT],
        touched: 0,
        sum: 0,
        max: 0,
    };

    #[inline]
    fn add(&mut self, ns: u64, trace: u64) {
        let bucket = Histogram::bucket_index(ns);
        self.buckets[bucket] += 1;
        if trace != 0 {
            self.exemplars[bucket] = trace;
        }
        self.touched |= 1 << bucket;
        self.sum = self.sum.wrapping_add(ns);
        self.max = self.max.max(ns);
    }

    /// Adds these samples to `hist`: one RMW per touched bucket, one
    /// for the sum, and the max only when it rises.
    fn fold_into(&mut self, hist: &Histogram) {
        let mut touched = self.touched;
        while touched != 0 {
            let bucket = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            hist.add_to_bucket(bucket, self.buckets[bucket], self.exemplars[bucket]);
        }
        hist.add_sum_max(self.sum, self.max);
        *self = Self::EMPTY;
    }
}

/// The calling thread's samples for one profiler, between folds.
struct ThreadAcc {
    /// `Arc::as_ptr` of the profiler the samples belong to.
    owner: usize,
    owner_weak: Weak<ProfilerInner>,
    /// Allocated when the thread first records for a profiler.
    paths: Vec<PathAcc>,
    /// Bitmask of paths with samples.
    touched: u32,
    /// Samples since the last fold.
    samples: usize,
    /// Operations [`Profiler::op`] sampled since the last fold.
    sampled_ops: u64,
}

impl ThreadAcc {
    const fn new() -> Self {
        Self {
            owner: 0,
            owner_weak: Weak::new(),
            paths: Vec::new(),
            touched: 0,
            samples: 0,
            sampled_ops: 0,
        }
    }

    /// Points the accumulators at `inner`, first handing a different
    /// profiler's samples back (tests and in-process deployments run
    /// several profilers on one thread). A dead owner never matches, so
    /// a new profiler allocated at a dropped one's address rebinds.
    #[inline]
    fn bind(&mut self, inner: &Arc<ProfilerInner>) -> &mut Self {
        let owner = Arc::as_ptr(inner) as usize;
        if self.owner != owner || self.owner_weak.strong_count() == 0 {
            self.fold();
            self.owner = owner;
            self.owner_weak = Arc::downgrade(inner);
            if self.paths.is_empty() {
                self.paths = vec![PathAcc::EMPTY; StagePath::COUNT];
            }
        }
        self
    }

    #[inline]
    fn add(&mut self, path: StagePath, raw: u64, trace: u64) {
        self.paths[path as usize].add(ticks_to_ns(raw), trace);
        self.touched |= 1 << path as usize;
        self.samples += 1;
    }

    /// Folds every touched path, and the sampled-op count, into the
    /// owner's shared series.
    fn fold(&mut self) {
        if self.touched == 0 && self.sampled_ops == 0 {
            return;
        }
        if let Some(inner) = self.owner_weak.upgrade() {
            let mut touched = self.touched;
            while touched != 0 {
                let i = touched.trailing_zeros() as usize;
                touched &= touched - 1;
                self.paths[i].fold_into(&inner.stages[i]);
            }
            if self.sampled_ops != 0 {
                inner.sampled.add(self.sampled_ops);
            }
        } else {
            self.paths.fill(PathAcc::EMPTY);
        }
        self.touched = 0;
        self.samples = 0;
        self.sampled_ops = 0;
    }
}

thread_local! {
    static ACC: RefCell<ThreadAcc> = const { RefCell::new(ThreadAcc::new()) };
    /// Per-thread operation sequence for 1-in-`n` sampling.
    static OP_SEQ: Cell<u64> = const { Cell::new(0) };
    /// The stage this thread most recently crossed a boundary into —
    /// written at every boundary (a plain TLS store, no accumulator
    /// borrow) so a thread stuck *mid-op* still reports where it was.
    static LAST_PATH: Cell<Option<StagePath>> = const { Cell::new(None) };
}

/// The folded name of the stage this thread most recently recorded,
/// if a profiler has run on this thread. Anomaly dumps attach this so
/// a flight-recorder drop or SLO breach carries "what was the thread
/// doing" attribution.
pub fn last_stage_path() -> Option<&'static str> {
    LAST_PATH.with(|last| last.get().map(StagePath::name))
}

// ---------------------------------------------------------------------------
// Stage timing
// ---------------------------------------------------------------------------

/// A running per-operation timestamp chain. One is issued per sampled
/// operation by [`Profiler::op`]; each [`Profiler::stage`] boundary
/// costs one [`ticks`] read plus two plain stores — deltas accumulate
/// *inside* the timer, per path, and reach the thread's accumulators
/// only once at [`Profiler::finish`]. A batched GET that crosses four
/// shards therefore pays four tick reads but adds two samples, not
/// eight.
#[derive(Clone, Copy, Debug)]
pub struct OpTimer {
    start: u64,
    last: u64,
    /// The most recent nonzero trace id seen at a boundary; stamped on
    /// every entry this op emits at finish.
    trace: u64,
    /// Per-path raw tick deltas accumulated across this op's
    /// boundaries; `touched` is the bitmask of live slots.
    acc: [u64; StagePath::COUNT],
    touched: u32,
}

impl OpTimer {
    /// Crosses a stage boundary at `now`: attributes `now − last` to
    /// `path` and advances the chain.
    #[inline]
    fn boundary(&mut self, path: StagePath, now: u64, trace: u64) {
        self.acc[path as usize] = self.acc[path as usize].wrapping_add(now.wrapping_sub(self.last));
        self.touched |= 1 << path as usize;
        self.last = now;
        if trace != 0 {
            self.trace = trace;
        }
        LAST_PATH.with(|last| last.set(Some(path)));
    }
}

/// Configuration for [`Profiler::new`].
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Stage-timer sampling: 1 profiles every operation (full), `n`
    /// profiles one in `n`, 0 disables stage timers entirely (lock
    /// sites stay live). Default 64: stage timings and lock hold times
    /// are a 1-in-64 sample per thread, while every lock site's
    /// acquisition and contention counts (and its wait times) stay
    /// exact — a [`LockSite`] counts whether or not the op is timed.
    pub sample_every_n: u32,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self { sample_every_n: 64 }
    }
}

#[derive(Debug)]
struct ProfilerInner {
    sample_every_n: u32,
    sampled: Counter,
    stages: [Histogram; StagePath::COUNT],
    /// Lock sites registered through this profiler, for `/profile`
    /// rendering. The owning structures hold their own clones.
    sites: Mutex<Vec<LockSite>>,
    registry: Registry,
}

/// The profiler handle: cheap to clone, `disabled()` by default.
///
/// All methods are no-ops (one branch) on a disabled profiler, so the
/// instrumented hot paths carry no configuration flags of their own.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfilerInner>>,
}

impl Profiler {
    /// A profiler that records nothing and issues detached lock sites.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates a live profiler whose `bad_profile_*` series register
    /// on `registry` (so they ride `/metrics` and `/timeseries` for
    /// free).
    pub fn new(registry: &Registry, config: ProfileConfig) -> Self {
        let stages = StagePath::ALL.map(|path| {
            registry.histogram_with_exemplars("bad_profile_stage_ns", &[("stage", path.name())])
        });
        Self {
            inner: Some(Arc::new(ProfilerInner {
                sample_every_n: config.sample_every_n,
                sampled: registry.counter("bad_profile_sampled_ops_total"),
                stages,
                sites: Mutex::new(Vec::new()),
                registry: registry.clone(),
            })),
        }
    }

    /// Whether this profiler records anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The stage-timer sampling period in force: 0 when disabled (or
    /// configured off), 1 when every op is timed, `n` for one in `n`.
    pub fn sample_every_n(&self) -> u32 {
        self.inner.as_ref().map_or(0, |inner| inner.sample_every_n)
    }

    /// Starts timing one operation, or returns `None` when the
    /// operation is not sampled (disabled profiler, `sample_every_n`
    /// of 0, or an off-cycle op). The instrumented paths thread the
    /// returned timer through their stage boundaries.
    ///
    /// The 1-in-`n` cycle is tracked per thread: a shared counter
    /// would bounce its cache line between every worker on every
    /// unsampled op — exactly the cost sampling exists to avoid.
    #[inline]
    pub fn op(&self) -> Option<OpTimer> {
        let inner = self.inner.as_ref()?;
        match inner.sample_every_n {
            0 => return None,
            1 => {}
            n => {
                let due = OP_SEQ.with(|seq| {
                    let v = seq.get();
                    seq.set(v.wrapping_add(1));
                    v % n as u64 == 0
                });
                if !due {
                    return None;
                }
            }
        }
        ACC.with(|acc| acc.borrow_mut().bind(inner).sampled_ops += 1);
        let now = ticks();
        Some(OpTimer {
            start: now,
            last: now,
            trace: 0,
            acc: [0; StagePath::COUNT],
            touched: 0,
        })
    }

    /// Attributes the time since the previous boundary to `path`,
    /// tagged with `trace` (0 = no exemplar). No-op when `timer` is
    /// `None`. The delta accumulates inside the timer; nothing touches
    /// the thread's accumulators until [`Profiler::finish`].
    #[inline]
    pub fn stage(&self, timer: &mut Option<OpTimer>, path: StagePath, trace: u64) {
        if let Some(timer) = timer.as_mut() {
            timer.boundary(path, ticks(), trace);
        }
    }

    /// Moves the boundary to now without attributing the elapsed time
    /// to any stage — used to exclude un-profiled work (e.g. the
    /// caller's own bookkeeping) from the next stage.
    #[inline]
    pub fn stage_skip(&self, timer: &mut Option<OpTimer>) {
        if let Some(timer) = timer.as_mut() {
            timer.last = ticks();
        }
    }

    /// Ends the operation: adds the timer's per-path deltas to the
    /// thread's accumulators (one sample per *touched* path — the
    /// breakdown) and the whole duration since [`Profiler::op`] to the
    /// root path (the envelope). One borrow of the accumulators covers
    /// every sample.
    #[inline]
    pub fn finish(&self, timer: Option<OpTimer>, root: StagePath, trace: u64) {
        if let (Some(inner), Some(timer)) = (&self.inner, timer) {
            finish_at(inner, timer, root, trace, ticks());
        }
    }

    /// [`Profiler::finish`] with the envelope ending at the op's last
    /// stage boundary instead of at a fresh clock read — for callers
    /// whose last act was crossing one (a
    /// [`ProfiledGuard::unlock_staged`]), so the read it took serves
    /// twice.
    #[inline]
    pub fn finish_at_boundary(&self, timer: Option<OpTimer>, root: StagePath, trace: u64) {
        if let (Some(inner), Some(timer)) = (&self.inner, timer) {
            finish_at(inner, timer, root, trace, timer.last);
        }
    }

    /// Registers (or re-fetches) the named lock site. A disabled
    /// profiler returns a detached site whose `lock` degrades to a
    /// plain mutex acquisition.
    pub fn lock_site(&self, name: &str) -> LockSite {
        let Some(inner) = self.inner.as_deref() else {
            return LockSite::detached();
        };
        let mut sites = inner.sites.lock().expect("profiler site list poisoned");
        if let Some(site) = sites.iter().find(|s| s.name.as_ref() == name) {
            return site.clone();
        }
        let labels = [("site", name)];
        let site = LockSite {
            name: Arc::from(name),
            enabled: true,
            wait_ns: inner
                .registry
                .histogram_with("bad_profile_lock_wait_ns", &labels),
            hold_ns: inner
                .registry
                .histogram_with("bad_profile_lock_hold_ns", &labels),
            acquisitions: inner
                .registry
                .counter_with("bad_profile_lock_acquisitions_total", &labels),
            contended: inner
                .registry
                .counter_with("bad_profile_lock_contended_total", &labels),
        };
        sites.push(site.clone());
        site
    }

    /// Force-folds the calling thread's samples and sampled-op count
    /// into the shared series. Called from maintenance paths (and
    /// tests) so scrape readouts lag a thread by at most one
    /// maintenance interval, not by up to [`RING_CAPACITY`] samples
    /// forever.
    pub fn flush_thread(&self) {
        if self.inner.is_none() {
            return;
        }
        ACC.with(|acc| acc.borrow_mut().fold());
    }

    /// Snapshot of every lock site (for `/healthz` top-k summaries).
    pub fn lock_sites(&self) -> Vec<LockSite> {
        match self.inner.as_deref() {
            Some(inner) => inner
                .sites
                .lock()
                .expect("profiler site list poisoned")
                .clone(),
            None => Vec::new(),
        }
    }

    /// The `k` most contended lock sites, ordered by contention count
    /// descending (ties by name), sites with zero contentions omitted.
    pub fn top_contended(&self, k: usize) -> Vec<LockSite> {
        let mut sites = self.lock_sites();
        sites.retain(|s| s.contended.get() > 0);
        sites.sort_by(|a, b| {
            b.contended
                .get()
                .cmp(&a.contended.get())
                .then_with(|| a.name.cmp(&b.name))
        });
        sites.truncate(k);
        sites
    }

    /// The aggregated stage tree as flamegraph-compatible folded-stack
    /// lines: `path total_ns`, one per path with samples, roots
    /// reporting their *self* time (envelope minus attributed leaf
    /// stages) so `flamegraph.pl` stacks add up.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        let Some(inner) = self.inner.as_deref() else {
            return out;
        };
        // Root self time = root envelope − Σ(leaf stages under it).
        let sums: Vec<u64> = StagePath::ALL
            .iter()
            .map(|p| inner.stages[*p as usize].sum())
            .collect();
        for path in StagePath::ALL {
            let mut value = sums[path as usize];
            if path.is_root() {
                let children: u64 = StagePath::ALL
                    .iter()
                    .filter(|p| !p.is_root() && p.root() == path)
                    .map(|p| sums[*p as usize])
                    .sum();
                value = value.saturating_sub(children);
            }
            if value == 0 && inner.stages[path as usize].count() == 0 {
                continue;
            }
            let _ = writeln!(out, "{} {}", path.name(), value);
        }
        out
    }

    /// The full `/profile` payload: sampling config, folded-stack
    /// lines, the structured stage tree (count/total/max/quantiles +
    /// per-bucket exemplars) and every lock site's wait/hold/contention
    /// readout.
    pub fn render_json(&self) -> String {
        self.render_json_limit(usize::MAX)
    }

    /// Like [`Profiler::render_json`], but rendering at most `limit`
    /// lock sites (the most contended first, via
    /// [`Profiler::top_contended`]) — the scrape endpoint caps
    /// `/profile` with this, since lock sites are the only part of the
    /// payload that grows with deployment size (one per shard). The
    /// stage tree is a fixed enum and never needs capping. A
    /// `locks_total` field always reports the uncapped count so
    /// truncation is visible.
    pub fn render_json_limit(&self, limit: usize) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return r#"{"enabled":false}"#.to_owned();
        };
        let mut out = String::new();
        {
            let mut obj = ObjectWriter::new(&mut out);
            obj.field_bool("enabled", true);
            obj.field_u64("sample_every_n", inner.sample_every_n as u64);
            obj.field_u64("sampled_ops", inner.sampled.get());
            let folded: Vec<String> = self.render_folded().lines().map(|l| l.to_owned()).collect();
            obj.field_array_str("folded", &folded);
            let mut stages = String::from("[");
            let mut first = true;
            for path in StagePath::ALL {
                let hist = &inner.stages[path as usize];
                let count = hist.count();
                if count == 0 {
                    continue;
                }
                if !first {
                    stages.push(',');
                }
                first = false;
                let mut stage = String::new();
                {
                    let mut s = ObjectWriter::new(&mut stage);
                    s.field_str("path", path.name());
                    s.field_u64("count", count);
                    s.field_u64("total_ns", hist.sum());
                    s.field_u64("max_ns", hist.max());
                    s.field_u64("p50_ns", hist.quantile(0.50));
                    s.field_u64("p99_ns", hist.quantile(0.99));
                    let mut exemplars = String::from("[");
                    let mut ex_first = true;
                    for bucket in 0..BUCKET_COUNT {
                        if let Some(trace) = hist.exemplar(bucket) {
                            if !ex_first {
                                exemplars.push(',');
                            }
                            ex_first = false;
                            let _ = write!(
                                exemplars,
                                r#"{{"le_ns":{},"trace":"{trace:016x}"}}"#,
                                Histogram::bucket_upper(bucket)
                            );
                        }
                    }
                    exemplars.push(']');
                    s.field_raw("exemplars", &exemplars);
                }
                stages.push_str(&stage);
            }
            stages.push(']');
            obj.field_raw("stages", &stages);
            let all_sites = self.lock_sites();
            obj.field_u64("locks_total", all_sites.len() as u64);
            let sites = if all_sites.len() > limit {
                self.top_contended(limit)
            } else {
                all_sites
            };
            let mut locks = String::from("[");
            for (i, site) in sites.iter().enumerate() {
                if i > 0 {
                    locks.push(',');
                }
                locks.push_str(&site.render_json());
            }
            locks.push(']');
            obj.field_raw("locks", &locks);
        }
        out
    }
}

/// Adds `timer`'s samples, its envelope ending at `end`, to the
/// calling thread's accumulators for `inner`.
#[inline]
fn finish_at(inner: &Arc<ProfilerInner>, timer: OpTimer, root: StagePath, trace: u64, end: u64) {
    let trace = if trace != 0 { trace } else { timer.trace };
    ACC.with(|acc| {
        let mut acc = acc.borrow_mut();
        let acc = acc.bind(inner);
        let mut touched = timer.touched;
        while touched != 0 {
            let i = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            acc.add(StagePath::ALL[i], timer.acc[i], trace);
        }
        acc.add(root, end.wrapping_sub(timer.start), trace);
        if acc.samples >= RING_CAPACITY {
            acc.fold();
        }
    });
}

// ---------------------------------------------------------------------------
// Lock sites
// ---------------------------------------------------------------------------

/// One instrumented mutex acquisition point (a cache shard). Clones
/// share the underlying series.
#[derive(Clone, Debug)]
pub struct LockSite {
    name: Arc<str>,
    enabled: bool,
    wait_ns: Histogram,
    hold_ns: Histogram,
    acquisitions: Counter,
    contended: Counter,
}

impl LockSite {
    /// A site that records nothing; `lock` is a plain acquisition.
    pub fn detached() -> Self {
        Self {
            name: Arc::from(""),
            enabled: false,
            wait_ns: Histogram::new(),
            hold_ns: Histogram::new(),
            acquisitions: Counter::default(),
            contended: Counter::default(),
        }
    }

    /// The site name (`cache_shard0`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total acquisitions through this site.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Acquisitions that found the mutex held (and waited).
    pub fn contentions(&self) -> u64 {
        self.contended.get()
    }

    /// Total nanoseconds spent waiting for this mutex.
    pub fn wait_total_ns(&self) -> u64 {
        self.wait_ns.sum()
    }

    /// The wait-time distribution.
    pub fn wait_histogram(&self) -> &Histogram {
        &self.wait_ns
    }

    /// The hold-time distribution.
    pub fn hold_histogram(&self) -> &Histogram {
        &self.hold_ns
    }

    /// Acquires `mutex` through this site.
    ///
    /// Fast path (uncontended, site enabled): one `try_lock`, one tick
    /// pair for hold time, no allocation. Contended path: counts the
    /// contention and records the wait. `timed` gates the hold-time
    /// pair — pass the per-op sampling decision so a sampled profile
    /// run leaves almost nothing on unsampled ops (waits on a
    /// *contended* acquisition are always recorded: they are rare and
    /// exactly what the profiler exists to attribute).
    ///
    /// The acquisition count and the hold time are written while the
    /// guard is held, with plain stores: the mutex a site observes
    /// already serializes them, and an uncontended acquisition then
    /// costs no atomic read-modify-write of its own. A site shared by
    /// several mutexes stays safe but may under-count.
    ///
    /// Lock ordering is unchanged from the uninstrumented manager:
    /// sites wrap individual acquisitions and never themselves lock.
    #[inline]
    pub fn lock<'a, T>(&'a self, mutex: &'a Mutex<T>, timed: bool) -> ProfiledGuard<'a, T> {
        if !self.enabled {
            return ProfiledGuard {
                guard: mutex.lock().expect("profiled mutex poisoned"),
                hold: None,
            };
        }
        let guard = match mutex.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.inc();
                let t0 = ticks();
                let guard = mutex.lock().expect("profiled mutex poisoned");
                self.wait_ns.record(ticks_to_ns(ticks().wrapping_sub(t0)));
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("profiled mutex poisoned"),
        };
        self.acquisitions.inc_under_lock();
        let hold = timed.then(|| (&self.hold_ns, ticks()));
        ProfiledGuard { guard, hold }
    }

    /// Acquires `mutex` through this site *and* feeds the sampled op's
    /// `path` (lock-wait) stage — but only on a *contended*
    /// acquisition, mirroring the site's own wait histogram: an
    /// uncontended `try_lock` waits ~nothing, so the fast path reads no
    /// tick at all. On contention the single post-acquisition tick
    /// serves as the lock-wait boundary and the hold-time start; on the
    /// fast path the hold clock starts at the op's previous boundary
    /// (the smear is the caller's bookkeeping since then — tens of
    /// nanoseconds against microsecond-scale holds, attributed to the
    /// *next* stage crossed at release).
    #[inline]
    pub fn lock_staged<'a, T>(
        &'a self,
        mutex: &'a Mutex<T>,
        timer: &mut Option<OpTimer>,
        path: StagePath,
        trace: u64,
    ) -> ProfiledGuard<'a, T> {
        if !self.enabled {
            return ProfiledGuard::plain(mutex);
        }
        match mutex.try_lock() {
            Ok(guard) => {
                self.acquisitions.inc_under_lock();
                let hold = timer.as_mut().map(|timer| (&self.hold_ns, timer.last));
                ProfiledGuard { guard, hold }
            }
            Err(TryLockError::WouldBlock) => {
                self.contended.inc();
                let t0 = ticks();
                let guard = mutex.lock().expect("profiled mutex poisoned");
                let now = ticks();
                self.wait_ns.record(ticks_to_ns(now.wrapping_sub(t0)));
                self.acquisitions.inc_under_lock();
                let hold = timer.as_mut().map(|timer| {
                    timer.boundary(path, now, trace);
                    (&self.hold_ns, now)
                });
                ProfiledGuard { guard, hold }
            }
            Err(TryLockError::Poisoned(_)) => panic!("profiled mutex poisoned"),
        }
    }

    /// One lock site as a JSON object (for `/profile` and `/healthz`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        {
            let mut obj = ObjectWriter::new(&mut out);
            obj.field_str("site", &self.name);
            obj.field_u64("acquisitions", self.acquisitions.get());
            obj.field_u64("contended", self.contended.get());
            obj.field_u64("wait_total_ns", self.wait_ns.sum());
            obj.field_u64("wait_max_ns", self.wait_ns.max());
            obj.field_u64("wait_p99_ns", self.wait_ns.quantile(0.99));
            obj.field_u64("hold_total_ns", self.hold_ns.sum());
            obj.field_u64("hold_max_ns", self.hold_ns.max());
            obj.field_u64("hold_p99_ns", self.hold_ns.quantile(0.99));
        }
        out
    }
}

/// A mutex guard that records hold time into its site on drop.
/// Dereferences to the protected value, so instrumented call sites
/// read like plain `MutexGuard` code.
pub struct ProfiledGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    hold: Option<(&'a Histogram, u64)>,
}

impl<'a, T> ProfiledGuard<'a, T> {
    /// Acquires `mutex` with no site attached (plain lock, panics on
    /// poison like the uninstrumented managers did).
    pub fn plain(mutex: &'a Mutex<T>) -> Self {
        Self {
            guard: mutex.lock().expect("profiled mutex poisoned"),
            hold: None,
        }
    }

    /// Releases the guard, recording the hold time *and* crossing the
    /// sampled op's `path` boundary with one shared tick read — the
    /// release-side counterpart of [`LockSite::lock_staged`]. `path`
    /// is the stage the under-lock tail belongs to (lookup or ack);
    /// callers that let the guard drop implicitly instead pay a
    /// separate read for the next boundary.
    #[inline]
    pub fn unlock_staged(mut self, timer: &mut Option<OpTimer>, path: StagePath) {
        let hold = self.hold.take();
        if hold.is_none() && timer.is_none() {
            return;
        }
        let now = ticks();
        if let Some((hold_ns, t0)) = hold {
            hold_ns.record_under_lock(ticks_to_ns(now.wrapping_sub(t0)));
        }
        if let Some(timer) = timer.as_mut() {
            timer.boundary(path, now, 0);
        }
    }
}

impl<T> std::ops::Deref for ProfiledGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for ProfiledGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for ProfiledGuard<'_, T> {
    fn drop(&mut self) {
        // Runs before the inner guard is released.
        if let Some((hold_ns, t0)) = self.hold.take() {
            hold_ns.record_under_lock(ticks_to_ns(ticks().wrapping_sub(t0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotonic_enough_and_convert_to_ns() {
        let t0 = ticks();
        let start = Instant::now();
        while start.elapsed().as_micros() < 1_000 {
            std::hint::spin_loop();
        }
        let ns = ticks_to_ns(ticks().wrapping_sub(t0));
        // 1 ms of wall time must read as 1 ms ± 50 % through the
        // calibrated clock — attribution data, not billing data.
        assert!((500_000..5_000_000).contains(&ns), "ns = {ns}");
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let profiler = Profiler::disabled();
        assert!(!profiler.enabled());
        let mut timer = profiler.op();
        assert!(timer.is_none());
        profiler.stage(&mut timer, StagePath::GetLookup, 1);
        profiler.finish(timer, StagePath::GetTotal, 1);
        assert_eq!(profiler.render_folded(), "");
        assert!(profiler.render_json().contains(r#""enabled":false"#));
        let site = profiler.lock_site("shard0");
        let mutex = Mutex::new(5u32);
        {
            let guard = site.lock(&mutex, true);
            assert_eq!(*guard, 5);
        }
        assert_eq!(site.acquisitions(), 0);
    }

    #[test]
    fn stages_fold_into_the_tree_with_root_self_time() {
        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
        let mut timer = profiler.op();
        assert!(timer.is_some());
        profiler.stage(&mut timer, StagePath::InsertApply, 7);
        profiler.stage(&mut timer, StagePath::InsertVictimScan, 7);
        profiler.finish(timer, StagePath::InsertTotal, 7);
        profiler.flush_thread();

        let folded = profiler.render_folded();
        assert!(folded.contains("insert;apply "), "{folded}");
        assert!(folded.contains("insert;victim_scan "), "{folded}");
        // The root line reports self time: envelope − leaves ≥ 0.
        let root_value: u64 = folded
            .lines()
            .find(|l| l.starts_with("insert "))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("root line present");
        let leaves: u64 = folded
            .lines()
            .filter(|l| l.starts_with("insert;"))
            .filter_map(|l| l.split(' ').nth(1))
            .filter_map(|v| v.parse::<u64>().ok())
            .sum();
        let envelope = registry
            .histogram_with("bad_profile_stage_ns", &[("stage", "insert")])
            .sum();
        assert_eq!(root_value, envelope.saturating_sub(leaves));

        // The stage series rides the shared registry (and thus
        // /metrics and /timeseries).
        let text = registry.render();
        assert!(
            text.contains(r#"bad_profile_stage_ns_count{stage="insert;victim_scan"} 1"#),
            "{text}"
        );
        assert!(text.contains("bad_profile_sampled_ops_total 1"), "{text}");

        // The JSON view carries the structured tree and the exemplar
        // trace id recorded above.
        let json = profiler.render_json();
        assert!(json.contains(r#""path":"insert;victim_scan""#), "{json}");
        assert!(json.contains(r#""trace":"0000000000000007""#), "{json}");
    }

    #[test]
    fn sampling_profiles_one_op_in_n() {
        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 4 });
        let sampled = (0..16).filter(|_| profiler.op().is_some()).count();
        assert_eq!(sampled, 4);
        let off = Profiler::new(&registry, ProfileConfig { sample_every_n: 0 });
        assert!(off.op().is_none());
    }

    #[test]
    fn ring_flushes_on_wrap_and_tracks_last_stage() {
        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
        for _ in 0..RING_CAPACITY {
            let mut timer = profiler.op();
            profiler.stage(&mut timer, StagePath::GetLookup, 3);
            profiler.finish(timer, StagePath::GetTotal, 3);
        }
        // Each op added two samples (leaf + root), so the thread's
        // accumulators folded exactly twice: all samples, and the
        // sampled-op count with them, are visible without an explicit
        // flush.
        let hist = registry.histogram_with(
            "bad_profile_stage_ns",
            &[("stage", "get_all_pending;lookup")],
        );
        assert_eq!(hist.count(), RING_CAPACITY as u64);
        assert_eq!(
            registry.counter("bad_profile_sampled_ops_total").get(),
            RING_CAPACITY as u64
        );
        // The boundary write (not the op envelope) is what the
        // anomaly-dump attribution reads back.
        assert_eq!(last_stage_path(), Some("get_all_pending;lookup"));
    }

    #[test]
    fn lock_site_times_waits_holds_and_contention() {
        let registry = Registry::new();
        let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
        let site = profiler.lock_site("shard0");
        // Re-fetching by name returns the same series.
        assert_eq!(profiler.lock_site("shard0").acquisitions(), 0);
        let mutex = Arc::new(Mutex::new(0u64));

        // Uncontended acquisition: hold recorded, no contention.
        {
            let mut guard = site.lock(&mutex, true);
            *guard += 1;
        }
        assert_eq!(site.acquisitions(), 1);
        assert_eq!(site.contentions(), 0);
        assert_eq!(site.hold_histogram().count(), 1);

        // Contended acquisition: a thread holds the mutex while we
        // acquire, so the wait path must fire.
        let held = Arc::clone(&mutex);
        let holder_site = site.clone();
        let handle = std::thread::spawn(move || {
            let _guard = holder_site.lock(&held, false);
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        {
            let _guard = site.lock(&mutex, true);
        }
        handle.join().unwrap();
        assert_eq!(site.acquisitions(), 3);
        assert_eq!(site.contentions(), 1);
        assert_eq!(site.wait_histogram().count(), 1);
        assert!(site.wait_total_ns() > 1_000_000, "{}", site.wait_total_ns());

        // Series land on the registry under the site label.
        let text = registry.render();
        assert!(
            text.contains(r#"bad_profile_lock_contended_total{site="shard0"} 1"#),
            "{text}"
        );
        // And the top-contended summary surfaces the site.
        let top = profiler.top_contended(4);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name(), "shard0");
    }

    #[test]
    fn exemplar_histograms_render_byte_identically_to_plain_ones() {
        // Satellite: quantile math and the Prometheus text are
        // unchanged when exemplars are off — and *also* when they are
        // on, since exemplars never render in the text format.
        let plain = Registry::new();
        let tagged = Registry::new();
        let h_plain = plain.histogram_with("bad_x_ns", &[("stage", "s")]);
        let h_tagged = tagged.histogram_with_exemplars("bad_x_ns", &[("stage", "s")]);
        for v in [0u64, 1, 7, 900, 4096, 123_456] {
            h_plain.record(v);
            h_tagged.record_exemplar(v, 0xABCD);
        }
        assert_eq!(plain.render(), tagged.render());
        assert_eq!(h_plain.snapshot(), h_tagged.snapshot());
        assert!(h_tagged.exemplar(3).is_some());
        assert!(h_plain.exemplar(3).is_none());
    }
}
