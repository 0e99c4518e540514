//! Continuous-profiler overhead on the sharded-cache hot path, plus
//! the lock-contention attribution curve the profiler exists to draw.
//!
//! Part one runs a read-mostly insert/batch-get/batch-ack workload
//! (4 shards, up to 4 worker threads capped at the host's cores) four
//! ways — profiling off, lock-sites only (`sample_every_n = 0`),
//! sampled stages (1 in 64), and full stages (every op) — and reports
//! the throughput cost of each. Two design choices keep the numbers
//! honest on a shared host:
//!
//! - **Representative ops.** Caches are prepopulated and the batched
//!   GET carries 32 requests (a few subscribers × Table II's 10
//!   subscriptions each), so the baseline op
//!   is what the broker actually issues — an overhead percentage
//!   against empty-cache probes would compare the profiler against
//!   ops an order of magnitude lighter than production ever sees.
//! - **Slice interleaving.** Each repetition keeps one long-lived
//!   manager per mode and cycles through the modes in ~500-op slices
//!   (rotating the order each round), accumulating per-mode elapsed
//!   time. Modes run within milliseconds of each other, so host drift
//!   lands on all of them equally instead of masquerading as
//!   profiler cost.
//!
//! The release gates assert full ≤ 10 % and sampled ≤ 3 % on the
//! median of the per-rep overhead ratios (each rep's ratio compares
//! interleaved runs, so it is a fair sample; the median discards reps
//! that caught a noise burst). The sampled threshold sits above the
//! shared-host noise floor (per-rep ratios swing ±2 % even between
//! identical modes) but well below what any per-op tick read creeping
//! into the unsampled path would cost (~8 %), which is the regression
//! it exists to catch.
//!
//! Part two replays one fixed 8-thread tape against managers with 1,
//! 2, 4 and 8 shards and reads the per-site wait/hold attribution
//! back from the profiler — the curve that shows striping working.
//! The gate asserts total lock-wait at `shards = 1` strictly exceeds
//! `shards = 8` (skipped on single-core hosts, where nothing ever
//! contends).
//!
//! Writes `BENCH_profile.json` under `target/experiments/`.
//! Use `--release`; std threads only, deterministic op streams.
//! `--smoke` shrinks rounds and op counts for the CI gate.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bad_bench::{print_table, write_bench_json_with_meta};
use bad_cache::{CacheConfig, NewObject, PolicyName, ShardedCacheManager};
use bad_telemetry::json::ObjectWriter;
use bad_telemetry::{ProfileConfig, Profiler, Registry};
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const CACHES: u64 = 64;
/// Sized so the prepopulated warm set fits: the steady-state edge
/// cache the paper targets runs at a high hit ratio, so the
/// representative GET scans real retained entries rather than
/// near-empty caches.
const BUDGET: u64 = 64_000_000;
/// Objects inserted per cache before the timed run starts, so range
/// lookups walk real entries.
const PREPOP_PER_CACHE: u64 = 320;
const SHARDS: usize = 4;
/// Requests per batched GET. One subscriber's `get_all_pending` hands
/// `plan_get_batch` its Table II 10 subscriptions; 32 is a few
/// subscribers' worth (the per-op profiler cost is per *batch*, so this
/// is the op weight the ≤10 % gate is judged against).
const GET_BATCH: usize = 32;
/// Ops per interleaving slice: long enough that per-slice timing and
/// thread-spawn overhead vanish (~3 ms of work), short enough that a
/// scheduler burst on a shared host lands on all four modes about
/// equally instead of polluting whichever mode happened to hold the
/// core for a coarser slice.
const SLICE_OPS: u64 = 500;
const SAMPLED_EVERY_N: u32 = 64;
const MODES: [&str; 4] = ["off", "lock", "sampled", "full"];
const CONTENTION_SHARDS: [usize; 4] = [1, 2, 4, 8];

struct Params {
    rounds: u64,
    reps: usize,
    contention_ops: u64,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                rounds: 96,
                reps: 5,
                contention_ops: 40_000,
            }
        } else {
            Self {
                rounds: 288,
                reps: 7,
                contention_ops: 120_000,
            }
        }
    }

    /// Total timed ops per mode per rep; also the timestamp domain the
    /// prepopulated warm set and the range requests draw from.
    fn total_ops(&self) -> u64 {
        self.rounds * SLICE_OPS
    }
}

/// Overhead-run worker threads: capped at 4 (one per shard) but never
/// more than the host's cores — oversubscribing a small container
/// measures scheduler jitter, not profiling cost.
fn threads() -> u64 {
    thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64
}

/// Contention-curve worker threads: up to 8, so an 8-way striped
/// manager can actually spread them — again capped at the cores.
fn contention_threads() -> u64 {
    thread::available_parallelism().map_or(1, |n| n.get().min(8)) as u64
}

/// One op-stream slice: 2 inserts : 8 batched retrieval plans :
/// 2 batched consume-acks per 12 ops — the notification-delivery mix,
/// with the reads going through `plan_get_batch` exactly as the
/// broker's `get_all_pending` issues them. The tape is a pure function
/// of `(thread, slice)`, so every mode replays identical ops.
fn worker(mgr: &ShardedCacheManager, t: u64, threads: u64, slice: u64, timeline: u64) {
    let mut rng = Rng::new(0x0F11_E5ED ^ (t + 1) ^ (slice << 16));
    let owned: Vec<u64> = (0..CACHES).filter(|c| c % threads == t).collect();
    for j in 0..SLICE_OPS {
        let i = slice * SLICE_OPS + j;
        let now = Timestamp::from_secs(i + 1);
        match rng.below(12) {
            0..=1 => {
                let bs = BackendSubId::new(owned[rng.below(owned.len() as u64) as usize]);
                mgr.insert(
                    bs,
                    NewObject {
                        id: ObjectId::new(t * 10_000_000 + i),
                        ts: now,
                        size: ByteSize::new(1 + rng.below(4999)),
                        fetch_latency: SimDuration::from_millis(500),
                    },
                    now,
                )
                .expect("cache exists");
            }
            2..=9 => {
                let requests: Vec<(BackendSubId, TimeRange)> = (0..GET_BATCH)
                    .map(|_| {
                        let bs = BackendSubId::new(rng.below(CACHES));
                        let from = rng.below(timeline);
                        let range = TimeRange::closed(
                            Timestamp::from_secs(from),
                            Timestamp::from_secs(from + timeline / 8),
                        );
                        (bs, range)
                    })
                    .collect();
                let plans = mgr.plan_get_batch(&requests, now);
                for (plan, (bs, _)) in plans.iter().zip(&requests) {
                    // The broker only reports a fetch when a plan
                    // actually missed; unconditional reporting would
                    // add 16 lock acquisitions per batch that
                    // production never performs.
                    if !plan.missed.is_empty() {
                        mgr.record_miss_fetch(
                            *bs,
                            plan.missed.len() as u64,
                            ByteSize::new(64),
                            now,
                        );
                    }
                }
            }
            _ => {
                let acks: Vec<(BackendSubId, SubscriberId, Timestamp)> = (0..2)
                    .map(|_| {
                        let c = rng.below(CACHES);
                        (
                            BackendSubId::new(c),
                            SubscriberId::new(1000 + c),
                            Timestamp::from_secs(rng.below(timeline)),
                        )
                    })
                    .collect();
                let _ = mgr.ack_consume_batch(&acks, now);
            }
        }
    }
}

fn build_manager(shards: usize, profiler: &Profiler, timeline: u64) -> Arc<ShardedCacheManager> {
    let mgr = Arc::new(ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(BUDGET),
            ..CacheConfig::default()
        },
        shards,
    ));
    mgr.set_profiler(profiler);
    let mut rng = Rng::new(0xBEEF);
    for c in 0..CACHES {
        let bs = BackendSubId::new(c);
        mgr.create_cache(bs, Timestamp::ZERO);
        mgr.add_subscriber(bs, SubscriberId::new(1000 + c))
            .expect("cache just created");
        // Spread the warm set over the same timeline the workers'
        // range requests draw from.
        for k in 0..PREPOP_PER_CACHE {
            let ts = Timestamp::from_secs(1 + k * timeline / PREPOP_PER_CACHE);
            mgr.insert(
                bs,
                NewObject {
                    id: ObjectId::new(90_000_000 + c * 1000 + k),
                    ts,
                    size: ByteSize::new(1 + rng.below(4999)),
                    fetch_latency: SimDuration::from_millis(500),
                },
                ts,
            )
            .expect("cache exists");
        }
    }
    mgr
}

fn profiler_for(mode: &str) -> (Profiler, Registry) {
    let registry = Registry::new();
    let profiler = match mode {
        "off" => Profiler::disabled(),
        // 0 = lock sites only (no stage sampling), n = 1-in-n stages.
        "lock" => Profiler::new(&registry, ProfileConfig { sample_every_n: 0 }),
        "sampled" => Profiler::new(
            &registry,
            ProfileConfig {
                sample_every_n: SAMPLED_EVERY_N,
            },
        ),
        _ => Profiler::new(&registry, ProfileConfig { sample_every_n: 1 }),
    };
    (profiler, registry)
}

/// Runs one timed slice against `mgr` and returns the elapsed seconds.
fn run_slice(mgr: &Arc<ShardedCacheManager>, slice: u64, timeline: u64) -> f64 {
    let threads = threads();
    let start = Instant::now();
    if threads == 1 {
        worker(mgr, 0, 1, slice, timeline);
    } else {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mgr = Arc::clone(mgr);
                thread::spawn(move || worker(&mgr, t, threads, slice, timeline))
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
    }
    start.elapsed().as_secs_f64()
}

/// One repetition: a long-lived manager per mode, slices interleaved
/// round-robin (rotating the in-round order). Returns ops/sec per
/// mode.
fn run_rep(rep: usize, params: &Params) -> [f64; 4] {
    let timeline = params.total_ops();
    let runs: Vec<(Profiler, Arc<ShardedCacheManager>)> = MODES
        .iter()
        .map(|mode| {
            let (profiler, registry) = profiler_for(mode);
            let mgr = build_manager(SHARDS, &profiler, timeline);
            drop(registry);
            (profiler, mgr)
        })
        .collect();
    let mut elapsed = [0.0f64; 4];
    // Slice 0 is the discarded warm-up round: every manager sees the
    // same first slice of the tape, untimed.
    for (_, mgr) in &runs {
        let _ = run_slice(mgr, 0, timeline);
    }
    for round in 1..params.rounds {
        for k in 0..MODES.len() {
            let m = (round as usize + rep + k) % MODES.len();
            elapsed[m] += run_slice(&runs[m].1, round, timeline);
        }
    }
    let timed_ops = (params.rounds - 1) * SLICE_OPS * threads();
    let mut ops = [0.0f64; 4];
    for m in 0..MODES.len() {
        ops[m] = timed_ops as f64 / elapsed[m];
    }
    ops
}

/// Median of `xs` (averaging the middle pair for even lengths).
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

struct ContentionPoint {
    shards: usize,
    acquisitions: u64,
    contended: u64,
    wait_total_ns: u64,
    hold_total_ns: u64,
}

/// Replays the fixed tape against a `shards`-way manager under full
/// profiling and reads the lock attribution back from the sites.
fn contention_point(shards: usize, ops: u64) -> ContentionPoint {
    let registry = Registry::new();
    let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
    let mgr = build_manager(shards, &profiler, ops);
    let threads = contention_threads();
    let slices = ops / SLICE_OPS;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || {
                for slice in 0..slices {
                    worker(&mgr, t, threads, slice, ops);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
    mgr.maintain(Timestamp::from_secs(2 * ops));
    let mut point = ContentionPoint {
        shards,
        acquisitions: 0,
        contended: 0,
        wait_total_ns: 0,
        hold_total_ns: 0,
    };
    for site in profiler.lock_sites() {
        point.acquisitions += site.acquisitions();
        point.contended += site.contentions();
        point.wait_total_ns += site.wait_total_ns();
        point.hold_total_ns += site.hold_histogram().sum();
    }
    point
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = Params::new(smoke);
    let mut runs = vec![[0.0f64; MODES.len()]; params.reps];
    let mut json_rows: Vec<String> = Vec::new();

    for (rep, row) in runs.iter_mut().enumerate() {
        *row = run_rep(rep, &params);
        eprintln!(
            "profile_overhead: rep={rep} off={:.0} lock={:.0} sampled={:.0} full={:.0} ops/s",
            row[0], row[1], row[2], row[3]
        );
    }
    let ops: Vec<f64> = (0..MODES.len())
        .map(|i| median(&runs.iter().map(|row| row[i]).collect::<Vec<_>>()))
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (i, mode) in MODES.iter().enumerate() {
        rows.push(vec![(*mode).to_string(), format!("{:.0}", ops[i])]);
        let mut json = String::new();
        {
            let mut obj = ObjectWriter::new(&mut json);
            obj.field_str("mode", mode);
            obj.field_u64("total_ops", (params.rounds - 1) * SLICE_OPS * threads());
            obj.field_f64("ops_per_sec", ops[i]);
        }
        json_rows.push(json);
    }
    print_table(
        &format!(
            "Continuous-profiler overhead on the sharded-cache hot path (median of {})",
            params.reps
        ),
        &["profiling", "ops_per_sec"],
        &rows,
    );

    // The gate statistic: within one rep the modes are slice-
    // interleaved (same host conditions), so each rep's off/mode ratio
    // is a fair overhead sample; the median across reps shrugs off a
    // rep that caught a noisy-neighbour burst. Comparing the best
    // off-rep against the best mode-rep would instead decorrelate the
    // pairing the interleaving exists to provide.
    let per_rep = |i: usize| -> Vec<f64> {
        runs.iter()
            .map(|row| (row[0] / row[i] - 1.0) * 100.0)
            .collect()
    };
    let gate_pct = |i: usize| -> f64 { median(&per_rep(i)) };
    let overhead_lock_pct = gate_pct(1);
    let overhead_sampled_pct = gate_pct(2);
    let overhead_full_pct = gate_pct(3);
    println!(
        "\noverhead (median of per-rep ratios): lock-only {overhead_lock_pct:.1}%  \
         sampled(1/{SAMPLED_EVERY_N}) {overhead_sampled_pct:.1}%  full {overhead_full_pct:.1}%"
    );

    let mut summary = String::new();
    {
        let mut obj = ObjectWriter::new(&mut summary);
        obj.field_str("summary", "profiler_overhead_vs_off");
        obj.field_f64("off_ops_per_sec", ops[0]);
        obj.field_f64("lock_ops_per_sec", ops[1]);
        obj.field_f64("sampled_ops_per_sec", ops[2]);
        obj.field_f64("full_ops_per_sec", ops[3]);
        obj.field_f64("overhead_lock_pct", overhead_lock_pct);
        obj.field_f64("overhead_sampled_pct", overhead_sampled_pct);
        obj.field_f64("overhead_full_pct", overhead_full_pct);
        // Absolute per-op cost: invariant to how heavy the workload's
        // ops are, unlike the percentages.
        obj.field_f64("full_cost_ns_per_op", (1.0 / ops[3] - 1.0 / ops[0]) * 1e9);
        obj.field_f64(
            "sampled_cost_ns_per_op",
            (1.0 / ops[2] - 1.0 / ops[0]) * 1e9,
        );
    }
    json_rows.push(summary);

    // Part two: the contention curve. One fixed tape, four stripe
    // widths; the profiler's own lock sites are the measurement.
    let curve: Vec<ContentionPoint> = CONTENTION_SHARDS
        .iter()
        .map(|&shards| contention_point(shards, params.contention_ops))
        .collect();
    let curve_rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                contention_threads().to_string(),
                p.acquisitions.to_string(),
                p.contended.to_string(),
                format!("{:.3}", p.wait_total_ns as f64 / 1e6),
                format!("{:.3}", p.hold_total_ns as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Lock-contention attribution by stripe width (fixed 8-thread tape)",
        &[
            "shards",
            "threads",
            "acquisitions",
            "contended",
            "wait_ms",
            "hold_ms",
        ],
        &curve_rows,
    );
    for p in &curve {
        let mut json = String::new();
        {
            let mut obj = ObjectWriter::new(&mut json);
            obj.field_str("curve", "lock_contention");
            obj.field_u64("shards", p.shards as u64);
            obj.field_u64("threads", contention_threads());
            obj.field_u64("ops_per_thread", params.contention_ops);
            obj.field_u64("acquisitions", p.acquisitions);
            obj.field_u64("contended", p.contended);
            obj.field_u64("wait_total_ns", p.wait_total_ns);
            obj.field_u64("hold_total_ns", p.hold_total_ns);
        }
        json_rows.push(json);
    }

    let meta: Vec<(&str, String)> = vec![
        ("smoke", smoke.to_string()),
        ("caches", CACHES.to_string()),
        ("budget_bytes", BUDGET.to_string()),
        ("prepop_per_cache", PREPOP_PER_CACHE.to_string()),
        ("shards", SHARDS.to_string()),
        ("rounds", params.rounds.to_string()),
        ("slice_ops", SLICE_OPS.to_string()),
        ("reps", (params.reps as u64).to_string()),
        ("worker_threads", threads().to_string()),
        ("get_batch", (GET_BATCH as u64).to_string()),
        ("sampled_every_n", SAMPLED_EVERY_N.to_string()),
        (
            "contention_ops_per_thread",
            params.contention_ops.to_string(),
        ),
        ("contention_threads", contention_threads().to_string()),
    ];
    let path = write_bench_json_with_meta("profile", &meta, &format!("[{}]", json_rows.join(",")));
    println!("wrote {}", path.display());

    // Release gates, on the median per-rep ratio.
    let mut failed = false;
    if gate_pct(3) > 10.0 {
        eprintln!(
            "FAIL: full-profiling overhead {:.1}% exceeds the 10% gate",
            gate_pct(3)
        );
        failed = true;
    }
    if gate_pct(2) > 3.0 {
        eprintln!(
            "FAIL: sampled-profiling overhead {:.1}% exceeds the 3% gate",
            gate_pct(2)
        );
        failed = true;
    }
    let one = curve.first().expect("curve has shards=1");
    let eight = curve.last().expect("curve has shards=8");
    if contention_threads() >= 2 && one.wait_total_ns <= eight.wait_total_ns {
        eprintln!(
            "FAIL: lock-wait at shards=1 ({} ns) does not dominate shards=8 ({} ns)",
            one.wait_total_ns, eight.wait_total_ns
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("profile_overhead: all gates passed");
}
