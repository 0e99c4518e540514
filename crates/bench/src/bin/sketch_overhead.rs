//! Hot-key sketch overhead on the sharded-cache hot path, plus the
//! estimation-quality proof the sketches exist to earn.
//!
//! Part one runs the same read-mostly insert/batch-get/batch-ack
//! workload as `profile_overhead` (4 shards, worker threads capped at
//! the host's cores) three ways — sketches off, sampled (1 in 16) and
//! full (every op) — and reports the throughput cost of each. The same
//! two design choices keep the numbers honest on a shared host:
//! representative ops (prepopulated caches, 32-request batched GETs)
//! and ~500-op slice interleaving with a rotating mode order, so host
//! drift lands on all modes equally. The release gates assert
//! full ≤ 5 % and sampled ≤ 2 % on the median of the per-rep overhead
//! ratios — the sketches are one sampled RMW plus a capacity-bounded
//! map touch per op, an order of magnitude lighter than stage
//! profiling, so the gates sit well below the profiler's.
//!
//! Part two replays a deterministic Zipf(1.0) tape of `ACCURACY_OPS`
//! requests over `ACCURACY_KEYS` subscriptions into (a) one recorder
//! and (b) four per-shard recorders merged at read time, and compares
//! the reported top-10 by requests against exact ground-truth counts.
//! The gates assert ≥ 9/10 overlap for both (Space-Saving's guarantee
//! at this capacity/skew), that every reported count is a true upper
//! bound within `epsilon = N / capacity`, and that the distinct-active
//! estimate lands within 20 % of the true key count (the 256-register
//! HLL's 3 σ). Writes `BENCH_sketch.json` under `target/experiments/`.
//! Use `--release`; std threads only, deterministic op streams.
//! `--smoke` shrinks rounds and op counts for the CI gate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bad_bench::{print_table, write_bench_json_with_meta};
use bad_cache::{CacheConfig, NewObject, PolicyName, ShardedCacheManager};
use bad_telemetry::json::ObjectWriter;
use bad_telemetry::{HotSnapshot, SketchConfig, SketchRecorder};
use bad_types::rng::{Rng, Zipf};
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const CACHES: u64 = 64;
/// Same warm-set sizing as `profile_overhead`: the steady-state edge
/// cache runs at a high hit ratio, so the representative GET scans
/// real retained entries.
const BUDGET: u64 = 64_000_000;
const PREPOP_PER_CACHE: u64 = 320;
const SHARDS: usize = 4;
/// Requests per batched GET, as in `profile_overhead`.
const GET_BATCH: usize = 32;
const SLICE_OPS: u64 = 500;
const SAMPLED_EVERY_N: u32 = 16;
const MODES: [&str; 3] = ["off", "sampled", "full"];
/// Part-two tape: Table II's subscription cardinality scaled up to the
/// million-subscription regime's *shape* (a 10k-key Zipf(1.0) head is
/// what the top-K sees regardless of tail size).
const ACCURACY_KEYS: usize = 10_000;
const ACCURACY_SHARDS: usize = 4;
const ACCURACY_TOP_K: usize = 10;
/// Sketch capacity for the accuracy tape. 256 slots over a Zipf(1.0)
/// head keeps `epsilon = N / 256` far below the top-10 counts.
const ACCURACY_CAPACITY: usize = 256;

struct Params {
    rounds: u64,
    reps: usize,
    accuracy_ops: u64,
}

impl Params {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                rounds: 96,
                reps: 5,
                // Still ≥ 100k: the acceptance tape is cheap (pure
                // sketch ops), so the smoke run proves the same bound.
                accuracy_ops: 100_000,
            }
        } else {
            Self {
                rounds: 288,
                reps: 7,
                accuracy_ops: 400_000,
            }
        }
    }

    fn total_ops(&self) -> u64 {
        self.rounds * SLICE_OPS
    }
}

fn threads() -> u64 {
    thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64
}

/// One op-stream slice: the notification-delivery mix (2 inserts :
/// 8 batched retrieval plans : 2 batched consume-acks per 12 ops),
/// identical to `profile_overhead`'s tape so the two overhead numbers
/// are comparable. Pure function of `(thread, slice)`.
fn worker(mgr: &ShardedCacheManager, t: u64, threads: u64, slice: u64, timeline: u64) {
    let mut rng = Rng::new(0x5CE7_C41D ^ (t + 1) ^ (slice << 16));
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

fn build_manager(mode: &str, timeline: u64) -> Arc<ShardedCacheManager> {
    let mgr = Arc::new(ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(BUDGET),
            ..CacheConfig::default()
        },
        SHARDS,
    ));
    match mode {
        "off" => {}
        "sampled" => mgr.enable_sketches(SketchConfig {
            sample_every_n: SAMPLED_EVERY_N,
            ..SketchConfig::default()
        }),
        _ => mgr.enable_sketches(SketchConfig::default()),
    }
    let mut rng = Rng::new(0xBEEF);
    for c in 0..CACHES {
        let bs = BackendSubId::new(c);
        mgr.create_cache(bs, Timestamp::ZERO);
        mgr.add_subscriber(bs, SubscriberId::new(1000 + c))
            .expect("cache just created");
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
/// round-robin (rotating the in-round order). Returns ops/sec per mode.
fn run_rep(rep: usize, params: &Params) -> [f64; 3] {
    let timeline = params.total_ops();
    let runs: Vec<Arc<ShardedCacheManager>> = MODES
        .iter()
        .map(|mode| build_manager(mode, timeline))
        .collect();
    let mut elapsed = [0.0f64; 3];
    // Slice 0 is the discarded warm-up round.
    for mgr in &runs {
        let _ = run_slice(mgr, 0, timeline);
    }
    for round in 1..params.rounds {
        for k in 0..MODES.len() {
            let m = (round as usize + rep + k) % MODES.len();
            elapsed[m] += run_slice(&runs[m], round, timeline);
        }
    }
    let timed_ops = (params.rounds - 1) * SLICE_OPS * threads();
    let mut ops = [0.0f64; 3];
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

struct AccuracyResult {
    ops: u64,
    single_overlap: usize,
    merged_overlap: usize,
    bounds_hold: bool,
    epsilon: u64,
    distinct_true: u64,
    distinct_est: u64,
}

/// How many of the exact top-10 keys the snapshot's reported top-10
/// contains.
fn overlap(snapshot: &HotSnapshot, exact_top: &[u64]) -> usize {
    let reported: Vec<u64> = snapshot
        .top_requests(ACCURACY_TOP_K)
        .iter()
        .map(|(key, _)| *key)
        .collect();
    exact_top.iter().filter(|k| reported.contains(k)).count()
}

/// Part two: the Zipf estimation-quality proof.
fn accuracy(params: &Params) -> AccuracyResult {
    let config = SketchConfig {
        capacity: ACCURACY_CAPACITY,
        top_k: ACCURACY_TOP_K,
        ..SketchConfig::default()
    };
    let single = SketchRecorder::new(config);
    let shards: Vec<SketchRecorder> = (0..ACCURACY_SHARDS)
        .map(|_| SketchRecorder::new(config))
        .collect();
    let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
    let zipf = Zipf::new(ACCURACY_KEYS, 1.0);
    let mut rng = Rng::new(0x5eed);
    for _ in 0..params.accuracy_ops {
        let key = zipf.sample(&mut rng) as u64;
        *exact.entry(key).or_insert(0) += 1;
        single.record_hit(key, 1, 64);
        // The sharded deployment routes each key to one shard's
        // recorder; the read path merges. Same routing as
        // `ShardedCacheManager::shard_index` (modulo).
        shards[(key % ACCURACY_SHARDS as u64) as usize].record_hit(key, 1, 64);
    }

    let mut ranked: Vec<(u64, u64)> = exact.iter().map(|(&k, &c)| (k, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let exact_top: Vec<u64> = ranked
        .iter()
        .take(ACCURACY_TOP_K)
        .map(|&(k, _)| k)
        .collect();

    let single_snapshot = single.snapshot();
    let shard_snapshots: Vec<HotSnapshot> = shards.iter().map(|r| r.snapshot()).collect();
    let merged = HotSnapshot::merge(&shard_snapshots).expect("non-empty shard set");

    // Space-Saving contract: every reported count is an upper bound on
    // the true count, within epsilon of it.
    let epsilon = params.accuracy_ops / ACCURACY_CAPACITY as u64;
    let bounds_hold = single_snapshot
        .top_requests(ACCURACY_TOP_K)
        .iter()
        .all(|(key, entry)| {
            let true_count = exact.get(key).copied().unwrap_or(0);
            entry.count >= true_count && entry.count - entry.err <= true_count
        });

    AccuracyResult {
        ops: params.accuracy_ops,
        single_overlap: overlap(&single_snapshot, &exact_top),
        merged_overlap: overlap(&merged, &exact_top),
        bounds_hold,
        epsilon,
        distinct_true: exact.len() as u64,
        distinct_est: single_snapshot.distinct_active(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = Params::new(smoke);
    let mut runs = vec![[0.0f64; MODES.len()]; params.reps];
    let mut json_rows: Vec<String> = Vec::new();

    for (rep, row) in runs.iter_mut().enumerate() {
        *row = run_rep(rep, &params);
        eprintln!(
            "sketch_overhead: rep={rep} off={:.0} sampled={:.0} full={:.0} ops/s",
            row[0], row[1], row[2]
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
            "Hot-key sketch overhead on the sharded-cache hot path (median of {})",
            params.reps
        ),
        &["sketches", "ops_per_sec"],
        &rows,
    );

    // Same gate statistic as profile_overhead: per-rep off/mode ratios
    // (slice-interleaved, so fairly paired), median across reps.
    let per_rep = |i: usize| -> Vec<f64> {
        runs.iter()
            .map(|row| (row[0] / row[i] - 1.0) * 100.0)
            .collect()
    };
    let overhead_sampled_pct = median(&per_rep(1));
    let overhead_full_pct = median(&per_rep(2));
    println!(
        "\noverhead (median of per-rep ratios): sampled(1/{SAMPLED_EVERY_N}) \
         {overhead_sampled_pct:.1}%  full {overhead_full_pct:.1}%"
    );

    let acc = accuracy(&params);
    let distinct_err_pct = (acc.distinct_est as f64 / acc.distinct_true as f64 - 1.0) * 100.0;
    println!(
        "accuracy (Zipf 1.0, {} ops over {} keys): top-{} overlap {}/{} single, {}/{} merged; \
         distinct {} est vs {} true ({:+.1}%)",
        acc.ops,
        ACCURACY_KEYS,
        ACCURACY_TOP_K,
        acc.single_overlap,
        ACCURACY_TOP_K,
        acc.merged_overlap,
        ACCURACY_TOP_K,
        acc.distinct_est,
        acc.distinct_true,
        distinct_err_pct,
    );

    let mut summary = String::new();
    {
        let mut obj = ObjectWriter::new(&mut summary);
        obj.field_str("summary", "sketch_overhead_vs_off");
        obj.field_f64("off_ops_per_sec", ops[0]);
        obj.field_f64("sampled_ops_per_sec", ops[1]);
        obj.field_f64("full_ops_per_sec", ops[2]);
        obj.field_f64("overhead_sampled_pct", overhead_sampled_pct);
        obj.field_f64("overhead_full_pct", overhead_full_pct);
        obj.field_f64("full_cost_ns_per_op", (1.0 / ops[2] - 1.0 / ops[0]) * 1e9);
        obj.field_f64(
            "sampled_cost_ns_per_op",
            (1.0 / ops[1] - 1.0 / ops[0]) * 1e9,
        );
    }
    json_rows.push(summary);

    let mut acc_json = String::new();
    {
        let mut obj = ObjectWriter::new(&mut acc_json);
        obj.field_str("accuracy", "zipf_tape");
        obj.field_u64("ops", acc.ops);
        obj.field_u64("keys", ACCURACY_KEYS as u64);
        obj.field_f64("zipf_exponent", 1.0);
        obj.field_u64("capacity", ACCURACY_CAPACITY as u64);
        obj.field_u64("epsilon", acc.epsilon);
        obj.field_u64("top_k", ACCURACY_TOP_K as u64);
        obj.field_u64("top_k_overlap_single", acc.single_overlap as u64);
        obj.field_u64("top_k_overlap_merged", acc.merged_overlap as u64);
        obj.field_bool("bounds_hold", acc.bounds_hold);
        obj.field_u64("distinct_true", acc.distinct_true);
        obj.field_u64("distinct_estimate", acc.distinct_est);
        obj.field_f64("distinct_err_pct", distinct_err_pct);
    }
    json_rows.push(acc_json);

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
        ("accuracy_ops", params.accuracy_ops.to_string()),
        ("accuracy_keys", (ACCURACY_KEYS as u64).to_string()),
        ("accuracy_shards", (ACCURACY_SHARDS as u64).to_string()),
    ];
    let path = write_bench_json_with_meta("sketch", &meta, &format!("[{}]", json_rows.join(",")));
    println!("wrote {}", path.display());

    // Release gates.
    let mut failed = false;
    if overhead_full_pct > 5.0 {
        eprintln!("FAIL: full-sketch overhead {overhead_full_pct:.1}% exceeds the 5% gate");
        failed = true;
    }
    if overhead_sampled_pct > 2.0 {
        eprintln!("FAIL: sampled-sketch overhead {overhead_sampled_pct:.1}% exceeds the 2% gate");
        failed = true;
    }
    if acc.single_overlap < 9 {
        eprintln!(
            "FAIL: single-recorder top-10 overlap {}/10 below the 9/10 gate",
            acc.single_overlap
        );
        failed = true;
    }
    if acc.merged_overlap < 9 {
        eprintln!(
            "FAIL: merged-recorder top-10 overlap {}/10 below the 9/10 gate",
            acc.merged_overlap
        );
        failed = true;
    }
    if !acc.bounds_hold {
        eprintln!("FAIL: a reported top-10 count violated the Space-Saving bounds");
        failed = true;
    }
    if distinct_err_pct.abs() > 20.0 {
        eprintln!("FAIL: distinct-active estimate off by {distinct_err_pct:.1}% (gate: ±20%)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("sketch_overhead: all gates passed");
}
