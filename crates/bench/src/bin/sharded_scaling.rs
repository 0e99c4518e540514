//! Shard-count × thread-count scaling sweep of the lock-striped cache
//! tier.
//!
//! Runs a mixed insert/get/ack workload (the same shape as the
//! `stress_sharded` test: one writer per cache, cross-thread acks)
//! against [`ShardedCacheManager`] for every (shards, threads)
//! combination in `{1, 2, 4, 8}²`, prints a throughput table and
//! writes `BENCH_sharded.json` under `target/experiments/`. The
//! headline number is the speedup of 4 shards / 4 threads over the
//! contended 1 shard / 4 threads baseline — the gain lock striping
//! buys once broker workers stop serializing on a single cache mutex.
//!
//! The speedup is only observable when the host actually runs threads
//! in parallel: on a single-core box every cell collapses to ~1× (the
//! threads timeslice, so the single mutex is never truly contended).
//! The JSON therefore records `available_parallelism` alongside the
//! sweep so results are interpretable on any host.
//!
//! Use `--release`; std threads only, deterministic op streams.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bad_bench::{print_table, write_bench_json_with_meta};
use bad_cache::{CacheConfig, NewObject, PolicyName, ShardedCacheManager};
use bad_telemetry::json::ObjectWriter;
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const CACHES: u64 = 64;
const BUDGET: u64 = 4_000_000;
const OPS_PER_THREAD: u64 = 100_000;
const SWEEP: [usize; 4] = [1, 2, 4, 8];

fn worker(mgr: &ShardedCacheManager, threads: u64, t: u64) {
    let mut rng = Rng::new(0x5CA1_AB1E ^ (t + 1));
    let owned: Vec<u64> = (0..CACHES).filter(|c| c % threads == t).collect();
    for i in 0..OPS_PER_THREAD {
        let now = Timestamp::from_secs(i + 1);
        match rng.below(12) {
            0..=5 => {
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
            6..=9 => {
                let bs = BackendSubId::new(rng.below(CACHES));
                let from = rng.below(OPS_PER_THREAD);
                let range = TimeRange::closed(
                    Timestamp::from_secs(from),
                    Timestamp::from_secs(from + rng.below(100)),
                );
                let plan = mgr.plan_get(bs, range, now);
                mgr.record_miss_fetch(bs, plan.missed.len() as u64, ByteSize::new(64));
            }
            _ => {
                let c = rng.below(CACHES);
                let _ = mgr.ack_consume(
                    BackendSubId::new(c),
                    SubscriberId::new(1000 + c),
                    Timestamp::from_secs(rng.below(OPS_PER_THREAD)),
                    now,
                );
            }
        }
    }
}

/// Runs one cell of the sweep; returns ops/second.
fn run_cell(shards: usize, threads: u64) -> f64 {
    let mgr = Arc::new(ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(BUDGET),
            ..CacheConfig::default()
        },
        shards,
    ));
    for c in 0..CACHES {
        let bs = BackendSubId::new(c);
        mgr.create_cache(bs, Timestamp::ZERO);
        mgr.add_subscriber(bs, SubscriberId::new(1000 + c))
            .expect("cache just created");
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || worker(&mgr, threads, t))
        })
        .collect();
    for handle in handles {
        handle.join().expect("worker panicked");
    }
    mgr.maintain(Timestamp::from_secs(2 * OPS_PER_THREAD));
    let elapsed = start.elapsed().as_secs_f64();
    (threads * OPS_PER_THREAD) as f64 / elapsed
}

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let mut throughput = [[0.0f64; SWEEP.len()]; SWEEP.len()];

    for (si, &shards) in SWEEP.iter().enumerate() {
        for (ti, &threads) in SWEEP.iter().enumerate() {
            eprintln!("sharded_scaling: shards={shards} threads={threads}...");
            let ops_per_sec = run_cell(shards, threads as u64);
            throughput[si][ti] = ops_per_sec;
            rows.push(vec![
                shards.to_string(),
                threads.to_string(),
                format!("{:.0}", ops_per_sec),
            ]);
            let mut json = String::new();
            {
                let mut obj = ObjectWriter::new(&mut json);
                obj.field_u64("shards", shards as u64);
                obj.field_u64("threads", threads as u64);
                obj.field_u64("total_ops", threads as u64 * OPS_PER_THREAD);
                obj.field_f64("ops_per_sec", ops_per_sec);
            }
            json_rows.push(json);
        }
    }

    print_table(
        "Sharded cache scaling: throughput (ops/s) by shards × threads",
        &["shards", "threads", "ops_per_sec"],
        &rows,
    );

    // Headline: 4 shards / 4 threads vs the single-shard manager under
    // the same 4-thread load (index 2 of the sweep on both axes).
    let speedup = throughput[2][2] / throughput[0][2];
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nspeedup 4 shards/4 threads over 1 shard/4 threads: {speedup:.2}x");
    if cores < 4 {
        println!(
            "note: only {cores} core(s) available — threads timeslice, \
             so lock striping cannot show a wall-clock gain on this host"
        );
    }

    let mut summary = String::new();
    {
        let mut obj = ObjectWriter::new(&mut summary);
        obj.field_str("summary", "speedup_4shards_4threads_vs_1shard_4threads");
        obj.field_f64("speedup", speedup);
        obj.field_f64("baseline_ops_per_sec", throughput[0][2]);
        obj.field_f64("sharded_ops_per_sec", throughput[2][2]);
        obj.field_u64("available_parallelism", cores as u64);
    }
    json_rows.push(summary);

    let meta: Vec<(&str, String)> = vec![
        ("caches", CACHES.to_string()),
        ("budget_bytes", BUDGET.to_string()),
        ("ops_per_thread", OPS_PER_THREAD.to_string()),
        (
            "sweep",
            format!("[{}]", SWEEP.map(|s| s.to_string()).join(",")),
        ),
    ];
    let path = write_bench_json_with_meta("sharded", &meta, &format!("[{}]", json_rows.join(",")));
    println!("wrote {}", path.display());
}
