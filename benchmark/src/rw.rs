//! `cache_rw_2t`: a reader and a writer thread on one
//! `ShardedCacheManager`. The reader replays `plan_get` + `ack_consume`
//! over a backlog preloaded in set-up while the writer inserts newer
//! objects into the same caches, so the seqlock slots, the read mailbox
//! and the deferred acks run beside writes. Reads only ever touch the
//! backlog: counts are exact and only the interleaving varies.

use std::sync::Barrier;
use std::time::Instant;

use bad_cache::{CacheConfig, NewObject, PolicyName, ShardedCacheManager};
use bad_types::{
    BackendSubId, ByteSize, ObjectId, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

use crate::hist::Hist;
use crate::measure::{self, Values};
use crate::rng::Rng;
use crate::spans::{Name, Spans};

const SHARDS: usize = 4;
const CACHES: u64 = 256;
const SUBSCRIBERS_PER_CACHE: u64 = 8;
const MAINTAIN_EVERY: u64 = 1000;
const OBJECT_BYTES: u64 = 600;
/// Read pairs and inserts per second of window, calibrated in the
/// 2-core container so both threads finish within a tenth of each other.
const READS_PER_SEC: f64 = 61_000.0;
const INSERTS_PER_SEC: f64 = 70_000.0;
/// Share of both tapes replayed on one thread during set-up. Larger
/// than the broker workloads' share because uncontended operations are
/// several times cheaper, and set-up has to last about a second to be
/// measurable to within its bound.
const WARM_SHARE: f64 = 0.65;

fn object(id: u64, ts: u64) -> NewObject {
    NewObject {
        id: ObjectId::new(id),
        ts: Timestamp::from_micros(ts),
        size: ByteSize::new(OBJECT_BYTES),
        fetch_latency: SimDuration::from_millis(500),
    }
}

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to one CPU. Left to itself the scheduler
/// sometimes runs reader and writer on the same CPU, where they never
/// meet on a lock and finish in less than half the time: the workload is
/// there for the other case, so each thread gets a CPU of its own. On a
/// machine with a single CPU the call fails and the threads share it.
fn pin(cpu: usize) {
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live u64 and the size passed is its size; the
    // call reads the mask and changes only this thread's affinity.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc != 0 {
        eprintln!("cache_rw_2t: cannot pin a thread to cpu {cpu}; threads may share a CPU");
    }
}

/// What one thread measured.
struct Side {
    spans: Spans,
    latency: Hist,
    ops: u64,
    failed: u64,
    began: Instant,
    ended: Instant,
}

struct Reader<'a> {
    cache: &'a ShardedCacheManager,
    /// `(cache, subscriber slot)` in replay order, one entry per read.
    tape: &'a [(u16, u8)],
    /// Next backlog timestamp each `(cache, slot)` has yet to read.
    next: Vec<u64>,
    clock: u64,
}

impl Reader<'_> {
    fn run(&mut self, range: std::ops::Range<usize>, trace: bool) -> Side {
        let mut side = Side::new(trace);
        for (i, &(c, slot)) in self.tape[range].iter().enumerate() {
            side.spans.req = i as u64;
            let key = c as usize * SUBSCRIBERS_PER_CACHE as usize + slot as usize;
            let ts = Timestamp::from_micros(self.next[key]);
            self.next[key] += 1;
            self.clock += 1;
            let now = Timestamp::from_micros(self.clock);
            let bs = BackendSubId::new(c as u64);
            let sub = SubscriberId::new(key as u64);

            let start = side.spans.enter(Name::CachePlanGet);
            let plan = self.cache.plan_get(bs, TimeRange::closed(ts, ts), now);
            let plan_ns = side.spans.exit(start);
            let start = side.spans.enter(Name::CacheAck);
            let ack = self.cache.ack_consume(bs, sub, ts, now);
            let ack_ns = side.spans.exit(start);

            side.latency.record(plan_ns + ack_ns);
            side.ops += 1;
            if plan.cached.len() != 1 || !plan.missed.is_empty() || ack.is_err() {
                side.failed += 1;
            }
        }
        side.ended = Instant::now();
        side
    }
}

struct Writer<'a> {
    cache: &'a ShardedCacheManager,
    /// The cache each insert goes to.
    tape: &'a [u16],
    next_id: u64,
    next_ts: u64,
}

impl Writer<'_> {
    fn run(&mut self, range: std::ops::Range<usize>, trace: bool) -> Side {
        let mut side = Side::new(trace);
        for (i, &c) in self.tape[range].iter().enumerate() {
            side.spans.req = i as u64;
            self.next_id += 1;
            self.next_ts += 1;
            let now = Timestamp::from_micros(self.next_ts);
            let start = side.spans.enter(Name::CacheInsert);
            let out = self.cache.insert(
                BackendSubId::new(c as u64),
                object(self.next_id, self.next_ts),
                now,
            );
            let ns = side.spans.exit(start);
            side.latency.record(ns);
            side.ops += 1;
            if out.is_err() {
                side.failed += 1;
            }
            if (i as u64 + 1).is_multiple_of(MAINTAIN_EVERY) {
                let start = side.spans.enter(Name::CacheMaintain);
                self.cache.maintain(now);
                side.spans.exit(start);
                side.ops += 1;
            }
        }
        side.ended = Instant::now();
        side
    }
}

impl Side {
    fn new(trace: bool) -> Self {
        let now = Instant::now();
        Self {
            spans: Spans::new(trace),
            latency: Hist::new(),
            ops: 0,
            failed: 0,
            began: now,
            ended: now,
        }
    }
}

pub fn run_pass(
    seed: u64,
    window_secs: f64,
    trace: bool,
    started: Instant,
) -> Result<(Values, Spans)> {
    let pairs = (CACHES * SUBSCRIBERS_PER_CACHE) as usize;
    let total = 1.0 / (1.0 - WARM_SHARE);
    let backlog = (READS_PER_SEC * window_secs * total / pairs as f64).ceil() as u64;
    let inserts = (INSERTS_PER_SEC * window_secs * total).ceil() as usize;

    // Reader tape: `backlog` rounds, each a fresh shuffle of every
    // (cache, subscriber) pair, so each pair reads its backlog in order.
    let mut rng = Rng::new(seed);
    let mut order: Vec<(u16, u8)> = (0..CACHES as u16)
        .flat_map(|c| (0..SUBSCRIBERS_PER_CACHE as u8).map(move |s| (c, s)))
        .collect();
    let mut reads = Vec::with_capacity(pairs * backlog as usize);
    for _ in 0..backlog {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        reads.extend_from_slice(&order);
    }
    let writes: Vec<u16> = (0..inserts)
        .map(|_| rng.range(0, CACHES - 1) as u16)
        .collect();

    let config = CacheConfig {
        budget: ByteSize::from_gib(64),
        ..CacheConfig::default()
    };
    let cache = ShardedCacheManager::new(PolicyName::Lsc, config, SHARDS);
    let traced = trace.then(measure::trace_profiler);
    if let Some((_, profiler)) = &traced {
        cache.set_profiler(profiler);
    }
    for c in 0..CACHES {
        let bs = BackendSubId::new(c);
        cache.create_cache(bs, Timestamp::ZERO);
        for s in 0..SUBSCRIBERS_PER_CACHE {
            cache.add_subscriber(bs, SubscriberId::new(c * SUBSCRIBERS_PER_CACHE + s))?;
        }
    }
    let mut writer = Writer {
        cache: &cache,
        tape: &writes,
        next_id: 0,
        next_ts: 0,
    };
    // Preload: every cache gets backlog objects at timestamps 1..=backlog.
    for ts in 1..=backlog {
        for c in 0..CACHES {
            writer.next_id += 1;
            cache.insert(
                BackendSubId::new(c),
                object(writer.next_id, ts),
                Timestamp::from_micros(ts),
            )?;
        }
    }
    writer.next_ts = backlog;
    let mut reader = Reader {
        cache: &cache,
        tape: &reads,
        next: vec![1; pairs],
        clock: backlog,
    };
    let warm_reads = (reads.len() as f64 * WARM_SHARE) as usize;
    let warm_writes = (writes.len() as f64 * WARM_SHARE) as usize;
    let mut failed = reader.run(0..warm_reads, false).failed;
    failed += writer.run(0..warm_writes, false).failed;

    let before = cache.metrics();
    let barrier = Barrier::new(2);
    let setup_s = started.elapsed().as_secs_f64();
    // Each thread hands its profiler ring back before it ends.
    let flush = || {
        if let Some((_, profiler)) = &traced {
            profiler.flush_thread();
        }
    };
    let (read_side, write_side) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            pin(0);
            barrier.wait();
            let side = reader.run(warm_reads..reads.len(), trace);
            flush();
            side
        });
        let writing = scope.spawn(|| {
            pin(1);
            barrier.wait();
            let side = writer.run(warm_writes..writes.len(), trace);
            flush();
            side
        });
        (
            reading.join().expect("reader thread panicked"),
            writing.join().expect("writer thread panicked"),
        )
    });
    cache.quiesce();
    let after = cache.metrics();

    let began = read_side.began.min(write_side.began);
    let ended = read_side.ended.max(write_side.ended);
    let wall = ended - began;
    let overlap = read_side.ended.min(write_side.ended) - read_side.began.max(write_side.began);
    failed += read_side.failed + write_side.failed;

    let mut out = Values::new();
    let hit_ratio = measure::cache_counts(&mut out, &before, &after);
    // Every read must have been a one-object hit.
    if after.hit_objects - before.hit_objects != read_side.ops {
        failed += 1;
    }
    measure::end_to_end(
        &mut out,
        setup_s,
        wall.as_secs_f64(),
        read_side.ops + write_side.ops,
        &read_side.latency,
        &write_side.latency,
        hit_ratio,
    );
    measure::put(&mut out, "failed", failed as f64);
    measure::put(
        &mut out,
        "cache.rw_overlap_share",
        overlap.as_secs_f64() / wall.as_secs_f64(),
    );
    let side_secs = |side: &Side| (side.ended - side.began).as_secs_f64();
    measure::put(&mut out, "reader_s", side_secs(&read_side));
    measure::put(&mut out, "writer_s", side_secs(&write_side));
    let mut spans = read_side.spans;
    if let Some((registry, profiler)) = &traced {
        spans.merge(write_side.spans);
        // Two threads: twice the wall time is there to attribute.
        measure::span_values(&mut out, &spans, 2 * wall.as_nanos() as u64);
        measure::profiler_counts(&mut out, registry, profiler);
    }
    Ok((out, spans))
}
