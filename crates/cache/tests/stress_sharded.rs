//! Concurrency stress: 8 std threads hammer a [`ShardedCacheManager`]
//! with mixed operations and the aggregate accounting must still
//! balance — no deadlock, `hit_objects + miss_objects ==
//! requested_objects` across shards, and `total_bytes ≤ B` after a
//! final global `maintain`.
//!
//! Threads partition insert/get ownership of the cache ids (thread `t`
//! owns caches with `c % THREADS == t`) so every cache sees
//! timestamp-ordered inserts from a single writer, matching the
//! broker's per-backend-subscription ordering; acks and subscriber
//! churn cross thread boundaries freely, so shard locks still see
//! plenty of cross-thread contention.
//!
//! Two further tests hold the locked data path to exact answers: two
//! readers, a writer and a `maintain` caller against a serial replay of
//! the same tapes, and contended acks that must fail on unknown caches
//! and return their own drops.

mod common;

use std::sync::{Arc, Barrier};
use std::thread;

use bad_cache::{CacheConfig, DropReason, NewObject, PolicyName, ShardedCacheManager};
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, BadError, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 10_000;
const CACHES: u64 = 32;
const BUDGET: u64 = 1_000_000;

struct Tally {
    hits: u64,
    misses: u64,
}

fn worker(mgr: Arc<ShardedCacheManager>, t: u64) -> Tally {
    let mut rng = Rng::new(0xBAD_CAFE ^ (t + 1));
    // Produced timestamps for each cache this thread owns, for the
    // broker-side miss-fetch report.
    let owned: Vec<u64> = (0..CACHES).filter(|c| c % THREADS == t).collect();
    let mut produced: Vec<Vec<Timestamp>> = vec![Vec::new(); owned.len()];
    let mut tally = Tally { hits: 0, misses: 0 };
    for i in 0..OPS_PER_THREAD {
        let now = Timestamp::from_secs(i + 1);
        match rng.below(12) {
            // Insert into an owned cache: single writer per cache keeps
            // its timeline append-only.
            0..=4 => {
                let pick = (rng.below(owned.len() as u64)) as usize;
                let bs = BackendSubId::new(owned[pick]);
                mgr.insert(
                    bs,
                    NewObject {
                        id: ObjectId::new(t * 1_000_000 + i),
                        ts: now,
                        size: ByteSize::new(rng.range(1, 4999)),
                        fetch_latency: SimDuration::from_millis(500),
                    },
                    now,
                )
                .expect("cache exists");
                produced[pick].push(now);
            }
            // Get on an owned cache (the tally needs its produced set).
            5..=8 => {
                let pick = (rng.below(owned.len() as u64)) as usize;
                let bs = BackendSubId::new(owned[pick]);
                let from = rng.below(OPS_PER_THREAD);
                let len = rng.below(100);
                let range =
                    TimeRange::closed(Timestamp::from_secs(from), Timestamp::from_secs(from + len));
                let plan = mgr.plan_get(bs, range, now);
                tally.hits += plan.cached.len() as u64;
                let fetched = produced[pick]
                    .iter()
                    .filter(|&&ts| plan.missed.iter().any(|m| m.contains(ts)))
                    .count() as u64;
                tally.misses += fetched;
                mgr.record_miss_fetch(bs, fetched, ByteSize::new(fetched * 64));
            }
            // Ack from the permanent subscriber of any cache.
            9..=10 => {
                let c = rng.below(CACHES);
                let _ = mgr.ack_consume(
                    BackendSubId::new(c),
                    SubscriberId::new(1000 + c),
                    Timestamp::from_secs(rng.below(OPS_PER_THREAD)),
                    now,
                );
            }
            // Subscriber churn on any cache (never the permanent subs).
            _ => {
                let c = BackendSubId::new(rng.below(CACHES));
                let sub = SubscriberId::new(t * 100 + rng.below(4));
                if rng.below(2) == 0 {
                    mgr.add_subscriber(c, sub).expect("cache exists");
                } else {
                    let _ = mgr.remove_subscriber(c, sub, now);
                }
            }
        }
    }
    tally
}

fn run_stress(shards: usize) {
    let mgr = Arc::new(ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::new(BUDGET),
            ttl_recompute_interval: SimDuration::from_secs(30),
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

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || worker(mgr, t))
        })
        .collect();
    let (mut hits, mut misses) = (0u64, 0u64);
    for handle in handles {
        let tally = handle.join().expect("worker panicked");
        hits += tally.hits;
        misses += tally.misses;
    }

    mgr.maintain(Timestamp::from_secs(2 * OPS_PER_THREAD));

    let m = mgr.metrics();
    assert_eq!(m.hit_objects, hits, "{shards} shards: hit accounting");
    assert_eq!(m.miss_objects, misses, "{shards} shards: miss accounting");
    assert_eq!(
        m.hit_objects + m.miss_objects,
        m.requested_objects,
        "{shards} shards: requests not exactly partitioned"
    );
    assert!(
        mgr.total_bytes() <= ByteSize::new(BUDGET),
        "{shards} shards: {} bytes resident over budget {BUDGET}",
        mgr.total_bytes().as_u64()
    );
}

const RW_SHARDS: usize = 4;
const RW_CACHES: u64 = 16;
const RW_READERS: u64 = 2;
const RW_READS: usize = 20_000;
const RW_WRITES: usize = 10_000;
const RW_OBJECT_BYTES: u64 = 600;

fn rw_object(cache: u64, n: u64) -> NewObject {
    NewObject {
        id: ObjectId::new(cache * 1_000_000 + n),
        ts: Timestamp::from_micros(n),
        size: ByteSize::new(RW_OBJECT_BYTES),
        fetch_latency: SimDuration::from_millis(500),
    }
}

/// The tapes of the reader/writer test and the backlog they need:
/// `reads[r]` and `writes` list the cache of each operation, and
/// `backlog[c]` is the longest any reader gets through cache `c`.
struct RwTapes {
    reads: Vec<Vec<u64>>,
    writes: Vec<u64>,
    backlog: Vec<u64>,
}

impl RwTapes {
    fn new() -> Self {
        let tape = |seed: u64, len: usize| -> Vec<u64> {
            let mut rng = Rng::new(seed);
            (0..len).map(|_| rng.below(RW_CACHES)).collect()
        };
        let reads: Vec<Vec<u64>> = (0..RW_READERS)
            .map(|r| tape(0xACE ^ (r + 1), RW_READS))
            .collect();
        let mut backlog = vec![0u64; RW_CACHES as usize];
        for tape in &reads {
            let mut picks = vec![0u64; RW_CACHES as usize];
            for &c in tape {
                picks[c as usize] += 1;
            }
            for (most, picked) in backlog.iter_mut().zip(picks) {
                *most = (*most).max(picked);
            }
        }
        Self {
            reads,
            writes: tape(0xFEED, RW_WRITES),
            backlog,
        }
    }

    /// A manager with every cache created, one subscriber per reader
    /// attached and the backlog preloaded.
    fn manager(&self) -> ShardedCacheManager {
        let mgr = ShardedCacheManager::new(
            PolicyName::Lsc,
            CacheConfig {
                budget: ByteSize::from_mib(1024),
                ..CacheConfig::default()
            },
            RW_SHARDS,
        );
        for c in 0..RW_CACHES {
            let bs = BackendSubId::new(c);
            mgr.create_cache(bs, Timestamp::ZERO);
            for r in 0..RW_READERS {
                mgr.add_subscriber(bs, SubscriberId::new(c * RW_READERS + r))
                    .expect("cache just created");
            }
            for n in 1..=self.backlog[c as usize] {
                let dropped = mgr
                    .insert(bs, rw_object(c, n), Timestamp::from_micros(n))
                    .expect("cache exists");
                assert!(dropped.is_empty(), "ample budget evicted");
            }
        }
        mgr
    }

    /// Reader `r`: retrieves and acks, in one fused call, the next
    /// backlog object of each cache on its tape. Every plan must be
    /// exactly that object, and the call returns the object as dropped
    /// if and only if it completed its consumption. Returns how many
    /// objects its acks dropped.
    fn read(&self, mgr: &ShardedCacheManager, r: u64) -> u64 {
        let mut next = vec![1u64; RW_CACHES as usize];
        let mut dropped = 0;
        for (i, &c) in self.reads[r as usize].iter().enumerate() {
            let n = next[c as usize];
            next[c as usize] += 1;
            let want = rw_object(c, n);
            let bs = BackendSubId::new(c);
            let now = Timestamp::from_micros(1_000_000 + i as u64);
            let (plan, drops) = mgr.get_and_ack(
                bs,
                SubscriberId::new(c * RW_READERS + r),
                TimeRange::closed(want.ts, want.ts),
                want.ts,
                now,
            );
            assert_eq!(
                plan.cached,
                vec![(want.id, want.ts, want.size)],
                "reader {r}: not its next backlog object"
            );
            assert_eq!(plan.cached_bytes, want.size);
            assert!(plan.missed.is_empty(), "reader {r}: backlog object missed");
            for d in &drops {
                assert_eq!(
                    (d.cache, d.reason, d.object.id),
                    (bs, DropReason::Consumed, want.id),
                    "reader {r}: a retrieval returned a drop it did not cause"
                );
            }
            assert!(drops.len() <= 1);
            dropped += drops.len() as u64;
        }
        dropped
    }

    /// The writer: appends newer objects behind the backlog; nobody
    /// reads them, so each cache keeps exactly what it was given.
    fn write(&self, mgr: &ShardedCacheManager) {
        let mut next: Vec<u64> = self.backlog.iter().map(|&b| b + 1).collect();
        for (i, &c) in self.writes.iter().enumerate() {
            let n = next[c as usize];
            next[c as usize] += 1;
            let now = Timestamp::from_micros(1_000_000 + i as u64);
            let dropped = mgr
                .insert(BackendSubId::new(c), rw_object(c, n), now)
                .expect("cache exists");
            assert!(dropped.is_empty(), "ample budget evicted");
        }
    }
}

/// What must not depend on how the threads interleaved: the counts of
/// [`bad_cache::CacheMetrics`] (its time-weighted fields — size
/// integral, holding times, peak — legitimately do), the resident
/// bytes and every cache's length.
fn rw_outcome(mgr: &ShardedCacheManager) -> (Vec<u64>, ByteSize, Vec<(BackendSubId, usize)>) {
    let m = mgr.metrics();
    let counts = vec![
        m.requested_objects,
        m.hit_objects,
        m.miss_objects,
        m.hit_bytes.as_u64(),
        m.miss_bytes.as_u64(),
        m.inserted_objects,
        m.inserted_bytes.as_u64(),
        m.consumed_objects,
        m.evicted_objects,
        m.expired_objects,
        m.unsubscribed_objects,
    ];
    let mut lens = Vec::new();
    mgr.for_each_cache(|c| lens.push((c.id(), c.len())));
    lens.sort();
    (counts, mgr.total_bytes(), lens)
}

/// Two readers, one writer and one `maintain` caller on four shards.
/// The readers use disjoint subscribers and only ever touch the
/// preloaded backlog, the budget is ample and LSC has no clock, so the
/// caches are independent and any interleaving must end where a serial
/// replay of the same tapes ends.
#[test]
fn readers_writer_and_maintain_agree_with_a_serial_replay() {
    let tapes = RwTapes::new();

    let serial = tapes.manager();
    let mut serial_drops = 0;
    for r in 0..RW_READERS {
        serial_drops += tapes.read(&serial, r);
    }
    tapes.write(&serial);
    assert!(serial
        .maintain(Timestamp::from_micros(2_000_000))
        .is_empty());

    let mgr = tapes.manager();
    let start = Barrier::new(RW_READERS as usize + 2);
    let drops: u64 = thread::scope(|scope| {
        let readers: Vec<_> = (0..RW_READERS)
            .map(|r| {
                let (tapes, mgr, start) = (&tapes, &mgr, &start);
                scope.spawn(move || {
                    start.wait();
                    tapes.read(mgr, r)
                })
            })
            .collect();
        let writer = scope.spawn(|| {
            start.wait();
            tapes.write(&mgr);
        });
        // This thread is the `maintain` caller, for as long as any of
        // the others is at work (or has panicked and will not finish).
        start.wait();
        let mut pass = 0u64;
        while !(writer.is_finished() && readers.iter().all(|h| h.is_finished())) {
            pass += 1;
            let dropped = mgr.maintain(Timestamp::from_micros(1_000_000 + pass));
            assert!(dropped.is_empty(), "maintain dropped under an ample budget");
            thread::yield_now();
        }
        writer.join().expect("writer panicked");
        readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .sum()
    });
    assert!(mgr.maintain(Timestamp::from_micros(2_000_000)).is_empty());

    let m = mgr.metrics();
    assert_eq!(m.hit_objects, RW_READERS * RW_READS as u64);
    assert_eq!(m.hit_objects + m.miss_objects, m.requested_objects);
    assert_eq!(drops, serial_drops, "acks returned a different drop count");
    assert_eq!(m.consumed_objects, drops);
    assert_eq!(rw_outcome(&mgr), rw_outcome(&serial));
}

/// On a contended shard an ack used to be parked in a mailbox and
/// answered `Ok(Vec::new())`: an ack to an unknown cache reported
/// success, and the drops an ack caused came back from whichever call
/// next took the shard lock. One shard and four threads keep the mutex
/// contended; every thread owns one cache and one subscriber.
#[test]
fn contended_acks_fail_on_unknown_caches_and_return_their_own_drops() {
    const ACK_THREADS: u64 = 4;
    const ROUNDS: u64 = 5_000;

    let mgr = ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::from_mib(1024),
            ..CacheConfig::default()
        },
        1,
    );
    for t in 0..ACK_THREADS {
        let bs = BackendSubId::new(t);
        mgr.create_cache(bs, Timestamp::ZERO);
        mgr.add_subscriber(bs, SubscriberId::new(t))
            .expect("cache just created");
    }
    let start = Barrier::new(ACK_THREADS as usize);
    thread::scope(|scope| {
        for t in 0..ACK_THREADS {
            let (mgr, start) = (&mgr, &start);
            scope.spawn(move || {
                let (bs, sub) = (BackendSubId::new(t), SubscriberId::new(t));
                let unknown = BackendSubId::new(1000 + t);
                start.wait();
                for n in 1..=ROUNDS {
                    let now = Timestamp::from_micros(n);
                    let object = rw_object(t, n);
                    let dropped = mgr.insert(bs, object, now).expect("cache exists");
                    assert!(dropped.is_empty(), "insert returned another call's drops");
                    let err = mgr.ack_consume(unknown, sub, now, now);
                    assert!(
                        matches!(err, Err(BadError::NotFound { .. })),
                        "thread {t} round {n}: ack to an unknown cache gave {err:?}"
                    );
                    let drops = mgr.ack_consume(bs, sub, now, now).expect("cache exists");
                    let got: Vec<_> = drops
                        .iter()
                        .map(|d| (d.cache, d.reason, d.object.id))
                        .collect();
                    assert_eq!(
                        got,
                        vec![(bs, DropReason::Consumed, object.id)],
                        "thread {t} round {n}: the ack did not return its own drop"
                    );
                }
            });
        }
    });
    assert_eq!(mgr.metrics().consumed_objects, ACK_THREADS * ROUNDS);
    assert_eq!(mgr.total_bytes(), ByteSize::ZERO);
}

#[test]
fn eight_threads_four_shards_accounting_balances() {
    run_stress(4);
}

#[test]
fn eight_threads_eight_shards_accounting_balances() {
    run_stress(8);
}
