//! A regime-shift tape, used by the `regime_shift` test to compare
//! fixed policies on the same trace.
//!
//! Two segments of `rounds` rounds each drive one cache tier:
//!
//! 1. **Hot fan-out (stationary).** A few high-fanout streams produce
//!    and their subscribers replay the latest objects. Every reasonable
//!    policy behaves alike here.
//! 2. **Scan pollution (regime shift).** Single-subscriber scan bursts
//!    overrun the budget on top. Pure recency drains the hot streams; a
//!    utility policy keeps them.
//!
//! No randomness and fixed clocks; one maintenance tick per round.

use bad_cache::{CacheConfig, CacheMetrics, NewObject, PolicyName, ShardedCacheManager};
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const HOT_CACHES: u64 = 8;
const HOT_SUBS: u64 = 16;
const HOT_OBJECT: u64 = 1_000;
/// How many of a hot stream's latest objects each retrieval replays.
/// `HOT_CACHES * HOT_REPLAY * HOT_OBJECT` stays under `BUDGET` so the
/// unpolluted workload fits in cache under every policy.
const HOT_REPLAY: usize = 3;
const SCAN_CACHES: u64 = 48;
const SCAN_BURST: u64 = 16;
const SCAN_OBJECT: u64 = 5_000;
const BUDGET: u64 = 40_000;

/// Creates one cache of the tape with its subscribers.
fn create(mgr: &ShardedCacheManager, bs: u64, subs: impl Iterator<Item = u64>) {
    let bs = BackendSubId::new(bs);
    mgr.create_cache(bs, Timestamp::ZERO);
    for s in subs {
        mgr.add_subscriber(bs, SubscriberId::new(s))
            .expect("cache exists");
    }
}

struct Tape {
    mgr: ShardedCacheManager,
    /// Every insert per cache, so misses are reported the way the
    /// broker does (from the cluster's fetch response).
    inserted: Vec<Vec<(Timestamp, u64)>>,
    next_id: u64,
    clock: u64,
}

impl Tape {
    fn tick(&mut self) -> Timestamp {
        self.clock += 1;
        Timestamp::from_secs(self.clock)
    }

    fn insert(&mut self, cache: u64, size: u64, now: Timestamp) {
        let desc = NewObject {
            id: ObjectId::new(self.next_id),
            ts: now,
            size: ByteSize::new(size),
            fetch_latency: SimDuration::from_millis(500),
        };
        self.mgr
            .insert(BackendSubId::new(cache), desc, now)
            .expect("cache exists");
        self.inserted[cache as usize].push((now, size));
        self.next_id += 1;
    }

    /// Retrieves the latest `last` objects of `cache`, reports what the
    /// plan missed, and has `subs` consume everything older: fully
    /// consumed objects drop for every policy alike.
    fn replay(&mut self, cache: u64, last: usize, subs: impl Iterator<Item = u64>) {
        let now = self.tick();
        let bs = BackendSubId::new(cache);
        let history = &self.inserted[cache as usize];
        let from = history[history.len().saturating_sub(last)].0;
        let plan = self.mgr.plan_get(bs, TimeRange::closed(from, now), now);
        let missed: Vec<u64> = history
            .iter()
            .filter(|(ts, _)| plan.missed.iter().any(|r| r.contains(*ts)))
            .map(|&(_, size)| size)
            .collect();
        if !missed.is_empty() {
            let bytes = ByteSize::new(missed.iter().sum());
            self.mgr.record_miss_fetch(bs, missed.len() as u64, bytes);
        }
        if from > Timestamp::ZERO {
            let consumed = Timestamp::from_micros(from.as_micros() - 1);
            for s in subs {
                let _ = self
                    .mgr
                    .ack_consume(bs, SubscriberId::new(s), consumed, now);
            }
        }
    }
}

/// Runs the tape under `policy` and returns the cache's final metrics.
pub fn run_tape(policy: PolicyName, rounds: u64) -> CacheMetrics {
    let config = CacheConfig {
        budget: ByteSize::new(BUDGET),
        ..CacheConfig::default()
    };
    let mgr = ShardedCacheManager::new(policy, config, 1);
    for h in 0..HOT_CACHES {
        create(&mgr, h, (0..HOT_SUBS).map(|s| h * 100 + s));
    }
    for c in 0..SCAN_CACHES {
        create(&mgr, HOT_CACHES + c, std::iter::once(10_000 + c));
    }
    let mut tape = Tape {
        mgr,
        inserted: vec![Vec::new(); (HOT_CACHES + SCAN_CACHES) as usize],
        next_id: 0,
        clock: 0,
    };
    for polluted in [false, true] {
        for _ in 0..rounds {
            for h in 0..HOT_CACHES {
                let now = tape.tick();
                tape.insert(h, HOT_OBJECT, now);
            }
            for h in 0..HOT_CACHES {
                tape.replay(h, HOT_REPLAY, (0..HOT_SUBS).map(|s| h * 100 + s));
            }
            if polluted {
                for k in 0..SCAN_BURST {
                    let c = HOT_CACHES + (tape.clock.wrapping_mul(7) + k) % SCAN_CACHES;
                    let now = tape.tick();
                    tape.insert(c, SCAN_OBJECT, now);
                    let bs = BackendSubId::new(c);
                    let plan = tape.mgr.plan_get(bs, TimeRange::closed(now, now), now);
                    if !plan.missed.is_empty() {
                        let bytes = ByteSize::new(SCAN_OBJECT);
                        tape.mgr.record_miss_fetch(bs, 1, bytes);
                    }
                }
            }
            let now = tape.tick();
            tape.mgr.maintain(now);
        }
    }
    tape.mgr.metrics()
}
