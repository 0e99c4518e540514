//! Shared generative harness for the cache integration tests: a seeded
//! operation-sequence generator over [`Rng`] and a replay driver that
//! runs one tape against either cache manager. The property suites
//! (`gen_harness`, `oracle_parity`, `fused_get_oracle`, `sketch_merge`)
//! sweep fixed seeds instead of shrinking; a failing case names its
//! seed.

#![allow(dead_code)] // each integration-test crate uses a subset

pub mod set_model;

use bad_types::rng::Rng;

use bad_cache::{
    CacheManager, CacheMetrics, DroppedObject, GetPlan, NewObject, ShardedCacheManager,
};
use bad_types::{
    BackendSubId, ByteSize, ObjectId, Result, SimDuration, SubscriberId, TimeRange, Timestamp,
};

/// A randomized operation against a cache manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert {
        cache: u64,
        size: u64,
    },
    Get {
        cache: u64,
        from_sec: u64,
        len_sec: u64,
    },
    Ack {
        cache: u64,
        sub: u64,
        up_to_sec: u64,
    },
    AddSub {
        cache: u64,
        sub: u64,
    },
    RemoveSub {
        cache: u64,
        sub: u64,
    },
    Maintain,
}

/// Generates `len` ops over `caches` caches and `subs` subscriber ids
/// with weights Insert 4, Get 3, Ack 2, AddSub 1, RemoveSub 1,
/// Maintain 1.
pub fn gen_ops(seed: u64, len: usize, caches: u64, subs: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| match rng.below(12) {
            0..=3 => Op::Insert {
                cache: rng.below(caches),
                size: rng.range(1, 4999),
            },
            4..=6 => Op::Get {
                cache: rng.below(caches),
                from_sec: rng.below(500),
                len_sec: rng.below(100),
            },
            7..=8 => Op::Ack {
                cache: rng.below(caches),
                sub: rng.below(subs),
                up_to_sec: rng.below(500),
            },
            9 => Op::AddSub {
                cache: rng.below(caches),
                sub: rng.below(subs),
            },
            10 => Op::RemoveSub {
                cache: rng.below(caches),
                sub: rng.below(subs),
            },
            _ => Op::Maintain,
        })
        .collect()
}

/// The common surface of [`CacheManager`] and [`ShardedCacheManager`]
/// the harness replays against. The sharded impl delegates its `&mut`
/// receivers to the `&self` API — the point of the oracle is that both
/// produce identical observable behaviour.
pub trait Driver {
    fn create_cache(&mut self, bs: BackendSubId, now: Timestamp);
    fn add_subscriber(&mut self, bs: BackendSubId, sub: SubscriberId) -> Result<()>;
    fn remove_subscriber(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>>;
    fn insert(
        &mut self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>>;
    fn plan_get(&mut self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan;
    fn ack_consume(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>>;
    fn get_and_ack(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>);
    fn record_miss_fetch(&mut self, bs: BackendSubId, objects: u64, bytes: ByteSize);
    fn maintain(&mut self, now: Timestamp) -> Vec<DroppedObject>;
    fn metrics_snapshot(&self) -> CacheMetrics;
    fn total_bytes(&self) -> ByteSize;
    fn budget(&self) -> ByteSize;
    /// Sum of per-cache sizes — must always equal `total_bytes()`.
    fn caches_bytes_sum(&self) -> ByteSize;
}

impl Driver for CacheManager {
    fn create_cache(&mut self, bs: BackendSubId, now: Timestamp) {
        CacheManager::create_cache(self, bs, now);
    }
    fn add_subscriber(&mut self, bs: BackendSubId, sub: SubscriberId) -> Result<()> {
        CacheManager::add_subscriber(self, bs, sub)
    }
    fn remove_subscriber(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        CacheManager::remove_subscriber(self, bs, sub, now)
    }
    fn insert(
        &mut self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        CacheManager::insert(self, bs, desc, now)
    }
    fn plan_get(&mut self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan {
        CacheManager::plan_get(self, bs, range, now)
    }
    fn ack_consume(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        CacheManager::ack_consume(self, bs, sub, up_to, now)
    }
    fn get_and_ack(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>) {
        CacheManager::get_and_ack(self, bs, sub, range, up_to, now)
    }
    fn record_miss_fetch(&mut self, bs: BackendSubId, objects: u64, bytes: ByteSize) {
        CacheManager::record_miss_fetch(self, bs, objects, bytes);
    }
    fn maintain(&mut self, now: Timestamp) -> Vec<DroppedObject> {
        CacheManager::maintain(self, now)
    }
    fn metrics_snapshot(&self) -> CacheMetrics {
        self.metrics().clone()
    }
    fn total_bytes(&self) -> ByteSize {
        CacheManager::total_bytes(self)
    }
    fn budget(&self) -> ByteSize {
        CacheManager::budget(self)
    }
    fn caches_bytes_sum(&self) -> ByteSize {
        self.iter_caches().map(|c| c.total_bytes()).sum()
    }
}

impl Driver for ShardedCacheManager {
    fn create_cache(&mut self, bs: BackendSubId, now: Timestamp) {
        ShardedCacheManager::create_cache(self, bs, now);
    }
    fn add_subscriber(&mut self, bs: BackendSubId, sub: SubscriberId) -> Result<()> {
        ShardedCacheManager::add_subscriber(self, bs, sub)
    }
    fn remove_subscriber(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        ShardedCacheManager::remove_subscriber(self, bs, sub, now)
    }
    fn insert(
        &mut self,
        bs: BackendSubId,
        desc: NewObject,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        ShardedCacheManager::insert(self, bs, desc, now)
    }
    fn plan_get(&mut self, bs: BackendSubId, range: TimeRange, now: Timestamp) -> GetPlan {
        ShardedCacheManager::plan_get(self, bs, range, now)
    }
    fn ack_consume(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        up_to: Timestamp,
        now: Timestamp,
    ) -> Result<Vec<DroppedObject>> {
        ShardedCacheManager::ack_consume(self, bs, sub, up_to, now)
    }
    fn get_and_ack(
        &mut self,
        bs: BackendSubId,
        sub: SubscriberId,
        range: TimeRange,
        up_to: Timestamp,
        now: Timestamp,
    ) -> (GetPlan, Vec<DroppedObject>) {
        ShardedCacheManager::get_and_ack(self, bs, sub, range, up_to, now)
    }
    fn record_miss_fetch(&mut self, bs: BackendSubId, objects: u64, bytes: ByteSize) {
        ShardedCacheManager::record_miss_fetch(self, bs, objects, bytes);
    }
    fn maintain(&mut self, now: Timestamp) -> Vec<DroppedObject> {
        ShardedCacheManager::maintain(self, now)
    }
    fn metrics_snapshot(&self) -> CacheMetrics {
        self.metrics()
    }
    fn total_bytes(&self) -> ByteSize {
        ShardedCacheManager::total_bytes(self)
    }
    fn budget(&self) -> ByteSize {
        ShardedCacheManager::budget(self)
    }
    fn caches_bytes_sum(&self) -> ByteSize {
        let mut sum = ByteSize::ZERO;
        self.for_each_cache(|c| sum += c.total_bytes());
        sum
    }
}

/// What a replay observed, for cross-manager comparison and for
/// checking metric accounting against an independent tally.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// Every dropped object in manager-reported order.
    pub dropped: Vec<DroppedObject>,
    /// Objects served from cache (sum of plan `cached` lengths).
    pub hits: u64,
    /// Objects re-fetched from the cluster for missed sub-ranges, as
    /// reported back via `record_miss_fetch`.
    pub misses: u64,
}

/// The harness's side of a replay: what the "cluster" has produced for
/// each cache so far (to answer miss fetches) and the next object id.
#[derive(Debug)]
pub struct Tape {
    produced: Vec<Vec<Timestamp>>,
    next_id: u64,
}

impl Tape {
    /// Sets up `n_caches` caches on `mgr`, each with a permanent
    /// subscriber `1000 + c`.
    pub fn start<D: Driver>(mgr: &mut D, n_caches: u64) -> Self {
        for c in 0..n_caches {
            let bs = BackendSubId::new(c);
            mgr.create_cache(bs, Timestamp::ZERO);
            mgr.add_subscriber(bs, SubscriberId::new(1000 + c))
                .expect("cache just created");
        }
        Self {
            produced: vec![Vec::new(); n_caches as usize],
            next_id: 0,
        }
    }

    /// The broker's half of a retrieval: fetches `plan`'s missed
    /// sub-ranges of `cache` from the cluster and reports back what
    /// they held. Returns the number of objects fetched.
    pub fn fetch_misses<D: Driver>(&self, mgr: &mut D, cache: u64, plan: &GetPlan) -> u64 {
        let fetched = self.produced[cache as usize]
            .iter()
            .filter(|&&ts| plan.missed.iter().any(|m| m.contains(ts)))
            .count() as u64;
        mgr.record_miss_fetch(
            BackendSubId::new(cache),
            fetched,
            ByteSize::new(fetched * 64),
        );
        fetched
    }

    /// Applies one op to `mgr` at `now`, adding what it observed to
    /// `log`.
    pub fn apply<D: Driver>(&mut self, mgr: &mut D, op: Op, now: Timestamp, log: &mut Replay) {
        match op {
            Op::Insert { cache, size } => {
                let desc = NewObject {
                    id: ObjectId::new(self.next_id),
                    ts: now,
                    size: ByteSize::new(size),
                    fetch_latency: SimDuration::from_millis(500),
                };
                self.next_id += 1;
                let dropped = mgr
                    .insert(BackendSubId::new(cache), desc, now)
                    .expect("cache exists");
                log.dropped.extend(dropped);
                self.produced[cache as usize].push(now);
            }
            Op::Get {
                cache,
                from_sec,
                len_sec,
            } => {
                let range = TimeRange::closed(
                    Timestamp::from_secs(from_sec),
                    Timestamp::from_secs(from_sec + len_sec),
                );
                let plan = mgr.plan_get(BackendSubId::new(cache), range, now);
                log.hits += plan.cached.len() as u64;
                log.misses += self.fetch_misses(mgr, cache, &plan);
            }
            Op::Ack {
                cache,
                sub,
                up_to_sec,
            } => {
                if let Ok(dropped) = mgr.ack_consume(
                    BackendSubId::new(cache),
                    SubscriberId::new(sub),
                    Timestamp::from_secs(up_to_sec),
                    now,
                ) {
                    log.dropped.extend(dropped);
                }
            }
            Op::AddSub { cache, sub } => {
                mgr.add_subscriber(BackendSubId::new(cache), SubscriberId::new(sub))
                    .expect("cache exists");
            }
            Op::RemoveSub { cache, sub } => {
                if let Ok(dropped) =
                    mgr.remove_subscriber(BackendSubId::new(cache), SubscriberId::new(sub), now)
                {
                    log.dropped.extend(dropped);
                }
            }
            Op::Maintain => {
                log.dropped.extend(mgr.maintain(now));
            }
        }
    }
}

/// Sets up `n_caches` caches (see [`Tape::start`]) and replays `ops`
/// one virtual second apart, invoking `after_op` with the driver after
/// every op.
pub fn replay_with<D: Driver>(
    mgr: &mut D,
    ops: &[Op],
    n_caches: u64,
    mut after_op: impl FnMut(&mut D),
) -> Replay {
    let mut tape = Tape::start(mgr, n_caches);
    let mut log = Replay::default();
    for (next_ts, op) in (1u64..).zip(ops.iter()) {
        tape.apply(mgr, *op, Timestamp::from_secs(next_ts), &mut log);
        after_op(mgr);
    }
    log
}

/// [`replay_with`] without a per-op hook.
pub fn replay<D: Driver>(mgr: &mut D, ops: &[Op], n_caches: u64) -> Replay {
    replay_with(mgr, ops, n_caches, |_| {})
}
