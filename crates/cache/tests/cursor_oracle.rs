//! Differential oracle for the cursor-based [`ResultCache`]: random op
//! sequences drive it side by side with the set-based reference model
//! (`common::set_model`, subscriber lists spelled out per object) and
//! every observable must agree after every step. Plus a scaling guard:
//! an ack costs what it advances by, not what the cache retains.

mod common;

use std::time::{Duration, Instant};

use bad_cache::{CachedObject, NewObject, ResultCache};
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};
use common::set_model::{SetObject, SetResultCache};

const RATE_WINDOW: SimDuration = SimDuration::from_secs(30);

fn ids(dropped: &[CachedObject]) -> Vec<ObjectId> {
    dropped.iter().map(|o| o.id).collect()
}

fn model_ids(dropped: &[SetObject]) -> Vec<ObjectId> {
    dropped.iter().map(|o| o.id).collect()
}

/// Runs `steps` random ops on both caches, comparing after each one.
fn run_seed(seed: u64, steps: usize) {
    let mut rng = Rng::new(seed);
    let mut cache = ResultCache::new(BackendSubId::new(0), Timestamp::ZERO, RATE_WINDOW);
    let mut model = SetResultCache::new(Timestamp::ZERO, RATE_WINDOW);
    // Production timestamp of the newest result, and the wall clock.
    let mut ts = Timestamp::ZERO;
    let mut now = Timestamp::ZERO;
    let mut next_id = 0u64;

    for step in 0..steps {
        now += SimDuration::from_millis(rng.below(1500));
        let sub = SubscriberId::new(rng.below(6));
        // Around the resident span, so acks and ranges land before the
        // tail, inside the cache and past the head.
        let near = move |rng: &mut Rng| {
            Timestamp::from_secs((ts.as_micros() / 1_000_000 + 3).saturating_sub(rng.below(12)))
        };
        let ctx = format!("seed {seed} step {step}");
        match rng.below(20) {
            0..=1 => {
                cache.add_subscriber(sub);
                model.add_subscriber(sub);
            }
            2 => {
                let got = cache.remove_subscriber(sub);
                let want = model.remove_subscriber(sub);
                assert_eq!(ids(&got), model_ids(&want), "{ctx}: unsubscribe drops");
            }
            3..=8 => {
                // Repeated timestamps are the norm: one cluster tick
                // emits several results at one `ts`.
                if rng.below(5) >= 2 {
                    ts += SimDuration::from_secs(rng.range(1, 3));
                }
                let desc = NewObject {
                    id: ObjectId::new(next_id),
                    ts,
                    size: ByteSize::new(rng.range(1, 4999)),
                    fetch_latency: SimDuration::from_millis(500),
                };
                next_id += 1;
                cache.insert(desc, now);
                model.insert(desc, now);
            }
            9..=12 => {
                let up_to = near(&mut rng);
                let got = cache.consume_up_to(sub, up_to, now);
                let want = model.consume_up_to(sub, up_to, now);
                assert_eq!(ids(&got), model_ids(&want), "{ctx}: consumption drops");
            }
            13 => {
                let up_to = near(&mut rng);
                cache.mark_retrieved_up_to(sub, up_to);
                model.mark_retrieved_up_to(sub, up_to);
            }
            14 => {
                // Eviction leaves cursors behind the tail.
                let got = cache.drop_tail().map(|o| o.id);
                let want = model.drop_tail().map(|o| o.id);
                assert_eq!(got, want, "{ctx}: evicted tail");
            }
            15 => {
                let ttl = SimDuration::from_secs(rng.range(1, 39));
                cache.set_ttl(ttl);
                model.ttl = ttl;
                let got = cache.expire_tail(now);
                let want = model.expire_tail(now);
                assert_eq!(ids(&got), model_ids(&want), "{ctx}: expired tails");
            }
            _ => {
                let from = near(&mut rng);
                let to = from + SimDuration::from_secs(rng.below(8));
                let range = if rng.below(2) == 0 {
                    TimeRange::closed(from, to)
                } else {
                    TimeRange::half_open(from, to)
                };
                assert_eq!(
                    cache.plan_get(range, now),
                    model.plan_get(range),
                    "{ctx}: plan for {range}"
                );
            }
        }

        assert_eq!(cache.len(), model.entries.len(), "{ctx}: len");
        assert_eq!(cache.total_bytes(), model.total_bytes, "{ctx}: bytes");
        assert_eq!(cache.coverage_from(), model.coverage_from, "{ctx}");
        assert_eq!(cache.subscriber_count(), model.subs.len(), "{ctx}");
        assert!(cache.subscribers().eq(model.subs.iter().copied()), "{ctx}");
        let fanouts: Vec<(ObjectId, usize)> = cache.iter().map(|o| (o.id, o.fanout())).collect();
        let want: Vec<(ObjectId, usize)> = model
            .entries
            .iter()
            .map(|o| (o.id, o.pending.len()))
            .collect();
        assert_eq!(fanouts, want, "{ctx}: per-object f_ij");
        assert_eq!(
            cache.arrival_rate(now),
            model.arrivals.rate(now),
            "{ctx}: λ"
        );
        assert_eq!(
            cache.consumption_rate(now),
            model.consumption.rate(now),
            "{ctx}: η"
        );
    }
}

#[test]
fn cursor_cache_matches_set_model() {
    // 128 seeds × 1 000 steps = 128 000 compared steps.
    for seed in 1..=128 {
        run_seed(seed, 1_000);
    }
}

/// Time for 10 000 single-object acks by an active subscriber on a
/// cache in which an absent subscriber retains `retained` objects.
fn single_object_acks(retained: u64) -> Duration {
    let (absent, active) = (SubscriberId::new(1), SubscriberId::new(2));
    let mut cache = ResultCache::new(BackendSubId::new(0), Timestamp::ZERO, RATE_WINDOW);
    cache.add_subscriber(absent);
    cache.add_subscriber(active);
    let object = |n: u64| NewObject {
        id: ObjectId::new(n),
        ts: Timestamp::from_secs(n),
        size: ByteSize::new(100),
        fetch_latency: SimDuration::from_millis(500),
    };
    for n in 0..retained {
        cache.insert(object(n), Timestamp::from_secs(n));
    }
    let head = Timestamp::from_secs(retained);
    assert!(cache.consume_up_to(active, head, head).is_empty());

    let start = Instant::now();
    for n in retained..retained + 10_000 {
        let now = Timestamp::from_secs(n);
        cache.insert(object(n), now);
        assert!(cache.consume_up_to(active, now, now).is_empty());
        // Evict one so the retained backlog stays at `retained`.
        cache.drop_tail();
    }
    let elapsed = start.elapsed();
    assert_eq!(cache.len() as u64, retained);
    elapsed
}

/// An ack walks from the subscriber's cursor, so its cost must not grow
/// with the backlog someone else retains. The set-based cache walked
/// from the oldest entry: ≈ 1 000× between these two sizes. Best of
/// five per side keeps a descheduled run from deciding the ratio.
#[test]
fn ack_cost_is_independent_of_retained_backlog() {
    let best = |retained| {
        (0..5)
            .map(|_| single_object_acks(retained))
            .min()
            .expect("five runs")
    };
    let (small, large) = (best(100), best(100_000));
    assert!(
        large < small * 20,
        "10k single-object acks: {large:?} with 100 000 retained vs {small:?} with 100"
    );
}
