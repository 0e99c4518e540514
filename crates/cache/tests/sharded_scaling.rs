//! Scaling guard for the sharded data path: what an insert, a GET and
//! an ack cost must not depend on how many objects the cache retains.
//! Alone in its test binary so no other test's threads share the clock.

use std::time::{Duration, Instant};

use bad_cache::{CacheConfig, DropReason, NewObject, PolicyName, ShardedCacheManager};
use bad_types::{
    BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp,
};

const ROUNDS: u64 = 10_000;

/// Time for 10 000 rounds of insert + `plan_get` + `ack_consume` by an
/// up-to-date subscriber on a cache in which a lagging subscriber keeps
/// `retained` objects resident (it acks one old object per round, so
/// the backlog stays at `retained`).
fn rounds_with_backlog(retained: u64) -> Duration {
    let mgr = ShardedCacheManager::new(
        PolicyName::Lsc,
        CacheConfig {
            budget: ByteSize::from_mib(1024),
            ..CacheConfig::default()
        },
        4,
    );
    let bs = BackendSubId::new(0);
    let (lagging, current) = (SubscriberId::new(1), SubscriberId::new(2));
    mgr.create_cache(bs, Timestamp::ZERO);
    mgr.add_subscriber(bs, lagging).expect("cache exists");
    mgr.add_subscriber(bs, current).expect("cache exists");
    let object = |n: u64| NewObject {
        id: ObjectId::new(n),
        ts: Timestamp::from_secs(n),
        size: ByteSize::new(100),
        fetch_latency: SimDuration::from_millis(500),
    };
    for n in 1..=retained {
        mgr.insert(bs, object(n), Timestamp::from_secs(n))
            .expect("cache exists");
    }
    let head = Timestamp::from_secs(retained);
    let caught_up = mgr.ack_consume(bs, current, head, head);
    assert_eq!(caught_up, Ok(Vec::new()));

    let start = Instant::now();
    for n in retained + 1..=retained + ROUNDS {
        let now = Timestamp::from_secs(n);
        let evicted = mgr.insert(bs, object(n), now).expect("cache exists");
        assert!(evicted.is_empty());
        let plan = mgr.plan_get(bs, TimeRange::closed(now, now), now);
        assert_eq!(plan.cached.len(), 1);
        assert!(plan.missed.is_empty());
        let kept = mgr.ack_consume(bs, current, now, now);
        assert_eq!(kept, Ok(Vec::new()));
        // The lagging subscriber retrieves its oldest object, which
        // nobody is pending on any more.
        let oldest = Timestamp::from_secs(n - retained);
        let consumed = mgr
            .ack_consume(bs, lagging, oldest, now)
            .expect("cache exists");
        assert_eq!(consumed.len(), 1);
        assert_eq!(consumed[0].reason, DropReason::Consumed);
    }
    let elapsed = start.elapsed();
    mgr.with_cache(bs, |c| {
        assert_eq!(c.expect("cache exists").len() as u64, retained)
    });
    elapsed
}

/// A GET binary-searches to its range, an ack walks from its cursor and
/// an insert pushes at the head, so none of them may grow with the
/// backlog. With the seqlock read path every insert and every dropping
/// ack on a cache a reader had touched re-captured all retained entries
/// under the shard mutex: the parent of the change that removed it took
/// 372× longer with 100 000 retained than with 100 in a release build
/// (2.85 s vs 7.7 ms) and 246× in a debug build; the locked path reads
/// 1.0–1.2×. Best of five per side keeps a descheduled run from
/// deciding the ratio.
#[test]
fn data_path_cost_is_independent_of_retained_backlog() {
    let best = |retained| {
        (0..5)
            .map(|_| rounds_with_backlog(retained))
            .min()
            .expect("five runs")
    };
    let (small, large) = (best(100), best(100_000));
    assert!(
        large < small * 20,
        "10k insert+get+ack rounds: {large:?} with 100 000 retained vs {small:?} with 100"
    );
}
