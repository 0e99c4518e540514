//! Fixed policies compared on the regime-shift tape of
//! [`bad_bench::regime`]: every policy replays the same trace.

use bad_bench::regime::run_tape;
use bad_cache::PolicyName;

const ROUNDS: u64 = 40;

/// Under scan pollution LSC beats LRU on the same tape: recency lets
/// the single-subscriber scans drain the hot fan-out streams, while
/// LSC evicts the tails with the fewest pending subscribers first.
#[test]
fn scan_pollution_lets_lsc_beat_lru_on_the_same_tape() {
    let hit_ratio = |policy| run_tape(policy, ROUNDS).hit_ratio().unwrap_or(0.0);
    let (lru, lsc) = (hit_ratio(PolicyName::Lru), hit_ratio(PolicyName::Lsc));
    assert!(
        lsc > lru,
        "LSC ({lsc:.6}) does not beat LRU ({lru:.6}) under scan pollution"
    );
}
