//! The ghost fleet on the regime-shift tape of [`bad_bench::regime`].

use bad_bench::regime::run_tape;
use bad_cache::PolicyName;

const ROUNDS: u64 = 40;

/// Under scan pollution some ghost beats live LRU: the shadow fleet
/// sees a policy the live cache does not run doing better on the same
/// access stream.
#[test]
fn scan_pollution_lets_a_ghost_beat_live_lru() {
    let run = run_tape(PolicyName::Lru, ROUNDS);
    let live = run.hit_ratio();
    let beaten =
        run.shadow.ghosts.iter().any(|g| {
            g.policy != PolicyName::Lru && g.counters.hit_ratio().is_some_and(|r| r > live)
        });
    assert!(
        beaten,
        "no ghost beats live LRU ({live:.3}) under scan pollution"
    );
}
