//! Pins the simulator's report, byte for byte, on a reduced Fig. 3
//! configuration with subscription churn.
//!
//! Churn unsubscribes and resubscribes frontends all run long, so the
//! broker's frontend slots are freed and reused and a notification's
//! fan-out order (frontend-id order) is no longer the order the
//! frontends were made in. The retrievals it triggers are due at the
//! same instant and commute: nothing is inserted or evicted between
//! them, and a consumption drop only removes objects every attached
//! subscriber has already retrieved. These digests hold that argument
//! on the path the figures use.
//!
//! The digests were taken by running this file on a commit whose ids
//! are minted in sequence and never reused. On a mismatch the assert
//! prints the digests and the reports; re-derive them the same way,
//! never from the change under test.

use bad_cache::PolicyName;
use bad_sim::{SimConfig, Simulation};
use bad_types::ByteSize;
use bad_workload::LognormalSpec;

/// FNV-1a, 64 bit: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Table II at 1/100 (100 subscribers, 10 streams, one hour) with a
/// 1-MiB budget — Fig. 3's 100-MB point at that scale — and frontends
/// that live ten minutes on average.
fn config() -> SimConfig {
    let mut config = SimConfig::table_ii_scaled(100).with_budget(ByteSize::from_mib(1));
    config.subscription_lifetime = Some(LognormalSpec::new(600.0, 300.0));
    config
}

#[test]
fn churned_fig3_reports_are_pinned() {
    const SEED: u64 = 7;
    let mut reports = Vec::new();
    let digests: Vec<(PolicyName, u64)> = PolicyName::SIMULATED
        .iter()
        .map(|&policy| {
            let json = Simulation::new(policy, config(), SEED)
                .unwrap()
                .run()
                .to_json();
            let digest = fnv1a(json.as_bytes());
            reports.push(json);
            (policy, digest)
        })
        .collect();
    let want: [(PolicyName, u64); 6] = [
        (PolicyName::Lru, 18_233_259_753_470_193_723),
        (PolicyName::Lsc, 12_015_427_917_451_035_460),
        (PolicyName::Lscz, 5_736_516_264_683_556_728),
        (PolicyName::Lsd, 13_566_792_452_964_254_768),
        (PolicyName::Exp, 15_284_177_068_616_425_058),
        (PolicyName::Ttl, 1_662_015_837_356_869_580),
    ];
    assert_eq!(digests, want, "reports:\n{}", reports.join("\n"));
}
