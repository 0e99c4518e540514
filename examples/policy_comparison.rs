//! Compare all caching policies head-to-head on one seeded workload —
//! a miniature of the paper's Figs. 3–4 that runs in a few seconds.
//!
//! Run with: `cargo run --release --example policy_comparison`
//!
//! The LSC and TTL runs are traced: their record streams (lifecycle
//! spans — inserts, hits, drops with the evicting policy's victim
//! score or the TTL in force — plus retrieval summaries, TTL retunes
//! and epoch samples) are written as JSON Lines to `BAD_TRACE` (default
//! `target/experiments/policy_comparison.trace.jsonl`).

use std::sync::Arc;

use big_active_data::cache::PolicyName;
use big_active_data::prelude::*;
use big_active_data::telemetry::{FlightRecorder, Profiler, TraceConfig, Tracer};
use big_active_data::types::BadError;

fn main() -> Result<(), BadError> {
    // Table II scaled down 50x: 200 subscribers, 20 result streams.
    let mut config = SimConfig::table_ii_scaled(50);
    config.duration = SimDuration::from_mins(30);
    config.cache_budget = ByteSize::from_mib(1);

    println!(
        "workload: {} subscribers x {} subscriptions over {} streams, {} budget, {}",
        config.subscribers,
        config.subscriptions_per_subscriber,
        config.unique_subscriptions,
        config.cache_budget,
        config.duration,
    );
    println!(
        "\n{:<6} {:>9} {:>10} {:>11} {:>12} {:>12}",
        "policy", "hit_ratio", "latency", "miss_MiB", "avg_cache", "max_cache"
    );

    // Trace the two most instructive runs: LSC (evictions with victim
    // scores) and TTL (retunes + expiries), into one JSONL file.
    let trace_path = std::env::var("BAD_TRACE")
        .unwrap_or_else(|_| "target/experiments/policy_comparison.trace.jsonl".to_owned());
    if let Some(parent) = std::path::Path::new(&trace_path).parent() {
        std::fs::create_dir_all(parent).expect("create trace directory");
    }
    let jsonl = Arc::new(JsonlSink::create(&trace_path).expect("create trace file"));
    let registry = Registry::new();
    let tracer = Tracer::new(
        &registry,
        jsonl.clone(),
        Arc::new(FlightRecorder::new(1, 64)),
        // Every lifecycle, not the default one trace in 64: an offline
        // trace file is for reading back whole.
        TraceConfig {
            trace_sample_every_n: 1,
            ..TraceConfig::default()
        },
    );

    let mut results = Vec::new();
    for policy in PolicyName::ALL {
        let mut sim = Simulation::new(policy, config.clone(), 42)?;
        if matches!(policy, PolicyName::Lsc | PolicyName::Ttl) {
            sim.attach_telemetry(&registry, Arc::clone(&tracer), Profiler::disabled());
        }
        let report = sim.run();
        println!(
            "{:<6} {:>9.3} {:>10} {:>11.2} {:>12} {:>12}",
            policy.to_string(),
            report.hit_ratio,
            report.mean_latency.to_string(),
            report.miss_bytes.as_mib_f64(),
            report.avg_cache_bytes.to_string(),
            report.max_cache_bytes.to_string(),
        );
        results.push(report);
    }

    // The paper's headline observations, checked live:
    let by = |name: PolicyName| results.iter().find(|r| r.policy == name).unwrap();
    println!("\nobservations (paper, Section V):");
    println!(
        "  TTL beats LRU on hit ratio:        {} ({:.3} vs {:.3})",
        by(PolicyName::Ttl).hit_ratio > by(PolicyName::Lru).hit_ratio,
        by(PolicyName::Ttl).hit_ratio,
        by(PolicyName::Lru).hit_ratio
    );
    println!(
        "  TTL exceeds the budget (max size): {} ({} > {})",
        by(PolicyName::Ttl).max_cache_bytes > config.cache_budget,
        by(PolicyName::Ttl).max_cache_bytes,
        config.cache_budget
    );
    println!(
        "  eviction stays within budget:      {} (LSC max {})",
        by(PolicyName::Lsc).max_cache_bytes <= config.cache_budget,
        by(PolicyName::Lsc).max_cache_bytes
    );
    println!(
        "  any cache beats no cache (NC):     {} ({} vs {})",
        by(PolicyName::Lsc).mean_latency < by(PolicyName::Nc).mean_latency,
        by(PolicyName::Lsc).mean_latency,
        by(PolicyName::Nc).mean_latency
    );

    // Summarize the captured trace.
    jsonl.flush().expect("flush trace");
    let trace = std::fs::read_to_string(&trace_path).expect("read trace back");
    let count = |field: &str, value: &str| {
        let needle = format!("\"{field}\":\"{value}\"");
        trace.lines().filter(|line| line.contains(&needle)).count()
    };
    let count_kind = |kind: &str| count("kind", kind);
    println!(
        "\ntrace: {} events -> {}",
        trace.lines().count(),
        trace_path
    );
    println!(
        "  evict drops (victim score φ/s):  {}",
        count("drop_kind", "evict")
    );
    println!(
        "  cache.ttl_retune (λ, η, ρ, T):   {}",
        count_kind("cache.ttl_retune")
    );
    println!(
        "  expire drops (TTL in force):     {}",
        count("drop_kind", "expire")
    );
    println!(
        "  sim.epoch_sample (Fig. 5a data): {}",
        count_kind("sim.epoch_sample")
    );
    println!("\ncounters (LSC + TTL runs combined):");
    for line in registry.render().lines() {
        if line.contains("_objects_total") && !line.starts_with('#') {
            println!("  {line}");
        }
    }
    Ok(())
}
