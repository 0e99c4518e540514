//! Fig. 7 — the prototype evaluation: hit ratio, subscriber latency and
//! bytes fetched from the data cluster vs cache size, for every caching
//! scheme **including the no-cache (NC) baseline**, on the full stack
//! (BQL channels, matching, enrichment, broker, caches) replaying the
//! same emergency-scenario trace for every scheme. `latency_ms` is what
//! a subscriber sees: the modelled per-delivery latency plus `wait_ms`,
//! the time a retrieval waited behind the broker node (one call at a
//! time, a cluster round trip slept per miss and per pull-in).
//!
//! Usage: `cargo run --release -p bad-bench --bin fig7`
//! Environment: `BAD_SUBSCRIBERS` (default 400), `BAD_MINUTES` (default
//! 60), `BAD_SEEDS` (default 2).

use bad_bench::{print_table, write_bench_json, write_csv};
use bad_cache::PolicyName;
use bad_proto::{run_prototype, PrototypeConfig, PrototypeReport};
use bad_telemetry::json::ObjectWriter;
use bad_types::{ByteSize, SimDuration};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let subscribers = env_u64("BAD_SUBSCRIBERS", 400);
    let minutes = env_u64("BAD_MINUTES", 60);
    let seeds: Vec<u64> = (1..=env_u64("BAD_SEEDS", 2)).collect();

    let mut base = PrototypeConfig::section_vi();
    base.trace.subscribers = subscribers;
    base.trace.duration = SimDuration::from_mins(minutes);
    // Note: the default 4x4 district grid yields a 139-interest space
    // (~139 backend subscriptions after merging) rather than the paper's
    // ~800; a finer grid reaches 800 but dilutes per-cache traffic so
    // much that every policy saturates. The coarser space reproduces the
    // figure's operating region (hit ratios 0.5-0.95 across 25-800 KB).

    // The paper highlights that "even a small cache size (100KB) results
    // in high latency drop"; sweep around that regime. NC is budget-
    // independent and reported once.
    let budgets: Vec<ByteSize> = [25u64, 50, 100, 200, 400, 800]
        .iter()
        .map(|kb| ByteSize::from_kib(*kb))
        .collect();
    let policies = [
        PolicyName::Lru,
        PolicyName::Lsc,
        PolicyName::Lscz,
        PolicyName::Lsd,
        PolicyName::Exp,
        PolicyName::Ttl,
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let mut push = |reports: Vec<PrototypeReport>| {
        let n = reports.len() as f64;
        let hit = reports.iter().map(|r| r.hit_ratio).sum::<f64>() / n;
        let latency = reports
            .iter()
            .map(|r| r.mean_latency.as_millis_f64())
            .sum::<f64>()
            / n;
        let wait = reports
            .iter()
            .map(|r| r.mean_wait.as_millis_f64())
            .sum::<f64>()
            / n;
        let fetched = reports
            .iter()
            .map(|r| r.fetched_bytes.as_mib_f64())
            .sum::<f64>()
            / n;
        let vol = reports
            .iter()
            .map(|r| r.vol_bytes.as_mib_f64())
            .sum::<f64>()
            / n;
        let first = &reports[0];
        rows.push(vec![
            first.policy.to_string(),
            format!("{:.0}", first.cache_budget.as_kib_f64()),
            format!("{:.3}", hit),
            format!("{:.0}", latency),
            format!("{:.0}", wait),
            format!("{:.2}", fetched),
            format!("{:.2}", vol),
            first.frontend_subscriptions.to_string(),
            first.backend_subscriptions.to_string(),
        ]);
        csv.push(format!(
            "{},{:.0},{:.4},{:.1},{:.1},{:.3},{:.3},{},{}",
            first.policy,
            first.cache_budget.as_kib_f64(),
            hit,
            latency,
            wait,
            fetched,
            vol,
            first.frontend_subscriptions,
            first.backend_subscriptions,
        ));
        let mut json = String::new();
        {
            let mut obj = ObjectWriter::new(&mut json);
            obj.field_str("policy", first.policy.as_str());
            obj.field_f64("cache_kb", first.cache_budget.as_kib_f64());
            obj.field_f64("hit_ratio", hit);
            obj.field_f64("latency_ms", latency);
            obj.field_f64("wait_ms", wait);
            obj.field_f64("fetched_mb", fetched);
            obj.field_f64("vol_mb", vol);
            obj.field_u64("frontend_subs", first.frontend_subscriptions);
            obj.field_u64("backend_subs", first.backend_subscriptions);
            obj.field_u64("seeds", reports.len() as u64);
        }
        json_rows.push(json);
    };

    // NC baseline (the far-left bars of Fig. 7).
    eprintln!("fig7: NC baseline...");
    let nc_config = base.with_budget(ByteSize::ZERO);
    push(
        seeds
            .iter()
            .map(|&seed| run_prototype(PolicyName::Nc, &nc_config, seed).expect("run"))
            .collect(),
    );

    for &budget in &budgets {
        let config = base.with_budget(budget);
        for policy in policies {
            eprintln!("fig7: {policy} B={budget}...");
            push(
                seeds
                    .iter()
                    .map(|&seed| run_prototype(policy, &config, seed).expect("run"))
                    .collect(),
            );
        }
    }

    print_table(
        "Fig. 7: prototype — hit ratio / latency / bytes fetched vs cache size (incl. NC)",
        &[
            "policy",
            "cache_kb",
            "hit_ratio",
            "latency_ms",
            "wait_ms",
            "fetched_mb",
            "vol_mb",
            "fsubs",
            "bsubs",
        ],
        &rows,
    );
    let path = write_csv(
        "fig7.csv",
        "policy,cache_kb,hit_ratio,latency_ms,wait_ms,fetched_mb,vol_mb,frontend_subs,backend_subs",
        &csv,
    );
    println!("\nwrote {}", path.display());
    let json = write_bench_json("fig7", &format!("[{}]", json_rows.join(",")));
    println!("wrote {}", json.display());
}
