//! `badlab` — the command-line laboratory for the BAD edge-caching
//! reproduction.
//!
//! ```text
//! badlab policies                         list the caching policy catalog
//! badlab sim [options]                    run one Section V simulation
//! badlab proto [options]                  run one Section VI prototype replay
//! badlab trace generate [options] FILE    generate + save a subscriber trace
//! badlab trace info FILE                  summarize a saved trace
//! ```
//!
//! Run `badlab help` (or any subcommand with `--help`) for options.

use std::collections::HashMap;
use std::process::ExitCode;

use big_active_data::cache::{policy_catalog, PolicyName};
use big_active_data::prelude::*;
use big_active_data::proto::PrototypeReport;
use big_active_data::sim::SimReport;
use big_active_data::types::BadError;
use big_active_data::workload::{trace_io, ActivityKind, LognormalSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("policies") => cmd_policies(),
        Some("sim") => cmd_sim(&args[1..]),
        Some("proto") => cmd_proto(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(BadError::InvalidArgument(format!(
            "unknown command `{other}` (try `badlab help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("badlab: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "badlab — Big Active Data edge-caching laboratory\n\
         \n\
         USAGE:\n\
           badlab policies\n\
           badlab sim   [--policy P] [--budget-mib N] [--scale N] [--seed N]\n\
                        [--minutes N] [--churn] \n\
           badlab proto [--policy P] [--budget-kib N] [--subscribers N]\n\
                        [--minutes N] [--seed N]\n\
           badlab trace generate [--subscribers N] [--minutes N] [--seed N] FILE\n\
           badlab trace info FILE\n\
         \n\
         POLICIES: lru, lsc, lscz, lsd, exp, ttl, nc"
    );
}

/// Parses `--key value` pairs and positional arguments.
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), BadError> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            flags.insert("help".to_owned(), "true".to_owned());
        } else if let Some(key) = arg.strip_prefix("--") {
            // Boolean flags take no value; detect by lookahead.
            let takes_value = iter
                .peek()
                .map(|next| !next.starts_with("--"))
                .unwrap_or(false);
            if takes_value {
                flags.insert(key.to_owned(), iter.next().expect("peeked").clone());
            } else {
                flags.insert(key.to_owned(), "true".to_owned());
            }
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

fn flag_u64(flags: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, BadError> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            BadError::InvalidArgument(format!("--{key} expects an integer, got `{raw}`"))
        }),
    }
}

fn flag_policy(flags: &HashMap<String, String>) -> Result<PolicyName, BadError> {
    match flags.get("policy") {
        None => Ok(PolicyName::Lsc),
        Some(raw) => raw.parse(),
    }
}

fn cmd_policies() -> Result<(), BadError> {
    println!(
        "{:<6} {:<14} {:<13} dropping criterion",
        "name", "utility", "value"
    );
    for info in policy_catalog() {
        println!(
            "{:<6} {:<14} {:<13} {}",
            info.name.to_string(),
            info.utility,
            info.value,
            info.dropping
        );
    }
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), BadError> {
    let (flags, _) = parse_flags(args)?;
    if flags.contains_key("help") {
        print_usage();
        return Ok(());
    }
    let policy = flag_policy(&flags)?;
    let scale = flag_u64(&flags, "scale", 20)?.max(1);
    let seed = flag_u64(&flags, "seed", 1)?;
    let mut config = SimConfig::table_ii_scaled(scale);
    if let Some(mib) = flags.get("budget-mib") {
        let mib: u64 = mib.parse().map_err(|_| {
            BadError::InvalidArgument(format!("--budget-mib expects an integer, got `{mib}`"))
        })?;
        config.cache_budget = ByteSize::from_mib(mib);
    }
    if let Some(mins) = flags.get("minutes") {
        let mins: u64 = mins.parse().map_err(|_| {
            BadError::InvalidArgument(format!("--minutes expects an integer, got `{mins}`"))
        })?;
        config.duration = SimDuration::from_mins(mins);
    }
    if flags.contains_key("churn") {
        // Table II's "Subscription duration Lognormal(1, 2) minutes".
        config.subscription_lifetime = Some(LognormalSpec::new(60.0, 120.0));
    }
    eprintln!(
        "sim: policy={policy} subscribers={} streams={} budget={} duration={} seed={seed}",
        config.subscribers, config.unique_subscriptions, config.cache_budget, config.duration
    );
    let report = Simulation::new(policy, config, seed)?.run();
    print_sim_report(&report);
    Ok(())
}

fn print_sim_report(report: &SimReport) {
    println!("policy:            {}", report.policy);
    println!("cache budget:      {}", report.cache_budget);
    println!("hit ratio:         {:.4}", report.hit_ratio);
    println!("hit bytes:         {}", report.hit_bytes);
    println!("miss bytes:        {}", report.miss_bytes);
    println!("fetched (cluster): {}", report.fetched_bytes);
    println!("produced (Vol):    {}", report.vol_bytes);
    println!("mean latency:      {}", report.mean_latency);
    println!("mean holding:      {}", report.mean_holding);
    println!("avg cache size:    {}", report.avg_cache_bytes);
    println!("max cache size:    {}", report.max_cache_bytes);
    println!("deliveries:        {}", report.deliveries);
    println!("objects delivered: {}", report.delivered_objects);
}

fn cmd_proto(args: &[String]) -> Result<(), BadError> {
    let (flags, _) = parse_flags(args)?;
    if flags.contains_key("help") {
        print_usage();
        return Ok(());
    }
    let policy = flag_policy(&flags)?;
    let seed = flag_u64(&flags, "seed", 1)?;
    let mut config = PrototypeConfig::section_vi();
    config.trace.subscribers = flag_u64(&flags, "subscribers", 100)?;
    config.trace.duration = SimDuration::from_mins(flag_u64(&flags, "minutes", 15)?);
    config.cache.budget = ByteSize::from_kib(flag_u64(&flags, "budget-kib", 100)?);
    eprintln!(
        "proto: policy={policy} subscribers={} duration={} budget={} seed={seed}",
        config.trace.subscribers, config.trace.duration, config.cache.budget
    );
    let report = run_prototype(policy, &config, seed)?;
    print_proto_report(&report);
    Ok(())
}

fn print_proto_report(report: &PrototypeReport) {
    println!("policy:             {}", report.policy);
    println!("cache budget:       {}", report.cache_budget);
    println!("hit ratio:          {:.4}", report.hit_ratio);
    println!("mean latency:       {}", report.mean_latency);
    println!("  of which waiting: {}", report.mean_wait);
    println!("fetched (cluster):  {}", report.fetched_bytes);
    println!("produced (Vol):     {}", report.vol_bytes);
    println!("frontend subs:      {}", report.frontend_subscriptions);
    println!("backend subs:       {}", report.backend_subscriptions);
    println!("deliveries:         {}", report.deliveries);
    println!("objects delivered:  {}", report.delivered_objects);
    println!("publications:       {}", report.publications);
}

fn cmd_trace(args: &[String]) -> Result<(), BadError> {
    match args.first().map(String::as_str) {
        Some("generate") => {
            let (flags, positional) = parse_flags(&args[1..])?;
            let path = positional.first().ok_or_else(|| {
                BadError::InvalidArgument("trace generate needs an output FILE".into())
            })?;
            let config = TraceConfig {
                subscribers: flag_u64(&flags, "subscribers", 100)?,
                duration: SimDuration::from_mins(flag_u64(&flags, "minutes", 15)?),
                ..TraceConfig::default()
            };
            let seed = flag_u64(&flags, "seed", 1)?;
            let trace = TraceGenerator::new(config, seed).generate()?;
            trace_io::save(&trace, path)?;
            println!("wrote {} activities to {path}", trace.len());
            Ok(())
        }
        Some("info") => {
            let path = args
                .get(1)
                .ok_or_else(|| BadError::InvalidArgument("trace info needs a FILE".into()))?;
            let trace = trace_io::load(path)?;
            let mut logins = 0u64;
            let mut logouts = 0u64;
            let mut subscribes = 0u64;
            let mut unsubscribes = 0u64;
            let mut reports = 0u64;
            let mut shelters = 0u64;
            for activity in &trace {
                match activity.kind {
                    ActivityKind::Login(_) => logins += 1,
                    ActivityKind::Logout(_) => logouts += 1,
                    ActivityKind::Subscribe { .. } => subscribes += 1,
                    ActivityKind::Unsubscribe { .. } => unsubscribes += 1,
                    ActivityKind::PublishReport(_) => reports += 1,
                    ActivityKind::PublishShelter(_) => shelters += 1,
                }
            }
            println!("activities:   {}", trace.len());
            if let (Some(first), Some(last)) = (trace.first(), trace.last()) {
                println!("span:         {} .. {}", first.at, last.at);
            }
            println!("logins:       {logins}");
            println!("logouts:      {logouts}");
            println!("subscribes:   {subscribes}");
            println!("unsubscribes: {unsubscribes}");
            println!("reports:      {reports}");
            println!("shelters:     {shelters}");
            Ok(())
        }
        _ => Err(BadError::InvalidArgument(
            "trace subcommands: generate, info".into(),
        )),
    }
}
