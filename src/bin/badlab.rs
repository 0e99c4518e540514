//! `badlab` — the command-line laboratory for the BAD edge-caching
//! reproduction.
//!
//! ```text
//! badlab policies                         list the caching policy catalog
//! badlab sim [options]                    run one Section V simulation
//! badlab proto [options]                  run one Section VI prototype replay
//! badlab trace generate [options] FILE    generate + save a subscriber trace
//! badlab trace info FILE                  summarize a saved trace
//! badlab pairs BENCH_prN.json             tabulate scripts/pairs.sh runs
//!                                         (reads BENCHMARK.json beside it)
//! ```
//!
//! Run `badlab help` (or any subcommand with `--help`) for options.

use std::collections::{BTreeMap, HashMap};
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
        Some("pairs") => cmd_pairs(&args[1..]),
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
           badlab pairs BENCH_prN.json\n\
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

/// Prints, per seed of a `scripts/pairs.sh` results file, one Markdown
/// row per workload and end-to-end metric: each side's median and
/// quartiles, the ratio of the medians, the pairs the change won, and
/// whether ROADMAP's claim rule holds (at least 9 of 10 pairs won, and
/// the medians further apart than the parent's quartiles). The metrics
/// and their better direction are read from the `BENCHMARK.json` in
/// the results file's directory.
fn cmd_pairs(args: &[String]) -> Result<(), BadError> {
    let path = args
        .first()
        .ok_or_else(|| BadError::InvalidArgument("pairs needs a BENCH_prN.json FILE".into()))?;
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path)
            .map_err(|e| BadError::InvalidArgument(format!("cannot read {}: {e}", path.display())))
            .and_then(|text| DataValue::parse_json(&text))
    };
    let path = std::path::Path::new(path);
    let declaration = path.with_file_name("BENCHMARK.json");
    let metrics = end_to_end(&read(&declaration)?)?;
    print!("{}", pairs_tables(&read(path)?, &metrics)?);
    Ok(())
}

/// The end-to-end metrics a `BENCHMARK.json` declares, in its order,
/// each with whether higher is better.
fn end_to_end(declaration: &DataValue) -> Result<Vec<(String, bool)>, BadError> {
    let malformed =
        || BadError::Parse("pairs: BENCHMARK.json's end_to_end is not a list of metrics".into());
    let metrics =
        (declaration.get("end_to_end").and_then(DataValue::as_array)).ok_or_else(malformed)?;
    (metrics.iter())
        .map(|metric| {
            let field = |name| metric.get(name).and_then(DataValue::as_str);
            match (field("name"), field("better")) {
                (Some(name), Some("higher")) => Ok((name.to_owned(), true)),
                (Some(name), Some("lower")) => Ok((name.to_owned(), false)),
                _ => Err(malformed()),
            }
        })
        .collect()
}

/// `workload → metric → one value per run`, in run order.
type Cells = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The cells of one side's runs.
fn side_cells(runs: &DataValue) -> Result<Cells, BadError> {
    let malformed = || BadError::Parse("pairs: a side is not a list of runs".into());
    let mut cells = Cells::new();
    for run in runs.as_array().ok_or_else(malformed)? {
        for (workload, metrics) in run.as_object().ok_or_else(malformed)? {
            let cell = cells.entry(workload.clone()).or_default();
            for (metric, value) in metrics.as_object().ok_or_else(malformed)? {
                let value = value.as_f64().ok_or_else(malformed)?;
                cell.entry(metric.clone()).or_default().push(value);
            }
        }
    }
    Ok(cells)
}

/// The tables [`cmd_pairs`] prints, one row per workload and metric of
/// `metrics` (a name, and whether higher is better).
fn pairs_tables(file: &DataValue, metrics: &[(String, bool)]) -> Result<String, BadError> {
    use std::fmt::Write;
    let seeds = (file.get("seeds").and_then(DataValue::as_object))
        .ok_or_else(|| BadError::Parse("pairs: no \"seeds\" object".into()))?;
    let mut out = String::new();
    for (seed, sides) in seeds {
        let side = |name: &str| {
            sides
                .get(name)
                .ok_or_else(|| BadError::Parse(format!("pairs: seed {seed} has no {name} side")))
                .and_then(side_cells)
        };
        let (parent, change) = (side("parent")?, side("change")?);
        let _ = writeln!(out, "seed {seed}\n");
        let _ = writeln!(
            out,
            "| workload | metric | parent median [q1, q3] | change median [q1, q3] \
             | change / parent | pairs won | claim |\n|---|---|---|---|---|---|---|"
        );
        for (workload, cells) in &parent {
            for (metric, higher_is_better) in metrics {
                let higher_is_better = *higher_is_better;
                let (Some(a), Some(b)) = (
                    cells.get(metric),
                    change.get(workload).and_then(|m| m.get(metric)),
                ) else {
                    continue;
                };
                let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
                let n = a.len().min(b.len());
                let won = (0..n).filter(|&i| better(b[i], a[i])).count();
                let ties = (0..n).filter(|&i| b[i] == a[i]).count();
                let (qa, qb) = (quartiles(a), quartiles(b));
                let claim = 10 * won >= 9 * n
                    && better(qb[1], qa[1])
                    && (qb[1] - qa[1]).abs() > qa[2] - qa[0];
                let won = match ties {
                    t if t == n => format!("{n} ties"),
                    0 => format!("{won}/{n}"),
                    t => format!("{won}/{n} ({t} ties)"),
                };
                let side = |q: [f64; 3]| format!("{} [{}, {}]", g4(q[1]), g4(q[0]), g4(q[2]));
                let _ = writeln!(
                    out,
                    "| {workload} | {metric} | {} | {} | {:.3} | {won} | {} |",
                    side(qa),
                    side(qb),
                    qb[1] / qa[1],
                    if claim { "holds" } else { "no" }
                );
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// First quartile, median and third quartile of `values`, the quartiles
/// as Python's `statistics.quantiles(values, n=4)` computes them (as
/// `bad-benchmark compare` does), the median of the sorted middle.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => return [f64::NAN; 3],
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    if n < 2 {
        return [median; 3];
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [quartile(1), median, quartile(3)]
}

/// `x` to four significant digits, as C's `%.4g` prints it.
fn g4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let sci = format!("{x:.3e}");
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` has an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` exponent is an integer");
    let trim = |s: String| {
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_owned()
        } else {
            s
        }
    };
    if (-4..4).contains(&exp) {
        trim(format!("{x:.*}", (3 - exp) as usize))
    } else {
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{}e{sign}{:02}", trim(mantissa.to_owned()), exp.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g4_prints_like_printf() {
        for (x, want) in [
            (1.0, "1"),
            (0.5442767877266474, "0.5443"),
            (311.2, "311.2"),
            (13390.4, "1.339e+04"),
            (182_900.0, "1.829e+05"),
            (0.000_123_45, "0.0001234"),
            (0.000_012_345, "1.234e-05"),
            (-2.5, "-2.5"),
            (9999.6, "1e+04"),
        ] {
            assert_eq!(g4(x), want, "{x}");
        }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    fn benchmark_metrics() -> Vec<(String, bool)> {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json"))
            .unwrap();
        end_to_end(&DataValue::parse_json(&text).unwrap()).unwrap()
    }

    /// The metrics come from the repository's `BENCHMARK.json`, with
    /// their better direction.
    #[test]
    fn end_to_end_metrics_are_declared() {
        let metrics = benchmark_metrics();
        let higher = |name: &str| metrics.iter().find(|(m, _)| m == name).map(|m| m.1);
        assert_eq!(higher("ops_per_s"), Some(true));
        assert_eq!(higher("hit_ratio"), Some(true));
        assert_eq!(higher("peak_rss_mib"), Some(false));
        assert_eq!(higher("get_p99_us"), Some(false));
        let broken = DataValue::parse_json(r#"{"end_to_end":[{"name":"x","better":"up"}]}"#);
        assert!(end_to_end(&broken.unwrap()).is_err());
    }

    /// A change that wins 9 of 10 pairs by more than the parent's
    /// quartile gap holds; one that wins 8, or wins by less than the
    /// gap, does not; ties count as not won.
    #[test]
    fn the_claim_rule() {
        let runs = |values: &[f64]| {
            let runs: Vec<String> = (values.iter())
                .map(|v| format!(r#"{{"w":{{"peak_rss_mib":{v},"hit_ratio":1}}}}"#))
                .collect();
            format!("[{}]", runs.join(","))
        };
        let parent: Vec<f64> = (0..10).map(|i| 50.0 + f64::from(i % 3)).collect();
        let table = |change: &[f64]| {
            let file = format!(
                r#"{{"seeds":{{"1":{{"parent":{},"change":{}}}}}}}"#,
                runs(&parent),
                runs(change)
            );
            pairs_tables(&DataValue::parse_json(&file).unwrap(), &benchmark_metrics()).unwrap()
        };
        let row = |table: &str, metric: &str| {
            let line = table
                .lines()
                .find(|l| l.contains(metric))
                .unwrap()
                .to_owned();
            line.split(" | ").map(str::to_owned).collect::<Vec<_>>()
        };
        let mut wins: Vec<f64> = vec![40.0; 10];
        wins[0] = 60.0;
        let t = table(&wins);
        assert_eq!(row(&t, "peak_rss_mib")[5..], ["9/10", "holds |"]);
        assert_eq!(row(&t, "hit_ratio")[5..], ["10 ties", "no |"]);
        wins[1] = 60.0;
        assert_eq!(row(&table(&wins), "peak_rss_mib")[5..], ["8/10", "no |"]);
        // Every pair won, by less than the parent's 2-MiB quartile gap.
        let close: Vec<f64> = parent.iter().map(|v| v - 0.5).collect();
        assert_eq!(row(&table(&close), "peak_rss_mib")[5..], ["10/10", "no |"]);
    }
}
