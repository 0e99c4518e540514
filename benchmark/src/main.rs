//! The repository's benchmark. See `README.md` beside this crate.
//!
//! ```text
//! bad-benchmark run [--workload NAME] [--seed S] [--seconds N] [--passes P]
//!                   [--trace 0|1] [--smoke] [--json FILE]
//! bad-benchmark compare A.json B.json
//! bad-benchmark aa N [--seed S] [--seconds N]
//! ```
//!
//! `run` spends `--seconds` on each workload, split over `--passes`
//! passes; every pass is a child process of its own (`pass`, internal).

mod driver;
mod hist;
mod measure;
mod observed;
mod report;
mod rng;
mod rw;
mod spans;
mod tape;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bad_types::DataValue;

use driver::Workload;
use measure::Values;
use report::{Better, END_TO_END, EXACT, PER_LAYER};

type Failure = String;

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> (Vec<String>, Flags) {
        let (mut positional, mut flags) = (Vec::new(), BTreeMap::new());
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next_if(|v| !v.starts_with("--"));
                    flags.insert(name.to_owned(), value.cloned().unwrap_or_default());
                }
                None => positional.push(arg.clone()),
            }
        }
        (positional, Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> std::result::Result<T, Failure> {
        match self.0.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
            None => Ok(default),
        }
    }
}

fn json_object(values: &Values) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("{k:?}:{:?}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Where traces and result files go: beside the build, which the root
/// `.gitignore` already covers.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let target = exe.parent().and_then(|p| p.parent());
    target
        .expect("binary sits in <target>/<profile>/")
        .join("out")
}

/// The child side of one pass: run it, print its values as one JSON line.
fn pass(flags: &Flags, started: Instant) -> std::result::Result<(), Failure> {
    let name: String = flags.get("workload", String::new())?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = flags.get("seed", 1u64)?;
    let window = flags.get("window", 5.0f64)?;
    let trace = flags.get("trace", 0u8)? == 1;
    let result = match workload {
        Workload::CacheRw2t => rw::run_pass(seed, window, trace, started),
        _ => driver::run_pass(workload, seed, window, trace, started),
    };
    let (values, spans) = result.map_err(|e| format!("{name}: {e}"))?;
    if trace {
        let dir = out_dir();
        let path = dir.join(format!("{name}.trace.jsonl"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", json_object(&values));
    Ok(())
}

/// Runs one pass in a child process and reads its values back.
fn spawn_pass(
    workload: Workload,
    seed: u64,
    window: f64,
    trace: bool,
) -> std::result::Result<Values, Failure> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["pass", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--window", &window.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start pass: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} pass ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let parsed = DataValue::parse_json(line).map_err(|e| format!("pass output: {e}"))?;
    let object = parsed.as_object().ok_or("pass output is not an object")?;
    Ok(object
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    Traced,
    /// An untraced pass of the other of `t2_fit` / `t2_fit_observed`,
    /// for the observability tax.
    Counterpart,
}

/// What one workload's passes reduced to.
struct Outcome {
    /// `metric → (reported value, value of each pass)`.
    metrics: BTreeMap<&'static str, (f64, Vec<f64>)>,
    attempted: u64,
    failed: u64,
    deterministic: bool,
    /// Window length and latency sample counts of a typical pass.
    detail: String,
}

/// What the latency percentiles of a pass rest on.
fn detail(pass: &Values) -> String {
    format!(
        "window {:.2} s, {} retrieval and {} ingest samples per pass",
        pass["window_s"], pass["get_samples"], pass["ingest_samples"]
    )
}

fn column(passes: &[&Values], key: &str) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.get(key).copied().unwrap_or(0.0))
        .collect()
}

/// Reduces the passes of one workload: the median pass for each
/// end-to-end metric, failures summed, exact values compared.
fn reduce(workload: Workload, trace: bool, passes: &[(Kind, Values)]) -> Outcome {
    let of = |kind: Kind| -> Vec<&Values> {
        let matching = passes.iter().filter(|(k, _)| *k == kind);
        matching.map(|(_, v)| v).collect()
    };
    let plain = of(Kind::Plain);
    let own: Vec<&Values> = passes
        .iter()
        .filter(|(k, _)| *k != Kind::Counterpart)
        .map(|(_, v)| v)
        .collect();
    let deterministic = EXACT.iter().all(|key| {
        let col = column(&own, key);
        col.iter().all(|v| v.to_bits() == col[0].to_bits())
    });
    let failed = column(&own, "failed").iter().sum::<f64>() as u64;
    let plain_ops = report::median(&column(&plain, "ops_per_s"));

    let mut metrics = BTreeMap::new();
    if !trace {
        for m in &END_TO_END {
            let col = column(&plain, m.name);
            metrics.insert(m.name, (report::median(&col), col));
        }
        return Outcome {
            metrics,
            attempted: column(&plain, "ops").iter().sum::<f64>() as u64,
            failed,
            deterministic,
            detail: detail(plain[0]),
        };
    }

    let traced = of(Kind::Traced)[0];
    let mut layer: Values = traced.clone();
    let spread_ops = column(&plain, "ops_per_s");
    let (lo, hi) = spread_ops
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    layer.insert("bench.pass_spread_ops".into(), hi / lo);
    layer.insert(
        "bench.trace_overhead_ratio".into(),
        plain_ops / traced["ops_per_s"],
    );
    layer.insert("bench.attempted_ops".into(), traced["ops"]);
    layer.insert("bench.failed_ops".into(), traced["failed"]);
    if let Some(other) = of(Kind::Counterpart).first() {
        // Always t2_fit over t2_fit_observed, whichever of the two ran.
        let (mine, theirs) = (plain_ops, other["ops_per_s"]);
        let tax = match workload {
            Workload::T2FitObserved => theirs / mine,
            _ => mine / theirs,
        };
        layer.insert("telemetry.observed_tax_ratio".into(), tax);
    }
    for (name, _, _) in PER_LAYER {
        let value = layer.get(name).copied().unwrap_or(0.0);
        metrics.insert(name, (value, vec![value]));
    }
    Outcome {
        metrics,
        attempted: traced["ops"] as u64,
        failed,
        deterministic,
        detail: detail(traced),
    }
}

struct Plan {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    passes: usize,
    trace: bool,
    smoke: bool,
}

impl Plan {
    fn from(flags: &Flags) -> std::result::Result<Plan, Failure> {
        let workloads = match flags.0.get("workload") {
            Some(name) => vec![Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?],
            None => Workload::ALL.to_vec(),
        };
        let smoke = flags.has("smoke");
        let passes = flags.get("passes", 3)?;
        if passes == 0 {
            return Err("--passes must be at least 1".into());
        }
        Ok(Plan {
            workloads,
            seed: flags.get("seed", 1)?,
            seconds: flags.get("seconds", 15.0)?,
            passes,
            trace: flags.get("trace", 0u8)? == 1 || smoke,
            smoke,
        })
    }

    /// The passes of one workload, in order.
    fn kinds(&self, workload: Workload) -> Vec<Kind> {
        if self.smoke {
            return vec![Kind::Traced];
        }
        if !self.trace {
            return vec![Kind::Plain; self.passes];
        }
        let mut kinds = vec![Kind::Plain, Kind::Traced, Kind::Plain];
        if matches!(workload, Workload::T2Fit | Workload::T2FitObserved) {
            kinds.push(Kind::Counterpart);
        }
        kinds
    }

    /// Seconds of measured window per pass.
    fn window(&self) -> f64 {
        if self.smoke {
            0.25
        } else {
            self.seconds / self.passes as f64
        }
    }

    /// Runs every pass, round-robin over the workloads so that the
    /// passes of one workload are as far apart in time as the run allows.
    fn execute(&self) -> std::result::Result<Vec<(Workload, Outcome)>, Failure> {
        let mut passes: Vec<Vec<(Kind, Values)>> = vec![Vec::new(); self.workloads.len()];
        let rounds = self.workloads.iter().map(|w| self.kinds(*w).len()).max();
        for round in 0..rounds.unwrap_or(0) {
            for (i, &workload) in self.workloads.iter().enumerate() {
                let Some(&kind) = self.kinds(workload).get(round) else {
                    continue;
                };
                let target = match (kind, workload) {
                    (Kind::Counterpart, Workload::T2Fit) => Workload::T2FitObserved,
                    (Kind::Counterpart, _) => Workload::T2Fit,
                    _ => workload,
                };
                let traced = kind == Kind::Traced;
                let values = spawn_pass(target, self.seed, self.window(), traced)?;
                passes[i].push((kind, values));
            }
        }
        let outcome = |(workload, passes): (&Workload, &Vec<(Kind, Values)>)| {
            let reduced = match self.smoke {
                true => smoke_outcome(&passes[0].1),
                false => reduce(*workload, self.trace, passes),
            };
            (*workload, reduced)
        };
        Ok(self.workloads.iter().zip(&passes).map(outcome).collect())
    }
}

/// Both metric tables from one short traced pass: enough to see that
/// every metric prints and every delivery checks out, nothing more.
fn smoke_outcome(values: &Values) -> Outcome {
    let mut metrics = BTreeMap::new();
    let names = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|(name, _, _)| *name));
    for name in names {
        let value = values.get(name).copied().unwrap_or(0.0);
        metrics.insert(name, (value, vec![value]));
    }
    Outcome {
        metrics,
        attempted: values["ops"] as u64,
        failed: values["failed"] as u64,
        deterministic: true,
        detail: detail(values),
    }
}

fn print_outcome(workload: Workload, outcome: &Outcome) {
    println!(
        "\n== {} == failed {}/{} attempted; {}{}",
        workload.name(),
        outcome.failed,
        outcome.attempted,
        outcome.detail,
        if outcome.deterministic {
            ""
        } else {
            "  PASSES DISAGREE ON EXACT COUNTS"
        }
    );
    let row = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let Some((value, passes)) = outcome.metrics.get(name) else {
            return;
        };
        let bound = bound.map_or(String::new(), |b| format!("bound {:.0}%", b * 100.0));
        let passes: Vec<String> = passes.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{name:<34} {value:>16.4} {unit:<6} {:<6} {bound:<10} [{}]",
            better.label(),
            passes.join(", ")
        );
    };
    for m in &END_TO_END {
        row(m.name, m.unit, m.better, Some(m.bound));
    }
    for (name, unit, better) in PER_LAYER {
        row(name, unit, better, None);
    }
}

/// One run's values as a `workload → metric → value` JSON object.
fn run_json(outcomes: &[(Workload, Outcome)]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|(w, o)| {
            let mut values: Values = o
                .metrics
                .iter()
                .map(|(k, (v, _))| ((*k).to_owned(), *v))
                .collect();
            values.insert("attempted".into(), o.attempted as f64);
            values.insert("failed".into(), o.failed as f64);
            format!("{:?}:{}", w.name(), json_object(&values))
        })
        .collect();
    format!("{{{}}}", workloads.join(","))
}

/// A results file: the envelope a number is meaningless without, and
/// one entry of `runs` per run.
fn results_file(plan: &Plan, runs: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"claim\":null,\"nproc\":{nproc},\"rustc\":{rustc:?},\"seed\":{},\"seconds\":{:?},\
         \"passes\":{},\"runs\":[\n{}\n]}}\n",
        plan.seed,
        plan.seconds,
        plan.passes,
        runs.join(",\n")
    )
}

fn write_file(path: &str, text: &str) -> std::result::Result<(), Failure> {
    if let Some(dir) = PathBuf::from(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run(flags: &Flags) -> std::result::Result<bool, Failure> {
    let plan = Plan::from(flags)?;
    let outcomes = plan.execute()?;
    for (workload, outcome) in &outcomes {
        print_outcome(*workload, outcome);
    }
    if let Some(path) = flags.0.get("json") {
        write_file(path, &results_file(&plan, &[run_json(&outcomes)]))?;
    }
    let correct = outcomes
        .iter()
        .all(|(_, o)| o.failed == 0 && o.deterministic);
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    // The last line: the one workload's metrics, or a summary of several.
    let metrics = match outcomes.as_slice() {
        [(_, only)] if !plan.smoke => {
            let unit_of = |name: &str| {
                let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
                let layer = PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1);
                e2e.or(layer).unwrap_or("")
            };
            let fields: Vec<String> = only
                .metrics
                .iter()
                .map(|(k, (v, _))| format!("{k:?}:{{\"value\":{v:?},\"unit\":{:?}}}", unit_of(k)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        _ => "{}".to_owned(),
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    );
    Ok(correct)
}

fn read_cells(path: &str) -> std::result::Result<report::Cells, Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = DataValue::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    report::cells(&file).ok_or(format!("{path}: not a results file"))
}

fn compare(paths: &[String]) -> std::result::Result<bool, Failure> {
    let [a, b] = paths else {
        return Err("compare takes two results files".into());
    };
    let (table, regressed) = report::compare(&read_cells(a)?, &read_cells(b)?);
    print!("{table}");
    Ok(!regressed)
}

/// A/A self-check: two interleaved sets of runs of this same build must
/// agree, cell by cell, within the benchmark's own bounds.
fn aa(positional: &[String], flags: &Flags) -> std::result::Result<bool, Failure> {
    let n: usize = match positional {
        [n] => n.parse().map_err(|_| format!("aa: cannot read `{n}`"))?,
        _ => return Err("aa takes the number of runs per set".into()),
    };
    let plan = Plan::from(flags)?;
    let (mut set_a, mut set_b) = (Vec::new(), Vec::new());
    let mut correct = true;
    for i in 0..n {
        for (label, set) in [("A", &mut set_a), ("B", &mut set_b)] {
            eprintln!("aa: run {} of set {label}", i + 1);
            let outcomes = plan.execute()?;
            correct &= outcomes
                .iter()
                .all(|(_, o)| o.failed == 0 && o.deterministic);
            set.push(run_json(&outcomes));
        }
    }
    let dir = out_dir();
    let (path_a, path_b) = (dir.join("aa-a.json"), dir.join("aa-b.json"));
    write_file(&path_a.to_string_lossy(), &results_file(&plan, &set_a))?;
    write_file(&path_b.to_string_lossy(), &results_file(&plan, &set_b))?;
    let (a, b) = (
        read_cells(&path_a.to_string_lossy())?,
        read_cells(&path_b.to_string_lossy())?,
    );
    // Same build on both sides, so a cell "regressed" in either
    // direction is the instrument disagreeing with itself.
    let (table, a_to_b) = report::compare(&a, &b);
    let (_, b_to_a) = report::compare(&b, &a);
    print!("{table}");
    println!(
        "sets written to {} and {}",
        path_a.display(),
        path_b.display()
    );
    Ok(correct && !a_to_b && !b_to_a)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("run", &[][..]),
    };
    let (positional, flags) = Flags::parse(rest);
    let outcome = match command {
        "pass" => pass(&flags, started).map(|()| true),
        "run" => run(&flags),
        "compare" => compare(&positional),
        "aa" => aa(&positional, &flags),
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bad-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
