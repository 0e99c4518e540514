//! The metric tables (kept in step with `BENCHMARK.json`), the
//! statistics a run and a comparison are reduced with, and `compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bad_types::DataValue;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "get_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "get_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ingest_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.18,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.15,
    },
];

/// Values every pass of one workload and seed must agree on exactly.
pub const EXACT: [&str; 11] = [
    "ops",
    "hit_ratio",
    "deliveries",
    "delivered_objects",
    "net.mean_delivery_ms",
    "cache.requested_objects",
    "cache.hit_objects",
    "cache.miss_objects",
    "cache.evicted_objects",
    "cache.expired_objects",
    "cache.consumed_objects",
];

use Better::{Higher, Lower};

/// Per-layer metrics: name, unit, direction. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, Better); 66] = [
    ("cluster.publish_calls", "count", Lower),
    ("cluster.publish_busy_s", "s", Lower),
    ("cluster.publish_p99_us", "us", Lower),
    ("cluster.tick_calls", "count", Lower),
    ("cluster.tick_busy_s", "s", Lower),
    ("cluster.tick_p99_us", "us", Lower),
    ("cluster.results_per_publication", "ratio", Higher),
    ("cluster.subscribe_busy_s", "s", Lower),
    ("cluster.fetch_calls", "count", Lower),
    ("cluster.fetch_busy_s", "s", Lower),
    ("cluster.fetch_mib", "MiB", Lower),
    ("cluster.populate_calls", "count", Lower),
    ("cluster.populate_busy_s", "s", Lower),
    ("broker.get_calls", "count", Higher),
    ("broker.get_self_s", "s", Lower),
    ("broker.get_self_p50_us", "us", Lower),
    ("broker.get_all_calls", "count", Higher),
    ("broker.get_all_self_s", "s", Lower),
    ("broker.notify_calls", "count", Higher),
    ("broker.notify_self_s", "s", Lower),
    ("broker.notify_fanout_mean", "ratio", Higher),
    ("broker.subscribe_calls", "count", Higher),
    ("broker.subscribe_self_s", "s", Lower),
    ("broker.maintain_calls", "count", Lower),
    ("broker.maintain_busy_s", "s", Lower),
    ("broker.maintain_p99_us", "us", Lower),
    ("broker.coalesced_fetches", "count", Higher),
    ("broker.duplicate_mib_saved", "MiB", Higher),
    ("cache.requested_objects", "count", Higher),
    ("cache.hit_objects", "count", Higher),
    ("cache.miss_objects", "count", Lower),
    ("cache.byte_hit_ratio", "ratio", Higher),
    ("cache.evicted_objects", "count", Lower),
    ("cache.expired_objects", "count", Lower),
    ("cache.consumed_objects", "count", Higher),
    ("cache.peak_mib", "MiB", Lower),
    ("cache.insert_p50_us", "us", Lower),
    ("cache.plan_get_p50_us", "us", Lower),
    ("cache.ack_p50_us", "us", Lower),
    ("cache.maintain_busy_s", "s", Lower),
    ("cache.rw_overlap_share", "ratio", Higher),
    ("cache.lock_wait_s", "s", Lower),
    ("cache.lock_contended", "count", Lower),
    ("cache.optimistic_reads", "count", Higher),
    ("cache.seqlock_retries", "count", Lower),
    ("cache.ack_drains", "count", Lower),
    ("net.mean_delivery_ms", "ms", Lower),
    ("net.model_ns_per_call", "ns", Lower),
    ("query.parse_us_per_channel", "us", Lower),
    ("query.eval_ns_per_record", "ns", Lower),
    ("storage.dataset_insert_ns", "ns", Lower),
    ("storage.result_fetch_ns_per_object", "ns", Lower),
    ("storage.result_store_mib", "MiB", Lower),
    ("telemetry.scrape_render_ms", "ms", Lower),
    ("telemetry.scrape_calls", "count", Lower),
    ("telemetry.scrape_busy_s", "s", Lower),
    ("telemetry.scrape_kib", "KiB", Lower),
    ("telemetry.events_recorded", "count", Lower),
    ("telemetry.spans_recorded", "count", Lower),
    ("telemetry.observed_tax_ratio", "ratio", Lower),
    ("bench.driver_self_s", "s", Lower),
    ("bench.attributed_share", "ratio", Higher),
    ("bench.trace_overhead_ratio", "ratio", Lower),
    ("bench.pass_spread_ops", "ratio", Lower),
    ("bench.attempted_ops", "count", Higher),
    ("bench.failed_ops", "count", Lower),
];

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`.
/// `None` below two values, where no quartile exists.
pub fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// `workload → metric → one value per run` of a results file.
pub type Cells = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the `runs` of a results file written by `run --json`.
pub fn cells(file: &DataValue) -> Option<Cells> {
    let mut out = Cells::new();
    for run in file.get("runs")?.as_array()? {
        for (workload, metrics) in run.as_object()? {
            let cell = out.entry(workload.clone()).or_default();
            for (metric, value) in metrics.as_object()? {
                cell.entry(metric.clone())
                    .or_default()
                    .push(value.as_f64()?);
            }
        }
    }
    Some(out)
}

/// One row per workload × end-to-end metric: both medians, the ratio of
/// `b` over its base `a`, the bound, and a verdict. Returns the table and
/// whether any cell regressed.
pub fn compare(a: &Cells, b: &Cells) -> (String, bool) {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound", "spread"
    );
    for (workload, metrics) in a {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics.get(m.name),
                b.get(workload).and_then(|w| w.get(m.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let ratio = mb / ma;
            let worse_by = match m.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let widest = spread(va).into_iter().chain(spread(vb)).fold(0.0, f64::max);
            let verdict = if widest > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{workload:<16} {:<14} {ma:>14.4} {mb:>14.4} {ratio:>9.4} {:>7.2} {widest:>8.4}  {verdict}",
                m.name, m.bound
            );
        }
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the program prints. They must name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let file = DataValue::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let field = |entry: &DataValue, key: &str| {
            let value = entry.get(key).unwrap();
            value
                .as_str()
                .map_or_else(|| value.to_json_string(), str::to_owned)
        };
        let listed = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let entries = file.get(key).unwrap().as_array().unwrap();
            entries
                .iter()
                .map(|e| fields.iter().map(|f| field(e, f)).collect())
                .collect()
        };
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                let bound = DataValue::Float(m.bound).to_json_string();
                vec![m.name.into(), m.unit.into(), m.better.label().into(), bound]
            })
            .collect();
        assert_eq!(
            listed("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(name, unit, better)| vec![(*name).into(), (*unit).into(), better.label().into()])
            .collect();
        assert_eq!(listed("per_layer", &["name", "unit", "better"]), per_layer);
        let workloads: Vec<Vec<String>> = crate::driver::Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_owned()])
            .collect();
        assert_eq!(listed("workloads", &["name"]), workloads);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        // == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let got = spread(&v).unwrap();
        assert!((got - (160.0 - 3.5) / 24.0).abs() < 1e-12, "{got}");
        assert_eq!(spread(&[1.0]), None);
    }
}
