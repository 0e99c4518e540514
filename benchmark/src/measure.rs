//! What a pass reports: the end-to-end values, the cache's own counters,
//! the program profiler's lock and stage counters, the per-layer values
//! of the span folds, and the probe loops for the layers the driver only
//! reaches through the cluster.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bad_cache::CacheMetrics;
use bad_net::NetworkModel;
use bad_query::{ChannelSpec, ParamBindings};
use bad_storage::{Dataset, ResultStore, Schema};
use bad_telemetry::{ProfileConfig, Profiler, Registry, StagePath};
use bad_types::{BackendSubId, ByteSize, DataValue, TimeRange, Timestamp};

use crate::hist::Hist;
use crate::spans::{Fold, Name, Spans};
use crate::tape;

/// Named measurements of one pass.
pub type Values = BTreeMap<String, f64>;

pub fn put(out: &mut Values, key: &str, value: f64) {
    out.insert(key.to_owned(), value);
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The end-to-end values every pass reports, plus the exact counts the
/// passes of one run must agree on.
pub fn end_to_end(
    out: &mut Values,
    setup_s: f64,
    window_s: f64,
    ops: u64,
    get: &Hist,
    ingest: &Hist,
    hit_ratio: f64,
) {
    put(out, "setup_s", setup_s);
    put(out, "window_s", window_s);
    put(out, "ops", ops as f64);
    put(out, "ops_per_s", ops as f64 / window_s);
    put(out, "get_p50_us", us(get.quantile(0.50)));
    put(out, "get_p99_us", us(get.quantile(0.99)));
    put(out, "get_samples", get.count() as f64);
    put(out, "ingest_p99_us", us(ingest.quantile(0.99)));
    put(out, "ingest_samples", ingest.count() as f64);
    put(out, "hit_ratio", hit_ratio);
    put(out, "peak_rss_mib", peak_rss_mib());
}

/// Cache counters over the window, from two `CacheMetrics` snapshots.
pub fn cache_counts(out: &mut Values, before: &CacheMetrics, after: &CacheMetrics) -> f64 {
    let requested = after.requested_objects - before.requested_objects;
    let hits = after.hit_objects - before.hit_objects;
    let hit_bytes = (after.hit_bytes - before.hit_bytes).as_u64();
    let miss_bytes = (after.miss_bytes - before.miss_bytes).as_u64();
    put(out, "cache.requested_objects", requested as f64);
    put(out, "cache.hit_objects", hits as f64);
    put(
        out,
        "cache.miss_objects",
        (after.miss_objects - before.miss_objects) as f64,
    );
    put(
        out,
        "cache.byte_hit_ratio",
        hit_bytes as f64 / (hit_bytes + miss_bytes).max(1) as f64,
    );
    put(
        out,
        "cache.evicted_objects",
        (after.evicted_objects - before.evicted_objects) as f64,
    );
    put(
        out,
        "cache.expired_objects",
        (after.expired_objects - before.expired_objects) as f64,
    );
    put(
        out,
        "cache.consumed_objects",
        (after.consumed_objects - before.consumed_objects) as f64,
    );
    put(out, "cache.peak_mib", mib(after.max_bytes.as_u64()));
    hits as f64 / requested.max(1) as f64
}

/// Lock-site and stage counters of the program's own profiler.
pub fn profiler_counts(out: &mut Values, registry: &Registry, profiler: &Profiler) {
    profiler.flush_thread();
    let sites = profiler.lock_sites();
    let stage = |path: StagePath| {
        registry
            .histogram_with("bad_profile_stage_ns", &[("stage", path.name())])
            .count() as f64
    };
    put(
        out,
        "cache.lock_wait_s",
        secs(sites.iter().map(|s| s.wait_total_ns()).sum()),
    );
    put(
        out,
        "cache.lock_contended",
        sites.iter().map(|s| s.contentions()).sum::<u64>() as f64,
    );
    put(
        out,
        "cache.optimistic_reads",
        stage(StagePath::GetOptimisticRead),
    );
    put(
        out,
        "cache.seqlock_retries",
        stage(StagePath::GetSeqlockRetry),
    );
    put(out, "cache.ack_drains", stage(StagePath::GetAckDrain));
}

/// The program-side profiler the traced run attaches so the lock and
/// stage counters exist on every workload.
pub fn trace_profiler() -> (Registry, Profiler) {
    let registry = Registry::new();
    let profiler = Profiler::new(&registry, ProfileConfig::default());
    (registry, profiler)
}

/// Which aggregate of a span name a per-layer metric reports.
enum Stat {
    Calls,
    BusyS,
    SelfS,
    P50Us,
    P99Us,
    SelfP50Us,
}

impl Stat {
    fn of(&self, fold: &Fold) -> f64 {
        match self {
            Stat::Calls => fold.calls as f64,
            Stat::BusyS => secs(fold.busy_ns),
            Stat::SelfS => secs(fold.self_ns),
            Stat::P50Us => us(fold.hist.quantile(0.50)),
            Stat::P99Us => us(fold.hist.quantile(0.99)),
            Stat::SelfP50Us => us(fold.self_hist.quantile(0.50)),
        }
    }
}

/// The per-layer metrics that are aggregates of one span name.
const SPAN_METRICS: [(&str, Name, Stat); 30] = [
    ("cluster.publish_calls", Name::ClusterPublish, Stat::Calls),
    ("cluster.publish_busy_s", Name::ClusterPublish, Stat::BusyS),
    ("cluster.publish_p99_us", Name::ClusterPublish, Stat::P99Us),
    ("cluster.tick_calls", Name::ClusterTick, Stat::Calls),
    ("cluster.tick_busy_s", Name::ClusterTick, Stat::BusyS),
    ("cluster.tick_p99_us", Name::ClusterTick, Stat::P99Us),
    (
        "cluster.subscribe_busy_s",
        Name::ClusterSubscribe,
        Stat::BusyS,
    ),
    ("cluster.fetch_calls", Name::ClusterFetch, Stat::Calls),
    ("cluster.fetch_busy_s", Name::ClusterFetch, Stat::BusyS),
    ("cluster.populate_calls", Name::ClusterPopulate, Stat::Calls),
    (
        "cluster.populate_busy_s",
        Name::ClusterPopulate,
        Stat::BusyS,
    ),
    ("broker.get_calls", Name::BrokerGet, Stat::Calls),
    ("broker.get_self_s", Name::BrokerGet, Stat::SelfS),
    ("broker.get_self_p50_us", Name::BrokerGet, Stat::SelfP50Us),
    ("broker.get_all_calls", Name::BrokerGetAll, Stat::Calls),
    ("broker.get_all_self_s", Name::BrokerGetAll, Stat::SelfS),
    ("broker.notify_calls", Name::BrokerNotify, Stat::Calls),
    ("broker.notify_self_s", Name::BrokerNotify, Stat::SelfS),
    ("broker.subscribe_calls", Name::BrokerSubscribe, Stat::Calls),
    (
        "broker.subscribe_self_s",
        Name::BrokerSubscribe,
        Stat::SelfS,
    ),
    ("broker.maintain_calls", Name::BrokerMaintain, Stat::Calls),
    ("broker.maintain_busy_s", Name::BrokerMaintain, Stat::BusyS),
    ("broker.maintain_p99_us", Name::BrokerMaintain, Stat::P99Us),
    ("cache.insert_p50_us", Name::CacheInsert, Stat::P50Us),
    ("cache.plan_get_p50_us", Name::CachePlanGet, Stat::P50Us),
    ("cache.ack_p50_us", Name::CacheAck, Stat::P50Us),
    ("cache.maintain_busy_s", Name::CacheMaintain, Stat::BusyS),
    (
        "telemetry.scrape_render_ms",
        Name::TelemetryScrape,
        Stat::P50Us,
    ),
    ("telemetry.scrape_calls", Name::TelemetryScrape, Stat::Calls),
    (
        "telemetry.scrape_busy_s",
        Name::TelemetryScrape,
        Stat::BusyS,
    ),
];

/// What registering the initial subscriptions cost each layer. Recorded
/// before the window opens; [`span_values`] adds the window's churn.
pub fn registration(out: &mut Values, spans: &Spans) {
    let (cluster, broker) = (
        spans.fold(Name::ClusterSubscribe),
        spans.fold(Name::BrokerSubscribe),
    );
    put(out, "cluster.subscribe_busy_s", secs(cluster.busy_ns));
    put(out, "broker.subscribe_calls", broker.calls as f64);
    put(out, "broker.subscribe_self_s", secs(broker.self_ns));
}

/// Per-layer values of a traced pass. `capacity_ns` is the wall time
/// there was to attribute: the window, times the threads driving it.
/// Counts and times add to whatever set-up recorded under the same name.
pub fn span_values(out: &mut Values, spans: &Spans, capacity_ns: u64) {
    for (metric, name, stat) in SPAN_METRICS {
        *out.entry(metric.to_owned()).or_insert(0.0) += stat.of(spans.fold(name));
    }
    let render_ms = out["telemetry.scrape_render_ms"] / 1e3;
    put(out, "telemetry.scrape_render_ms", render_ms);
    let attributed = spans.attributed_ns();
    put(
        out,
        "bench.driver_self_s",
        secs(capacity_ns.saturating_sub(attributed)),
    );
    put(
        out,
        "bench.attributed_share",
        attributed as f64 / capacity_ns as f64,
    );
}

/// Short timing loops over tape records, run after a traced window, for
/// the layers the driver reaches only through the cluster.
pub fn probes(out: &mut Values, tape_channels: &[&str], sample: &[DataValue], net: &NetworkModel) {
    let per = |total_ns: u128, n: usize| total_ns as f64 / n.max(1) as f64;

    const PARSE_REPS: usize = 200;
    let start = Instant::now();
    for _ in 0..PARSE_REPS {
        for bql in tape_channels {
            black_box(ChannelSpec::parse(black_box(bql)).expect("tape channels parse"));
        }
    }
    put(
        out,
        "query.parse_us_per_channel",
        per(start.elapsed().as_nanos(), PARSE_REPS * tape_channels.len()) / 1e3,
    );

    // Evaluate each channel's predicate on the sample under parameters
    // that name a field the records do not match on, so evaluation runs
    // to the end of the predicate.
    let specs: Vec<ChannelSpec> = tape_channels
        .iter()
        .map(|bql| ChannelSpec::parse(bql).expect("tape channels parse"))
        .collect();
    let start = Instant::now();
    let mut evaluated = 0usize;
    for spec in &specs {
        let params = ParamBindings::from_pairs(spec.params().iter().map(|p| {
            let value = match p.name.as_str() {
                "stream" | "minsev" => DataValue::from(3i64),
                "area" => tape::probe_area(),
                _ => DataValue::from("flood"),
            };
            (p.name.clone(), value)
        }));
        for record in sample {
            let _ = black_box(spec.matches(black_box(record), &params));
            evaluated += 1;
        }
    }
    put(
        out,
        "query.eval_ns_per_record",
        per(start.elapsed().as_nanos(), evaluated),
    );

    let copies: Vec<DataValue> = sample.to_vec();
    let mut dataset = Dataset::new("probe", Schema::open());
    let start = Instant::now();
    for (i, record) in copies.into_iter().enumerate() {
        let _ = black_box(dataset.insert(Timestamp::from_micros(i as u64 + 1), record));
    }
    put(
        out,
        "storage.dataset_insert_ns",
        per(start.elapsed().as_nanos(), sample.len()),
    );

    let mut store = ResultStore::new();
    let bs = BackendSubId::new(0);
    for (i, record) in sample.iter().enumerate() {
        store.append(
            bs,
            Timestamp::from_micros(i as u64 + 1),
            record.clone(),
            None,
        );
    }
    const FETCH_REPS: usize = 20;
    let all = TimeRange::closed(Timestamp::ZERO, Timestamp::from_micros(sample.len() as u64));
    let start = Instant::now();
    for _ in 0..FETCH_REPS {
        black_box(store.fetch(bs, all));
    }
    put(
        out,
        "storage.result_fetch_ns_per_object",
        per(start.elapsed().as_nanos(), FETCH_REPS * sample.len()),
    );

    const NET_REPS: u64 = 100_000;
    let start = Instant::now();
    for i in 0..NET_REPS {
        black_box(net.delivery_latency(ByteSize::new(black_box(i)), ByteSize::new(i & 1023)));
    }
    put(
        out,
        "net.model_ns_per_call",
        per(start.elapsed().as_nanos(), NET_REPS as usize),
    );
}
