//! A named-metric registry with a Prometheus text exposition renderer.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed:
//! registration takes a lock on a `BTreeMap`, but every subsequent
//! increment is a single relaxed atomic op, so hot paths register once
//! and keep the handle. The registry itself is cheaply cloneable and
//! all clones share the same metric store.
//!
//! State with a single writer — a broker under `&mut`, a cache shard
//! under its mutex — pays no atomic read-modify-write at all: it takes
//! an owner cell of the series ([`Registry::owner_counter`],
//! [`Registry::owner_histogram`]) and bumps it with a plain load and
//! store. Every read of the series (handles, [`Registry::render`],
//! [`Registry::counter_values`]) sums its cells in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, OwnerHistogram};

/// One counter series: the register [`Counter`] handles add to
/// atomically, plus the cells of its [`OwnerCounter`]s.
#[derive(Debug, Default)]
struct CounterSeries {
    shared: AtomicU64,
    cells: Mutex<Vec<Arc<AtomicU64>>>,
}

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    series: Arc<CounterSeries>,
}

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.series.shared.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.series.shared.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one with a plain load and store instead of an
    /// atomic read-modify-write. Exact while every writer of the
    /// counter holds one common lock; writers that do not can lose
    /// increments to each other, never corrupt the value.
    #[inline]
    pub(crate) fn inc_under_lock(&self) {
        store_add(&self.series.shared, 1);
    }

    /// Current value: the shared register plus every owner cell.
    pub fn get(&self) -> u64 {
        let cells = self.series.cells.lock().expect("counter cells poisoned");
        cells
            .iter()
            .fold(self.series.shared.load(Ordering::Relaxed), |sum, cell| {
                sum.wrapping_add(cell.load(Ordering::Relaxed))
            })
    }

    /// Registers a new owner cell on this counter's series (see
    /// [`OwnerCounter`]).
    pub(crate) fn owner(&self) -> OwnerCounter {
        let cell = Arc::new(AtomicU64::new(0));
        self.series
            .cells
            .lock()
            .expect("counter cells poisoned")
            .push(Arc::clone(&cell));
        OwnerCounter {
            series: self.clone(),
            cell,
        }
    }
}

/// Adds `n` to `register` with a plain load and store.
#[inline]
fn store_add(register: &AtomicU64, n: u64) {
    let v = register.load(Ordering::Relaxed);
    register.store(v.wrapping_add(n), Ordering::Relaxed);
}

/// One owner's cell of a counter series: [`OwnerCounter::add`] is a
/// plain load and store, no atomic read-modify-write, and every read of
/// the series sums the cell in. For state with a single writer, so no
/// increment is ever lost.
///
/// Cloning registers a *new* cell on the same series: a clone is a new
/// owner, never a second writer of this cell.
#[derive(Debug)]
pub struct OwnerCounter {
    series: Counter,
    cell: Arc<AtomicU64>,
}

impl OwnerCounter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        store_add(&self.cell, 1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        store_add(&self.cell, n);
    }
}

impl Clone for OwnerCounter {
    fn clone(&self) -> Self {
        self.series.owner()
    }
}

/// A gauge holding an arbitrary `u64` (occupancy bytes, queue depth).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increments by one (queue-depth gauges: one enqueue).
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one, saturating at zero (one dequeue — saturation
    /// guards a racing read between a send and its depth bump).
    #[inline]
    pub fn dec(&self) {
        let mut current = self.value.load(Ordering::Relaxed);
        while current > 0 {
            match self.value.compare_exchange_weak(
                current,
                current - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote and newline must be escaped or a hostile
/// value (a policy name, a cache label) would corrupt the scrape text.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds the storage/render key `name{k="v",…}` (or just `name` with
/// no labels), escaping every label value.
fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut key = String::with_capacity(name.len() + labels.len() * 16);
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        key.push_str(&escape_label_value(v));
        key.push('"');
    }
    key.push('}');
    key
}

/// Splits a storage key into its metric base name and the label block
/// (without braces), if any.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(brace) => (&key[..brace], Some(&key[brace + 1..key.len() - 1])),
        None => (key, None),
    }
}

/// Renders one scalar metric kind (counters or gauges), grouping
/// labeled series of the same base name under one `# TYPE` header.
fn render_scalar<T>(
    out: &mut String,
    kind: &str,
    map: &BTreeMap<String, T>,
    get: impl Fn(&T) -> u64,
) {
    let mut families: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    for (key, metric) in map {
        let (base, _) = split_key(key);
        families.entry(base).or_default().push((key, get(metric)));
    }
    for (base, series) in &families {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        for (key, value) in series {
            let _ = writeln!(out, "{key} {value}");
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// The shared metric store. `Clone` is shallow: all clones render the
/// same metrics, so one registry can span broker, cache and cluster.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Returns the counter `name{labels}`, creating it on first use.
    /// Label values are escaped; series of one name render under a
    /// single `# TYPE` header.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut map = self
            .inner
            .counters
            .lock()
            .expect("counter registry poisoned");
        map.entry(labeled_key(name, labels)).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Returns the gauge `name{labels}`, creating it on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut map = self.inner.gauges.lock().expect("gauge registry poisoned");
        map.entry(labeled_key(name, labels)).or_default().clone()
    }

    /// A new owner cell of the counter named `name` (see
    /// [`OwnerCounter`]), creating the series on first use.
    pub fn owner_counter(&self, name: &str) -> OwnerCounter {
        self.counter(name).owner()
    }

    /// A new owner cell of the histogram named `name` (see
    /// [`OwnerHistogram`]), creating the series on first use.
    pub fn owner_histogram(&self, name: &str) -> OwnerHistogram {
        self.histogram(name).owner()
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Returns the histogram `name{labels}`, creating it on first use.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut map = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry poisoned");
        map.entry(labeled_key(name, labels)).or_default().clone()
    }

    /// Returns the histogram `name{labels}`, creating it *with
    /// per-bucket exemplar retention* on first use (see
    /// [`Histogram::with_exemplars`]). If the series already exists —
    /// with or without exemplars — the existing handle is returned
    /// unchanged, so registration order decides exemplar storage.
    /// Rendering is identical either way: exemplars never appear in
    /// the Prometheus text format.
    pub fn histogram_with_exemplars(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut map = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry poisoned");
        map.entry(labeled_key(name, labels))
            .or_insert_with(Histogram::with_exemplars)
            .clone()
    }

    /// Enumerates every registered counter as `(key, value)` in key
    /// order, where `key` is the full storage key (`name{labels}`).
    /// One lock + one pass; the timeseries snapshotter calls this once
    /// per window, never on the hot path.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Enumerates every registered gauge as `(key, value)` in key order.
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        self.inner
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Enumerates every registered histogram as `(key, buckets, sum)`
    /// in key order — raw bucket counts, not quantiles, so windowed
    /// deltas stay exact under merging.
    pub fn histogram_states(&self) -> Vec<(String, [u64; crate::histogram::BUCKET_COUNT], u64)> {
        self.inner
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.bucket_counts(), h.sum()))
            .collect()
    }

    /// Renders every registered metric in the Prometheus text
    /// exposition format. Counters and gauges are one sample each;
    /// histograms render as summaries (`{quantile="…"}` samples plus
    /// `_sum`/`_count`) with an extra `_max` gauge, since log-bucketed
    /// maxima are exact while quantiles are approximate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_scalar(
            &mut out,
            "counter",
            &self
                .inner
                .counters
                .lock()
                .expect("counter registry poisoned"),
            Counter::get,
        );
        render_scalar(
            &mut out,
            "gauge",
            &self.inner.gauges.lock().expect("gauge registry poisoned"),
            Gauge::get,
        );
        // Group histogram series by base name so labeled variants of
        // one metric share a single `# TYPE` header. (BTreeMap order
        // alone is not enough: `'{'` sorts after `'_'`, so a labeled
        // series would otherwise split its family around `name_sum`.)
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram registry poisoned");
        let mut families: BTreeMap<&str, Vec<(&str, Option<&str>)>> = BTreeMap::new();
        for key in histograms.keys() {
            let (base, labels) = split_key(key);
            families.entry(base).or_default().push((key, labels));
        }
        for (base, series) in &families {
            let _ = writeln!(out, "# TYPE {base} summary");
            for (key, labels) in series {
                let snap = histograms[*key].snapshot();
                for (q, v) in [("0.5", snap.p50), ("0.9", snap.p90), ("0.99", snap.p99)] {
                    match labels {
                        Some(labels) => {
                            let _ = writeln!(out, "{base}{{{labels},quantile=\"{q}\"}} {v}");
                        }
                        None => {
                            let _ = writeln!(out, "{base}{{quantile=\"{q}\"}} {v}");
                        }
                    }
                }
                let suffix = labels.map_or(String::new(), |l| format!("{{{l}}}"));
                let _ = writeln!(out, "{base}_sum{suffix} {}", snap.sum);
                let _ = writeln!(out, "{base}_count{suffix} {}", snap.count);
            }
            let _ = writeln!(out, "# TYPE {base}_max gauge");
            for (key, labels) in series {
                let suffix = labels.map_or(String::new(), |l| format!("{{{l}}}"));
                let _ = writeln!(out, "{base}_max{suffix} {}", histograms[*key].max());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let registry = Registry::new();
        let a = registry.counter("bad_test_total");
        let b = registry.counter("bad_test_total");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("bad_test_total").get(), 3);
    }

    #[test]
    fn owner_cells_sum_into_every_read_of_the_series() {
        let registry = Registry::new();
        let shared = registry.counter("bad_cells_total");
        let a = registry.owner_counter("bad_cells_total");
        // A clone is a second owner with a cell of its own.
        let b = a.clone();
        shared.add(1);
        a.add(10);
        b.inc();
        b.add(100);
        assert_eq!(shared.get(), 112);
        assert_eq!(registry.counter("bad_cells_total").get(), 112);
        assert!(registry.render().contains("bad_cells_total 112\n"));
        assert_eq!(
            registry.counter_values(),
            vec![("bad_cells_total".to_owned(), 112)]
        );
        // A dropped owner's counts stay in the series.
        drop(b);
        assert_eq!(shared.get(), 112);

        let h = registry.owner_histogram("bad_cells_us");
        let h2 = h.clone();
        h.record(3);
        h2.record(300);
        registry.histogram("bad_cells_us").record(30);
        let snap = registry.histogram("bad_cells_us").snapshot();
        assert_eq!((snap.count, snap.sum, snap.max), (3, 333, 300));
        let text = registry.render();
        assert!(text.contains("bad_cells_us_count 3\n"), "{text}");
        assert!(text.contains("bad_cells_us_max 300\n"), "{text}");
    }

    #[test]
    fn clones_render_the_same_store() {
        let registry = Registry::new();
        let clone = registry.clone();
        registry.counter("bad_clone_total").add(5);
        assert!(clone.render().contains("bad_clone_total 5"));
    }

    #[test]
    fn render_is_prometheus_text() {
        let registry = Registry::new();
        registry.counter("bad_hits_total").add(7);
        registry.gauge("bad_occupancy_bytes").set(1024);
        let h = registry.histogram("bad_latency_us");
        h.record(100);
        h.record(300);
        let text = registry.render();
        assert!(text.contains("# TYPE bad_hits_total counter\nbad_hits_total 7\n"));
        assert!(text.contains("# TYPE bad_occupancy_bytes gauge\nbad_occupancy_bytes 1024\n"));
        assert!(text.contains("# TYPE bad_latency_us summary\n"));
        assert!(text.contains("bad_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("bad_latency_us_sum 400\n"));
        assert!(text.contains("bad_latency_us_count 2\n"));
        assert!(text.contains("bad_latency_us_max 300\n"));
    }

    #[test]
    fn labeled_series_share_one_type_header() {
        let registry = Registry::new();
        registry
            .counter_with("bad_spans_total", &[("kind", "insert")])
            .add(2);
        registry
            .counter_with("bad_spans_total", &[("kind", "drop")])
            .inc();
        registry.counter("bad_spans_total").add(10);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE bad_spans_total counter").count(), 1);
        assert!(text.contains("bad_spans_total{kind=\"insert\"} 2\n"));
        assert!(text.contains("bad_spans_total{kind=\"drop\"} 1\n"));
        assert!(text.contains("\nbad_spans_total 10\n"));
        // Same name + labels resolves to the same series.
        assert_eq!(
            registry
                .counter_with("bad_spans_total", &[("kind", "insert")])
                .get(),
            2
        );
    }

    #[test]
    fn labeled_histograms_merge_quantile_labels() {
        let registry = Registry::new();
        let h = registry.histogram_with("bad_lag_us", &[("stage", "insert")]);
        h.record(10);
        h.record(20);
        registry.histogram("bad_lag_us").record(5);
        let text = registry.render();
        assert_eq!(text.matches("# TYPE bad_lag_us summary").count(), 1);
        assert_eq!(text.matches("# TYPE bad_lag_us_max gauge").count(), 1);
        assert!(text.contains("bad_lag_us{stage=\"insert\",quantile=\"0.5\"}"));
        assert!(text.contains("bad_lag_us{quantile=\"0.5\"}"));
        assert!(text.contains("bad_lag_us_sum{stage=\"insert\"} 30\n"));
        assert!(text.contains("bad_lag_us_count{stage=\"insert\"} 2\n"));
        assert!(text.contains("bad_lag_us_max{stage=\"insert\"} 20\n"));
        assert!(text.contains("\nbad_lag_us_sum 5\n"));
    }

    /// Inverse of [`escape_label_value`], for the round-trip test.
    fn unescape_label_value(escaped: &str) -> String {
        let mut out = String::with_capacity(escaped.len());
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn hostile_label_values_round_trip_through_render() {
        let hostile = "lsc\"z\\phi\nnewline";
        let registry = Registry::new();
        registry
            .counter_with("bad_drop_total", &[("policy", hostile)])
            .add(3);
        let text = registry.render();
        // The scrape text must stay line-oriented: exactly the TYPE
        // line and one sample line, raw newline escaped away.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "# TYPE bad_drop_total counter");
        let sample = lines[1];
        assert!(sample.ends_with(" 3"));
        // Parse the label value back out and invert the escaping.
        let start = sample.find("policy=\"").unwrap() + "policy=\"".len();
        let end = sample.rfind("\"}").unwrap();
        assert_eq!(unescape_label_value(&sample[start..end]), hostile);
    }
}
