//! Windowed time-series history over the metric registry.
//!
//! The `/metrics` scrape is a point-in-time readout: it can say what
//! the counters are *now*, but not how fast they are moving, nor what
//! the p99 looked like over the last five minutes. This module closes
//! that gap with a fixed-capacity ring of periodic snapshots taken in
//! *virtual* time: every `window_us` the store diffs the registry
//! against the previous snapshot and appends one delta-encoded
//! [`Window`]. Counters store sparse non-zero deltas, gauges store
//! their (dense) current values, histograms store sparse per-bucket
//! count deltas plus the sum delta — so a window is exact windowed
//! data, not a lossy rate estimate, and arbitrary lookbacks are just
//! merges of consecutive windows.
//!
//! The store is read by the `/timeseries` scrape endpoint and by the
//! health engine (rates feed burn-rate alerting, windowed hit/miss
//! deltas feed drift detection). Snapshots take the registry locks
//! once per window — never on a metric hot path — so the overhead
//! rides the same amortised-maintenance budget as TTL retuning.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, BUCKET_COUNT};
use crate::json::{self, ObjectWriter};
use crate::registry::Registry;

/// How often to snapshot and how much history to keep.
#[derive(Clone, Copy, Debug)]
pub struct TimeSeriesConfig {
    /// Virtual-time width of one window in microseconds.
    pub window_us: u64,
    /// Number of windows retained; the ring overwrites the oldest.
    pub capacity: usize,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        Self {
            // One virtual minute per window, ~2 virtual hours of
            // history: enough to span the paper's 5-minute TTL
            // recompute interval many times over.
            window_us: 60_000_000,
            capacity: 128,
        }
    }
}

/// One retained window: sparse deltas against the previous snapshot.
#[derive(Clone, Debug)]
pub struct Window {
    /// Monotonic sequence number (total windows ever taken, 1-based).
    pub seq: u64,
    /// Virtual timestamp at which the snapshot was taken (window end).
    pub t_us: u64,
    /// `(metric id, counter delta)` — only non-zero deltas stored.
    pub counters: Vec<(u32, u64)>,
    /// `(metric id, gauge value)` — absolute, stored every window.
    pub gauges: Vec<(u32, u64)>,
    /// Per-histogram sparse bucket deltas.
    pub histograms: Vec<HistogramDelta>,
}

/// Sparse windowed change of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramDelta {
    /// Metric id (see [`TimeSeriesStore::metric_name`]).
    pub id: u32,
    /// `(bucket index, count delta)` — only buckets that moved.
    pub buckets: Vec<(u8, u64)>,
    /// Delta of the histogram sum over the window.
    pub sum_delta: u64,
}

/// Windowed summary statistics over a lookback (see
/// [`TimeSeriesStore::stats`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesStats {
    /// Number of windows that contributed.
    pub windows: usize,
    /// Smallest per-window value (counter delta or gauge level).
    pub min: u64,
    /// Largest per-window value.
    pub max: u64,
    /// Mean per-window value.
    pub avg: f64,
    /// Value in the newest contributing window.
    pub last: u64,
}

struct Inner {
    registry: Registry,
    config: TimeSeriesConfig,
    next_due_us: u64,
    /// Interned metric names; `Window` rows refer to them by index.
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
    /// Cumulative counter value as of the latest snapshot, by id.
    last_counters: BTreeMap<u32, u64>,
    /// Cumulative counter value *before* the oldest retained window,
    /// by id — maintained on eviction so full series reconstruction
    /// survives ring overwrite.
    base_counters: BTreeMap<u32, u64>,
    /// Histogram bucket/sum state as of the latest snapshot.
    last_histograms: BTreeMap<u32, ([u64; BUCKET_COUNT], u64)>,
    ring: VecDeque<Window>,
    seq: u64,
    overwritten: u64,
}

impl Inner {
    fn intern(names: &mut Vec<String>, ids: &mut BTreeMap<String, u32>, name: &str) -> u32 {
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let id = names.len() as u32;
        names.push(name.to_owned());
        ids.insert(name.to_owned(), id);
        id
    }

    fn snapshot(&mut self, t_us: u64) {
        self.seq += 1;
        let mut window = Window {
            seq: self.seq,
            t_us,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        for (key, value) in self.registry.counter_values() {
            let id = Self::intern(&mut self.names, &mut self.ids, &key);
            let prev = self.last_counters.get(&id).copied().unwrap_or(0);
            // Counters are monotone; saturate defensively anyway.
            let delta = value.saturating_sub(prev);
            self.last_counters.insert(id, value);
            if delta != 0 {
                window.counters.push((id, delta));
            }
        }
        for (key, value) in self.registry.gauge_values() {
            let id = Self::intern(&mut self.names, &mut self.ids, &key);
            window.gauges.push((id, value));
        }
        for (key, buckets, sum) in self.registry.histogram_states() {
            let id = Self::intern(&mut self.names, &mut self.ids, &key);
            let (prev_buckets, prev_sum) = self
                .last_histograms
                .get(&id)
                .copied()
                .unwrap_or(([0; BUCKET_COUNT], 0));
            let mut sparse = Vec::new();
            for (i, (&now, &then)) in buckets.iter().zip(prev_buckets.iter()).enumerate() {
                let d = now.saturating_sub(then);
                if d != 0 {
                    sparse.push((i as u8, d));
                }
            }
            let sum_delta = sum.saturating_sub(prev_sum);
            self.last_histograms.insert(id, (buckets, sum));
            if !sparse.is_empty() || sum_delta != 0 {
                window.histograms.push(HistogramDelta {
                    id,
                    buckets: sparse,
                    sum_delta,
                });
            }
        }
        if self.ring.len() == self.config.capacity {
            if let Some(evicted) = self.ring.pop_front() {
                // Fold the evicted deltas into the base so cumulative
                // reconstruction stays exact after overwrite.
                for (id, delta) in evicted.counters {
                    *self.base_counters.entry(id).or_insert(0) += delta;
                }
                self.overwritten += 1;
            }
        }
        self.ring.push_back(window);
    }

    /// Windows whose end time falls in `(now_us - lookback_us, now_us]`,
    /// oldest first.
    fn select(&self, lookback_us: u64, now_us: u64) -> impl Iterator<Item = &Window> {
        let cutoff = now_us.saturating_sub(lookback_us);
        self.ring
            .iter()
            .filter(move |w| w.t_us > cutoff && w.t_us <= now_us)
    }
}

/// The shared, cloneable time-series store. All clones snapshot and
/// query the same ring.
#[derive(Clone)]
pub struct TimeSeriesStore {
    inner: Arc<Mutex<Inner>>,
}

impl TimeSeriesStore {
    /// Creates a store observing `registry`. The first window is due
    /// `window_us` after the first `due`/`tick` timestamp seen.
    pub fn new(registry: Registry, config: TimeSeriesConfig) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                registry,
                config,
                next_due_us: 0,
                names: Vec::new(),
                ids: BTreeMap::new(),
                last_counters: BTreeMap::new(),
                base_counters: BTreeMap::new(),
                last_histograms: BTreeMap::new(),
                ring: VecDeque::with_capacity(config.capacity),
                seq: 0,
                overwritten: 0,
            })),
        }
    }

    /// Virtual window width in microseconds.
    pub fn window_us(&self) -> u64 {
        self.lock().config.window_us
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("timeseries store poisoned")
    }

    /// Whether a window boundary has been crossed at virtual `t_us`.
    pub fn due(&self, t_us: u64) -> bool {
        t_us >= self.lock().next_due_us
    }

    /// Takes a snapshot if the window has elapsed; returns whether one
    /// was taken. The deadline advances to `max(deadline, t + window)`
    /// like [`crate::Sampler`], so bursts and non-monotonic clocks
    /// cannot schedule storms of snapshots.
    pub fn tick(&self, t_us: u64) -> bool {
        let mut inner = self.lock();
        if t_us < inner.next_due_us {
            return false;
        }
        inner.snapshot(t_us);
        let window = inner.config.window_us;
        inner.next_due_us = inner.next_due_us.max(t_us.saturating_add(window));
        true
    }

    /// Forces a snapshot regardless of the deadline (tests, shutdown
    /// flushes).
    pub fn force_snapshot(&self, t_us: u64) {
        let mut inner = self.lock();
        inner.snapshot(t_us);
        let window = inner.config.window_us;
        inner.next_due_us = inner.next_due_us.max(t_us.saturating_add(window));
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether no window has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Total windows ever taken (retained + overwritten).
    pub fn total_windows(&self) -> u64 {
        self.lock().seq
    }

    /// Windows evicted by ring overwrite.
    pub fn overwritten(&self) -> u64 {
        self.lock().overwritten
    }

    /// Resolves an interned metric id back to its name.
    pub fn metric_name(&self, id: u32) -> Option<String> {
        self.lock().names.get(id as usize).cloned()
    }

    /// Per-second rate of counter `name` over the trailing
    /// `lookback_us` of virtual time ending at `now_us`: the summed
    /// windowed deltas divided by the covered span (`window_us` per
    /// contributing window). `None` when no window covers the range or
    /// the counter is unknown.
    pub fn rate_per_sec(&self, name: &str, lookback_us: u64, now_us: u64) -> Option<f64> {
        let inner = self.lock();
        let id = *inner.ids.get(name)?;
        let mut total = 0u64;
        let mut windows = 0usize;
        for w in inner.select(lookback_us, now_us) {
            windows += 1;
            if let Some(&(_, delta)) = w.counters.iter().find(|(i, _)| *i == id) {
                total += delta;
            }
        }
        if windows == 0 {
            return None;
        }
        let span_s = (windows as u64 * inner.config.window_us) as f64 / 1e6;
        if span_s <= 0.0 {
            return None;
        }
        Some(total as f64 / span_s)
    }

    /// Sum of counter `name`'s deltas over the lookback (the windowed
    /// count itself, before rate normalisation). `None` when no window
    /// covers the range or the counter is unknown.
    pub fn windowed_delta(&self, name: &str, lookback_us: u64, now_us: u64) -> Option<u64> {
        let inner = self.lock();
        let id = *inner.ids.get(name)?;
        let mut total = 0u64;
        let mut any = false;
        for w in inner.select(lookback_us, now_us) {
            any = true;
            if let Some(&(_, delta)) = w.counters.iter().find(|(i, _)| *i == id) {
                total += delta;
            }
        }
        any.then_some(total)
    }

    /// Sliding-window quantile of histogram `name`: merges the bucket
    /// deltas of every window in the lookback and reads the quantile
    /// off the merged distribution, reporting the containing bucket's
    /// upper bound (an over-approximation, same contract as
    /// [`Histogram::quantile`] minus the exact-max clamp, which a
    /// windowed view cannot know).
    pub fn window_quantile(
        &self,
        name: &str,
        q: f64,
        lookback_us: u64,
        now_us: u64,
    ) -> Option<u64> {
        let inner = self.lock();
        let id = *inner.ids.get(name)?;
        let mut merged = [0u64; BUCKET_COUNT];
        let mut count = 0u64;
        for w in inner.select(lookback_us, now_us) {
            for h in &w.histograms {
                if h.id == id {
                    for &(bucket, delta) in &h.buckets {
                        merged[bucket as usize] += delta;
                        count += delta;
                    }
                }
            }
        }
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in merged.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Histogram::bucket_upper(i));
            }
        }
        Some(Histogram::bucket_upper(BUCKET_COUNT - 1))
    }

    /// Min/max/avg/last of a series over the lookback. For counters the
    /// per-window value is the delta; for gauges it is the sampled
    /// level. `None` for unknown names or empty ranges.
    pub fn stats(&self, name: &str, lookback_us: u64, now_us: u64) -> Option<SeriesStats> {
        let inner = self.lock();
        let id = *inner.ids.get(name)?;
        let is_gauge = inner
            .ring
            .iter()
            .any(|w| w.gauges.iter().any(|(i, _)| *i == id));
        let mut values = Vec::new();
        for w in inner.select(lookback_us, now_us) {
            if is_gauge {
                if let Some(&(_, v)) = w.gauges.iter().find(|(i, _)| *i == id) {
                    values.push(v);
                }
            } else {
                // Counter: a window without a stored delta is a zero.
                let v = w
                    .counters
                    .iter()
                    .find(|(i, _)| *i == id)
                    .map(|&(_, d)| d)
                    .unwrap_or(0);
                values.push(v);
            }
        }
        if values.is_empty() {
            return None;
        }
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let sum: u64 = values.iter().sum();
        Some(SeriesStats {
            windows: values.len(),
            min,
            max,
            avg: sum as f64 / values.len() as f64,
            last: *values.last().expect("non-empty"),
        })
    }

    /// Reconstructs the cumulative series of counter `name` across the
    /// retained ring: `(t_us, cumulative value)` per window, oldest
    /// first. The base absorbed from overwritten windows is included,
    /// so the newest point equals the live counter as of the last
    /// snapshot — the delta round-trip is exact.
    pub fn reconstruct_counter(&self, name: &str) -> Vec<(u64, u64)> {
        let inner = self.lock();
        let Some(&id) = inner.ids.get(name) else {
            return Vec::new();
        };
        let mut acc = inner.base_counters.get(&id).copied().unwrap_or(0);
        let mut out = Vec::with_capacity(inner.ring.len());
        for w in &inner.ring {
            if let Some(&(_, delta)) = w.counters.iter().find(|(i, _)| *i == id) {
                acc += delta;
            }
            out.push((w.t_us, acc));
        }
        out
    }

    /// Renders the store as JSON for the `/timeseries` endpoint: ring
    /// metadata, a per-metric summary over the trailing
    /// `summary_lookback_windows` windows, and the raw counter deltas
    /// of the newest `raw_tail_windows` windows (bounded so the body
    /// stays curl-sized even with a full ring).
    pub fn to_json(&self, raw_tail_windows: usize, summary_lookback_windows: usize) -> String {
        let inner = self.lock();
        let now_us = inner.ring.back().map(|w| w.t_us).unwrap_or(0);
        let lookback_us = (summary_lookback_windows as u64).saturating_mul(inner.config.window_us);
        let mut body = String::with_capacity(4096);
        {
            let mut obj = ObjectWriter::new(&mut body);
            obj.field_u64("window_us", inner.config.window_us);
            obj.field_u64("capacity", inner.config.capacity as u64);
            obj.field_u64("windows", inner.ring.len() as u64);
            obj.field_u64("total_windows", inner.seq);
            obj.field_u64("overwritten", inner.overwritten);
            obj.field_u64("newest_t_us", now_us);

            // Per-metric summaries over the trailing lookback.
            let mut series = String::from("[");
            let mut first = true;
            let cutoff = now_us.saturating_sub(lookback_us);
            let selected: Vec<&Window> = inner
                .ring
                .iter()
                .filter(|w| w.t_us > cutoff && w.t_us <= now_us)
                .collect();
            let span_s = (selected.len() as u64 * inner.config.window_us) as f64 / 1e6;
            // Counters.
            let mut counter_totals: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
            for w in &selected {
                for &(id, delta) in &w.counters {
                    let entry = counter_totals.entry(id).or_insert((0, 0, 0));
                    entry.0 += delta;
                    entry.1 = entry.1.max(delta);
                    entry.2 = delta;
                }
            }
            for (id, (total, max_delta, last_delta)) in &counter_totals {
                if !first {
                    series.push(',');
                }
                first = false;
                let mut row = String::new();
                {
                    let mut o = ObjectWriter::new(&mut row);
                    o.field_str("name", &inner.names[*id as usize]);
                    o.field_str("kind", "counter");
                    o.field_u64("delta", *total);
                    o.field_u64("max_window_delta", *max_delta);
                    o.field_u64("last_window_delta", *last_delta);
                    if span_s > 0.0 {
                        o.field_f64("rate_per_s", *total as f64 / span_s);
                    }
                }
                series.push_str(&row);
            }
            // Gauges: last sampled level.
            if let Some(last) = selected.last() {
                for &(id, value) in &last.gauges {
                    if !first {
                        series.push(',');
                    }
                    first = false;
                    let mut row = String::new();
                    {
                        let mut o = ObjectWriter::new(&mut row);
                        o.field_str("name", &inner.names[id as usize]);
                        o.field_str("kind", "gauge");
                        o.field_u64("last", value);
                    }
                    series.push_str(&row);
                }
            }
            // Histograms: merged windowed count + sum.
            let mut hist_totals: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
            for w in &selected {
                for h in &w.histograms {
                    let entry = hist_totals.entry(h.id).or_insert((0, 0));
                    entry.0 += h.buckets.iter().map(|&(_, d)| d).sum::<u64>();
                    entry.1 += h.sum_delta;
                }
            }
            for (id, (count, sum)) in &hist_totals {
                if !first {
                    series.push(',');
                }
                first = false;
                let mut row = String::new();
                {
                    let mut o = ObjectWriter::new(&mut row);
                    o.field_str("name", &inner.names[*id as usize]);
                    o.field_str("kind", "histogram");
                    o.field_u64("count", *count);
                    o.field_u64("sum", *sum);
                    if *count > 0 {
                        o.field_f64("mean", *sum as f64 / *count as f64);
                    }
                }
                series.push_str(&row);
            }
            series.push(']');
            obj.field_raw("series", &series);

            // Raw counter deltas of the newest windows (bounded tail).
            let tail_start = inner.ring.len().saturating_sub(raw_tail_windows);
            let mut samples = String::from("[");
            for (i, w) in inner.ring.iter().enumerate().skip(tail_start) {
                if i > tail_start {
                    samples.push(',');
                }
                let mut row = String::new();
                {
                    let mut o = ObjectWriter::new(&mut row);
                    o.field_u64("seq", w.seq);
                    o.field_u64("t_us", w.t_us);
                    let mut deltas = String::from("{");
                    for (j, &(id, delta)) in w.counters.iter().enumerate() {
                        if j > 0 {
                            deltas.push(',');
                        }
                        deltas.push_str(&json::quote(&inner.names[id as usize]));
                        deltas.push(':');
                        deltas.push_str(&delta.to_string());
                    }
                    deltas.push('}');
                    o.field_raw("counters", &deltas);
                }
                samples.push_str(&row);
            }
            samples.push(']');
            obj.field_raw("samples", &samples);
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(window_us: u64, capacity: usize) -> (Registry, TimeSeriesStore) {
        let registry = Registry::new();
        let ts = TimeSeriesStore::new(
            registry.clone(),
            TimeSeriesConfig {
                window_us,
                capacity,
            },
        );
        (registry, ts)
    }

    #[test]
    fn tick_honours_the_window_deadline() {
        let (_registry, ts) = store(1_000_000, 8);
        assert!(ts.tick(0)); // first tick snapshots immediately
        assert!(!ts.tick(500_000));
        assert!(ts.tick(1_000_000));
        assert_eq!(ts.len(), 2);
        // Burst of late ticks cannot storm: deadline moved past t.
        assert!(!ts.tick(1_000_001));
        assert!(!ts.tick(1_000_002));
    }

    #[test]
    fn rate_is_windowed_delta_over_span() {
        let (registry, ts) = store(1_000_000, 8);
        let c = registry.counter("bad_ts_ops_total");
        ts.force_snapshot(0);
        c.add(100);
        ts.force_snapshot(1_000_000);
        c.add(300);
        ts.force_snapshot(2_000_000);
        // Lookback of one window: 300 ops / 1 s.
        let r = ts.rate_per_sec("bad_ts_ops_total", 1_000_000, 2_000_000);
        assert_eq!(r, Some(300.0));
        // Lookback of two windows: 400 ops / 2 s.
        let r = ts.rate_per_sec("bad_ts_ops_total", 2_000_000, 2_000_000);
        assert_eq!(r, Some(200.0));
        assert_eq!(ts.rate_per_sec("unknown", 1_000_000, 2_000_000), None);
    }

    #[test]
    fn stats_cover_counters_and_gauges() {
        let (registry, ts) = store(1_000_000, 8);
        let c = registry.counter("bad_ts_n_total");
        let g = registry.gauge("bad_ts_level");
        ts.force_snapshot(0);
        c.add(5);
        g.set(10);
        ts.force_snapshot(1_000_000);
        c.add(15);
        g.set(30);
        ts.force_snapshot(2_000_000);
        let s = ts.stats("bad_ts_n_total", 2_000_000, 2_000_000).unwrap();
        assert_eq!((s.min, s.max, s.last, s.windows), (5, 15, 15, 2));
        assert_eq!(s.avg, 10.0);
        let s = ts.stats("bad_ts_level", 2_000_000, 2_000_000).unwrap();
        assert_eq!((s.min, s.max, s.last), (10, 30, 30));
    }

    #[test]
    fn window_quantile_merges_bucket_deltas() {
        let (registry, ts) = store(1_000_000, 8);
        let h = registry.histogram("bad_ts_lat_us");
        ts.force_snapshot(0);
        for _ in 0..90 {
            h.record(100); // bucket [64,127]
        }
        ts.force_snapshot(1_000_000);
        for _ in 0..10 {
            h.record(10_000); // bucket [8192,16383]
        }
        ts.force_snapshot(2_000_000);
        // Over both windows: p50 in the low bucket, p99 in the high one.
        let p50 = ts
            .window_quantile("bad_ts_lat_us", 0.5, 2_000_000, 2_000_000)
            .unwrap();
        let p99 = ts
            .window_quantile("bad_ts_lat_us", 0.99, 2_000_000, 2_000_000)
            .unwrap();
        assert!((100..128).contains(&p50), "p50={p50}");
        assert!((10_000..16_384).contains(&p99), "p99={p99}");
        // Only the newest window: all mass is high.
        let p50 = ts
            .window_quantile("bad_ts_lat_us", 0.5, 1_000_000, 2_000_000)
            .unwrap();
        assert!(p50 >= 10_000, "p50={p50}");
    }

    #[test]
    fn ring_overwrites_oldest_and_reconstruction_round_trips() {
        let (registry, ts) = store(1_000_000, 4);
        let c = registry.counter("bad_ts_rt_total");
        // 10 windows into a 4-slot ring, varying deltas.
        for i in 0..10u64 {
            c.add(i + 1);
            ts.force_snapshot(i * 1_000_000);
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.total_windows(), 10);
        assert_eq!(ts.overwritten(), 6);
        let series = ts.reconstruct_counter("bad_ts_rt_total");
        assert_eq!(series.len(), 4);
        // The newest reconstructed point must equal the live counter:
        // deltas + evicted base lose nothing.
        assert_eq!(series.last().unwrap().1, c.get());
        assert_eq!(c.get(), (1..=10).sum::<u64>());
        // And each retained step matches the per-window delta.
        assert_eq!(series[3].1 - series[2].1, 10);
        assert_eq!(series[1].1 - series[0].1, 8);
        // Oldest retained window is seq 7 (1-based), t = 6s.
        assert_eq!(series[0].0, 6_000_000);
    }

    #[test]
    fn to_json_is_bounded_and_valid_shape() {
        let (registry, ts) = store(1_000_000, 8);
        let c = registry.counter("bad_ts_json_total");
        let h = registry.histogram("bad_ts_json_us");
        registry.gauge("bad_ts_json_level").set(42);
        for i in 0..6u64 {
            c.add(2);
            h.record(50);
            ts.force_snapshot(i * 1_000_000);
        }
        let body = ts.to_json(2, 8);
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains("\"window_us\":1000000"));
        assert!(body.contains("\"windows\":6"));
        assert!(body.contains("bad_ts_json_total"));
        assert!(body.contains("\"kind\":\"gauge\""));
        assert!(body.contains("\"kind\":\"histogram\""));
        // Raw tail bounded to 2 windows.
        assert_eq!(body.matches("\"seq\":").count(), 2);
    }

    #[test]
    fn late_registered_metrics_join_the_series() {
        let (registry, ts) = store(1_000_000, 8);
        ts.force_snapshot(0);
        let c = registry.counter("bad_ts_late_total");
        c.add(7);
        ts.force_snapshot(1_000_000);
        // First sighting records the full value as the first delta.
        assert_eq!(
            ts.windowed_delta("bad_ts_late_total", 1_000_000, 1_000_000),
            Some(7)
        );
    }
}
