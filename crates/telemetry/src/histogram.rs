//! Log-bucketed histograms with approximate quantile readout.
//!
//! Values (latencies in microseconds, sizes in bytes) are binned into
//! power-of-two buckets: bucket 0 holds exactly zero, bucket `i` holds
//! `[2^(i-1), 2^i)`. Recording is a handful of relaxed atomic adds, so
//! the histogram is safe to touch from hot paths; readout walks the 65
//! buckets and reports each quantile as the upper bound of the bucket
//! it falls in, clamped to the largest value actually recorded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BUCKETS: usize = 65;

/// Number of log buckets in every [`Histogram`] (bucket 0 plus one per
/// bit of `u64`). Exposed so windowed snapshots (`timeseries`) can
/// store sparse per-bucket deltas without guessing the layout.
pub const BUCKET_COUNT: usize = BUCKETS;

#[derive(Debug)]
struct HistogramData {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar slots (most recent trace id to land in the
    /// bucket, 0 = none yet). Allocated only by
    /// [`Histogram::with_exemplars`]: ordinary histograms carry no
    /// exemplar storage and [`Histogram::record_exemplar`] degrades to
    /// a plain [`Histogram::record`], so quantile math and the
    /// Prometheus render are byte-identical either way.
    exemplars: Option<Box<[AtomicU64; BUCKETS]>>,
}

/// A cheap, thread-safe, log-bucketed histogram handle.
///
/// Cloning shares the underlying buckets, mirroring [`super::Counter`].
#[derive(Clone, Debug)]
pub struct Histogram {
    data: Arc<HistogramData>,
}

/// A point-in-time readout of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// Approximate 50th percentile.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            data: Arc::new(HistogramData {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                exemplars: None,
            }),
        }
    }

    /// Creates an empty histogram with per-bucket exemplar retention:
    /// [`Histogram::record_exemplar`] remembers the most recent trace
    /// id that landed in each bucket, linking a latency outlier back to
    /// the flight-recorder spans that produced it.
    pub fn with_exemplars() -> Self {
        Self {
            data: Arc::new(HistogramData {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                exemplars: Some(Box::new(std::array::from_fn(|_| AtomicU64::new(0)))),
            }),
        }
    }

    /// Whether this histogram retains per-bucket exemplars.
    pub fn has_exemplars(&self) -> bool {
        self.data.exemplars.is_some()
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Upper bound of bucket `index` (inclusive). Public so windowed
    /// quantile readout over merged bucket deltas can reuse the exact
    /// bucket layout instead of re-deriving it.
    pub fn bucket_upper(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    ///
    /// Kept to two relaxed RMWs (bucket + sum): the observation count
    /// is derived from the buckets at read time, and the max register
    /// is only touched when the value actually raises it — span
    /// emission sits on the cache hot path, so every atomic counts.
    #[inline]
    pub fn record(&self, value: u64) {
        let data = &self.data;
        data.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        data.sum.fetch_add(value, Ordering::Relaxed);
        if value > data.max.load(Ordering::Relaxed) {
            data.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// [`Histogram::record`] with plain loads and stores instead of
    /// atomic read-modify-writes. Exact while every writer of the
    /// histogram holds one common lock; writers that do not can lose
    /// observations to each other, never corrupt a register.
    #[inline]
    pub(crate) fn record_under_lock(&self, value: u64) {
        let data = &self.data;
        let bucket = &data.buckets[Self::bucket_index(value)];
        bucket.store(
            bucket.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        data.sum.store(
            data.sum.load(Ordering::Relaxed).wrapping_add(value),
            Ordering::Relaxed,
        );
        if value > data.max.load(Ordering::Relaxed) {
            data.max.store(value, Ordering::Relaxed);
        }
    }

    /// Records one observation tagged with the trace id that produced
    /// it. On an exemplar-enabled histogram the bucket's exemplar slot
    /// is overwritten with `trace` (one extra relaxed store on top of
    /// [`Histogram::record`]'s two RMWs); on a plain histogram the tag
    /// is dropped and this is exactly `record`. A `trace` of 0 records
    /// the value but leaves the exemplar slot untouched, since 0 is the
    /// "no exemplar yet" sentinel.
    #[inline]
    pub fn record_exemplar(&self, value: u64, trace: u64) {
        let data = &self.data;
        let bucket = Self::bucket_index(value);
        data.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        data.sum.fetch_add(value, Ordering::Relaxed);
        if value > data.max.load(Ordering::Relaxed) {
            data.max.fetch_max(value, Ordering::Relaxed);
        }
        if trace != 0 {
            if let Some(exemplars) = &data.exemplars {
                exemplars[bucket].store(trace, Ordering::Relaxed);
            }
        }
    }

    /// The most recent trace id recorded into bucket `index`, or `None`
    /// if the bucket has no exemplar (never hit, exemplars disabled, or
    /// only 0-tagged records).
    pub fn exemplar(&self, index: usize) -> Option<u64> {
        let exemplars = self.data.exemplars.as_ref()?;
        match exemplars.get(index)?.load(Ordering::Relaxed) {
            0 => None,
            trace => Some(trace),
        }
    }

    /// Number of observations so far (a 65-bucket sum — readout-path
    /// cost traded for a cheaper `record`).
    pub fn count(&self) -> u64 {
        self.data
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> u64 {
        self.data.sum.load(Ordering::Relaxed)
    }

    /// Largest observation so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.data.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th observation, clamped
    /// to the recorded maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.data.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Reads every bucket at once (relaxed loads). The timeseries
    /// snapshotter diffs consecutive readouts to reconstruct windowed
    /// distributions, so this is the raw material — not a quantile.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.data.buckets[i].load(Ordering::Relaxed))
    }

    /// Reads count, sum, max and the p50/p90/p99 quantiles at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // Bucket upper bounds over-approximate, never under-approximate.
        assert!(h.quantile(0.5) >= 500);
        assert!(h.quantile(0.99) >= 990);
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(0.99));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(
            snap,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn zeros_land_in_bucket_zero() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(8);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 8);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile reads 0, including the extremes.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        // Out-of-range q clamps rather than panics or wraps.
        assert_eq!(h.quantile(-1.0), 0);
        assert_eq!(h.quantile(2.0), 0);

        // Single observation: q=0.0 still targets the first
        // observation (target is floored at 1), q=1.0 the last — both
        // are the same sample, clamped to the exact max.
        let h = Histogram::new();
        h.record(700);
        assert_eq!(h.quantile(0.0), 700);
        assert_eq!(h.quantile(0.5), 700);
        assert_eq!(h.quantile(1.0), 700);

        // Saturation: all mass in one bucket reads that bucket's upper
        // bound clamped to the recorded max, even at q=1.0 with values
        // in the top bucket.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(u64::MAX);
        }
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);

        // Clamping also binds when a bucket's range exceeds the max
        // actually recorded: 1025 lands in [1024, 2047], whose upper
        // bound 2047 must be clamped down to 1025.
        let h = Histogram::new();
        h.record(1025);
        assert_eq!(h.quantile(1.0), 1025);

        // Out-of-range q on a non-empty histogram clamps to the ends.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn exemplars_tag_the_bucket_that_was_hit() {
        let h = Histogram::with_exemplars();
        assert!(h.has_exemplars());
        h.record_exemplar(0, 11); // bucket 0
        h.record_exemplar(3, 22); // bucket 2
        h.record_exemplar(2, 33); // bucket 2 again: overwrites
        h.record_exemplar(1024, 44); // bucket 11
        assert_eq!(h.exemplar(0), Some(11));
        assert_eq!(h.exemplar(1), None);
        assert_eq!(h.exemplar(2), Some(33));
        assert_eq!(h.exemplar(11), Some(44));
        assert_eq!(h.exemplar(64), None);
        assert_eq!(h.exemplar(1000), None);
        // A 0 trace records the value but never claims an exemplar slot.
        h.record_exemplar(5, 0);
        assert_eq!(h.exemplar(3), None);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 3 + 2 + 1024 + 5);
    }

    #[test]
    fn plain_histograms_drop_exemplars_but_count_the_record() {
        let h = Histogram::new();
        assert!(!h.has_exemplars());
        h.record_exemplar(7, 99);
        assert_eq!(h.exemplar(3), None);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn exemplars_survive_concurrent_records() {
        use std::sync::Arc;
        // Each thread records values into a disjoint set of buckets,
        // tagged with traces that encode (bucket, thread). Afterwards
        // every hit bucket must hold an exemplar some thread actually
        // recorded into that bucket — overwrites race, misfiles do not.
        let h = Arc::new(Histogram::with_exemplars());
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for round in 0..1000u64 {
                        for bucket in 1..16usize {
                            // Value 2^(bucket-1) lands exactly in `bucket`.
                            let value = 1u64 << (bucket - 1);
                            let trace = (bucket as u64) << 32 | (t as u64) << 16 | (round & 0xFFFF);
                            h.record_exemplar(value, trace);
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        for bucket in 1..16usize {
            let trace = h.exemplar(bucket).expect("bucket was hit");
            assert_eq!(
                trace >> 32,
                bucket as u64,
                "bucket {bucket} holds an exemplar recorded for another bucket"
            );
        }
        // Quantile math is untouched by the extra exemplar store.
        assert_eq!(h.count(), threads as u64 * 1000 * 15);
    }

    #[test]
    fn clones_share_state() {
        let a = Histogram::new();
        let b = a.clone();
        a.record(5);
        b.record(7);
        assert_eq!(a.count(), 2);
        assert_eq!(b.max(), 7);
    }
}
