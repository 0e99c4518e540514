//! Log-bucketed histograms with approximate quantile readout.
//!
//! Values (latencies in microseconds, sizes in bytes) are binned into
//! power-of-two buckets: bucket 0 holds exactly zero, bucket `i` holds
//! `[2^(i-1), 2^i)`. Recording is a handful of relaxed atomic adds, so
//! the histogram is safe to touch from hot paths; readout walks the 65
//! buckets and reports each quantile as the upper bound of the bucket
//! it falls in, clamped to the largest value actually recorded.
//!
//! A series can also carry owner cells
//! ([`crate::Registry::owner_histogram`]): registers
//! written by one owner with plain stores and summed into every readout,
//! for state that a single writer already serializes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const BUCKETS: usize = 65;

/// Number of log buckets in every [`Histogram`] (bucket 0 plus one per
/// bit of `u64`). Exposed so windowed snapshots (`timeseries`) can
/// store sparse per-bucket deltas without guessing the layout.
pub const BUCKET_COUNT: usize = BUCKETS;

/// One set of histogram registers: the shared set every [`Histogram`]
/// handle writes with atomic adds, or one [`OwnerHistogram`]'s cell.
#[derive(Debug)]
struct Registers {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Registers {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct HistogramData {
    shared: Registers,
    /// Per-bucket exemplar slots (most recent trace id to land in the
    /// bucket, 0 = none yet). Allocated only by
    /// [`Histogram::with_exemplars`]: ordinary histograms carry no
    /// exemplar storage and [`Histogram::record_exemplar`] degrades to
    /// a plain [`Histogram::record`], so quantile math and the
    /// Prometheus render are byte-identical either way.
    exemplars: Option<Box<[AtomicU64; BUCKETS]>>,
    /// Owner cells ([`OwnerHistogram`]), each written by one owner
    /// with plain stores and summed into every readout.
    cells: Mutex<Vec<Arc<Registers>>>,
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

/// The shared registers and every owner cell, summed (max taken).
struct Readout {
    buckets: [u64; BUCKETS],
    sum: u64,
    max: u64,
}

impl Readout {
    fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return Histogram::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    fn with_storage(exemplars: Option<Box<[AtomicU64; BUCKETS]>>) -> Self {
        Self {
            data: Arc::new(HistogramData {
                shared: Registers::new(),
                exemplars,
                cells: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::with_storage(None)
    }

    /// Creates an empty histogram with per-bucket exemplar retention:
    /// [`Histogram::record_exemplar`] remembers the most recent trace
    /// id that landed in each bucket, linking a latency outlier back to
    /// the flight-recorder spans that produced it.
    pub fn with_exemplars() -> Self {
        Self::with_storage(Some(Box::new(std::array::from_fn(|_| AtomicU64::new(0)))))
    }

    /// Whether this histogram retains per-bucket exemplars.
    pub fn has_exemplars(&self) -> bool {
        self.data.exemplars.is_some()
    }

    #[inline]
    pub(crate) fn bucket_index(value: u64) -> usize {
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
        self.add_to_bucket(Self::bucket_index(value), 1, 0);
        self.add_sum_max(value, value);
    }

    /// [`Histogram::record`] with plain loads and stores instead of
    /// atomic read-modify-writes. Exact while every writer of the
    /// histogram holds one common lock; writers that do not can lose
    /// observations to each other, never corrupt a register.
    #[inline]
    pub(crate) fn record_under_lock(&self, value: u64) {
        store_record(&self.data.shared, value);
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
        self.add_to_bucket(Self::bucket_index(value), 1, trace);
        self.add_sum_max(value, value);
    }

    /// Adds `n` observations to bucket `index` — one relaxed RMW however
    /// large `n` is — and, on an exemplar-enabled histogram, tags the
    /// bucket with `trace` unless it is 0. With
    /// [`Histogram::add_sum_max`] this folds samples gathered elsewhere
    /// (the profiler's per-thread accumulators, a [`HistogramBatch`]).
    #[inline]
    pub(crate) fn add_to_bucket(&self, index: usize, n: u64, trace: u64) {
        let data = &self.data;
        data.shared.buckets[index].fetch_add(n, Ordering::Relaxed);
        if trace != 0 {
            if let Some(exemplars) = &data.exemplars {
                exemplars[index].store(trace, Ordering::Relaxed);
            }
        }
    }

    /// Adds `sum` to the running sum and raises the max to `max`: the
    /// other half of a fold (see [`Histogram::add_to_bucket`]).
    #[inline]
    pub(crate) fn add_sum_max(&self, sum: u64, max: u64) {
        let shared = &self.data.shared;
        shared.sum.fetch_add(sum, Ordering::Relaxed);
        if max > shared.max.load(Ordering::Relaxed) {
            shared.max.fetch_max(max, Ordering::Relaxed);
        }
    }

    /// Starts a batch of observations: buckets are bumped as values
    /// arrive (a run of values in one bucket shares one RMW), the sum
    /// and the max once, when the batch drops. For a caller recording
    /// a whole retrieval's worth of values in one go.
    pub(crate) fn batch(&self) -> HistogramBatch<'_> {
        HistogramBatch {
            histogram: self,
            run: None,
            sum: 0,
            max: 0,
        }
    }

    /// Registers a new owner cell on this histogram's series (see
    /// [`OwnerHistogram`]).
    pub(crate) fn owner(&self) -> OwnerHistogram {
        let cell = Arc::new(Registers::new());
        self.data
            .cells
            .lock()
            .expect("histogram cells poisoned")
            .push(Arc::clone(&cell));
        OwnerHistogram {
            series: self.clone(),
            cell,
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

    /// The shared registers plus every owner cell.
    fn readout(&self) -> Readout {
        let data = &self.data;
        let load = |registers: &Registers, out: &mut Readout| {
            for (total, bucket) in out.buckets.iter_mut().zip(&registers.buckets) {
                *total += bucket.load(Ordering::Relaxed);
            }
            out.sum = out.sum.wrapping_add(registers.sum.load(Ordering::Relaxed));
            out.max = out.max.max(registers.max.load(Ordering::Relaxed));
        };
        let mut out = Readout {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        };
        load(&data.shared, &mut out);
        for cell in data.cells.lock().expect("histogram cells poisoned").iter() {
            load(cell, &mut out);
        }
        out
    }

    /// Number of observations so far (a 65-bucket sum — readout-path
    /// cost traded for a cheaper `record`).
    pub fn count(&self) -> u64 {
        self.readout().count()
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> u64 {
        self.readout().sum
    }

    /// Largest observation so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.readout().max
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q * count)`-th observation, clamped
    /// to the recorded maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        self.readout().quantile(q)
    }

    /// Reads every bucket at once (relaxed loads). The timeseries
    /// snapshotter diffs consecutive readouts to reconstruct windowed
    /// distributions, so this is the raw material — not a quantile.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        self.readout().buckets
    }

    /// Reads count, sum, max and the p50/p90/p99 quantiles at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let readout = self.readout();
        HistogramSnapshot {
            count: readout.count(),
            sum: readout.sum,
            max: readout.max,
            p50: readout.quantile(0.50),
            p90: readout.quantile(0.90),
            p99: readout.quantile(0.99),
        }
    }
}

/// One observation into `registers` with plain loads and stores.
#[inline]
fn store_record(registers: &Registers, value: u64) {
    let bucket = &registers.buckets[Histogram::bucket_index(value)];
    bucket.store(
        bucket.load(Ordering::Relaxed).wrapping_add(1),
        Ordering::Relaxed,
    );
    registers.sum.store(
        registers.sum.load(Ordering::Relaxed).wrapping_add(value),
        Ordering::Relaxed,
    );
    if value > registers.max.load(Ordering::Relaxed) {
        registers.max.store(value, Ordering::Relaxed);
    }
}

/// A batch of observations in flight (see [`Histogram::batch`]).
#[derive(Debug)]
pub(crate) struct HistogramBatch<'a> {
    histogram: &'a Histogram,
    /// The current run of values in one bucket: `(bucket, values)`.
    run: Option<(usize, u64)>,
    sum: u64,
    max: u64,
}

impl HistogramBatch<'_> {
    /// Records one observation.
    #[inline]
    pub(crate) fn record(&mut self, value: u64) {
        let bucket = Histogram::bucket_index(value);
        match &mut self.run {
            Some((run_bucket, n)) if *run_bucket == bucket => *n += 1,
            run => {
                if let Some((run_bucket, n)) = run.replace((bucket, 1)) {
                    self.histogram.add_to_bucket(run_bucket, n, 0);
                }
            }
        }
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }
}

impl Drop for HistogramBatch<'_> {
    fn drop(&mut self) {
        if let Some((bucket, n)) = self.run.take() {
            self.histogram.add_to_bucket(bucket, n, 0);
            self.histogram.add_sum_max(self.sum, self.max);
        }
    }
}

/// One owner's cell of a histogram series: [`OwnerHistogram::record`]
/// is a plain load and store per register, no atomic read-modify-write,
/// and every readout of the series sums the cell in. For state with a
/// single writer — a broker under `&mut`, a cache shard under its mutex
/// — so no increment is ever lost.
///
/// Cloning registers a *new* cell on the same series: a clone is a new
/// owner, never a second writer of this cell.
#[derive(Debug)]
pub struct OwnerHistogram {
    series: Histogram,
    cell: Arc<Registers>,
}

impl OwnerHistogram {
    /// Records one observation into this owner's cell.
    #[inline]
    pub fn record(&self, value: u64) {
        store_record(&self.cell, value);
    }
}

impl Clone for OwnerHistogram {
    fn clone(&self) -> Self {
        self.series.owner()
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
    fn a_batch_records_what_single_records_would() {
        let values = [0u64, 5, 6, 7, 7, 4_000, 3, 0, 1 << 40];
        let one_by_one = Histogram::new();
        let batched = Histogram::new();
        for &v in &values {
            one_by_one.record(v);
        }
        {
            let mut batch = batched.batch();
            for &v in &values {
                batch.record(v);
            }
        }
        assert_eq!(batched.bucket_counts(), one_by_one.bucket_counts());
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        // An empty batch touches nothing.
        drop(batched.batch());
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn owner_cells_read_as_one_histogram() {
        let merged = Histogram::new();
        let cells = [merged.owner(), merged.owner()];
        let reference = Histogram::new();
        for v in 0..200u64 {
            cells[(v % 2) as usize].record(v * 37);
            reference.record(v * 37);
        }
        assert_eq!(merged.bucket_counts(), reference.bucket_counts());
        assert_eq!(merged.snapshot(), reference.snapshot());
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
