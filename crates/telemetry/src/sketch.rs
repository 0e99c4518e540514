//! Sketch-based hot-key attribution: who is hot, in fixed memory.
//!
//! Every other observability layer in this crate aggregates *across*
//! subscriptions — counters, histograms, traces and the health engine
//! can say the cache is thrashing but not *which* backend subscriptions
//! are doing it, because one label series per subscription is
//! cardinality-infeasible at millions of subscribers. This module
//! answers the attribution question with three classic streaming
//! sketches, all `std`-only, mergeable and O(capacity) in memory
//! regardless of key cardinality:
//!
//! * [`SpaceSaving`] — top-K heavy hitters (Metwally et al.). Any key
//!   whose true count exceeds `total / capacity` is guaranteed present,
//!   and every estimate is an upper bound overshooting by at most its
//!   recorded `err`. Four independent instances track the four
//!   attribution axes: requests, bytes served, misses, and
//!   delivery-lag SLO violations.
//! * [`DistinctEstimator`] — a HyperLogLog-style register array
//!   estimating how many *distinct* subscriptions were active, which a
//!   heavy-hitter list alone cannot say (ten hot keys out of 50 active
//!   is a very different cache than ten hot keys out of a million).
//! * per-key log-bucketed delivery-lag quantiles ([`LagHist`]) for the
//!   keys currently tracked by the requests sketch *only* — bounding
//!   lag memory by `capacity × buckets` instead of by key cardinality.
//!
//! The write side is [`SketchRecorder`]: a sampling gate (a relaxed
//! load/store pair per op when skipping; recorded ops weight their
//! increments by the sampling period so estimates stay unbiased) in
//! front of a mutex-protected sketch state. A [`SketchBatch`] takes
//! that mutex once for everything one retrieval records — its hit, its
//! ack and each served object's delivery lag. The intended deployment
//! is one recorder per cache shard — the shard mutex already
//! serializes the hot path, so the recorder's own mutex is
//! uncontended — merged at read time by [`HotSnapshot::merge`], whose
//! result is independent of shard order (see
//! `merge_is_order_independent` below; the scrape endpoint's `/hot`
//! body is byte-identical under shard permutation).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The same splitmix64 finalizer the cache tier routes shards with —
/// deterministic across runs and platforms.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Sketch tuning. `Copy` so it rides inside broker/runtime configs.
#[derive(Clone, Copy, Debug)]
pub struct SketchConfig {
    /// Space-Saving slots per axis. The guaranteed-present threshold is
    /// `total / capacity`; 64 slots resolve a Zipf head comfortably
    /// while keeping eviction scans trivial.
    pub capacity: usize,
    /// Keys rendered per axis in JSON views (≤ `capacity`).
    pub top_k: usize,
    /// Record 1 in N ops, weighting increments by N (`≤ 1` records
    /// every op). Skipped ops cost a relaxed load/store pair.
    pub sample_every_n: u32,
    /// Delivery-lag threshold feeding the SLO-violations axis, in
    /// virtual microseconds. Mirrors the tracer's delivery-lag SLO.
    pub slo_lag_us: u64,
}

impl Default for SketchConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            top_k: 10,
            sample_every_n: 1,
            slo_lag_us: 2_000_000,
        }
    }
}

/// One Space-Saving slot: the estimate and its maximum overcount.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SsEntry {
    /// Estimated count — an upper bound on the true count.
    pub count: u64,
    /// Maximum overestimation: `count - err ≤ true ≤ count`.
    pub err: u64,
}

/// An empty slot in a [`SpaceSaving`] index.
const NO_SLOT: u32 = u32::MAX;

/// The Space-Saving heavy-hitter sketch over `u64` keys.
///
/// Keys and their entries live in flat slot arrays (`keys[s]` owns
/// `entries[s]`), filled in arrival order and never compacted: a
/// full-axis eviction reuses the victim's slot in place. An
/// open-addressed index (twice the capacity rounded up to a power of
/// two, `mix64` hash, linear probing, backward-shift deletion) maps a
/// key to its slot, so recording a tracked key is one probe and a new
/// key in a full axis is one scan of the slot entries for its victim.
///
/// Nothing observable depends on slot order or hashing, so the sketch
/// stays deterministic — unlike a map behind `std`'s per-process random
/// hasher, with which two replays of one tape could render different
/// tie-breaks. The victim is the minimum by `(count, key)`, a total
/// order; [`SpaceSaving::top`] sorts by `(count desc, key asc)`; and
/// [`SpaceSaving::entries`] iterates key-ascending.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// The key in each occupied slot (`len ≤ capacity`).
    keys: Vec<u64>,
    /// Each occupied slot's entry, aligned with `keys`.
    entries: Vec<SsEntry>,
    /// Open-addressed key → slot index; `NO_SLOT` marks a free cell.
    index: Vec<u32>,
    /// Total weight recorded (the `N` in the `N / capacity` bound).
    total: u64,
}

impl SpaceSaving {
    /// An empty sketch with `capacity.max(1)` slots.
    ///
    /// # Panics
    ///
    /// If `capacity` does not fit a `u32` slot number.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        assert!(
            capacity < NO_SLOT as usize,
            "Space-Saving capacity {capacity} exceeds the slot index"
        );
        Self {
            capacity,
            keys: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            index: vec![NO_SLOT; (2 * capacity).next_power_of_two()],
            total: 0,
        }
    }

    /// Records `weight` occurrences of `key`. Returns the key evicted
    /// to make room, if any.
    pub fn record(&mut self, key: u64, weight: u64) -> Option<u64> {
        if weight == 0 {
            return None;
        }
        self.record_slot(key, weight).1
    }

    /// [`SpaceSaving::record`] of a positive `weight`, also returning the
    /// slot `key` now occupies — callers keeping per-slot side state
    /// (the lag histograms) reset it when the slot changes key.
    pub(crate) fn record_slot(&mut self, key: u64, weight: u64) -> (usize, Option<u64>) {
        debug_assert!(weight > 0, "a zero weight records nothing");
        self.total += weight;
        let (cell, slot) = self.probe(key);
        if let Some(slot) = slot {
            self.entries[slot].count += weight;
            return (slot, None);
        }
        if self.keys.len() < self.capacity {
            let slot = self.keys.len();
            self.keys.push(key);
            self.entries.push(SsEntry {
                count: weight,
                err: 0,
            });
            self.index[cell] = slot as u32;
            return (slot, None);
        }
        // Classic Space-Saving: the new key inherits the min slot's
        // count as its overestimate. Ties go to the smallest key.
        let victim = self.min_slot();
        let evicted = self.keys[victim];
        let min = self.entries[victim].count;
        self.unindex(evicted);
        self.keys[victim] = key;
        self.entries[victim] = SsEntry {
            count: min + weight,
            err: min,
        };
        self.index_slot(victim);
        (victim, Some(evicted))
    }

    /// The slot holding `key`, if it is tracked.
    pub(crate) fn slot_of(&self, key: u64) -> Option<usize> {
        self.probe(key).1
    }

    /// Walks `key`'s probe sequence: its slot if tracked, and the index
    /// cell holding it (or the free cell that ends the walk).
    #[inline]
    fn probe(&self, key: u64) -> (usize, Option<usize>) {
        let mask = self.index.len() - 1;
        let mut cell = mix64(key) as usize & mask;
        loop {
            match self.index[cell] {
                NO_SLOT => return (cell, None),
                slot if self.keys[slot as usize] == key => return (cell, Some(slot as usize)),
                _ => cell = (cell + 1) & mask,
            }
        }
    }

    /// Enters the key in `slot` into the index (it must not be there).
    fn index_slot(&mut self, slot: usize) {
        let (cell, found) = self.probe(self.keys[slot]);
        debug_assert!(found.is_none(), "key indexed twice");
        self.index[cell] = slot as u32;
    }

    /// Removes tracked `key` from the index by backward-shift deletion:
    /// later cells of the run move back into the hole whenever their
    /// home cell does not lie between the hole and them, so every
    /// remaining key stays reachable without tombstones.
    fn unindex(&mut self, key: u64) {
        let mask = self.index.len() - 1;
        let (mut hole, found) = self.probe(key);
        debug_assert!(found.is_some(), "unindexing an untracked key");
        let mut cell = (hole + 1) & mask;
        loop {
            let slot = self.index[cell];
            if slot == NO_SLOT {
                break;
            }
            let home = mix64(self.keys[slot as usize]) as usize & mask;
            if cell.wrapping_sub(home) & mask >= cell.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = cell;
            }
            cell = (cell + 1) & mask;
        }
        self.index[hole] = NO_SLOT;
    }

    /// The occupied slot with the smallest `(count, key)`: the minimum
    /// count, then the smallest key holding it, in two passes of
    /// selects rather than branches — a Zipf tail keeps many slots tied
    /// at the minimum, so a compare per slot would mispredict often.
    fn min_slot(&self) -> usize {
        let min = self
            .entries
            .iter()
            .map(|e| e.count)
            .min()
            .expect("a full axis");
        let mut best = 0;
        let mut best_key = u64::MAX;
        for (slot, (entry, &key)) in self.entries.iter().zip(&self.keys).enumerate() {
            let better = (entry.count == min) & (key <= best_key);
            best = if better { slot } else { best };
            best_key = if better { key } else { best_key };
        }
        best
    }

    /// Total weight recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The guaranteed-presence threshold: any key with true count
    /// strictly above this is in [`SpaceSaving::entries`].
    pub fn epsilon(&self) -> u64 {
        self.total / self.capacity as u64
    }

    /// The count floor for keys *not* in the sketch: when full, a
    /// missing key's true count is at most the minimum slot count.
    pub fn absent_bound(&self) -> u64 {
        if self.keys.len() < self.capacity {
            0
        } else {
            self.entries.iter().map(|e| e.count).min().unwrap_or(0)
        }
    }

    /// The tracked entries (≤ capacity), key-ascending.
    pub fn entries(&self) -> Entries<'_> {
        Entries { sketch: self }
    }

    /// The top `k` entries ordered by count descending, key ascending
    /// on ties — a total order, so renders are deterministic.
    pub fn top(&self, k: usize) -> Vec<(u64, SsEntry)> {
        let mut all: Vec<(u64, SsEntry)> = self
            .keys
            .iter()
            .copied()
            .zip(self.entries.iter().copied())
            .collect();
        all.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Merges any number of sketches into one, symmetrically: the
    /// result depends only on the *set* of inputs, never their order.
    ///
    /// Follows the mergeable-summaries construction (Agarwal et al.):
    /// for each key in the union, the merged estimate sums the per-
    /// sketch counts where present and the per-sketch absent bound
    /// where not (a key missing from a full sketch may have occurred
    /// up to that sketch's min count), keeping the top `capacity` by
    /// `(count desc, key asc)`. Upper-bound and heavy-hitter
    /// guarantees carry over with the summed totals.
    pub fn merge(inputs: &[&SpaceSaving]) -> SpaceSaving {
        let capacity = inputs.iter().map(|s| s.capacity).max().unwrap_or(1);
        let bounds: Vec<u64> = inputs.iter().map(|s| s.absent_bound()).collect();
        // The union, built in a sketch sized to hold all of it, whose
        // index dedups keys seen in more than one input.
        let mut union = SpaceSaving::new(inputs.iter().map(|s| s.keys.len()).sum());
        for sketch in inputs {
            for &key in &sketch.keys {
                let (cell, None) = union.probe(key) else {
                    continue;
                };
                let mut entry = SsEntry::default();
                for (other, &bound) in inputs.iter().zip(&bounds) {
                    let e = other.slot_of(key).map_or(
                        SsEntry {
                            count: bound,
                            err: bound,
                        },
                        |slot| other.entries[slot],
                    );
                    entry.count += e.count;
                    entry.err += e.err;
                }
                union.index[cell] = union.keys.len() as u32;
                union.keys.push(key);
                union.entries.push(entry);
            }
        }
        let mut ranked: Vec<usize> = (0..union.keys.len()).collect();
        ranked.sort_by(|&a, &b| {
            let (ka, kb) = (union.keys[a], union.keys[b]);
            union.entries[b]
                .count
                .cmp(&union.entries[a].count)
                .then(ka.cmp(&kb))
        });
        ranked.truncate(capacity);
        let mut out = SpaceSaving::new(capacity);
        out.total = inputs.iter().map(|s| s.total).sum();
        for slot in ranked {
            out.keys.push(union.keys[slot]);
            out.entries.push(union.entries[slot]);
            out.index_slot(out.keys.len() - 1);
        }
        out
    }
}

/// A key-ascending view of a [`SpaceSaving`]'s tracked entries (see
/// [`SpaceSaving::entries`]). Lookups go through the sketch's index;
/// only iteration orders the slots.
#[derive(Clone, Copy, Debug)]
pub struct Entries<'a> {
    sketch: &'a SpaceSaving,
}

impl<'a> Entries<'a> {
    /// `key`'s entry, if tracked.
    pub fn get(&self, key: &u64) -> Option<&'a SsEntry> {
        let sketch = self.sketch;
        sketch.slot_of(*key).map(|slot| &sketch.entries[slot])
    }

    /// Whether `key` is tracked.
    pub fn contains_key(&self, key: &u64) -> bool {
        self.sketch.slot_of(*key).is_some()
    }

    /// How many keys are tracked.
    pub fn len(&self) -> usize {
        self.sketch.keys.len()
    }

    /// Whether no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.sketch.keys.is_empty()
    }
}

impl<'a> IntoIterator for Entries<'a> {
    type Item = (&'a u64, &'a SsEntry);
    type IntoIter = EntriesIter<'a>;

    fn into_iter(self) -> EntriesIter<'a> {
        let sketch = self.sketch;
        let mut slots: Vec<usize> = (0..sketch.keys.len()).collect();
        slots.sort_unstable_by_key(|&slot| sketch.keys[slot]);
        EntriesIter {
            sketch,
            slots: slots.into_iter(),
        }
    }
}

/// Iterator over [`Entries`], key-ascending.
#[derive(Debug)]
pub struct EntriesIter<'a> {
    sketch: &'a SpaceSaving,
    slots: std::vec::IntoIter<usize>,
}

impl<'a> Iterator for EntriesIter<'a> {
    type Item = (&'a u64, &'a SsEntry);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.slots.next()?;
        Some((&self.sketch.keys[slot], &self.sketch.entries[slot]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for EntriesIter<'_> {}

/// HyperLogLog register count (`b = 8` index bits). 256 registers give
/// ~6.5% standard error — ample for "tens vs. thousands vs. millions
/// active" at 256 bytes per shard.
const HLL_REGISTERS: usize = 256;

/// A HyperLogLog-style distinct counter over `u64` keys.
#[derive(Clone, Debug)]
pub struct DistinctEstimator {
    registers: [u8; HLL_REGISTERS],
}

impl Default for DistinctEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl DistinctEstimator {
    /// An empty estimator.
    pub fn new() -> Self {
        Self {
            registers: [0; HLL_REGISTERS],
        }
    }

    /// Observes one key occurrence (idempotent per key, as distinct
    /// counting requires).
    pub fn observe(&mut self, key: u64) {
        let hash = mix64(key);
        let idx = (hash >> 56) as usize;
        // Rank of the first set bit in the remaining 56 bits, 1-based.
        let rho = ((hash << 8) | 0x80).leading_zeros() as u8 + 1;
        if rho > self.registers[idx] {
            self.registers[idx] = rho;
        }
    }

    /// The distinct-count estimate, with the standard small-range
    /// linear-counting correction.
    pub fn estimate(&self) -> u64 {
        let m = HLL_REGISTERS as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 1.0 / (1u64 << r.min(63)) as f64)
            .sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            (m * (m / zeros as f64).ln()).round() as u64
        } else {
            raw.round() as u64
        }
    }

    /// Register-wise max — commutative and associative, so merged
    /// estimates are independent of input order.
    pub fn merge(&mut self, other: &DistinctEstimator) {
        for (mine, theirs) in self.registers.iter_mut().zip(&other.registers) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// Log buckets per [`LagHist`]: bucket 0 holds zero, bucket `i` holds
/// `[2^(i-1), 2^i)` microseconds, the last bucket saturates. 48 covers
/// lags up to ~8.9 years of virtual time.
const LAG_BUCKETS: usize = 48;

/// A compact single-writer log-bucketed lag histogram (the same bucket
/// layout as [`crate::Histogram`], minus the atomics — it only lives
/// behind the recorder's mutex).
#[derive(Clone, Debug)]
pub struct LagHist {
    buckets: [u64; LAG_BUCKETS],
}

impl Default for LagHist {
    fn default() -> Self {
        Self {
            buckets: [0; LAG_BUCKETS],
        }
    }
}

impl LagHist {
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(LAG_BUCKETS - 1)
        }
    }

    /// Records `weight` observations of `value` microseconds.
    pub fn record(&mut self, value: u64, weight: u64) {
        self.buckets[Self::bucket_index(value)] += weight;
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate quantile: the upper bound of the bucket holding the
    /// `ceil(q·count)`-th observation. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= target {
                return match i {
                    0 => 0,
                    i => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Bucket-wise sum — commutative, for read-time shard merging.
    pub fn merge(&mut self, other: &LagHist) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// Aggregate (non-sketched) totals, for skew and coverage readouts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SketchTotals {
    /// Objects requested (served from cache + fetched on miss).
    pub requests: u64,
    /// Bytes served from cache.
    pub bytes: u64,
    /// Objects fetched from the cluster on miss.
    pub misses: u64,
    /// Delivery-lag SLO violations.
    pub slo_violations: u64,
}

#[derive(Clone, Debug)]
struct SketchState {
    requests: SpaceSaving,
    bytes: SpaceSaving,
    misses: SpaceSaving,
    slo: SpaceSaving,
    distinct: DistinctEstimator,
    /// Lag histograms of the keys `requests` tracks, slot for slot.
    lags: LagTable,
    totals: SketchTotals,
}

impl SketchState {
    fn new(capacity: usize) -> Self {
        Self {
            requests: SpaceSaving::new(capacity),
            bytes: SpaceSaving::new(capacity),
            misses: SpaceSaving::new(capacity),
            slo: SpaceSaving::new(capacity),
            distinct: DistinctEstimator::new(),
            lags: LagTable::with_capacity(capacity),
            totals: SketchTotals::default(),
        }
    }

    fn track_requests(&mut self, key: u64, weight: u64) {
        let (slot, evicted) = self.requests.record_slot(key, weight);
        // The lag table follows the requests sketch's slots, so memory
        // stays bounded by capacity, not cardinality: a key entering a
        // slot starts with an empty histogram.
        if slot == self.lags.hists.len() || evicted.is_some() {
            self.lags.assign(slot, key);
        }
    }
}

/// Per-key delivery-lag histograms aligned with a requests axis's
/// slots: `hists[s]` belongs to `keys[s]`, the key in slot `s`. An
/// empty histogram reads as absent — no lag recorded since the key
/// took the slot.
#[derive(Clone, Debug)]
struct LagTable {
    keys: Vec<u64>,
    hists: Vec<LagHist>,
}

impl LagTable {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            keys: Vec::with_capacity(capacity),
            hists: Vec::with_capacity(capacity),
        }
    }

    /// `key` now holds `slot` (the next free one, or a reused one):
    /// its histogram starts empty.
    fn assign(&mut self, slot: usize, key: u64) {
        if slot == self.hists.len() {
            self.keys.push(key);
            self.hists.push(LagHist::default());
        } else {
            self.keys[slot] = key;
            self.hists[slot] = LagHist::default();
        }
    }

    /// `key`'s histogram, if it has one with observations.
    fn get(&self, key: &u64) -> Option<&LagHist> {
        let slot = self.keys.iter().position(|k| k == key)?;
        Some(&self.hists[slot]).filter(|hist| hist.count() > 0)
    }

    #[cfg(test)]
    fn contains_key(&self, key: &u64) -> bool {
        self.get(key).is_some()
    }
}

#[cfg(test)]
impl std::ops::Index<&u64> for LagTable {
    type Output = LagHist;

    fn index(&self, key: &u64) -> &LagHist {
        self.get(key).expect("no lag histogram for key")
    }
}

/// The write-side recorder: a sampling gate in front of one sketch
/// state. All methods are `&self`; the intended deployment is one
/// recorder per cache shard plus read-time [`HotSnapshot::merge`].
#[derive(Debug)]
pub struct SketchRecorder {
    config: SketchConfig,
    ops: AtomicU64,
    state: Mutex<SketchState>,
}

impl SketchRecorder {
    /// A recorder with `config` (capacity floored at 1, `top_k` clamped
    /// to capacity).
    pub fn new(config: SketchConfig) -> Self {
        let config = SketchConfig {
            capacity: config.capacity.max(1),
            top_k: config.top_k.clamp(1, config.capacity.max(1)),
            ..config
        };
        Self {
            config,
            ops: AtomicU64::new(0),
            state: Mutex::new(SketchState::new(config.capacity)),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> SketchConfig {
        self.config
    }

    /// The sampling decision: `Some(weight)` to record with that
    /// weight, `None` to skip. The skip path is a racy load/store pair
    /// rather than an atomic RMW: a `lock`ed increment costs ~20 cycles
    /// even uncontended, and a 32-request batched GET takes 32 ticks.
    /// On a one-core host that alone broke the 2 % budget a sharded
    /// GET had for 1-in-16 sampling, when a standalone overhead bench
    /// (since deleted) timed sketched GETs against unsketched ones.
    /// Concurrent recorders may lose increments or double-sample a
    /// tick; that only jitters the sampling phase — the `weight = n`
    /// compensation keeps totals unbiased in expectation, and
    /// single-threaded replays (the deterministic sim) see exact 1-in-n
    /// behaviour.
    #[inline]
    fn sample(&self) -> Option<u64> {
        let n = self.config.sample_every_n;
        if n <= 1 {
            return Some(1);
        }
        let tick = self.ops.load(Ordering::Relaxed);
        self.ops.store(tick.wrapping_add(1), Ordering::Relaxed);
        if tick.is_multiple_of(n as u64) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Starts a batch: everything recorded through it shares one lock
    /// of the sketch state, taken at the first sampled record and held
    /// until the batch drops. Each record still takes its own sampling
    /// tick, in call order.
    pub fn batch(&self) -> SketchBatch<'_> {
        SketchBatch {
            recorder: self,
            state: None,
        }
    }

    /// [`SketchBatch::hit`] on a batch of its own.
    pub fn record_hit(&self, key: u64, objects: u64, bytes: u64) {
        self.batch().hit(key, objects, bytes);
    }

    /// [`SketchBatch::miss`] on a batch of its own.
    pub fn record_miss(&self, key: u64, objects: u64) {
        self.batch().miss(key, objects);
    }

    /// [`SketchBatch::ack`] on a batch of its own.
    pub fn record_ack(&self, key: u64) {
        self.batch().ack(key);
    }

    /// [`SketchBatch::delivery_lags`] of one lag, on a batch of its own.
    pub fn record_delivery_lag(&self, key: u64, lag_us: u64) {
        self.batch().delivery_lags(key, [lag_us]);
    }

    /// A point-in-time copy of the sketch state.
    pub fn snapshot(&self) -> HotSnapshot {
        let state = self.state.lock().expect("sketch state poisoned");
        HotSnapshot {
            requests: state.requests.clone(),
            bytes: state.bytes.clone(),
            misses: state.misses.clone(),
            slo: state.slo.clone(),
            distinct: state.distinct.clone(),
            lags: state.lags.clone(),
            totals: state.totals,
            top_k: self.config.top_k,
            sample_every_n: self.config.sample_every_n.max(1),
        }
    }
}

/// Records into one [`SketchRecorder`] under a single lock of its state
/// (see [`SketchRecorder::batch`]).
#[derive(Debug)]
pub struct SketchBatch<'a> {
    recorder: &'a SketchRecorder,
    state: Option<MutexGuard<'a, SketchState>>,
}

impl SketchBatch<'_> {
    /// Takes one sampling tick; when it is due, returns the weight and
    /// the (now locked) state.
    #[inline]
    fn sampled(&mut self) -> Option<(u64, &mut SketchState)> {
        let weight = self.recorder.sample()?;
        let recorder = self.recorder;
        let state = self
            .state
            .get_or_insert_with(|| recorder.state.lock().expect("sketch state poisoned"));
        Some((weight, state))
    }

    /// Attributes a cache hit: `objects` served (`bytes` of them) for
    /// `key`. No-op (and no tick) when `objects == 0`.
    pub fn hit(&mut self, key: u64, objects: u64, bytes: u64) {
        if objects == 0 {
            return;
        }
        let Some((w, state)) = self.sampled() else {
            return;
        };
        state.track_requests(key, w * objects);
        state.bytes.record(key, w * bytes);
        state.distinct.observe(key);
        state.totals.requests += w * objects;
        state.totals.bytes += w * bytes;
    }

    /// Attributes a miss fetch: `objects` fetched from the cluster for
    /// `key`. Misses count into the requests axis too (requests =
    /// hit + miss objects). No-op (and no tick) when `objects == 0`.
    pub fn miss(&mut self, key: u64, objects: u64) {
        if objects == 0 {
            return;
        }
        let Some((w, state)) = self.sampled() else {
            return;
        };
        state.track_requests(key, w * objects);
        state.misses.record(key, w * objects);
        state.distinct.observe(key);
        state.totals.requests += w * objects;
        state.totals.misses += w * objects;
    }

    /// Attributes an ACK (consumption marker advance) — activity only:
    /// feeds the distinct-active estimator without touching the
    /// heavy-hitter axes.
    pub fn ack(&mut self, key: u64) {
        if let Some((_, state)) = self.sampled() {
            state.distinct.observe(key);
        }
    }

    /// Attributes delivered objects' end-to-end lags, all for `key`:
    /// feeds the per-key quantiles (if `key` is currently tracked by
    /// the requests sketch) and the SLO-violations axis with every lag
    /// over the configured threshold. Each lag takes its own sampling
    /// tick; the key's lookups and its SLO-axis update happen once for
    /// the lot (one Space-Saving update of weight `w + w + …` equals
    /// that many updates of weight `w`, with nothing in between).
    pub fn delivery_lags(&mut self, key: u64, lags_us: impl IntoIterator<Item = u64>) {
        let recorder = self.recorder;
        let mut sampled = lags_us
            .into_iter()
            .filter_map(|lag_us| Some((lag_us, recorder.sample()?)))
            .peekable();
        if sampled.peek().is_none() {
            return;
        }
        let state = &mut **self
            .state
            .get_or_insert_with(|| recorder.state.lock().expect("sketch state poisoned"));
        let mut hist = state
            .requests
            .slot_of(key)
            .map(|slot| &mut state.lags.hists[slot]);
        let mut violations = 0;
        for (lag_us, w) in sampled {
            if let Some(hist) = hist.as_mut() {
                hist.record(lag_us, w);
            }
            if lag_us > recorder.config.slo_lag_us {
                violations += w;
            }
        }
        if violations > 0 {
            state.slo.record(key, violations);
            state.totals.slo_violations += violations;
        }
    }
}

/// A mergeable point-in-time view of one or more recorders — the
/// payload behind `/hot` and the `/healthz` top-5 summary.
#[derive(Clone, Debug)]
pub struct HotSnapshot {
    requests: SpaceSaving,
    bytes: SpaceSaving,
    misses: SpaceSaving,
    slo: SpaceSaving,
    distinct: DistinctEstimator,
    /// Aligned with `requests`' slots, as in the recorder.
    lags: LagTable,
    totals: SketchTotals,
    top_k: usize,
    sample_every_n: u32,
}

impl HotSnapshot {
    /// Merges per-shard snapshots symmetrically: every constituent
    /// fold (Space-Saving union, HLL register max, lag bucket sums,
    /// total sums) is commutative and the final render orders keys by
    /// `(count desc, key asc)`, so the result — down to the JSON bytes
    /// — is independent of shard order.
    ///
    /// One snapshot merges to itself: it already holds at most
    /// `capacity` entries per axis, so the union changes nothing.
    pub fn merge(snapshots: &[HotSnapshot]) -> Option<HotSnapshot> {
        let first = snapshots.first()?;
        if snapshots.len() == 1 {
            return Some(first.clone());
        }
        let axis = |pick: fn(&HotSnapshot) -> &SpaceSaving| {
            let refs: Vec<&SpaceSaving> = snapshots.iter().map(pick).collect();
            SpaceSaving::merge(&refs)
        };
        let requests = axis(|s| &s.requests);
        let mut distinct = DistinctEstimator::new();
        let mut totals = SketchTotals::default();
        for snap in snapshots {
            distinct.merge(&snap.distinct);
            totals.requests += snap.totals.requests;
            totals.bytes += snap.totals.bytes;
            totals.misses += snap.totals.misses;
            totals.slo_violations += snap.totals.slo_violations;
        }
        // Lag memory stays bounded after the union: only the keys the
        // merged requests sketch tracks, each the sum of its inputs'.
        let mut lags = LagTable::with_capacity(requests.keys.len());
        for (slot, &key) in requests.keys.iter().enumerate() {
            lags.assign(slot, key);
            for snap in snapshots {
                if let Some(theirs) = snap.requests.slot_of(key) {
                    lags.hists[slot].merge(&snap.lags.hists[theirs]);
                }
            }
        }
        Some(HotSnapshot {
            requests,
            bytes: axis(|s| &s.bytes),
            misses: axis(|s| &s.misses),
            slo: axis(|s| &s.slo),
            distinct,
            lags,
            totals,
            top_k: first.top_k,
            sample_every_n: first.sample_every_n,
        })
    }

    /// The requests-axis heavy hitters, `(key, entry)` ranked.
    pub fn top_requests(&self, k: usize) -> Vec<(u64, SsEntry)> {
        self.requests.top(k)
    }

    /// Estimated distinct active subscriptions.
    pub fn distinct_active(&self) -> u64 {
        self.distinct.estimate()
    }

    /// Aggregate totals across all keys (not just the tracked ones).
    pub fn totals(&self) -> SketchTotals {
        self.totals
    }

    /// Demand concentration in `[0, 1]`: the share of all requests
    /// attributable to the top-K keys (estimates clamped so sketch
    /// overcounting can never report more than 100%). The health
    /// engine alarms on this — a skew near 1.0 means a handful of
    /// subscriptions own the cache.
    pub fn skew(&self) -> f64 {
        if self.totals.requests == 0 {
            return 0.0;
        }
        let top: u64 = self
            .requests
            .top(self.top_k)
            .iter()
            .map(|(_, e)| e.count - e.err)
            .sum();
        (top as f64 / self.totals.requests as f64).min(1.0)
    }

    fn axis_json(sketch: &SpaceSaving, k: usize) -> String {
        let mut out = String::from("[");
        for (i, (key, entry)) in sketch.top(k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut obj = crate::json::ObjectWriter::new(&mut out);
            obj.field_u64("key", *key);
            obj.field_u64("count", entry.count);
            obj.field_u64("err", entry.err);
        }
        out.push(']');
        out
    }

    /// The `/hot` endpoint body: all four axes' top-K, the distinct-
    /// active estimate, per-key lag quantiles for the requests top-K,
    /// totals and error bounds. Deterministic byte-for-byte given the
    /// same merged state.
    pub fn to_json(&self) -> String {
        let mut body = String::with_capacity(1024);
        {
            let mut obj = crate::json::ObjectWriter::new(&mut body);
            obj.field_u64("top_k", self.top_k as u64);
            obj.field_u64("sample_every_n", u64::from(self.sample_every_n));
            let mut totals = String::new();
            {
                let mut t = crate::json::ObjectWriter::new(&mut totals);
                t.field_u64("requests", self.totals.requests);
                t.field_u64("bytes", self.totals.bytes);
                t.field_u64("misses", self.totals.misses);
                t.field_u64("slo_violations", self.totals.slo_violations);
            }
            obj.field_raw("totals", &totals);
            obj.field_u64("distinct_active_estimate", self.distinct.estimate());
            obj.field_u64("epsilon_requests", self.requests.epsilon());
            obj.field_f64("skew_top_k", self.skew());
            let mut top = String::from("{");
            top.push_str(&format!(
                r#""requests":{},"bytes":{},"misses":{},"slo_violations":{}"#,
                Self::axis_json(&self.requests, self.top_k),
                Self::axis_json(&self.bytes, self.top_k),
                Self::axis_json(&self.misses, self.top_k),
                Self::axis_json(&self.slo, self.top_k),
            ));
            top.push('}');
            obj.field_raw("top", &top);
            let mut lags = String::from("[");
            let mut first = true;
            for (key, _) in self.requests.top(self.top_k) {
                let Some(hist) = self.lags.get(&key) else {
                    continue;
                };
                if !first {
                    lags.push(',');
                }
                first = false;
                let mut row = crate::json::ObjectWriter::new(&mut lags);
                row.field_u64("key", key);
                row.field_u64("count", hist.count());
                row.field_u64("p50_us", hist.quantile(0.50));
                row.field_u64("p90_us", hist.quantile(0.90));
                row.field_u64("p99_us", hist.quantile(0.99));
            }
            lags.push(']');
            obj.field_raw("lag_us", &lags);
        }
        body
    }

    /// The compact summary embedded in `/healthz` and stamped into
    /// flight-recorder anomaly dumps: the top-`k` requests-axis keys
    /// plus the distinct-active estimate.
    pub fn summary_json(&self, k: usize) -> String {
        let mut body = String::with_capacity(256);
        {
            let mut obj = crate::json::ObjectWriter::new(&mut body);
            obj.field_u64("distinct_active_estimate", self.distinct.estimate());
            obj.field_f64("skew_top_k", self.skew());
            obj.field_raw("top_requests", &Self::axis_json(&self.requests, k));
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn space_saving_is_exact_under_capacity() {
        let mut ss = SpaceSaving::new(8);
        for (key, n) in [(1u64, 5u64), (2, 3), (3, 9)] {
            for _ in 0..n {
                ss.record(key, 1);
            }
        }
        assert_eq!(ss.total(), 17);
        let top = ss.top(3);
        assert_eq!(top[0], (3, SsEntry { count: 9, err: 0 }));
        assert_eq!(top[1], (1, SsEntry { count: 5, err: 0 }));
        assert_eq!(top[2], (2, SsEntry { count: 3, err: 0 }));
    }

    #[test]
    fn space_saving_upper_bounds_and_retains_heavy_hitters() {
        // 4 heavy keys at 1000 each + 400 singleton keys, capacity 16.
        let mut ss = SpaceSaving::new(16);
        let mut true_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for key in 0..4u64 {
            for _ in 0..1000 {
                ss.record(key, 1);
                *true_counts.entry(key).or_default() += 1;
            }
        }
        for key in 100..500u64 {
            ss.record(key, 1);
            *true_counts.entry(key).or_default() += 1;
        }
        // Guarantee: every key with true count > N/capacity is present,
        // and every estimate is an upper bound within err.
        let eps = ss.epsilon();
        for (&key, &truth) in &true_counts {
            if truth > eps {
                let entry = ss.entries().get(&key).expect("heavy hitter evicted");
                assert!(entry.count >= truth, "estimate below truth for {key}");
                assert!(
                    entry.count - entry.err <= truth,
                    "err bound broken for {key}"
                );
            }
        }
        let top: Vec<u64> = ss.top(4).into_iter().map(|(k, _)| k).collect();
        assert_eq!(top, vec![0, 1, 2, 3]);
    }

    #[test]
    fn merge_is_order_independent_to_the_byte() {
        // Three overlapping streams; merged JSON must be identical for
        // every permutation of the inputs.
        let mut parts: Vec<HotSnapshot> = Vec::new();
        for shard in 0..3u64 {
            let rec = SketchRecorder::new(SketchConfig {
                capacity: 8,
                top_k: 5,
                ..SketchConfig::default()
            });
            for i in 0..200u64 {
                let key = (i * (shard + 7)) % 23;
                rec.record_hit(key, 1 + i % 3, 64 * (1 + i % 5));
                if i % 4 == 0 {
                    rec.record_miss(key, 1);
                }
                rec.record_delivery_lag(key, i * 1000);
            }
            parts.push(rec.snapshot());
        }
        let baseline = HotSnapshot::merge(&parts).unwrap().to_json();
        let permutations: [[usize; 3]; 5] = [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for perm in permutations {
            let shuffled: Vec<HotSnapshot> = perm.iter().map(|&i| parts[i].clone()).collect();
            let merged = HotSnapshot::merge(&shuffled).unwrap().to_json();
            assert_eq!(baseline, merged, "merge order changed the render");
        }
    }

    #[test]
    fn merged_estimates_upper_bound_the_union() {
        let a = SketchRecorder::new(SketchConfig {
            capacity: 8,
            ..SketchConfig::default()
        });
        let b = SketchRecorder::new(SketchConfig {
            capacity: 8,
            ..SketchConfig::default()
        });
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..500u64 {
            let key = i % 30;
            a.record_hit(key, 1, 1);
            *truth.entry(key).or_default() += 1;
            let key = i % 7;
            b.record_hit(key, 1, 1);
            *truth.entry(key).or_default() += 1;
        }
        let merged = HotSnapshot::merge(&[a.snapshot(), b.snapshot()]).unwrap();
        for (key, entry) in merged.requests.top(8) {
            assert!(
                entry.count >= truth[&key],
                "merged estimate {} below truth {} for {key}",
                entry.count,
                truth[&key]
            );
        }
    }

    #[test]
    fn distinct_estimator_tracks_cardinality() {
        let mut hll = DistinctEstimator::new();
        for key in 0..10_000u64 {
            hll.observe(key);
            hll.observe(key); // duplicates must not inflate
        }
        let est = hll.estimate() as f64;
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.15,
            "estimate {est} off by more than 15%"
        );
        // Small range: near-exact via linear counting.
        let mut small = DistinctEstimator::new();
        for key in 0..20u64 {
            small.observe(key);
        }
        let est = small.estimate();
        assert!((18..=22).contains(&est), "small estimate {est}");
        // Merge == union.
        let mut left = DistinctEstimator::new();
        let mut right = DistinctEstimator::new();
        for key in 0..5000u64 {
            left.observe(key);
            right.observe(key + 2500); // 50% overlap
        }
        left.merge(&right);
        let est = left.estimate() as f64;
        assert!(
            (est - 7500.0).abs() / 7500.0 < 0.15,
            "merged estimate {est} off"
        );
    }

    #[test]
    fn lag_quantiles_follow_top_k_membership() {
        let rec = SketchRecorder::new(SketchConfig {
            capacity: 2,
            top_k: 2,
            ..SketchConfig::default()
        });
        rec.record_hit(1, 10, 100);
        rec.record_hit(2, 5, 50);
        rec.record_delivery_lag(1, 1000);
        rec.record_delivery_lag(1, 2000);
        rec.record_delivery_lag(9, 5000); // untracked: no histogram
        let snap = rec.snapshot();
        assert!(snap.lags.contains_key(&1));
        assert!(!snap.lags.contains_key(&9));
        assert_eq!(snap.lags[&1].count(), 2);
        assert!(snap.lags[&1].quantile(0.5) >= 1000);
        // Key 3 displaces the min slot; the evicted key's lag state
        // goes with it.
        rec.record_hit(3, 100, 100);
        let snap = rec.snapshot();
        assert!(!snap.lags.contains_key(&2));
    }

    #[test]
    fn sampling_weights_keep_totals_unbiased() {
        let full = SketchRecorder::new(SketchConfig::default());
        let sampled = SketchRecorder::new(SketchConfig {
            sample_every_n: 8,
            ..SketchConfig::default()
        });
        for i in 0..8000u64 {
            full.record_hit(i % 3, 1, 10);
            sampled.record_hit(i % 3, 1, 10);
        }
        let f = full.snapshot().totals();
        let s = sampled.snapshot().totals();
        assert_eq!(f.requests, 8000);
        // The sampled stream records every 8th op at weight 8: totals
        // match exactly on a uniform tape.
        assert_eq!(s.requests, 8000);
        assert_eq!(s.bytes, f.bytes);
    }

    #[test]
    fn a_batch_samples_and_records_what_single_calls_would() {
        // Same records, same order: one recorder takes each through its
        // own lock, the other through one batch per retrieval, a
        // retrieval's lags in one call. Every record takes its own tick
        // either way, so even a sampled recorder ends in the same state
        // — on a capacity small enough that the SLO axis replaces keys.
        let config = SketchConfig {
            capacity: 4,
            sample_every_n: 3,
            slo_lag_us: 1_000,
            ..SketchConfig::default()
        };
        let single = SketchRecorder::new(config);
        let batched = SketchRecorder::new(config);
        for i in 0..300u64 {
            let key = i % 7;
            let lags = [i * 10, i * 20 + 5, 3];
            single.record_hit(key, 1 + i % 3, 64);
            single.record_ack(key);
            for lag in lags {
                single.record_delivery_lag(key, lag);
            }
            single.record_miss(key, i % 2);
            let mut batch = batched.batch();
            batch.hit(key, 1 + i % 3, 64);
            batch.ack(key);
            batch.delivery_lags(key, lags);
            batch.miss(key, i % 2);
        }
        assert_eq!(single.snapshot().to_json(), batched.snapshot().to_json());
        assert!(batched.snapshot().totals().slo_violations > 0);
    }

    #[test]
    fn slo_axis_counts_only_violations() {
        let rec = SketchRecorder::new(SketchConfig {
            slo_lag_us: 1000,
            ..SketchConfig::default()
        });
        rec.record_hit(5, 1, 1);
        rec.record_delivery_lag(5, 500); // within SLO
        rec.record_delivery_lag(5, 1500); // violation
        rec.record_delivery_lag(5, 3000); // violation
        let snap = rec.snapshot();
        assert_eq!(snap.totals().slo_violations, 2);
        assert_eq!(snap.slo.top(1)[0].0, 5);
        assert_eq!(snap.slo.top(1)[0].1.count, 2);
    }

    #[test]
    fn skew_reads_the_concentration() {
        let rec = SketchRecorder::new(SketchConfig {
            capacity: 8,
            top_k: 2,
            ..SketchConfig::default()
        });
        // Two keys own ~90% of demand.
        for _ in 0..450 {
            rec.record_hit(1, 1, 1);
            rec.record_hit(2, 1, 1);
        }
        for key in 10..110u64 {
            rec.record_hit(key, 1, 1);
        }
        let snap = rec.snapshot();
        assert!(snap.skew() > 0.8, "skew {}", snap.skew());
        assert!(snap.skew() <= 1.0);
    }

    #[test]
    fn hot_json_has_the_contract_fields() {
        let rec = SketchRecorder::new(SketchConfig::default());
        rec.record_hit(42, 3, 300);
        rec.record_miss(42, 1);
        rec.record_ack(42);
        rec.record_delivery_lag(42, 2500);
        let snap = rec.snapshot();
        let json = snap.to_json();
        for field in [
            r#""top_k":10"#,
            r#""totals":{"requests":4"#,
            r#""distinct_active_estimate":"#,
            r#""top":{"requests":[{"key":42,"count":4,"err":0}]"#,
            r#""bytes":[{"key":42,"count":300"#,
            r#""misses":[{"key":42,"count":1"#,
            r#""lag_us":[{"key":42,"count":1"#,
            r#""skew_top_k":1"#,
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let summary = snap.summary_json(5);
        assert!(
            summary.contains(r#""top_requests":[{"key":42"#),
            "{summary}"
        );
        assert!(
            summary.contains(r#""distinct_active_estimate":"#),
            "{summary}"
        );
    }
}
