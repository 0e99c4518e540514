//! The slot-array [`SpaceSaving`] against a reference kept here: the
//! `BTreeMap`-backed sketch it replaced, record for record.
//!
//! Seeded weighted streams at capacities {1, 2, 3, 8, 64} — some with
//! every weight equal, where every eviction is a tie between minimum
//! slots — must evict the same key on every record and agree on the
//! ranked top, the key-ordered entries, the absent bound, epsilon and
//! the total every 100 records; merging 2–4 such sketches must agree
//! too.

use std::collections::BTreeMap;

use bad_telemetry::{SpaceSaving, SsEntry};
use bad_types::rng::Rng;

/// The tree-backed Space-Saving the slot arrays replaced.
struct Reference {
    capacity: usize,
    entries: BTreeMap<u64, SsEntry>,
    total: u64,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
            total: 0,
        }
    }

    fn record(&mut self, key: u64, weight: u64) -> Option<u64> {
        if weight == 0 {
            return None;
        }
        self.total += weight;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.count += weight;
            return None;
        }
        if self.entries.len() < self.capacity {
            self.entries.insert(
                key,
                SsEntry {
                    count: weight,
                    err: 0,
                },
            );
            return None;
        }
        // Key-ascending iteration with a strict `<` keeps the
        // smallest-keyed minimum.
        let (&victim, &min) = self
            .entries
            .iter()
            .reduce(|a, b| if b.1.count < a.1.count { b } else { a })
            .expect("capacity ≥ 1");
        self.entries.remove(&victim);
        self.entries.insert(
            key,
            SsEntry {
                count: min.count + weight,
                err: min.count,
            },
        );
        Some(victim)
    }

    fn epsilon(&self) -> u64 {
        self.total / self.capacity as u64
    }

    fn absent_bound(&self) -> u64 {
        if self.entries.len() < self.capacity {
            0
        } else {
            self.entries.values().map(|e| e.count).min().unwrap_or(0)
        }
    }

    fn top(&self, k: usize) -> Vec<(u64, SsEntry)> {
        let mut all: Vec<(u64, SsEntry)> = self.entries.iter().map(|(&k, &e)| (k, e)).collect();
        all.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    fn merge(inputs: &[&Reference]) -> Reference {
        let capacity = inputs.iter().map(|s| s.capacity).max().unwrap_or(1);
        let mut out = Reference::new(capacity);
        out.total = inputs.iter().map(|s| s.total).sum();
        let bounds: Vec<u64> = inputs.iter().map(|s| s.absent_bound()).collect();
        let mut merged: BTreeMap<u64, SsEntry> = BTreeMap::new();
        for sketch in inputs {
            for &key in sketch.entries.keys() {
                if merged.contains_key(&key) {
                    continue;
                }
                let mut entry = SsEntry::default();
                for (other, &bound) in inputs.iter().zip(&bounds) {
                    match other.entries.get(&key) {
                        Some(e) => {
                            entry.count += e.count;
                            entry.err += e.err;
                        }
                        None => {
                            entry.count += bound;
                            entry.err += bound;
                        }
                    }
                }
                merged.insert(key, entry);
            }
        }
        let mut ranked: Vec<(u64, SsEntry)> = merged.into_iter().collect();
        ranked.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        ranked.truncate(capacity);
        out.entries = ranked.into_iter().collect();
        out
    }
}

const CAPACITIES: [usize; 5] = [1, 2, 3, 8, 64];

/// A seeded stream of `(key, weight)`: 70 % of draws from a hot set a
/// little larger than `capacity`, the rest from a keyspace several
/// times wider, so the full sketch keeps both keeping and evicting.
/// `equal` fixes every weight at 1; otherwise weights run 0..=5.
fn stream(seed: u64, capacity: usize, len: usize, equal: bool) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed);
    let hot = capacity as u64 + 2;
    let wide = 6 * capacity as u64 + 10;
    (0..len)
        .map(|_| {
            let key = if rng.below(10) < 7 {
                rng.below(hot)
            } else {
                rng.below(wide)
            };
            let weight = if equal { 1 } else { rng.below(6) };
            // Spread the keys so hashing, not a dense range, places them.
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed, weight)
        })
        .collect()
}

fn entries_of(sketch: &SpaceSaving) -> Vec<(u64, SsEntry)> {
    sketch
        .entries()
        .into_iter()
        .map(|(&k, &e)| (k, e))
        .collect()
}

fn assert_same(flat: &SpaceSaving, tree: &Reference, what: &str) {
    let capacity = tree.capacity;
    assert_eq!(flat.top(capacity), tree.top(capacity), "{what}: top");
    let entries: Vec<(u64, SsEntry)> = tree.entries.iter().map(|(&k, &e)| (k, e)).collect();
    assert_eq!(entries_of(flat), entries, "{what}: entries");
    assert_eq!(flat.entries().len(), tree.entries.len(), "{what}: len");
    for (key, entry) in &tree.entries {
        assert_eq!(flat.entries().get(key), Some(entry), "{what}: get {key}");
    }
    assert_eq!(
        flat.absent_bound(),
        tree.absent_bound(),
        "{what}: absent bound"
    );
    assert_eq!(flat.epsilon(), tree.epsilon(), "{what}: epsilon");
    assert_eq!(flat.total(), tree.total, "{what}: total");
}

/// Replays `stream` into both sketches, comparing as it goes.
fn replay(capacity: usize, stream: &[(u64, u64)], what: &str) -> (SpaceSaving, Reference) {
    let mut flat = SpaceSaving::new(capacity);
    let mut tree = Reference::new(capacity);
    for (i, &(key, weight)) in stream.iter().enumerate() {
        assert_eq!(
            flat.record(key, weight),
            tree.record(key, weight),
            "{what}: record {i} ({key}, {weight}) evicted another key"
        );
        if (i + 1) % 100 == 0 {
            assert_same(&flat, &tree, &format!("{what} after {} records", i + 1));
        }
    }
    assert_same(&flat, &tree, &format!("{what} at the end"));
    (flat, tree)
}

#[test]
fn every_record_evicts_what_the_tree_sketch_evicts() {
    for capacity in CAPACITIES {
        for seed in [1u64, 7, 42] {
            for equal in [true, false] {
                let what = format!("capacity {capacity} seed {seed} equal {equal}");
                let (flat, tree) = replay(capacity, &stream(seed, capacity, 3_000, equal), &what);
                assert_eq!(flat.entries().len(), tree.entries.len(), "{what}");
                assert_eq!(
                    tree.entries.len(),
                    capacity,
                    "{what}: the sketch never filled"
                );
            }
        }
    }
}

#[test]
fn merges_equal_the_tree_sketch_merges() {
    let mut rng = Rng::new(0x5EED);
    for round in 0..40u64 {
        let parts = 2 + rng.below(3) as usize;
        let mut flats = Vec::new();
        let mut trees = Vec::new();
        for part in 0..parts {
            let capacity = CAPACITIES[rng.below(CAPACITIES.len() as u64) as usize];
            // Overlapping keyspaces: every part draws from seed `round`'s
            // key spread, so the union has keys in several parts.
            let len = 50 + rng.below(1_500) as usize;
            let equal = rng.below(2) == 0;
            let mut keys = stream(round, capacity, len, equal);
            for (i, pair) in keys.iter_mut().enumerate() {
                if (i + part) % 3 == 0 {
                    pair.1 = pair.1.max(1) + part as u64;
                }
            }
            let what = format!("round {round} part {part} capacity {capacity}");
            let (flat, tree) = replay(capacity, &keys, &what);
            flats.push(flat);
            trees.push(tree);
        }
        let flat_refs: Vec<&SpaceSaving> = flats.iter().collect();
        let tree_refs: Vec<&Reference> = trees.iter().collect();
        let mut merged = SpaceSaving::merge(&flat_refs);
        let mut reference = Reference::merge(&tree_refs);
        assert_same(
            &merged,
            &reference,
            &format!("round {round}: merge of {parts}"),
        );
        // A merged sketch keeps recording like the reference does.
        let what = format!("round {round}: recording after the merge");
        for (i, &(key, weight)) in stream(round ^ 0xFF, 8, 300, false).iter().enumerate() {
            assert_eq!(
                merged.record(key, weight),
                reference.record(key, weight),
                "{what}: record {i}"
            );
        }
        assert_same(&merged, &reference, &what);
    }
}
