//! Ordered victim index.
//!
//! Section IV-A notes that because only per-cache *tails* are eviction
//! candidates, victim selection is linear in the number of caches, and
//! "by using appropriate data structure (e.g., heap), this can be
//! implemented in logarithmic order". [`VictimIndex`] is that structure:
//! an ordered set keyed by score with an exact-update map, so the
//! minimum-score cache is found in `O(log N)` and scores are updated in
//! `O(log N)` whenever a cache mutates.

use std::collections::BTreeSet;

use bad_types::ids::IdSlab;
use bad_types::BackendSubId;

/// Total-order wrapper over `f64` scores (NaN sorts last).
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrderedScore(f64);

impl Eq for OrderedScore {}

impl PartialOrd for OrderedScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An updatable min-index over per-cache victim scores.
///
/// # Examples
///
/// ```
/// use bad_cache::VictimIndex;
/// use bad_types::BackendSubId;
///
/// let mut idx = VictimIndex::new();
/// idx.update(BackendSubId::new(1), 5.0);
/// idx.update(BackendSubId::new(2), 1.0);
/// assert_eq!(idx.min(), Some(BackendSubId::new(2)));
/// idx.update(BackendSubId::new(2), 9.0);
/// assert_eq!(idx.min(), Some(BackendSubId::new(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct VictimIndex {
    ordered: BTreeSet<(OrderedScore, BackendSubId)>,
    current: IdSlab<BackendSubId, f64>,
}

impl VictimIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed caches.
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Inserts or updates a cache's score.
    ///
    /// Caches whose score is `f64::INFINITY` (empty caches — no eviction
    /// candidate) are removed from the index instead, so [`VictimIndex::min`]
    /// only ever returns caches that actually hold an object.
    pub fn update(&mut self, id: BackendSubId, score: f64) {
        // Every GET reindexes its cache twice and the tail's score
        // rarely moved; an equal key leaves the ordered set as it is.
        if self
            .current
            .get(id)
            .is_some_and(|old| old.to_bits() == score.to_bits())
        {
            return;
        }
        if let Some(old) = self.current.remove(id) {
            self.ordered.remove(&(OrderedScore(old), id));
        }
        if score.is_finite() || score == f64::NEG_INFINITY {
            self.ordered.insert((OrderedScore(score), id));
            self.current.insert(id, score);
        }
    }

    /// Removes a cache from the index entirely.
    pub fn remove(&mut self, id: BackendSubId) {
        if let Some(old) = self.current.remove(id) {
            self.ordered.remove(&(OrderedScore(old), id));
        }
    }

    /// The cache with the minimum score, if any.
    pub fn min(&self) -> Option<BackendSubId> {
        self.ordered.first().map(|&(_, id)| id)
    }

    /// The currently indexed score of a cache.
    pub fn score_of(&self, id: BackendSubId) -> Option<f64> {
        self.current.get(id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(raw: u64) -> BackendSubId {
        BackendSubId::new(raw)
    }

    #[test]
    fn min_tracks_updates() {
        let mut idx = VictimIndex::new();
        idx.update(bs(1), 3.0);
        idx.update(bs(2), 2.0);
        idx.update(bs(3), 4.0);
        assert_eq!(idx.min(), Some(bs(2)));
        idx.update(bs(2), 10.0);
        assert_eq!(idx.min(), Some(bs(1)));
        idx.remove(bs(1));
        assert_eq!(idx.min(), Some(bs(3)));
    }

    #[test]
    fn infinite_scores_leave_the_index() {
        let mut idx = VictimIndex::new();
        idx.update(bs(1), 1.0);
        idx.update(bs(1), f64::INFINITY);
        assert!(idx.is_empty());
        assert_eq!(idx.min(), None);
        assert_eq!(idx.score_of(bs(1)), None);
    }

    #[test]
    fn equal_scores_are_kept_distinct() {
        let mut idx = VictimIndex::new();
        idx.update(bs(1), 1.0);
        idx.update(bs(2), 1.0);
        assert_eq!(idx.len(), 2);
        idx.remove(bs(1));
        assert_eq!(idx.min(), Some(bs(2)));
    }

    #[test]
    fn update_is_idempotent_on_same_score() {
        let mut idx = VictimIndex::new();
        idx.update(bs(1), 1.5);
        idx.update(bs(1), 1.5);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.score_of(bs(1)), Some(1.5));
    }

    #[test]
    fn nan_scores_are_non_candidates() {
        let mut idx = VictimIndex::new();
        idx.update(bs(1), f64::NAN);
        idx.update(bs(2), 100.0);
        // NaN is treated like infinity: not an eviction candidate.
        assert_eq!(idx.min(), Some(bs(2)));
        assert_eq!(idx.score_of(bs(1)), None);
    }
}
