//! The publication-matching engine.
//!
//! With up to a thousand backend subscriptions per channel, evaluating
//! every predicate against every publication is wasteful. When a channel
//! predicate contains a top-level `r.field == $param` conjunct, the
//! matcher partitions its subscriptions by the *bound value* of that
//! parameter; a publication then only needs full predicate evaluation
//! against the partition matching its own field value (plus the residual
//! subscriptions with no usable equality key).
//!
//! Partitions are keyed by the value as BQL's `==` sees it: numbers by
//! their `f64` value (so `3` and `3.0` share a partition, and `-0.0`
//! joins `0.0`), strings by content, anything else by its JSON. Finding
//! the partition of a number or a string allocates nothing.

use std::collections::BTreeMap;

use bad_query::{ChannelSpec, ParamBindings};
use bad_types::{BackendSubId, DataValue, Result, Timestamp};

/// One backend subscription registered with the matcher.
#[derive(Clone, Debug)]
pub struct SubscriptionEntry {
    /// The subscription id handed back to the broker.
    pub id: BackendSubId,
    /// Bound parameter values, checked against the channel's declared
    /// parameters when the subscription was added.
    pub params: ParamBindings,
    /// When the subscription was created; publications are only matched
    /// against subscriptions that already existed.
    pub created_at: Timestamp,
}

/// Per-channel subscription index.
///
/// # Examples
///
/// ```
/// use bad_cluster::MatchIndex;
/// use bad_query::{ChannelSpec, ParamBindings};
/// use bad_types::{BackendSubId, DataValue, Timestamp};
///
/// let spec = ChannelSpec::parse(
///     "channel ByKind(kind: string) from Reports r where r.kind == $kind select r",
/// )?;
/// let mut index = MatchIndex::new(&spec);
/// index.add(&spec, BackendSubId::new(1),
///           ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
///           Timestamp::ZERO)?;
/// let record = DataValue::parse_json(r#"{"kind":"fire"}"#)?;
/// let matched = index.matching_subscriptions(&spec, &record)?;
/// assert_eq!(matched.len(), 1);
/// # Ok::<(), bad_types::BadError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MatchIndex {
    /// The equality key `(record field, parameter name)` used for
    /// partitioning, if the channel predicate offers one.
    key: Option<(String, String)>,
    /// Subscriptions with a usable equality key value.
    partitions: Partitions,
    /// Subscriptions with no usable equality key value.
    residual: Vec<SubscriptionEntry>,
    /// Total number of subscriptions in the index.
    len: usize,
    /// Full-predicate evaluations performed (for the index ablation).
    pub evaluations: u64,
}

/// Subscriptions partitioned by their bound key value as `==` sees it.
/// Each map is ordered, so iteration order is deterministic.
#[derive(Clone, Debug, Default)]
struct Partitions {
    /// Numbers, keyed by [`number_key`].
    numbers: BTreeMap<u64, Vec<SubscriptionEntry>>,
    /// Strings, keyed by content.
    strings: BTreeMap<String, Vec<SubscriptionEntry>>,
    /// Anything else, keyed by its JSON.
    others: BTreeMap<String, Vec<SubscriptionEntry>>,
}

/// The partition key of a number: its `f64` bits, with `-0.0` folded into
/// `0.0`, so exactly the numbers `values_equal` calls equal share a key.
fn number_key(value: &DataValue) -> u64 {
    let x = value.as_f64().expect("numeric");
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

impl Partitions {
    /// The partition of subscriptions whose bound value `==` `value`.
    fn get(&self, value: &DataValue) -> Option<&Vec<SubscriptionEntry>> {
        match value {
            DataValue::Int(_) | DataValue::Float(_) => self.numbers.get(&number_key(value)),
            DataValue::Str(s) => self.strings.get(s.as_str()),
            other => self.others.get(&other.to_json_string()),
        }
    }

    /// The partition for bound value `value`, created if missing.
    fn get_or_insert(&mut self, value: &DataValue) -> &mut Vec<SubscriptionEntry> {
        match value {
            DataValue::Int(_) | DataValue::Float(_) => {
                self.numbers.entry(number_key(value)).or_default()
            }
            DataValue::Str(s) => self.strings.entry(s.clone()).or_default(),
            other => self.others.entry(other.to_json_string()).or_default(),
        }
    }

    fn lists(&self) -> impl Iterator<Item = &Vec<SubscriptionEntry>> {
        self.numbers
            .values()
            .chain(self.strings.values())
            .chain(self.others.values())
    }

    fn lists_mut(&mut self) -> impl Iterator<Item = &mut Vec<SubscriptionEntry>> {
        self.numbers
            .values_mut()
            .chain(self.strings.values_mut())
            .chain(self.others.values_mut())
    }
}

impl MatchIndex {
    /// Creates an index for one channel, extracting the equality key from
    /// its predicate.
    pub fn new(spec: &ChannelSpec) -> Self {
        Self {
            key: spec.equality_param_fields().into_iter().next(),
            ..Self::brute_force()
        }
    }

    /// Creates an index that never partitions (brute-force baseline for
    /// the matcher ablation).
    pub fn brute_force() -> Self {
        Self {
            key: None,
            partitions: Partitions::default(),
            residual: Vec::new(),
            len: 0,
            evaluations: 0,
        }
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no subscription is registered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The partition key in use, if any.
    pub fn partition_key(&self) -> Option<(&str, &str)> {
        self.key.as_ref().map(|(f, p)| (f.as_str(), p.as_str()))
    }

    /// Registers a subscription of `spec`'s channel, after checking its
    /// bindings against the channel's declared parameters — the only
    /// time they are checked: matching evaluates the predicate directly.
    ///
    /// # Errors
    ///
    /// The binding errors of [`ParamBindings::check_against`]; nothing is
    /// registered then.
    pub fn add(
        &mut self,
        spec: &ChannelSpec,
        id: BackendSubId,
        params: ParamBindings,
        created_at: Timestamp,
    ) -> Result<()> {
        params.check_against(spec.params())?;
        let entry = SubscriptionEntry {
            id,
            params,
            created_at,
        };
        self.len += 1;
        let bound = match &self.key {
            Some((_, param)) => entry.params.get(param),
            None => None,
        };
        let list = match bound {
            Some(value) => self.partitions.get_or_insert(value),
            None => &mut self.residual,
        };
        list.push(entry);
        Ok(())
    }

    /// Removes a subscription by id. Returns whether it was present.
    pub fn remove(&mut self, id: BackendSubId) -> bool {
        let all = self
            .partitions
            .lists_mut()
            .chain(std::iter::once(&mut self.residual));
        for list in all {
            if let Some(pos) = list.iter().position(|e| e.id == id) {
                list.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Returns the subscriptions whose predicate matches `record`,
    /// consulting only the relevant partition plus the residual list.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`bad_types::BadError::Type`]) from
    /// ill-typed predicates; a predicate that merely does not match is
    /// not an error.
    pub fn matching_subscriptions(
        &mut self,
        spec: &ChannelSpec,
        record: &DataValue,
    ) -> Result<Vec<BackendSubId>> {
        // Candidates: the partition whose key equals the record's field
        // value (none when the record lacks the field), plus residual
        // subscriptions. Without a key every subscription is residual.
        let partition = match &self.key {
            Some((field, _)) => record.get_path(field).and_then(|v| self.partitions.get(v)),
            None => None,
        };
        let mut matched = Vec::new();
        for entry in partition.into_iter().flatten().chain(&self.residual) {
            self.evaluations += 1;
            if spec.matches_checked(record, &entry.params)? {
                matched.push(entry.id);
            }
        }
        Ok(matched)
    }

    /// Iterates over all registered subscriptions.
    pub fn iter(&self) -> impl Iterator<Item = &SubscriptionEntry> {
        self.partitions
            .lists()
            .flatten()
            .chain(self.residual.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_types::BadError;

    fn spec() -> ChannelSpec {
        ChannelSpec::parse(
            "channel ByKind(kind: string, min: int) from Reports r \
             where r.kind == $kind and r.sev >= $min select r",
        )
        .unwrap()
    }

    fn params(kind: &str, min: i64) -> ParamBindings {
        ParamBindings::from_pairs([
            ("kind", DataValue::from(kind)),
            ("min", DataValue::from(min)),
        ])
    }

    fn record(kind: &str, sev: i64) -> DataValue {
        DataValue::object([
            ("kind", DataValue::from(kind)),
            ("sev", DataValue::from(sev)),
        ])
    }

    /// An index of `spec` holding `subs`, with ids `1..`.
    fn index_of(
        spec: &ChannelSpec,
        mut idx: MatchIndex,
        subs: impl IntoIterator<Item = ParamBindings>,
    ) -> MatchIndex {
        for (i, params) in subs.into_iter().enumerate() {
            let id = BackendSubId::new(i as u64 + 1);
            idx.add(spec, id, params, Timestamp::ZERO).unwrap();
        }
        idx
    }

    #[test]
    fn partitions_by_equality_value() {
        let spec = spec();
        let subs = [params("fire", 0), params("flood", 0), params("fire", 5)];
        let mut idx = index_of(&spec, MatchIndex::new(&spec), subs);
        assert_eq!(idx.partition_key(), Some(("kind", "kind")));

        let got = idx
            .matching_subscriptions(&spec, &record("fire", 3))
            .unwrap();
        assert_eq!(got, vec![BackendSubId::new(1)]);
        // Only the "fire" partition was evaluated: 2 evaluations, not 3.
        assert_eq!(idx.evaluations, 2);
    }

    #[test]
    fn brute_force_matches_same_set() {
        let spec = spec();
        let subs = || {
            [("fire", 0), ("flood", 2), ("fire", 5), ("quake", 1)]
                .map(|(kind, min)| params(kind, min))
        };
        let mut indexed = index_of(&spec, MatchIndex::new(&spec), subs());
        let mut brute = index_of(&spec, MatchIndex::brute_force(), subs());
        for rec in [record("fire", 6), record("flood", 1), record("nope", 9)] {
            let a = indexed.matching_subscriptions(&spec, &rec).unwrap();
            let b = brute.matching_subscriptions(&spec, &rec).unwrap();
            assert_eq!(a, b);
        }
        // The index does strictly fewer predicate evaluations.
        assert!(indexed.evaluations < brute.evaluations);
    }

    /// `==` coerces numbers, so the partition of a bound `3` holds the
    /// record `3.0` too (and `0` holds `-0.0`); keyed by JSON it did not.
    #[test]
    fn numeric_partitions_follow_equality() {
        let spec = ChannelSpec::parse(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
        let subs = [3i64, 0, 3].map(|v| ParamBindings::from_pairs([("stream", v.into())]));
        let mut indexed = index_of(&spec, MatchIndex::new(&spec), subs.clone());
        let mut brute = index_of(&spec, MatchIndex::brute_force(), subs);
        for (value, want) in [
            (DataValue::from(3.0), vec![1, 3]),
            (DataValue::from(3i64), vec![1, 3]),
            (DataValue::from(-0.0), vec![2]),
            (DataValue::from(0.5), vec![]),
            (DataValue::from("3"), vec![]),
        ] {
            let rec = DataValue::object([("stream", value.clone())]);
            let want: Vec<BackendSubId> = want.into_iter().map(BackendSubId::new).collect();
            assert_eq!(
                indexed.matching_subscriptions(&spec, &rec).unwrap(),
                want,
                "{value}"
            );
            assert_eq!(
                brute.matching_subscriptions(&spec, &rec).unwrap(),
                want,
                "{value}"
            );
        }
        // Three candidates for each 3, one for -0.0, none otherwise.
        assert_eq!(indexed.evaluations, 5);
    }

    #[test]
    fn add_rejects_bindings_the_channel_does_not_declare() {
        let spec = spec();
        let mut idx = MatchIndex::new(&spec);
        let mut extra = params("fire", 0);
        extra.bind("ghost", DataValue::from(1i64));
        let wrong_type = ParamBindings::from_pairs([
            ("kind", DataValue::from("fire")),
            ("min", DataValue::from("high")),
        ]);
        let missing = ParamBindings::from_pairs([("kind", DataValue::from("fire"))]);
        for bad in [extra, wrong_type, missing] {
            let err = idx.add(&spec, BackendSubId::new(9), bad, Timestamp::ZERO);
            assert!(matches!(
                err,
                Err(BadError::InvalidArgument(_) | BadError::Type(_))
            ));
        }
        assert!(idx.is_empty());
        assert!(idx
            .matching_subscriptions(&spec, &record("fire", 9))
            .unwrap()
            .is_empty());
        assert_eq!(idx.evaluations, 0);
    }

    #[test]
    fn remove_unregisters() {
        let spec = spec();
        let mut idx = index_of(&spec, MatchIndex::new(&spec), [params("fire", 0)]);
        assert_eq!(idx.len(), 1);
        assert!(idx.remove(BackendSubId::new(1)));
        assert!(!idx.remove(BackendSubId::new(1)));
        assert!(idx.is_empty());
        let got = idx
            .matching_subscriptions(&spec, &record("fire", 9))
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn record_missing_key_field_skips_partitions() {
        let spec = spec();
        let mut idx = index_of(&spec, MatchIndex::new(&spec), [params("fire", 0)]);
        let rec = DataValue::object([("sev", DataValue::from(9i64))]);
        let got = idx.matching_subscriptions(&spec, &rec).unwrap();
        assert!(got.is_empty());
        assert_eq!(idx.evaluations, 0);
    }

    #[test]
    fn channel_without_equality_key_scans_all() {
        let spec =
            ChannelSpec::parse("channel Sev(min: int) from Reports r where r.sev >= $min select r")
                .unwrap();
        let subs = [2i64, 7].map(|v| ParamBindings::from_pairs([("min", v.into())]));
        let mut idx = index_of(&spec, MatchIndex::new(&spec), subs);
        assert_eq!(idx.partition_key(), None);
        let got = idx
            .matching_subscriptions(&spec, &record("any", 5))
            .unwrap();
        assert_eq!(got, vec![BackendSubId::new(1)]);
        assert_eq!(idx.evaluations, 2);
    }

    #[test]
    fn iter_sees_everything() {
        let spec = spec();
        let subs = [params("fire", 0), params("flood", 0)];
        let idx = index_of(&spec, MatchIndex::new(&spec), subs);
        assert_eq!(idx.iter().count(), 2);
    }
}
