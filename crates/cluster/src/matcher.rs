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
//! Partitions are an [`EqMap`], keyed by the value as BQL's `==` sees
//! it: numbers by their `f64` value (so `3` and `3.0` share a partition,
//! and `-0.0` joins `0.0`), strings by content, anything else by a
//! structural hash that the full evaluation confirms. Finding the
//! partition of a number or a string allocates nothing.
//!
//! When the predicate also tests `within(r.field, $region)` after
//! nothing but comparisons that cannot fail (see
//! [`bad_query::Expr::region_param_field`]), each subscription's region
//! is parsed once, at [`MatchIndex::add`], and a candidate whose region
//! does not contain the record's point is skipped unevaluated: that is
//! exactly the case in which its predicate evaluates to `false`.

use bad_query::{ChannelSpec, ParamBindings};
use bad_types::eq::EqMap;
use bad_types::{BackendSubId, BoundingBox, DataValue, GeoPoint, Result, Timestamp};

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
    /// The bound region of the channel's prefilterable `within`, when
    /// there is one and the bound value parses as a region.
    pub region: Option<BoundingBox>,
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
    /// The `(record field path, parameter name)` of the prefilterable
    /// `within`, if the channel predicate offers one.
    region: Option<(Vec<String>, String)>,
    /// Subscriptions with a usable equality key value, by that value.
    partitions: EqMap<Vec<SubscriptionEntry>>,
    /// Subscriptions with no usable equality key value.
    residual: Vec<SubscriptionEntry>,
    /// Total number of subscriptions in the index.
    len: usize,
    /// Full-predicate evaluations performed (for the index ablation);
    /// candidates the region prefilter skipped are not counted.
    pub evaluations: u64,
}

impl MatchIndex {
    /// Creates an index for one channel, extracting the equality key and
    /// the region prefilter from its predicate.
    pub fn new(spec: &ChannelSpec) -> Self {
        Self {
            key: spec.equality_param_fields().into_iter().next(),
            region: spec
                .predicate()
                .region_param_field()
                .map(|(path, param)| (path.to_vec(), param.to_owned())),
            ..Self::brute_force()
        }
    }

    /// Creates an index that neither partitions nor prefilters
    /// (brute-force baseline for the matcher ablation).
    pub fn brute_force() -> Self {
        Self {
            key: None,
            region: None,
            partitions: EqMap::default(),
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
        let region = self
            .region
            .as_ref()
            .and_then(|(_, param)| BoundingBox::from_value(params.get(param)?));
        let entry = SubscriptionEntry {
            id,
            params,
            created_at,
            region,
        };
        self.len += 1;
        let bound = match &self.key {
            Some((_, param)) => entry.params.get(param),
            None => None,
        };
        let list = match bound {
            Some(value) => self.partitions.get_or_default(value),
            None => &mut self.residual,
        };
        list.push(entry);
        Ok(())
    }

    /// Removes a subscription by id. Returns whether it was present.
    pub fn remove(&mut self, id: BackendSubId) -> bool {
        let all = self
            .partitions
            .values_mut()
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
    /// consulting only the relevant partition plus the residual list,
    /// and skipping candidates whose region excludes the record's point.
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
        // The record's point, read once; a missing or malformed one
        // skips nothing, so its evaluation (and error) is unchanged.
        let point = self.region.as_ref().and_then(|(path, _)| {
            let value = path.iter().try_fold(record, |v, seg| v.get(seg))?;
            GeoPoint::from_value(value)
        });
        let mut matched = Vec::new();
        for entry in partition.into_iter().flatten().chain(&self.residual) {
            if let (Some(p), Some(region)) = (point, entry.region) {
                if !region.contains(p) {
                    continue;
                }
            }
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
            .values()
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

    fn near(src_where: &str) -> ChannelSpec {
        ChannelSpec::parse(&format!(
            "channel Near(etype: string, min: int, area: region) from Reports r \
             where {src_where} select r"
        ))
        .unwrap()
    }

    /// Four subscriptions of kind `fire`, one per cell of a 2 × 2 grid.
    fn near_index(spec: &ChannelSpec, idx: MatchIndex) -> (MatchIndex, Vec<BoundingBox>) {
        let cells = BoundingBox::new(GeoPoint::new(0.0, 0.0), GeoPoint::new(2.0, 2.0)).grid(2);
        let subs = cells.iter().map(|cell| {
            ParamBindings::from_pairs([
                ("etype", DataValue::from("fire")),
                ("min", DataValue::from(1i64)),
                ("area", cell.to_value()),
            ])
        });
        (index_of(spec, idx, subs), cells)
    }

    fn located(location: DataValue) -> DataValue {
        DataValue::object([
            ("kind", DataValue::from("fire")),
            ("sev", DataValue::from(3i64)),
            ("location", location),
        ])
    }

    #[test]
    fn region_prefilter_skips_only_candidates_that_cannot_match() {
        let spec = near("r.kind == $etype and within(r.location, $area)");
        let (mut idx, cells) = near_index(&spec, MatchIndex::new(&spec));
        let (mut brute, _) = near_index(&spec, MatchIndex::brute_force());
        let inside = located(cells[3].center().to_value());
        let got = idx.matching_subscriptions(&spec, &inside).unwrap();
        assert_eq!(got, vec![BackendSubId::new(4)]);
        assert_eq!(brute.matching_subscriptions(&spec, &inside).unwrap(), got);
        // One full evaluation, not four; the brute force did four.
        assert_eq!((idx.evaluations, brute.evaluations), (1, 4));
        // A point on the shared corner is in every cell.
        let corner = located(GeoPoint::new(1.0, 1.0).to_value());
        assert_eq!(idx.matching_subscriptions(&spec, &corner).unwrap().len(), 4);
        // A missing point skips nothing and matches nothing; a malformed
        // one skips nothing and fails as the full evaluation does.
        let missing = DataValue::object([("kind", DataValue::from("fire"))]);
        let before = idx.evaluations;
        assert!(idx
            .matching_subscriptions(&spec, &missing)
            .unwrap()
            .is_empty());
        assert_eq!(idx.evaluations - before, 4);
        let malformed = located(DataValue::from("downtown"));
        assert!(matches!(
            idx.matching_subscriptions(&spec, &malformed),
            Err(BadError::Type(_))
        ));
        assert!(brute.matching_subscriptions(&spec, &malformed).is_err());
    }

    /// `r.sev >= $min` fails on a string severity, so a `within` after it
    /// must not be prefiltered: the error has to surface.
    #[test]
    fn region_prefilter_does_not_engage_after_a_fallible_conjunct() {
        let spec = near("r.kind == $etype and r.sev >= $min and within(r.location, $area)");
        assert_eq!(spec.predicate().region_param_field(), None);
        let (mut idx, _) = near_index(&spec, MatchIndex::new(&spec));
        assert!(idx.iter().all(|e| e.region.is_none()));
        let outside = DataValue::object([
            ("kind", DataValue::from("fire")),
            ("sev", DataValue::from("high")),
            ("location", GeoPoint::new(9.0, 9.0).to_value()),
        ]);
        assert!(matches!(
            idx.matching_subscriptions(&spec, &outside),
            Err(BadError::Type(_))
        ));
    }

    #[test]
    fn iter_sees_everything() {
        let spec = spec();
        let subs = [params("fire", 0), params("flood", 0)];
        let idx = index_of(&spec, MatchIndex::new(&spec), subs);
        assert_eq!(idx.iter().count(), 2);
    }
}
