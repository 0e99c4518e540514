//! Result enrichment.
//!
//! BAD's distinguishing capability over classic pub-sub is that it "can
//! match subscriptions across multiple publications (by leveraging
//! storage in the backend) and thus can enrich notifications with a rich
//! set of diverse contents". An [`EnrichmentRule`] declares such a join:
//! when a channel produces a result, records from an auxiliary dataset
//! whose join field equals (as BQL's `==`) the matched record's field
//! are embedded into the result payload.
//!
//! Example: a channel over emergency reports enriched with the shelters
//! of the same city embeds `{"shelters": [...]}` into every notification.

use std::collections::BTreeMap;
use std::sync::Arc;

use bad_storage::Dataset;
use bad_types::eq::values_equal;
use bad_types::{DataValue, SimDuration, TimeRange, Timestamp};

/// A join-based enrichment attached to one channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnrichmentRule {
    /// The channel whose results are enriched.
    pub channel: String,
    /// The dataset providing auxiliary records.
    pub aux_dataset: String,
    /// Field of the matched record providing the join value (dotted path).
    pub record_field: String,
    /// Field of the auxiliary record compared against it (dotted path).
    pub aux_field: String,
    /// Name under which the joined records are embedded in the result.
    pub embed_as: String,
    /// Only auxiliary records at most this old are joined; `None` joins
    /// the whole dataset history.
    pub lookback: Option<SimDuration>,
    /// Cap on the number of embedded records (newest win).
    pub limit: usize,
}

impl EnrichmentRule {
    /// Creates a rule joining `aux_dataset.aux_field == record.record_field`,
    /// embedding up to `limit` records as `embed_as`.
    pub fn join(
        channel: impl Into<String>,
        aux_dataset: impl Into<String>,
        record_field: impl Into<String>,
        aux_field: impl Into<String>,
        embed_as: impl Into<String>,
        limit: usize,
    ) -> Self {
        Self {
            channel: channel.into(),
            aux_dataset: aux_dataset.into(),
            record_field: record_field.into(),
            aux_field: aux_field.into(),
            embed_as: embed_as.into(),
            lookback: None,
            limit,
        }
    }

    /// Restricts the join to auxiliary records at most `lookback` old.
    pub fn with_lookback(mut self, lookback: SimDuration) -> Self {
        self.lookback = Some(lookback);
        self
    }

    /// Applies the rule to `result`, whose `estimated_size()` is `size`:
    /// returns the result with the joined records embedded, and its
    /// `estimated_size()`, summed from `size` and the embedded rows'
    /// stored sizes instead of walking the payload. A result lacking the
    /// join field — every non-object result lacks it — is returned
    /// unchanged.
    ///
    /// The join reads `aux`'s index on `aux_field`: the newest `limit`
    /// rows of the join value's key in `[now - lookback, now]`, each
    /// confirmed with `==`, in `O(log n + limit)` when the key is exact.
    ///
    /// # Panics
    ///
    /// When `aux` has no index on `aux_field`;
    /// [`crate::DataCluster::add_enrichment`] builds it, and a caller
    /// holding a [`Dataset`] of its own calls [`Dataset::index_field`].
    pub fn apply(
        &self,
        result: &DataValue,
        size: u64,
        aux: &Dataset,
        now: Timestamp,
    ) -> (DataValue, u64) {
        let Some(join_value) = result.get_path(&self.record_field) else {
            return (result.clone(), size);
        };
        let from = match self.lookback {
            Some(window) => now - window,
            None => Timestamp::ZERO,
        };
        // Newest rows win: the key's rows come in `(timestamp,
        // ingestion)` order, so the last `limit` matches are the first
        // `limit` met from the back. Embedding a row shares the
        // dataset's own map (one reference-count bump).
        let mut rows_size = 2;
        let mut joined: Vec<DataValue> = aux
            .keyed_range(&self.aux_field, join_value, TimeRange::closed(from, now))
            .unwrap_or_else(|| panic!("join field `{}` is not indexed", self.aux_field))
            .rev()
            .filter(|rec| {
                rec.value
                    .get_path(&self.aux_field)
                    .is_some_and(|v| values_equal(v, join_value))
            })
            .take(self.limit)
            .map(|rec| {
                rows_size += rec.size;
                DataValue::clone(&rec.value)
            })
            .collect();
        joined.reverse();
        // A shallow copy of the result's top level (the join field was
        // found in it, so it is an object): its fields' own arrays and
        // objects are shared, not copied.
        let mut map = BTreeMap::clone(result.as_object().expect("has a field"));
        let field_size = 3 + self.embed_as.len() as u64;
        let replaced = map
            .insert(self.embed_as.clone(), DataValue::Array(Arc::new(joined)))
            .map_or(0, |old| field_size + old.estimated_size());
        let size = size + field_size + rows_size - replaced;
        (DataValue::Object(Arc::new(map)), size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_storage::Schema;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn shelters() -> Dataset {
        let mut ds = Dataset::new("Shelters", Schema::open());
        ds.index_field("city");
        for (sec, city, name) in [
            (1, "irvine", "Irvine High"),
            (2, "tustin", "Tustin Rec"),
            (3, "irvine", "UCI Arena"),
        ] {
            ds.insert(
                t(sec),
                DataValue::object([
                    ("city", DataValue::from(city)),
                    ("name", DataValue::from(name)),
                ]),
            )
            .unwrap();
        }
        ds
    }

    fn rule() -> EnrichmentRule {
        EnrichmentRule::join("Emergencies", "Shelters", "city", "city", "shelters", 10)
    }

    /// `rule.apply`, checking the summed size against the payload's own.
    fn apply(
        rule: &EnrichmentRule,
        result: &DataValue,
        aux: &Dataset,
        now: Timestamp,
    ) -> DataValue {
        let (enriched, size) = rule.apply(result, result.estimated_size(), aux, now);
        assert_eq!(size, enriched.estimated_size(), "{enriched}");
        enriched
    }

    #[test]
    fn embeds_matching_aux_records() {
        let aux = shelters();
        let result = DataValue::object([
            ("kind", DataValue::from("fire")),
            ("city", DataValue::from("irvine")),
        ]);
        let enriched = apply(&rule(), &result, &aux, t(10));
        let embedded = enriched.get("shelters").unwrap().as_array().unwrap();
        assert_eq!(embedded.len(), 2);
        assert!(embedded
            .iter()
            .all(|s| s.get("city").unwrap().as_str() == Some("irvine")));
        // Original fields survive.
        assert_eq!(enriched.get("kind").unwrap().as_str(), Some("fire"));
    }

    #[test]
    fn missing_join_field_is_passthrough() {
        let aux = shelters();
        let result = DataValue::object([("kind", DataValue::from("fire"))]);
        let enriched = apply(&rule(), &result, &aux, t(10));
        assert_eq!(enriched, result);
    }

    #[test]
    fn no_matches_embeds_empty_array() {
        let aux = shelters();
        let result = DataValue::object([("city", DataValue::from("fresno"))]);
        let enriched = apply(&rule(), &result, &aux, t(10));
        assert_eq!(
            enriched.get("shelters").unwrap().as_array().unwrap().len(),
            0
        );
    }

    #[test]
    fn lookback_limits_join_window() {
        let aux = shelters();
        let result = DataValue::object([("city", DataValue::from("irvine"))]);
        // Only records from the last 8 s (now=10): the shelter at t=1 is out.
        let rule = rule().with_lookback(SimDuration::from_secs(8));
        let enriched = apply(&rule, &result, &aux, t(10));
        let embedded = enriched.get("shelters").unwrap().as_array().unwrap();
        assert_eq!(embedded.len(), 1);
        assert_eq!(embedded[0].get("name").unwrap().as_str(), Some("UCI Arena"));
    }

    #[test]
    fn limit_keeps_newest() {
        let mut aux = Dataset::new("A", Schema::open());
        aux.index_field("k");
        for sec in 1..=5u64 {
            aux.insert(
                t(sec),
                DataValue::object([
                    ("k", DataValue::from("x")),
                    ("n", DataValue::from(sec as i64)),
                ]),
            )
            .unwrap();
        }
        let mut rule = EnrichmentRule::join("C", "A", "k", "k", "related", 2);
        rule.lookback = None;
        let result = DataValue::object([("k", DataValue::from("x"))]);
        let enriched = apply(&rule, &result, &aux, t(10));
        let embedded = enriched.get("related").unwrap().as_array().unwrap();
        let ns: Vec<i64> = embedded
            .iter()
            .map(|v| v.get("n").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ns, vec![4, 5]);
    }

    /// A non-object result has no join field, so it passes through
    /// unwrapped, whatever the rule's field names.
    #[test]
    fn non_object_results_pass_through() {
        let aux = shelters();
        let rule = EnrichmentRule::join("C", "Shelters", "result", "city", "shelters", 5);
        for result in [
            DataValue::from("irvine"),
            DataValue::array([DataValue::from("irvine")]),
            DataValue::Null,
        ] {
            assert_eq!(apply(&rule, &result, &aux, t(10)), result);
        }
    }

    /// A result that already has a field named `embed_as` has it replaced,
    /// and the summed size accounts for the field it lost.
    #[test]
    fn existing_embed_field_is_replaced() {
        let aux = shelters();
        let result = DataValue::object([
            ("city", DataValue::from("irvine")),
            ("shelters", DataValue::from("x".repeat(50))),
        ]);
        let enriched = apply(&rule(), &result, &aux, t(10));
        assert_eq!(
            enriched.get("shelters").unwrap().as_array().unwrap().len(),
            2
        );
    }

    /// Join keys compare as BQL's `==`: a report's `3` joins shelters
    /// stored with `3.0`, `-0.0` joins `0`, and `NaN` joins nothing.
    #[test]
    fn numeric_join_keys_follow_equality() {
        let mut aux = Dataset::new("A", Schema::open());
        aux.index_field("d");
        for (sec, d) in [
            (1, DataValue::from(3.0)),
            (2, DataValue::from(3i64)),
            (3, DataValue::from("3")),
            (4, DataValue::from(0i64)),
            (5, DataValue::from(f64::NAN)),
            (6, DataValue::from(3.5)),
        ] {
            let row = DataValue::object([("d", d), ("n", DataValue::from(sec))]);
            aux.insert(t(sec as u64), row).unwrap();
        }
        let rule = EnrichmentRule::join("C", "A", "d", "d", "rows", 10);
        for (d, want) in [
            (DataValue::from(3i64), vec![1, 2]),
            (DataValue::from(3.0), vec![1, 2]),
            (DataValue::from(-0.0), vec![4]),
            (DataValue::from(f64::NAN), vec![]),
            (DataValue::from("3"), vec![3]),
        ] {
            let result = DataValue::object([("d", d.clone())]);
            let enriched = apply(&rule, &result, &aux, t(10));
            let got: Vec<i64> = enriched
                .get("rows")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|row| row.get("n").unwrap().as_i64().unwrap())
                .collect();
            assert_eq!(got, want, "{d}");
        }
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn an_unindexed_join_field_is_a_caller_bug() {
        let aux = Dataset::new("A", Schema::open());
        let result = DataValue::object([("k", DataValue::from(1i64))]);
        EnrichmentRule::join("C", "A", "k", "k", "rows", 1).apply(&result, 0, &aux, t(1));
    }
}
