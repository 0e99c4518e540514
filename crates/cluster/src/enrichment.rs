//! Result enrichment.
//!
//! BAD's distinguishing capability over classic pub-sub is that it "can
//! match subscriptions across multiple publications (by leveraging
//! storage in the backend) and thus can enrich notifications with a rich
//! set of diverse contents". An [`EnrichmentRule`] declares such a join:
//! when a channel produces a result, records from an auxiliary dataset
//! whose join field equals the matched record's field are embedded into
//! the result payload.
//!
//! Example: a channel over emergency reports enriched with the shelters
//! of the same city embeds `{"shelters": [...]}` into every notification.

use std::collections::BTreeMap;
use std::sync::Arc;

use bad_storage::Dataset;
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

    /// Applies the rule: returns `result` with the joined records
    /// embedded. A result lacking the join field is returned unchanged.
    pub fn apply(&self, result: &DataValue, aux: &Dataset, now: Timestamp) -> DataValue {
        let Some(join_value) = result.get_path(&self.record_field) else {
            return result.clone();
        };
        let from = match self.lookback {
            Some(window) => now - window,
            None => Timestamp::ZERO,
        };
        // Newest records win. `range` yields `(timestamp, ingestion)`
        // order, so the last `limit` matches are the first `limit` met
        // from the back: the scan stops at the `limit`-th hit. Embedding
        // a row shares the dataset's own map (one reference-count bump).
        let mut joined: Vec<DataValue> = aux
            .range(TimeRange::closed(from, now))
            .rev()
            .filter(|rec| rec.value.get_path(&self.aux_field) == Some(join_value))
            .take(self.limit)
            .map(|rec| DataValue::clone(&rec.value))
            .collect();
        joined.reverse();
        // A shallow copy of the result's top level: its fields' own
        // arrays and objects are shared, not copied.
        let mut map = match result {
            DataValue::Object(map) => BTreeMap::clone(map),
            other => BTreeMap::from([("result".to_owned(), other.clone())]),
        };
        map.insert(self.embed_as.clone(), DataValue::Array(Arc::new(joined)));
        DataValue::Object(Arc::new(map))
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

    #[test]
    fn embeds_matching_aux_records() {
        let aux = shelters();
        let result = DataValue::object([
            ("kind", DataValue::from("fire")),
            ("city", DataValue::from("irvine")),
        ]);
        let enriched = rule().apply(&result, &aux, t(10));
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
        let enriched = rule().apply(&result, &aux, t(10));
        assert_eq!(enriched, result);
    }

    #[test]
    fn no_matches_embeds_empty_array() {
        let aux = shelters();
        let result = DataValue::object([("city", DataValue::from("fresno"))]);
        let enriched = rule().apply(&result, &aux, t(10));
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
        let enriched = rule()
            .with_lookback(SimDuration::from_secs(8))
            .apply(&result, &aux, t(10));
        let embedded = enriched.get("shelters").unwrap().as_array().unwrap();
        assert_eq!(embedded.len(), 1);
        assert_eq!(embedded[0].get("name").unwrap().as_str(), Some("UCI Arena"));
    }

    #[test]
    fn limit_keeps_newest() {
        let mut aux = Dataset::new("A", Schema::open());
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
        let enriched = rule.apply(&result, &aux, t(10));
        let embedded = enriched.get("related").unwrap().as_array().unwrap();
        let ns: Vec<i64> = embedded
            .iter()
            .map(|v| v.get("n").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ns, vec![4, 5]);
    }

    #[test]
    fn non_object_results_are_wrapped() {
        let aux = shelters();
        let rule = EnrichmentRule::join("C", "Shelters", "result", "city", "shelters", 5);
        // A scalar result gets wrapped so the embedding has a place to go.
        let result = DataValue::from("irvine");
        let enriched = rule.apply(&result, &aux, t(10));
        assert!(enriched.get("shelters").is_none() || enriched.get("result").is_some());
    }
}
