//! Append-only, timestamp-indexed record datasets.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bad_types::eq::EqMap;
use bad_types::{ByteSize, DataValue, Result, TimeRange, Timestamp};

use crate::schema::Schema;

/// A record stored in a [`Dataset`], with its ingestion metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredRecord {
    /// Position in the dataset's ingestion order (0-based).
    pub seq: u64,
    /// Ingestion timestamp.
    pub ts: Timestamp,
    /// The record itself, shared with every result that selects it whole.
    pub value: Arc<DataValue>,
    /// `value.estimated_size()`, computed once at insert.
    pub size: u64,
}

/// An append-only dataset of schema-validated records with a secondary
/// timestamp index and optional equality indexes on fields, the BAD
/// stand-in for an AsterixDB dataset.
///
/// # Examples
///
/// ```
/// use bad_storage::{Dataset, Schema};
/// use bad_types::{DataValue, TimeRange, Timestamp};
///
/// let mut ds = Dataset::new("Reports", Schema::open());
/// for sec in [1u64, 2, 3] {
///     ds.insert(
///         Timestamp::from_secs(sec),
///         DataValue::object([("n", DataValue::from(sec as i64))]),
///     )?;
/// }
/// let range = TimeRange::closed(Timestamp::from_secs(2), Timestamp::from_secs(3));
/// assert_eq!(ds.range(range).count(), 2);
/// # Ok::<(), bad_types::BadError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Dataset {
    name: String,
    schema: Schema,
    records: Vec<StoredRecord>,
    /// `(ts, seq) -> index into records`; the seq component keeps equal
    /// timestamps distinct and in ingestion order.
    ts_index: BTreeMap<(Timestamp, u64), usize>,
    /// Equality indexes, one per indexed field path.
    field_indexes: Vec<FieldIndex>,
    total_bytes: ByteSize,
}

/// An equality index on one field path: for each key of the field's
/// value (an [`EqMap`] key, as BQL's `==` sees it), the positions of the
/// records carrying it, in `(ts, seq)` order. Records lacking the field
/// are not indexed.
#[derive(Clone, Debug)]
struct FieldIndex {
    path: String,
    rows: EqMap<Vec<usize>>,
}

impl FieldIndex {
    /// Indexes `records[at]`, keeping its key's rows in `(ts, seq)`
    /// order; `at` is newer than every row already indexed, so it goes
    /// after every row of its timestamp.
    fn insert(&mut self, records: &[StoredRecord], at: usize) {
        let Some(value) = records[at].value.get_path(&self.path) else {
            return;
        };
        let rows = self.rows.get_or_default(value);
        let ts = records[at].ts;
        let pos = rows.partition_point(|&i| records[i].ts <= ts);
        rows.insert(pos, at);
    }
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            records: Vec::new(),
            ts_index: BTreeMap::new(),
            field_indexes: Vec::new(),
            total_bytes: ByteSize::ZERO,
        }
    }

    /// The dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total estimated size of all stored records.
    pub fn total_bytes(&self) -> ByteSize {
        self.total_bytes
    }

    /// Validates and appends a record, returning its sequence number.
    /// A caller that already holds the record in an `Arc` passes it as
    /// is and the dataset shares the allocation.
    ///
    /// Timestamps need not be monotone (late data is allowed); the
    /// timestamp index keeps range queries correct either way.
    ///
    /// # Errors
    ///
    /// Returns [`bad_types::BadError::Schema`] when the record violates
    /// the dataset schema.
    pub fn insert(&mut self, ts: Timestamp, value: impl Into<Arc<DataValue>>) -> Result<u64> {
        let value = value.into();
        self.schema.validate(&value)?;
        let at = self.records.len();
        let seq = at as u64;
        let size = value.estimated_size();
        self.total_bytes += ByteSize::new(size);
        self.ts_index.insert((ts, seq), at);
        self.records.push(StoredRecord {
            seq,
            ts,
            value,
            size,
        });
        for index in &mut self.field_indexes {
            index.insert(&self.records, at);
        }
        Ok(seq)
    }

    /// Keeps an equality index on the field at dotted `path`, built now
    /// over the stored records and maintained by every later
    /// [`Dataset::insert`]. Indexing a path twice is a no-op.
    pub fn index_field(&mut self, path: &str) {
        if self.field_indexes.iter().any(|index| index.path == path) {
            return;
        }
        let mut index = FieldIndex {
            path: path.to_owned(),
            rows: EqMap::default(),
        };
        for at in 0..self.records.len() {
            index.insert(&self.records, at);
        }
        self.field_indexes.push(index);
    }

    /// The records in `range` whose field at `path` shares `value`'s
    /// [`EqMap`] key, ordered by `(timestamp, ingestion order)`, in
    /// `O(log n)` plus the rows yielded; `None` when `path` is not
    /// indexed (see [`Dataset::index_field`]).
    ///
    /// The key is exact for strings and for numbers other than `NaN`;
    /// for anything else it only narrows, and the caller compares.
    pub fn keyed_range(
        &self,
        path: &str,
        value: &DataValue,
        range: TimeRange,
    ) -> Option<impl DoubleEndedIterator<Item = &StoredRecord>> {
        let index = self.field_indexes.iter().find(|index| index.path == path)?;
        let rows = index.rows.get(value).map_or(&[][..], Vec::as_slice);
        let ts = |i: &usize| self.records[*i].ts;
        let lo = rows.partition_point(|i| ts(i) < range.from);
        let hi = if range.closed_right {
            rows.partition_point(|i| ts(i) <= range.to)
        } else {
            rows.partition_point(|i| ts(i) < range.to)
        };
        Some(rows[lo..hi.max(lo)].iter().map(|&i| &self.records[i]))
    }

    /// Looks up a record by sequence number.
    pub fn get(&self, seq: u64) -> Option<&StoredRecord> {
        self.records.get(seq as usize)
    }

    /// Iterates over all records in ingestion order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredRecord> {
        self.records.iter()
    }

    /// Iterates over records whose timestamp falls in `range`, ordered by
    /// `(timestamp, ingestion order)`.
    pub fn range(&self, range: TimeRange) -> impl DoubleEndedIterator<Item = &StoredRecord> {
        use std::ops::Bound;
        let lower = Bound::Included((range.from, 0));
        let upper = if range.closed_right {
            Bound::Included((range.to, u64::MAX))
        } else {
            Bound::Excluded((range.to, 0))
        };
        self.ts_index
            .range((lower, upper))
            .map(move |(_, &idx)| &self.records[idx])
    }

    /// Iterates over records ingested strictly after `ts`, in timestamp
    /// order — the shape of query a repetitive channel issues for "records
    /// since my last execution".
    pub fn since(&self, ts: Timestamp) -> impl Iterator<Item = &StoredRecord> {
        use std::ops::Bound;
        self.ts_index
            .range((Bound::Excluded((ts, u64::MAX)), Bound::Unbounded))
            .map(move |(_, &idx)| &self.records[idx])
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dataset {} ({} records, {})",
            self.name,
            self.records.len(),
            self.total_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FieldDef, FieldType};

    fn rec(n: i64) -> DataValue {
        DataValue::object([("n", DataValue::from(n))])
    }

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn insert_assigns_sequence_numbers() {
        let mut ds = Dataset::new("D", Schema::open());
        assert_eq!(ds.insert(t(1), rec(1)).unwrap(), 0);
        assert_eq!(ds.insert(t(2), rec(2)).unwrap(), 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(*ds.get(1).unwrap().value, rec(2));
        assert!(ds.get(5).is_none());
    }

    #[test]
    fn schema_violations_do_not_mutate() {
        let mut ds = Dataset::new(
            "D",
            Schema::closed([FieldDef::required("n", FieldType::Int)]),
        );
        assert!(ds.insert(t(1), DataValue::from("no")).is_err());
        assert!(ds.is_empty());
        assert_eq!(ds.total_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn range_queries_are_inclusive_exclusive_correct() {
        let mut ds = Dataset::new("D", Schema::open());
        for sec in 1..=5u64 {
            ds.insert(t(sec), rec(sec as i64)).unwrap();
        }
        let closed = TimeRange::closed(t(2), t(4));
        let got: Vec<u64> = ds
            .range(closed)
            .map(|r| r.ts.as_micros() / 1_000_000)
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
        let half = TimeRange::half_open(t(2), t(4));
        let got: Vec<u64> = ds
            .range(half)
            .map(|r| r.ts.as_micros() / 1_000_000)
            .collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn range_handles_duplicate_timestamps_in_order() {
        let mut ds = Dataset::new("D", Schema::open());
        for n in 0..4 {
            ds.insert(t(7), rec(n)).unwrap();
        }
        let got: Vec<i64> = ds
            .range(TimeRange::closed(t(7), t(7)))
            .map(|r| r.value.get("n").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn late_data_is_indexed_correctly() {
        let mut ds = Dataset::new("D", Schema::open());
        ds.insert(t(10), rec(10)).unwrap();
        ds.insert(t(5), rec(5)).unwrap(); // late arrival
        let got: Vec<i64> = ds
            .range(TimeRange::closed(t(0), t(20)))
            .map(|r| r.value.get("n").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![5, 10]);
    }

    #[test]
    fn since_is_strictly_after() {
        let mut ds = Dataset::new("D", Schema::open());
        for sec in 1..=4u64 {
            ds.insert(t(sec), rec(sec as i64)).unwrap();
        }
        let got: Vec<i64> = ds
            .since(t(2))
            .map(|r| r.value.get("n").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![3, 4]);
        assert_eq!(ds.since(t(100)).count(), 0);
    }

    fn keyed(ds: &Dataset, k: DataValue, range: TimeRange) -> Vec<i64> {
        ds.keyed_range("k", &k, range)
            .unwrap()
            .map(|r| r.value.get("n").unwrap().as_i64().unwrap())
            .collect()
    }

    #[test]
    fn field_index_keeps_each_keys_rows_in_time_order() {
        let mut ds = Dataset::new("D", Schema::open());
        let row = |k: DataValue, n: i64| DataValue::object([("k", k), ("n", DataValue::from(n))]);
        ds.insert(t(5), row(DataValue::from(3i64), 0)).unwrap();
        ds.insert(t(2), row(DataValue::from("x"), 1)).unwrap();
        assert!(ds
            .keyed_range("k", &DataValue::Null, TimeRange::closed(t(0), t(9)))
            .is_none());
        // Built over the rows already stored, then kept by every insert:
        // late, duplicate-timestamp, numerically equal and unkeyed rows.
        ds.index_field("k");
        ds.index_field("k");
        ds.insert(t(3), row(DataValue::from(3.0), 2)).unwrap();
        ds.insert(t(5), row(DataValue::from(3i64), 3)).unwrap();
        ds.insert(t(1), row(DataValue::from(3i64), 4)).unwrap();
        ds.insert(t(4), rec(5)).unwrap();
        let all = TimeRange::closed(t(0), t(9));
        assert_eq!(keyed(&ds, DataValue::from(3i64), all), vec![4, 2, 0, 3]);
        assert_eq!(keyed(&ds, DataValue::from(3.0), all), vec![4, 2, 0, 3]);
        assert_eq!(keyed(&ds, DataValue::from("x"), all), vec![1]);
        assert!(keyed(&ds, DataValue::from(4i64), all).is_empty());
        let window = TimeRange::closed(t(3), t(5));
        assert_eq!(keyed(&ds, DataValue::from(3i64), window), vec![2, 0, 3]);
        let half = TimeRange::half_open(t(3), t(5));
        assert_eq!(keyed(&ds, DataValue::from(3i64), half), vec![2]);
        let newest: Vec<u64> = ds
            .keyed_range("k", &DataValue::from(3i64), all)
            .unwrap()
            .rev()
            .take(2)
            .map(|r| r.seq)
            .collect();
        assert_eq!(newest, vec![3, 0]);
    }

    #[test]
    fn stored_size_is_the_estimate() {
        let mut ds = Dataset::new("D", Schema::open());
        ds.insert(t(1), rec(1)).unwrap();
        assert_eq!(ds.get(0).unwrap().size, rec(1).estimated_size());
    }

    #[test]
    fn total_bytes_accumulates() {
        let mut ds = Dataset::new("D", Schema::open());
        ds.insert(t(1), rec(1)).unwrap();
        let one = ds.total_bytes();
        ds.insert(t(2), rec(2)).unwrap();
        assert_eq!(ds.total_bytes(), one + one);
    }
}
