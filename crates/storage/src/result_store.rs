//! Per-backend-subscription result datasets.
//!
//! Whenever the cluster's channel runtime matches a publication against a
//! backend subscription it appends a [`ResultObject`] to that
//! subscription's result store. Brokers later retrieve ranges of results
//! by timestamp — the `fetch(bs, ts1, ts2, closed)` call of Algorithm 1.
//! Results are persistent: "subscribers returning after a long hiatus can
//! still retrieve notifications from the bigdata backend" (Section I).

use std::fmt;
use std::sync::Arc;

use bad_types::ids::{IdGen, IdSlab};
use bad_types::{BackendSubId, ByteSize, DataValue, ObjectId, TimeRange, Timestamp};

/// One enriched notification result produced for a backend subscription.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultObject {
    /// Globally unique object identifier.
    pub id: ObjectId,
    /// The backend subscription this result belongs to.
    pub backend_sub: BackendSubId,
    /// Production timestamp assigned by the cluster.
    pub ts: Timestamp,
    /// Object size as accounted by caches and the network model.
    pub size: ByteSize,
    /// The enriched notification content. Shared: the subscriptions one
    /// record matched, and every fetched copy, hold the same allocation.
    pub payload: Arc<DataValue>,
}

/// Timestamp-ordered result datasets, one per backend subscription.
///
/// # Examples
///
/// ```
/// use bad_storage::ResultStore;
/// use bad_types::{BackendSubId, DataValue, TimeRange, Timestamp};
///
/// let mut store = ResultStore::new();
/// let bs = BackendSubId::new(1);
/// store.append(bs, Timestamp::from_secs(1), DataValue::from("hello"), None);
/// store.append(bs, Timestamp::from_secs(2), DataValue::from("world"), None);
/// let all = store.fetch(bs, TimeRange::closed(Timestamp::ZERO, Timestamp::from_secs(9)));
/// assert_eq!(all.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ResultStore {
    stores: IdSlab<BackendSubId, Vec<ResultObject>>,
    ids: IdGen,
    total_objects: u64,
    total_bytes: ByteSize,
}

impl ResultStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a result for `bs` and returns a reference to it.
    ///
    /// When `size` is `None` the payload's estimated size is used; the
    /// simulator passes explicit synthetic sizes instead. A payload that
    /// is already an `Arc` is stored as is, so one enriched record costs
    /// one allocation however many subscriptions it matched; its size is
    /// still accounted once per appended object.
    pub fn append(
        &mut self,
        bs: BackendSubId,
        ts: Timestamp,
        payload: impl Into<Arc<DataValue>>,
        size: Option<ByteSize>,
    ) -> &ResultObject {
        let payload = payload.into();
        let id: ObjectId = self.ids.next_id();
        let size = size.unwrap_or_else(|| ByteSize::new(payload.estimated_size()));
        let object = ResultObject {
            id,
            backend_sub: bs,
            ts,
            size,
            payload,
        };
        self.total_objects += 1;
        self.total_bytes += size;
        let list = self.stores.get_or_insert_with(bs, Vec::new);
        // Results are produced in timestamp order in the common case;
        // binary search keeps late arrivals ordered too.
        let pos = list.partition_point(|o| (o.ts, o.id) <= (ts, id));
        list.insert(pos, object);
        &list[pos]
    }

    /// Returns all results for `bs` whose timestamps fall in `range`, in
    /// timestamp order. Payloads are shared with the store, not copied.
    ///
    /// Unknown subscriptions yield an empty vector — the persistent store
    /// never errors on reads.
    pub fn fetch(&self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.slice(bs, range).to_vec()
    }

    /// Total bytes of results in `range` for `bs`, without cloning.
    pub fn fetch_bytes(&self, bs: BackendSubId, range: TimeRange) -> ByteSize {
        self.slice(bs, range).iter().map(|o| o.size).sum()
    }

    /// The results of `bs` inside `range`: one contiguous run, because
    /// each list is kept ordered by `(ts, id)`.
    fn slice(&self, bs: BackendSubId, range: TimeRange) -> &[ResultObject] {
        let Some(list) = self.stores.get(bs) else {
            return &[];
        };
        let tail = &list[list.partition_point(|o| o.ts < range.from)..];
        let end = if range.closed_right {
            tail.partition_point(|o| o.ts <= range.to)
        } else {
            tail.partition_point(|o| o.ts < range.to)
        };
        &tail[..end]
    }

    /// The newest result timestamp for `bs`, if any result exists.
    pub fn latest_ts(&self, bs: BackendSubId) -> Option<Timestamp> {
        self.stores.get(bs).and_then(|l| l.last()).map(|o| o.ts)
    }

    /// Number of results stored for `bs`.
    pub fn len_of(&self, bs: BackendSubId) -> usize {
        self.stores.get(bs).map_or(0, Vec::len)
    }

    /// Total number of results ever stored, across all subscriptions.
    /// Like [`ResultStore::total_bytes`] it only grows:
    /// [`ResultStore::remove_subscription`] does not take a retired
    /// subscription's results off it.
    pub fn total_objects(&self) -> u64 {
        self.total_objects
    }

    /// Total bytes of results ever stored — the paper's `Vol`, the base
    /// volume the broker must pull from the cluster regardless of policy.
    pub fn total_bytes(&self) -> ByteSize {
        self.total_bytes
    }

    /// Drops all results for a subscription (used when the last frontend
    /// subscription detaches and the backend subscription is retired).
    pub fn remove_subscription(&mut self, bs: BackendSubId) {
        self.stores.remove(bs);
    }
}

impl fmt::Display for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "result store ({} subscriptions, {} objects, {})",
            self.stores.len(),
            self.total_objects,
            self.total_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn append_and_fetch_in_order() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        for sec in [1u64, 2, 3] {
            s.append(bs, t(sec), DataValue::from(sec as i64), None);
        }
        let got = s.fetch(bs, TimeRange::closed(t(1), t(3)));
        let ts: Vec<u64> = got.iter().map(|o| o.ts.as_micros() / 1_000_000).collect();
        assert_eq!(ts, vec![1, 2, 3]);
        assert_eq!(s.len_of(bs), 3);
    }

    #[test]
    fn fetch_respects_range_bounds() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        for sec in 1..=5u64 {
            s.append(bs, t(sec), DataValue::from(sec as i64), None);
        }
        assert_eq!(s.fetch(bs, TimeRange::half_open(t(2), t(4))).len(), 2);
        assert_eq!(s.fetch(bs, TimeRange::closed(t(2), t(4))).len(), 3);
        assert_eq!(s.fetch(bs, TimeRange::closed(t(9), t(10))).len(), 0);
    }

    #[test]
    fn several_objects_at_the_upper_bound_follow_closed_right() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        for (sec, n) in [(1u64, 0i64), (2, 1), (4, 2), (4, 3), (4, 4), (5, 5)] {
            s.append(bs, t(sec), DataValue::from(n), Some(ByteSize::new(10)));
        }
        let ns = |range| -> Vec<i64> {
            let got = s.fetch(bs, range);
            assert_eq!(
                s.fetch_bytes(bs, range),
                ByteSize::new(10 * got.len() as u64)
            );
            got.iter().map(|o| o.payload.as_i64().unwrap()).collect()
        };
        assert_eq!(ns(TimeRange::closed(t(2), t(4))), vec![1, 2, 3, 4]);
        assert_eq!(ns(TimeRange::half_open(t(2), t(4))), vec![1]);
        assert_eq!(ns(TimeRange::closed(t(4), t(4))), vec![2, 3, 4]);
        assert!(ns(TimeRange::half_open(t(4), t(4))).is_empty());
        // An inverted range is empty, not a panic.
        assert!(ns(TimeRange::closed(t(5), t(2))).is_empty());
    }

    #[test]
    fn unknown_subscription_reads_empty() {
        let s = ResultStore::new();
        let bs = BackendSubId::new(77);
        assert!(s.fetch(bs, TimeRange::closed(t(0), t(10))).is_empty());
        assert_eq!(s.latest_ts(bs), None);
        assert_eq!(
            s.fetch_bytes(bs, TimeRange::closed(t(0), t(10))),
            ByteSize::ZERO
        );
    }

    #[test]
    fn stores_are_isolated_per_subscription() {
        let mut s = ResultStore::new();
        let a = BackendSubId::new(1);
        let b = BackendSubId::new(2);
        s.append(a, t(1), DataValue::from(1i64), None);
        s.append(b, t(1), DataValue::from(2i64), None);
        assert_eq!(s.len_of(a), 1);
        assert_eq!(s.len_of(b), 1);
        let got = s.fetch(a, TimeRange::closed(t(0), t(9)));
        assert_eq!(*got[0].payload, DataValue::from(1i64));
    }

    #[test]
    fn totals_count_every_result_ever_stored() {
        let mut s = ResultStore::new();
        let (a, b) = (BackendSubId::new(1), BackendSubId::new(2));
        s.append(a, t(1), DataValue::Null, Some(ByteSize::new(10)));
        s.append(a, t(2), DataValue::Null, Some(ByteSize::new(10)));
        s.append(b, t(1), DataValue::Null, Some(ByteSize::new(5)));
        s.remove_subscription(a);
        assert_eq!(s.len_of(a), 0);
        assert_eq!(s.total_objects(), 3);
        assert_eq!(s.total_bytes(), ByteSize::new(25));
        assert_eq!(
            s.to_string(),
            "result store (1 subscriptions, 3 objects, 25B)"
        );
        // A retired id never comes back; an unknown one is a no-op.
        s.remove_subscription(BackendSubId::new(u64::MAX));
        assert_eq!(s.total_objects(), 3);
    }

    #[test]
    fn explicit_size_overrides_estimate() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        let obj = s
            .append(bs, t(1), DataValue::Null, Some(ByteSize::from_kib(100)))
            .clone();
        assert_eq!(obj.size, ByteSize::from_kib(100));
        assert_eq!(s.total_bytes(), ByteSize::from_kib(100));
    }

    #[test]
    fn fetch_bytes_matches_fetch() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        for sec in 1..=4u64 {
            s.append(bs, t(sec), DataValue::Null, Some(ByteSize::new(sec * 10)));
        }
        let range = TimeRange::closed(t(2), t(3));
        let by_fetch: ByteSize = s.fetch(bs, range).iter().map(|o| o.size).sum();
        assert_eq!(s.fetch_bytes(bs, range), by_fetch);
    }

    #[test]
    fn late_arrivals_are_ordered() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        s.append(bs, t(5), DataValue::from(5i64), None);
        s.append(bs, t(2), DataValue::from(2i64), None);
        let got = s.fetch(bs, TimeRange::closed(t(0), t(10)));
        let secs: Vec<u64> = got.iter().map(|o| o.ts.as_micros() / 1_000_000).collect();
        assert_eq!(secs, vec![2, 5]);
        assert_eq!(s.latest_ts(bs), Some(t(5)));
    }

    #[test]
    fn remove_subscription_clears_results() {
        let mut s = ResultStore::new();
        let bs = BackendSubId::new(1);
        s.append(bs, t(1), DataValue::Null, None);
        s.remove_subscription(bs);
        assert_eq!(s.len_of(bs), 0);
    }
}
