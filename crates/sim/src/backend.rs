//! The simulator's synthetic data cluster.
//!
//! The Section V simulator does not run queries: the backend simply
//! "generates results at different rates for different channels". Each
//! synthetic *stream* stands for one unique subscription's result
//! production process (Poisson arrivals, Table II object sizes), and all
//! produced results are persisted in a [`ResultStore`] so that cache
//! misses can always be re-fetched — BAD results are durable.

use bad_broker::ClusterHandle;
use bad_cluster::Notification;
use bad_query::ParamBindings;
use bad_storage::{ResultObject, ResultStore};
use bad_types::ids::IdGen;
use bad_types::{BackendSubId, BadError, ByteSize, DataValue, Result, TimeRange, Timestamp};

use std::collections::HashMap;
use std::sync::Arc;

/// The synthetic cluster backend used by the simulator.
///
/// Channel names of the form `stream-<i>` map to synthetic streams; the
/// broker subscribes through the normal [`ClusterHandle`] interface.
#[derive(Debug)]
pub struct SimBackend {
    store: ResultStore,
    ids: IdGen,
    /// channel name -> backend subscription (one sub per stream).
    by_channel: HashMap<String, BackendSubId>,
    /// The payload of every synthetic result: one shared null.
    null: Arc<DataValue>,
    /// Lifecycle tracer stamping `result_produced` root spans with the
    /// simulator's virtual time (disabled by default).
    tracer: bad_telemetry::SharedTracer,
}

impl Default for SimBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self {
            store: ResultStore::new(),
            ids: IdGen::new(),
            by_channel: HashMap::new(),
            null: Arc::new(DataValue::Null),
            tracer: bad_telemetry::Tracer::disabled(),
        }
    }

    /// Emits a `result_produced` span for every produced result
    /// through `tracer`, stamped with the result's virtual timestamp.
    pub fn set_tracer(&mut self, tracer: bad_telemetry::SharedTracer) {
        self.tracer = tracer;
    }

    /// The canonical channel name of stream `i`.
    pub fn stream_channel(i: usize) -> String {
        format!("stream-{i}")
    }

    /// The backend subscription currently bound to a stream, if any.
    pub fn subscription_of(&self, stream: usize) -> Option<BackendSubId> {
        self.by_channel.get(&Self::stream_channel(stream)).copied()
    }

    /// Produces one result of `size` for `bs` at time `ts`, persisting it
    /// and returning the notification the cluster would send.
    pub fn produce(&mut self, bs: BackendSubId, ts: Timestamp, size: ByteSize) -> Notification {
        let object = self
            .store
            .append(bs, ts, Arc::clone(&self.null), Some(size));
        if self.tracer.enabled() {
            // A stream is a channel of its own with one subscription,
            // so the subscription id also names the channel.
            self.tracer.on_result_produced(
                ts.as_micros(),
                bs.as_u64(),
                bs.as_u64(),
                object.id.as_u64(),
                object.size.as_u64(),
            );
        }
        Notification {
            backend_sub: bs,
            latest_ts: object.ts,
            count: 1,
            bytes: size,
        }
    }

    /// Total bytes of results ever produced (`Vol`).
    pub fn volume(&self) -> ByteSize {
        self.store.total_bytes()
    }

    /// Total number of results ever produced.
    pub fn produced_objects(&self) -> u64 {
        self.store.total_objects()
    }
}

impl ClusterHandle for SimBackend {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        _params: ParamBindings,
        _now: Timestamp,
    ) -> Result<BackendSubId> {
        if let Some(existing) = self.by_channel.get(channel) {
            return Ok(*existing);
        }
        let id: BackendSubId = self.ids.next_id();
        self.by_channel.insert(channel.to_owned(), id);
        Ok(id)
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        let channel = self
            .by_channel
            .iter()
            .find(|&(_, id)| *id == bs)
            .map(|(name, _)| name.clone())
            .ok_or_else(|| BadError::not_found("subscription", bs.to_string()))?;
        self.by_channel.remove(&channel);
        self.store.remove_subscription(bs);
        Ok(())
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.store.fetch(bs, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn subscribe_is_idempotent_per_channel() {
        let mut backend = SimBackend::new();
        let a = backend
            .cluster_subscribe("stream-0", ParamBindings::new(), t(0))
            .unwrap();
        let b = backend
            .cluster_subscribe("stream-0", ParamBindings::new(), t(0))
            .unwrap();
        let c = backend
            .cluster_subscribe("stream-1", ParamBindings::new(), t(0))
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(backend.subscription_of(0), Some(a));
    }

    #[test]
    fn produced_results_are_fetchable() {
        let mut backend = SimBackend::new();
        let bs = backend
            .cluster_subscribe("stream-0", ParamBindings::new(), t(0))
            .unwrap();
        let n = backend.produce(bs, t(5), ByteSize::from_kib(10));
        assert_eq!(n.latest_ts, t(5));
        let got = backend.cluster_fetch(bs, TimeRange::closed(t(0), t(10)));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].size, ByteSize::from_kib(10));
        assert_eq!(backend.volume(), ByteSize::from_kib(10));
        assert_eq!(backend.produced_objects(), 1);
    }

    #[test]
    fn unsubscribe_clears_stream() {
        let mut backend = SimBackend::new();
        let bs = backend
            .cluster_subscribe("stream-0", ParamBindings::new(), t(0))
            .unwrap();
        backend.produce(bs, t(1), ByteSize::new(100));
        backend.cluster_unsubscribe(bs).unwrap();
        assert_eq!(backend.subscription_of(0), None);
        assert!(backend
            .cluster_fetch(bs, TimeRange::closed(t(0), t(10)))
            .is_empty());
        assert!(backend.cluster_unsubscribe(bs).is_err());
    }
}
