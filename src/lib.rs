//! **big-active-data** — a Rust reproduction of *"Edge Caching for
//! Enriched Notifications Delivery in Big Active Data"* (Uddin &
//! Venkatasubramanian, ICDCS 2018).
//!
//! The BAD platform connects a big-data backend that perpetually matches
//! publications against declarative subscriptions ("channels") to a very
//! large subscriber population, through a tier of brokers. This crate
//! re-exports the whole workspace behind one façade:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`types`] | `bad-types` | ids, virtual time, records, geo, sizes |
//! | [`query`] | `bad-query` | BQL: the parameterized channel language |
//! | [`storage`] | `bad-storage` | datasets, result stores |
//! | [`net`] | `bad-net` | RTT/bandwidth latency model (Table II) |
//! | [`cache`] | `bad-cache` | ★ result caches + LRU/LSC/LSCz/LSD/EXP/TTL/NC policies |
//! | [`cluster`] | `bad-cluster` | channels runtime, matching, enrichment, webhooks |
//! | [`broker`] | `bad-broker` | subscription merging, Algorithm-1 delivery |
//! | [`workload`] | `bad-workload` | Zipf popularity, churn, traces, emergency city |
//! | [`sim`] | `bad-sim` | Section V discrete-event evaluation |
//! | [`proto`] | `bad-proto` | Section VI full-stack prototype (DES + threads) |
//! | [`telemetry`] | `bad-telemetry` | zero-dependency counters, histograms, structured events |
//!
//! # Quickstart
//!
//! ```
//! use big_active_data::prelude::*;
//!
//! // 1. Stand up a data cluster with a dataset and a channel.
//! let mut cluster = DataCluster::new();
//! cluster.create_dataset("Reports", Schema::open())?;
//! cluster.register_channel(
//!     "channel ByKind(kind: string) from Reports r where r.kind == $kind select r",
//! )?;
//!
//! // 2. A broker with an LSC cache in front of it.
//! let mut broker = Broker::new(PolicyName::Lsc, BrokerConfig::default());
//! let alice = SubscriberId::new(1);
//! let fs = broker.subscribe(
//!     &mut cluster, alice, "ByKind",
//!     ParamBindings::from_pairs([("kind", DataValue::from("flood"))]),
//!     Timestamp::ZERO,
//! )?;
//!
//! // 3. Publish, notify, retrieve — a cache hit.
//! let ns = cluster.publish("Reports", Timestamp::from_secs(1),
//!     DataValue::parse_json(r#"{"kind":"flood","severity":2}"#)?)?;
//! broker.on_notification(&mut cluster, ns[0], Timestamp::from_secs(1));
//! let delivery = broker.get_results(&mut cluster, alice, fs, Timestamp::from_secs(2))?;
//! assert_eq!(delivery.hit_objects, 1);
//! # Ok::<(), big_active_data::types::BadError>(())
//! ```

pub use bad_broker as broker;
pub use bad_cache as cache;
pub use bad_cluster as cluster;
pub use bad_net as net;
pub use bad_proto as proto;
pub use bad_query as query;
pub use bad_sim as sim;
pub use bad_storage as storage;
pub use bad_telemetry as telemetry;
pub use bad_types as types;
pub use bad_workload as workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use bad_broker::{Broker, BrokerConfig, Delivery, Observability};
    pub use bad_cache::{CacheConfig, CacheManager, PolicyName};
    pub use bad_cluster::{DataCluster, EnrichmentRule, Notification};
    pub use bad_net::NetworkModel;
    pub use bad_proto::{run_prototype, Deployment, Exec, PrototypeConfig};
    pub use bad_query::{ChannelSpec, ParamBindings};
    pub use bad_sim::{SimConfig, Simulation};
    pub use bad_storage::{Dataset, ResultStore, Schema};
    pub use bad_telemetry::{Event, JsonlSink, Registry, RingBufferSink, SharedSink};
    pub use bad_types::{
        BackendSubId, ByteSize, DataValue, FrontendSubId, GeoPoint, SimDuration, SubscriberId,
        TimeRange, Timestamp,
    };
    pub use bad_workload::{EmergencyCity, TraceConfig, TraceGenerator};
}
