//! The BAD broker tier.
//!
//! Brokers connect end subscribers to the data cluster: they accept
//! *frontend subscriptions*, merge identical ones into shared *backend
//! subscriptions* ("the broker makes only one subscription back to the
//! data cluster and shares the channel results among the subscribers"),
//! maintain one in-memory result cache per backend subscription
//! ([`bad_cache`]), pull new results on cluster notifications, and serve
//! subscriber retrievals with the hit/miss semantics of Algorithm 1.
//!
//! The broker is written against a [`ClusterHandle`] abstraction and a
//! virtual clock, so the exact same code runs inside the discrete-event
//! simulator (Section V of the paper) and the threaded prototype
//! (Section VI). Observers are metadata-only; [`Observability`] bundles
//! the ones a runtime attaches to a broker and its cluster.
//!
//! # Examples
//!
//! ```
//! use bad_broker::{Broker, BrokerConfig};
//! use bad_cache::PolicyName;
//! use bad_cluster::DataCluster;
//! use bad_query::ParamBindings;
//! use bad_storage::Schema;
//! use bad_types::{DataValue, SubscriberId, Timestamp};
//!
//! let mut cluster = DataCluster::new();
//! cluster.create_dataset("Reports", Schema::open())?;
//! cluster.register_channel(
//!     "channel ByKind(kind: string) from Reports r where r.kind == $kind select r",
//! )?;
//!
//! let mut broker = Broker::new(PolicyName::Lsc, BrokerConfig::default());
//! let alice = SubscriberId::new(1);
//! let fs = broker.subscribe(
//!     &mut cluster,
//!     alice,
//!     "ByKind",
//!     ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
//!     Timestamp::ZERO,
//! )?;
//!
//! // A publication matches; the cluster notifies; the broker pulls the
//! // result into its cache and tells us which subscribers to notify.
//! let notifications = cluster.publish(
//!     "Reports",
//!     Timestamp::from_secs(1),
//!     DataValue::parse_json(r#"{"kind":"fire"}"#)?,
//! )?;
//! let outcome = broker.on_notification(&mut cluster, notifications[0], Timestamp::from_secs(1));
//! assert_eq!(outcome.notify.len(), 1);
//!
//! // Alice retrieves: a cache hit, no cluster traffic.
//! let delivery = broker.get_results(&mut cluster, alice, fs, Timestamp::from_secs(2))?;
//! assert_eq!(delivery.hit_objects, 1);
//! assert_eq!(delivery.miss_objects, 0);
//! # Ok::<(), bad_types::BadError>(())
//! ```

pub mod broker;
pub mod observability;
pub mod subscriptions;
pub mod telemetry;

#[doc(hidden)]
pub use broker::CoalesceStats;
pub use broker::{
    Broker, BrokerConfig, ClusterHandle, Delivery, DeliveryMetrics, NotificationOutcome,
};
pub use observability::Observability;
pub use subscriptions::{BackendEntry, FrontendSub, PendingRange, SubscriptionTable};
pub use telemetry::BrokerTelemetry;
