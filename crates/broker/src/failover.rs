//! Multi-broker fleets with failover — the "methods for handling
//! failures and support for efficient load balancing" the paper's
//! conclusion names as the next system problem.
//!
//! A [`BrokerFleet`] runs several [`Broker`]s behind one
//! [`BrokerCoordinationService`]. Subscribers are placed on the
//! least-loaded broker; when a broker fails, its subscribers are
//! migrated: re-assigned by the BCS and transparently re-subscribed on
//! their new broker. Because results are *persistent* in the data
//! cluster (Section I: "subscribers returning after a long hiatus can
//! still retrieve notifications from the bigdata backend"), migrated
//! subscribers keep receiving results produced after the migration —
//! only the failed broker's in-memory cache is lost.

use std::collections::{BTreeMap, HashMap};

use bad_cluster::Notification;
use bad_query::ParamBindings;
use bad_types::{BadError, BrokerId, FrontendSubId, Result, SubscriberId, Timestamp};

use bad_telemetry::{Registry, SharedSink};

use crate::bcs::BrokerCoordinationService;
use crate::broker::{Broker, BrokerConfig, ClusterHandle, Delivery, NotificationOutcome};
use crate::telemetry::BrokerTelemetry;

use bad_cache::PolicyName;

/// A fleet-level subscription handle: which broker currently serves it
/// and the frontend id on that broker. Handles stay valid across
/// failovers (the fleet re-maps them during migration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FleetSubId(u64);

impl std::fmt::Display for FleetSubId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet-sub-{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct FleetSubscription {
    subscriber: SubscriberId,
    channel: String,
    params: ParamBindings,
    broker: BrokerId,
    frontend: FrontendSubId,
}

/// Several brokers behind one coordination service, with subscriber
/// migration on broker failure.
///
/// # Examples
///
/// ```
/// use bad_broker::{BrokerConfig, BrokerFleet};
/// use bad_cache::PolicyName;
/// use bad_cluster::DataCluster;
/// use bad_query::ParamBindings;
/// use bad_storage::Schema;
/// use bad_types::{DataValue, SubscriberId, Timestamp};
///
/// let mut cluster = DataCluster::new();
/// cluster.create_dataset("Reports", Schema::open())?;
/// cluster.register_channel(
///     "channel ByKind(kind: string) from Reports r where r.kind == $kind select r",
/// )?;
/// let mut fleet = BrokerFleet::new(PolicyName::Lsc, BrokerConfig::default());
/// let _a = fleet.add_broker("broker-a");
/// let _b = fleet.add_broker("broker-b");
///
/// let alice = SubscriberId::new(1);
/// let handle = fleet.subscribe(
///     &mut cluster, alice, "ByKind",
///     ParamBindings::from_pairs([("kind", DataValue::from("fire"))]),
///     Timestamp::ZERO,
/// )?;
/// // Kill whichever broker got alice; she is migrated transparently.
/// let failed = fleet.broker_of(handle).unwrap();
/// fleet.fail_broker(&mut cluster, failed, Timestamp::from_secs(1))?;
/// assert_ne!(fleet.broker_of(handle).unwrap(), failed);
/// # Ok::<(), bad_types::BadError>(())
/// ```
#[derive(Debug)]
pub struct BrokerFleet {
    policy: PolicyName,
    config: BrokerConfig,
    bcs: BrokerCoordinationService,
    brokers: BTreeMap<BrokerId, Broker>,
    subscriptions: HashMap<FleetSubId, FleetSubscription>,
    next_handle: u64,
    /// Migrations performed (for observability).
    migrations: u64,
    telemetry: BrokerTelemetry,
    /// Wiring replicated onto brokers added after `attach_telemetry`.
    telemetry_wiring: Option<(Registry, SharedSink)>,
}

impl BrokerFleet {
    /// Creates an empty fleet; every broker uses the same policy/config.
    pub fn new(policy: PolicyName, config: BrokerConfig) -> Self {
        Self {
            policy,
            config,
            bcs: BrokerCoordinationService::new(),
            brokers: BTreeMap::new(),
            subscriptions: HashMap::new(),
            next_handle: 0,
            migrations: 0,
            telemetry: BrokerTelemetry::detached(),
            telemetry_wiring: None,
        }
    }

    /// Wires the fleet (failover events) and every current and future
    /// broker to a shared registry and event sink.
    pub fn attach_telemetry(&mut self, registry: &Registry, sink: SharedSink) {
        self.telemetry = BrokerTelemetry::new(registry, sink.clone());
        for broker in self.brokers.values_mut() {
            broker.attach_telemetry(registry, sink.clone());
        }
        self.telemetry_wiring = Some((registry.clone(), sink));
    }

    /// Registers a new broker node.
    pub fn add_broker(&mut self, endpoint: impl Into<String>) -> BrokerId {
        let id = self.bcs.register_broker(endpoint);
        let mut broker = Broker::new(self.policy, self.config);
        if let Some((registry, sink)) = &self.telemetry_wiring {
            broker.attach_telemetry(registry, sink.clone());
        }
        self.brokers.insert(id, broker);
        id
    }

    /// The coordination service (read-only).
    pub fn bcs(&self) -> &BrokerCoordinationService {
        &self.bcs
    }

    /// A broker by id.
    pub fn broker(&self, id: BrokerId) -> Option<&Broker> {
        self.brokers.get(&id)
    }

    /// Number of live brokers.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// Total migrations performed by failovers so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The broker currently serving a fleet subscription.
    pub fn broker_of(&self, handle: FleetSubId) -> Option<BrokerId> {
        self.subscriptions.get(&handle).map(|s| s.broker)
    }

    /// Subscribes `subscriber` through its BCS-assigned broker.
    ///
    /// # Errors
    ///
    /// [`BadError::InvalidState`] with no brokers registered, plus any
    /// cluster-side subscription error.
    pub fn subscribe(
        &mut self,
        cluster: &mut impl ClusterHandle,
        subscriber: SubscriberId,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<FleetSubId> {
        let broker_id = self.bcs.assign(subscriber)?;
        let broker = self.brokers.get_mut(&broker_id).expect("registered broker");
        let frontend = broker.subscribe(cluster, subscriber, channel, params.clone(), now)?;
        // `Broker::subscribe` is idempotent; so is the fleet, or a second
        // handle would dangle once the first is unsubscribed.
        let held = self
            .subscriptions
            .iter()
            .find(|(_, s)| s.broker == broker_id && s.frontend == frontend);
        if let Some((&handle, _)) = held {
            return Ok(handle);
        }
        let handle = FleetSubId(self.next_handle);
        self.next_handle += 1;
        self.subscriptions.insert(
            handle,
            FleetSubscription {
                subscriber,
                channel: channel.to_owned(),
                params,
                broker: broker_id,
                frontend,
            },
        );
        Ok(handle)
    }

    /// Cancels a fleet subscription.
    ///
    /// # Errors
    ///
    /// [`BadError::NotFound`] for unknown handles.
    pub fn unsubscribe(
        &mut self,
        cluster: &mut impl ClusterHandle,
        handle: FleetSubId,
        now: Timestamp,
    ) -> Result<()> {
        let sub = self
            .subscriptions
            .remove(&handle)
            .ok_or_else(|| BadError::not_found("fleet subscription", handle.to_string()))?;
        let broker = self
            .brokers
            .get_mut(&sub.broker)
            .expect("registered broker");
        broker.unsubscribe(cluster, sub.subscriber, sub.frontend, now)?;
        if !self
            .subscriptions
            .values()
            .any(|s| s.subscriber == sub.subscriber)
        {
            self.bcs.release(sub.subscriber);
        }
        Ok(())
    }

    /// Routes a cluster notification to the broker(s) holding the
    /// affected backend subscription.
    pub fn on_notification(
        &mut self,
        cluster: &mut impl ClusterHandle,
        notification: Notification,
        now: Timestamp,
    ) -> NotificationOutcome {
        for broker in self.brokers.values_mut() {
            if broker
                .subscriptions()
                .backend(notification.backend_sub)
                .is_some()
            {
                return broker.on_notification(cluster, notification, now);
            }
        }
        NotificationOutcome::default()
    }

    /// Retrieves pending results on a fleet subscription.
    ///
    /// # Errors
    ///
    /// [`BadError::NotFound`] for unknown handles; broker-side errors.
    pub fn get_results(
        &mut self,
        cluster: &mut impl ClusterHandle,
        handle: FleetSubId,
        now: Timestamp,
    ) -> Result<Delivery> {
        let sub = self
            .subscriptions
            .get(&handle)
            .ok_or_else(|| BadError::not_found("fleet subscription", handle.to_string()))?
            .clone();
        let broker = self
            .brokers
            .get_mut(&sub.broker)
            .expect("registered broker");
        broker.get_results(cluster, sub.subscriber, sub.frontend, now)
    }

    /// Runs cache maintenance on every broker.
    pub fn maintain_all(&mut self, now: Timestamp) {
        for broker in self.brokers.values_mut() {
            broker.maintain(now);
        }
    }

    /// Simulates a broker failure: the node is removed, its cluster-side
    /// subscriptions are torn down, and every affected subscriber is
    /// re-assigned by the BCS and re-subscribed on its new broker with
    /// the same channel and parameters. Existing [`FleetSubId`] handles
    /// remain valid. Returns the number of migrated subscriptions.
    ///
    /// Results that were pending in the failed broker's cache are
    /// re-deliverable only insofar as the new backend subscriptions see
    /// results produced *after* the migration — the cluster's persistent
    /// result store keeps everything, but a fresh backend subscription
    /// starts a fresh result stream, exactly like a subscriber returning
    /// "after a long hiatus".
    ///
    /// # Errors
    ///
    /// [`BadError::NotFound`] for unknown brokers,
    /// [`BadError::InvalidState`] when no broker remains to migrate to.
    pub fn fail_broker(
        &mut self,
        cluster: &mut impl ClusterHandle,
        failed: BrokerId,
        now: Timestamp,
    ) -> Result<usize> {
        let Some(dead) = self.brokers.remove(&failed) else {
            return Err(BadError::not_found("broker", failed.to_string()));
        };
        self.bcs.deregister_broker(failed)?;
        // Tear down the dead broker's cluster-side subscriptions: its
        // webhook endpoint is gone.
        for backend in dead.subscriptions().iter_backends() {
            let _ = cluster.cluster_unsubscribe(backend.id);
        }
        drop(dead);

        // Re-home every fleet subscription that lived there.
        let affected: Vec<FleetSubId> = self
            .subscriptions
            .iter()
            .filter(|(_, s)| s.broker == failed)
            .map(|(h, _)| *h)
            .collect();
        let mut migrated = 0;
        for handle in affected {
            let (subscriber, channel, params) = {
                let s = &self.subscriptions[&handle];
                (s.subscriber, s.channel.clone(), s.params.clone())
            };
            let new_broker_id = self.bcs.assign(subscriber)?;
            let broker = self
                .brokers
                .get_mut(&new_broker_id)
                .expect("assigned broker");
            let frontend = broker.subscribe(cluster, subscriber, &channel, params.clone(), now)?;
            let entry = self.subscriptions.get_mut(&handle).expect("listed above");
            entry.broker = new_broker_id;
            entry.frontend = frontend;
            migrated += 1;
            self.migrations += 1;
        }
        self.telemetry.on_failover(now, failed, migrated as u64);
        Ok(migrated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_cluster::DataCluster;
    use bad_storage::Schema;
    use bad_types::DataValue;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    fn setup() -> (DataCluster, BrokerFleet) {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        let mut fleet = BrokerFleet::new(PolicyName::Lsc, BrokerConfig::default());
        fleet.add_broker("a");
        fleet.add_broker("b");
        (cluster, fleet)
    }

    fn params(kind: &str) -> ParamBindings {
        ParamBindings::from_pairs([("kind", DataValue::from(kind))])
    }

    fn publish(cluster: &mut DataCluster, fleet: &mut BrokerFleet, secs: u64, kind: &str) {
        let record = DataValue::object([("kind", DataValue::from(kind))]);
        for n in cluster.publish("Reports", t(secs), record).unwrap() {
            fleet.on_notification(cluster, n, t(secs));
        }
    }

    #[test]
    fn fleet_delivers_through_assigned_brokers() {
        let (mut cluster, mut fleet) = setup();
        let handles: Vec<FleetSubId> = (0..4u64)
            .map(|i| {
                fleet
                    .subscribe(
                        &mut cluster,
                        SubscriberId::new(i),
                        "ByKind",
                        params("fire"),
                        t(0),
                    )
                    .unwrap()
            })
            .collect();
        publish(&mut cluster, &mut fleet, 1, "fire");
        for handle in handles {
            let d = fleet.get_results(&mut cluster, handle, t(2)).unwrap();
            assert_eq!(d.total_objects(), 1);
        }
    }

    #[test]
    fn failover_migrates_and_keeps_delivering() {
        let (mut cluster, mut fleet) = setup();
        let handles: Vec<FleetSubId> = (0..6u64)
            .map(|i| {
                fleet
                    .subscribe(
                        &mut cluster,
                        SubscriberId::new(i),
                        "ByKind",
                        params("fire"),
                        t(0),
                    )
                    .unwrap()
            })
            .collect();
        let victim = fleet.broker_of(handles[0]).unwrap();
        let migrated = fleet.fail_broker(&mut cluster, victim, t(1)).unwrap();
        assert!(migrated > 0);
        assert_eq!(fleet.broker_count(), 1);
        assert_eq!(fleet.migrations(), migrated as u64);

        // Results produced after the failover reach every subscriber.
        publish(&mut cluster, &mut fleet, 2, "fire");
        for handle in &handles {
            assert_ne!(fleet.broker_of(*handle).unwrap(), victim);
            let d = fleet.get_results(&mut cluster, *handle, t(3)).unwrap();
            assert_eq!(d.total_objects(), 1, "{handle} missed post-failover result");
        }
        // No dangling cluster subscriptions: survivors only.
        let survivor = fleet.brokers.values().next().unwrap();
        assert_eq!(
            cluster.subscription_count(),
            survivor.subscriptions().backend_count()
        );
    }

    #[test]
    fn failing_last_broker_errors_cleanly() {
        let mut cluster = DataCluster::new();
        cluster.create_dataset("Reports", Schema::open()).unwrap();
        cluster
            .register_channel(
                "channel ByKind(kind: string) from Reports r \
                 where r.kind == $kind select r",
            )
            .unwrap();
        let mut fleet = BrokerFleet::new(PolicyName::Lsc, BrokerConfig::default());
        let only = fleet.add_broker("solo");
        fleet
            .subscribe(
                &mut cluster,
                SubscriberId::new(1),
                "ByKind",
                params("fire"),
                t(0),
            )
            .unwrap();
        // With nowhere to migrate, the failover reports the problem.
        assert!(fleet.fail_broker(&mut cluster, only, t(1)).is_err());
    }

    #[test]
    fn unsubscribe_releases_bcs_assignment() {
        let (mut cluster, mut fleet) = setup();
        let alice = SubscriberId::new(1);
        let h1 = fleet
            .subscribe(&mut cluster, alice, "ByKind", params("fire"), t(0))
            .unwrap();
        let h2 = fleet
            .subscribe(&mut cluster, alice, "ByKind", params("flood"), t(0))
            .unwrap();
        // A repeated subscribe returns the held handle.
        let again = fleet
            .subscribe(&mut cluster, alice, "ByKind", params("flood"), t(0))
            .unwrap();
        assert_eq!(again, h2);
        assert!(fleet.bcs().assignment_of(alice).is_some());
        fleet.unsubscribe(&mut cluster, h1, t(1)).unwrap();
        // Still one live subscription: assignment retained.
        assert!(fleet.bcs().assignment_of(alice).is_some());
        fleet.unsubscribe(&mut cluster, h2, t(2)).unwrap();
        assert!(fleet.bcs().assignment_of(alice).is_none());
        assert!(fleet.unsubscribe(&mut cluster, h2, t(3)).is_err());
    }

    #[test]
    fn unknown_handles_and_brokers_error() {
        let (mut cluster, mut fleet) = setup();
        assert!(fleet
            .get_results(&mut cluster, FleetSubId(99), t(1))
            .is_err());
        assert!(fleet
            .fail_broker(&mut cluster, BrokerId::new(42), t(1))
            .is_err());
    }
}
