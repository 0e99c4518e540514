//! The Fig. 7 replay: [`run_prototype`] drives the Section VI trace
//! through a [`Deployment`] of the full stack on [`Exec::seeded`]; "for
//! each setting, we provide the same trace to all competing caching
//! schemes".

use std::collections::{HashMap, HashSet, VecDeque};

use bad_broker::{BrokerConfig, Observability};
use bad_cache::{CacheConfig, PolicyName};
use bad_cluster::{DataCluster, EnrichmentRule};
use bad_storage::Schema;
use bad_types::{ByteSize, Result, SimDuration, SubscriberId, Timestamp};
use bad_workload::{ActivityKind, TraceConfig, TraceGenerator, TABLE_III_CHANNELS};

use crate::exec::Exec;
use crate::runtime::Deployment;

/// The repetitive channels' execution tick.
const CLUSTER_TICK: SimDuration = SimDuration::from_secs(5);

/// The broker's cache maintenance period.
const MAINTAIN_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Configuration of a prototype run.
#[derive(Clone, Debug)]
pub struct PrototypeConfig {
    /// Trace generation parameters (subscribers, churn, publications).
    pub trace: TraceConfig,
    /// Cache settings; `cache.budget` is the swept quantity of Fig. 7.
    pub cache: CacheConfig,
}

impl PrototypeConfig {
    /// The Section VI setup: 400 subscribers, ~3k frontend
    /// subscriptions, a 1 h trace, publications every ~10 s.
    pub fn section_vi() -> Self {
        Self {
            trace: TraceConfig::default(),
            cache: CacheConfig {
                budget: ByteSize::from_kib(100),
                ..CacheConfig::default()
            },
        }
    }

    /// A small configuration for tests and doc examples.
    pub fn smoke() -> Self {
        Self {
            trace: TraceConfig {
                subscribers: 25,
                subscriptions_per_subscriber: 4,
                duration: SimDuration::from_mins(10),
                publish_interval: SimDuration::from_secs(5),
                ..TraceConfig::default()
            },
            cache: CacheConfig {
                budget: ByteSize::from_kib(64),
                ..CacheConfig::default()
            },
        }
    }

    /// Returns a copy with a different cache budget (the Fig. 7 sweep).
    pub fn with_budget(&self, budget: ByteSize) -> Self {
        let mut out = self.clone();
        out.cache.budget = budget;
        out
    }
}

/// Measurements of one prototype run (the Fig. 7 quantities).
#[derive(Clone, Debug, PartialEq)]
pub struct PrototypeReport {
    /// Caching policy.
    pub policy: PolicyName,
    /// Configured budget.
    pub cache_budget: ByteSize,
    /// Seed of the trace.
    pub seed: u64,
    /// Hit ratio (Fig. 7, left).
    pub hit_ratio: f64,
    /// Mean subscriber latency over non-empty retrievals (Fig. 7,
    /// middle): the broker's per-delivery latency plus `mean_wait`.
    pub mean_latency: SimDuration,
    /// How late a non-empty retrieval was issued, on average: its wait
    /// behind the broker node (see [`run_prototype`]).
    pub mean_wait: SimDuration,
    /// Bytes retrieved from the data cluster (Fig. 7, right).
    pub fetched_bytes: ByteSize,
    /// Total result bytes the cluster produced.
    pub vol_bytes: ByteSize,
    /// Distinct frontend subscriptions the broker created over the run
    /// (a repeated interest reuses the subscriber's frontend).
    pub frontend_subscriptions: u64,
    /// Peak backend subscriptions.
    pub backend_subscriptions: u64,
    /// Retrievals served.
    pub deliveries: u64,
    /// Objects delivered.
    pub delivered_objects: u64,
    /// Publications ingested.
    pub publications: u64,
}

/// Builds the Section VI cluster: datasets, Table III channels and the
/// shelter enrichment.
///
/// # Errors
///
/// Only on programming errors in the built-in channel sources.
pub fn build_emergency_cluster() -> Result<DataCluster> {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("EmergencyReports", Schema::open())?;
    cluster.create_dataset("Shelters", Schema::open())?;
    cluster.create_dataset("UserLocations", Schema::open())?;
    for bql in TABLE_III_CHANNELS {
        cluster.register_channel(bql)?;
    }
    // Enriched notifications: district alerts embed the district's
    // shelters; severe alerts embed shelters of the report's district.
    for channel in ["DistrictEmergencies", "SevereEmergencies"] {
        let shelters =
            EnrichmentRule::join(channel, "Shelters", "district", "district", "shelters", 3);
        cluster.add_enrichment(shelters)?;
    }
    Ok(cluster)
}

/// Replays the seeded trace through a fresh deployment on
/// [`Exec::seeded`]`(seed)` under `policy` and reports the Fig. 7
/// measurements. The calling thread is the one replay actor: it issues
/// each activity, tick, maintenance pass and retrieval in due order, at
/// its due virtual time or later if the broker node (one call at a
/// time, a round trip slept per miss and pull-in) held it up. Records and
/// ticks carry their due times, so every scheme gets the same cluster
/// output and is offered the same retrievals: one `notify_latency`
/// after each tick's push to an online subscriber, issued if the
/// subscriber is still online and the frontend live, served if results
/// are owed. Nothing due at or after the trace's end is issued.
///
/// # Errors
///
/// Propagates trace generation and subscription errors.
pub fn run_prototype(
    policy: PolicyName,
    config: &PrototypeConfig,
    seed: u64,
) -> Result<PrototypeReport> {
    let trace = TraceGenerator::new(config.trace.clone(), seed).generate()?;
    let exec = Exec::seeded(seed);
    let broker = BrokerConfig {
        cache: config.cache,
        ..BrokerConfig::default()
    };
    let notify_latency = broker.net.notify_latency();
    let cluster = build_emergency_cluster()?;
    let dep = Deployment::start(
        policy,
        broker,
        cluster,
        exec.clone(),
        Observability::detached(),
    );

    // One client per subscriber (the generator numbers them from 0),
    // all pushing to the replay actor.
    let (events_tx, events) = exec.channel();
    let clients: Vec<_> = (0..config.trace.subscribers)
        .map(|s| dep.client(SubscriberId::new(s), &events_tx))
        .collect();
    let client = |sub: &SubscriberId| &clients[sub.as_u64() as usize];
    let mut online = HashSet::new();
    let mut live = HashSet::new();
    let mut handles = HashMap::new();
    let mut retrievals = VecDeque::new();
    let mut frontend_subscriptions = 0u64;
    let mut activities = trace.iter().peekable();
    let mut tick_at = Timestamp::ZERO + CLUSTER_TICK;
    let mut maintain_at = Timestamp::ZERO + MAINTAIN_INTERVAL;
    let end = Timestamp::ZERO + config.trace.duration;
    // How late the non-empty retrievals were issued, summed.
    let mut late_total = SimDuration::ZERO;
    loop {
        let activity_at = activities.peek().map_or(Timestamp::MAX, |a| a.at);
        let retrieval_at = retrievals.front().map_or(Timestamp::MAX, |&(at, _, _)| at);
        let due = activity_at.min(tick_at).min(maintain_at).min(retrieval_at);
        if due >= end {
            break;
        }
        exec.sleep(due.since(exec.now()));
        let late = exec.now().since(due);
        if due == activity_at {
            match &activities.next().expect("peeked").kind {
                ActivityKind::Login(sub) => {
                    online.insert(*sub);
                    let served = client(sub).get_all_pending(due)?.into_iter();
                    late_total += late * served.filter(|d| d.total_objects() > 0).count() as u64;
                }
                ActivityKind::Logout(sub) => {
                    online.remove(sub);
                }
                ActivityKind::Subscribe {
                    subscriber,
                    channel,
                    params,
                    handle,
                } => {
                    // A repeated interest returns the frontend the
                    // subscriber already holds.
                    let fs = client(subscriber).subscribe(channel, params.clone(), due)?;
                    frontend_subscriptions += u64::from(live.insert(fs));
                    handles.insert(*handle, fs);
                }
                ActivityKind::Unsubscribe { subscriber, handle } => {
                    // Two handles on one frontend: the first takes it.
                    if let Some(fs) = handles.remove(handle).filter(|fs| live.remove(fs)) {
                        client(subscriber).unsubscribe(fs, due)?;
                    }
                }
                // Table III channels are repetitive; publications
                // surface at the next cluster tick.
                ActivityKind::PublishReport(record) => {
                    dep.publish("EmergencyReports", due, record.clone())?;
                }
                ActivityKind::PublishShelter(record) => {
                    dep.publish("Shelters", due, record.clone())?;
                }
            }
        } else if due == tick_at {
            // Returns after the tick's notifications: their pushes are in.
            dep.tick(due)?;
            while let Some(push) = events.recv_timeout(SimDuration::ZERO) {
                if online.contains(&push.subscriber) {
                    retrievals.push_back((due + notify_latency, push.subscriber, push.frontend));
                }
            }
            tick_at += CLUSTER_TICK;
        } else if due == maintain_at {
            dep.maintain(due);
            maintain_at += MAINTAIN_INTERVAL;
        } else {
            let (_, sub, fs) = retrievals.pop_front().expect("a retrieval is due");
            if online.contains(&sub) && live.contains(&fs) {
                let served = client(&sub).get_results(fs, due)?;
                if served.is_some_and(|d| d.total_objects() > 0) {
                    late_total += late;
                }
            }
        }
    }

    let broker = dep.broker_stats()?;
    let non_empty = broker.delivery.non_empty_deliveries.max(1);
    let cluster = dep.cluster_stats()?;
    Ok(PrototypeReport {
        policy,
        cache_budget: config.cache.budget,
        seed,
        hit_ratio: broker.cache.hit_ratio().unwrap_or(0.0),
        mean_latency: (broker.delivery.total_latency + late_total) / non_empty,
        mean_wait: late_total / non_empty,
        fetched_bytes: broker.cache.fetched_bytes(),
        vol_bytes: cluster.result_bytes,
        frontend_subscriptions,
        backend_subscriptions: broker.peak_backends,
        deliveries: broker.delivery.deliveries,
        delivered_objects: broker.delivery.delivered_objects,
        publications: cluster.publications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_completes_with_activity() {
        let config = PrototypeConfig::smoke();
        let report = run_prototype(PolicyName::Lsc, &config, 1).unwrap();
        assert!(report.publications > 0);
        assert!(report.frontend_subscriptions > 0);
        assert!(report.backend_subscriptions > 0);
        assert!(report.deliveries > 0, "no deliveries happened");
        assert!(report.delivered_objects > 0);
        assert!((0.0..=1.0).contains(&report.hit_ratio));
    }

    #[test]
    fn merging_keeps_backends_below_frontends() {
        let config = PrototypeConfig::smoke();
        let report = run_prototype(PolicyName::Lsc, &config, 2).unwrap();
        assert!(
            report.backend_subscriptions < report.frontend_subscriptions,
            "no merging happened: {} backends vs {} frontends",
            report.backend_subscriptions,
            report.frontend_subscriptions
        );
    }

    #[test]
    fn same_seed_same_report() {
        let config = PrototypeConfig::smoke();
        let a = run_prototype(PolicyName::Ttl, &config, 3).unwrap();
        let b = run_prototype(PolicyName::Ttl, &config, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nc_baseline_is_strictly_worse_on_latency() {
        let config = PrototypeConfig::smoke();
        let cached = run_prototype(PolicyName::Lsc, &config, 4).unwrap();
        let nc = run_prototype(PolicyName::Nc, &config, 4).unwrap();
        assert_eq!(nc.hit_ratio, 0.0);
        assert!(cached.hit_ratio > 0.0);
        assert!(
            cached.mean_latency < nc.mean_latency,
            "cached {} !< nc {}",
            cached.mean_latency,
            nc.mean_latency
        );
    }
}
