//! "Detached" means off, "attached" means exactly what it meant before.
//!
//! A broker built by `Broker::new` carries telemetry bundles whose
//! registry nobody holds, so their hooks return without counting. Two
//! things must follow, on a fixed tape that hits, misses (pairs miss the
//! same range), evicts, consumes and unsubscribes:
//!
//! * a broker attached to a registry — here with the disabled tracer —
//!   reports the `bad_broker_*` / `bad_cache_*` values pinned below
//!   (first read off the commit before the hooks learned to return
//!   early, then re-derived on the `bad_types::rng` tape with the code
//!   under test unchanged);
//! * the detached broker's deliveries, `CacheMetrics` and
//!   `DeliveryMetrics` equal the attached one's field for field.

use std::collections::HashSet;

use bad_broker::{Broker, BrokerConfig, ClusterHandle, Delivery, DeliveryMetrics};
use bad_cache::{CacheMetrics, PolicyName};
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::{ResultObject, Schema};
use bad_telemetry::Registry;
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, DataValue, FrontendSubId, Result, SubscriberId, TimeRange, Timestamp,
};

const STREAMS: u64 = 6;
const SUBSCRIBERS: u64 = 10;
const STEPS: u64 = 600;

fn stream_params(stream: u64) -> ParamBindings {
    ParamBindings::from_pairs([("stream", DataValue::from(stream as i64))])
}

/// Everything the tape makes a broker report.
struct Outcome {
    deliveries: Vec<Delivery>,
    cache: CacheMetrics,
    delivery: DeliveryMetrics,
    /// Every range the broker fetched from the cluster, in order.
    fetched: Vec<(BackendSubId, TimeRange)>,
}

/// The in-process cluster, logging every range fetched from it.
struct LoggedCluster {
    inner: DataCluster,
    fetched: Vec<(BackendSubId, TimeRange)>,
}

impl ClusterHandle for LoggedCluster {
    fn cluster_subscribe(
        &mut self,
        channel: &str,
        params: ParamBindings,
        now: Timestamp,
    ) -> Result<BackendSubId> {
        self.inner.subscribe(channel, params, now)
    }

    fn cluster_unsubscribe(&mut self, bs: BackendSubId) -> Result<()> {
        self.inner.unsubscribe(bs)
    }

    fn cluster_fetch(&mut self, bs: BackendSubId, range: TimeRange) -> Vec<ResultObject> {
        self.fetched.push((bs, range));
        self.inner.fetch(bs, range)
    }
}

/// Runs the fixed tape through `broker`: five pairs of subscribers over
/// six streams under a budget that keeps evicting. The two of a pair
/// hold the same streams and retrieve in the same instant — one
/// subscription at a time or everything pending at once — so where both
/// missed the same range each fetches it from the cluster. Now and then
/// one of them goes alone, and a few subscriptions end.
fn run_tape(broker: &mut Broker) -> Outcome {
    let mut inner = DataCluster::new();
    inner.create_dataset("Posts", Schema::open()).unwrap();
    inner
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
    let mut cluster = LoggedCluster {
        inner,
        fetched: Vec::new(),
    };
    let mut rng = Rng::new(0x7E1E);
    let mut held: Vec<Vec<FrontendSubId>> = vec![Vec::new(); SUBSCRIBERS as usize];
    for s in 0..SUBSCRIBERS {
        for stream in 0..STREAMS {
            if stream == 0 || (s / 2 + stream) % 2 == 0 {
                let fs = broker
                    .subscribe(
                        &mut cluster,
                        SubscriberId::new(s),
                        "ByStream",
                        stream_params(stream),
                        Timestamp::ZERO,
                    )
                    .unwrap();
                held[s as usize].push(fs);
            }
        }
    }
    // A loner on a stream of its own, who never retrieves and comes
    // and goes: its leaving tears the cache down with objects in it.
    let loner = SubscriberId::new(99);
    let mut loner_fs = None;
    let mut deliveries = Vec::new();
    for step in 1..=STEPS {
        let now = Timestamp::from_secs(step);
        if step % 50 == 1 {
            loner_fs = match loner_fs.take() {
                Some(fs) => {
                    broker.unsubscribe(&mut cluster, loner, fs, now).unwrap();
                    None
                }
                None => Some(
                    broker
                        .subscribe(&mut cluster, loner, "ByStream", stream_params(STREAMS), now)
                        .unwrap(),
                ),
            };
        }
        let pair = 2 * rng.below(SUBSCRIBERS / 2);
        match rng.below(10) {
            0..=3 => {
                let stream = rng.below(STREAMS + 1);
                let post = DataValue::object([
                    ("stream", DataValue::from(stream as i64)),
                    (
                        "body",
                        DataValue::from("x".repeat(rng.range(20, 399) as usize)),
                    ),
                ]);
                for n in cluster.inner.publish("Posts", now, post).unwrap() {
                    broker.on_notification(&mut cluster, n, now);
                }
            }
            4..=6 => {
                // Every fourth time the first of the pair goes alone,
                // so the second falls behind on that stream.
                let pick = rng.below(STREAMS) as usize;
                let together = !step.is_multiple_of(4);
                for s in (pair..=pair + u64::from(together)).rev() {
                    if let Some(&fs) = held[s as usize].get(pick) {
                        let s = SubscriberId::new(s);
                        deliveries.push(broker.get_results(&mut cluster, s, fs, now).unwrap());
                    }
                }
            }
            7..=8 => {
                for s in [pair, pair + 1] {
                    let s = SubscriberId::new(s);
                    deliveries.extend(broker.get_all_pending(&mut cluster, s, now).unwrap());
                }
            }
            _ => {
                if step.is_multiple_of(3) {
                    // The laggard leaves: what only it was owed drops.
                    let s = pair + 1;
                    if let Some(fs) = held[s as usize].pop() {
                        broker
                            .unsubscribe(&mut cluster, SubscriberId::new(s), fs, now)
                            .unwrap();
                    }
                }
                broker.maintain(now);
            }
        }
    }
    Outcome {
        deliveries,
        cache: broker.cache().metrics(),
        delivery: broker.delivery_metrics(),
        fetched: cluster.fetched,
    }
}

fn broker() -> Broker {
    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(2_000);
    Broker::new(PolicyName::Lsc, config)
}

/// The `bad_broker_*` / `bad_cache_*` series of a rendered registry,
/// histogram buckets left out.
fn series(registry: &Registry) -> Vec<String> {
    registry
        .render()
        .lines()
        .filter(|l| l.starts_with("bad_broker_") || l.starts_with("bad_cache_"))
        .filter(|l| !l.contains("_bucket{"))
        .map(str::to_owned)
        .collect()
}

/// The series this tape makes an attached broker report. First read off
/// commit `63fc305` (detached hooks still counting, GET `plan_get …
/// ack_consume`) on the older xorshift tape; re-derived when the tape
/// moved to `bad_types::rng`, on broker and cache code that move did not
/// touch — the code that matched `63fc305` on the older tape. Re-derived
/// once more when the fetch coalescer went: its two counters left, and
/// `delivery_latency_us_sum` rose by 1 500 347 µs. Two `get_all_pending`
/// batches, of one and two missed ranges, had been served whole from the
/// coalescer's buffer and so paid no cluster leg; now each of their three
/// deliveries pays the batch's 500-ms RTT plus the transfer of its
/// batch's bytes (320 + 2 × 1 653). Every other line is unchanged.
/// When the broker fleet went, its two counters (failovers and migrated
/// subscriptions, both 0 here) left with it; every other line is
/// byte-identical.
const PARENT_SERIES: &str = r#"
    bad_broker_delivered_bytes_total 133808
    bad_broker_delivered_objects_total 601
    bad_broker_deliveries_total 330
    bad_broker_retrievals_total 395
    bad_cache_consumed_objects_total 98
    bad_cache_evicted_objects_total 77
    bad_cache_expired_objects_total 0
    bad_cache_hit_objects_total 517
    bad_cache_inserted_objects_total 191
    bad_cache_miss_objects_total 84
    bad_cache_ttl_retunes_total 0
    bad_cache_unsubscribed_objects_total 7
    bad_cache_occupancy_bytes 1734
    bad_broker_delivery_latency_us{quantile="0.5"} 262143
    bad_broker_delivery_latency_us{quantile="0.9"} 756709
    bad_broker_delivery_latency_us{quantile="0.99"} 756709
    bad_broker_delivery_latency_us_sum 106281790
    bad_broker_delivery_latency_us_count 330
    bad_broker_delivery_latency_us_max 756709
    bad_cache_holding_us{quantile="0.5"} 33554431
    bad_cache_holding_us{quantile="0.9"} 63000000
    bad_cache_holding_us{quantile="0.99"} 63000000
    bad_cache_holding_us_sum 3639000000
    bad_cache_holding_us_count 182
    bad_cache_holding_us_max 63000000
    bad_cache_object_bytes{quantile="0.5"} 255
    bad_cache_object_bytes{quantile="0.9"} 427
    bad_cache_object_bytes{quantile="0.99"} 427
    bad_cache_object_bytes_sum 43817
    bad_cache_object_bytes_count 191
    bad_cache_object_bytes_max 427
"#;

#[test]
fn attached_counts_as_before_and_detached_changes_no_outcome() {
    let registry = Registry::new();
    let mut attached = broker();
    attached.attach_telemetry(
        &registry,
        bad_telemetry::Tracer::disabled(),
        bad_telemetry::Profiler::disabled(),
    );
    let with_registry = run_tape(&mut attached);

    let got = series(&registry);
    let want: Vec<&str> = PARENT_SERIES.trim().lines().map(str::trim).collect();
    assert_eq!(got, want, "attached series moved:\n{}", got.join("\n"));

    // The tape did exercise every counter it pins.
    let m = &with_registry.cache;
    assert!(m.hit_objects > 0 && m.miss_objects > 0);
    assert!(m.evicted_objects > 0 && m.consumed_objects > 0 && m.unsubscribed_objects > 0);
    // Pairs miss the same range, and each of the two fetches it.
    let mut ranges = HashSet::new();
    assert!(with_registry.fetched.iter().any(|f| !ranges.insert(*f)));

    let mut detached = broker();
    let without = run_tape(&mut detached);
    assert_eq!(without.deliveries, with_registry.deliveries);
    assert_eq!(without.cache, with_registry.cache);
    assert_eq!(without.delivery, with_registry.delivery);
}
