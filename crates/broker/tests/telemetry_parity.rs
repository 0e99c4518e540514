//! "Detached" means off, "attached" means exactly what it meant before.
//!
//! A broker built by `Broker::new` carries telemetry bundles whose
//! registry nobody holds, so their hooks return without counting. Two
//! things must follow, on a fixed tape that hits, misses, coalesces,
//! evicts, consumes and unsubscribes:
//!
//! * a broker attached to a registry — here with the null sink — reports
//!   the `bad_broker_*` / `bad_cache_*` values pinned below, which were
//!   read off the commit before the hooks learned to return early;
//! * the detached broker's deliveries, `CacheMetrics` and
//!   `DeliveryMetrics` equal the attached one's field for field.

// The cache crate's std-only generator, until ROADMAP item 1 promotes
// it to a shared dev crate.
#[path = "../../cache/tests/common/rng.rs"]
mod rng;

use bad_broker::{Broker, BrokerConfig, Delivery, DeliveryMetrics};
use bad_cache::{CacheMetrics, PolicyName};
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::Registry;
use bad_types::{ByteSize, DataValue, FrontendSubId, SubscriberId, Timestamp};
use rng::XorShift64;

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
}

/// Runs the fixed tape through `broker`: five pairs of subscribers over
/// six streams under a budget that keeps evicting. The two of a pair
/// hold the same streams and retrieve in the same instant — one
/// subscription at a time or everything pending at once — so where both
/// missed the same range the second rides the first one's fetch. Now
/// and then one of them goes alone, and a few subscriptions end.
fn run_tape(broker: &mut Broker) -> Outcome {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Posts", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
    let mut rng = XorShift64::new(0x7E1E);
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
                        DataValue::from("x".repeat(rng.range(20, 400) as usize)),
                    ),
                ]);
                for n in cluster.publish("Posts", now, post).unwrap() {
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

/// Read off the parent commit (`63fc305`), whose detached hooks still
/// counted and whose GET was `plan_get … ack_consume`.
const PARENT_SERIES: &str = r#"
    bad_broker_coalesced_fetches_total 29
    bad_broker_delivered_bytes_total 210136
    bad_broker_delivered_objects_total 903
    bad_broker_deliveries_total 462
    bad_broker_duplicate_bytes_saved_total 13658
    bad_broker_failovers_total 0
    bad_broker_migrated_subscriptions_total 0
    bad_broker_retrievals_total 522
    bad_cache_consumed_objects_total 82
    bad_cache_evicted_objects_total 139
    bad_cache_expired_objects_total 0
    bad_cache_hit_objects_total 697
    bad_cache_inserted_objects_total 233
    bad_cache_miss_objects_total 206
    bad_cache_ttl_retunes_total 0
    bad_cache_unsubscribed_objects_total 2
    bad_cache_occupancy_bytes 1911
    bad_broker_delivery_latency_us{quantile="0.5"} 262143
    bad_broker_delivery_latency_us{quantile="0.9"} 757531
    bad_broker_delivery_latency_us{quantile="0.99"} 757531
    bad_broker_delivery_latency_us_sum 155519625
    bad_broker_delivery_latency_us_count 462
    bad_broker_delivery_latency_us_max 757531
    bad_cache_holding_us{quantile="0.5"} 16777215
    bad_cache_holding_us{quantile="0.9"} 67000000
    bad_cache_holding_us{quantile="0.99"} 67000000
    bad_cache_holding_us_sum 4017000000
    bad_cache_holding_us_count 223
    bad_cache_holding_us_max 67000000
    bad_cache_object_bytes{quantile="0.5"} 255
    bad_cache_object_bytes{quantile="0.9"} 425
    bad_cache_object_bytes{quantile="0.99"} 425
    bad_cache_object_bytes_sum 55657
    bad_cache_object_bytes_count 233
    bad_cache_object_bytes_max 425
"#;

#[test]
fn attached_counts_as_before_and_detached_changes_no_outcome() {
    let registry = Registry::new();
    let mut attached = broker();
    attached.attach_telemetry(&registry, bad_telemetry::null_sink());
    let with_registry = run_tape(&mut attached);

    let got = series(&registry);
    let want: Vec<&str> = PARENT_SERIES.trim().lines().map(str::trim).collect();
    assert_eq!(got, want, "attached series moved:\n{}", got.join("\n"));

    // The tape did exercise every counter it pins.
    let m = &with_registry.cache;
    assert!(m.hit_objects > 0 && m.miss_objects > 0);
    assert!(m.evicted_objects > 0 && m.consumed_objects > 0 && m.unsubscribed_objects > 0);
    assert!(attached.coalesce_stats().coalesced_fetches > 0);

    let mut detached = broker();
    let without = run_tape(&mut detached);
    assert_eq!(without.deliveries, with_registry.deliveries);
    assert_eq!(without.cache, with_registry.cache);
    assert_eq!(without.delivery, with_registry.delivery);
}
