//! Owner cells lose nothing: two brokers attached to one registry and
//! driven on two threads at once write the same `bad_broker_*` and
//! `bad_cache_*` series, each through cells of its own, and the render
//! is exactly the sum of what each broker counted itself. The shared
//! profiler folds each thread's samples and sampled-op count on
//! `flush_thread`; after it, the sampled-op counter equals the number of
//! operations the threads finished. With more than one shard, that
//! includes each maintenance pass's budget rebalance.

use std::sync::Barrier;
use std::thread;

use bad_broker::{Broker, BrokerConfig, DeliveryMetrics};
use bad_cache::{CacheMetrics, PolicyName};
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::{ProfileConfig, Profiler, Registry, Tracer};
use bad_types::rng::Rng;
use bad_types::{ByteSize, DataValue, FrontendSubId, SubscriberId, Timestamp};

const STREAMS: u64 = 8;
const SUBSCRIBERS: u64 = 12;
const STEPS: u64 = 4_000;

/// What one broker counted itself.
struct Tally {
    delivery: DeliveryMetrics,
    cache: CacheMetrics,
    /// Profiled operations finished: inserts, single retrievals,
    /// batched retrievals and maintenance passes (one per shard, plus
    /// the rebalance when there are several).
    ops: u64,
}

fn run_broker(
    seed: u64,
    shards: usize,
    registry: &Registry,
    profiler: &Profiler,
    start: &Barrier,
) -> Tally {
    let mut cluster = DataCluster::new();
    cluster.create_dataset("Posts", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(6_000);
    config.shards = shards;
    let mut broker = Broker::new(PolicyName::Lsc, config);
    broker.attach_telemetry(registry, Tracer::disabled(), profiler.clone());

    let mut held: Vec<Vec<FrontendSubId>> = Vec::new();
    for s in 0..SUBSCRIBERS {
        let streams = (0..STREAMS).filter(|stream| (s + stream) % 3 != 0);
        let subs = streams.map(|stream| {
            let params = ParamBindings::from_pairs([("stream", DataValue::from(stream as i64))]);
            broker
                .subscribe(
                    &mut cluster,
                    SubscriberId::new(s),
                    "ByStream",
                    params,
                    Timestamp::ZERO,
                )
                .unwrap()
        });
        held.push(subs.collect());
    }

    // Both brokers run their tapes at the same time.
    start.wait();
    let mut rng = Rng::new(seed);
    let mut ops = 0;
    for step in 1..=STEPS {
        let now = Timestamp::from_secs(step);
        let post = DataValue::object([
            ("stream", DataValue::from(rng.below(STREAMS) as i64)),
            (
                "body",
                DataValue::from("x".repeat(rng.range(20, 300) as usize)),
            ),
        ]);
        for n in cluster.publish("Posts", now, post).unwrap() {
            ops += broker.on_notification(&mut cluster, n, now).fetched_objects;
        }
        let s = rng.below(SUBSCRIBERS);
        let subscriber = SubscriberId::new(s);
        match rng.below(8) {
            0..=3 => {
                let subs = &held[s as usize];
                let fs = subs[rng.below(subs.len() as u64) as usize];
                broker
                    .get_results(&mut cluster, subscriber, fs, now)
                    .unwrap();
            }
            4..=6 => {
                broker
                    .get_all_pending(&mut cluster, subscriber, now)
                    .unwrap();
            }
            _ => {
                broker.maintain(now);
                ops += shards as u64 + u64::from(shards > 1);
                continue;
            }
        }
        ops += 1;
    }
    profiler.flush_thread();
    Tally {
        delivery: broker.delivery_metrics(),
        cache: broker.cache().metrics(),
        ops,
    }
}

#[test]
fn two_brokers_on_two_threads_render_the_sum_of_their_books() {
    let registry = Registry::new();
    let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
    let start = Barrier::new(2);
    let tallies: Vec<Tally> = thread::scope(|scope| {
        let threads = [0xA1, 0xB2].map(|seed| {
            let (registry, profiler, start) = (&registry, &profiler, &start);
            scope.spawn(move || run_broker(seed, 1, registry, profiler, start))
        });
        threads.map(|handle| handle.join().unwrap()).into()
    });

    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    let text = registry.render();
    let value = |series: &str| value(&text, series);
    let expected = [
        (
            "bad_broker_retrievals_total",
            sum(|t| t.delivery.deliveries),
        ),
        (
            "bad_broker_deliveries_total",
            sum(|t| t.delivery.non_empty_deliveries),
        ),
        (
            "bad_broker_delivered_objects_total",
            sum(|t| t.delivery.delivered_objects),
        ),
        (
            "bad_broker_delivered_bytes_total",
            sum(|t| t.delivery.delivered_bytes.as_u64()),
        ),
        (
            "bad_broker_delivery_latency_us_count",
            sum(|t| t.delivery.non_empty_deliveries),
        ),
        (
            "bad_broker_delivery_latency_us_sum",
            sum(|t| t.delivery.total_latency.as_micros()),
        ),
        ("bad_cache_hit_objects_total", sum(|t| t.cache.hit_objects)),
        (
            "bad_cache_miss_objects_total",
            sum(|t| t.cache.miss_objects),
        ),
        (
            "bad_cache_inserted_objects_total",
            sum(|t| t.cache.inserted_objects),
        ),
        (
            "bad_cache_consumed_objects_total",
            sum(|t| t.cache.consumed_objects),
        ),
        (
            "bad_cache_evicted_objects_total",
            sum(|t| t.cache.evicted_objects),
        ),
        (
            "bad_cache_object_bytes_count",
            sum(|t| t.cache.inserted_objects),
        ),
        ("bad_profile_sampled_ops_total", sum(|t| t.ops)),
    ];
    for (series, want) in expected {
        assert_eq!(value(series), want, "{series}");
    }
    // The tape did run both brokers through every path it counts.
    for tally in &tallies {
        let m = &tally.cache;
        assert!(m.hit_objects > 0 && m.miss_objects > 0 && m.evicted_objects > 0);
        assert!(m.consumed_objects > 0);
    }

    assert_eq!(roots(&text), sum(|t| t.ops));
}

#[test]
fn a_sharded_maintenance_pass_finishes_its_rebalance() {
    let registry = Registry::new();
    let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });
    let tally = run_broker(0xC3, 4, &registry, &profiler, &Barrier::new(1));
    let text = registry.render();
    assert_eq!(value(&text, "bad_profile_sampled_ops_total"), tally.ops);
    assert_eq!(roots(&text), tally.ops);
    assert!(
        value(
            &text,
            "bad_profile_stage_ns_count{stage=\"maintain;rebalance\"}"
        ) > 0,
        "no rebalance sample in\n{text}"
    );
}

/// The value of `series` in a registry render.
fn value(text: &str, series: &str) -> u64 {
    let prefix = format!("{series} ");
    let line = text
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no {series} in\n{text}"));
    line[prefix.len()..].parse().unwrap()
}

/// Root envelopes closed: every finished operation closes one.
fn roots(text: &str) -> u64 {
    ["get_all_pending", "insert", "maintain"]
        .iter()
        .map(|root| {
            value(
                text,
                &format!("bad_profile_stage_ns_count{{stage=\"{root}\"}}"),
            )
        })
        .sum()
}
