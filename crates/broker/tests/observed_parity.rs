//! Cheaper observation must still be the same observation.
//!
//! A broker with every observer attached — a shared registry, a
//! `RingBufferSink`, a `Tracer` feeding a `FlightRecorder`, the default
//! `Profiler` and the default hot-key sketches — runs a fixed tape that
//! hits, misses, evicts, consumes, unsubscribes, retrieves both one
//! subscription at a time and everything pending at once, breaks the
//! delivery SLO and churns the Space-Saving slots (more backend
//! subscriptions than sketch capacity). What the observers then report
//! is digested and pinned:
//!
//! * `Registry::render()`, without the nanosecond-valued profiler
//!   samples (`bad_profile_stage_ns` and `bad_profile_lock_{wait,hold}_ns`
//!   quantiles, `_sum` and `_max`; their `_count` lines stay, and so do
//!   the sampled-op and lock-acquisition counters);
//! * the merged `/hot` body, `hot_snapshot().to_json()`;
//! * the flight recorder, `recorder().to_json()`;
//! * every event the sink received, as JSON, in order.
//!
//! The digests were taken on the commit before retrievals were recorded
//! in batches and owner-written metrics became owner cells. The tape is
//! unchanged since; the observers are wired through
//! `Broker::attach_telemetry`, and once more through the hidden
//! `attach_telemetry_profiled` forwarder that older callers still use.

use std::sync::Arc;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::PolicyName;
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::{
    FlightRecorder, ProfileConfig, Profiler, Registry, RingBufferSink, SharedSink, SharedTracer,
    SketchConfig, TraceConfig, Tracer,
};
use bad_types::rng::Rng;
use bad_types::{ByteSize, DataValue, FrontendSubId, SubscriberId, Timestamp};

/// More streams than the sketches' 64 slots, so the requests axis
/// replaces keys.
const STREAMS: u64 = 96;
const SUBSCRIBERS: u64 = 24;
const STEPS: u64 = 900;
/// Large enough that the ring never drops an event of the tape.
const EVENT_CAPACITY: usize = 1 << 18;

/// What the observers report at the end of the tape.
struct Observed {
    metrics: String,
    hot: String,
    recorder: String,
    events: Vec<String>,
    /// `(top requests entries with a nonzero error, delivery-SLO
    /// violations, hits, misses, evictions)` — evidence the tape
    /// exercised what it claims.
    coverage: (usize, u64, u64, u64, u64),
}

fn stream_params(stream: u64) -> ParamBindings {
    ParamBindings::from_pairs([("stream", DataValue::from(stream as i64))])
}

/// Whether a rendered line carries a nanosecond-valued profiler sample
/// (clock readings differ run to run; counts do not).
fn is_ns_sample(line: &str) -> bool {
    [
        "bad_profile_stage_ns",
        "bad_profile_lock_wait_ns",
        "bad_profile_lock_hold_ns",
    ]
    .iter()
    .any(|family| {
        line.strip_prefix(family)
            .is_some_and(|rest| !rest.starts_with("_count"))
    })
}

/// How a test wires the observers to the broker.
type Attach = fn(&mut Broker, &Registry, SharedSink, SharedTracer, Profiler);

fn run_tape(attach: Attach) -> Observed {
    let registry = Registry::new();
    let sink = Arc::new(RingBufferSink::new(EVENT_CAPACITY));
    let recorder = Arc::new(FlightRecorder::new(8, 128));
    let tracer = Tracer::new(&registry, sink.clone(), recorder, TraceConfig::default());
    let profiler = Profiler::new(&registry, ProfileConfig::default());

    let mut cluster = DataCluster::new();
    cluster.create_dataset("Posts", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
    cluster.set_event_sink(sink.clone());
    cluster.set_tracer(Arc::clone(&tracer));

    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(24_000);
    config.sketches = Some(SketchConfig::default());
    let mut broker = Broker::new(PolicyName::Lsc, config);
    attach(
        &mut broker,
        &registry,
        sink.clone(),
        Arc::clone(&tracer),
        profiler,
    );

    let mut held: Vec<Vec<FrontendSubId>> = vec![Vec::new(); SUBSCRIBERS as usize];
    for s in 0..SUBSCRIBERS {
        for stream in 0..STREAMS {
            if stream == s || (s * 7 + stream) % 9 == 0 {
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

    let mut rng = Rng::new(0x0B5E_7A11);
    for step in 1..=STEPS {
        let now = Timestamp::from_secs(step);
        // Two posts a step, on streams drawn from the whole range.
        for _ in 0..2 {
            let stream = rng.below(STREAMS);
            let post = DataValue::object([
                ("stream", DataValue::from(stream as i64)),
                (
                    "body",
                    DataValue::from("x".repeat(rng.range(40, 400) as usize)),
                ),
            ]);
            for n in cluster.publish("Posts", now, post).unwrap() {
                broker.on_notification(&mut cluster, n, now);
            }
        }
        let s = rng.below(SUBSCRIBERS);
        let subscriber = SubscriberId::new(s);
        match rng.below(10) {
            0..=4 => {
                let subs = &held[s as usize];
                if !subs.is_empty() {
                    let fs = subs[rng.below(subs.len() as u64) as usize];
                    broker
                        .get_results(&mut cluster, subscriber, fs, now)
                        .unwrap();
                }
            }
            5..=7 => {
                broker
                    .get_all_pending(&mut cluster, subscriber, now)
                    .unwrap();
            }
            8 => {
                if step.is_multiple_of(7) {
                    if let Some(fs) = held[s as usize].pop() {
                        broker
                            .unsubscribe(&mut cluster, subscriber, fs, now)
                            .unwrap();
                    }
                }
            }
            _ => broker.maintain(now),
        }
    }
    // Maintenance also folds this thread's profiler samples, so the
    // render below sees every finished operation.
    broker.maintain(Timestamp::from_secs(STEPS + 1));

    let metrics: String = registry
        .render()
        .lines()
        .filter(|line| !is_ns_sample(line))
        .map(|line| format!("{line}\n"))
        .collect();
    let hot = broker.cache().hot_snapshot().expect("sketches enabled");
    let events: Vec<String> = sink.events().iter().map(|e| e.to_json()).collect();
    assert!(events.len() < EVENT_CAPACITY, "the event ring wrapped");
    let counter = |name: &str| registry.counter(name).get();
    let m = broker.cache().metrics();
    Observed {
        metrics,
        hot: hot.to_json(),
        recorder: tracer.recorder().to_json(),
        events,
        coverage: (
            hot.top_requests(64)
                .iter()
                .filter(|(_, e)| e.err > 0)
                .count(),
            counter("bad_delivery_latency_slo_violations_total"),
            m.hit_objects,
            m.miss_objects,
            m.evicted_objects,
        ),
    }
}

/// FNV-1a, 64 bit: stable across platforms and toolchains.
fn fnv1a(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &byte in part.as_ref() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separate parts, so ["ab", "c"] and ["a", "bc"] differ.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(metrics, hot, recorder, events)` digests and the event count, as
/// first taken on the commit before batched recording.
const PARENT_DIGESTS: (u64, u64, u64, u64, usize) = (
    0xadb3_9105_fc2a_0aad,
    0x0a6c_c1ef_7e3b_37c2,
    0x2d9b_6d2e_faba_6944,
    0x988e_5ec3_13eb_0c27,
    23_548,
);

#[test]
fn every_observer_reports_what_it_reported_before() {
    assert_parent_digests(run_tape(Broker::attach_telemetry));
}

#[test]
fn the_profiled_forwarder_wires_the_same_observers() {
    assert_parent_digests(run_tape(Broker::attach_telemetry_profiled));
}

fn assert_parent_digests(observed: Observed) {
    let (churned, slo_violations, hits, misses, evictions) = observed.coverage;
    assert!(churned > 0, "no Space-Saving slot was ever replaced");
    assert!(slo_violations > 0, "no delivery broke the SLO");
    assert!(hits > 0 && misses > 0 && evictions > 0);
    assert!(observed.metrics.contains("bad_profile_sampled_ops_total "));
    assert!(observed.metrics.contains("bad_profile_stage_ns_count{"));

    let got = (
        fnv1a([&observed.metrics]),
        fnv1a([&observed.hot]),
        fnv1a([&observed.recorder]),
        fnv1a(&observed.events),
        observed.events.len(),
    );
    assert_eq!(
        got, PARENT_DIGESTS,
        "observers report differently; metrics:\n{}",
        observed.metrics
    );
}
