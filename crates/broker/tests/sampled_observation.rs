//! Sampled observation is a sample of full observation, and every count
//! stays exact but those the hot-key skew feeds.
//!
//! The observers' defaults sample: the tracer keeps the span records of
//! one trace id in 64, the profiler times one op in 64 per thread, and
//! the hot-key sketches record one update in 16, weighted by 16. A
//! reduced form of `observed_parity`'s tape runs twice through the
//! bundle an observed deployment ships ([`Observability::full_with`],
//! health engine included, checked after each maintenance pass) — once
//! at those defaults and once with every observer at every op — and
//! the runs are compared:
//!
//! * **Registry.** Every rendered line is equal between the runs, but
//!   for the profiler's sampled series (stage timings, lock hold times,
//!   the sampled-op counter), the nanosecond values of lock waits, and
//!   what the health engine reads off the sampled sketches: the hot-key
//!   skew gauge and, through the `hot_skew` alert rule, the alert
//!   series. Every counter, histogram count and sum, and SLO-violation
//!   count is among the lines compared, and the alert transitions of
//!   every other rule are equal.
//! * **Trace.** The sink holds exactly the spans, and the
//!   `broker.retrieve` summaries, of sampled trace ids — in the order
//!   the every-op run wrote them — the sampled run's flight recorder
//!   holds the sink's spans, and each sampled lifecycle is whole. The
//!   sink's other records are equal too, but for `hot_skew`'s alert
//!   transitions.
//! * **Profiler.** Lock-site acquisitions and contentions are equal; the
//!   op envelopes add up to the sampled-op count, which is one op in 64
//!   of the every-op run's.
//!
//! A last test holds the sketches at their default to the Zipf(1.0)
//! accuracy bars `sketch_merge` holds the every-op sketches to.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::thread;

use bad_broker::{Broker, BrokerConfig, Observability};
use bad_cache::PolicyName;
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::{
    Event, FlightRecorder, HotSnapshot, ProfileConfig, Registry, RingBufferSink, SharedTracer,
    SketchConfig, SketchRecorder, Span, SpanKind, StagePath, TraceConfig, TraceId, Tracer,
};
use bad_types::rng::{Rng, Zipf};
use bad_types::{ByteSize, DataValue, FrontendSubId, SubscriberId, Timestamp};

/// More streams than the sketches' 64 slots, so the requests axis
/// replaces keys.
const STREAMS: u64 = 96;
/// Subscribers with the ids `0..PLAIN_SUBSCRIBERS`, beside the
/// [`sampled_subscribers`].
const PLAIN_SUBSCRIBERS: u64 = 16;
const STEPS: u64 = 600;
/// Large enough that the event ring drops no record.
const CAPACITY: usize = 1 << 15;
/// The defaults' sampling periods.
const TRACE_N: u64 = 64;
const PROFILE_N: u32 = 64;
const SKETCH_N: u32 = 16;

/// Four subscriber ids whose trace ids the default tracer samples, so
/// the tape has retrieval summaries to keep.
fn sampled_subscribers() -> Vec<u64> {
    (PLAIN_SUBSCRIBERS..)
        .filter(|&s| is_sampled_trace(TraceId::for_object(s)))
        .take(4)
        .collect()
}

/// Whether a tracer at the default sampling keeps `trace`.
fn is_sampled_trace(trace: TraceId) -> bool {
    static DEFAULT: OnceLock<SharedTracer> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            Tracer::new(
                &Registry::new(),
                bad_telemetry::null_sink(),
                Arc::new(FlightRecorder::new(1, 1)),
                TraceConfig::default(),
            )
        })
        .sampled(trace)
}

/// What the observers hold at the end of one run.
struct Run {
    /// `Registry::render()`, less the lines sampling may change.
    exact_lines: Vec<String>,
    events: Vec<Event>,
    recorded: Vec<Span>,
    /// Slots the flight recorder claimed.
    recorder_claims: u64,
    /// `bad_health_alert_transitions_total`.
    alert_transitions: u64,
    /// `(site, acquisitions, contentions)` of every lock site.
    locks: Vec<(String, u64, u64)>,
    /// Count of every stage histogram, by stage name.
    stages: BTreeMap<&'static str, u64>,
    sampled_ops: u64,
    sketch_sampling: u32,
}

/// Whether a rendered line is one that sampling changes: a profiler
/// series fed by timed ops only, a nanosecond clock reading, or a
/// health series fed by the skew of the sampled sketches.
fn is_sampled(line: &str) -> bool {
    [
        "bad_profile_stage_ns",
        "bad_profile_lock_hold_ns",
        "bad_profile_sampled_ops_total",
        "bad_health_hot_skew_milli",
        "bad_health_alert_transitions_total",
        "bad_health_alerts_firing",
        "bad_health_alerts_pending",
    ]
    .iter()
    .any(|family| line.starts_with(family))
        || line
            .strip_prefix("bad_profile_lock_wait_ns")
            .is_some_and(|rest| !rest.starts_with("_count"))
}

fn stream_params(stream: u64) -> ParamBindings {
    ParamBindings::from_pairs([("stream", DataValue::from(stream as i64))])
}

/// Runs the tape on a thread of its own, so the profiler's per-thread
/// op cycle starts at its first op.
fn run(trace: TraceConfig, profile: ProfileConfig, sketches: SketchConfig) -> Run {
    thread::spawn(move || run_here(trace, profile, sketches))
        .join()
        .expect("the tape runs")
}

fn run_here(trace: TraceConfig, profile: ProfileConfig, sketches: SketchConfig) -> Run {
    let sink = Arc::new(RingBufferSink::new(CAPACITY));
    let obs = Observability::full_with(sink.clone(), trace, profile);

    let mut cluster = DataCluster::new();
    cluster.create_dataset("Posts", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();

    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(24_000);
    config.sketches = Some(sketches);
    let mut broker = Broker::new(PolicyName::Lsc, config);
    obs.attach(&mut cluster, &mut broker);
    let maintain = |broker: &mut Broker, now: Timestamp| {
        broker.maintain(now);
        obs.after_maintain(broker.cache(), now);
    };

    let subscribers: Vec<u64> = (0..PLAIN_SUBSCRIBERS)
        .chain(sampled_subscribers())
        .collect();
    let mut held: Vec<Vec<FrontendSubId>> = vec![Vec::new(); subscribers.len()];
    for (i, &s) in subscribers.iter().enumerate() {
        for stream in 0..STREAMS {
            if stream == s % STREAMS || (s * 7 + stream) % 9 == 0 {
                let fs = broker
                    .subscribe(
                        &mut cluster,
                        SubscriberId::new(s),
                        "ByStream",
                        stream_params(stream),
                        Timestamp::ZERO,
                    )
                    .unwrap();
                held[i].push(fs);
            }
        }
    }

    let mut rng = Rng::new(0x5A3F_1ED0);
    for step in 1..=STEPS {
        let now = Timestamp::from_secs(step);
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
        let i = rng.below(subscribers.len() as u64) as usize;
        let subscriber = SubscriberId::new(subscribers[i]);
        match rng.below(10) {
            0..=4 => {
                let subs = &held[i];
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
                    if let Some(fs) = held[i].pop() {
                        broker
                            .unsubscribe(&mut cluster, subscriber, fs, now)
                            .unwrap();
                    }
                }
            }
            _ => maintain(&mut broker, now),
        }
    }
    maintain(&mut broker, Timestamp::from_secs(STEPS + 1));
    obs.profiler().flush_thread();

    let registry = obs.registry();
    let recorder = obs.tracer().recorder();
    let events = sink.events();
    assert!(events.len() < CAPACITY, "the event ring wrapped");
    assert!(
        registry.counter("bad_health_windows_total").get() > 0,
        "the health engine never ticked"
    );
    let exact_lines = registry
        .render()
        .lines()
        .filter(|line| !is_sampled(line))
        .map(str::to_owned)
        .collect();
    let locks = obs
        .profiler()
        .lock_sites()
        .iter()
        .map(|site| {
            (
                site.name().to_owned(),
                site.acquisitions(),
                site.contentions(),
            )
        })
        .collect();
    let stages = StagePath::ALL
        .iter()
        .map(|path| {
            let histogram =
                registry.histogram_with("bad_profile_stage_ns", &[("stage", path.name())]);
            (path.name(), histogram.count())
        })
        .collect();
    Run {
        exact_lines,
        events,
        recorded: recorder.recent(),
        recorder_claims: recorder.claims(),
        alert_transitions: registry.counter("bad_health_alert_transitions_total").get(),
        locks,
        stages,
        sampled_ops: registry.counter("bad_profile_sampled_ops_total").get(),
        sketch_sampling: broker
            .cache()
            .hot_snapshot()
            .expect("sketches enabled")
            .sample_every_n(),
    }
}

fn every_op() -> Run {
    run(
        TraceConfig {
            trace_sample_every_n: 1,
            ..TraceConfig::default()
        },
        ProfileConfig { sample_every_n: 1 },
        SketchConfig {
            sample_every_n: 1,
            ..SketchConfig::default()
        },
    )
}

fn defaults() -> Run {
    assert_eq!(TraceConfig::default().trace_sample_every_n, TRACE_N);
    assert_eq!(ProfileConfig::default().sample_every_n, PROFILE_N);
    assert_eq!(SketchConfig::default().sample_every_n, SKETCH_N);
    run(
        TraceConfig::default(),
        ProfileConfig::default(),
        SketchConfig::default(),
    )
}

/// Whether an event is an alert transition of the `hot_skew` rule,
/// which reads the sampled sketches.
fn is_hot_skew_transition(event: &Event) -> bool {
    matches!(event, Event::AlertTransition { rule, .. } if *rule == "hot_skew")
}

/// The trace id an event is kept or dropped by: its span's, or for a
/// retrieval summary, its subscriber's.
fn trace_of(event: &Event) -> Option<TraceId> {
    match *event {
        Event::Span(span) => Some(span.trace),
        Event::BrokerRetrieve { subscriber, .. } => Some(TraceId::for_object(subscriber)),
        _ => None,
    }
}

#[test]
fn every_count_in_the_registry_is_exact_under_sampling() {
    let (full, sampled) = (every_op(), defaults());
    assert_eq!(sampled.sketch_sampling, SKETCH_N);
    assert_eq!(full.sketch_sampling, 1);
    let differing: Vec<String> = full
        .exact_lines
        .iter()
        .zip(&sampled.exact_lines)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("every op: {a}\n sampled: {b}"))
        .collect();
    assert!(differing.is_empty(), "{}", differing.join("\n"));
    // The alert rules but `hot_skew` read exact series, so their
    // transitions, which the sink holds every one of, add up alike.
    let others = |run: &Run| {
        let hot_skew = run.events.iter().filter(|e| is_hot_skew_transition(e));
        run.alert_transitions - hot_skew.count() as u64
    };
    assert_eq!(others(&full), others(&sampled));
    assert!(others(&full) > 0, "no alert rule moved on the tape");
    assert_eq!(full.exact_lines.len(), sampled.exact_lines.len());
    // The tape exercised what the lines count.
    let text = full.exact_lines.join("\n");
    for counter in [
        "bad_cache_hit_objects_total",
        "bad_cache_miss_objects_total",
        "bad_cache_evicted_objects_total",
        "bad_broker_retrievals_total",
        "bad_delivery_latency_slo_violations_total",
        "bad_trace_spans_total{kind=\"retrieve_hit\"}",
    ] {
        let value = text
            .lines()
            .find_map(|line| line.strip_prefix(counter))
            .and_then(|rest| rest.trim().parse::<u64>().ok());
        assert!(value.is_some_and(|v| v > 0), "{counter} is {value:?}");
    }
}

#[test]
fn the_sink_and_the_recorder_hold_exactly_the_sampled_traces() {
    let (full, sampled) = (every_op(), defaults());
    let kept: Vec<Event> = full
        .events
        .iter()
        .filter(|event| trace_of(event).is_none_or(is_sampled_trace))
        .filter(|event| !is_hot_skew_transition(event))
        .copied()
        .collect();
    let sampled_kept: Vec<Event> = sampled
        .events
        .iter()
        .filter(|event| !is_hot_skew_transition(event))
        .copied()
        .collect();
    assert_eq!(sampled_kept.len(), kept.len());
    assert!(
        sampled_kept == kept,
        "the sampled sink is not the every-op sink filtered by trace id"
    );
    assert!(
        kept.iter()
            .any(|event| matches!(event, Event::AlertTransition { .. })),
        "no alert transition to compare"
    );
    let summaries = |events: &[Event]| {
        events
            .iter()
            .filter(|e| matches!(e, Event::BrokerRetrieve { .. }))
            .count()
    };
    assert!(summaries(&sampled.events) > 0, "no retrieval summary kept");
    assert!(summaries(&sampled.events) < summaries(&full.events));

    let spans = |events: &[Event]| -> Vec<Span> {
        events
            .iter()
            .filter_map(|event| match event {
                Event::Span(span) => Some(*span),
                _ => None,
            })
            .collect()
    };
    let mut sink_spans = spans(&sampled.events);
    sink_spans.sort_by_key(|s| (s.t_us, s.trace, s.span));
    // The bundle's ring wraps at every op but keeps all of a sample.
    assert_eq!(sampled.recorded.len() as u64, sampled.recorder_claims);
    assert_eq!(sampled.recorded.len(), sink_spans.len());
    assert!(
        sampled.recorded == sink_spans,
        "the recorder is not the sink"
    );
    assert!(full.recorder_claims > full.recorded.len() as u64);

    // A sampled lifecycle is whole: each kept trace holds every span
    // the every-op run wrote for it (which the equality above implies,
    // checked per trace here), and some run the full lifecycle.
    let lifecycles = |spans: &[Span]| {
        let mut by_trace: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
        for span in spans {
            by_trace.entry(span.trace).or_default().push(*span);
        }
        by_trace
    };
    let full_traces = lifecycles(&spans(&full.events));
    let sampled_traces = lifecycles(&spans(&sampled.events));
    assert!(!sampled_traces.is_empty());
    let mut whole = 0;
    for (trace, spans) in &sampled_traces {
        assert!(is_sampled_trace(*trace));
        assert_eq!(spans, &full_traces[trace], "trace {trace:?} is partial");
        let kinds: BTreeSet<SpanKind> = spans.iter().map(|s| s.kind).collect();
        let retrieved =
            kinds.contains(&SpanKind::RetrieveHit) || kinds.contains(&SpanKind::RetrieveMiss);
        let dropped = kinds.contains(&SpanKind::Drop)
            || kinds.contains(&SpanKind::Expire)
            || kinds.contains(&SpanKind::FullyConsumed);
        if kinds.contains(&SpanKind::ResultProduced)
            && kinds.contains(&SpanKind::CacheInsert)
            && retrieved
            && dropped
        {
            whole += 1;
        }
    }
    assert!(
        whole > 0,
        "no sampled trace runs produce → insert → hit/miss → drop"
    );
}

#[test]
fn lock_counts_are_exact_and_stage_timings_a_one_in_n_sample() {
    let (full, sampled) = (every_op(), defaults());
    assert_eq!(full.locks, sampled.locks);
    assert!(full
        .locks
        .iter()
        .any(|(_, acquisitions, _)| *acquisitions > 0));

    let roots = |run: &Run| -> u64 {
        ["get_all_pending", "insert", "maintain"]
            .iter()
            .map(|root| run.stages[root])
            .sum()
    };
    // Every timed op ends in exactly one envelope.
    assert_eq!(roots(&full), full.sampled_ops);
    assert_eq!(roots(&sampled), sampled.sampled_ops);
    // Ops 0, n, 2n, … of the thread's cycle are timed.
    let n = u64::from(PROFILE_N);
    assert_eq!(sampled.sampled_ops, full.sampled_ops.div_ceil(n));
    assert!(sampled.sampled_ops > 0);
    for (stage, &count) in &sampled.stages {
        assert!(count <= full.stages[stage], "{stage}: {count}");
    }
}

/// `sketch_merge`'s Zipf(1.0) tape, at the sketches' default sampling
/// and slot count: the top 10 survive, and the weighted total is the
/// true count to within one sampling period per recorder.
#[test]
fn default_sketches_keep_a_zipf_head_and_its_total() {
    const OPS: u64 = 100_000;
    const KEYS: usize = 10_000;
    const SHARDS: u64 = 4;
    const TOP: usize = 10;
    let config = SketchConfig::default();
    assert_eq!(config.sample_every_n, SKETCH_N);
    let single = SketchRecorder::new(config);
    let shards: Vec<SketchRecorder> = (0..SHARDS).map(|_| SketchRecorder::new(config)).collect();
    let mut exact: BTreeMap<u64, u64> = BTreeMap::new();
    let zipf = Zipf::new(KEYS, 1.0);
    let mut rng = Rng::new(0x5eed);
    for _ in 0..OPS {
        let key = zipf.sample(&mut rng) as u64;
        *exact.entry(key).or_insert(0) += 1;
        single.record_hit(key, 1, 64);
        shards[(key % SHARDS) as usize].record_hit(key, 1, 64);
    }
    let mut ranked: Vec<(u64, u64)> = exact.iter().map(|(&k, &c)| (k, c)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let exact_top: Vec<u64> = ranked.iter().take(TOP).map(|&(k, _)| k).collect();

    let snapshots: Vec<HotSnapshot> = shards.iter().map(|r| r.snapshot()).collect();
    let merged = HotSnapshot::merge(&snapshots).expect("non-empty shard set");
    let n = u64::from(SKETCH_N);
    for (name, snapshot, recorders) in
        [("single", single.snapshot(), 1), ("merged", merged, SHARDS)]
    {
        let reported = snapshot.top_requests(TOP);
        let overlap = exact_top
            .iter()
            .filter(|k| reported.iter().any(|(key, _)| key == *k))
            .count();
        assert!(overlap >= 9, "{name}: top-10 overlap {overlap}/10");
        // Each recorder rounds its share up to a whole sampling period
        // at most once.
        let total = snapshot.totals().requests;
        assert!(
            total.abs_diff(OPS) <= n * recorders,
            "{name}: total {total} against {OPS}"
        );
    }
}
