//! Cheaper observation must still be the same observation.
//!
//! A broker with every observer attached — a shared registry, a
//! `Tracer` writing to a `RingBufferSink` and a `FlightRecorder`, the
//! `Profiler` and the hot-key sketches, each asked to observe every op
//! (`sample_every_n: 1`, which the defaults were when the digests were
//! taken) — runs a fixed
//! tape that hits, misses, evicts, consumes, unsubscribes, retrieves
//! both one subscription at a time and everything pending at once,
//! breaks the delivery SLO and churns the Space-Saving slots (more
//! backend subscriptions than sketch capacity). What the observers then
//! report is digested and pinned:
//!
//! * `Registry::render()`, without the nanosecond-valued profiler
//!   samples (`bad_profile_stage_ns` and `bad_profile_lock_{wait,hold}_ns`
//!   quantiles, `_sum` and `_max`; their `_count` lines stay, and so do
//!   the sampled-op and lock-acquisition counters);
//! * the merged `/hot` body, `hot_snapshot().to_json()`;
//! * the flight recorder, `recorder().to_json()`;
//! * every record the sink received, projected back onto the records
//!   the commit before one-record-per-step wrote (see [`project`]).
//!
//! Every digest was taken on that earlier commit, by running this tape
//! there. The render is its render minus the
//! `bad_trace_spans_total{kind="backend_fetch"}` line; `/hot` is
//! unchanged. Its sink wrote each lifecycle step up to three times, so
//! the events are compared per kind (each kind's lines sorted) and as
//! the ordered subsequence of spans. Its recorder held a
//! `backend_fetch` span beside every miss, which shifts what the
//! striped ring keeps: the recorder digest was derived there by
//! replaying its span stream, with each twin's value moved onto its
//! span's `detail` and no `backend_fetch`, through the same ring
//! geometry (checked first to reproduce its own recorder).
//!
//! Two digests were re-derived once more, on the commit before a
//! batched retrieval became fused GETs under one lock per shard, from
//! its own run of this tape. The render is its render with two lines
//! lowered by 251, one per `get_all_pending` that had anything pending:
//! `bad_profile_lock_acquisitions_total` and
//! `bad_profile_lock_hold_ns_count` of `cache_shard0` (the batch no
//! longer takes the shard a second time for its acks). The ordered
//! spans are its stream with each batched retrieval's `fully_consumed`
//! spans moved ahead of the rest of its call, as a single GET's already
//! were; the same replay without the move reproduces its own digests,
//! and the moved stream replayed through the recorder's geometry
//! leaves the recorder digest as it was.
//!
//! The observers are wired through `Broker::attach_telemetry`, and once
//! more through the hidden `attach_telemetry_profiled` and
//! `DataCluster::set_event_sink` shims that older callers still use.

use std::collections::BTreeMap;
use std::sync::Arc;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::PolicyName;
use bad_cluster::DataCluster;
use bad_query::ParamBindings;
use bad_storage::Schema;
use bad_telemetry::json::number;
use bad_telemetry::trace::mix64;
use bad_telemetry::{
    Event, FlightRecorder, ProfileConfig, Profiler, Registry, RingBufferSink, SharedSink,
    SharedTracer, SketchConfig, SpanKind, TraceConfig, Tracer,
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
    events: Vec<Event>,
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

/// How a test wires the observers to the cluster and the broker; the
/// cluster's tracer is already set.
type Attach = fn(&mut DataCluster, &mut Broker, &Registry, SharedSink, SharedTracer, Profiler);

fn run_tape(attach: Attach) -> Observed {
    let registry = Registry::new();
    let sink = Arc::new(RingBufferSink::new(EVENT_CAPACITY));
    let recorder = Arc::new(FlightRecorder::new(8, 128));
    let tracer = Tracer::new(
        &registry,
        sink.clone(),
        recorder,
        TraceConfig {
            trace_sample_every_n: 1,
            ..TraceConfig::default()
        },
    );
    let profiler = Profiler::new(&registry, ProfileConfig { sample_every_n: 1 });

    let mut cluster = DataCluster::new();
    cluster.create_dataset("Posts", Schema::open()).unwrap();
    cluster
        .register_channel(
            "channel ByStream(stream: int) from Posts p where p.stream == $stream select p",
        )
        .unwrap();
    cluster.set_tracer(Arc::clone(&tracer));

    let mut config = BrokerConfig::default();
    config.cache.budget = ByteSize::new(24_000);
    config.sketches = Some(SketchConfig {
        sample_every_n: 1,
        ..SketchConfig::default()
    });
    let mut broker = Broker::new(PolicyName::Lsc, config);
    attach(
        &mut cluster,
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
    let events = sink.events();
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

/// Maps the record stream back onto the JSON lines the commit before
/// one-record-per-step wrote, in stream order. A span loses its
/// `detail`, and brings back the typed twin that carried it; a miss
/// also brings back its `backend_fetch` child span. Per-object hit and
/// miss spans are summed per `(t_us, cache, subscriber)` into that
/// retrieval's `cache.hit` / `cache.miss`, which the subscriber's
/// `broker.retrieve` closes; the summary sheds its `latency_us` into a
/// `broker.deliver` when it delivered anything.
fn project(events: &[Event]) -> Vec<String> {
    let mut out = Vec::new();
    // `(t_us, cache, subscriber)` → `[hits, hit bytes, misses, miss bytes]`.
    let mut open: BTreeMap<(u64, u64, u64), [u64; 4]> = BTreeMap::new();
    for event in events {
        match *event {
            Event::Span(span) => {
                let (t, c, o, b) = (span.t_us, span.cache, span.object, span.bytes);
                let mut json = event.to_json();
                if let Some(name) = span.kind.detail_name() {
                    let field = format!(",\"{name}\":{}", span.detail);
                    assert_eq!(json.matches(&field).count(), 1, "{json}");
                    json = json.replacen(&field, "", 1);
                }
                out.push(json);
                let retrieval = open.entry((t, c, span.subscriber)).or_default();
                match (span.kind, span.drop_kind) {
                    (SpanKind::ResultProduced, _) => out.push(format!(
                        r#"{{"kind":"cluster.channel_fire","t_us":{t},"channel":{},"subscription":{c},"results":1,"bytes":{b}}}"#,
                        span.detail
                    )),
                    (SpanKind::CacheInsert, _) => out.push(format!(
                        r#"{{"kind":"cache.insert","t_us":{t},"cache":{c},"object":{o},"bytes":{b},"total_bytes":{}}}"#,
                        span.detail
                    )),
                    (SpanKind::RetrieveHit, _) => {
                        retrieval[0] += 1;
                        retrieval[1] += b;
                    }
                    (SpanKind::RetrieveMiss, _) => {
                        retrieval[2] += 1;
                        retrieval[3] += b;
                        // The retired kind's discriminant was 4; a span
                        // names no subscriber 0.
                        let fetch = mix64(span.trace.as_u64() ^ mix64((4 << 56) ^ span.subscriber));
                        let subscriber = match span.subscriber {
                            0 => String::new(),
                            s => format!(r#","subscriber":{s}"#),
                        };
                        out.push(format!(
                            r#"{{"kind":"span.backend_fetch","t_us":{t},"trace":{},"span":{fetch},"parent":{},"cache":{c},"object":{o}{subscriber},"bytes":{b},"lag_us":{}}}"#,
                            span.trace.as_u64(),
                            span.span.as_u64(),
                            span.detail
                        ));
                    }
                    (SpanKind::Drop, "evict") => out.push(format!(
                        r#"{{"kind":"cache.evict","t_us":{t},"cache":{c},"object":{o},"bytes":{b},"policy":"{}","score":{}}}"#,
                        span.policy,
                        number(span.score)
                    )),
                    (SpanKind::Expire, _) => out.push(format!(
                        r#"{{"kind":"cache.expire","t_us":{t},"cache":{c},"object":{o},"bytes":{b},"ttl_us":{}}}"#,
                        span.detail
                    )),
                    (SpanKind::FullyConsumed, _) => out.push(format!(
                        r#"{{"kind":"cache.consume","t_us":{t},"cache":{c},"objects":1,"bytes":{b}}}"#
                    )),
                    (SpanKind::Drop, "unsubscribe") => out.push(format!(
                        r#"{{"kind":"cache.unsubscribe","t_us":{t},"cache":{c},"objects":1,"bytes":{b}}}"#
                    )),
                    (SpanKind::Drop, other) => panic!("unknown drop kind {other:?}"),
                }
                open.retain(|_, sums| sums.iter().any(|&sum| sum > 0));
            }
            Event::BrokerRetrieve {
                t_us,
                subscriber,
                hit_objects,
                miss_objects,
                hit_bytes,
                miss_bytes,
                latency_us,
            } => {
                let closed: Vec<_> = open
                    .keys()
                    .filter(|&&(t, _, s)| (t, s) == (t_us, subscriber))
                    .copied()
                    .collect();
                for key @ (t, cache, _) in closed {
                    let [hits, hit_bytes, misses, miss_bytes] = open.remove(&key).unwrap();
                    for (kind, objects, bytes) in
                        [("hit", hits, hit_bytes), ("miss", misses, miss_bytes)]
                    {
                        if objects > 0 {
                            out.push(format!(
                                r#"{{"kind":"cache.{kind}","t_us":{t},"cache":{cache},"objects":{objects},"bytes":{bytes}}}"#
                            ));
                        }
                    }
                }
                out.push(format!(
                    r#"{{"kind":"broker.retrieve","t_us":{t_us},"subscriber":{subscriber},"hit_objects":{hit_objects},"miss_objects":{miss_objects},"hit_bytes":{hit_bytes},"miss_bytes":{miss_bytes}}}"#
                ));
                let (objects, bytes) = (hit_objects + miss_objects, hit_bytes + miss_bytes);
                if objects > 0 {
                    out.push(format!(
                        r#"{{"kind":"broker.deliver","t_us":{t_us},"subscriber":{subscriber},"objects":{objects},"bytes":{bytes},"latency_us":{latency_us}}}"#
                    ));
                }
            }
            other => out.push(other.to_json()),
        }
    }
    assert!(open.is_empty(), "retrievals never closed: {open:?}");
    out
}

/// `(metrics, hot, recorder)` digests, taken as the module docs say.
const PARENT_DIGESTS: (u64, u64, u64) = (
    0x158c_931c_fafe_0464,
    0x0a6c_c1ef_7e3b_37c2,
    0x493f_a2b5_02de_f5b2,
);

/// `(kind, lines, digest of the sorted lines)` of every kind the
/// earlier commit's sink received on this tape.
const PARENT_KINDS: [(&str, usize, u64); 15] = [
    ("broker.deliver", 1925, 0x302b_881e_120a_f942),
    ("broker.retrieve", 2134, 0xd89c_1641_7e88_be1a),
    ("cache.consume", 104, 0x11f8_9ed2_a73a_f135),
    ("cache.evict", 1586, 0xeba0_0d5d_8636_a91e),
    ("cache.hit", 1578, 0x66f2_d337_68b2_3317),
    ("cache.insert", 1788, 0x7a8b_45a2_1fbb_95da),
    ("cache.miss", 751, 0x70b9_c05a_e91a_28b0),
    ("cluster.channel_fire", 1800, 0x72fc_4c7d_6c9a_3609),
    ("span.backend_fetch", 1935, 0x775c_24d7_48bb_21e5),
    ("span.cache_insert", 1788, 0xcc66_b643_40b8_4846),
    ("span.drop", 1586, 0x24b4_9501_944a_970d),
    ("span.fully_consumed", 104, 0x4b7a_3e65_a59a_4c0e),
    ("span.result_produced", 1800, 0x8ca7_241c_2e74_e8a9),
    ("span.retrieve_hit", 2734, 0x8ca0_3404_2449_3643),
    ("span.retrieve_miss", 1935, 0x835b_fcc4_e8f7_d140),
];

/// `(lines, digest)` of the earlier commit's span lines, in order.
const PARENT_SPANS: (usize, u64) = (11_882, 0x922e_4aa5_471e_c352);

/// Records the sink receives now: the earlier commit's 23 548 less the
/// 11 467 twins, `broker.deliver`s and `backend_fetch`es.
const EVENTS: usize = 12_081;

#[test]
fn every_observer_reports_what_it_reported_before() {
    assert_parent_digests(run_tape(|_, broker, registry, _, tracer, profiler| {
        broker.attach_telemetry(registry, tracer, profiler)
    }));
}

#[test]
fn the_profiled_forwarder_wires_the_same_observers() {
    assert_parent_digests(run_tape(
        |cluster, broker, registry, sink, tracer, profiler| {
            cluster.set_event_sink(sink.clone());
            broker.attach_telemetry_profiled(registry, sink, tracer, profiler)
        },
    ));
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
    );
    assert_eq!(
        got, PARENT_DIGESTS,
        "observers report differently; metrics:\n{}",
        observed.metrics
    );
    assert_eq!(observed.events.len(), EVENTS);

    let projected = project(&observed.events);
    let mut by_kind: BTreeMap<&str, Vec<&String>> = BTreeMap::new();
    for line in &projected {
        // `{"kind":"<kind>",…`: the kind is the fourth `"`-separated piece.
        by_kind
            .entry(line.split('"').nth(3).unwrap())
            .or_default()
            .push(line);
    }
    let kinds: Vec<(&str, usize, u64)> = by_kind
        .into_iter()
        .map(|(kind, mut lines)| {
            lines.sort();
            (kind, lines.len(), fnv1a(lines))
        })
        .collect();
    assert_eq!(kinds, PARENT_KINDS);

    let spans: Vec<&String> = projected
        .iter()
        .filter(|line| line.starts_with(r#"{"kind":"span."#))
        .collect();
    assert_eq!((spans.len(), fnv1a(spans)), PARENT_SPANS);
}
