//! The structured event layer: the record taxonomy and the sinks that
//! keep it.
//!
//! A lifecycle step (a result produced, cached, retrieved or missed,
//! dropped) is one [`Event::Span`]; the other variants are the records
//! no span carries: the retrieval summary, TTL retunes, enrichment
//! runs, sampler epochs and alert transitions. Instrumented layers
//! hold no sink: they reach it through their [`crate::Tracer`], whose
//! span helpers and [`crate::Tracer::record`] both write to the sink
//! the tracer was built with.
//!
//! Every variant is `Copy` (timestamps in virtual microseconds, raw
//! `u64` ids, `&'static str` labels) so constructing an event never
//! allocates. Hot paths guard construction behind
//! [`EventSink::enabled`]:
//!
//! ```
//! use bad_telemetry::{null_sink, Event};
//! let sink = null_sink();
//! if sink.enabled() {
//!     sink.record(&Event::ClusterEnrich { t_us: 0, channel: 1, rules: 2 });
//! }
//! ```
//!
//! The [`NullSink`] default reports `enabled() == false`, so disabled
//! tracing costs one virtual call per site and nothing else.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::json::ObjectWriter;
use crate::trace::{Span, SpanKind};

/// One structured telemetry event. Field conventions: `t_us` is the
/// virtual-time timestamp in microseconds, ids are the raw `u64` of
/// the typed id newtypes, byte quantities are raw bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// The TTL tuner recomputed a cache's TTL from its measured
    /// arrival rate λ, consumption rate η and growth rate ρ = (λ−η)⁺.
    TtlRetune {
        t_us: u64,
        cache: u64,
        lambda: f64,
        eta: f64,
        rho: f64,
        ttl_us: u64,
    },
    /// One subscriber retrieval, summarized: its hit/miss split and the
    /// modeled delivery latency. Its per-object `retrieve_hit` and
    /// `retrieve_miss` spans carry the same timestamp and subscriber.
    BrokerRetrieve {
        t_us: u64,
        subscriber: u64,
        hit_objects: u64,
        miss_objects: u64,
        hit_bytes: u64,
        miss_bytes: u64,
        latency_us: u64,
    },
    /// Enrichment rules ran over a channel's freshly produced results.
    ClusterEnrich { t_us: u64, channel: u64, rules: u64 },
    /// One virtual-time sampler epoch (the raw series behind Fig. 5a).
    EpochSample {
        t_us: u64,
        broker: u64,
        occupancy_bytes: u64,
        hit_ratio: f64,
        expected_ttl_bytes: f64,
    },
    /// One notification-lifecycle span (see [`crate::trace`]): the
    /// record of every lifecycle step, from `result_produced` to the
    /// object's drop. Sampled spans flow through the same sinks as
    /// every other event so one JSONL trace interleaves decisions and
    /// lifecycles in time order.
    Span(Span),
    /// An alert rule changed state (see [`crate::alert`]). `value_milli`
    /// is the rule's triggering measurement ×1000 (burn rate or drift
    /// score) so the event stays `Copy` without an f64 formatting
    /// dependency in the state machine.
    AlertTransition {
        t_us: u64,
        rule: &'static str,
        from: &'static str,
        to: &'static str,
        value_milli: u64,
    },
}

impl Event {
    /// The stable `layer.event` label of this variant, used as the
    /// JSONL `kind` field and for filtering traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TtlRetune { .. } => "cache.ttl_retune",
            Event::BrokerRetrieve { .. } => "broker.retrieve",
            Event::ClusterEnrich { .. } => "cluster.enrich",
            Event::EpochSample { .. } => "sim.epoch_sample",
            Event::Span(span) => match span.kind {
                SpanKind::ResultProduced => "span.result_produced",
                SpanKind::CacheInsert => "span.cache_insert",
                SpanKind::RetrieveHit => "span.retrieve_hit",
                SpanKind::RetrieveMiss => "span.retrieve_miss",
                SpanKind::Drop => "span.drop",
                SpanKind::Expire => "span.expire",
                SpanKind::FullyConsumed => "span.fully_consumed",
            },
            Event::AlertTransition { .. } => "health.alert_transition",
        }
    }

    /// The event's virtual-time timestamp in microseconds.
    pub fn t_us(&self) -> u64 {
        match *self {
            Event::TtlRetune { t_us, .. }
            | Event::BrokerRetrieve { t_us, .. }
            | Event::ClusterEnrich { t_us, .. }
            | Event::EpochSample { t_us, .. }
            | Event::AlertTransition { t_us, .. } => t_us,
            Event::Span(span) => span.t_us,
        }
    }

    /// Appends this event as one JSON object (no trailing newline) to
    /// `out`. Every object starts with `kind` and `t_us` so traces are
    /// greppable without a JSON parser.
    pub fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field_str("kind", self.kind());
        obj.field_u64("t_us", self.t_us());
        match *self {
            Event::TtlRetune {
                cache,
                lambda,
                eta,
                rho,
                ttl_us,
                ..
            } => {
                obj.field_u64("cache", cache);
                obj.field_f64("lambda", lambda);
                obj.field_f64("eta", eta);
                obj.field_f64("rho", rho);
                obj.field_u64("ttl_us", ttl_us);
            }
            Event::BrokerRetrieve {
                subscriber,
                hit_objects,
                miss_objects,
                hit_bytes,
                miss_bytes,
                latency_us,
                ..
            } => {
                obj.field_u64("subscriber", subscriber);
                obj.field_u64("hit_objects", hit_objects);
                obj.field_u64("miss_objects", miss_objects);
                obj.field_u64("hit_bytes", hit_bytes);
                obj.field_u64("miss_bytes", miss_bytes);
                obj.field_u64("latency_us", latency_us);
            }
            Event::ClusterEnrich { channel, rules, .. } => {
                obj.field_u64("channel", channel);
                obj.field_u64("rules", rules);
            }
            Event::EpochSample {
                broker,
                occupancy_bytes,
                hit_ratio,
                expected_ttl_bytes,
                ..
            } => {
                obj.field_u64("broker", broker);
                obj.field_u64("occupancy_bytes", occupancy_bytes);
                obj.field_f64("hit_ratio", hit_ratio);
                obj.field_f64("expected_ttl_bytes", expected_ttl_bytes);
            }
            Event::Span(span) => {
                span.write_fields(&mut obj);
            }
            Event::AlertTransition {
                rule,
                from,
                to,
                value_milli,
                ..
            } => {
                obj.field_str("rule", rule);
                obj.field_str("from", from);
                obj.field_str("to", to);
                obj.field_f64("value", value_milli as f64 / 1000.0);
            }
        }
    }

    /// Renders this event as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_json(&mut out);
        out
    }
}

/// Where structured events go. Implementations must be cheap to call
/// and safe to share across broker threads.
pub trait EventSink: Send + Sync + fmt::Debug {
    /// Whether callers should bother constructing events at all.
    /// Defaults to `true`; only [`NullSink`] returns `false`. Hot
    /// paths check this before building an [`Event`].
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, event: &Event);
}

/// A shareable handle to any sink.
pub type SharedSink = Arc<dyn EventSink>;

/// The default sink: drops everything and reports `enabled() == false`
/// so instrumented code skips event construction entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}
}

/// A fresh [`NullSink`] handle — the default wiring everywhere.
pub fn null_sink() -> SharedSink {
    Arc::new(NullSink)
}

/// Keeps the newest `capacity` events in memory; ideal for tests and
/// for post-mortem dumps in long-lived processes.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .expect("ring buffer poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("ring buffer poisoned").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn record(&self, event: &Event) {
        let mut events = self.events.lock().expect("ring buffer poisoned");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(*event);
    }
}

/// Streams events as JSON Lines to any writer (file, stderr, Vec).
/// One event per line; lines are valid standalone JSON objects.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(writer),
        }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(BufWriter::new(file))))
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("jsonl sink poisoned").flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().map(|mut w| w.flush());
    }
}

impl EventSink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let _ = self
            .out
            .lock()
            .expect("jsonl sink poisoned")
            .write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enrich(t_us: u64) -> Event {
        Event::ClusterEnrich {
            t_us,
            channel: 2,
            rules: 1,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = null_sink();
        assert!(!sink.enabled());
        sink.record(&enrich(1));
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let sink = RingBufferSink::new(2);
        assert!(sink.enabled());
        for i in 0..3 {
            sink.record(&enrich(i));
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_us(), 1);
        assert_eq!(events[1].t_us(), 2);
    }

    #[test]
    fn retrieve_event_carries_the_delivery_latency() {
        let event = Event::BrokerRetrieve {
            t_us: 5,
            subscriber: 1,
            hit_objects: 12,
            miss_objects: 2,
            hit_bytes: 4096,
            miss_bytes: 512,
            latency_us: 250,
        };
        assert_eq!(event.kind(), "broker.retrieve");
        assert_eq!(
            event.to_json(),
            r#"{"kind":"broker.retrieve","t_us":5,"subscriber":1,"hit_objects":12,"miss_objects":2,"hit_bytes":4096,"miss_bytes":512,"latency_us":250}"#
        );
    }

    #[test]
    fn evict_event_serializes_policy_and_score() {
        use crate::trace::{SpanKind, TraceId};

        let event = Event::Span(Span {
            t_us: 1_000_000,
            bytes: 512,
            lag_us: 40,
            policy: "lsc",
            drop_kind: "evict",
            score: 0.125,
            ..Span::new(TraceId::for_object(9), SpanKind::Drop, 7, 9, 0)
        });
        assert_eq!(event.kind(), "span.drop");
        assert!(event
            .to_json()
            .starts_with(r#"{"kind":"span.drop","t_us":1000000,"#));
        assert!(event.to_json().ends_with(
            r#""cache":7,"object":9,"bytes":512,"lag_us":40,"drop_kind":"evict","policy":"lsc","score":0.125}"#
        ));
    }

    #[test]
    fn ttl_retune_event_serializes_rates() {
        let event = Event::TtlRetune {
            t_us: 60_000_000,
            cache: 3,
            lambda: 10.0,
            eta: 4.0,
            rho: 6.0,
            ttl_us: 30_000_000,
        };
        assert_eq!(
            event.to_json(),
            r#"{"kind":"cache.ttl_retune","t_us":60000000,"cache":3,"lambda":10,"eta":4,"rho":6,"ttl_us":30000000}"#
        );
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buffer: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = JsonlSink::new(Box::new(Shared(buffer.clone())));
        sink.record(&Event::EpochSample {
            t_us: 5,
            broker: 0,
            occupancy_bytes: 4096,
            hit_ratio: 0.5,
            expected_ttl_bytes: 0.0,
        });
        sink.record(&enrich(6));
        sink.flush().unwrap();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"kind":"sim.epoch_sample""#));
        assert!(lines[1].contains(r#""rules":1"#));
    }

    #[test]
    fn jsonl_sink_flushes_buffered_tail_on_drop() {
        // A sim run that ends (or panics and unwinds) without calling
        // `flush()` must not lose the buffered tail of the trace.
        let path = std::env::temp_dir().join(format!(
            "bad-jsonl-drop-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&enrich(1));
            // No explicit flush: the event sits in the BufWriter until
            // the sink is dropped here.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with(r#"{"kind":"cluster.enrich","t_us":1"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn span_events_share_the_jsonl_taxonomy() {
        use crate::trace::{SpanKind, TraceId};

        let event = Event::Span(Span {
            t_us: 12,
            bytes: 128,
            lag_us: 900,
            detail: 300,
            ..Span::new(TraceId::for_object(9), SpanKind::RetrieveMiss, 4, 9, 5)
        });
        assert_eq!(event.kind(), "span.retrieve_miss");
        assert_eq!(event.t_us(), 12);
        let json = event.to_json();
        assert!(json.starts_with(r#"{"kind":"span.retrieve_miss","t_us":12,"trace":"#));
        assert!(json.ends_with(r#""lag_us":900,"fetch_us":300}"#));
    }
}
