//! Guard test: the disabled telemetry path must cost ~nothing.
//!
//! A coarse wall-clock guard rather than a statistical benchmark: ten
//! million guarded event sites plus counter increments must finish well
//! inside a bound that is generous for debug builds yet impossible to
//! meet if the disabled path ever starts allocating or formatting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bad_telemetry::{
    Event, FlightRecorder, Registry, RingBufferSink, SharedSink, TraceConfig, Tracer,
};

const ITERS: u64 = 10_000_000;

fn retrieve(t_us: u64) -> Event {
    Event::BrokerRetrieve {
        t_us,
        subscriber: 1,
        hit_objects: 1,
        miss_objects: 0,
        hit_bytes: 64,
        miss_bytes: 0,
        latency_us: 250,
    }
}

#[test]
fn disabled_event_path_is_nearly_free() {
    // Every instrumented layer reaches the sink through its tracer;
    // the default one is disabled and holds the null sink.
    let tracer = Tracer::disabled();
    let start = Instant::now();
    for i in 0..ITERS {
        tracer.record(&retrieve(i));
    }
    let elapsed = start.elapsed();
    assert!(!tracer.sink().enabled(), "NullSink must report disabled");
    // ~1 virtual call/iteration; even a debug build does this in well
    // under a second. A path that builds strings or allocates blows
    // through this by an order of magnitude.
    assert!(
        elapsed < Duration::from_secs(5),
        "disabled event path too slow: {ITERS} guarded sites took {elapsed:?}"
    );
}

#[test]
fn counter_increments_stay_cheap() {
    let registry = Registry::new();
    let counter = registry.counter("bad_overhead_total");
    let start = Instant::now();
    for _ in 0..ITERS {
        counter.inc();
    }
    let elapsed = start.elapsed();
    assert_eq!(counter.get(), ITERS);
    assert!(
        elapsed < Duration::from_secs(5),
        "counter hot path too slow: {ITERS} increments took {elapsed:?}"
    );
}

#[test]
fn enabled_sink_still_records() {
    // Sanity check that the guard records when a real sink is
    // installed — i.e. the overhead test above is not vacuous.
    let ring = Arc::new(RingBufferSink::new(8));
    let sink: SharedSink = ring.clone();
    let tracer = Tracer::new(
        &Registry::new(),
        sink,
        Arc::new(FlightRecorder::new(1, 1)),
        TraceConfig {
            trace_sample_every_n: 1,
            ..TraceConfig::default()
        },
    );
    tracer.record(&retrieve(7));
    assert_eq!(ring.events(), [retrieve(7)]);
}
