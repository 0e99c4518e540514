//! Broker-side telemetry: retrieval/delivery counters and a delivery
//! latency histogram.
//!
//! Mirrors [`bad_cache::CacheTelemetry`]: detached by default — every
//! hook returns after one branch, since nothing could read what it
//! would count — and a shared registry + sink when attached via
//! [`crate::Broker::attach_telemetry`]. The hooks run under
//! `&mut Broker`, so the counters and the histogram are owner cells
//! ([`bad_telemetry::OwnerCounter`]): plain stores, summed at render.

use bad_telemetry::{
    Event, OwnerCounter, OwnerHistogram, Registry, SharedSink, SharedTracer, Tracer,
};
use bad_types::{SubscriberId, Timestamp};

use crate::broker::Delivery;

/// Metric handles + event sink for one [`crate::Broker`].
#[derive(Clone, Debug)]
pub struct BrokerTelemetry {
    /// Whether a caller-held [`Registry`] backs the handles below.
    attached: bool,
    sink: SharedSink,
    tracer: SharedTracer,
    retrievals: OwnerCounter,
    deliveries: OwnerCounter,
    delivered_objects: OwnerCounter,
    delivered_bytes: OwnerCounter,
    delivery_latency_us: OwnerHistogram,
}

impl Default for BrokerTelemetry {
    fn default() -> Self {
        Self::detached()
    }
}

impl BrokerTelemetry {
    /// Registers the broker metric family on `registry` and routes
    /// events to `sink`. Lifecycle tracing stays off; use
    /// [`BrokerTelemetry::traced`] to thread a live tracer through.
    pub fn new(registry: &Registry, sink: SharedSink) -> Self {
        Self::traced(registry, sink, Tracer::disabled())
    }

    /// Like [`BrokerTelemetry::new`], but retrieval paths also emit
    /// lifecycle spans (hit / miss / backend fetch) through `tracer`.
    pub fn traced(registry: &Registry, sink: SharedSink, tracer: SharedTracer) -> Self {
        Self {
            attached: true,
            sink,
            tracer,
            retrievals: registry.owner_counter("bad_broker_retrievals_total"),
            deliveries: registry.owner_counter("bad_broker_deliveries_total"),
            delivered_objects: registry.owner_counter("bad_broker_delivered_objects_total"),
            delivered_bytes: registry.owner_counter("bad_broker_delivered_bytes_total"),
            delivery_latency_us: registry.owner_histogram("bad_broker_delivery_latency_us"),
        }
    }

    /// A bundle that records nothing: its registry is gone before it
    /// returns, so its hooks do not count into it either.
    pub fn detached() -> Self {
        Self {
            attached: false,
            ..Self::new(&Registry::new(), bad_telemetry::null_sink())
        }
    }

    /// The event sink in force.
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }

    /// The lifecycle tracer in force ([`Tracer::disabled`] unless
    /// constructed via [`BrokerTelemetry::traced`]).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Records one served retrieval: the hit/miss split and, when it
    /// delivered anything, the delivery itself with its latency.
    pub(crate) fn on_retrieval(
        &self,
        now: Timestamp,
        subscriber: SubscriberId,
        delivery: &Delivery,
    ) {
        if !self.attached {
            return;
        }
        self.retrievals.inc();
        if delivery.total_objects() > 0 {
            self.deliveries.inc();
            self.delivered_objects.add(delivery.total_objects());
            self.delivered_bytes.add(delivery.total_bytes().as_u64());
            self.delivery_latency_us
                .record(delivery.latency.as_micros());
        }
        if !self.sink.enabled() {
            return;
        }
        let t_us = now.as_micros();
        self.sink.record(&Event::BrokerRetrieve {
            t_us,
            subscriber: subscriber.as_u64(),
            hit_objects: delivery.hit_objects,
            miss_objects: delivery.miss_objects,
            hit_bytes: delivery.hit_bytes.as_u64(),
            miss_bytes: delivery.miss_bytes.as_u64(),
        });
        if delivery.total_objects() > 0 {
            self.sink.record(&Event::BrokerDeliver {
                t_us,
                subscriber: subscriber.as_u64(),
                objects: delivery.total_objects(),
                bytes: delivery.total_bytes().as_u64(),
                latency_us: delivery.latency.as_micros(),
            });
        }
    }
}
