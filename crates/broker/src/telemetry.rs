//! Broker-side telemetry: retrieval/delivery counters, a delivery
//! latency histogram and the one summary record per retrieval of a
//! sampled subscriber.
//!
//! Mirrors [`bad_cache::CacheTelemetry`]: detached by default — every
//! hook returns after one branch, since nothing could read what it
//! would count — and a shared registry + tracer when attached via
//! [`crate::Broker::attach_telemetry`]. The hooks run under
//! `&mut Broker`, so the counters and the histogram are owner cells
//! ([`bad_telemetry::OwnerCounter`]): plain stores, summed at render.

use bad_telemetry::{Event, OwnerCounter, OwnerHistogram, Registry, SharedTracer, TraceId, Tracer};
use bad_types::{SubscriberId, Timestamp};

use crate::broker::Delivery;

/// Metric handles + lifecycle tracer for one [`crate::Broker`].
#[derive(Clone, Debug)]
pub struct BrokerTelemetry {
    /// Whether a caller-held [`Registry`] backs the handles below.
    attached: bool,
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
    /// Registers the broker metric family on `registry`; retrieval
    /// paths emit their hit / miss spans and one `broker.retrieve`
    /// summary per retrieval through `tracer` ([`Tracer::disabled`] for
    /// metrics alone).
    pub fn new(registry: &Registry, tracer: SharedTracer) -> Self {
        Self {
            attached: true,
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
            ..Self::new(&Registry::new(), Tracer::disabled())
        }
    }

    /// The lifecycle tracer in force ([`Tracer::disabled`] when
    /// detached).
    pub fn tracer(&self) -> &SharedTracer {
        &self.tracer
    }

    /// Records one served retrieval: the hit/miss split, the delivery
    /// itself with its latency when it delivered anything, and — when
    /// the tracer samples the subscriber's trace id, the id the
    /// retrieval's profiler envelope carries — its summary record. The
    /// counters and the histogram count every retrieval.
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
        if !self
            .tracer
            .sampled(TraceId::for_object(subscriber.as_u64()))
        {
            return;
        }
        self.tracer.record(&Event::BrokerRetrieve {
            t_us: now.as_micros(),
            subscriber: subscriber.as_u64(),
            hit_objects: delivery.hit_objects,
            miss_objects: delivery.miss_objects,
            hit_bytes: delivery.hit_bytes.as_u64(),
            miss_bytes: delivery.miss_bytes.as_u64(),
            latency_us: delivery.latency.as_micros(),
        });
    }
}
