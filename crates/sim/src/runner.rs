//! The simulation event loop.
//!
//! One [`Simulation`] wires the real [`Broker`] to the synthetic
//! [`SimBackend`] and drives them with the Table II workload: Zipf
//! subscription popularity, lognormal ON/OFF churn and Poisson result
//! arrivals. Every run is fully determined by `(policy, config, seed)`.

use std::collections::HashMap;

use bad_broker::{Broker, BrokerConfig};
use bad_cache::{PolicyKind, PolicyName};
use bad_query::ParamBindings;
use bad_telemetry::{Registry, Sample, Sampler, SharedTracer, Tracer};
use bad_types::rng::Rng;
use bad_types::{
    BackendSubId, ByteSize, FrontendSubId, Result, SimDuration, SubscriberId, Timestamp,
};
use bad_workload::{LognormalSpec, OnOffProcess, ZipfPopularity};

use crate::backend::SimBackend;
use crate::config::SimConfig;
use crate::engine::EventQueue;
use crate::report::SimReport;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Subscriber joins the system (logs in for the first time and
    /// makes its subscriptions).
    Join(u32),
    /// Subscriber comes back online.
    ToggleOn(u32),
    /// Subscriber goes offline.
    ToggleOff(u32),
    /// A result stream produces its next object.
    Arrival(u32),
    /// A notified subscriber retrieves from one subscription.
    Retrieve { sub: u32, fs: FrontendSubId },
    /// Periodic cache maintenance (TTL recompute + expiry).
    Maintain,
    /// Periodic `Σ ρ_i·T_i` sampling for Fig. 5(a).
    Sample,
    /// A frontend subscription's lifetime ended: move it to a fresh
    /// Zipf-sampled stream (subscription churn).
    Resubscribe { sub: u32, fs: FrontendSubId },
}

struct SubscriberState {
    online: bool,
    joined: bool,
    churn: OnOffProcess,
    streams: Vec<usize>,
}

struct StreamState {
    /// Mean Poisson inter-arrival time in seconds (fixed per stream).
    mean_interarrival_secs: f64,
    /// Whether the arrival process has been started.
    active: bool,
}

/// One configured simulation run. See the [crate-level example](crate).
pub struct Simulation {
    policy: PolicyName,
    config: SimConfig,
    seed: u64,
    broker: Broker,
    backend: SimBackend,
    queue: EventQueue<Event>,
    rng: Rng,
    subscribers: Vec<SubscriberState>,
    streams: Vec<StreamState>,
    /// `(subscriber, backend sub) -> frontend sub` for notification fan-out.
    frontends: HashMap<(u32, BackendSubId), FrontendSubId>,
    /// Periodic occupancy / hit-ratio / `Σ ρ_i·T_i` snapshots.
    sampler: Sampler,
    /// Tracer whose sink takes the epoch samples (disabled unless
    /// telemetry is attached).
    tracer: SharedTracer,
    /// Popularity sampler, retained for subscription churn.
    popularity: ZipfPopularity,
    /// Subscription lifetime sampler (churn), when enabled.
    subscription_lifetime: Option<LognormalSpec>,
}

impl Simulation {
    /// Builds a simulation from a policy, a configuration and a seed.
    ///
    /// # Errors
    ///
    /// Propagates invalid workload parameters (Zipf exponent, lognormal
    /// specs, arrival intervals).
    pub fn new(policy: PolicyName, config: SimConfig, seed: u64) -> Result<Self> {
        let mut rng = Rng::new(seed);
        let mut popularity = ZipfPopularity::new(
            config.unique_subscriptions,
            config.zipf_exponent,
            seed ^ 0x21f,
        )?;

        let mut subscribers = Vec::with_capacity(config.subscribers as usize);
        for k in 0..config.subscribers {
            let streams = popularity.sample_distinct(
                config
                    .subscriptions_per_subscriber
                    .min(config.unique_subscriptions),
            );
            subscribers.push(SubscriberState {
                online: false,
                joined: false,
                churn: OnOffProcess::new(config.on_duration, config.off_duration, seed ^ (k + 1))?,
                streams,
            });
        }

        let mut streams = Vec::with_capacity(config.unique_subscriptions);
        for _ in 0..config.unique_subscriptions {
            let (lo, hi) = config.arrival_interval_secs;
            let mean = rng.uniform(lo, hi);
            if mean.is_nan() || mean < 0.0 {
                return Err(bad_types::BadError::InvalidArgument(format!(
                    "exp: mean inter-arrival {mean}s is negative"
                )));
            }
            streams.push(StreamState {
                mean_interarrival_secs: mean,
                active: false,
            });
        }

        let mut cache = config.cache;
        cache.budget = config.cache_budget;
        let sketches = match config.sketch_sample_every_n {
            0 => None,
            n => Some(bad_telemetry::SketchConfig {
                sample_every_n: n,
                ..bad_telemetry::SketchConfig::default()
            }),
        };
        let broker = Broker::new(
            policy,
            BrokerConfig {
                cache,
                net: config.net,
                shards: config.shards,
                sketches,
            },
        );

        let subscription_lifetime = match &config.subscription_lifetime {
            Some(spec) => Some(spec.validate()?),
            None => None,
        };
        let sampler = Sampler::new(config.sample_interval.as_micros());
        Ok(Self {
            policy,
            config,
            seed,
            broker,
            backend: SimBackend::new(),
            queue: EventQueue::new(),
            rng,
            subscribers,
            streams,
            frontends: HashMap::new(),
            sampler,
            tracer: Tracer::disabled(),
            popularity,
            subscription_lifetime,
        })
    }

    /// Routes the run's telemetry: cache and broker metric families
    /// on `registry`; lifecycle spans from the synthetic backend
    /// (virtual-time `result_produced` roots), the broker and the cache
    /// tier through `tracer`, so a run's notification lifecycles are
    /// reconstructable by `TraceId`; the rest of the record stream
    /// (retrieval summaries, TTL retunes, per-epoch `sim.epoch_sample`
    /// snapshots) into the tracer's sink too; and stage samples and
    /// lock-site series through `profiler`. Pass
    /// [`bad_telemetry::Tracer::disabled`] or
    /// [`bad_telemetry::Profiler::disabled`] for an observer you do not
    /// want. Every observer is metadata-only: the report is
    /// byte-identical with or without them.
    pub fn attach_telemetry(
        &mut self,
        registry: &Registry,
        tracer: SharedTracer,
        profiler: bad_telemetry::Profiler,
    ) {
        self.backend.set_tracer(std::sync::Arc::clone(&tracer));
        self.broker
            .attach_telemetry(registry, std::sync::Arc::clone(&tracer), profiler);
        self.tracer = tracer;
    }

    /// Runs the simulation to completion and reports the measurements.
    pub fn run(mut self) -> SimReport {
        let end = Timestamp::ZERO + self.config.duration;

        // Initial events: staggered joins, maintenance and sampling.
        for k in 0..self.subscribers.len() as u32 {
            let join_at = Timestamp::ZERO
                + SimDuration::from_secs_f64(
                    self.rng
                        .uniform(0.0, self.config.join_window.as_secs_f64().max(1.0)),
                );
            self.queue.push(join_at, Event::Join(k));
        }
        self.queue.push(
            Timestamp::ZERO + self.config.maintain_interval,
            Event::Maintain,
        );
        self.queue
            .push(Timestamp::ZERO + self.config.sample_interval, Event::Sample);

        while let Some((now, event)) = self.queue.pop() {
            if now >= end {
                break;
            }
            self.handle(event, now);
        }
        self.finish(end)
    }

    fn handle(&mut self, event: Event, now: Timestamp) {
        match event {
            Event::Join(k) => self.on_join(k, now),
            Event::ToggleOn(k) => self.on_toggle_on(k, now),
            Event::ToggleOff(k) => self.on_toggle_off(k, now),
            Event::Arrival(s) => self.on_arrival(s, now),
            Event::Retrieve { sub, fs } => self.on_retrieve(sub, fs, now),
            Event::Maintain => {
                self.broker.maintain(now);
                self.queue
                    .push(now + self.config.maintain_interval, Event::Maintain);
            }
            Event::Sample => {
                self.on_sample(now);
                self.queue
                    .push(now + self.config.sample_interval, Event::Sample);
            }
            Event::Resubscribe { sub, fs } => self.on_resubscribe(sub, fs, now),
        }
    }

    fn on_join(&mut self, k: u32, now: Timestamp) {
        // Index loop instead of cloning the stream list:
        // subscribe_to_stream needs `&mut self`, so a borrow of the
        // list can't be held across the calls.
        for i in 0..self.subscribers[k as usize].streams.len() {
            let s = self.subscribers[k as usize].streams[i];
            self.subscribe_to_stream(k, s, now);
        }
        let state = &mut self.subscribers[k as usize];
        state.joined = true;
        state.online = true;
        let on = state.churn.next_on_duration();
        self.queue.push(now + on, Event::ToggleOff(k));
    }

    /// Subscribes `k` to stream `s`, activating the stream's arrival
    /// process if needed and scheduling subscription churn when enabled.
    fn subscribe_to_stream(&mut self, k: u32, s: usize, now: Timestamp) {
        let channel = SimBackend::stream_channel(s);
        let fs = self
            .broker
            .subscribe(
                &mut self.backend,
                SubscriberId::new(k as u64),
                &channel,
                ParamBindings::new(),
                now,
            )
            .expect("synthetic subscribe cannot fail");
        let bs = self.backend.subscription_of(s).expect("just subscribed");
        self.frontends.insert((k, bs), fs);
        if !self.streams[s].active {
            self.streams[s].active = true;
            let delay = self.next_interarrival(s);
            self.queue.push(now + delay, Event::Arrival(s as u32));
        }
        if let Some(lifetime) = &self.subscription_lifetime {
            let secs = lifetime.sample(&mut self.rng).max(1.0);
            self.queue.push(
                now + SimDuration::from_secs_f64(secs),
                Event::Resubscribe { sub: k, fs },
            );
        }
    }

    /// Subscription churn: drop `fs` and subscribe to a fresh
    /// Zipf-sampled stream.
    fn on_resubscribe(&mut self, k: u32, fs: FrontendSubId, now: Timestamp) {
        let Some(frontend) = self.broker.subscriptions().frontend(fs) else {
            return; // already gone
        };
        let bs = frontend.backend;
        let subscriber = SubscriberId::new(k as u64);
        if self
            .broker
            .unsubscribe(&mut self.backend, subscriber, fs, now)
            .is_err()
        {
            return;
        }
        self.frontends.remove(&(k, bs));
        let new_stream = self.popularity.sample();
        // Track it so ToggleOn catch-ups keep working.
        self.subscribers[k as usize].streams.push(new_stream);
        self.subscribe_to_stream(k, new_stream, now);
    }

    fn on_toggle_on(&mut self, k: u32, now: Timestamp) {
        let state = &mut self.subscribers[k as usize];
        state.online = true;
        let on = state.churn.next_on_duration();
        self.queue.push(now + on, Event::ToggleOff(k));
        // Catch up on everything missed while offline.
        let _ = self
            .broker
            .get_all_pending(&mut self.backend, SubscriberId::new(k as u64), now);
    }

    fn on_toggle_off(&mut self, k: u32, now: Timestamp) {
        let state = &mut self.subscribers[k as usize];
        state.online = false;
        let off = state.churn.next_off_duration();
        self.queue.push(now + off, Event::ToggleOn(k));
    }

    fn on_arrival(&mut self, s: u32, now: Timestamp) {
        let stream = s as usize;
        let Some(bs) = self.backend.subscription_of(stream) else {
            self.streams[stream].active = false;
            return;
        };
        let (min_size, max_size) = self.config.object_size;
        let size = ByteSize::new(self.rng.range(min_size.as_u64(), max_size.as_u64()));
        let notification = self.backend.produce(bs, now, size);
        let outcome = self
            .broker
            .on_notification(&mut self.backend, notification, now);
        let notify_at = now + self.config.net.notify_latency();
        for subscriber in outcome.notify {
            let k = subscriber.as_u64() as u32;
            if self.subscribers[k as usize].online {
                if let Some(&fs) = self.frontends.get(&(k, bs)) {
                    self.queue.push(notify_at, Event::Retrieve { sub: k, fs });
                }
            }
        }
        let delay = self.next_interarrival(stream);
        self.queue.push(now + delay, Event::Arrival(s));
    }

    fn on_retrieve(&mut self, sub: u32, fs: FrontendSubId, now: Timestamp) {
        if !self.subscribers[sub as usize].online {
            return;
        }
        if !self.broker.has_pending(fs) {
            return; // already served by a batched earlier retrieval
        }
        let _ = self
            .broker
            .get_results(&mut self.backend, SubscriberId::new(sub as u64), fs, now);
    }

    /// One sampler epoch: snapshot occupancy, the cumulative hit ratio
    /// and (for policies that measure it) `Σ ρ_i·T_i`.
    fn on_sample(&mut self, now: Timestamp) {
        let cache = self.broker.cache();
        let expected_ttl_bytes =
            if matches!(cache.kind(), PolicyKind::TtlExpiry | PolicyKind::Eviction) {
                cache.expected_ttl_size(now).as_u64() as f64
            } else {
                0.0
            };
        let sample = Sample {
            t_us: now.as_micros(),
            occupancy_bytes: cache.total_bytes().as_u64(),
            hit_ratio: cache.metrics().hit_ratio().unwrap_or(0.0),
            expected_ttl_bytes,
        };
        self.tracer.record(&bad_telemetry::Event::EpochSample {
            t_us: sample.t_us,
            broker: 0,
            occupancy_bytes: sample.occupancy_bytes,
            hit_ratio: sample.hit_ratio,
            expected_ttl_bytes: sample.expected_ttl_bytes,
        });
        self.sampler.record(sample);
    }

    fn next_interarrival(&mut self, stream: usize) -> SimDuration {
        let secs = self
            .rng
            .exp(self.streams[stream].mean_interarrival_secs)
            .max(0.001);
        SimDuration::from_secs_f64(secs)
    }

    fn finish(self, end: Timestamp) -> SimReport {
        let cache = self.broker.cache();
        let metrics = cache.metrics();
        let delivery = self.broker.delivery_metrics();
        let (mut ttl_sum, mut ttl_count) = (0.0f64, 0usize);
        cache.for_each_cache(|c| {
            ttl_sum += c.ttl().as_secs_f64();
            ttl_count += 1;
        });
        let mean_ttl = if ttl_count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(ttl_sum / ttl_count as f64)
        };
        let expected_ttl_bytes = ByteSize::new(self.sampler.mean_expected_ttl_bytes() as u64);
        SimReport {
            policy: self.policy,
            cache_budget: self.config.cache_budget,
            seed: self.seed,
            hit_ratio: metrics.hit_ratio().unwrap_or(0.0),
            hit_bytes: metrics.hit_bytes,
            miss_bytes: metrics.miss_bytes,
            fetched_bytes: metrics.fetched_bytes(),
            vol_bytes: self.backend.volume(),
            mean_latency: delivery.mean_latency().unwrap_or(SimDuration::ZERO),
            mean_holding: metrics.mean_holding_time().unwrap_or(SimDuration::ZERO),
            avg_cache_bytes: metrics.time_averaged_bytes(end),
            max_cache_bytes: metrics.max_bytes,
            expected_ttl_bytes,
            mean_ttl,
            deliveries: delivery.deliveries,
            delivered_objects: delivery.delivered_objects,
            produced_objects: self.backend.produced_objects(),
            samples: self.sampler.into_samples(),
            hot: cache
                .hot_snapshot()
                .map(|snapshot| snapshot.summary_json(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bad_telemetry::{ProfileConfig, Profiler};

    fn run(policy: PolicyName, budget_kib: u64, seed: u64) -> SimReport {
        let config = SimConfig::smoke().with_budget(ByteSize::from_kib(budget_kib));
        Simulation::new(policy, config, seed).unwrap().run()
    }

    #[test]
    fn smoke_run_produces_sane_metrics() {
        let report = run(PolicyName::Lsc, 200, 1);
        assert!(report.produced_objects > 0);
        assert!(report.deliveries > 0);
        assert!((0.0..=1.0).contains(&report.hit_ratio));
        assert!(report.fetched_bytes >= report.miss_bytes);
        assert!(report.mean_latency > SimDuration::ZERO);
        // The sampler series covers the run at the configured interval.
        assert!(!report.samples.is_empty());
        assert!(report.samples.windows(2).all(|w| w[0].t_us < w[1].t_us));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(PolicyName::Ttl, 200, 7);
        let b = run(PolicyName::Ttl, 200, 7);
        assert_eq!(a, b);
        let c = run(PolicyName::Ttl, 200, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn eviction_policies_respect_budget_in_sim() {
        for policy in [
            PolicyName::Lru,
            PolicyName::Lsc,
            PolicyName::Lscz,
            PolicyName::Lsd,
        ] {
            let report = run(policy, 100, 3);
            assert!(
                report.max_cache_bytes <= ByteSize::from_kib(100),
                "{policy}: max {} > budget",
                report.max_cache_bytes
            );
        }
    }

    #[test]
    fn nc_never_hits_and_never_caches() {
        let report = run(PolicyName::Nc, 200, 4);
        assert_eq!(report.hit_ratio, 0.0);
        assert_eq!(report.max_cache_bytes, ByteSize::ZERO);
        assert!(report.miss_bytes > ByteSize::ZERO);
        assert!(report.delivered_objects > 0);
    }

    #[test]
    fn bigger_cache_does_not_hurt_hit_ratio() {
        let small = run(PolicyName::Lsc, 50, 5);
        let large = run(PolicyName::Lsc, 5000, 5);
        assert!(
            large.hit_ratio >= small.hit_ratio - 0.02,
            "small {} vs large {}",
            small.hit_ratio,
            large.hit_ratio
        );
    }

    #[test]
    fn caching_beats_no_cache_on_latency() {
        let cached = run(PolicyName::Lsc, 2000, 6);
        let nc = run(PolicyName::Nc, 2000, 6);
        assert!(
            cached.mean_latency < nc.mean_latency,
            "cached {} !< nc {}",
            cached.mean_latency,
            nc.mean_latency
        );
        assert!(cached.fetched_bytes < nc.fetched_bytes);
    }

    #[test]
    fn subscription_churn_keeps_the_system_consistent() {
        // Table II lists a per-subscription lifetime; with churn enabled
        // subscribers keep moving between streams and everything still
        // delivers, deterministically.
        let mut config = SimConfig::smoke().with_budget(ByteSize::from_kib(200));
        config.subscription_lifetime = Some(bad_workload::LognormalSpec::new(60.0, 30.0));
        let a = Simulation::new(PolicyName::Lsc, config.clone(), 11)
            .unwrap()
            .run();
        let b = Simulation::new(PolicyName::Lsc, config.clone(), 11)
            .unwrap()
            .run();
        assert_eq!(a, b, "churny runs stay deterministic");
        assert!(a.delivered_objects > 0);
        assert!((0.0..=1.0).contains(&a.hit_ratio));
        // Churn should not break the fetch decomposition.
        assert_eq!(a.fetched_bytes, a.vol_bytes + a.miss_bytes);
        // And the workload really differs from the no-churn baseline.
        config.subscription_lifetime = None;
        let still = Simulation::new(PolicyName::Lsc, config, 11).unwrap().run();
        assert_ne!(a.deliveries, still.deliveries);
    }

    #[test]
    fn ttl_policy_tracks_expected_size() {
        let report = run(PolicyName::Ttl, 200, 9);
        // TTL caches measure Σρ_i·T_i and assign finite TTLs.
        assert!(report.expected_ttl_bytes > ByteSize::ZERO);
        assert!(report.mean_ttl > SimDuration::ZERO);
        assert!(report.mean_holding > SimDuration::ZERO);
        // The per-epoch series backs the scalar: its mean is the report value.
        assert!(report.samples.iter().any(|s| s.expected_ttl_bytes > 0.0));
    }

    #[test]
    fn profiled_run_is_report_identical_and_publishes_stage_series() {
        // Acceptance: profiling is metadata-only — a fully profiled run
        // (every op sampled) produces the byte-identical report of an
        // unprofiled run with the same seed, while the registry carries
        // the stage-latency and lock-site series.
        let config = SimConfig::smoke().with_budget(ByteSize::from_kib(200));
        let mut sim = Simulation::new(PolicyName::Lsc, config, 7).unwrap();
        let registry = Registry::new();
        sim.attach_telemetry(
            &registry,
            Tracer::disabled(),
            Profiler::new(&registry, ProfileConfig { sample_every_n: 1 }),
        );
        let profiled = sim.run();

        let baseline = run(PolicyName::Lsc, 200, 7);
        assert_eq!(profiled, baseline, "profiling perturbs the live run");

        let text = registry.render();
        assert!(
            text.contains("bad_profile_stage_ns_count{stage=\"insert\"}"),
            "missing insert stage series:\n{text}"
        );
        assert!(
            text.contains("bad_profile_stage_ns_count{stage=\"get_all_pending\"}"),
            "missing retrieval stage series:\n{text}"
        );
        assert!(
            text.contains("bad_profile_lock_acquisitions_total{site=\"cache_shard0\"}"),
            "missing shard lock site:\n{text}"
        );
    }

    #[test]
    fn sketched_run_is_report_identical_and_surfaces_hot_keys() {
        // Acceptance: sketches are metadata-only — a fully sketched run
        // (every op recorded) matches the unsketched baseline on every
        // report field except the `hot` summary it gains, and the
        // summary names the run's heavy hitters deterministically.
        let mut config = SimConfig::smoke().with_budget(ByteSize::from_kib(200));
        config.sketch_sample_every_n = 1;
        let sketched = Simulation::new(PolicyName::Lsc, config.clone(), 7)
            .unwrap()
            .run();

        let hot = sketched.hot.clone().expect("sketches enabled");
        assert!(
            hot.contains("\"top_requests\"") && hot.contains("\"distinct_active_estimate\""),
            "hot summary missing fields: {hot}"
        );

        let mut scrubbed = sketched.clone();
        scrubbed.hot = None;
        let baseline = run(PolicyName::Lsc, 200, 7);
        assert_eq!(scrubbed, baseline, "sketching perturbs the live run");

        // Deterministic per seed, including the rendered summary.
        let again = Simulation::new(PolicyName::Lsc, config, 7).unwrap().run();
        assert_eq!(sketched, again, "sketched runs stay deterministic");
    }

    #[test]
    fn attached_sink_sees_epoch_samples() {
        use std::sync::Arc;

        let config = SimConfig::smoke().with_budget(ByteSize::from_kib(200));
        let mut sim = Simulation::new(PolicyName::Ttl, config, 12).unwrap();
        let registry = Registry::new();
        // Large enough that no event of the smoke run is ever dropped;
        // the tracer keeps no span and no retrieval summary (both
        // follow the trace sampling), so the ring holds only the other
        // records.
        let ring = Arc::new(bad_telemetry::RingBufferSink::new(1 << 17));
        let tracer = Tracer::new(
            &registry,
            ring.clone(),
            Arc::new(bad_telemetry::FlightRecorder::new(1, 1)),
            bad_telemetry::TraceConfig {
                trace_sample_every_n: 0,
                ..Default::default()
            },
        );
        sim.attach_telemetry(&registry, tracer, Profiler::disabled());
        let report = sim.run();

        assert!(
            ring.len() < 1 << 17,
            "ring saturated; epoch count would be unreliable"
        );
        let epochs = ring
            .events()
            .iter()
            .filter(|e| matches!(e, bad_telemetry::Event::EpochSample { .. }))
            .count();
        assert_eq!(epochs, report.samples.len());
        // The metric families registered by the attach are live too.
        let text = registry.render();
        assert!(text.contains("bad_cache_hit_objects_total"));
        assert!(text.contains("bad_broker_retrievals_total"));
    }
}
