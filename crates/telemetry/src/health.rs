//! The continuous health engine: timeseries + alerts + drift in one
//! windowed tick.
//!
//! The engine composes the three layers of this PR into a single
//! cache-agnostic object owned by whoever drives virtual time (the
//! proto runtime's maintenance arm, the simulator's sampler epoch, a
//! bench loop):
//!
//! * a [`TimeSeriesStore`] snapshotting the whole registry each window,
//! * an [`AlertManager`] with two SLO burn-rate rules over the
//!   tracer's violation counters (`delivery_latency`, `staleness`)
//!   plus a `model_drift` threshold rule,
//! * a [`DriftDetector`] fed per-window observed hit ratio (cache
//!   hit/miss counter deltas), observed staleness
//!   (`bad_trace_staleness_us` deltas) and occupancy, against the
//!   eq. 5–7 prediction supplied by the caller (the cache tier owns
//!   λ/η/ρ/TTL measurement; the engine never reaches into a cache).
//!
//! Everything happens inside `tick`, which is deadline-gated exactly
//! like [`crate::Sampler`]: hot paths pay nothing, and the per-window
//! work is two registry sweeps and a handful of subtractions.

use std::sync::{Arc, Mutex};

use crate::alert::{AlertManager, BurnRateRule, TransitionRecord, ValueSource};
use crate::drift::{DriftConfig, DriftDetector, DriftSample, ModelPrediction};
use crate::event::SharedSink;
use crate::registry::{Counter, Gauge, Registry};
use crate::timeseries::{TimeSeriesConfig, TimeSeriesStore};
use crate::trace::FlightRecorder;

/// Health-engine tuning: window cadence, SLO budgets, burn-rate
/// windows (all in virtual time) and drift scoring.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Snapshot / evaluation window in virtual microseconds.
    pub window_us: u64,
    /// Retained windows in the timeseries ring.
    pub timeseries_capacity: usize,
    /// SLO error budget (fraction of requests allowed to violate).
    pub slo_budget: f64,
    /// Fast burn window, in health windows.
    pub fast_windows: u32,
    /// Slow burn window, in health windows.
    pub slow_windows: u32,
    /// Fast-window burn threshold.
    pub fast_factor: f64,
    /// Slow-window burn threshold.
    pub slow_factor: f64,
    /// Dwell before Pending → Firing, in health windows.
    pub pending_windows: u32,
    /// Linger in Resolved, in health windows.
    pub resolve_hold_windows: u32,
    /// Drift scoring knobs.
    pub drift: DriftConfig,
    /// `hot_skew` alert threshold: the top-K share of all requests
    /// (from the sketch layer's heavy-hitter readout) above which the
    /// demand-concentration alert arms. `≥ 1.0` effectively disables
    /// it on non-degenerate workloads.
    pub hot_skew_threshold: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            window_us: TimeSeriesConfig::default().window_us,
            timeseries_capacity: TimeSeriesConfig::default().capacity,
            slo_budget: 0.01,
            // The classic multi-window pairing scaled to virtual
            // minutes: a 5-window fast burn catches regressions within
            // minutes, the 30-window slow burn suppresses blips.
            fast_windows: 5,
            slow_windows: 30,
            fast_factor: 14.4,
            slow_factor: 6.0,
            pending_windows: 1,
            resolve_hold_windows: 2,
            drift: DriftConfig::default(),
            hot_skew_threshold: 0.9,
        }
    }
}

/// What the driving tier observed this window — the only inputs the
/// engine cannot read off the registry itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealthObservation {
    /// Current cache occupancy in bytes.
    pub occupancy_bytes: u64,
    /// Configured cache budget in bytes.
    pub budget_bytes: u64,
    /// The eq. 5–7 prediction for this window, when the cache tier has
    /// model inputs (see `bad_cache`'s `model_inputs`). `None` skips
    /// drift scoring for the window.
    pub model: Option<ModelPrediction>,
    /// Demand concentration from the sketch layer: the top-K keys'
    /// share of all requests in `[0, 1]` (see
    /// `bad_telemetry::sketch::HotSnapshot::skew`). `None` when
    /// sketches are disabled — the gauge holds its last value and the
    /// `hot_skew` rule stays quiet.
    pub hot_skew: Option<f64>,
}

/// Cumulative counter readings from the previous window, for delta
/// computation.
#[derive(Clone, Copy, Debug, Default)]
struct LastObserved {
    hits: u64,
    misses: u64,
    staleness_sum: u64,
    staleness_count: u64,
}

/// The assembled engine. Shareable; all methods are `&self`.
pub struct HealthEngine {
    timeseries: TimeSeriesStore,
    alerts: AlertManager,
    drift: Mutex<DriftDetector>,
    last: Mutex<LastObserved>,
    hits: Counter,
    misses: Counter,
    staleness_us: crate::Histogram,
    drift_score_milli: Gauge,
    hot_skew_milli: Gauge,
    observed_hit_ratio_milli: Gauge,
    predicted_hit_ratio_milli: Gauge,
    windows_total: Counter,
    window_us: u64,
}

impl HealthEngine {
    /// Builds the engine over `registry`, wiring the two SLO burn-rate
    /// rules and the `model_drift` rule. `recorder`/`sink` receive
    /// alert transitions. The counter/histogram handles are fetched by
    /// the tracer's and cache telemetry's metric names, so the engine
    /// observes whatever those layers record — including nothing, when
    /// tracing is disabled (no traffic, no burn).
    pub fn new(
        registry: &Registry,
        recorder: Arc<FlightRecorder>,
        sink: SharedSink,
        config: HealthConfig,
    ) -> Arc<Self> {
        let w = config.window_us;
        let windows = |n: u32| w.saturating_mul(n as u64);
        let alerts = AlertManager::new(registry, recorder, sink);
        let delivery_violations = registry.counter("bad_delivery_latency_slo_violations_total");
        let delivery_volume = registry.histogram("bad_trace_delivery_lag_us");
        let staleness_violations = registry.counter("bad_staleness_slo_violations_total");
        let staleness_volume = registry.histogram("bad_trace_staleness_us");
        alerts.add_burn_rate(
            BurnRateRule {
                name: "delivery_latency_burn",
                budget: config.slo_budget,
                fast_window_us: windows(config.fast_windows),
                slow_window_us: windows(config.slow_windows),
                fast_factor: config.fast_factor,
                slow_factor: config.slow_factor,
                pending_for_us: windows(config.pending_windows),
                resolve_hold_us: windows(config.resolve_hold_windows),
            },
            ValueSource::Counter(delivery_violations),
            ValueSource::HistogramCount(delivery_volume),
        );
        alerts.add_burn_rate(
            BurnRateRule {
                name: "staleness_burn",
                budget: config.slo_budget,
                fast_window_us: windows(config.fast_windows),
                slow_window_us: windows(config.slow_windows),
                fast_factor: config.fast_factor,
                slow_factor: config.slow_factor,
                pending_for_us: windows(config.pending_windows),
                resolve_hold_us: windows(config.resolve_hold_windows),
            },
            ValueSource::Counter(staleness_violations),
            ValueSource::HistogramCount(staleness_volume.clone()),
        );
        let drift_score_milli = registry.gauge("bad_health_drift_score_milli");
        alerts.add_gauge_above(
            "model_drift",
            drift_score_milli.clone(),
            config.drift.threshold,
            windows(config.pending_windows),
            windows(config.resolve_hold_windows),
        );
        let hot_skew_milli = registry.gauge("bad_health_hot_skew_milli");
        alerts.add_gauge_above(
            "hot_skew",
            hot_skew_milli.clone(),
            config.hot_skew_threshold,
            windows(config.pending_windows),
            windows(config.resolve_hold_windows),
        );
        Arc::new(Self {
            timeseries: TimeSeriesStore::new(
                registry.clone(),
                TimeSeriesConfig {
                    window_us: config.window_us,
                    capacity: config.timeseries_capacity,
                },
            ),
            alerts,
            drift: Mutex::new(DriftDetector::new(config.drift)),
            last: Mutex::new(LastObserved::default()),
            hits: registry.counter("bad_cache_hit_objects_total"),
            misses: registry.counter("bad_cache_miss_objects_total"),
            staleness_us: staleness_volume,
            drift_score_milli,
            hot_skew_milli,
            observed_hit_ratio_milli: registry.gauge("bad_health_observed_hit_ratio_milli"),
            predicted_hit_ratio_milli: registry.gauge("bad_health_predicted_hit_ratio_milli"),
            windows_total: registry.counter("bad_health_windows_total"),
            window_us: config.window_us,
        })
    }

    /// Whether a window boundary has been crossed — callers on
    /// maintenance paths check this before assembling observations.
    pub fn due(&self, t_us: u64) -> bool {
        self.timeseries.due(t_us)
    }

    /// The health window width in virtual microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Runs one health window at virtual `t_us` if due: snapshots the
    /// timeseries, scores drift against `observation`, evaluates every
    /// alert rule. Returns the alert transitions (empty when not due).
    pub fn tick(&self, t_us: u64, observation: HealthObservation) -> Vec<TransitionRecord> {
        if !self.timeseries.tick(t_us) {
            return Vec::new();
        }
        self.windows_total.inc();
        // Windowed observed values: deltas of the cumulative counters
        // since the previous window.
        let now = LastObserved {
            hits: self.hits.get(),
            misses: self.misses.get(),
            staleness_sum: self.staleness_us.sum(),
            staleness_count: self.staleness_us.count(),
        };
        let prev = {
            let mut last = self.last.lock().expect("health last poisoned");
            std::mem::replace(&mut *last, now)
        };
        let d_hits = now.hits.saturating_sub(prev.hits);
        let d_misses = now.misses.saturating_sub(prev.misses);
        let observed_hit_ratio =
            (d_hits + d_misses > 0).then(|| d_hits as f64 / (d_hits + d_misses) as f64);
        let d_st_count = now.staleness_count.saturating_sub(prev.staleness_count);
        let observed_staleness_us = (d_st_count > 0).then(|| {
            now.staleness_sum.saturating_sub(prev.staleness_sum) as f64 / d_st_count as f64
        });
        if let Some(h) = observed_hit_ratio {
            self.observed_hit_ratio_milli.set((h * 1000.0) as u64);
        }
        if let Some(skew) = observation.hot_skew {
            self.hot_skew_milli
                .set((skew.clamp(0.0, 1.0) * 1000.0) as u64);
        }
        if let Some(model) = observation.model {
            self.predicted_hit_ratio_milli
                .set((model.hit_ratio.clamp(0.0, 1.0) * 1000.0) as u64);
            let score = self
                .drift
                .lock()
                .expect("drift detector poisoned")
                .observe(DriftSample {
                    predicted: model,
                    observed_hit_ratio,
                    observed_staleness_us,
                    occupancy_bytes: observation.occupancy_bytes,
                    budget_bytes: observation.budget_bytes,
                });
            self.drift_score_milli
                .set((score.clamp(0.0, 1.0) * 1000.0) as u64);
        }
        self.alerts.evaluate(t_us)
    }

    /// The timeseries store (queries, JSON).
    pub fn timeseries(&self) -> &TimeSeriesStore {
        &self.timeseries
    }

    /// The alert manager (states, JSON).
    pub fn alerts(&self) -> &AlertManager {
        &self.alerts
    }

    /// Current smoothed drift score in `[0, 1]`.
    pub fn drift_score(&self) -> f64 {
        self.drift.lock().expect("drift detector poisoned").score()
    }

    /// The `/timeseries` endpoint body (bounded raw tail of 8 windows,
    /// summaries over the trailing 30).
    pub fn timeseries_json(&self) -> String {
        self.timeseries.to_json(8, 30)
    }

    /// The `/alerts` endpoint body.
    pub fn alerts_json(&self) -> String {
        self.alerts.to_json()
    }

    /// The compact health summary embedded in `/healthz`: alert counts
    /// + firing rule names + drift state.
    pub fn summary_json(&self) -> String {
        let mut body = String::with_capacity(384);
        {
            let mut obj = crate::json::ObjectWriter::new(&mut body);
            obj.field_u64("windows", self.timeseries.total_windows());
            obj.field_raw("alerts", &self.alerts.summary_json());
            obj.field_raw(
                "drift",
                &self
                    .drift
                    .lock()
                    .expect("drift detector poisoned")
                    .to_json(),
            );
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::null_sink;

    const W: u64 = 60_000_000; // default window

    fn engine(registry: &Registry, config: HealthConfig) -> Arc<HealthEngine> {
        let recorder = Arc::new(FlightRecorder::new(1, 16));
        HealthEngine::new(registry, recorder, null_sink(), config)
    }

    #[test]
    fn tick_is_window_gated() {
        let registry = Registry::new();
        let e = engine(&registry, HealthConfig::default());
        assert!(e.due(0));
        e.tick(0, HealthObservation::default());
        assert!(!e.due(W / 2));
        assert!(e.tick(W / 2, HealthObservation::default()).is_empty());
        assert_eq!(e.timeseries().total_windows(), 1);
        e.tick(W, HealthObservation::default());
        assert_eq!(e.timeseries().total_windows(), 2);
        assert!(registry.render().contains("bad_health_windows_total 2"));
    }

    #[test]
    fn drift_alert_fires_when_model_diverges() {
        let registry = Registry::new();
        let config = HealthConfig {
            drift: DriftConfig {
                warmup_windows: 0,
                alpha: 0.5,
                ..DriftConfig::default()
            },
            ..HealthConfig::default()
        };
        let e = engine(&registry, config);
        let hits = registry.counter("bad_cache_hit_objects_total");
        let misses = registry.counter("bad_cache_miss_objects_total");
        // Model predicts 90% hits; reality delivers 90%: no drift.
        let model = ModelPrediction {
            hit_ratio: 0.9,
            mean_staleness_us: 0.0,
            expected_bytes: 1000.0,
            subscriptions: 1,
        };
        let obs = HealthObservation {
            occupancy_bytes: 1000,
            budget_bytes: 100_000,
            model: Some(model),
            hot_skew: None,
        };
        for i in 0..4u64 {
            hits.add(90);
            misses.add(10);
            e.tick(i * W, obs);
        }
        assert_eq!(
            e.alerts().state_of("model_drift"),
            Some(crate::alert::AlertState::Inactive)
        );
        assert!(e.drift_score() < 0.05, "score {}", e.drift_score());
        // Regime shift: reality collapses to 0% hits. The score rises
        // and the alert walks pending → firing within a bounded number
        // of windows.
        let mut fired_at = None;
        for i in 4..16u64 {
            misses.add(100);
            let transitions = e.tick(i * W, obs);
            if transitions
                .iter()
                .any(|t| t.rule == "model_drift" && t.to == crate::alert::AlertState::Firing)
            {
                fired_at = Some(i - 4);
                break;
            }
        }
        let fired_at = fired_at.expect("drift alert never fired");
        assert!(fired_at <= 8, "took {fired_at} windows");
        assert!(registry.render().contains("bad_health_alerts_firing 1"));
        assert!(e.summary_json().contains("model_drift"));
    }

    #[test]
    fn hot_skew_alert_fires_on_sustained_concentration() {
        let registry = Registry::new();
        let e = engine(&registry, HealthConfig::default());
        // Below threshold: rule stays inactive.
        e.tick(
            0,
            HealthObservation {
                hot_skew: Some(0.5),
                ..HealthObservation::default()
            },
        );
        assert_eq!(
            e.alerts().state_of("hot_skew"),
            Some(crate::alert::AlertState::Inactive)
        );
        assert!(registry.render().contains("bad_health_hot_skew_milli 500"));
        // Sustained concentration above the 0.9 default walks the rule
        // pending → firing.
        let mut fired = false;
        for i in 1..6u64 {
            let transitions = e.tick(
                i * W,
                HealthObservation {
                    hot_skew: Some(0.97),
                    ..HealthObservation::default()
                },
            );
            if transitions
                .iter()
                .any(|t| t.rule == "hot_skew" && t.to == crate::alert::AlertState::Firing)
            {
                fired = true;
                break;
            }
        }
        assert!(fired, "hot_skew never fired");
        // Sketches off (None): the gauge holds and the alert resolves
        // back down eventually rather than flapping on missing data.
        e.tick(10 * W, HealthObservation::default());
        assert!(registry.render().contains("bad_health_hot_skew_milli 970"));
    }

    #[test]
    fn summary_and_endpoint_bodies_are_json_objects() {
        let registry = Registry::new();
        let e = engine(&registry, HealthConfig::default());
        e.tick(0, HealthObservation::default());
        for body in [e.timeseries_json(), e.alerts_json(), e.summary_json()] {
            assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        }
        assert!(e.alerts_json().contains("delivery_latency_burn"));
        assert!(e.alerts_json().contains("staleness_burn"));
        assert!(e.alerts_json().contains("model_drift"));
        assert!(e.summary_json().contains("\"drift\""));
    }
}
