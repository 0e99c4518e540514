//! Analytical-model drift detection: eqs. 5–7 as a live predictor.
//!
//! The paper's TTL model measures, per backend subscription `i`, the
//! notification arrival rate λᵢ and consumption rate ηᵢ, forms the
//! growth rate ρᵢ = (λᵢ − ηᵢ)⁺ and assigns TTLs `Tᵢ = nᵢ·B / Σⱼ nⱼ·ρⱼ`
//! (eq. 7) so the budget identity `Σ ρᵢ·Tᵢ = B` (eq. 5) holds. That
//! same model *predicts* observable behaviour: assuming Poisson
//! consumption (the paper's eq. 6 setting), a subscriber's retrieval
//! delay `D` is exponential with per-subscriber rate μᵢ = ηᵢ/nᵢ, so
//!
//! * predicted hit ratio of subscription `i`: `pᵢ = 1 − e^(−μᵢ·Tᵢ)`
//!   (the retrieval arrives before the TTL expires the object),
//! * predicted staleness of a hit: `E[D | D < Tᵢ] = 1/μᵢ −
//!   Tᵢ·e^(−μᵢ·Tᵢ) / (1 − e^(−μᵢ·Tᵢ))`,
//! * predicted steady-state occupancy: `Σ ρᵢ·Tᵢ` (eq. 5 itself).
//!
//! Aggregating with demand weights `wᵢ = nᵢ·λᵢ` (each arriving object
//! is wanted by `nᵢ` subscribers) gives fleet-level predictions that
//! the [`DriftDetector`] compares against *observed* windowed hit
//! ratio, staleness and occupancy. The absolute errors blend into an
//! exponentially-smoothed drift score in `[0, 1]`; a score that stays
//! high means reality has diverged from the model — a mis-provisioned
//! budget, a regime shift, or a workload the Poisson assumptions no
//! longer describe — and the health engine's `model_drift` alert
//! fires.
//!
//! [`EventRateEstimator`] mirrors the cache tier's byte-rate
//! estimator but counts *events*, giving λ̂/η̂ in events/s; the
//! property tests drive it with synthetic Poisson streams and check
//! the predicted hit ratio against the closed forms above.

use std::collections::VecDeque;

use crate::json::ObjectWriter;

/// Sliding-window event-rate estimator (events per second over the
/// trailing `window_us` of virtual time). The cache tier measures λ/η
/// in *bytes* per second for the TTL computer; drift prediction needs
/// the event-rate view of the same streams because hit probability is
/// about whether *a retrieval happens*, not how many bytes it moves.
#[derive(Clone, Debug)]
pub struct EventRateEstimator {
    window_us: u64,
    events: VecDeque<u64>,
}

impl EventRateEstimator {
    /// Creates an estimator over a `window_us`-wide sliding window.
    pub fn new(window_us: u64) -> Self {
        Self {
            window_us: window_us.max(1),
            events: VecDeque::new(),
        }
    }

    /// Records one event at virtual `t_us`, pruning anything outside
    /// the window ending at `t_us`.
    pub fn record(&mut self, t_us: u64) {
        self.events.push_back(t_us);
        let cutoff = t_us.saturating_sub(self.window_us);
        while self.events.front().is_some_and(|&t| t < cutoff) {
            self.events.pop_front();
        }
    }

    /// Events inside the window ending at `now_us` (pure read).
    pub fn events_in_window(&self, now_us: u64) -> u64 {
        let cutoff = now_us.saturating_sub(self.window_us);
        self.events.iter().filter(|&&t| t >= cutoff).count() as u64
    }

    /// Estimated rate in events/second over the window ending at
    /// `now_us`.
    pub fn rate_per_sec(&self, now_us: u64) -> f64 {
        self.events_in_window(now_us) as f64 / (self.window_us as f64 / 1e6)
    }
}

/// One backend subscription's model inputs, as measured by the cache
/// tier at prediction time.
#[derive(Clone, Copy, Debug)]
pub struct SubscriptionModel {
    /// Subscriber count `nᵢ`.
    pub subscribers: u64,
    /// Measured arrival rate λ̂ᵢ in events/s.
    pub lambda_events_per_s: f64,
    /// Measured aggregate consumption rate η̂ᵢ in events/s (all `nᵢ`
    /// subscribers combined).
    pub eta_events_per_s: f64,
    /// Measured growth rate ρᵢ = (λᵢ − ηᵢ)⁺ in *bytes*/s — the eq. 5
    /// occupancy prediction is a byte quantity.
    pub rho_bytes_per_s: f64,
    /// The TTL `Tᵢ` currently in force, in seconds.
    pub ttl_s: f64,
}

/// Fleet-level model outputs for one prediction window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelPrediction {
    /// Demand-weighted predicted hit ratio in `[0, 1]`.
    pub hit_ratio: f64,
    /// Predicted mean staleness of a hit, in microseconds.
    pub mean_staleness_us: f64,
    /// Predicted steady-state occupancy `Σ ρᵢ·Tᵢ` in bytes (eq. 5).
    pub expected_bytes: f64,
    /// Subscriptions that contributed.
    pub subscriptions: u64,
}

/// Per-subscription closed forms (exposed for the property tests).
///
/// Returns `(hit probability, mean staleness of a hit in seconds)` for
/// per-subscriber consumption rate `mu` (events/s) and TTL `ttl_s`.
pub fn per_subscription_prediction(mu: f64, ttl_s: f64) -> (f64, f64) {
    if mu <= 0.0 || ttl_s <= 0.0 {
        return (0.0, 0.0);
    }
    let x = mu * ttl_s;
    let p = 1.0 - (-x).exp();
    if p <= f64::EPSILON {
        return (0.0, 0.0);
    }
    // E[D | D < T] for D ~ Exp(mu): 1/mu − T·e^{−x}/(1−e^{−x}).
    let staleness = 1.0 / mu - ttl_s * (-x).exp() / p;
    (p, staleness.max(0.0))
}

/// Evaluates eqs. 5–7 over the measured per-subscription inputs.
pub fn predict(models: &[SubscriptionModel]) -> ModelPrediction {
    let mut weight_sum = 0.0;
    let mut hit_weighted = 0.0;
    let mut staleness_weighted = 0.0;
    let mut staleness_weight = 0.0;
    let mut expected_bytes = 0.0;
    for m in models {
        let n = m.subscribers.max(1) as f64;
        let mu = (m.eta_events_per_s / n).max(0.0);
        let (p, staleness_s) = per_subscription_prediction(mu, m.ttl_s);
        // Demand weight: each arriving object is wanted by n subscribers.
        let w = n * m.lambda_events_per_s.max(0.0);
        weight_sum += w;
        hit_weighted += w * p;
        staleness_weighted += w * p * staleness_s;
        staleness_weight += w * p;
        expected_bytes += m.rho_bytes_per_s.max(0.0) * m.ttl_s.max(0.0);
    }
    ModelPrediction {
        hit_ratio: if weight_sum > 0.0 {
            hit_weighted / weight_sum
        } else {
            0.0
        },
        mean_staleness_us: if staleness_weight > 0.0 {
            staleness_weighted / staleness_weight * 1e6
        } else {
            0.0
        },
        expected_bytes,
        subscriptions: models.len() as u64,
    }
}

/// Weights of the |predicted − observed| hit-ratio error, of the
/// occupancy error (normalised by the budget) and of the staleness
/// error (normalised by the larger of the two values).
const HIT_WEIGHT: f64 = 0.6;
const SIZE_WEIGHT: f64 = 0.3;
const STALENESS_WEIGHT: f64 = 0.1;
/// Score at or above which the `model_drift` alert condition holds.
pub(crate) const THRESHOLD: f64 = 0.25;

/// Drift-score tuning.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// EWMA smoothing factor for the score (weight of the newest
    /// window's error).
    pub alpha: f64,
    /// Windows to observe before the score is considered meaningful
    /// (estimators and TTLs need to warm up).
    pub warmup_windows: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            alpha: 0.3,
            warmup_windows: 3,
        }
    }
}

/// One window's observation fed to the detector.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriftSample {
    /// Model outputs for the window.
    pub predicted: ModelPrediction,
    /// Observed windowed hit ratio, if any retrieval happened.
    pub observed_hit_ratio: Option<f64>,
    /// Observed windowed mean staleness in µs, if anything was dropped.
    pub observed_staleness_us: Option<f64>,
    /// Observed cache occupancy in bytes.
    pub occupancy_bytes: u64,
    /// Configured budget in bytes (normalises the occupancy error).
    pub budget_bytes: u64,
}

/// The exponentially-smoothed model-vs-reality scorer.
#[derive(Clone, Copy, Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    score: f64,
    windows: u64,
    last_hit_error: f64,
    last_size_error: f64,
    last_staleness_error: f64,
}

impl DriftDetector {
    /// Creates a detector with score 0.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            score: 0.0,
            windows: 0,
            last_hit_error: 0.0,
            last_size_error: 0.0,
            last_staleness_error: 0.0,
        }
    }

    /// Feeds one window and returns the new score. Observations that
    /// are absent (no retrievals, no drops this window) contribute no
    /// error — silence is not drift.
    pub fn observe(&mut self, sample: DriftSample) -> f64 {
        self.windows += 1;
        let c = &self.config;
        self.last_hit_error = sample
            .observed_hit_ratio
            .map(|h| (sample.predicted.hit_ratio - h).abs())
            .unwrap_or(0.0);
        self.last_size_error = if sample.budget_bytes > 0 {
            ((sample.predicted.expected_bytes - sample.occupancy_bytes as f64).abs()
                / sample.budget_bytes as f64)
                .min(1.0)
        } else {
            0.0
        };
        self.last_staleness_error = sample
            .observed_staleness_us
            .map(|obs| {
                let pred = sample.predicted.mean_staleness_us;
                let denom = pred.max(obs);
                if denom > 0.0 {
                    ((pred - obs).abs() / denom).min(1.0)
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0);
        let error = (HIT_WEIGHT * self.last_hit_error
            + SIZE_WEIGHT * self.last_size_error
            + STALENESS_WEIGHT * self.last_staleness_error)
            .min(1.0);
        if self.windows <= c.warmup_windows {
            // Warm-up: track the error without letting early estimator
            // noise trip the alert.
            self.score = 0.0;
        } else {
            self.score = c.alpha * error + (1.0 - c.alpha) * self.score;
        }
        self.score
    }

    /// Current smoothed score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Whether the score is at or above the alert threshold.
    pub fn breached(&self) -> bool {
        self.score >= THRESHOLD
    }

    /// Windows observed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The configured alert threshold.
    pub fn threshold(&self) -> f64 {
        THRESHOLD
    }

    /// Renders the detector state (score + last per-component errors)
    /// for `/healthz`.
    pub fn to_json(&self) -> String {
        let mut body = String::with_capacity(192);
        {
            let mut obj = ObjectWriter::new(&mut body);
            obj.field_f64("score", self.score);
            obj.field_f64("threshold", THRESHOLD);
            obj.field_u64("windows", self.windows);
            obj.field_f64("hit_error", self.last_hit_error);
            obj.field_f64("size_error", self.last_size_error);
            obj.field_f64("staleness_error", self.last_staleness_error);
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* for the synthetic Poisson streams —
    /// no crates.io RNG in this workspace.
    struct XorShift64(u64);

    impl XorShift64 {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn uniform(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Exponential inter-arrival with rate `lambda` (per second),
        /// in microseconds.
        fn exp_us(&mut self, lambda: f64) -> u64 {
            let u = self.uniform().max(1e-12);
            ((-u.ln() / lambda) * 1e6) as u64
        }
    }

    #[test]
    fn estimator_converges_on_poisson_streams() {
        // Property: over many seeds and rates, the windowed estimate
        // lands within 15% of the true rate once the window is full.
        for (seed, lambda) in [(1u64, 5.0f64), (7, 50.0), (13, 200.0), (99, 1000.0)] {
            let mut rng = XorShift64(seed);
            let window_us = 20_000_000; // 20 s window
            let mut est = EventRateEstimator::new(window_us);
            let mut t = 0u64;
            // Run 10 windows of virtual time.
            while t < 10 * window_us {
                t += rng.exp_us(lambda);
                est.record(t);
            }
            let estimate = est.rate_per_sec(t);
            let rel = (estimate - lambda).abs() / lambda;
            assert!(
                rel < 0.15,
                "seed {seed}: lambda {lambda}, estimate {estimate}, rel err {rel}"
            );
        }
    }

    #[test]
    fn estimator_prunes_to_window() {
        let mut est = EventRateEstimator::new(1_000_000);
        for t in [0u64, 100, 200, 2_000_000] {
            est.record(t);
        }
        // Only the last event is inside the window ending at 2s.
        assert_eq!(est.events_in_window(2_000_000), 1);
        assert_eq!(est.rate_per_sec(2_000_000), 1.0);
        // Reading at a later now prunes logically without mutation.
        assert_eq!(est.events_in_window(10_000_000), 0);
    }

    #[test]
    fn closed_form_hit_ratio_matches_simulation() {
        // Property: for a Poisson consumer with rate mu racing a TTL
        // of T seconds, the empirical P(D < T) matches 1 − e^{−μT}.
        for (seed, mu, ttl_s) in [(3u64, 0.5f64, 2.0f64), (11, 2.0, 0.5), (17, 1.0, 1.0)] {
            let mut rng = XorShift64(seed);
            let trials = 20_000;
            let mut hits = 0u64;
            let mut staleness_sum = 0.0;
            for _ in 0..trials {
                let d_s = rng.exp_us(mu) as f64 / 1e6;
                if d_s < ttl_s {
                    hits += 1;
                    staleness_sum += d_s;
                }
            }
            let empirical_p = hits as f64 / trials as f64;
            let (p, staleness) = per_subscription_prediction(mu, ttl_s);
            assert!(
                (empirical_p - p).abs() < 0.02,
                "seed {seed}: empirical {empirical_p} vs closed form {p}"
            );
            let empirical_staleness = staleness_sum / hits as f64;
            assert!(
                (empirical_staleness - staleness).abs() / staleness < 0.05,
                "seed {seed}: staleness {empirical_staleness} vs {staleness}"
            );
        }
    }

    #[test]
    fn predict_aggregates_with_demand_weights() {
        // Two subscriptions: one always hits (huge μT), one never
        // (μ = 0). Weights 3:1 by n·λ → hit ratio 0.75.
        let models = [
            SubscriptionModel {
                subscribers: 3,
                lambda_events_per_s: 1.0,
                eta_events_per_s: 3000.0,
                rho_bytes_per_s: 10.0,
                ttl_s: 100.0,
            },
            SubscriptionModel {
                subscribers: 1,
                lambda_events_per_s: 1.0,
                eta_events_per_s: 0.0,
                rho_bytes_per_s: 5.0,
                ttl_s: 100.0,
            },
        ];
        let p = predict(&models);
        assert!((p.hit_ratio - 0.75).abs() < 1e-6, "hit {}", p.hit_ratio);
        // Eq. 5: expected bytes is Σ ρᵢ·Tᵢ.
        assert!((p.expected_bytes - (10.0 * 100.0 + 5.0 * 100.0)).abs() < 1e-9);
        assert_eq!(p.subscriptions, 2);
        // Empty model set predicts nothing, finitely.
        let empty = predict(&[]);
        assert_eq!(empty.hit_ratio, 0.0);
        assert_eq!(empty.expected_bytes, 0.0);
    }

    #[test]
    fn drift_score_rises_on_divergence_and_decays_on_recovery() {
        let mut det = DriftDetector::new(DriftConfig {
            warmup_windows: 0,
            ..DriftConfig::default()
        });
        let aligned = DriftSample {
            predicted: ModelPrediction {
                hit_ratio: 0.9,
                mean_staleness_us: 1e6,
                expected_bytes: 1000.0,
                subscriptions: 1,
            },
            observed_hit_ratio: Some(0.9),
            observed_staleness_us: Some(1e6),
            occupancy_bytes: 1000,
            budget_bytes: 10_000,
        };
        for _ in 0..5 {
            det.observe(aligned);
        }
        assert!(det.score() < 0.01, "aligned score {}", det.score());
        assert!(!det.breached());
        // Regime shift: observed hit collapses, occupancy overruns.
        let diverged = DriftSample {
            observed_hit_ratio: Some(0.1),
            occupancy_bytes: 9_000,
            ..aligned
        };
        let mut last = det.score();
        for _ in 0..6 {
            let s = det.observe(diverged);
            assert!(s >= last);
            last = s;
        }
        assert!(det.breached(), "diverged score {}", det.score());
        // Recovery decays the score back under the threshold.
        for _ in 0..12 {
            det.observe(aligned);
        }
        assert!(!det.breached(), "recovered score {}", det.score());
    }

    #[test]
    fn warmup_windows_suppress_early_noise() {
        let mut det = DriftDetector::new(DriftConfig {
            warmup_windows: 3,
            ..DriftConfig::default()
        });
        let noisy = DriftSample {
            predicted: ModelPrediction {
                hit_ratio: 1.0,
                ..ModelPrediction::default()
            },
            observed_hit_ratio: Some(0.0),
            ..DriftSample::default()
        };
        for _ in 0..3 {
            assert_eq!(det.observe(noisy), 0.0);
        }
        assert!(det.observe(noisy) > 0.0);
    }

    #[test]
    fn missing_observations_are_not_drift() {
        let mut det = DriftDetector::new(DriftConfig {
            warmup_windows: 0,
            ..DriftConfig::default()
        });
        let silent = DriftSample {
            predicted: ModelPrediction {
                hit_ratio: 0.95,
                mean_staleness_us: 1e6,
                expected_bytes: 0.0,
                subscriptions: 1,
            },
            observed_hit_ratio: None,
            observed_staleness_us: None,
            occupancy_bytes: 0,
            budget_bytes: 1_000,
        };
        for _ in 0..10 {
            det.observe(silent);
        }
        assert_eq!(det.score(), 0.0);
    }
}
