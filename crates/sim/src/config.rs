//! Simulation settings (the paper's Table II).

use bad_cache::CacheConfig;
use bad_net::NetworkModel;
use bad_types::{ByteSize, SimDuration};
use bad_workload::LognormalSpec;

/// The full parameter set of a simulation run.
///
/// [`SimConfig::table_ii`] reproduces the paper's settings; most
/// experiments use a uniformly scaled-down variant so a sweep over six
/// policies × several cache sizes × multiple seeds stays tractable —
/// exactly as the authors "scaled everything down ... so that the
/// experiments can be conducted within a bounded time".
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of subscribers (Table II: 10 000).
    pub subscribers: u64,
    /// Subscriptions per subscriber (Table II: 10).
    pub subscriptions_per_subscriber: usize,
    /// Number of unique (backend) subscriptions / result streams
    /// (Table II: 1000).
    pub unique_subscriptions: usize,
    /// Zipf exponent of subscription popularity.
    pub zipf_exponent: f64,
    /// Result object size range, sampled uniformly
    /// (Table II: 1 KB – 500 KB).
    pub object_size: (ByteSize, ByteSize),
    /// Allowed aggregate cache size `B` (Table II: 50 – 500 MB swept).
    pub cache_budget: ByteSize,
    /// Per-stream mean inter-arrival time range; each stream draws its
    /// Poisson rate uniformly from this range
    /// (Table II: one object per 10 – 60 s).
    pub arrival_interval_secs: (f64, f64),
    /// ON (session) duration distribution (mean 20 min).
    pub on_duration: LognormalSpec,
    /// OFF (absence) duration distribution (mean 30 min).
    pub off_duration: LognormalSpec,
    /// Subscribers join uniformly over this initial window.
    pub join_window: SimDuration,
    /// Simulated run length (Table II: 6 h).
    pub duration: SimDuration,
    /// Cache maintenance (TTL expiry check) tick.
    pub maintain_interval: SimDuration,
    /// How often `Σ ρ_i·T_i` is sampled for Fig. 5(a).
    pub sample_interval: SimDuration,
    /// The network constants (Table II RTTs and bandwidths).
    pub net: NetworkModel,
    /// Cache-manager knobs other than the budget.
    pub cache: CacheConfig,
    /// Optional subscription churn (Table II's "Subscription duration"):
    /// each frontend subscription lives this long, then moves to a fresh
    /// Zipf-sampled stream. `None` keeps subscriptions for the whole run.
    pub subscription_lifetime: Option<LognormalSpec>,
    /// Number of lock-striped cache shards in each broker. The
    /// deterministic engine is single-threaded, so `1` (exact paper
    /// reproduction — the sharded manager is then byte-for-byte
    /// identical to the monolith) is the only setting that makes sense
    /// here; the knob exists so sweep configs can be shared with the
    /// threaded prototype.
    pub shards: usize,
    /// Hot-key attribution sketches (`bad_telemetry::sketch`): `0` (the
    /// default) disables them, `n` samples every `n`-th cache operation
    /// into the per-shard Space-Saving / distinct-count / lag-quantile
    /// sketches (`1` = every op). Like profiling, sketches are
    /// metadata-only: the simulated caching decisions and every other
    /// report field are byte-identical with them on or off; the report
    /// gains a `hot` top-K summary when enabled.
    pub sketch_sample_every_n: u32,
}

impl SimConfig {
    /// The verbatim Table II configuration (10 000 subscribers, 1000
    /// unique subscriptions, 6 h). A single run at this scale processes
    /// tens of millions of events — use `--release`.
    pub fn table_ii() -> Self {
        Self {
            subscribers: 10_000,
            subscriptions_per_subscriber: 10,
            unique_subscriptions: 1000,
            zipf_exponent: 1.0,
            object_size: (ByteSize::from_kib(1), ByteSize::from_kib(500)),
            cache_budget: ByteSize::from_mib(100),
            arrival_interval_secs: (10.0, 60.0),
            on_duration: LognormalSpec::new(20.0 * 60.0, 10.0 * 60.0),
            off_duration: LognormalSpec::new(30.0 * 60.0, 15.0 * 60.0),
            join_window: SimDuration::from_mins(30),
            duration: SimDuration::from_hours(6),
            maintain_interval: SimDuration::from_secs(1),
            sample_interval: SimDuration::from_secs(60),
            net: NetworkModel::paper_defaults(),
            cache: CacheConfig::default(),
            subscription_lifetime: None,
            shards: 1,
            sketch_sample_every_n: 0,
        }
    }

    /// A proportionally scaled-down Table II: `1/scale` of the
    /// subscribers, streams and duration, with the cache budget scaled
    /// the same way so hit-ratio behaviour is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn table_ii_scaled(scale: u64) -> Self {
        assert!(scale > 0, "scale must be positive");
        let base = Self::table_ii();
        Self {
            subscribers: (base.subscribers / scale).max(10),
            unique_subscriptions: ((base.unique_subscriptions as u64 / scale) as usize).max(5),
            cache_budget: ByteSize::new(base.cache_budget.as_u64() / scale),
            duration: base.duration / scale.min(6),
            join_window: base.join_window / scale.min(6),
            ..base
        }
    }

    /// A tiny configuration for unit tests and doc examples (runs in
    /// milliseconds).
    pub fn smoke() -> Self {
        Self {
            subscribers: 30,
            subscriptions_per_subscriber: 3,
            unique_subscriptions: 10,
            zipf_exponent: 1.0,
            object_size: (ByteSize::from_kib(1), ByteSize::from_kib(50)),
            cache_budget: ByteSize::from_kib(200),
            arrival_interval_secs: (5.0, 20.0),
            on_duration: LognormalSpec::new(120.0, 60.0),
            off_duration: LognormalSpec::new(180.0, 90.0),
            join_window: SimDuration::from_secs(30),
            duration: SimDuration::from_mins(10),
            maintain_interval: SimDuration::from_secs(1),
            sample_interval: SimDuration::from_secs(10),
            net: NetworkModel::paper_defaults(),
            cache: CacheConfig::default(),
            subscription_lifetime: None,
            shards: 1,
            sketch_sample_every_n: 0,
        }
    }

    /// Returns a copy with a different cache budget (sweep helper).
    pub fn with_budget(&self, budget: ByteSize) -> Self {
        Self {
            cache_budget: budget,
            ..self.clone()
        }
    }

    /// The rows of Table II as `(setting, value)` strings, for the
    /// `table2` experiment binary.
    pub fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("No of subscribers".into(), self.subscribers.to_string()),
            (
                "Subscription per subscriber".into(),
                self.subscriptions_per_subscriber.to_string(),
            ),
            (
                "No of unique subscriptions".into(),
                self.unique_subscriptions.to_string(),
            ),
            (
                "Result object size".into(),
                format!("Uniform({}, {})", self.object_size.0, self.object_size.1),
            ),
            ("Allowed cache size".into(), self.cache_budget.to_string()),
            (
                "Result object arrival".into(),
                format!(
                    "Poisson, rate 1 per {:.0}-{:.0}s",
                    self.arrival_interval_secs.0, self.arrival_interval_secs.1
                ),
            ),
            (
                "Subscriber ON duration".into(),
                format!(
                    "Lognormal(mean {:.0}s, std {:.0}s)",
                    self.on_duration.mean_secs, self.on_duration.std_secs
                ),
            ),
            (
                "Subscriber OFF duration".into(),
                format!(
                    "Lognormal(mean {:.0}s, std {:.0}s)",
                    self.off_duration.mean_secs, self.off_duration.std_secs
                ),
            ),
            (
                "Broker to data cluster bandwidth".into(),
                format!("{}", self.net.cluster.bandwidth),
            ),
            (
                "Broker to subscriber bandwidth".into(),
                format!("{}", self.net.subscriber.bandwidth),
            ),
            (
                "RTT (broker to data cluster)".into(),
                format!("{}", self.net.cluster.rtt),
            ),
            (
                "RTT (broker to subscribers)".into(),
                format!("{}", self.net.subscriber.rtt),
            ),
            ("Run length".into(), format!("{}", self.duration)),
        ]
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        // A balanced default: Table II scaled down 10x.
        Self::table_ii_scaled(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_matches_paper() {
        let c = SimConfig::table_ii();
        assert_eq!(c.subscribers, 10_000);
        assert_eq!(c.subscriptions_per_subscriber, 10);
        assert_eq!(c.unique_subscriptions, 1000);
        assert_eq!(c.object_size.1, ByteSize::from_kib(500));
        assert_eq!(c.duration, SimDuration::from_hours(6));
        assert_eq!(c.net.cluster.rtt, SimDuration::from_millis(500));
    }

    #[test]
    fn scaling_preserves_ratios() {
        let c = SimConfig::table_ii_scaled(10);
        assert_eq!(c.subscribers, 1000);
        assert_eq!(c.unique_subscriptions, 100);
        // Per-subscriber structure unchanged.
        assert_eq!(c.subscriptions_per_subscriber, 10);
    }

    #[test]
    fn describe_covers_table_rows() {
        let rows = SimConfig::table_ii().describe();
        assert!(rows.len() >= 12);
        assert!(rows
            .iter()
            .any(|(k, v)| k.contains("subscribers") && v == "10000"));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        SimConfig::table_ii_scaled(0);
    }
}
