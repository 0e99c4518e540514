//! Broker-side result caching for Big Active Data — the primary
//! contribution of the reproduced paper.
//!
//! A BAD broker holds one in-memory [`ResultCache`] per *backend
//! subscription* (a merged, deduplicated subscription against the data
//! cluster). Enriched notification results are pushed at the cache head
//! as the cluster produces them and dropped from the tail under memory
//! pressure. This crate implements:
//!
//! * the per-subscription [`ResultCache`] with the range-retrieval
//!   semantics of the paper's Algorithm 1 ([`ResultCache::plan_get`]),
//! * consumption tracking — an object is dropped as soon as every
//!   attached subscriber has retrieved it,
//! * the utility-driven eviction policies of Section IV-A
//!   (**LRU**, **LSC**, **LSCz**, **LSD**, **EXP**) derived from the
//!   0/1-knapsack formulation, plus the **NC** no-cache baseline,
//! * **TTL** caching of Section IV-B: per-cache TTLs recomputed from
//!   measured arrival/consumption rates so that `Σ ρ_i·T_i = B`
//!   ([`TtlComputer`]),
//! * an ordered [`VictimIndex`] implementing the paper's `O(log N)`
//!   victim selection, with a linear-scan fallback for comparison,
//! * the aggregate [`CacheManager`] gluing it all together,
//! * a lock-striped [`ShardedCacheManager`] partitioning the caches
//!   across N mutex-guarded shards for concurrent broker workers
//!   (`shards = 1` reproduces the monolith byte-for-byte), and
//! * [`CacheMetrics`] capturing every quantity the evaluation plots
//!   (hit ratio, hit/miss bytes, holding times, time-averaged and
//!   maximum cache size).
//!
//! # Examples
//!
//! ```
//! use bad_cache::{CacheConfig, CacheManager, NewObject, PolicyName};
//! use bad_types::{BackendSubId, ByteSize, ObjectId, SimDuration, SubscriberId, TimeRange, Timestamp};
//!
//! let config = CacheConfig {
//!     budget: ByteSize::from_kib(64),
//!     ..CacheConfig::default()
//! };
//! let mut mgr = CacheManager::new(PolicyName::Lsc, config);
//! let bs = BackendSubId::new(0);
//! let alice = SubscriberId::new(1);
//! mgr.create_cache(bs, Timestamp::ZERO);
//! mgr.add_subscriber(bs, alice);
//!
//! // The cluster produced a result; the broker caches it.
//! mgr.insert(bs, NewObject {
//!     id: ObjectId::new(0),
//!     ts: Timestamp::from_secs(1),
//!     size: ByteSize::from_kib(10),
//!     fetch_latency: SimDuration::from_millis(500),
//! }, Timestamp::from_secs(1));
//!
//! // Alice retrieves everything up to the newest result: a cache hit.
//! let plan = mgr.plan_get(bs, TimeRange::closed(Timestamp::ZERO, Timestamp::from_secs(1)),
//!                         Timestamp::from_secs(2));
//! assert_eq!(plan.cached.len(), 1);
//! assert!(plan.is_full_hit());
//! ```

pub mod index;
pub mod manager;
pub mod metrics;
pub mod object;
pub mod policy;
pub mod rate;
pub mod result_cache;
pub mod sharded;
pub mod telemetry;
pub mod ttl;

pub use index::VictimIndex;
pub use manager::{CacheConfig, CacheManager, DropReason, DroppedObject};
pub use metrics::{CacheMetrics, DropKind};
pub use object::{CachedObject, NewObject};
pub use policy::{policy_catalog, EvictionPolicy, PolicyInfo, PolicyKind, PolicyName};
pub use rate::RateEstimator;
pub use result_cache::{GetPlan, ResultCache};
pub use sharded::{ShardHealth, ShardedCacheManager};
pub use telemetry::CacheTelemetry;
pub use ttl::TtlComputer;
