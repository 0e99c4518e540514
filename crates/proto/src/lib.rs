//! The BAD prototype (Section VI): one deployment, two executors.
//!
//! The paper's prototype is a three-node AsterixDB cluster plus a Tornado
//! HTTP broker, driven by a replayed subscriber-interaction trace of an
//! emergency-notification scenario. This crate deploys the **full
//! stack** (BQL channels, matching, enrichment, result stores, broker,
//! caches) as a data-cluster node and a broker node, state that each
//! call (a REST/AQL call in the paper) holds in turn on its caller:
//!
//! * [`runtime`] — the [`Deployment`]: the two nodes, clients that
//!   subscribe and retrieve through the broker, and push notifications
//!   back to connected clients.
//! * [`exec`] — what the callers run on. [`Exec::threads`] gives them OS
//!   threads and compressed wall-clock sleeps (the examples, the scrape
//!   endpoint); [`Exec::seeded`] runs one actor at a time in virtual
//!   time under a schedule drawn from a seed, so a run replays exactly.
//! * [`harness`] — [`run_prototype`], which replays a
//!   [`bad_workload::TraceGenerator`] trace through a deployment on
//!   [`Exec::seeded`]. This is what regenerates Fig. 7: same trace,
//!   every caching scheme.
//!
//! # Examples
//!
//! ```
//! use bad_cache::PolicyName;
//! use bad_proto::{PrototypeConfig, run_prototype};
//!
//! let mut config = PrototypeConfig::smoke();
//! let report = run_prototype(PolicyName::Lsc, &config, 42)?;
//! assert!(report.deliveries > 0);
//! # Ok::<(), bad_types::BadError>(())
//! ```

pub mod exec;
pub mod harness;
pub mod runtime;

pub use exec::Exec;
pub use harness::{run_prototype, PrototypeConfig, PrototypeReport};
pub use runtime::{BrokerClient, BrokerStats, ClientEvent, Deployment};
