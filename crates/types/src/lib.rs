//! Core vocabulary types shared by every crate of the BAD edge-caching
//! system: identifiers, virtual time, self-describing records, geographic
//! primitives, byte sizes and the common error type.
//!
//! The BAD platform (ICDCS 2018, "Edge Caching for Enriched Notifications
//! Delivery in Big Active Data") is reproduced here as a Rust workspace;
//! this crate is its foundation and has no dependencies of its own.
//!
//! # Examples
//!
//! ```
//! use bad_types::{DataValue, Timestamp, SimDuration, ByteSize};
//!
//! let record = DataValue::parse_json(r#"{"kind":"tornado","severity":4}"#).unwrap();
//! assert_eq!(record.get_path("kind").and_then(DataValue::as_str), Some("tornado"));
//!
//! let t = Timestamp::ZERO + SimDuration::from_secs(90);
//! assert_eq!(t.as_secs_f64(), 90.0);
//! assert_eq!(ByteSize::from_mib(2).as_u64(), 2 * 1024 * 1024);
//! ```

pub mod eq;
pub mod error;
pub mod geo;
pub mod ids;
pub mod rng;
pub mod size;
pub mod time;
pub mod value;

pub use error::{BadError, Result};
pub use geo::{BoundingBox, GeoPoint};
pub use ids::{BackendSubId, ChannelId, FrontendSubId, ObjectId, PublisherId, SubscriberId};
pub use size::ByteSize;
pub use time::{SimDuration, TimeRange, Timestamp};
pub use value::DataValue;
