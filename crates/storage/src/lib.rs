//! Storage substrate of the BAD data cluster.
//!
//! The original BAD platform persists publications and channel results in
//! AsterixDB datasets. This crate reproduces the pieces of that substrate
//! the caching work depends on:
//!
//! * [`Schema`]/[`Dataset`] — append-only record datasets with *open* or
//!   *closed* schemas and a timestamp index, holding publications,
//! * [`ResultStore`] — per-backend-subscription, timestamp-ordered result
//!   datasets supporting the `fetch(bs, ts1, ts2, closed)` retrieval of
//!   the paper's Algorithm 1.
//!
//! # Examples
//!
//! ```
//! use bad_storage::{Dataset, Schema};
//! use bad_types::{DataValue, Timestamp};
//!
//! let mut ds = Dataset::new("Reports", Schema::open());
//! ds.insert(Timestamp::from_secs(1), DataValue::parse_json(r#"{"kind":"flood"}"#)?)?;
//! assert_eq!(ds.len(), 1);
//! # Ok::<(), bad_types::BadError>(())
//! ```

pub mod dataset;
pub mod result_store;
pub mod schema;

pub use dataset::{Dataset, StoredRecord};
pub use result_store::{ResultObject, ResultStore};
pub use schema::{FieldDef, FieldType, Schema};
