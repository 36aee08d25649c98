//! Experiment metrics for HyScale: streaming statistics, failure
//! accounting, utilization time series, and report tables.
//!
//! The paper evaluates its algorithms on *user-perceived performance*:
//! average response times and the percentage of failed requests, with
//! failures split into **removal failures** (requests aborted by a
//! scale-in decision) and **connection failures** (queue overflow, no live
//! replica, or timeout). This crate provides the accumulators the
//! simulation driver feeds and the tables the benches print.
//!
//! # Example
//!
//! ```
//! use hyscale_metrics::Summary;
//!
//! let mut response_times = Summary::new();
//! for ms in [120.0, 80.0, 95.0, 220.0] {
//!     response_times.record(ms);
//! }
//! assert_eq!(response_times.count(), 4);
//! assert!(response_times.mean() > 100.0);
//! assert_eq!(response_times.max(), 220.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod availability;
mod cost;
mod failures;
mod report;
mod sla;
mod summary;
mod timeseries;

pub use availability::{AvailabilityTracker, ServiceAvailability};
pub use cost::CostMeter;
pub use failures::{FailureTally, RequestOutcomes};
pub use report::{format_speedup, Table};
pub use sla::{SlaPolicy, SlaReport};
pub use summary::Summary;
pub use timeseries::TimeSeries;
