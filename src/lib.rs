//! # HyScale
//!
//! Umbrella crate for the HyScale reproduction: hybrid (vertical +
//! horizontal) and network autoscaling of dockerized microservices, after
//! Wong, Kwan, Jacobsen & Muthusamy, *HyScale: Hybrid and Network Scaling of
//! Dockerized Microservices in Cloud Data Centres*, ICDCS 2019.
//!
//! This crate re-exports the workspace crates under stable module names:
//!
//! * [`sim`] — deterministic discrete-time simulation substrate.
//! * [`cluster`] — Docker-like cluster resource model (CPU shares, memory
//!   limits + swap, tc-style network shaping).
//! * [`workload`] — microservice profiles, bursty load generators, and the
//!   Bitbrains GWA-T-12 trace support.
//! * [`metrics`] — streaming statistics and experiment reports.
//! * [`trace`] — deterministic decision-trace events, ring-buffered
//!   sink, and JSONL/CSV journal exporters.
//! * [`core`] — the autoscaling algorithms and autoscaler platform
//!   (Monitor, Node Managers, Load Balancers).
//!
//! # Quick start
//!
//! ```
//! use hyscale::core::{AlgorithmKind, ScenarioBuilder};
//! use hyscale::workload::{LoadPattern, ServiceProfile};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = ScenarioBuilder::new("quickstart")
//!     .nodes(4)
//!     .services(2, ServiceProfile::CpuBound, LoadPattern::low_burst())
//!     .duration_secs(120.0)
//!     .algorithm(AlgorithmKind::HyScaleCpu)
//!     .seed(7)
//!     .run()?;
//! assert!(report.requests.completed > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use hyscale_cluster as cluster;
pub use hyscale_core as core;
pub use hyscale_metrics as metrics;
pub use hyscale_sim as sim;
pub use hyscale_trace as trace;
pub use hyscale_workload as workload;
