//! Deterministic decision-trace observability for the HyScale control
//! loop.
//!
//! The paper's Monitor is, at heart, an observability component: it turns
//! per-container `docker stats` streams into scaling decisions. This
//! crate makes those decisions *auditable after the fact*: every scaling
//! evaluation (metric value, target, tolerance verdict), every applied
//! action, every fault injection, recovery respawn/backoff, per-node
//! allocator pressure sample, and balancer routing tally is recorded as a
//! typed [`TraceEvent`] in a ring-buffered [`TraceSink`].
//!
//! # Determinism contract
//!
//! Events are only ever emitted from the driver's phases (event delivery,
//! Monitor periods, fault injection) — never from inside the per-node
//! tick — and carry nothing that depends on wall-clock time. A seeded
//! scenario therefore produces a **byte-identical** JSONL journal on
//! every repeat, which the test battery and the `trace` bench binary
//! enforce. Tracing never feeds back into the simulated state, so traced
//! and untraced runs of one config reach the same state digest.
//!
//! # Cost contract
//!
//! Tracing is opt-in and free when disabled: [`TraceSink::disabled`] is a
//! `const fn` that allocates nothing, and [`TraceSink::emit`] is a single
//! branch in that state. An enabled sink allocates its ring buffer once
//! up front and never again (events are `Copy`, old entries are
//! overwritten in place).
//!
//! # Example
//!
//! ```
//! use hyscale_sim::SimTime;
//! use hyscale_trace::{EventKind, TraceSink};
//!
//! let mut sink = TraceSink::with_capacity(1024);
//! sink.emit(
//!     SimTime::ZERO,
//!     EventKind::RunStart { seed: 7, algorithm: "hybrid" },
//! );
//! assert_eq!(sink.len(), 1);
//! let journal = hyscale_trace::export::jsonl(&sink, &Default::default());
//! assert!(journal.contains("run_start"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod export;
mod sink;

pub use event::{
    ActionTag, ActuationTag, BreakerTag, EventKind, FaultTag, LinkTag, Metric, TraceEvent, Verdict,
};
pub use export::RunMeta;
pub use sink::TraceSink;
