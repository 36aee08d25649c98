//! Deterministic discrete-time simulation substrate for HyScale.
//!
//! The HyScale paper evaluates its autoscaling algorithms on a 24-node
//! physical cluster over one-hour runs. This crate provides the substrate
//! that replaces that testbed: a simulated clock with microsecond
//! resolution, a deterministic pseudo-random number generator with the
//! distributions the workload generators need, a stable event queue, and a
//! fixed-step tick engine. Every simulation built on top of it is a pure
//! function of its configuration and seed, which makes the paper's
//! "averaged over 5 runs" protocol a matter of running five seeds.
//!
//! # Example
//!
//! ```
//! use hyscale_sim::{EventQueue, SimDuration, SimRng, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(1.0), "first");
//! queue.schedule(SimTime::from_secs(0.5), "zeroth");
//!
//! let (t, event) = queue.pop().expect("event");
//! assert_eq!(event, "zeroth");
//! assert_eq!(t, SimTime::from_secs(0.5));
//!
//! let mut rng = SimRng::seed_from(42);
//! let sample = rng.uniform_f64();
//! assert!((0.0..1.0).contains(&sample));
//! # let _ = SimDuration::from_secs(1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod events;
mod rng;
mod snapshot;
mod time;

pub use engine::TickEngine;
pub use error::SimError;
pub use events::EventQueue;
pub use rng::SimRng;
pub use snapshot::{
    fnv1a, SnapReader, SnapWriter, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use time::{SimDuration, SimTime};
