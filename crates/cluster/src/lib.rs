//! Docker-like cluster resource model for HyScale.
//!
//! This crate is the substrate that stands in for the paper's 24-node
//! physical testbed: heterogeneous nodes, Docker-style containers with CPU
//! shares (`docker update`-able), memory limits with swap-to-disk
//! penalties, and `tc`-style egress network shaping with transmit-queue
//! contention. The model is a fluid-flow approximation advanced in fixed
//! ticks by [`Cluster::advance`]; the autoscaling algorithms in
//! `hyscale-core` only ever observe the per-container usage statistics it
//! produces and apply vertical/horizontal scaling actions to it — exactly
//! the interface the paper's Monitor has to a real Docker cluster.
//!
//! The empirical effects of the paper's Section III are first-class
//! parameters of [`OverheadModel`]:
//!
//! * co-location CPU contention (~17% with one noisy neighbour, Fig. 2),
//! * per-replica application overhead (JVM-like base CPU and memory),
//! * fan-out latency growing logarithmically with replica count (Fig. 2),
//! * network tx-queue contention relieved by horizontal scaling (Fig. 3).
//!
//! # Example
//!
//! ```
//! use hyscale_cluster::{Cluster, ClusterConfig, ContainerSpec, Cores, MemMb,
//!     NodeSpec, Request, ServiceId};
//! use hyscale_sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cluster = Cluster::new(ClusterConfig::default());
//! let node = cluster.add_node(NodeSpec::uniform_worker());
//! let svc = ServiceId::new(0);
//! let ctr = cluster.start_container(
//!     node,
//!     ContainerSpec::new(svc)
//!         .with_cpu_request(Cores(1.0))
//!         .with_mem_limit(MemMb(512.0))
//!         .with_startup_secs(0.0),
//!     SimTime::ZERO,
//! )?;
//! cluster.admit_request(ctr, Request::cpu_bound(svc, SimTime::ZERO, 0.05), SimTime::ZERO)?;
//! let report = cluster.advance(SimTime::ZERO, SimDuration::from_millis(100));
//! assert!(report.completed.len() <= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cohort;
mod container;
mod cpu;
mod error;
mod faults;
mod ids;
mod memory;
mod network;
mod node;
mod overhead;
mod request;
mod stats;

pub use crate::cluster::{Cluster, ClusterConfig, TickReport};
pub use cohort::Cohort;
pub use container::{Container, ContainerSpec, ContainerState};
pub use cpu::{CpuAllocator, CpuDemand, CpuGrant};
pub use error::ClusterError;
pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultLog, FaultPlan, FaultPlanConfig};
pub use ids::{ContainerId, NodeId, RequestId, ServiceId};
pub use memory::{MemoryModel, MemoryPressure};
pub use network::{NetAllocator, NetDemand, NetGrant, NetScratch};
pub use node::{Node, NodeSpec};
pub use overhead::OverheadModel;
pub use request::{CompletedRequest, FailedRequest, FailureKind, Request};
pub use stats::{ContainerUsage, NodeUsage, UsageWindow};

/// CPU quantity in (possibly fractional) cores.
///
/// One core equals 1024 Docker CPU shares in the paper's setup; the
/// algorithms operate directly in cores, as do we.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cores(pub f64);

/// Memory quantity in megabytes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MemMb(pub f64);

/// Network bandwidth in megabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Mbps(pub f64);

macro_rules! quantity_impls {
    ($ty:ident) => {
        impl $ty {
            /// The zero quantity.
            pub const ZERO: $ty = $ty(0.0);

            /// Returns the underlying value.
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Clamps the quantity to be non-negative.
            pub fn max_zero(self) -> $ty {
                $ty(self.0.max(0.0))
            }

            /// Component-wise minimum.
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// Component-wise maximum.
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }
        }

        impl std::ops::Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl std::ops::AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl std::ops::Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl std::ops::SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl std::ops::Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl std::ops::Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl std::iter::Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|q| q.0).sum())
            }
        }
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:.3}", self.0)
            }
        }
    };
}

quantity_impls!(Cores);
quantity_impls!(MemMb);
quantity_impls!(Mbps);

#[cfg(test)]
mod quantity_tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Cores(1.5) + Cores(0.5), Cores(2.0));
        assert_eq!(MemMb(512.0) - MemMb(128.0), MemMb(384.0));
        assert_eq!(Mbps(100.0) * 0.5, Mbps(50.0));
        assert_eq!(Cores(3.0) / 2.0, Cores(1.5));
    }

    #[test]
    fn max_zero_clamps() {
        assert_eq!((Cores(1.0) - Cores(2.0)).max_zero(), Cores::ZERO);
        assert_eq!((Cores(2.0) - Cores(1.0)).max_zero(), Cores(1.0));
    }

    #[test]
    fn sum_and_minmax() {
        let total: MemMb = [MemMb(1.0), MemMb(2.0), MemMb(3.0)].into_iter().sum();
        assert_eq!(total, MemMb(6.0));
        assert_eq!(Mbps(2.0).min(Mbps(3.0)), Mbps(2.0));
        assert_eq!(Mbps(2.0).max(Mbps(3.0)), Mbps(3.0));
    }

    #[test]
    fn display() {
        assert_eq!(Cores(1.25).to_string(), "1.250");
    }
}
