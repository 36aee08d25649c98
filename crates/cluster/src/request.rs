//! Client requests and their completion/failure records.
//!
//! A request models one call into a microservice: it needs a fixed amount
//! of CPU work (core-seconds), holds memory while in flight, pushes
//! megabits of egress traffic (the response body), and optionally moves
//! disk traffic. A request completes when its CPU work, network bytes,
//! and disk bytes are all done; its response time is completion minus
//! arrival plus the service's replica fan-out latency.

use hyscale_sim::{SimDuration, SimTime};

use crate::ids::{ContainerId, RequestId, ServiceId};
use crate::MemMb;

/// Work demanded by one client request.
///
/// Construct with one of the profile constructors ([`Request::cpu_bound`],
/// [`Request::mem_bound`], [`Request::net_bound`], [`Request::mixed`]) or
/// with [`Request::new`] for full control.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The microservice this request targets.
    pub service: ServiceId,
    /// When the client issued the request.
    pub arrival: SimTime,
    /// CPU work, in core-seconds, required to serve the request.
    pub cpu_secs: f64,
    /// Memory held while the request is in flight.
    pub mem: MemMb,
    /// Egress traffic (response payload), in megabits.
    pub megabits_out: f64,
    /// Disk traffic (reads + writes), in megabits — the paper's named
    /// future-work resource type.
    pub disk_megabits: f64,
    /// Give up and count a connection failure if not done by
    /// `arrival + timeout`.
    pub timeout: SimDuration,
}

impl Request {
    /// Default request timeout, matching an aggressive client SLA.
    pub const DEFAULT_TIMEOUT: SimDuration = SimDuration::from_micros(30_000_000);

    /// Creates a request with explicit resource demands.
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative or non-finite.
    pub fn new(
        service: ServiceId,
        arrival: SimTime,
        cpu_secs: f64,
        mem: MemMb,
        megabits_out: f64,
    ) -> Self {
        assert!(
            cpu_secs.is_finite() && cpu_secs >= 0.0,
            "cpu_secs must be finite and non-negative"
        );
        assert!(
            mem.get().is_finite() && mem.get() >= 0.0,
            "mem must be finite and non-negative"
        );
        assert!(
            megabits_out.is_finite() && megabits_out >= 0.0,
            "megabits_out must be finite and non-negative"
        );
        Request {
            service,
            arrival,
            cpu_secs,
            mem,
            megabits_out,
            disk_megabits: 0.0,
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// A disk-bound request: bulk disk traffic, modest compute.
    pub fn disk_bound(service: ServiceId, arrival: SimTime, disk_megabits: f64) -> Self {
        Request::new(service, arrival, 0.01, MemMb(4.0), 0.1).with_disk(disk_megabits)
    }

    /// A CPU-bound request: `cpu_secs` of compute, token memory, token I/O.
    pub fn cpu_bound(service: ServiceId, arrival: SimTime, cpu_secs: f64) -> Self {
        Request::new(service, arrival, cpu_secs, MemMb(2.0), 0.1)
    }

    /// A memory-bound request: large in-flight footprint, modest compute.
    pub fn mem_bound(service: ServiceId, arrival: SimTime, mem: MemMb) -> Self {
        Request::new(service, arrival, 0.01, mem, 0.1)
    }

    /// A network-bound request: bulk egress payload, modest compute.
    pub fn net_bound(service: ServiceId, arrival: SimTime, megabits_out: f64) -> Self {
        Request::new(service, arrival, 0.005, MemMb(2.0), megabits_out)
    }

    /// A mixed CPU+memory request (the paper's "mixed" microservice type).
    pub fn mixed(service: ServiceId, arrival: SimTime, cpu_secs: f64, mem: MemMb) -> Self {
        Request::new(service, arrival, cpu_secs, mem, 0.2)
    }

    /// Overrides the timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Adds disk traffic to the request.
    ///
    /// # Panics
    ///
    /// Panics if `disk_megabits` is negative or not finite.
    pub fn with_disk(mut self, disk_megabits: f64) -> Self {
        assert!(
            disk_megabits.is_finite() && disk_megabits >= 0.0,
            "disk_megabits must be finite and non-negative"
        );
        self.disk_megabits = disk_megabits;
        self
    }

    /// The absolute deadline after which the request fails.
    pub fn deadline(&self) -> SimTime {
        self.arrival + self.timeout
    }
}

/// Record of successfully served requests.
///
/// Individually-admitted requests complete as one record with
/// `count == 1`; a flow cohort completes as one record whose `count` is
/// the cohort's membership (member ids are `id .. id + count`). All
/// members share the arrival, finish time, and response time.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRequest {
    /// The (first) request's identifier.
    pub id: RequestId,
    /// How many identical requests this record represents (≥ 1).
    pub count: u64,
    /// The microservice that served it.
    pub service: ServiceId,
    /// The replica that served it.
    pub container: ContainerId,
    /// Client-issued time.
    pub arrival: SimTime,
    /// When the replica admitted it (queue delay is
    /// `admitted - arrival`; service time is `finished - admitted`).
    pub admitted: SimTime,
    /// Completion time (including fan-out latency).
    pub finished: SimTime,
    /// End-to-end response time.
    pub response_time: SimDuration,
}

/// Why a request failed.
///
/// The paper reports two stacked bars — removal vs "connection"
/// failures — but retry policies need finer grain than clients do:
/// a timeout is usually worth retrying, a queue rejection signals
/// overload, and an infrastructure death is a reset outside the
/// service's control. [`FailureKind::Removal`] stays its own class
/// (the paper charges scale-in aborts, and only those, to the
/// scaler); the other three roll up into the paper's "connection"
/// bucket for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The request ended prematurely because its replica was removed by a
    /// scaling decision (the paper's "removal failures").
    Removal,
    /// The request was not done by `arrival + timeout` (client SLA
    /// expired while queued or in service).
    Timeout,
    /// The request never got a slot: queue overflow or no accepting
    /// replica at admission time.
    QueueAbort,
    /// The replica died underneath the request — node crash or OOM kill
    /// (clients see a connection reset, not a scaling decision).
    InfraDeath,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Removal => write!(f, "removal"),
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::QueueAbort => write!(f, "queue_abort"),
            FailureKind::InfraDeath => write!(f, "infra_death"),
        }
    }
}

/// Record of failed requests. Like [`CompletedRequest`], one record can
/// carry a whole cohort (`count` members failing identically).
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRequest {
    /// The (first) request's identifier.
    pub id: RequestId,
    /// How many identical requests this record represents (≥ 1).
    pub count: u64,
    /// The microservice it targeted.
    pub service: ServiceId,
    /// The replica it was running on, if it was ever admitted.
    pub container: Option<ContainerId>,
    /// Client-issued time.
    pub arrival: SimTime,
    /// When the failure was detected.
    pub failed_at: SimTime,
    /// The failure class (removal vs the connection sub-classes, as in
    /// Fig. 6).
    pub kind: FailureKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> ServiceId {
        ServiceId::new(0)
    }

    #[test]
    fn profile_constructors_shape_demands() {
        let t = SimTime::ZERO;
        let cpu = Request::cpu_bound(svc(), t, 0.2);
        assert_eq!(cpu.cpu_secs, 0.2);
        assert!(cpu.megabits_out < 1.0);

        let mem = Request::mem_bound(svc(), t, MemMb(64.0));
        assert_eq!(mem.mem, MemMb(64.0));
        assert!(mem.cpu_secs < 0.1);

        let net = Request::net_bound(svc(), t, 80.0);
        assert_eq!(net.megabits_out, 80.0);

        let mixed = Request::mixed(svc(), t, 0.1, MemMb(32.0));
        assert_eq!(mixed.cpu_secs, 0.1);
        assert_eq!(mixed.mem, MemMb(32.0));
    }

    #[test]
    fn disk_bound_requests_carry_disk_traffic() {
        let r = Request::disk_bound(svc(), SimTime::ZERO, 40.0);
        assert_eq!(r.disk_megabits, 40.0);
        let r2 = Request::cpu_bound(svc(), SimTime::ZERO, 0.1);
        assert_eq!(r2.disk_megabits, 0.0);
    }

    #[test]
    #[should_panic(expected = "disk_megabits must be finite")]
    fn negative_disk_panics() {
        let _ = Request::cpu_bound(svc(), SimTime::ZERO, 0.1).with_disk(-1.0);
    }

    #[test]
    fn deadline_is_arrival_plus_timeout() {
        let r = Request::cpu_bound(svc(), SimTime::from_secs(5.0), 0.1)
            .with_timeout(SimDuration::from_secs(2.0));
        assert_eq!(r.deadline(), SimTime::from_secs(7.0));
    }

    #[test]
    #[should_panic(expected = "cpu_secs must be finite")]
    fn negative_cpu_panics() {
        let _ = Request::new(svc(), SimTime::ZERO, -1.0, MemMb(1.0), 0.0);
    }

    #[test]
    fn failure_kind_display() {
        assert_eq!(FailureKind::Removal.to_string(), "removal");
        assert_eq!(FailureKind::Timeout.to_string(), "timeout");
        assert_eq!(FailureKind::QueueAbort.to_string(), "queue_abort");
        assert_eq!(FailureKind::InfraDeath.to_string(), "infra_death");
    }
}
