//! Containers: one replica of one microservice.
//!
//! A container mirrors what Docker exposes to the paper's platform: a CPU
//! request (shares), a memory limit, an optional `tc` egress cap, and the
//! `docker update` operation that changes the first two at runtime
//! (vertical scaling). Each container also carries the per-replica
//! application overhead — the image plus JVM-like resident set and a base
//! CPU tax — that makes horizontal scaling non-free (Sec. III-A/B).

use hyscale_sim::{SimTime, SnapReader, SnapWriter, SnapshotError};

use crate::cohort::FlowTable;
use crate::ids::{ContainerId, NodeId, ServiceId};
use crate::stats::UsageWindow;
use crate::{Cores, Mbps, MemMb};

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerState {
    /// Image pulled, process starting; not yet accepting requests.
    Starting,
    /// Live and accepting requests.
    Running,
    /// Removed by a scaling decision; in-flight work was aborted.
    Removed,
}

impl std::fmt::Display for ContainerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerState::Starting => write!(f, "starting"),
            ContainerState::Running => write!(f, "running"),
            ContainerState::Removed => write!(f, "removed"),
        }
    }
}

/// Static configuration of a container replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerSpec {
    /// The microservice this replica belongs to.
    pub service: ServiceId,
    /// Requested CPU allocation (Docker shares, in core units).
    pub cpu_request: Cores,
    /// Memory limit (`docker run -m`); exceeding it forces swapping.
    pub mem_limit: MemMb,
    /// Requested egress bandwidth, used as the denominator of network
    /// utilization by the network autoscaler.
    pub net_request: Mbps,
    /// Optional hard `tc` egress cap; `None` means uncapped.
    pub net_cap: Option<Mbps>,
    /// Base CPU burned by the application runtime per second (JVM
    /// housekeeping, container runtime) regardless of load.
    pub base_cpu: Cores,
    /// Resident memory of the idle application (image + runtime heap).
    pub base_mem: MemMb,
    /// Working-set growth per unit of served throughput (MB per req/s):
    /// caches, session state, and heap churn scale with how much traffic
    /// a replica actually handles. This is what makes horizontal
    /// scale-out "incidentally allocate more memory" (paper Sec. VI-A):
    /// splitting the same rate over more replicas shrinks each one's
    /// working set.
    pub mem_per_rps: MemMb,
    /// Maximum number of requests in flight before admissions are refused
    /// (socket backlog limit).
    pub queue_cap: usize,
    /// Maximum concurrent kernel-level egress flows this container opens
    /// (its connection pool). Requests beyond the pool queue in the
    /// application without adding transmit-queue contention. `None`
    /// removes the pool (e.g. iperf parallel streams in the Fig. 3
    /// study).
    pub net_flow_pool: Option<usize>,
    /// Seconds from `start_container` until the replica serves traffic.
    pub startup_secs: f64,
    /// Per-replica consistency cost for *stateful* services (paper
    /// future work): every request pays `coordination_secs · (n − 1)`
    /// extra latency when the service runs `n` replicas, modelling quorum
    /// writes / state synchronization. Zero for stateless services.
    pub coordination_secs: f64,
    /// Antagonist containers (progrium-stress stand-ins) consume their CPU
    /// request permanently and never serve requests.
    pub antagonist: bool,
}

impl ContainerSpec {
    /// Creates a spec with the defaults used across the experiments:
    /// 0.5-core request, 256 MB limit, 50 Mb/s net request, 0.02-core /
    /// 64 MB base overhead, 256-deep queue, 1 s startup.
    pub fn new(service: ServiceId) -> Self {
        ContainerSpec {
            service,
            cpu_request: Cores(0.5),
            mem_limit: MemMb(256.0),
            net_request: Mbps(50.0),
            net_cap: None,
            base_cpu: Cores(0.02),
            base_mem: MemMb(64.0),
            mem_per_rps: MemMb::ZERO,
            queue_cap: 256,
            net_flow_pool: Some(8),
            startup_secs: 1.0,
            coordination_secs: 0.0,
            antagonist: false,
        }
    }

    /// Builder-style override of the CPU request.
    pub fn with_cpu_request(mut self, cpu: Cores) -> Self {
        self.cpu_request = cpu;
        self
    }

    /// Builder-style override of the memory limit.
    pub fn with_mem_limit(mut self, mem: MemMb) -> Self {
        self.mem_limit = mem;
        self
    }

    /// Builder-style override of the network request.
    pub fn with_net_request(mut self, net: Mbps) -> Self {
        self.net_request = net;
        self
    }

    /// Builder-style override of the `tc` egress cap.
    pub fn with_net_cap(mut self, cap: Mbps) -> Self {
        self.net_cap = Some(cap);
        self
    }

    /// Builder-style override of the per-replica base overhead.
    pub fn with_base_overhead(mut self, cpu: Cores, mem: MemMb) -> Self {
        self.base_cpu = cpu;
        self.base_mem = mem;
        self
    }

    /// Builder-style override of the working-set growth per req/s served.
    pub fn with_mem_per_rps(mut self, mem: MemMb) -> Self {
        self.mem_per_rps = mem;
        self
    }

    /// Builder-style override of the queue depth.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Builder-style override of the egress connection pool
    /// (`None` = one kernel flow per in-flight request).
    pub fn with_net_flow_pool(mut self, pool: Option<usize>) -> Self {
        self.net_flow_pool = pool;
        self
    }

    /// Builder-style override of the startup delay.
    pub fn with_startup_secs(mut self, secs: f64) -> Self {
        self.startup_secs = secs;
        self
    }

    /// Marks the service as stateful: each request pays this much extra
    /// latency per additional replica (state synchronization).
    pub fn with_coordination_secs(mut self, secs: f64) -> Self {
        self.coordination_secs = secs;
        self
    }

    /// Marks this container as a pure antagonist (stress container).
    pub fn antagonist(mut self) -> Self {
        self.antagonist = true;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if any quantity is negative,
    /// non-finite, or the queue capacity is zero for a serving container.
    pub fn validate(&self) -> Result<(), String> {
        let checks: [(&str, f64); 6] = [
            ("cpu_request", self.cpu_request.get()),
            ("mem_limit", self.mem_limit.get()),
            ("net_request", self.net_request.get()),
            ("base_cpu", self.base_cpu.get()),
            ("base_mem", self.base_mem.get()),
            ("mem_per_rps", self.mem_per_rps.get()),
        ];
        for (name, v) in checks {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if let Some(cap) = self.net_cap {
            if !cap.get().is_finite() || cap.get() <= 0.0 {
                return Err(format!("net_cap must be positive, got {}", cap.get()));
            }
        }
        if !self.antagonist && self.queue_cap == 0 {
            return Err("queue_cap must be positive for serving containers".to_string());
        }
        if !self.startup_secs.is_finite() || self.startup_secs < 0.0 {
            return Err(format!(
                "startup_secs must be finite and non-negative, got {}",
                self.startup_secs
            ));
        }
        if !self.coordination_secs.is_finite() || self.coordination_secs < 0.0 {
            return Err(format!(
                "coordination_secs must be finite and non-negative, got {}",
                self.coordination_secs
            ));
        }
        Ok(())
    }
}

/// A live container replica.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    id: ContainerId,
    node: NodeId,
    spec: ContainerSpec,
    state: ContainerState,
    ready_at: SimTime,
    /// All in-flight work: one row per admitted cohort share or request
    /// (a request is a flow of one member).
    pub(crate) flows: FlowTable,
    /// Cumulative core-seconds consumed (for stats).
    pub(crate) cpu_used_total: f64,
    /// Cumulative megabits sent (for stats).
    pub(crate) megabits_sent_total: f64,
    /// Smoothed served throughput in requests per second, driving the
    /// working-set memory term.
    pub(crate) throughput_ewma: f64,
    /// Usage accumulator the Node Manager snapshots every period. Living
    /// inside the container keeps the tick loop's state per node, so each
    /// node advances independently of the others.
    pub(crate) window: UsageWindow,
}

impl Container {
    /// Serializes the full replica state — spec, lifecycle, in-flight
    /// flows, usage accumulators (snapshot support).
    pub(crate) fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_u32(self.id.index());
        w.put_u32(self.node.index());
        // Spec, field by field.
        w.put_u32(self.spec.service.index());
        w.put_f64(self.spec.cpu_request.get());
        w.put_f64(self.spec.mem_limit.get());
        w.put_f64(self.spec.net_request.get());
        w.put_opt_f64(self.spec.net_cap.map(|c| c.get()));
        w.put_f64(self.spec.base_cpu.get());
        w.put_f64(self.spec.base_mem.get());
        w.put_f64(self.spec.mem_per_rps.get());
        w.put_usize(self.spec.queue_cap);
        match self.spec.net_flow_pool {
            Some(n) => {
                w.put_bool(true);
                w.put_usize(n);
            }
            None => w.put_bool(false),
        }
        w.put_f64(self.spec.startup_secs);
        w.put_f64(self.spec.coordination_secs);
        w.put_bool(self.spec.antagonist);
        // Lifecycle.
        w.put_u8(match self.state {
            ContainerState::Starting => 0,
            ContainerState::Running => 1,
            ContainerState::Removed => 2,
        });
        w.put_u64(self.ready_at.as_micros());
        self.flows.snapshot_write(w);
        w.put_f64(self.cpu_used_total);
        w.put_f64(self.megabits_sent_total);
        w.put_f64(self.throughput_ewma);
        self.window.snapshot_write(w);
    }

    /// Rebuilds a replica from [`Container::snapshot_write`] output.
    ///
    /// Unlike [`Container::new`], this does not restart the startup
    /// clock: the snapshotted `state` and `ready_at` are reinstated
    /// verbatim.
    pub(crate) fn snapshot_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = ContainerId::new(r.get_u32()?);
        let node = NodeId::new(r.get_u32()?);
        let spec = ContainerSpec {
            service: ServiceId::new(r.get_u32()?),
            cpu_request: Cores(r.get_f64()?),
            mem_limit: MemMb(r.get_f64()?),
            net_request: Mbps(r.get_f64()?),
            net_cap: r.get_opt_f64()?.map(Mbps),
            base_cpu: Cores(r.get_f64()?),
            base_mem: MemMb(r.get_f64()?),
            mem_per_rps: MemMb(r.get_f64()?),
            queue_cap: r.get_usize()?,
            net_flow_pool: if r.get_bool()? {
                Some(r.get_usize()?)
            } else {
                None
            },
            startup_secs: r.get_f64()?,
            coordination_secs: r.get_f64()?,
            antagonist: r.get_bool()?,
        };
        let state = match r.get_u8()? {
            0 => ContainerState::Starting,
            1 => ContainerState::Running,
            2 => ContainerState::Removed,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown container state tag {other}"
                )))
            }
        };
        let ready_at = SimTime::from_micros(r.get_u64()?);
        let flows = FlowTable::snapshot_read(r)?;
        Ok(Container {
            id,
            node,
            spec,
            state,
            ready_at,
            flows,
            cpu_used_total: r.get_f64()?,
            megabits_sent_total: r.get_f64()?,
            throughput_ewma: r.get_f64()?,
            window: UsageWindow::snapshot_read(r)?,
        })
    }

    pub(crate) fn new(id: ContainerId, node: NodeId, spec: ContainerSpec, now: SimTime) -> Self {
        let ready_at = now + hyscale_sim::SimDuration::from_secs(spec.startup_secs);
        Container {
            id,
            node,
            spec,
            state: ContainerState::Starting,
            ready_at,
            flows: FlowTable::default(),
            cpu_used_total: 0.0,
            megabits_sent_total: 0.0,
            throughput_ewma: 0.0,
            window: UsageWindow::new(),
        }
    }

    /// This container's identifier.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The node hosting this container.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The microservice this replica belongs to.
    pub fn service(&self) -> ServiceId {
        self.spec.service
    }

    /// The container's (mutable-over-time) specification.
    pub fn spec(&self) -> &ContainerSpec {
        &self.spec
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// When the container becomes ready to serve.
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// Number of requests currently in flight, counting every member of
    /// every resident flow.
    pub fn in_flight_count(&self) -> usize {
        self.flows.members() as usize
    }

    /// Total in-flight members as a wide count, safe beyond `usize`
    /// semantics for million-user scenarios.
    pub fn in_flight_members(&self) -> u64 {
        self.flows.members()
    }

    /// Number of distinct in-flight flow records (not members): one per
    /// admitted cohort share or individually-admitted request.
    pub fn cohort_count(&self) -> usize {
        self.flows.len()
    }

    /// True if the container can accept a request at `now`.
    pub fn accepting(&self, now: SimTime) -> bool {
        !self.spec.antagonist
            && self.state != ContainerState::Removed
            && now >= self.ready_at
            && self.in_flight_members() < self.spec.queue_cap as u64
    }

    /// Queue headroom at `now`: how many more members fit under
    /// `queue_cap`. Zero when not accepting.
    pub fn queue_headroom(&self, now: SimTime) -> u64 {
        if !self.accepting(now) {
            return 0;
        }
        (self.spec.queue_cap as u64).saturating_sub(self.in_flight_members())
    }

    /// True if the container serves traffic at `now` (started and live).
    pub fn live(&self, now: SimTime) -> bool {
        self.state != ContainerState::Removed && now >= self.ready_at
    }

    /// Current resident set: base overhead, the throughput-driven working
    /// set, and per-request memory of everything in flight.
    pub fn resident_mem(&self) -> MemMb {
        self.resident_mem_with(self.flows.resident_mem())
    }

    /// `resident_mem` with the per-request sum supplied by a caller that
    /// already swept the flows (the tick engine folds it into the
    /// settlement scan). `req_mem` must equal
    /// [`FlowTable::resident_mem`], summed in row order.
    pub(crate) fn resident_mem_with(&self, req_mem: f64) -> MemMb {
        self.spec.base_mem
            + MemMb(self.spec.mem_per_rps.get() * self.throughput_ewma)
            + MemMb(req_mem)
    }

    /// Smoothed served throughput, requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.throughput_ewma
    }

    /// Updates the throughput EWMA with `completed` requests over a tick
    /// of `dt_secs` (time constant `tau_secs`).
    pub(crate) fn record_throughput(&mut self, completed: u64, dt_secs: f64, tau_secs: f64) {
        if dt_secs <= 0.0 {
            return;
        }
        let inst = completed as f64 / dt_secs;
        let alpha = (dt_secs / tau_secs.max(dt_secs)).clamp(0.0, 1.0);
        self.throughput_ewma += alpha * (inst - self.throughput_ewma);
    }

    pub(crate) fn mark_running_if_ready(&mut self, now: SimTime) {
        if self.state == ContainerState::Starting && now >= self.ready_at {
            self.state = ContainerState::Running;
        }
    }

    pub(crate) fn mark_removed(&mut self) {
        self.state = ContainerState::Removed;
    }

    /// Applies a `docker update`: changes the CPU request and memory limit
    /// in place. Values are clamped to be non-negative.
    pub(crate) fn update_resources(&mut self, cpu: Cores, mem: MemMb) {
        self.spec.cpu_request = cpu.max_zero();
        self.spec.mem_limit = mem.max_zero();
    }

    /// Applies a new `tc` egress cap (or lifts it with `None`).
    pub(crate) fn update_net_cap(&mut self, cap: Option<Mbps>) {
        self.spec.net_cap = cap.map(Mbps::max_zero);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ContainerSpec {
        ContainerSpec::new(ServiceId::new(0))
    }

    #[test]
    fn default_spec_validates() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(spec().with_cpu_request(Cores(-1.0)).validate().is_err());
        assert!(spec().with_mem_limit(MemMb(f64::NAN)).validate().is_err());
        assert!(spec().with_queue_cap(0).validate().is_err());
        assert!(spec().with_net_cap(Mbps(0.0)).validate().is_err());
        // antagonists don't need a queue
        assert!(spec().with_queue_cap(0).antagonist().validate().is_ok());
    }

    #[test]
    fn startup_delay_gates_acceptance() {
        let c = Container::new(ContainerId::new(0), NodeId::new(0), spec(), SimTime::ZERO);
        assert_eq!(c.state(), ContainerState::Starting);
        assert!(!c.accepting(SimTime::from_millis(500)));
        assert!(c.accepting(SimTime::from_secs(1.0)));
    }

    #[test]
    fn mark_running_transitions_once_ready() {
        let mut c = Container::new(ContainerId::new(0), NodeId::new(0), spec(), SimTime::ZERO);
        c.mark_running_if_ready(SimTime::from_millis(100));
        assert_eq!(c.state(), ContainerState::Starting);
        c.mark_running_if_ready(SimTime::from_secs(2.0));
        assert_eq!(c.state(), ContainerState::Running);
    }

    #[test]
    fn removed_containers_never_accept() {
        let mut c = Container::new(ContainerId::new(0), NodeId::new(0), spec(), SimTime::ZERO);
        c.mark_removed();
        assert!(!c.accepting(SimTime::from_secs(10.0)));
        assert!(!c.live(SimTime::from_secs(10.0)));
    }

    #[test]
    fn antagonists_never_accept() {
        let c = Container::new(
            ContainerId::new(0),
            NodeId::new(0),
            spec().antagonist(),
            SimTime::ZERO,
        );
        assert!(!c.accepting(SimTime::from_secs(10.0)));
        // ... but they are live (they consume resources).
        assert!(c.live(SimTime::from_secs(10.0)));
    }

    #[test]
    fn resident_mem_is_base_plus_requests() {
        use crate::cohort::Flow;
        use crate::request::Request;
        let mut c = Container::new(ContainerId::new(0), NodeId::new(0), spec(), SimTime::ZERO);
        assert_eq!(c.resident_mem(), MemMb(64.0));
        let r = Request::mem_bound(ServiceId::new(0), SimTime::ZERO, MemMb(100.0));
        c.flows.push(Flow::of_request(&r, SimTime::ZERO));
        assert_eq!(c.resident_mem(), MemMb(164.0));
    }

    #[test]
    fn docker_update_clamps_to_zero() {
        let mut c = Container::new(ContainerId::new(0), NodeId::new(0), spec(), SimTime::ZERO);
        c.update_resources(Cores(-0.5), MemMb(-1.0));
        assert_eq!(c.spec().cpu_request, Cores::ZERO);
        assert_eq!(c.spec().mem_limit, MemMb::ZERO);
        c.update_net_cap(Some(Mbps(25.0)));
        assert_eq!(c.spec().net_cap, Some(Mbps(25.0)));
        c.update_net_cap(None);
        assert_eq!(c.spec().net_cap, None);
    }

    #[test]
    fn state_display() {
        assert_eq!(ContainerState::Starting.to_string(), "starting");
        assert_eq!(ContainerState::Running.to_string(), "running");
        assert_eq!(ContainerState::Removed.to_string(), "removed");
    }

    #[test]
    fn queue_cap_limits_acceptance() {
        use crate::cohort::Flow;
        use crate::request::Request;
        let mut c = Container::new(
            ContainerId::new(0),
            NodeId::new(0),
            spec().with_queue_cap(1).with_startup_secs(0.0),
            SimTime::ZERO,
        );
        assert!(c.accepting(SimTime::ZERO));
        let r = Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.1);
        c.flows.push(Flow::of_request(&r, SimTime::ZERO));
        assert!(!c.accepting(SimTime::ZERO));
    }
}
