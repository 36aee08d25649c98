//! The Monitor's periodic snapshot of the cluster.
//!
//! Every scaling period the Node Managers report `docker stats`-style
//! usage for each container; the Monitor assembles them into a
//! [`ClusterView`] — the only information an
//! [`Autoscaler`](crate::Autoscaler) receives. Keeping the algorithms pure
//! functions of this view makes them unit-testable against hand-built
//! snapshots, exactly how the paper's equations are written.

use hyscale_cluster::{ContainerId, Cores, Mbps, MemMb, NodeId, ServiceId};
use hyscale_sim::SimTime;

/// One replica's reported usage and current allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaView {
    /// The replica's container.
    pub container: ContainerId,
    /// The node hosting it.
    pub node: NodeId,
    /// Average CPU consumed over the last period.
    pub cpu_used: Cores,
    /// Current CPU request (allocation), the utilization denominator.
    pub cpu_requested: Cores,
    /// Resident memory (including swapped pages).
    pub mem_used: MemMb,
    /// Current memory limit.
    pub mem_limit: MemMb,
    /// Average egress rate over the last period.
    pub net_used: Mbps,
    /// Requested egress bandwidth, the network-utilization denominator.
    pub net_requested: Mbps,
    /// Requests in flight at snapshot time.
    pub in_flight: usize,
    /// Whether the replica swapped during the period.
    pub swapping: bool,
    /// Whether the replica is past its startup delay and serving.
    pub ready: bool,
    /// How many Monitor periods old this usage sample is. 0 with a
    /// perfectly reliable control plane; grows when reports are lost or
    /// delayed ([`crate::controlplane::NEVER_REPORTED`] when no report
    /// for this replica ever arrived).
    pub age_ticks: u32,
}

impl ReplicaView {
    /// CPU utilization as a fraction of the request (1.0 = 100%).
    ///
    /// Returns 0.0 when the request is zero (a container with no
    /// allocation reports no utilization rather than infinity).
    pub fn cpu_utilization(&self) -> f64 {
        safe_ratio(self.cpu_used.get(), self.cpu_requested.get())
    }

    /// Memory utilization as a fraction of the limit.
    pub fn mem_utilization(&self) -> f64 {
        safe_ratio(self.mem_used.get(), self.mem_limit.get())
    }

    /// Network utilization as a fraction of the request.
    pub fn net_utilization(&self) -> f64 {
        safe_ratio(self.net_used.get(), self.net_requested.get())
    }
}

fn safe_ratio(num: f64, denom: f64) -> f64 {
    if denom > 0.0 {
        (num / denom).max(0.0)
    } else {
        0.0
    }
}

/// One service's replicas as seen this period.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceView {
    /// The service.
    pub service: ServiceId,
    /// Its live replicas (starting replicas are included, marked
    /// `ready = false`).
    pub replicas: Vec<ReplicaView>,
    /// The service's template CPU request for newly spawned replicas
    /// (what `kubectl run` would request).
    pub template_cpu: Cores,
    /// The service's template memory limit for newly spawned replicas.
    pub template_mem: MemMb,
    /// The service's baseline (idle) memory footprint; the paper requires
    /// a node to advertise at least this much before hosting a replica.
    pub base_mem: MemMb,
}

impl ServiceView {
    /// Sum of replica CPU usage.
    pub fn total_cpu_used(&self) -> Cores {
        self.replicas.iter().map(|r| r.cpu_used).sum()
    }

    /// Sum of replica CPU requests.
    pub fn total_cpu_requested(&self) -> Cores {
        self.replicas.iter().map(|r| r.cpu_requested).sum()
    }

    /// Sum of replica memory usage.
    pub fn total_mem_used(&self) -> MemMb {
        self.replicas.iter().map(|r| r.mem_used).sum()
    }

    /// Sum of replica memory limits.
    pub fn total_mem_limit(&self) -> MemMb {
        self.replicas.iter().map(|r| r.mem_limit).sum()
    }

    /// Sum of replica egress usage.
    pub fn total_net_used(&self) -> Mbps {
        self.replicas.iter().map(|r| r.net_used).sum()
    }

    /// Sum of replica network requests.
    pub fn total_net_requested(&self) -> Mbps {
        self.replicas.iter().map(|r| r.net_requested).sum()
    }

    /// Mean CPU utilization across replicas (0.0 for no replicas).
    pub fn mean_cpu_utilization(&self) -> f64 {
        if self.replicas.is_empty() {
            0.0
        } else {
            self.replicas
                .iter()
                .map(ReplicaView::cpu_utilization)
                .sum::<f64>()
                / self.replicas.len() as f64
        }
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Age of the *oldest* usage sample backing this service's view, in
    /// Monitor periods (0 for no replicas: an empty service has nothing
    /// stale to mis-scale).
    pub fn max_age_ticks(&self) -> u32 {
        self.replicas.iter().map(|r| r.age_ticks).max().unwrap_or(0)
    }
}

/// One node's advertised free resources.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// The node.
    pub node: NodeId,
    /// CPU not promised to any live container.
    pub free_cpu: Cores,
    /// Memory not promised to any live container.
    pub free_mem: MemMb,
    /// Services with a replica on this node (placement anti-affinity
    /// input: HyScale spawns new replicas on nodes *not* hosting the
    /// service).
    pub hosted_services: Vec<ServiceId>,
}

impl NodeView {
    /// True if this node hosts a replica of `service`.
    pub fn hosts(&self, service: ServiceId) -> bool {
        self.hosted_services.contains(&service)
    }
}

/// The Monitor's full periodic snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    /// Snapshot time.
    pub now: SimTime,
    /// Seconds covered by the usage averages (the scaling period).
    pub period_secs: f64,
    /// Per-service replica views.
    pub services: Vec<ServiceView>,
    /// Per-node free-resource views.
    pub nodes: Vec<NodeView>,
    /// The staleness budget in Monitor periods: a service whose oldest
    /// sample exceeds this age must not be scaled *in* (see
    /// [`crate::algorithms::veto_stale_reductions`]). 0 budget with a
    /// perfect control plane still vetoes nothing, because every sample
    /// has age 0.
    pub staleness_budget_ticks: u32,
}

impl ClusterView {
    /// Looks up a service view.
    pub fn service(&self, id: ServiceId) -> Option<&ServiceView> {
        self.services.iter().find(|s| s.service == id)
    }

    /// Looks up a node view.
    pub fn node(&self, id: NodeId) -> Option<&NodeView> {
        self.nodes.iter().find(|n| n.node == id)
    }

    /// Total replicas across all services.
    pub fn total_replicas(&self) -> usize {
        self.services.iter().map(ServiceView::replica_count).sum()
    }

    /// Whether a service's data is older than the staleness budget
    /// (false for unknown services).
    pub fn service_is_stale(&self, id: ServiceId) -> bool {
        self.service(id)
            .is_some_and(|s| s.max_age_ticks() > self.staleness_budget_ticks)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Hand-built view fixtures shared by the algorithm unit tests.

    use super::*;

    /// Builds a replica view with the given usage/request and defaults
    /// elsewhere.
    pub fn replica(container: u32, node: u32, cpu_used: f64, cpu_requested: f64) -> ReplicaView {
        ReplicaView {
            container: ContainerId::new(container),
            node: NodeId::new(node),
            cpu_used: Cores(cpu_used),
            cpu_requested: Cores(cpu_requested),
            mem_used: MemMb(100.0),
            mem_limit: MemMb(256.0),
            net_used: Mbps(1.0),
            net_requested: Mbps(50.0),
            in_flight: 1,
            swapping: false,
            ready: true,
            age_ticks: 0,
        }
    }

    /// Builds a single-service view over the given replicas.
    pub fn view_of(service: u32, replicas: Vec<ReplicaView>, nodes: Vec<NodeView>) -> ClusterView {
        ClusterView {
            now: SimTime::from_secs(100.0),
            period_secs: 5.0,
            services: vec![ServiceView {
                service: ServiceId::new(service),
                replicas,
                template_cpu: Cores(0.5),
                template_mem: MemMb(256.0),
                base_mem: MemMb(64.0),
            }],
            nodes,
            staleness_budget_ticks: 1,
        }
    }

    /// Builds a node view.
    pub fn node(node: u32, free_cpu: f64, free_mem: f64, hosted: Vec<u32>) -> NodeView {
        NodeView {
            node: NodeId::new(node),
            free_cpu: Cores(free_cpu),
            free_mem: MemMb(free_mem),
            hosted_services: hosted.into_iter().map(ServiceId::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn utilization_ratios() {
        let r = replica(0, 0, 0.4, 0.5);
        assert!((r.cpu_utilization() - 0.8).abs() < 1e-12);
        assert!((r.mem_utilization() - 100.0 / 256.0).abs() < 1e-12);
        assert!((r.net_utilization() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn zero_request_reports_zero_utilization() {
        let r = replica(0, 0, 0.4, 0.0);
        assert_eq!(r.cpu_utilization(), 0.0);
    }

    #[test]
    fn service_totals() {
        let v = view_of(
            0,
            vec![replica(0, 0, 0.2, 0.5), replica(1, 1, 0.6, 1.0)],
            vec![],
        );
        let s = v.service(ServiceId::new(0)).unwrap();
        assert_eq!(s.total_cpu_used(), Cores(0.8));
        assert_eq!(s.total_cpu_requested(), Cores(1.5));
        assert_eq!(s.replica_count(), 2);
        // mean of 0.4 and 0.6
        assert!((s.mean_cpu_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(v.total_replicas(), 2);
    }

    #[test]
    fn empty_service_mean_is_zero() {
        let v = view_of(0, vec![], vec![]);
        assert_eq!(
            v.service(ServiceId::new(0)).unwrap().mean_cpu_utilization(),
            0.0
        );
    }

    #[test]
    fn staleness_follows_the_oldest_sample() {
        let mut fresh = replica(0, 0, 0.2, 0.5);
        let mut old = replica(1, 1, 0.2, 0.5);
        fresh.age_ticks = 0;
        old.age_ticks = 3;
        let v = view_of(0, vec![fresh, old], vec![]);
        assert_eq!(v.services[0].max_age_ticks(), 3);
        assert!(v.service_is_stale(ServiceId::new(0)), "budget is 1, age 3");
        assert!(!v.service_is_stale(ServiceId::new(9)));
        let all_fresh = view_of(1, vec![replica(0, 0, 0.2, 0.5)], vec![]);
        assert!(!all_fresh.service_is_stale(ServiceId::new(1)));
        assert_eq!(view_of(2, vec![], vec![]).services[0].max_age_ticks(), 0);
    }

    #[test]
    fn node_lookup_and_hosting() {
        let v = view_of(0, vec![], vec![node(3, 2.0, 4096.0, vec![0])]);
        let n = v.node(NodeId::new(3)).unwrap();
        assert!(n.hosts(ServiceId::new(0)));
        assert!(!n.hosts(ServiceId::new(1)));
        assert!(v.node(NodeId::new(9)).is_none());
        assert!(v.service(ServiceId::new(9)).is_none());
    }
}
