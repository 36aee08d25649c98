//! Physical nodes (machines) of the simulated cluster.

use hyscale_sim::{SnapReader, SnapWriter, SnapshotError};

use crate::container::Container;
use crate::ids::{ContainerId, NodeId};
use crate::{Cores, Mbps, MemMb};

/// Hardware specification of one node.
///
/// The paper's cluster nodes are homogeneous (2× dual-core Xeon 5120 =
/// 4 cores, 8 GB DDR2, ~1 Gb/s NIC, 3 Gb/s SAS disks); heterogeneous
/// clusters are supported by mixing specs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Total CPU capacity.
    pub cores: Cores,
    /// Total physical memory.
    pub memory: MemMb,
    /// NIC egress capacity.
    pub nic: Mbps,
    /// Disk bandwidth available to swap traffic, expressed as the
    /// equivalent CPU-progress divisor base (see
    /// [`OverheadModel::swap_slowdown`](crate::OverheadModel::swap_slowdown)).
    pub disk: Mbps,
}

impl NodeSpec {
    /// The paper's worker-node hardware: 4 cores, 8 GB, 1 Gb/s NIC.
    pub fn uniform_worker() -> Self {
        NodeSpec {
            cores: Cores(4.0),
            memory: MemMb(8192.0),
            nic: Mbps(1000.0),
            disk: Mbps(3000.0),
        }
    }

    /// A deliberately small node for unit tests and examples.
    pub fn small() -> Self {
        NodeSpec {
            cores: Cores(2.0),
            memory: MemMb(2048.0),
            nic: Mbps(100.0),
            disk: Mbps(300.0),
        }
    }

    /// Builder-style override of the core count.
    pub fn with_cores(mut self, cores: Cores) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style override of the memory size.
    pub fn with_memory(mut self, memory: MemMb) -> Self {
        self.memory = memory;
        self
    }

    /// Builder-style override of the NIC capacity.
    pub fn with_nic(mut self, nic: Mbps) -> Self {
        self.nic = nic;
        self
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec::uniform_worker()
    }
}

/// A node and the containers currently placed on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    spec: NodeSpec,
    containers: Vec<ContainerId>,
    /// Container state lives *inside* the node (removed containers stay as
    /// tombstones so id lookups keep working). Nodes therefore share no
    /// mutable state, so the tick engine advances each one independently.
    pub(crate) slots: Vec<Container>,
    decommissioned: bool,
    /// True while the machine is crashed (fault injection). Unlike
    /// decommissioning, an offline node keeps its identity and comes back
    /// empty on reboot.
    offline: bool,
    /// Multiplier on the NIC capacity (fault injection; 1.0 = healthy).
    nic_factor: f64,
}

impl Node {
    pub(crate) fn new(id: NodeId, spec: NodeSpec) -> Self {
        Node {
            id,
            spec,
            containers: Vec::new(),
            slots: Vec::new(),
            decommissioned: false,
            offline: false,
            nic_factor: 1.0,
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's hardware specification.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Containers currently placed on this node (any state).
    pub fn containers(&self) -> &[ContainerId] {
        &self.containers
    }

    pub(crate) fn attach(&mut self, container: ContainerId) {
        debug_assert!(!self.containers.contains(&container));
        self.containers.push(container);
    }

    pub(crate) fn detach(&mut self, container: ContainerId) {
        self.containers.retain(|&c| c != container);
    }

    /// True once the machine has been removed from the cluster.
    pub fn decommissioned(&self) -> bool {
        self.decommissioned
    }

    pub(crate) fn mark_decommissioned(&mut self) {
        self.decommissioned = true;
    }

    /// True while the machine is crashed (powered off by fault injection).
    pub fn offline(&self) -> bool {
        self.offline
    }

    pub(crate) fn mark_offline(&mut self) {
        self.offline = true;
    }

    pub(crate) fn mark_online(&mut self) {
        self.offline = false;
    }

    /// Current NIC degradation multiplier (1.0 = healthy hardware).
    pub fn nic_factor(&self) -> f64 {
        self.nic_factor
    }

    pub(crate) fn set_nic_factor(&mut self, factor: f64) {
        self.nic_factor = factor.clamp(0.0, 1.0);
    }

    /// Serializes the machine and every container slot it hosts
    /// (snapshot support).
    pub(crate) fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_u32(self.id.index());
        w.put_f64(self.spec.cores.get());
        w.put_f64(self.spec.memory.get());
        w.put_f64(self.spec.nic.get());
        w.put_f64(self.spec.disk.get());
        w.put_usize(self.containers.len());
        for &c in &self.containers {
            w.put_u32(c.index());
        }
        w.put_usize(self.slots.len());
        for slot in &self.slots {
            slot.snapshot_write(w);
        }
        w.put_bool(self.decommissioned);
        w.put_bool(self.offline);
        w.put_f64(self.nic_factor);
    }

    /// Rebuilds a machine from [`Node::snapshot_write`] output.
    pub(crate) fn snapshot_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = NodeId::new(r.get_u32()?);
        let spec = NodeSpec {
            cores: Cores(r.get_f64()?),
            memory: MemMb(r.get_f64()?),
            nic: Mbps(r.get_f64()?),
            disk: Mbps(r.get_f64()?),
        };
        let n = r.get_usize()?;
        let mut containers = Vec::with_capacity(n);
        for _ in 0..n {
            containers.push(ContainerId::new(r.get_u32()?));
        }
        let n = r.get_usize()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            slots.push(Container::snapshot_read(r)?);
        }
        Ok(Node {
            id,
            spec,
            containers,
            slots,
            decommissioned: r.get_bool()?,
            offline: r.get_bool()?,
            nic_factor: r.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_worker_matches_paper_hardware() {
        let spec = NodeSpec::uniform_worker();
        assert_eq!(spec.cores, Cores(4.0));
        assert_eq!(spec.memory, MemMb(8192.0));
    }

    #[test]
    fn builder_overrides() {
        let spec = NodeSpec::default()
            .with_cores(Cores(8.0))
            .with_memory(MemMb(16384.0))
            .with_nic(Mbps(10_000.0));
        assert_eq!(spec.cores, Cores(8.0));
        assert_eq!(spec.memory, MemMb(16384.0));
        assert_eq!(spec.nic, Mbps(10_000.0));
    }

    #[test]
    fn attach_detach_containers() {
        let mut node = Node::new(NodeId::new(0), NodeSpec::small());
        let a = ContainerId::new(1);
        let b = ContainerId::new(2);
        node.attach(a);
        node.attach(b);
        assert_eq!(node.containers(), &[a, b]);
        node.detach(a);
        assert_eq!(node.containers(), &[b]);
        node.detach(a); // idempotent
        assert_eq!(node.containers(), &[b]);
    }
}
