//! The cluster state machine: placement, `docker update`, admission, and
//! the per-tick fluid-flow advance.
//!
//! # Tick-engine architecture
//!
//! The hot loop is built around two properties:
//!
//! * **Allocation-free steady state.** All per-tick vectors (demands,
//!   grants, processor-sharing work lists, per-container usage samples)
//!   live in reusable [`TickScratch`] buffers owned by the cluster; the
//!   per-service replica table is a flat `Vec<u32>` indexed by service id;
//!   nodes that are fully idle take a closed-form fast path that skips the
//!   allocators entirely.
//! * **Deterministic node parallelism.** Container state is partitioned
//!   per node ([`Node`] owns its containers), so a tick can fan the
//!   per-node work out across threads. [`Cluster::set_parallelism`] spawns
//!   a persistent [`WorkerPool`] (`hyscale-exec`): workers park between
//!   ticks and are woken per tick with an epoch bump — no per-tick thread
//!   creation. Nodes are cut into contiguous, container-weighted ranges
//!   (`partition::weighted_partition`); each worker owns one range plus
//!   its own scratch, and worker outputs are merged in partition order —
//!   which is node order — so results are bit-identical to the serial
//!   engine at any worker count.

use std::collections::BTreeSet;
use std::ops::Range;

use hyscale_exec::WorkerPool;
use hyscale_sim::{SimDuration, SimTime, SnapReader, SnapWriter, SnapshotError};

use crate::cohort::{Cohort, Flow};
use crate::container::{Container, ContainerSpec, ContainerState};
use crate::cpu::{CpuAllocator, CpuDemand, CpuGrant};
use crate::error::ClusterError;
use crate::ids::{ContainerId, IdAllocator, NodeId, RequestId, ServiceId};
use crate::memory::MemoryModel;
use crate::network::{NetAllocator, NetDemand, NetGrant, NetScratch};
use crate::node::{Node, NodeSpec};
use crate::request::{CompletedRequest, FailedRequest, FailureKind, Request};
use crate::stats::{ContainerUsage, NodeUsage};
use crate::{Cores, MemMb};

/// Global configuration of the cluster model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Empirical overhead coefficients (Sec. III calibration).
    pub overheads: OverheadModel,
    /// Tick only nodes with runnable work (the active set), applying the
    /// closed-form idle physics to parked nodes lazily when they are next
    /// observed. Semantically invisible — state is bit-identical to the
    /// eager full-scan engine once a node is caught up — and on by
    /// default; the differential tests turn it off to drive the
    /// reference engine.
    pub active_set: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            overheads: OverheadModel::default(),
            active_set: true,
        }
    }
}

/// Below this much total tick weight per worker the pool handoff costs
/// more than the tick itself; `advance` then runs the tick on the calling
/// thread (see [`Cluster::serial_fallback_ticks`]).
const SERIAL_FALLBACK_WEIGHT: u64 = 1024;

use crate::overhead::OverheadModel;

/// What happened during one tick of the fluid model.
///
/// Each record carries a `count`: individually-admitted requests settle
/// as `count == 1` records, while a flow cohort settles as one record for
/// all of its members. Sum the counts (see
/// [`TickReport::completed_members`]) rather than taking `len()` when
/// totalling requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// Requests that finished during the tick.
    pub completed: Vec<CompletedRequest>,
    /// Requests that failed during the tick (timeouts).
    pub failed: Vec<FailedRequest>,
}

impl TickReport {
    /// Total completed requests, counting cohort members.
    pub fn completed_members(&self) -> u64 {
        self.completed.iter().map(|c| c.count).sum()
    }

    /// Total failed requests, counting cohort members.
    pub fn failed_members(&self) -> u64 {
        self.failed.iter().map(|f| f.count).sum()
    }
}

/// Time constant of the working-set throughput average (seconds).
const THROUGHPUT_TAU_SECS: f64 = 20.0;

/// Where a container lives: which entry of `Cluster::nodes` hosts it and
/// which slot of that node's container storage it occupies. Indexed by
/// [`ContainerId`].
#[derive(Debug, Clone, Copy)]
struct ContainerLoc {
    node: u32,
    slot: u32,
}

/// Reusable per-worker buffers for [`advance_node`]: every per-tick vector
/// the hot loop needs, allocated once and recycled each tick so the steady
/// state performs no heap allocation.
#[derive(Debug, Clone, Default)]
struct TickScratch {
    /// Slot indices of the current node's live containers, in placement
    /// order (the same order the old live-id list had).
    live: Vec<usize>,
    slowdowns: Vec<f64>,
    swapping: Vec<bool>,
    cpu_demands: Vec<CpuDemand>,
    cpu_grants: Vec<CpuGrant>,
    net_demands: Vec<NetDemand>,
    net_grants: Vec<NetGrant>,
    disk_demands: Vec<CpuDemand>,
    disk_grants: Vec<CpuGrant>,
    /// Processor-sharing work lists (flows wanting CPU, network and disk,
    /// as `(row index, member count)`), stored flat with per-container
    /// ranges in `wanting_ranges` and compacted in place between PS rounds.
    cpu_wanting: Vec<(u32, f64)>,
    net_wanting: Vec<(u32, f64)>,
    disk_wanting: Vec<(u32, f64)>,
    /// `[cpu, net, disk]` start offsets of each live container's slice of
    /// the wanting lists (the end is the next container's start).
    wanting_ranges: Vec<[u32; 3]>,
    /// `[cpu, net, disk]` member totals of each live container's slices.
    wanting_members: Vec<[f64; 3]>,
    /// Water-filling work list shared by the CPU and disk allocators.
    outstanding: Vec<(usize, f64)>,
    net_scratch: NetScratch,
    /// Completions staged per worker, merged into the report in node order.
    completed: Vec<CompletedRequest>,
    /// Failures staged per worker, merged into the report in node order.
    failed: Vec<FailedRequest>,
}

/// Immutable per-tick inputs shared (read-only) by every node worker.
struct TickCtx<'a> {
    config: &'a ClusterConfig,
    mem_model: &'a MemoryModel,
    net_alloc: &'a NetAllocator,
    /// Live non-antagonist replicas per service, indexed by service id.
    /// Services beyond the table (or with a zero entry) count as 1, the
    /// same default the old per-tick hash map produced.
    replica_counts: &'a [u32],
    now: SimTime,
    end: SimTime,
    dt_secs: f64,
    /// Test hook ([`Cluster::inject_tick_panic`]): node whose advance
    /// panics. `None` in production.
    poison: Option<NodeId>,
}

/// Ticks one node, honouring the panic-injection test hook. This is the
/// unit of work a pool job executes per node. Returns `true` when the
/// node is park-eligible: the tick took the idle closed form (or had no
/// live slots) and every slot is past its startup, so every future tick
/// is the same closed form until something external changes.
fn tick_node(node: &mut Node, ctx: &TickCtx<'_>, scratch: &mut TickScratch) -> bool {
    if ctx.poison == Some(node.id()) {
        panic!("injected tick panic on node {:?}", node.id());
    }
    advance_node(node, ctx, scratch)
}

/// The simulated cluster: nodes, containers, and in-flight work.
///
/// All mutation goes through explicit operations that mirror what the
/// paper's platform can do to a real Docker cluster:
///
/// * [`Cluster::start_container`] — `docker run` (horizontal scale-out),
/// * [`Cluster::remove_container`] — `docker rm -f` (scale-in; aborts
///   in-flight work as *removal failures*),
/// * [`Cluster::update_container`] — `docker update` (vertical scaling),
/// * [`Cluster::admit_request`] — a load balancer handing a request to a
///   replica,
/// * [`Cluster::advance`] — physics: one tick of CPU/memory/network flow.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    nodes: Vec<Node>,
    /// Container id → (node, slot) location table. Removed containers keep
    /// their entry (their slot becomes a tombstone) so id lookups keep
    /// working after `docker rm`.
    locs: Vec<ContainerLoc>,
    node_ids: IdAllocator,
    container_ids: IdAllocator,
    request_ids: IdAllocator,
    mem_model: MemoryModel,
    net_alloc: NetAllocator,
    /// How many OS threads a tick may use (1 = serial).
    parallelism: usize,
    /// One scratch buffer per worker.
    scratch: Vec<TickScratch>,
    /// Reused per-tick replica table, indexed by service id.
    replica_counts: Vec<u32>,
    /// Reused per-tick node weights (1 + live containers + in-flight flow
    /// rows) feeding the container-weighted partition.
    node_weights: Vec<u64>,
    /// Reused per-tick contiguous node ranges, one per woken worker.
    partitions: Vec<Range<usize>>,
    /// Persistent tick workers (`parallelism - 1` threads), created by
    /// [`Cluster::set_parallelism`] and joined on drop. `None` while
    /// serial — and on clones, which respawn lazily on their first
    /// parallel tick.
    pool: Option<WorkerPool>,
    /// Test hook: node whose advance panics (pool panic-propagation
    /// coverage). Never set outside tests.
    poison_node: Option<NodeId>,
    // --- Active-set engine (`config.active_set`) ----------------------
    /// Dense membership bitmap: `node_active[i]` ⇔ node `i` is visited by
    /// the next tick. Nodes not in the set are *parked*: provably idle,
    /// with their per-tick idle physics deferred until reactivation.
    node_active: Vec<bool>,
    /// Compact sorted list of active node indices (the iteration order of
    /// a tick, which is node order — determinism depends on it).
    active_list: Vec<u32>,
    /// Nodes activated since the last tick, merged into `active_list` at
    /// the top of `advance_into`.
    newly_active: Vec<u32>,
    /// Tick sequence number at which each node parked; pending idle ticks
    /// for a parked node = `tick_seq - park_seq[i]`.
    park_seq: Vec<u64>,
    /// Ticks advanced so far (each `advance` with `dt > 0` is one).
    tick_seq: u64,
    /// Tick duration of the current parked span. Lazy replay is exact
    /// only while `dt` is constant, so a duration change flushes every
    /// parked node first.
    span_dt: SimDuration,
    /// Per-tick park verdicts, aligned with `active_list` (scratch).
    park_flags: Vec<bool>,
    // --- Incrementally-maintained routing/counting state ---------------
    /// Per-service order index over live non-antagonist replicas, keyed
    /// `(in-flight members, container id)` — the exact candidate order
    /// the balancer's scan-and-sort produced, maintained on admission,
    /// settlement, and removal so routing is O(answer).
    route_index: Vec<BTreeSet<(u64, u32)>>,
    /// Last member count published to `route_index`, per container id.
    index_members: Vec<u64>,
    /// Cluster-wide in-flight members (requests + cohort members).
    in_flight_total: u64,
    /// Ticks the parallel engine ran on the calling thread because the
    /// active weight was below [`SERIAL_FALLBACK_WEIGHT`] per worker.
    serial_fallback_ticks: u64,
}

impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster {
            config: self.config,
            nodes: self.nodes.clone(),
            locs: self.locs.clone(),
            node_ids: self.node_ids.clone(),
            container_ids: self.container_ids.clone(),
            request_ids: self.request_ids.clone(),
            mem_model: self.mem_model,
            net_alloc: self.net_alloc,
            parallelism: self.parallelism,
            scratch: self.scratch.clone(),
            replica_counts: self.replica_counts.clone(),
            node_weights: self.node_weights.clone(),
            partitions: self.partitions.clone(),
            // Worker threads are not cloneable; the clone spawns its own
            // pool on its first parallel `advance`.
            pool: None,
            poison_node: self.poison_node,
            node_active: self.node_active.clone(),
            active_list: self.active_list.clone(),
            newly_active: self.newly_active.clone(),
            park_seq: self.park_seq.clone(),
            tick_seq: self.tick_seq,
            span_dt: self.span_dt,
            park_flags: self.park_flags.clone(),
            route_index: self.route_index.clone(),
            index_members: self.index_members.clone(),
            in_flight_total: self.in_flight_total,
            serial_fallback_ticks: self.serial_fallback_ticks,
        }
    }
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster {
            mem_model: MemoryModel::new(config.overheads),
            net_alloc: NetAllocator::new(config.overheads),
            config,
            nodes: Vec::new(),
            locs: Vec::new(),
            node_ids: IdAllocator::default(),
            container_ids: IdAllocator::default(),
            request_ids: IdAllocator::default(),
            parallelism: 1,
            scratch: vec![TickScratch::default()],
            replica_counts: Vec::new(),
            node_weights: Vec::new(),
            partitions: Vec::new(),
            pool: None,
            poison_node: None,
            node_active: Vec::new(),
            active_list: Vec::new(),
            newly_active: Vec::new(),
            park_seq: Vec::new(),
            tick_seq: 0,
            span_dt: SimDuration::ZERO,
            park_flags: Vec::new(),
            route_index: Vec::new(),
            index_members: Vec::new(),
            in_flight_total: 0,
            serial_fallback_ticks: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Serializes the cluster's full mutable state: every node with its
    /// container slots (replica table, in-flight flows, usage
    /// accumulators), the container location table, and
    /// the three id-allocator cursors.
    ///
    /// Derived per-tick state (scratch buffers, partitions, replica
    /// counts) and the worker pool are *not* written: the pool respawns
    /// lazily on the first parallel `advance` after a restore, and the
    /// scratch is rebuilt every tick.
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        debug_assert!(
            !self.config.active_set
                || (0..self.nodes.len())
                    .all(|i| self.node_active[i] || self.park_seq[i] == self.tick_seq),
            "snapshot with pending lazy idle ticks; call flush_pending first"
        );
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            node.snapshot_write(w);
        }
        w.put_usize(self.locs.len());
        for loc in &self.locs {
            w.put_u32(loc.node);
            w.put_u32(loc.slot);
        }
        w.put_u64(self.node_ids.cursor());
        w.put_u64(self.container_ids.cursor());
        w.put_u64(self.request_ids.cursor());
    }

    /// Overlays state captured by [`Cluster::snapshot_write`] onto this
    /// cluster, replacing its nodes, location table, and id cursors.
    ///
    /// Call on a cluster built from the same configuration the snapshot
    /// was taken under (same overhead model, same parallelism setup);
    /// the worker pool is reconstructed lazily and need not exist yet.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from a truncated or corrupt payload; the
    /// cluster is left untouched on error.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_usize()?;
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            nodes.push(Node::snapshot_read(r)?);
        }
        let n = r.get_usize()?;
        let mut locs = Vec::with_capacity(n);
        for _ in 0..n {
            let node = r.get_u32()?;
            let slot = r.get_u32()?;
            locs.push(ContainerLoc { node, slot });
        }
        for loc in &locs {
            let Some(node) = nodes.get(loc.node as usize) else {
                return Err(SnapshotError::Corrupt(format!(
                    "container location points at missing node {}",
                    loc.node
                )));
            };
            if loc.slot as usize >= node.slots.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "container location points at missing slot {} of node {}",
                    loc.slot, loc.node
                )));
            }
        }
        let node_cursor = r.get_u64()?;
        let container_cursor = r.get_u64()?;
        let request_cursor = r.get_u64()?;
        if locs.len() as u64 != container_cursor {
            return Err(SnapshotError::Corrupt(format!(
                "{} container locations but container cursor {container_cursor}",
                locs.len()
            )));
        }
        self.nodes = nodes;
        self.locs = locs;
        self.node_ids.set_cursor(node_cursor);
        self.container_ids.set_cursor(container_cursor);
        self.request_ids.set_cursor(request_cursor);
        self.rebuild_derived();
        Ok(())
    }

    /// Rebuilds every incrementally-maintained structure from the ground
    /// truth (node slots): the per-service replica counts, the in-flight
    /// total, the routing index, and the active set. Everything restores
    /// *active* — a parked node and a caught-up active node are
    /// byte-identical, and the first tick re-parks whatever is idle.
    fn rebuild_derived(&mut self) {
        self.replica_counts.clear();
        self.route_index.clear();
        self.index_members.clear();
        self.index_members.resize(self.locs.len(), 0);
        self.in_flight_total = 0;
        for node in &self.nodes {
            for c in &node.slots {
                if c.state() == ContainerState::Removed {
                    continue;
                }
                let members = c.in_flight_members();
                self.in_flight_total += members;
                if c.spec().antagonist {
                    continue;
                }
                let svc = c.service().as_usize();
                if svc >= self.replica_counts.len() {
                    self.replica_counts.resize(svc + 1, 0);
                }
                self.replica_counts[svc] += 1;
                if svc >= self.route_index.len() {
                    self.route_index.resize_with(svc + 1, BTreeSet::new);
                }
                self.route_index[svc].insert((members, c.id().index()));
                self.index_members[c.id().as_usize()] = members;
            }
        }
        self.tick_seq = 0;
        self.span_dt = SimDuration::ZERO;
        self.node_active.clear();
        self.node_active.resize(self.nodes.len(), true);
        self.park_seq.clear();
        self.park_seq.resize(self.nodes.len(), 0);
        self.active_list.clear();
        self.active_list.extend(0..self.nodes.len() as u32);
        self.newly_active.clear();
    }

    /// Sets how many OS threads [`Cluster::advance`] may use to tick nodes
    /// (clamped to at least 1; the default is 1, i.e. serial). Because
    /// nodes share no mutable state within a tick and worker outputs are
    /// merged in node order, results are bit-identical at any setting.
    ///
    /// Above 1 this spawns a persistent pool of `workers - 1` threads
    /// that park between ticks (the calling thread ticks the first
    /// partition itself); reconfiguring joins the old pool before the
    /// new one spawns, and dropping the cluster joins all workers.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
        self.scratch
            .resize_with(self.parallelism, TickScratch::default);
        let needed = self.parallelism - 1;
        let keep = matches!(&self.pool, Some(pool) if pool.threads() == needed);
        if !keep {
            // Drop first: the old pool's threads are joined before the
            // replacement spawns, so repeated reconfiguration can never
            // accumulate threads.
            self.pool = None;
            if needed > 0 {
                self.pool = Some(WorkerPool::new(needed));
            }
        }
    }

    /// Test hook: makes [`Cluster::advance`] panic when it reaches the
    /// given node, exercising the worker pool's panic propagation. Pass
    /// `None` to clear. Hidden from docs; never set in production code.
    #[doc(hidden)]
    pub fn inject_tick_panic(&mut self, node: Option<NodeId>) {
        self.poison_node = node;
    }

    /// The configured tick parallelism.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Adds a node and returns its identifier.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId::new(self.node_ids.next_u32());
        self.nodes.push(Node::new(id, spec));
        // New nodes start active (and up to date); the first tick parks
        // them if they are idle.
        self.node_active.push(true);
        self.park_seq.push(self.tick_seq);
        if self.config.active_set {
            self.newly_active.push(id.index());
        }
        id
    }

    /// Applies the idle-tick physics a parked node missed: `tick_seq -
    /// park_seq` repetitions of the closed-form idle fast path, replayed
    /// container-major (bit-identical to tick-major because idle slots
    /// share no state within a tick). A parked node is guaranteed idle —
    /// nothing in flight, no antagonist, every slot past its startup —
    /// and the span is dt-constant, so demands, grants, and the
    /// contention factor are constant across the span; only the
    /// throughput-EWMA decay and the usage window advance per tick.
    fn catch_up_node(&mut self, idx: usize) {
        let pending = self.tick_seq - self.park_seq[idx];
        self.park_seq[idx] = self.tick_seq;
        if pending == 0 {
            return;
        }
        let dt_secs = self.span_dt.as_secs();
        debug_assert!(dt_secs > 0.0, "parked span with zero dt");
        let node = &mut self.nodes[idx];
        let scratch = &mut self.scratch[0];
        scratch.live.clear();
        scratch.cpu_demands.clear();
        for (slot, c) in node.slots.iter().enumerate() {
            if c.state() == ContainerState::Removed {
                continue;
            }
            debug_assert!(c.flows.is_empty());
            debug_assert!(!c.spec().antagonist);
            scratch.live.push(slot);
            scratch.cpu_demands.push(CpuDemand::new(
                c.id(),
                c.spec().base_cpu.get() * dt_secs,
                c.spec().cpu_request.get(),
            ));
        }
        if scratch.live.is_empty() {
            return;
        }
        let active = scratch
            .cpu_demands
            .iter()
            .filter(|d| d.demand > 1e-12)
            .count();
        let capacity =
            node.spec().cores.get() * dt_secs * self.config.overheads.cpu_contention_factor(active);
        // Feasibility held when the node parked and its inputs have not
        // changed since, so this cannot fail; bail rather than corrupt
        // state if it somehow does.
        if !idle_grants(capacity, &scratch.cpu_demands, &mut scratch.cpu_grants) {
            debug_assert!(false, "parked node lost round-1 feasibility");
            return;
        }
        for (i, &s) in scratch.live.iter().enumerate() {
            let c = &mut node.slots[s];
            let granted = scratch.cpu_grants[i].granted;
            for _ in 0..pending {
                // Pressure is sampled before the tick's EWMA decay, the
                // same order the eager engine's demand pass uses.
                let swapping = self
                    .mem_model
                    .pressure(c.resident_mem(), c.spec().mem_limit)
                    .is_swapping();
                let used = if granted > 0.0 {
                    c.cpu_used_total += granted;
                    granted
                } else {
                    0.0
                };
                c.record_throughput(0, dt_secs, THROUGHPUT_TAU_SECS);
                let resident = c.resident_mem_with(0.0);
                c.window
                    .record_tick(dt_secs, used, 0.0, 0.0, resident, 0, swapping);
            }
        }
    }

    /// Catches a parked node up and marks it active so the next tick
    /// visits it. Every mutation that can change a node's tick behaviour
    /// calls this *before* mutating, so the lazy replay always sees the
    /// state the missed ticks actually ran on. No-op for active nodes
    /// (they are always up to date) and when the engine is off.
    fn activate(&mut self, idx: usize) {
        if !self.config.active_set || self.node_active[idx] {
            return;
        }
        self.catch_up_node(idx);
        self.node_active[idx] = true;
        self.newly_active.push(idx as u32);
    }

    /// Activates the node hosting container `id` (no-op for unknown ids).
    fn activate_container_node(&mut self, id: ContainerId) {
        if let Some(loc) = self.locs.get(id.as_usize()) {
            let node = loc.node as usize;
            self.activate(node);
        }
    }

    /// Catches every parked node up to the present, applying all pending
    /// lazily-deferred idle ticks. Nodes stay parked. Call before reading
    /// per-container usage state wholesale (snapshots, monitor
    /// collection); cheap when nothing is pending, a no-op when the
    /// active-set engine is off.
    pub fn flush_pending(&mut self) {
        if !self.config.active_set {
            return;
        }
        for idx in 0..self.nodes.len() {
            if !self.node_active[idx] {
                self.catch_up_node(idx);
            }
        }
    }

    /// Node indices the next tick will visit, sorted (test hook for the
    /// active-set differential tests).
    #[doc(hidden)]
    pub fn active_node_indices(&self) -> Vec<u32> {
        let mut v = self.active_list.clone();
        v.extend(self.newly_active.iter().copied());
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Ticks the parallel engine ran on the calling thread because the
    /// active tick weight was too small to amortize the pool handoff
    /// (the tracking counter for the cohort-mode parallel regression).
    pub fn serial_fallback_ticks(&self) -> u64 {
        self.serial_fallback_ticks
    }

    /// Looks up a node. Decommissioned and crashed (offline) machines are
    /// unreachable and resolve to `None`.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes
            .get(id.as_usize())
            .filter(|n| !n.decommissioned() && !n.offline())
    }

    /// Decommissions a node (paper future work: "dynamic addition and
    /// removal of machines"). Every container on the node is removed;
    /// their in-flight requests are returned as removal failures. The
    /// node stops hosting, scheduling, and advertising resources.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] if the node does not exist
    /// or was already decommissioned.
    pub fn decommission_node(
        &mut self,
        id: NodeId,
        now: SimTime,
    ) -> Result<Vec<FailedRequest>, ClusterError> {
        if self.node(id).is_none() {
            return Err(ClusterError::UnknownNode(id));
        }
        let containers: Vec<ContainerId> = self.nodes[id.as_usize()].containers().to_vec();
        let mut failures = Vec::new();
        for ctr in containers {
            if let Ok(mut aborted) = self.remove_container(ctr, now) {
                failures.append(&mut aborted);
            }
        }
        self.nodes[id.as_usize()].mark_decommissioned();
        Ok(failures)
    }

    /// Iterates over all commissioned, reachable nodes (crashed machines
    /// are excluded until they reboot).
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(|n| !n.decommissioned() && !n.offline())
    }

    /// Number of commissioned nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes().count()
    }

    /// Looks up a container (including removed ones).
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        let loc = self.locs.get(id.as_usize())?;
        self.nodes
            .get(loc.node as usize)?
            .slots
            .get(loc.slot as usize)
    }

    /// Iterates over containers that have not been removed, in creation
    /// order.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.locs
            .iter()
            .map(|loc| &self.nodes[loc.node as usize].slots[loc.slot as usize])
            .filter(|c| c.state() != ContainerState::Removed)
    }

    /// Live (not removed) replicas of a service, in creation order.
    pub fn service_replicas(&self, service: ServiceId) -> Vec<ContainerId> {
        self.containers()
            .filter(|c| c.service() == service && !c.spec().antagonist)
            .map(|c| c.id())
            .collect()
    }

    /// Least-loaded accepting replica of `service` via the incremental
    /// routing index: first accepting entry in `(in_flight, id)` order,
    /// which equals the minimum over accepting replicas of
    /// `(in_flight_members(), id)` — the exact tie-break the balancer's
    /// brute-force scan uses. O(answer) instead of O(replicas).
    pub fn route_least_loaded(&self, service: ServiceId, now: SimTime) -> Option<ContainerId> {
        let set = self.route_index.get(service.as_usize())?;
        for &(_, raw) in set {
            let id = ContainerId::new(raw);
            let Some(c) = self.container(id) else {
                continue;
            };
            if c.accepting(now) {
                return Some(id);
            }
        }
        None
    }

    /// Waterfills `count` cohort members over the accepting replicas of
    /// `service` in ascending `(in_flight, id)` order, honouring each
    /// replica's queue headroom. Appends `(replica, members)` pairs to
    /// `out` and returns the members that could not be placed. The
    /// visit order matches sorting `(in_flight, id, headroom)` — ids are
    /// unique, so headroom never participates in the tie-break.
    pub fn route_waterfill(
        &self,
        service: ServiceId,
        count: u64,
        now: SimTime,
        out: &mut Vec<(ContainerId, u64)>,
    ) -> u64 {
        let mut remaining = count;
        let Some(set) = self.route_index.get(service.as_usize()) else {
            return remaining;
        };
        for &(_, raw) in set {
            if remaining == 0 {
                break;
            }
            let id = ContainerId::new(raw);
            let Some(c) = self.container(id) else {
                continue;
            };
            let headroom = c.queue_headroom(now);
            if headroom == 0 {
                continue;
            }
            let take = remaining.min(headroom);
            out.push((id, take));
            remaining -= take;
        }
        remaining
    }

    /// Total in-flight member requests across the replicas of `service`,
    /// read straight off the incremental routing index (the same counts
    /// routing orders by). Drives the resilience layer's overload
    /// shedding watermark; O(replicas of the service).
    pub fn service_in_flight(&self, service: ServiceId) -> u64 {
        self.route_index
            .get(service.as_usize())
            .map_or(0, |set| set.iter().map(|&(members, _)| members).sum())
    }

    /// CPU and memory not yet promised to live containers on `node`
    /// (capacity minus the sum of requests/limits). This is the quantity
    /// nodes "advertise" to the Monitor for placement decisions.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an invalid id.
    pub fn free_resources(&self, node: NodeId) -> Result<(Cores, MemMb), ClusterError> {
        let n = self.node(node).ok_or(ClusterError::UnknownNode(node))?;
        let mut cpu = n.spec().cores;
        let mut mem = n.spec().memory;
        for c in &n.slots {
            if c.state() != ContainerState::Removed {
                cpu -= c.spec().cpu_request;
                mem -= c.spec().mem_limit;
            }
        }
        Ok((cpu, mem))
    }

    /// Emits one [`hyscale_trace::EventKind::AllocatorPressure`] event per
    /// reachable node into `trace`: unpromised CPU/memory plus the live
    /// container count, in node order. Free when the sink is disabled.
    pub fn trace_pressure(&self, now: SimTime, trace: &mut hyscale_trace::TraceSink) {
        if !trace.is_enabled() {
            return;
        }
        for n in self.nodes() {
            let mut cpu = n.spec().cores;
            let mut mem = n.spec().memory;
            let mut live = 0u32;
            for c in &n.slots {
                if c.state() != ContainerState::Removed {
                    cpu -= c.spec().cpu_request;
                    mem -= c.spec().mem_limit;
                    live += 1;
                }
            }
            trace.emit(
                now,
                hyscale_trace::EventKind::AllocatorPressure {
                    node: n.id().index(),
                    free_cpu: cpu.get(),
                    free_mem: mem.get(),
                    containers: live,
                },
            );
        }
    }

    /// Starts a container on `node` (`docker run`). The container begins
    /// serving after its startup delay.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] or
    /// [`ClusterError::InvalidSpec`]. Placement feasibility is *not*
    /// enforced here — Docker happily oversubscribes a machine; admission
    /// control is the Monitor's job (as in the paper).
    pub fn start_container(
        &mut self,
        node: NodeId,
        spec: ContainerSpec,
        now: SimTime,
    ) -> Result<ContainerId, ClusterError> {
        if self.node(node).is_none() {
            return Err(ClusterError::UnknownNode(node));
        }
        spec.validate().map_err(ClusterError::InvalidSpec)?;
        // Catch the node up *before* the new slot exists: the missed idle
        // ticks ran without it.
        self.activate(node.as_usize());
        let id = ContainerId::new(self.container_ids.next_u32());
        debug_assert_eq!(self.locs.len(), id.as_usize());
        let antagonist = spec.antagonist;
        let service = spec.service;
        let entry = &mut self.nodes[node.as_usize()];
        self.locs.push(ContainerLoc {
            node: node.index(),
            slot: entry.slots.len() as u32,
        });
        entry.slots.push(Container::new(id, node, spec, now));
        entry.attach(id);
        self.index_members.push(0);
        if !antagonist {
            let svc = service.as_usize();
            if svc >= self.replica_counts.len() {
                self.replica_counts.resize(svc + 1, 0);
            }
            self.replica_counts[svc] += 1;
            if svc >= self.route_index.len() {
                self.route_index.resize_with(svc + 1, BTreeSet::new);
            }
            self.route_index[svc].insert((0, id.index()));
        }
        Ok(id)
    }

    /// Force-removes a container (`docker rm -f`). Its in-flight requests
    /// are aborted and returned as removal failures.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] if the container does
    /// not exist or was already removed.
    pub fn remove_container(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<FailedRequest>, ClusterError> {
        self.remove_container_with_kind(id, now, FailureKind::Removal)
    }

    /// Kills a container the way the kernel OOM killer does: the process
    /// dies, its in-flight requests are aborted as
    /// [`FailureKind::InfraDeath`] failures (clients see a reset, not a
    /// scaling decision — the paper's failure taxonomy charges scale-in
    /// aborts, and only those, as removal failures).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] if the container does
    /// not exist or was already removed.
    pub fn oom_kill(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<FailedRequest>, ClusterError> {
        self.remove_container_with_kind(id, now, FailureKind::InfraDeath)
    }

    /// Tears down one container, draining its in-flight requests as
    /// failures of the given kind. Scale-in removals abort with
    /// [`FailureKind::Removal`]; infrastructure deaths (node crash, OOM
    /// kill) abort with [`FailureKind::InfraDeath`].
    fn remove_container_with_kind(
        &mut self,
        id: ContainerId,
        now: SimTime,
        kind: FailureKind,
    ) -> Result<Vec<FailedRequest>, ClusterError> {
        // Catch up and wake the host before the slot changes state: the
        // missed idle ticks ran with the container still live.
        self.activate_container_node(id);
        let c = self
            .slot_mut(id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        if c.state() == ContainerState::Removed {
            return Err(ClusterError::UnknownContainer(id));
        }
        let node = c.node();
        let drained = c.in_flight_members();
        let antagonist = c.spec().antagonist;
        let service = c.service();
        c.mark_removed();
        // Resident flows die with the replica — the "faults diverge a
        // cohort" case degenerates to aborting the whole resident share,
        // one aggregate failure record per flow.
        let failures = std::mem::take(&mut c.flows)
            .rows
            .into_iter()
            .map(|f| FailedRequest {
                id: RequestId::new(f.id_base),
                count: f.count,
                service: f.service,
                container: Some(id),
                arrival: f.arrival,
                failed_at: now,
                kind,
            })
            .collect();
        self.nodes[node.as_usize()].detach(id);
        self.in_flight_total -= drained;
        if !antagonist {
            let svc = service.as_usize();
            self.replica_counts[svc] -= 1;
            self.route_index[svc].remove(&(self.index_members[id.as_usize()], id.index()));
        }
        Ok(failures)
    }

    /// Crashes a node: the machine drops off the network, every container
    /// on it dies, and their in-flight requests are aborted as
    /// [`FailureKind::InfraDeath`] failures (the client's TCP connection
    /// resets with the machine). Unlike [`Cluster::decommission_node`] the
    /// node keeps its identity and can return via
    /// [`Cluster::reboot_node`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] if the node does not exist,
    /// was decommissioned, or is already offline.
    pub fn crash_node(
        &mut self,
        id: NodeId,
        now: SimTime,
    ) -> Result<Vec<FailedRequest>, ClusterError> {
        if self.node(id).is_none() {
            return Err(ClusterError::UnknownNode(id));
        }
        let containers: Vec<ContainerId> = self.nodes[id.as_usize()].containers().to_vec();
        let mut failures = Vec::new();
        for ctr in containers {
            if let Ok(mut aborted) =
                self.remove_container_with_kind(ctr, now, FailureKind::InfraDeath)
            {
                failures.append(&mut aborted);
            }
        }
        self.nodes[id.as_usize()].mark_offline();
        Ok(failures)
    }

    /// Brings a crashed node back online. The machine returns empty — its
    /// containers did not survive the crash — but with its original
    /// identity and hardware, ready for placement.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] if the node does not exist,
    /// was decommissioned, or is not offline.
    pub fn reboot_node(&mut self, id: NodeId) -> Result<(), ClusterError> {
        match self.nodes.get_mut(id.as_usize()) {
            Some(n) if n.offline() && !n.decommissioned() => {
                n.mark_online();
                Ok(())
            }
            _ => Err(ClusterError::UnknownNode(id)),
        }
    }

    /// Degrades (or restores) a node's NIC: effective egress capacity
    /// becomes `spec.nic * factor`, clamped to `[0, 1]`. Models a flapping
    /// link or a failing transceiver; `1.0` restores full capacity.
    ///
    /// The NIC is a hardware property, so the factor may be set even while
    /// the node is crashed (it applies once the node is back).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an invalid or
    /// decommissioned node.
    pub fn set_nic_factor(&mut self, id: NodeId, factor: f64) -> Result<(), ClusterError> {
        match self.nodes.get_mut(id.as_usize()) {
            Some(n) if !n.decommissioned() => {
                n.set_nic_factor(factor);
                // The NIC does not enter the idle closed form, but a
                // changed link belongs in the next tick's visit set.
                self.activate(id.as_usize());
                Ok(())
            }
            _ => Err(ClusterError::UnknownNode(id)),
        }
    }

    /// Counts ready (serving) replicas per service into `counts`, indexed
    /// by service id (resized as needed, zeroed first). One pass over all
    /// containers — cheap enough for the driver to call every tick, which
    /// is what per-tick availability accounting needs.
    pub fn ready_replicas_into(&self, now: SimTime, counts: &mut Vec<u32>) {
        counts.clear();
        for node in &self.nodes {
            for c in &node.slots {
                if c.state() == ContainerState::Removed || c.spec().antagonist || !c.live(now) {
                    continue;
                }
                let idx = c.service().as_usize();
                if idx >= counts.len() {
                    counts.resize(idx + 1, 0);
                }
                counts[idx] += 1;
            }
        }
    }

    /// Applies a `docker update`: changes a container's CPU request and
    /// memory limit in place. This is the vertical-scaling primitive.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for an invalid or
    /// removed container.
    pub fn update_container(
        &mut self,
        id: ContainerId,
        cpu: Cores,
        mem: MemMb,
    ) -> Result<(), ClusterError> {
        // Pending idle ticks ran under the old resources; replay them
        // before the spec changes.
        self.activate_container_node(id);
        let c = self.live_container_mut(id)?;
        c.update_resources(cpu, mem);
        Ok(())
    }

    /// Applies or lifts a `tc` egress cap on a container.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for an invalid or
    /// removed container.
    pub fn update_net_cap(
        &mut self,
        id: ContainerId,
        cap: Option<crate::Mbps>,
    ) -> Result<(), ClusterError> {
        self.activate_container_node(id);
        let c = self.live_container_mut(id)?;
        c.update_net_cap(cap);
        Ok(())
    }

    /// Hands a request to a replica (what a load balancer does). The
    /// request is admitted as a flow of one member.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownContainer`] — no such container.
    /// * [`ClusterError::NotAccepting`] — replica starting/removed or an
    ///   antagonist.
    /// * [`ClusterError::QueueFull`] — socket backlog exhausted.
    pub fn admit_request(
        &mut self,
        id: ContainerId,
        request: Request,
        now: SimTime,
    ) -> Result<RequestId, ClusterError> {
        self.admit(id, Flow::of_request(&request, now), now)
    }

    /// Hands a whole flow cohort to a replica: `cohort.count` identical
    /// requests admitted as one record. Returns the first member's
    /// [`RequestId`]; members occupy the dense id range
    /// `id .. id + count`.
    ///
    /// The queue cap is enforced on *members*: a cohort is admitted only
    /// if all of it fits (the balancer splits cohorts across replicas
    /// before admission, so partial fits are its job, not the queue's).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownContainer`] — no such container.
    /// * [`ClusterError::NotAccepting`] — replica starting/removed or an
    ///   antagonist.
    /// * [`ClusterError::QueueFull`] — fewer than `cohort.count` slots
    ///   left in the socket backlog.
    pub fn admit_cohort(
        &mut self,
        id: ContainerId,
        cohort: Cohort,
        now: SimTime,
    ) -> Result<RequestId, ClusterError> {
        self.admit(id, Flow::of_cohort(&cohort, now), now)
    }

    /// Admits `flow` to container `id` if all of its members fit, then
    /// reserves its member ids — refused admissions use up no ids.
    fn admit(
        &mut self,
        id: ContainerId,
        mut flow: Flow,
        now: SimTime,
    ) -> Result<RequestId, ClusterError> {
        let loc = *self
            .locs
            .get(id.as_usize())
            .ok_or(ClusterError::UnknownContainer(id))?;
        self.activate(loc.node as usize);
        let c = &mut self.nodes[loc.node as usize].slots[loc.slot as usize];
        if c.spec().antagonist || !c.live(now) {
            return Err(ClusterError::NotAccepting(id));
        }
        if c.in_flight_members() + flow.count > c.spec().queue_cap as u64 {
            return Err(ClusterError::QueueFull(id));
        }
        let service = c.service();
        flow.id_base = self.request_ids.next_range(flow.count);
        c.flows.push(flow);
        self.in_flight_total += flow.count;
        self.bump_index(id, service, flow.count);
        Ok(RequestId::new(flow.id_base))
    }

    /// Republishes a container's routing-index key after `delta` members
    /// were admitted to it.
    fn bump_index(&mut self, id: ContainerId, service: ServiceId, delta: u64) {
        let m = self.index_members[id.as_usize()];
        let set = &mut self.route_index[service.as_usize()];
        set.remove(&(m, id.index()));
        set.insert((m + delta, id.index()));
        self.index_members[id.as_usize()] = m + delta;
    }

    /// Splits an in-flight flow in place: row `idx` of the container's
    /// flow table keeps `left` members, the remainder becomes a new row
    /// with identical remaining work. Member totals are conserved.
    /// This is the divergence primitive faults and chaos tests use to
    /// model a cohort partially re-routed mid-flight.
    ///
    /// Returns `true` if the split happened (`0 < left < count`).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for an invalid or
    /// removed container.
    pub fn split_in_flight_cohort(
        &mut self,
        id: ContainerId,
        idx: usize,
        left: u64,
    ) -> Result<bool, ClusterError> {
        self.activate_container_node(id);
        let c = self.live_container_mut(id)?;
        if idx >= c.flows.len() {
            return Ok(false);
        }
        // Members are conserved, so the routing index is unaffected.
        Ok(c.flows.split(idx, left))
    }

    /// Merges flow row `j` back into row `i` when the two halves are
    /// re-joinable (adjacent id ranges, identical remaining state) — the
    /// inverse of [`Cluster::split_in_flight_cohort`]. Returns whether
    /// the merge happened.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownContainer`] for an invalid or
    /// removed container.
    pub fn merge_in_flight_cohorts(
        &mut self,
        id: ContainerId,
        i: usize,
        j: usize,
    ) -> Result<bool, ClusterError> {
        self.activate_container_node(id);
        let c = self.live_container_mut(id)?;
        Ok(c.flows.merge(i, j))
    }

    /// Total in-flight members across the whole cluster. O(1) —
    /// maintained incrementally on admission, settlement, and removal.
    pub fn total_in_flight(&self) -> u64 {
        debug_assert_eq!(
            self.in_flight_total,
            self.nodes
                .iter()
                .flat_map(|n| n.slots.iter())
                .filter(|c| c.state() != ContainerState::Removed)
                .map(|c| c.in_flight_members())
                .sum::<u64>()
        );
        self.in_flight_total
    }

    /// Advances the fluid model by one tick starting at `now` and lasting
    /// `dt`. Returns the requests that completed or timed out.
    ///
    /// This is a convenience wrapper over [`Cluster::advance_into`]; hot
    /// callers should reuse a [`TickReport`] instead.
    pub fn advance(&mut self, now: SimTime, dt: SimDuration) -> TickReport {
        let mut report = TickReport::default();
        self.advance_into(now, dt, &mut report);
        report
    }

    /// Advances the fluid model by one tick, writing the completions and
    /// failures into `report` (cleared first). With
    /// [`Cluster::set_parallelism`] above 1, nodes are ticked on the
    /// persistent worker pool: workers are woken with an epoch bump (no
    /// per-tick thread creation), each owns a contiguous container-
    /// weighted node range and its own scratch buffers, and outputs are
    /// merged in partition order — node order — so the report is
    /// bit-identical to a serial run.
    pub fn advance_into(&mut self, now: SimTime, dt: SimDuration, report: &mut TickReport) {
        report.completed.clear();
        report.failed.clear();
        let dt_secs = dt.as_secs();
        if dt_secs <= 0.0 {
            return;
        }
        let end = now + dt;

        if self.config.active_set {
            self.advance_active(now, end, dt, dt_secs, report);
        } else {
            self.advance_full(now, end, dt_secs, report);
        }

        // Post-tick bookkeeping shared by both engines: the in-flight
        // counter and the routing index follow the records this tick
        // settled (O(report), not O(cluster)).
        self.in_flight_total = self
            .in_flight_total
            .saturating_sub(report.completed_members() + report.failed_members());
        self.reindex_from_report(report);
    }

    /// Republishes the routing-index key of every container named by a
    /// settled record. A container appearing in several records converges
    /// after the first (the published count already matches).
    fn reindex_from_report(&mut self, report: &TickReport) {
        for i in 0..report.completed.len() {
            let id = report.completed[i].container;
            self.republish_index(id);
        }
        for i in 0..report.failed.len() {
            let Some(id) = report.failed[i].container else {
                continue;
            };
            self.republish_index(id);
        }
    }

    /// Syncs one container's `(members, id)` key with its actual state.
    fn republish_index(&mut self, id: ContainerId) {
        let Some(c) = self.container(id) else { return };
        debug_assert!(!c.spec().antagonist, "antagonists never settle records");
        let members = c.in_flight_members();
        let service = c.service();
        let published = self.index_members[id.as_usize()];
        if published == members {
            return;
        }
        let set = &mut self.route_index[service.as_usize()];
        set.remove(&(published, id.index()));
        set.insert((members, id.index()));
        self.index_members[id.as_usize()] = members;
    }

    /// The reference engine (`config.active_set == false`): visits every
    /// node every tick, exactly the pre-active-set behaviour. Kept as the
    /// brute-force twin the differential tests drive.
    fn advance_full(&mut self, now: SimTime, end: SimTime, dt_secs: f64, report: &mut TickReport) {
        // Serial prepass: lifecycle transitions and the per-node weights
        // (1 + live containers + in-flight flow rows ≈ tick cost) that
        // drive the parallel partition. The per-service replica table is
        // maintained incrementally on start/remove.
        self.node_weights.clear();
        for node in &mut self.nodes {
            let mut weight: u64 = 1;
            for c in &mut node.slots {
                c.mark_running_if_ready(now);
                if c.state() == ContainerState::Removed {
                    continue;
                }
                // Tick cost scales with flow rows, whatever their member
                // counts.
                weight += 1 + c.flows.len() as u64;
            }
            self.node_weights.push(weight);
        }

        let workers = self.parallelism.min(self.nodes.len()).max(1);
        let parallel = if workers > 1 {
            crate::partition::weighted_partition(&self.node_weights, workers, &mut self.partitions);
            self.partitions.len() > 1
        } else {
            false
        };
        if parallel && self.pool.is_none() {
            // Clones drop their source's pool (threads are not
            // cloneable); respawn it on the first parallel tick.
            self.pool = Some(WorkerPool::new(self.parallelism - 1));
        }

        let nodes = &mut self.nodes;
        let scratch_pool = &mut self.scratch;
        let ctx = TickCtx {
            config: &self.config,
            mem_model: &self.mem_model,
            net_alloc: &self.net_alloc,
            replica_counts: &self.replica_counts,
            now,
            end,
            dt_secs,
            poison: self.poison_node,
        };

        if !parallel {
            let scratch = &mut scratch_pool[0];
            scratch.completed.clear();
            scratch.failed.clear();
            for node in nodes.iter_mut() {
                tick_node(node, &ctx, scratch);
            }
            report.completed.append(&mut scratch.completed);
            report.failed.append(&mut scratch.failed);
            return;
        }

        // Partition count never exceeds `workers`, and the scratch pool
        // and thread pool are both sized by `set_parallelism`, so every
        // partition gets a scratch and jobs 1.. each get a pool thread.
        let partitions = &self.partitions;
        debug_assert!(partitions.len() <= scratch_pool.len());
        let pool = self.pool.as_mut().expect("pool exists while parallel");
        let ctx = &ctx;
        let mut rest: &mut [Node] = nodes;
        let mut scratches = scratch_pool.iter_mut();
        let mut closures: Vec<_> = Vec::with_capacity(partitions.len());
        for range in partitions.iter() {
            let (chunk, tail) = rest.split_at_mut(range.end - range.start);
            rest = tail;
            let scratch = scratches.next().expect("scratch per partition");
            closures.push(move || {
                // Stale staged output can only exist if a previous tick
                // panicked mid-merge; clearing here keeps the next tick
                // clean either way.
                scratch.completed.clear();
                scratch.failed.clear();
                for node in chunk.iter_mut() {
                    tick_node(node, ctx, scratch);
                }
            });
        }
        let mut jobs: Vec<hyscale_exec::Job<'_>> = closures
            .iter_mut()
            .map(|c| c as &mut (dyn FnMut() + Send))
            .collect();
        pool.run(&mut jobs);
        drop(jobs);
        drop(closures);
        // Workers held contiguous node ranges in partition order, so
        // appending their buffers in partition order reproduces the
        // serial append order.
        for scratch in scratch_pool.iter_mut().take(partitions.len()) {
            report.completed.append(&mut scratch.completed);
            report.failed.append(&mut scratch.failed);
        }
    }

    /// The active-set engine: visits only nodes with runnable work, so a
    /// tick costs O(active), not O(nodes). Nodes whose tick proves idle
    /// park afterwards; parked nodes accrue pending closed-form ticks
    /// that [`Cluster::catch_up_node`] replays bit-exactly on demand.
    fn advance_active(
        &mut self,
        now: SimTime,
        end: SimTime,
        dt: SimDuration,
        dt_secs: f64,
        report: &mut TickReport,
    ) {
        // Lazy replay is exact only across a dt-constant span: flush
        // every parked node before the duration changes.
        if dt != self.span_dt {
            self.flush_pending();
            self.span_dt = dt;
        }
        // Fold nodes activated since the last tick into the sorted list.
        if !self.newly_active.is_empty() {
            let newly = std::mem::take(&mut self.newly_active);
            self.active_list.extend_from_slice(&newly);
            self.active_list.sort_unstable();
            self.active_list.dedup();
            self.newly_active = newly;
            self.newly_active.clear();
        }

        // Prepass over the active set only: lifecycle transitions plus
        // the compact per-active-node weights feeding the partition.
        self.node_weights.clear();
        for &i in &self.active_list {
            let node = &mut self.nodes[i as usize];
            let mut weight: u64 = 1;
            for c in &mut node.slots {
                c.mark_running_if_ready(now);
                if c.state() == ContainerState::Removed {
                    continue;
                }
                weight += 1 + c.flows.len() as u64;
            }
            self.node_weights.push(weight);
        }

        let active_count = self.active_list.len();
        let workers = self.parallelism.min(active_count).max(1);
        let total_weight: u64 = self.node_weights.iter().sum();
        // Handing jobs to the pool costs microseconds; a tick lighter
        // than this per worker finishes faster on the calling thread
        // (this is what fixed the cohort-mode parallel regression).
        let parallel = if workers > 1 {
            if total_weight >= SERIAL_FALLBACK_WEIGHT * workers as u64 {
                crate::partition::weighted_partition(
                    &self.node_weights,
                    workers,
                    &mut self.partitions,
                );
                self.partitions.len() > 1
            } else {
                self.serial_fallback_ticks += 1;
                false
            }
        } else {
            false
        };
        if parallel && self.pool.is_none() {
            self.pool = Some(WorkerPool::new(self.parallelism - 1));
        }

        let nodes = &mut self.nodes;
        let scratch_pool = &mut self.scratch;
        let active_list = &self.active_list;
        let park_flags = &mut self.park_flags;
        park_flags.clear();
        park_flags.resize(active_count, false);
        let ctx = TickCtx {
            config: &self.config,
            mem_model: &self.mem_model,
            net_alloc: &self.net_alloc,
            replica_counts: &self.replica_counts,
            now,
            end,
            dt_secs,
            poison: self.poison_node,
        };

        if !parallel {
            let scratch = &mut scratch_pool[0];
            scratch.completed.clear();
            scratch.failed.clear();
            for (k, &i) in active_list.iter().enumerate() {
                park_flags[k] = tick_node(&mut nodes[i as usize], &ctx, scratch);
            }
            report.completed.append(&mut scratch.completed);
            report.failed.append(&mut scratch.failed);
        } else {
            let partitions = &self.partitions;
            debug_assert!(partitions.len() <= scratch_pool.len());
            let pool = self.pool.as_mut().expect("pool exists while parallel");
            let ctx = &ctx;
            // Each partition is a contiguous range of `active_list`; the
            // node indices inside it are sorted, so successive
            // `split_at_mut` calls carve the node table into disjoint
            // windows (idle gaps fall between windows) — no worker can
            // alias another's nodes, and no `unsafe` is needed.
            let mut rest: &mut [Node] = nodes;
            let mut offset = 0usize; // index of rest[0] within self.nodes
            let mut flags_rest: &mut [bool] = park_flags;
            let mut scratches = scratch_pool.iter_mut();
            let mut closures: Vec<_> = Vec::with_capacity(partitions.len());
            for range in partitions.iter() {
                let ids = &active_list[range.start..range.end];
                let lo = ids[0] as usize;
                let hi = *ids.last().expect("partitions are non-empty") as usize;
                let (_, tail) = rest.split_at_mut(lo - offset);
                let (chunk, tail) = tail.split_at_mut(hi - lo + 1);
                rest = tail;
                offset = hi + 1;
                let (flags, ftail) = flags_rest.split_at_mut(range.end - range.start);
                flags_rest = ftail;
                let scratch = scratches.next().expect("scratch per partition");
                closures.push(move || {
                    scratch.completed.clear();
                    scratch.failed.clear();
                    for (k, &i) in ids.iter().enumerate() {
                        flags[k] = tick_node(&mut chunk[i as usize - lo], ctx, scratch);
                    }
                });
            }
            let mut jobs: Vec<hyscale_exec::Job<'_>> = closures
                .iter_mut()
                .map(|c| c as &mut (dyn FnMut() + Send))
                .collect();
            pool.run(&mut jobs);
            drop(jobs);
            drop(closures);
            for scratch in scratch_pool.iter_mut().take(partitions.len()) {
                report.completed.append(&mut scratch.completed);
                report.failed.append(&mut scratch.failed);
            }
        }

        // Park the nodes this tick proved idle: every later tick would be
        // the same closed form, so defer them until something changes.
        self.tick_seq += 1;
        let node_active = &mut self.node_active;
        let park_seq = &mut self.park_seq;
        let park_flags = &self.park_flags;
        let tick_seq = self.tick_seq;
        let mut k = 0usize;
        self.active_list.retain(|&i| {
            let parked = park_flags[k];
            k += 1;
            if parked {
                node_active[i as usize] = false;
                park_seq[i as usize] = tick_seq;
            }
            !parked
        });
    }

    /// Advances the cluster across up to `max_ticks` consecutive *idle*
    /// ticks in closed form — the time-warp extension of the per-node
    /// idle fast path. During an idle span every tick performs the same
    /// arithmetic (base CPU tax, throughput-EWMA decay, usage-window
    /// bookkeeping), so all of it can be applied at once.
    ///
    /// Preconditions (checked; violation returns 0 and the caller falls
    /// back to [`Cluster::advance_into`]):
    ///
    /// * no request or cohort is in flight anywhere,
    /// * no antagonist container is live,
    /// * every node's idle grant comes from the one-round closed form.
    ///
    /// The warp additionally clamps itself to stop before the earliest
    /// container startup boundary, so no liveness transition falls inside
    /// the span. Returns the number of ticks actually warped.
    ///
    /// Warping is deterministic (same inputs → same state), but the
    /// floating-point accumulation uses closed-form products rather than
    /// `k` repeated sums, so post-warp state is not bit-identical to `k`
    /// looped idle ticks. The digest-relevant outputs — completions and
    /// failures — are identically empty either way.
    pub fn advance_warp(&mut self, now: SimTime, dt: SimDuration, max_ticks: u64) -> u64 {
        let dt_secs = dt.as_secs();
        if max_ticks == 0 || dt_secs <= 0.0 {
            return 0;
        }
        let mut ticks = max_ticks;
        let dt_us = dt.as_micros().max(1);
        for node in &self.nodes {
            for c in &node.slots {
                if c.state() == ContainerState::Removed {
                    continue;
                }
                if !c.flows.is_empty() {
                    return 0;
                }
                if c.spec().antagonist && c.live(now) {
                    return 0;
                }
                if c.ready_at() > now {
                    // Ticks starting strictly before `ready_at` see the
                    // container as not yet live; stop the warp there.
                    let gap = (c.ready_at() - now).as_micros();
                    ticks = ticks.min(gap.div_ceil(dt_us));
                }
            }
        }
        if ticks == 0 {
            return 0;
        }
        // The precondition scan above only reads fields the lazy
        // catch-up never changes (state, in-flight, ready_at), so a
        // refused warp stays cheap; a committed warp replays any parked
        // span-ticks first so window/EWMA state is current.
        self.flush_pending();
        let config = self.config;
        let mem_model = self.mem_model;
        let nodes = &mut self.nodes;
        let scratch = &mut self.scratch[0];
        // Pass 0 verifies every node's constant per-tick grant is the
        // one-round closed form (nothing has been mutated if it is not);
        // pass 1 applies the whole span.
        for pass in 0..2 {
            for node in nodes.iter_mut() {
                scratch.live.clear();
                scratch.cpu_demands.clear();
                for (slot, c) in node.slots.iter().enumerate() {
                    if c.state() == ContainerState::Removed {
                        continue;
                    }
                    scratch.live.push(slot);
                    let demand = if c.live(now) {
                        c.spec().base_cpu.get() * dt_secs
                    } else {
                        0.0
                    };
                    scratch.cpu_demands.push(CpuDemand::new(
                        c.id(),
                        demand,
                        c.spec().cpu_request.get(),
                    ));
                }
                if scratch.live.is_empty() {
                    continue;
                }
                let active = scratch
                    .cpu_demands
                    .iter()
                    .filter(|d| d.demand > 1e-12)
                    .count();
                let capacity = node.spec().cores.get()
                    * dt_secs
                    * config.overheads.cpu_contention_factor(active);
                if !idle_grants(capacity, &scratch.cpu_demands, &mut scratch.cpu_grants) {
                    debug_assert_eq!(pass, 0, "feasibility changed between passes");
                    return 0;
                }
                if pass == 0 {
                    continue;
                }
                let kf = ticks as f64;
                let alpha = (dt_secs / THROUGHPUT_TAU_SECS.max(dt_secs)).clamp(0.0, 1.0);
                let decay = (1.0 - alpha).powf(kf);
                for (i, &s) in scratch.live.iter().enumerate() {
                    let c = &mut node.slots[s];
                    let granted = scratch.cpu_grants[i].granted;
                    if granted > 0.0 {
                        c.cpu_used_total += granted * kf;
                    }
                    c.throughput_ewma *= decay;
                    let resident = c.resident_mem_with(0.0);
                    let swapping = mem_model
                        .pressure(resident, c.spec().mem_limit)
                        .is_swapping();
                    c.window
                        .record_span(dt_secs, ticks, granted, resident, swapping);
                }
            }
        }
        ticks
    }

    /// Snapshot (and reset) the usage windows of every container on a
    /// node — what a Node Manager reports to the Monitor each period.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an invalid id.
    pub fn node_usage_and_reset(&mut self, node: NodeId) -> Result<NodeUsage, ClusterError> {
        if self.node(node).is_none() {
            return Err(ClusterError::UnknownNode(node));
        }
        if self.config.active_set && !self.node_active[node.as_usize()] {
            // A parked node's windows are stale; replay its idle span
            // before sampling so the report matches the full engine.
            self.catch_up_node(node.as_usize());
        }
        let n = &mut self.nodes[node.as_usize()];
        let mut usage = NodeUsage {
            node,
            cpu_used: Cores::ZERO,
            mem_used: MemMb::ZERO,
            net_used: crate::Mbps::ZERO,
            containers: Vec::with_capacity(n.containers().len()),
        };
        for c in &mut n.slots {
            if c.state() == ContainerState::Removed {
                continue;
            }
            let id = c.id();
            let sample = c.window.snapshot_and_reset(id);
            usage.cpu_used += sample.cpu_used;
            usage.mem_used += sample.mem_used;
            usage.net_used += sample.net_used;
            usage.containers.push(sample);
        }
        Ok(usage)
    }

    /// Peeks at one container's usage window without resetting it.
    ///
    /// This is a `&self` peek, so it cannot replay a parked node's
    /// pending idle ticks; on an active-set cluster the sample may lag
    /// until the next [`Self::flush_pending`] / mutation reactivates
    /// the node. Callers that need exact values should flush first.
    pub fn container_usage(&self, id: ContainerId) -> Option<ContainerUsage> {
        self.container(id).map(|c| c.window.peek(id))
    }

    fn slot_mut(&mut self, id: ContainerId) -> Option<&mut Container> {
        let loc = *self.locs.get(id.as_usize())?;
        self.nodes
            .get_mut(loc.node as usize)?
            .slots
            .get_mut(loc.slot as usize)
    }

    fn live_container_mut(&mut self, id: ContainerId) -> Result<&mut Container, ClusterError> {
        let c = self
            .slot_mut(id)
            .ok_or(ClusterError::UnknownContainer(id))?;
        if c.state() == ContainerState::Removed {
            return Err(ClusterError::UnknownContainer(id));
        }
        Ok(c)
    }
}

/// Closed-form water-filling for the all-idle case, where every demand is
/// a container's base CPU tax: if every positive-weight demand fits inside
/// its round-1 fair share, the full allocator would terminate after one
/// round granting exactly the demand — so grant it directly (and split any
/// leftover among zero-weight demanders, as phase 2 would). Returns
/// `false` when the one-round solution does not apply, in which case the
/// caller must run the full allocator. Grants are bit-identical to
/// [`CpuAllocator::allocate`] whenever this returns `true`.
fn idle_grants(capacity: f64, demands: &[CpuDemand], grants: &mut Vec<CpuGrant>) -> bool {
    grants.clear();
    grants.extend(demands.iter().map(|d| CpuGrant {
        container: d.container,
        granted: 0.0,
    }));
    if capacity <= 1e-12 {
        // The allocator's epsilon: below it neither phase grants anything.
        return true;
    }
    let total_weight: f64 = demands
        .iter()
        .filter(|d| d.demand > 0.0 && d.weight > 0.0)
        .map(|d| d.weight)
        .sum();
    let mut remaining = capacity;
    if total_weight > 0.0 {
        // Round-1 feasibility: every weighted demand must fit its fair
        // share, otherwise the allocator would iterate.
        for d in demands {
            if d.demand > 0.0 && d.weight > 0.0 && d.demand > capacity * d.weight / total_weight {
                return false;
            }
        }
        for (i, d) in demands.iter().enumerate() {
            if d.demand > 0.0 && d.weight > 0.0 {
                grants[i].granted = d.demand;
                remaining -= d.demand;
            }
        }
    }
    if remaining > 1e-12 {
        let zero_weight = demands
            .iter()
            .filter(|d| d.weight <= 0.0 && d.demand > 0.0)
            .count();
        if zero_weight > 0 {
            let share = remaining / zero_weight as f64;
            for (i, d) in demands.iter().enumerate() {
                if d.weight <= 0.0 && d.demand > 0.0 {
                    grants[i].granted = share.min(d.demand);
                }
            }
        }
    }
    true
}

/// Advances one node by one tick. Free function over `&mut Node` so the
/// parallel engine can fan nodes out across scoped threads; all shared
/// inputs are read-only in [`TickCtx`] and all temporaries live in the
/// worker's [`TickScratch`].
///
/// Returns `true` when the node may park: this tick took the idle
/// closed form (or the node had no live slots) *and* no slot is still
/// inside its startup window, so every subsequent tick repeats the same
/// arithmetic until an external mutation arrives.
fn advance_node(node: &mut Node, ctx: &TickCtx<'_>, scratch: &mut TickScratch) -> bool {
    let mut node_spec = *node.spec();
    // Fault injection can degrade the NIC; multiplying by the default 1.0
    // factor is exact in IEEE arithmetic, so healthy nodes are bit-for-bit
    // unchanged.
    node_spec.nic = node_spec.nic * node.nic_factor();
    let TickScratch {
        live,
        slowdowns,
        swapping,
        cpu_demands,
        cpu_grants,
        net_demands,
        net_grants,
        disk_demands,
        disk_grants,
        cpu_wanting,
        net_wanting,
        disk_wanting,
        wanting_ranges,
        wanting_members,
        outstanding,
        net_scratch,
        completed,
        failed,
    } = scratch;

    // Live containers on this node, in placement order; also detect the
    // idle fast-path precondition (nothing in flight, no active hog) and
    // whether any slot is still starting up (a pending liveness
    // transition forbids parking).
    live.clear();
    let mut idle = true;
    let mut all_ready = true;
    for (slot, c) in node.slots.iter().enumerate() {
        if c.state() == ContainerState::Removed {
            continue;
        }
        live.push(slot);
        if !c.flows.is_empty() || (c.spec().antagonist && c.live(ctx.now)) {
            idle = false;
        }
        if c.ready_at() > ctx.now {
            all_ready = false;
        }
    }
    if live.is_empty() {
        return true;
    }

    // --- Pressure + demands: one fused pass per container -------------
    // CPU, network, and disk demands (and the PS work lists the apply
    // phases consume) all derive from fields no earlier phase mutates
    // (`cpu_rem` / `net_rem` / `disk_rem` are each touched only by their
    // own PS phase), so computing them in one sweep over the flows — right
    // after the memory-pressure sweep of the same container, while its
    // rows are cache-hot — is bit-identical to the phase-major order.
    slowdowns.clear();
    swapping.clear();
    cpu_demands.clear();
    net_demands.clear();
    disk_demands.clear();
    cpu_wanting.clear();
    net_wanting.clear();
    disk_wanting.clear();
    wanting_ranges.clear();
    wanting_members.clear();
    for &s in live.iter() {
        let c = &node.slots[s];
        let pressure = ctx.mem_model.pressure(c.resident_mem(), c.spec().mem_limit);
        slowdowns.push(pressure.slowdown);
        swapping.push(pressure.is_swapping());
        wanting_ranges.push([
            cpu_wanting.len() as u32,
            net_wanting.len() as u32,
            disk_wanting.len() as u32,
        ]);
        let mut members = [0.0; 3];
        let (cpu_demand, (net_demand, flows), disk_demand) = if !c.live(ctx.now) {
            (0.0, (0.0, 0), 0.0)
        } else if c.spec().antagonist {
            // Stress containers try to hog the whole machine; a network
            // antagonist opens a handful of bulk streams.
            let net = if c.spec().net_request.get() > 0.0 {
                (node_spec.nic.get() * ctx.dt_secs, 4)
            } else {
                (0.0, 0)
            };
            (node_spec.cores.get() * ctx.dt_secs, net, 0.0)
        } else {
            // A swapping container is IO-bound: each request stalls on
            // page faults and can use at most dt/slowdown of CPU time,
            // leaving the CPU idle (not hogged) while it thrashes.
            let base = c.spec().base_cpu.get() * ctx.dt_secs;
            let thread_budget = ctx.dt_secs / pressure.slowdown;
            let mut cpu_sum = 0.0;
            let mut net_sum = 0.0;
            let mut disk_sum = 0.0;
            // Each row is weighted by its member count (1.0 for a request,
            // which keeps the sums exact). Members are counted in f64 —
            // exact far beyond any realistic population — so the PS rounds
            // never convert.
            for (r, f) in c.flows.rows.iter().enumerate() {
                let n = f.weight();
                if f.cpu_rem > 1e-12 {
                    cpu_sum += f.cpu_rem.min(thread_budget) * n;
                    members[0] += n;
                    cpu_wanting.push((r as u32, n));
                }
                if f.net_rem > 1e-9 {
                    net_sum += f.net_rem * n;
                    members[1] += n;
                    net_wanting.push((r as u32, n));
                }
                if f.disk_rem > 1e-9 {
                    disk_sum += f.disk_rem * n;
                    members[2] += n;
                    disk_wanting.push((r as u32, n));
                }
            }
            let net_count = members[1] as usize;
            let flows = match c.spec().net_flow_pool {
                Some(pool) => net_count.min(pool.max(1)),
                None => net_count,
            };
            (base + cpu_sum, (net_sum, flows), disk_sum)
        };
        wanting_members.push(members);
        cpu_demands.push(CpuDemand::new(
            c.id(),
            cpu_demand,
            c.spec().cpu_request.get(),
        ));
        let mut nd =
            NetDemand::new(c.id(), net_demand, c.spec().net_request.get()).with_flows(flows.max(1));
        if let Some(cap) = c.spec().net_cap {
            nd = nd.with_tc_cap(cap, ctx.dt_secs);
        }
        net_demands.push(nd);
        disk_demands.push(CpuDemand::new(c.id(), disk_demand, 1.0));
    }
    let active = cpu_demands.iter().filter(|d| d.demand > 1e-12).count();
    let capacity =
        node_spec.cores.get() * ctx.dt_secs * ctx.config.overheads.cpu_contention_factor(active);

    // --- Idle fast path ----------------------------------------------
    // With nothing in flight the only physics left are the base CPU tax,
    // EWMA decay, and usage-window bookkeeping: network and disk demands
    // are all zero (granting zero), no request can progress, complete, or
    // time out. Skip the three allocators and the apply/completion scans.
    if idle && idle_grants(capacity, cpu_demands, cpu_grants) {
        for (i, &s) in live.iter().enumerate() {
            let c = &mut node.slots[s];
            let granted = cpu_grants[i].granted;
            let used = if granted > 0.0 {
                c.cpu_used_total += granted;
                granted
            } else {
                0.0
            };
            c.record_throughput(0, ctx.dt_secs, THROUGHPUT_TAU_SECS);
            let resident = c.resident_mem_with(0.0);
            c.window
                .record_tick(ctx.dt_secs, used, 0.0, 0.0, resident, 0, swapping[i]);
        }
        // Park-eligible only once every slot is past its startup: an
        // idle node with a starting container still has a liveness
        // transition (and a demand change) ahead of it.
        return all_ready;
    }

    // --- Allocations (node-level; no container state is read) ----------
    CpuAllocator::allocate_into(capacity, cpu_demands, cpu_grants, outstanding);
    ctx.net_alloc.allocate_into(
        node_spec.nic,
        ctx.dt_secs,
        net_demands,
        net_grants,
        net_scratch,
    );
    // Disk bandwidth is a per-node pool shared max-min fairly among
    // containers with outstanding disk traffic (equal weights — the
    // kernel's block-layer fairness), reusing the water-filling
    // allocator. This is the paper's named future-work resource type.
    let disk_capacity = node_spec.disk.get().max(0.0) * ctx.dt_secs;
    CpuAllocator::allocate_into(disk_capacity, disk_demands, disk_grants, outstanding);

    // --- Apply progress, container-major --------------------------------
    // Once the three grant vectors are fixed, containers are independent:
    // running every phase (CPU PS, net PS, disk PS, settlement scan) for
    // one container before moving to the next reorders only operations on
    // disjoint state, so it is bit-identical to the phase-major order —
    // while each container's rows stay cache-resident across its four
    // sub-sweeps. Completions still append in container placement order.
    for (i, &s) in live.iter().enumerate() {
        let c = &mut node.slots[s];
        let [start_cpu, start_net, start_disk] = wanting_ranges[i].map(|x| x as usize);
        let next = wanting_ranges.get(i + 1);
        let [cpu_members, net_members, disk_members] = wanting_members[i];

        // CPU: processor sharing among flows that still want CPU, honouring
        // each member's per-tick single-thread bound (stalled by swapping).
        // The base tax comes off the top. The initial work list came from
        // the fused demand pass (CPU progress hasn't been applied since).
        let granted = cpu_grants[i].granted;
        let mut used_cpu = 0.0;
        if granted > 0.0 {
            used_cpu = granted;
            c.cpu_used_total += granted;
            if !c.spec().antagonist {
                let base = (c.spec().base_cpu.get() * ctx.dt_secs).min(granted);
                let end = next.map_or(cpu_wanting.len(), |r| r[0] as usize);
                ps_sweep(
                    &mut c.flows.rows,
                    &mut cpu_wanting[start_cpu..end],
                    cpu_members,
                    granted - base,
                    Some(ctx.dt_secs / slowdowns[i]),
                    1e-12,
                    |f| &mut f.cpu_rem,
                );
            }
        }

        // Network.
        let granted = net_grants[i].megabits;
        let mut used_net = 0.0;
        if granted > 0.0 {
            used_net = granted;
            c.megabits_sent_total += granted;
            if !c.spec().antagonist {
                let end = next.map_or(net_wanting.len(), |r| r[1] as usize);
                ps_sweep(
                    &mut c.flows.rows,
                    &mut net_wanting[start_net..end],
                    net_members,
                    granted,
                    None,
                    1e-9,
                    |f| &mut f.net_rem,
                );
            }
        }

        // Disk.
        let granted = disk_grants[i].granted;
        let mut used_disk = 0.0;
        if granted > 0.0 {
            used_disk = granted;
            let end = next.map_or(disk_wanting.len(), |r| r[2] as usize);
            ps_sweep(
                &mut c.flows.rows,
                &mut disk_wanting[start_disk..end],
                disk_members,
                granted,
                None,
                1e-9,
                |f| &mut f.disk_rem,
            );
        }

        // Completions, timeouts, stats.
        let replicas = ctx
            .replica_counts
            .get(c.service().as_usize())
            .copied()
            .unwrap_or(0)
            .max(1) as usize;
        // Stateless fan-out (log) plus, for stateful services, a linear
        // state-synchronization cost per extra replica.
        let fanout = ctx.config.overheads.fanout_latency_secs(replicas)
            + c.spec().coordination_secs * replicas.saturating_sub(1) as f64;
        let id = c.id();
        let mut completed_this_tick = 0u64;
        // Memory of the survivors, accumulated in the order the scan
        // settles them — which is their final row order, so the sum is
        // bit-identical to a fresh `resident_mem` sweep afterwards. Every
        // member of a flow finishes (or times out) together, so a flow
        // settles as one aggregate record.
        let mut req_mem = 0.0;
        let mut r = 0;
        while r < c.flows.len() {
            let f = &c.flows.rows[r];
            let done = f.is_done();
            if !done && f.deadline > ctx.end {
                req_mem += f.mem_per * f.weight();
                r += 1;
                continue;
            }
            let f = c.flows.swap_remove(r);
            let first = RequestId::new(f.id_base);
            if done {
                completed_this_tick += f.count;
                let finished = ctx.end + SimDuration::from_secs(fanout);
                completed.push(CompletedRequest {
                    id: first,
                    count: f.count,
                    service: f.service,
                    container: id,
                    arrival: f.arrival,
                    admitted: f.admitted,
                    finished,
                    response_time: finished.saturating_since(f.arrival),
                });
            } else {
                failed.push(FailedRequest {
                    id: first,
                    count: f.count,
                    service: f.service,
                    container: Some(id),
                    arrival: f.arrival,
                    failed_at: ctx.end,
                    kind: FailureKind::Timeout,
                });
            }
        }
        c.record_throughput(completed_this_tick, ctx.dt_secs, THROUGHPUT_TAU_SECS);
        let resident = c.resident_mem_with(req_mem);
        c.window.record_tick(
            ctx.dt_secs,
            used_cpu,
            used_net,
            used_disk,
            resident,
            c.flows.members() as usize,
            swapping[i],
        );
    }
    false
}

/// Processor sharing of one resource's `budget` among a container's
/// flows: each round splits what is left equally per *member*, each member
/// takes at most its share, and a flow is charged `take × count` — exactly
/// what `count` identical requests would drain. With a `thread_budget`
/// (CPU), a member also takes at most that much per tick, and a flow whose
/// members hit it leaves the work list; without one (network, disk) a
/// member's need is simply what it still owes. A flow also leaves once it
/// owes at most `eps`. `wanting` holds `(row, members)` and is compacted
/// in place.
#[inline(always)]
fn ps_sweep(
    flows: &mut [Flow],
    wanting: &mut [(u32, f64)],
    mut members: f64,
    mut budget: f64,
    thread_budget: Option<f64>,
    eps: f64,
    rem: impl Fn(&mut Flow) -> &mut f64,
) {
    let mut count = wanting.len();
    let mut rounds = 0;
    while budget > eps && members > 0.0 && rounds < 32 {
        rounds += 1;
        let share = budget / members;
        let mut keep = 0;
        for k in 0..count {
            let (r, n) = wanting[k];
            let left = rem(&mut flows[r as usize]);
            let (take, bound_hit) = match thread_budget {
                Some(limit) => {
                    let need = left.min(limit);
                    let take = share.min(need);
                    *left = (*left - take).max(0.0);
                    (take, take >= need - eps)
                }
                None => {
                    let take = share.min(*left);
                    *left -= take;
                    (take, false)
                }
            };
            budget -= take * n;
            if *left > eps && !bound_hit {
                wanting[keep] = (r, n);
                keep += 1;
            } else {
                members -= n;
            }
        }
        if keep == count {
            break;
        }
        count = keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mbps;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::default())
    }

    fn ready_spec(svc: u32) -> ContainerSpec {
        ContainerSpec::new(ServiceId::new(svc)).with_startup_secs(0.0)
    }

    fn run_until_drained(
        cluster: &mut Cluster,
        start: SimTime,
        max_secs: f64,
    ) -> (Vec<CompletedRequest>, Vec<FailedRequest>) {
        let mut completed = Vec::new();
        let mut failed = Vec::new();
        let dt = SimDuration::from_millis(100);
        let mut now = start;
        let horizon = start + SimDuration::from_secs(max_secs);
        while now < horizon {
            let rep = cluster.advance(now, dt);
            completed.extend(rep.completed);
            failed.extend(rep.failed);
            now += dt;
            if cluster.containers().all(|c| c.in_flight_count() == 0) {
                break;
            }
        }
        (completed, failed)
    }

    #[test]
    fn single_cpu_request_completes_in_expected_time() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(
                node,
                ready_spec(0).with_cpu_request(Cores(1.0)),
                SimTime::ZERO,
            )
            .unwrap();
        let req = Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.45);
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, failed) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(failed.len(), 0);
        assert_eq!(completed.len(), 1);
        // 0.45 core-seconds on an uncontended node, single-thread bound:
        // needs 5 ticks of 100 ms -> finishes at 0.5 s.
        let rt = completed[0].response_time.as_secs();
        assert!((0.45..0.65).contains(&rt), "response time {rt}");
    }

    #[test]
    fn contention_with_antagonist_slows_service() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small().with_cores(Cores(1.0)));
        let ctr = cl
            .start_container(
                node,
                ready_spec(0).with_cpu_request(Cores(1.0)),
                SimTime::ZERO,
            )
            .unwrap();
        let _hog = cl
            .start_container(
                node,
                ready_spec(9).with_cpu_request(Cores(1.0)).antagonist(),
                SimTime::ZERO,
            )
            .unwrap();
        let req = Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.2);
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(completed.len(), 1);
        // Equal shares halve throughput; contention adds ~17% more.
        let rt = completed[0].response_time.as_secs();
        assert!(rt > 0.4, "expected >2x slowdown, got {rt}");
    }

    #[test]
    fn removal_aborts_in_flight_requests() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            ctr,
            Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 100.0),
            SimTime::ZERO,
        )
        .unwrap();
        let failures = cl.remove_container(ctr, SimTime::from_secs(1.0)).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::Removal);
        // Second removal errors.
        assert!(cl.remove_container(ctr, SimTime::from_secs(1.0)).is_err());
        // Node no longer lists it, service has no replicas.
        assert!(cl.service_replicas(ServiceId::new(0)).is_empty());
    }

    #[test]
    fn starting_containers_reject_requests() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(
                node,
                ContainerSpec::new(ServiceId::new(0)).with_startup_secs(5.0),
                SimTime::ZERO,
            )
            .unwrap();
        let req = Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.1);
        assert_eq!(
            cl.admit_request(ctr, req.clone(), SimTime::from_secs(1.0)),
            Err(ClusterError::NotAccepting(ctr))
        );
        assert!(cl.admit_request(ctr, req, SimTime::from_secs(5.0)).is_ok());
    }

    #[test]
    fn queue_cap_produces_queue_full() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0).with_queue_cap(2), SimTime::ZERO)
            .unwrap();
        let mk = || Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 10.0);
        assert!(cl.admit_request(ctr, mk(), SimTime::ZERO).is_ok());
        assert!(cl.admit_request(ctr, mk(), SimTime::ZERO).is_ok());
        assert_eq!(
            cl.admit_request(ctr, mk(), SimTime::ZERO),
            Err(ClusterError::QueueFull(ctr))
        );
    }

    #[test]
    fn timeouts_become_timeout_failures() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small().with_cores(Cores(0.1)));
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        let req = Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 50.0)
            .with_timeout(SimDuration::from_secs(1.0));
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, failed) = run_until_drained(&mut cl, SimTime::ZERO, 5.0);
        assert!(completed.is_empty());
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].kind, FailureKind::Timeout);
    }

    #[test]
    fn swapping_slows_progress_dramatically() {
        let run = |mem_limit: f64| -> f64 {
            let mut cl = cluster();
            let node = cl.add_node(NodeSpec::uniform_worker());
            let ctr = cl
                .start_container(
                    node,
                    ready_spec(0)
                        .with_cpu_request(Cores(4.0))
                        .with_mem_limit(MemMb(mem_limit))
                        .with_base_overhead(Cores(0.0), MemMb(64.0)),
                    SimTime::ZERO,
                )
                .unwrap();
            // 200 MB in-flight footprint.
            let req = Request::new(ServiceId::new(0), SimTime::ZERO, 0.5, MemMb(200.0), 0.0);
            cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
            let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 60.0);
            completed[0].response_time.as_secs()
        };
        let fast = run(512.0); // no swap
        let slow = run(128.0); // 136/264 swapped
        assert!(
            slow > fast * 5.0,
            "swap should dominate: no-swap {fast}s vs swap {slow}s"
        );
    }

    #[test]
    fn network_request_completes_at_nic_rate() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small().with_nic(Mbps(100.0)));
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        // 50 megabits at 100 Mb/s -> 0.5 s.
        let req = Request::net_bound(ServiceId::new(0), SimTime::ZERO, 50.0);
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(completed.len(), 1);
        let rt = completed[0].response_time.as_secs();
        assert!((0.5..0.8).contains(&rt), "response time {rt}");
    }

    #[test]
    fn tc_cap_throttles_egress() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small().with_nic(Mbps(100.0)));
        let ctr = cl
            .start_container(node, ready_spec(0).with_net_cap(Mbps(10.0)), SimTime::ZERO)
            .unwrap();
        let req = Request::net_bound(ServiceId::new(0), SimTime::ZERO, 10.0);
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        let rt = completed[0].response_time.as_secs();
        assert!(
            rt >= 1.0,
            "capped at 10 Mb/s, 10 Mb should take ≥1 s, got {rt}"
        );
    }

    #[test]
    fn disk_request_completes_at_disk_rate() {
        let mut cl = cluster();
        // 300 Mb/s disks (NodeSpec::small): 60 megabits -> ~0.2 s.
        let node = cl.add_node(NodeSpec::small());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        let req = Request::disk_bound(ServiceId::new(0), SimTime::ZERO, 60.0);
        cl.admit_request(ctr, req, SimTime::ZERO).unwrap();
        let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(completed.len(), 1);
        let rt = completed[0].response_time.as_secs();
        assert!((0.2..0.5).contains(&rt), "response time {rt}");
        // Disk usage shows up in the stats window.
        let usage = cl.node_usage_and_reset(node).unwrap();
        assert!(usage.containers[0].disk_used.get() > 0.0);
    }

    #[test]
    fn disk_pool_is_shared_fairly() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small()); // 300 Mb/s disk
        let a = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        let b = cl
            .start_container(node, ready_spec(1), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            a,
            Request::disk_bound(ServiceId::new(0), SimTime::ZERO, 150.0),
            SimTime::ZERO,
        )
        .unwrap();
        cl.admit_request(
            b,
            Request::disk_bound(ServiceId::new(1), SimTime::ZERO, 150.0),
            SimTime::ZERO,
        )
        .unwrap();
        let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(completed.len(), 2);
        // Each got ~half the pool: 150 Mb at 150 Mb/s -> ~1 s each.
        for done in &completed {
            let rt = done.response_time.as_secs();
            assert!((0.9..1.3).contains(&rt), "response time {rt}");
        }
    }

    #[test]
    fn docker_update_changes_shares_live() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.update_container(ctr, Cores(2.0), MemMb(1024.0)).unwrap();
        let c = cl.container(ctr).unwrap();
        assert_eq!(c.spec().cpu_request, Cores(2.0));
        assert_eq!(c.spec().mem_limit, MemMb(1024.0));
        assert!(cl
            .update_container(ContainerId::new(99), Cores(1.0), MemMb(1.0))
            .is_err());
    }

    #[test]
    fn free_resources_subtract_live_containers() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let (cpu0, mem0) = cl.free_resources(node).unwrap();
        assert_eq!(cpu0, Cores(4.0));
        assert_eq!(mem0, MemMb(8192.0));
        let ctr = cl
            .start_container(
                node,
                ready_spec(0)
                    .with_cpu_request(Cores(1.5))
                    .with_mem_limit(MemMb(512.0)),
                SimTime::ZERO,
            )
            .unwrap();
        let (cpu1, mem1) = cl.free_resources(node).unwrap();
        assert_eq!(cpu1, Cores(2.5));
        assert_eq!(mem1, MemMb(7680.0));
        cl.remove_container(ctr, SimTime::ZERO).unwrap();
        let (cpu2, _) = cl.free_resources(node).unwrap();
        assert_eq!(cpu2, Cores(4.0));
    }

    #[test]
    fn usage_windows_report_cpu_and_reset() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(
                node,
                ready_spec(0).with_cpu_request(Cores(1.0)),
                SimTime::ZERO,
            )
            .unwrap();
        cl.admit_request(
            ctr,
            Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 100.0),
            SimTime::ZERO,
        )
        .unwrap();
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            cl.advance(now, dt);
            now += dt;
        }
        let usage = cl.node_usage_and_reset(node).unwrap();
        assert_eq!(usage.containers.len(), 1);
        // One single-threaded request on an idle 4-core box: ~1 core.
        let cpu = usage.containers[0].cpu_used.get();
        assert!((0.9..=1.1).contains(&cpu), "cpu {cpu}");
        // Window reset: a fresh snapshot shows zero rates.
        let again = cl.node_usage_and_reset(node).unwrap();
        assert_eq!(again.containers[0].cpu_used, Cores::ZERO);
    }

    #[test]
    fn service_replicas_excludes_antagonists_and_other_services() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let a = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        let _b = cl
            .start_container(node, ready_spec(1), SimTime::ZERO)
            .unwrap();
        let _hog = cl
            .start_container(node, ready_spec(0).antagonist(), SimTime::ZERO)
            .unwrap();
        assert_eq!(cl.service_replicas(ServiceId::new(0)), vec![a]);
    }

    #[test]
    fn advance_with_zero_dt_is_a_no_op() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            ctr,
            Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 1.0),
            SimTime::ZERO,
        )
        .unwrap();
        let rep = cl.advance(SimTime::ZERO, SimDuration::ZERO);
        assert!(rep.completed.is_empty() && rep.failed.is_empty());
        assert_eq!(cl.container(ctr).unwrap().in_flight_count(), 1);
    }

    #[test]
    fn unknown_ids_error() {
        let mut cl = cluster();
        assert!(cl.free_resources(NodeId::new(0)).is_err());
        assert!(cl.node_usage_and_reset(NodeId::new(0)).is_err());
        assert!(cl
            .start_container(
                NodeId::new(0),
                ContainerSpec::new(ServiceId::new(0)),
                SimTime::ZERO
            )
            .is_err());
        assert!(cl
            .admit_request(
                ContainerId::new(0),
                Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.1),
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn stateful_services_pay_per_replica_coordination() {
        let run = |replicas: usize, coordination: f64| -> f64 {
            let mut cl = cluster();
            let mut ctrs = Vec::new();
            for _ in 0..replicas {
                let node = cl.add_node(NodeSpec::uniform_worker());
                let ctr = cl
                    .start_container(
                        node,
                        ready_spec(0).with_coordination_secs(coordination),
                        SimTime::ZERO,
                    )
                    .unwrap();
                ctrs.push(ctr);
            }
            cl.admit_request(
                ctrs[0],
                Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.05),
                SimTime::ZERO,
            )
            .unwrap();
            let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
            completed[0].response_time.as_secs()
        };
        let single = run(1, 0.05);
        let quad_stateless = run(4, 0.0);
        let quad_stateful = run(4, 0.05);
        // 3 extra replicas at 50 ms sync each = +150 ms over stateless.
        assert!((quad_stateful - quad_stateless - 0.15).abs() < 1e-6);
        assert!(single < quad_stateful);
    }

    #[test]
    fn oversubscription_shows_negative_free_resources() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::small()); // 2 cores
        for svc in 0..3 {
            cl.start_container(
                node,
                ready_spec(svc).with_cpu_request(Cores(1.0)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let (cpu, _) = cl.free_resources(node).unwrap();
        assert!(cpu.get() < 0.0, "docker-style oversubscription: {cpu}");
    }

    #[test]
    fn net_cap_update_errors_on_removed_container() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.update_net_cap(ctr, Some(Mbps(10.0))).unwrap();
        cl.remove_container(ctr, SimTime::ZERO).unwrap();
        assert!(cl.update_net_cap(ctr, None).is_err());
        assert!(cl.update_container(ctr, Cores(1.0), MemMb(1.0)).is_err());
    }

    #[test]
    fn fanout_latency_grows_with_replica_count() {
        let run = |replicas: usize| -> f64 {
            let mut cl = cluster();
            let mut first = None;
            for _ in 0..replicas {
                let node = cl.add_node(NodeSpec::uniform_worker());
                let ctr = cl
                    .start_container(node, ready_spec(0), SimTime::ZERO)
                    .unwrap();
                first.get_or_insert(ctr);
            }
            cl.admit_request(
                first.unwrap(),
                Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 0.05),
                SimTime::ZERO,
            )
            .unwrap();
            let (completed, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
            completed[0].response_time.as_secs()
        };
        // Same request, same work; only the replica count (and thus the
        // distribution/fan-out latency) differs.
        assert!(run(8) > run(1));
    }

    #[test]
    fn antagonist_consumes_cpu_in_stats() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let hog = cl
            .start_container(
                node,
                ready_spec(9).with_cpu_request(Cores(4.0)).antagonist(),
                SimTime::ZERO,
            )
            .unwrap();
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            cl.advance(now, dt);
            now += dt;
        }
        let usage = cl.container_usage(hog).unwrap();
        assert!(usage.cpu_used.get() > 3.5, "hog used {:?}", usage.cpu_used);
        // Antagonists never hold requests.
        assert_eq!(usage.in_flight, 0);
    }

    #[test]
    fn throughput_ewma_tracks_served_rate() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(
                node,
                ready_spec(0).with_mem_per_rps(MemMb(10.0)),
                SimTime::ZERO,
            )
            .unwrap();
        // Serve ~10 req/s of tiny requests for 60 s.
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for tick in 0..600 {
            if tick % 10 == 0 {
                cl.admit_request(
                    ctr,
                    Request::new(ServiceId::new(0), now, 0.01, MemMb(1.0), 0.0),
                    now,
                )
                .unwrap();
            }
            cl.advance(now, dt);
            now += dt;
        }
        let c = cl.container(ctr).unwrap();
        assert!(
            (0.5..2.0).contains(&c.throughput_rps()),
            "ewma {:.2} should approximate 1 req/s",
            c.throughput_rps()
        );
        // The working set follows: base 64 + ~10 MB.
        let resident = c.resident_mem().get();
        assert!((70.0..85.0).contains(&resident), "resident {resident}");
    }

    #[test]
    fn decommission_removes_containers_and_rejects_future_use() {
        let mut cl = cluster();
        let n0 = cl.add_node(NodeSpec::uniform_worker());
        let n1 = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(n0, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            ctr,
            Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 100.0),
            SimTime::ZERO,
        )
        .unwrap();
        let failures = cl.decommission_node(n0, SimTime::from_secs(1.0)).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].kind, FailureKind::Removal);
        // The node is gone from every view.
        assert!(cl.node(n0).is_none());
        assert_eq!(cl.node_count(), 1);
        assert!(cl.free_resources(n0).is_err());
        assert!(cl
            .start_container(n0, ready_spec(1), SimTime::from_secs(2.0))
            .is_err());
        // Double decommission errors; other nodes unaffected.
        assert!(cl.decommission_node(n0, SimTime::from_secs(2.0)).is_err());
        assert!(cl
            .start_container(n1, ready_spec(1), SimTime::from_secs(2.0))
            .is_ok());
    }

    #[test]
    fn nodes_can_be_commissioned_at_runtime() {
        let mut cl = cluster();
        let n0 = cl.add_node(NodeSpec::uniform_worker());
        assert_eq!(cl.node_count(), 1);
        // Simulate time passing, then grow the cluster.
        cl.advance(SimTime::ZERO, SimDuration::from_millis(100));
        let n1 = cl.add_node(NodeSpec::small());
        assert_eq!(cl.node_count(), 2);
        assert_ne!(n0, n1);
        let ctr = cl
            .start_container(n1, ready_spec(0), SimTime::from_secs(1.0))
            .unwrap();
        assert_eq!(cl.container(ctr).unwrap().node(), n1);
    }

    #[test]
    fn invalid_spec_rejected_at_start() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let bad = ContainerSpec::new(ServiceId::new(0)).with_cpu_request(Cores(-1.0));
        assert!(matches!(
            cl.start_container(node, bad, SimTime::ZERO),
            Err(ClusterError::InvalidSpec(_))
        ));
    }

    // --- Idle fast path ------------------------------------------------

    #[test]
    fn idle_grants_match_full_allocator_bit_for_bit() {
        let cases: Vec<(f64, Vec<(f64, f64)>)> = vec![
            // (capacity, [(demand, weight)]) — all feasible in round 1.
            (0.4, vec![(0.002, 1.0), (0.002, 1.0)]),
            (0.4, vec![(0.002, 0.5), (0.004, 2.0), (0.0, 1.0)]),
            // Zero-weight demander served by phase 2.
            (0.4, vec![(0.002, 1.0), (0.003, 0.0)]),
            // Only zero-weight demanders.
            (0.1, vec![(0.05, 0.0), (0.2, 0.0)]),
            // Nothing demands anything.
            (0.4, vec![(0.0, 1.0), (0.0, 0.0)]),
            // Capacity below the allocator's epsilon.
            (0.0, vec![(0.002, 1.0)]),
        ];
        for (capacity, spec) in cases {
            let demands: Vec<CpuDemand> = spec
                .iter()
                .enumerate()
                .map(|(i, &(d, w))| CpuDemand::new(ContainerId::new(i as u32), d, w))
                .collect();
            let mut fast = vec![CpuGrant {
                container: ContainerId::new(99),
                granted: -1.0,
            }];
            assert!(
                idle_grants(capacity, &demands, &mut fast),
                "case {spec:?} should be round-1 feasible"
            );
            let reference = CpuAllocator::allocate(capacity, &demands);
            assert_eq!(fast.len(), reference.len());
            for (f, r) in fast.iter().zip(&reference) {
                assert_eq!(f.container, r.container);
                assert_eq!(
                    f.granted.to_bits(),
                    r.granted.to_bits(),
                    "grant mismatch for {spec:?}"
                );
            }
        }

        // A demand exceeding its round-1 fair share must be rejected so
        // the slow path (which iterates) runs instead.
        let demands = vec![
            CpuDemand::new(ContainerId::new(0), 0.35, 1.0),
            CpuDemand::new(ContainerId::new(1), 0.002, 1.0),
        ];
        let mut fast = Vec::new();
        assert!(!idle_grants(0.4, &demands, &mut fast));
    }

    #[test]
    fn idle_ticks_complete_nothing_and_charge_base_cpu() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let weighted = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        // A zero-weight container still draws its base tax from leftover
        // capacity (the allocator's phase 2).
        let zero_weight = cl
            .start_container(
                node,
                ready_spec(1).with_cpu_request(Cores(0.0)),
                SimTime::ZERO,
            )
            .unwrap();
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            let report = cl.advance(now, dt);
            assert!(report.completed.is_empty() && report.failed.is_empty());
            now += dt;
        }
        let usage = cl.node_usage_and_reset(node).unwrap();
        for c in &usage.containers {
            // Both idle containers burn exactly their 0.02-core base tax.
            assert!(
                (c.cpu_used.get() - 0.02).abs() < 1e-12,
                "container {:?} used {}",
                c.container,
                c.cpu_used
            );
            assert_eq!(c.in_flight, 0);
            assert!(!c.swapping);
        }
        assert_eq!(usage.containers.len(), 2);
        let _ = (weighted, zero_weight);
    }

    #[test]
    fn idle_ticks_decay_throughput_ewma() {
        let mut cl = cluster();
        let node = cl.add_node(NodeSpec::uniform_worker());
        let ctr = cl
            .start_container(node, ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            ctr,
            Request::new(ServiceId::new(0), SimTime::ZERO, 0.05, MemMb(1.0), 0.0),
            SimTime::ZERO,
        )
        .unwrap();
        let (done, _) = run_until_drained(&mut cl, SimTime::ZERO, 10.0);
        assert_eq!(done.len(), 1);
        let busy_rps = cl.container(ctr).unwrap().throughput_rps();
        assert!(busy_rps > 0.0);

        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::from_secs(10.0);
        for _ in 0..200 {
            cl.advance(now, dt);
            now += dt;
        }
        // The node parks once idle; replay the pending idle ticks so
        // the EWMA read below sees the decayed value.
        cl.flush_pending();
        let idle_rps = cl.container(ctr).unwrap().throughput_rps();
        assert!(
            idle_rps < busy_rps * 0.5,
            "EWMA should decay while idle: {busy_rps} -> {idle_rps}"
        );
    }
}
