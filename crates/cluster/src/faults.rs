//! Deterministic, seedable fault injection.
//!
//! A [`FaultPlan`] is part of the experiment *definition*: a list of
//! infrastructure faults pinned to exact simulated times, either written
//! by hand or drawn from a [`SimRng`] via [`FaultPlan::random`] (same
//! seed ⇒ same plan ⇒ bit-identical runs). The
//! [`FaultInjector`] executes the plan against a [`Cluster`] as simulated
//! time advances, scheduling the matching recoveries (reboots, NIC
//! restores, stat-report un-muting) itself.
//!
//! Four fault classes cover the failure modes the paper's platform has to
//! survive:
//!
//! * **Node crash + reboot** — the machine drops off the network with all
//!   its replicas; it returns empty after a downtime.
//! * **Container OOM-kill** — the kernel kills the fattest replica of a
//!   service.
//! * **NIC degradation** — a node's egress capacity drops to a fraction
//!   for a while (flapping link).
//! * **Stat outage** — a NodeManager's `docker stats` reports go stale;
//!   the Monitor must decide (and detect deaths) without them.
//!
//! All fault application happens at the top of the driver's tick, before
//! any node advances, so a fault always strikes the same cluster state
//! in every run of one config.

use hyscale_sim::{SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError};
use hyscale_trace::{EventKind, FaultTag, TraceSink};

use crate::cluster::Cluster;
use crate::ids::{ContainerId, NodeId, ServiceId};
use crate::request::FailedRequest;

/// One class of infrastructure fault. Nodes are addressed by their index
/// in the scenario's initial node list (like scheduled node events), and
/// services by their numeric id, so a plan is configuration, not runtime
/// state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Crash the node at this index; it reboots (empty) `down_secs`
    /// later.
    NodeCrash {
        /// Index into the scenario's node list.
        node: usize,
        /// Downtime before the machine reboots.
        down_secs: f64,
    },
    /// OOM-kill the live replica of `service` with the largest resident
    /// set (what the kernel's OOM killer picks).
    OomKill {
        /// Numeric service id.
        service: u32,
    },
    /// Degrade the node's NIC to `factor` of its capacity for
    /// `duration_secs`, then restore it.
    NicDegrade {
        /// Index into the scenario's node list.
        node: usize,
        /// Fraction of NIC capacity that remains (clamped to `[0, 1]`).
        factor: f64,
        /// How long the degradation lasts.
        duration_secs: f64,
    },
    /// Drop the node's NodeManager stat reports for `duration_secs`: the
    /// Monitor sees no fresh usage for its containers.
    StatOutage {
        /// Index into the scenario's node list.
        node: usize,
        /// How long reports stay muted.
        duration_secs: f64,
    },
}

/// A fault pinned to an exact simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, in seconds from the start of the run.
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of infrastructure faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by time.
    pub events: Vec<FaultEvent>,
}

/// Shape of a randomly drawn fault plan: how many faults of each class to
/// scatter over the horizon, and the downtime/duration range.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Faults are drawn in `[0.05, 0.85] * horizon_secs` so recoveries
    /// have room to land inside the run.
    pub horizon_secs: f64,
    /// Number of nodes eligible as targets (indices `0..nodes`).
    pub nodes: usize,
    /// Number of services eligible as OOM targets (ids `0..services`).
    pub services: usize,
    /// Node crashes to schedule.
    pub node_crashes: usize,
    /// OOM-kills to schedule.
    pub oom_kills: usize,
    /// NIC degradations to schedule.
    pub nic_degradations: usize,
    /// Stat outages to schedule.
    pub stat_outages: usize,
    /// Minimum downtime / fault duration, seconds.
    pub min_down_secs: f64,
    /// Maximum downtime / fault duration, seconds.
    pub max_down_secs: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon_secs: 600.0,
            nodes: 4,
            services: 2,
            node_crashes: 1,
            oom_kills: 2,
            nic_degradations: 1,
            stat_outages: 2,
            min_down_secs: 10.0,
            max_down_secs: 60.0,
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults; the default for every scenario).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Fluent append of one fault, keeping the schedule sorted by time
    /// (stable: equal-time faults keep insertion order).
    pub fn with(mut self, at_secs: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_secs, kind });
        self.events
            .sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite times"));
        self
    }

    /// Draws a random plan from `rng`: times uniform over the middle of
    /// the horizon, targets uniform over nodes/services, downtimes and
    /// durations uniform over the configured range, NIC factors in
    /// `[0.05, 0.5]`. Deterministic for a given rng state.
    pub fn random(cfg: &FaultPlanConfig, rng: &mut SimRng) -> Self {
        let mut events = Vec::new();
        let at = |rng: &mut SimRng| rng.uniform_range(0.05, 0.85) * cfg.horizon_secs;
        let span = (cfg.min_down_secs, cfg.max_down_secs);
        for _ in 0..cfg.node_crashes {
            events.push(FaultEvent {
                at_secs: at(rng),
                kind: FaultKind::NodeCrash {
                    node: rng.uniform_usize(cfg.nodes.max(1)),
                    down_secs: rng.uniform_range(span.0, span.1),
                },
            });
        }
        for _ in 0..cfg.oom_kills {
            events.push(FaultEvent {
                at_secs: at(rng),
                kind: FaultKind::OomKill {
                    service: rng.uniform_usize(cfg.services.max(1)) as u32,
                },
            });
        }
        for _ in 0..cfg.nic_degradations {
            events.push(FaultEvent {
                at_secs: at(rng),
                kind: FaultKind::NicDegrade {
                    node: rng.uniform_usize(cfg.nodes.max(1)),
                    factor: rng.uniform_range(0.05, 0.5),
                    duration_secs: rng.uniform_range(span.0, span.1),
                },
            });
        }
        for _ in 0..cfg.stat_outages {
            events.push(FaultEvent {
                at_secs: at(rng),
                kind: FaultKind::StatOutage {
                    node: rng.uniform_usize(cfg.nodes.max(1)),
                    duration_secs: rng.uniform_range(span.0, span.1),
                },
            });
        }
        events.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite times"));
        FaultPlan { events }
    }

    /// Validates the plan against a scenario shape.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason: non-finite or negative times or
    /// durations, node indices out of range, or OOM targets naming a
    /// service not in `services`.
    pub fn validate(&self, node_count: usize, services: &[ServiceId]) -> Result<(), String> {
        for (i, event) in self.events.iter().enumerate() {
            if !event.at_secs.is_finite() || event.at_secs < 0.0 {
                return Err(format!(
                    "fault {i}: time must be finite and non-negative, got {}",
                    event.at_secs
                ));
            }
            let check_node = |node: usize| {
                if node >= node_count {
                    Err(format!("fault {i}: node index {node} out of range"))
                } else {
                    Ok(())
                }
            };
            let check_duration = |secs: f64| {
                if !secs.is_finite() || secs <= 0.0 {
                    Err(format!(
                        "fault {i}: duration must be finite and positive, got {secs}"
                    ))
                } else {
                    Ok(())
                }
            };
            match event.kind {
                FaultKind::NodeCrash { node, down_secs } => {
                    check_node(node)?;
                    check_duration(down_secs)?;
                }
                FaultKind::OomKill { service } => {
                    if !services.iter().any(|s| s.index() == service) {
                        return Err(format!("fault {i}: unknown service id {service}"));
                    }
                }
                FaultKind::NicDegrade {
                    node,
                    factor,
                    duration_secs,
                } => {
                    check_node(node)?;
                    check_duration(duration_secs)?;
                    if !factor.is_finite() || !(0.0..=1.0).contains(&factor) {
                        return Err(format!(
                            "fault {i}: NIC factor must be within [0, 1], got {factor}"
                        ));
                    }
                }
                FaultKind::StatOutage {
                    node,
                    duration_secs,
                } => {
                    check_node(node)?;
                    check_duration(duration_secs)?;
                }
            }
        }
        Ok(())
    }
}

/// Counts of faults and recoveries actually applied during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Nodes crashed.
    pub node_crashes: u64,
    /// Nodes rebooted after a crash.
    pub reboots: u64,
    /// Replicas OOM-killed.
    pub oom_kills: u64,
    /// NIC degradations applied.
    pub nic_degradations: u64,
    /// Stat outages started.
    pub stat_outages: u64,
    /// Faults that found no target (e.g. an OOM-kill of a service with no
    /// replicas, or a crash of a node that was already down).
    pub skipped: u64,
}

impl FaultLog {
    /// Total faults that actually struck.
    pub fn total_applied(&self) -> u64 {
        self.node_crashes + self.oom_kills + self.nic_degradations + self.stat_outages
    }
}

impl std::ops::AddAssign for FaultLog {
    fn add_assign(&mut self, rhs: FaultLog) {
        self.node_crashes += rhs.node_crashes;
        self.reboots += rhs.reboots;
        self.oom_kills += rhs.oom_kills;
        self.nic_degradations += rhs.nic_degradations;
        self.stat_outages += rhs.stat_outages;
        self.skipped += rhs.skipped;
    }
}

/// A scheduled recovery the injector owes the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recovery {
    Reboot(NodeId),
    NicRestore(NodeId),
}

/// Executes a [`FaultPlan`] against a cluster as simulated time advances.
///
/// The driver calls [`FaultInjector::apply_due`] once per tick (in its
/// serial event phase); the injector applies every fault that has come
/// due, schedules the matching recovery, and returns the requests the
/// faults aborted. Stat outages don't touch the cluster — the Monitor
/// queries [`FaultInjector::muted_nodes`] instead.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// `(time, kind)` schedule, sorted; `cursor` marks the next fault.
    schedule: Vec<(SimTime, FaultKind)>,
    cursor: usize,
    /// Recoveries owed, in the order their faults were applied.
    pending: Vec<(SimTime, Recovery)>,
    /// Stat outages: node muted until the given time.
    outages: Vec<(NodeId, SimTime)>,
    /// Scenario node index → runtime node id.
    node_ids: Vec<NodeId>,
    log: FaultLog,
}

impl FaultInjector {
    /// Builds an injector for `plan`, resolving node indices through
    /// `node_ids` (the scenario's initial node list, in order).
    pub fn new(plan: &FaultPlan, node_ids: &[NodeId]) -> Self {
        FaultInjector {
            schedule: plan
                .events
                .iter()
                .map(|e| (SimTime::from_secs(e.at_secs), e.kind))
                .collect(),
            cursor: 0,
            pending: Vec::new(),
            outages: Vec::new(),
            node_ids: node_ids.to_vec(),
            log: FaultLog::default(),
        }
    }

    /// Serializes the injector's mutable state: schedule progress, owed
    /// recoveries, live stat outages, and the fault log (snapshot
    /// support). The schedule itself and the node mapping are *not*
    /// written — they are rebuilt deterministically from the scenario's
    /// `FaultPlan` before [`FaultInjector::snapshot_restore`] overlays
    /// this state.
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_usize(self.cursor);
        w.put_usize(self.pending.len());
        for &(at, recovery) in &self.pending {
            w.put_u64(at.as_micros());
            match recovery {
                Recovery::Reboot(node) => {
                    w.put_u8(0);
                    w.put_u32(node.index());
                }
                Recovery::NicRestore(node) => {
                    w.put_u8(1);
                    w.put_u32(node.index());
                }
            }
        }
        w.put_usize(self.outages.len());
        for &(node, until) in &self.outages {
            w.put_u32(node.index());
            w.put_u64(until.as_micros());
        }
        w.put_u64(self.log.node_crashes);
        w.put_u64(self.log.reboots);
        w.put_u64(self.log.oom_kills);
        w.put_u64(self.log.nic_degradations);
        w.put_u64(self.log.stat_outages);
        w.put_u64(self.log.skipped);
    }

    /// Overlays state captured by [`FaultInjector::snapshot_write`] onto
    /// a freshly rebuilt injector (same plan, same node list).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] if the
    /// payload under-runs or the cursor exceeds the schedule length.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let cursor = r.get_usize()?;
        if cursor > self.schedule.len() {
            return Err(SnapshotError::Corrupt(format!(
                "fault cursor {cursor} exceeds schedule length {}",
                self.schedule.len()
            )));
        }
        let n = r.get_usize()?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let at = SimTime::from_micros(r.get_u64()?);
            let recovery = match r.get_u8()? {
                0 => Recovery::Reboot(NodeId::new(r.get_u32()?)),
                1 => Recovery::NicRestore(NodeId::new(r.get_u32()?)),
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "unknown recovery tag {other}"
                    )))
                }
            };
            pending.push((at, recovery));
        }
        let n = r.get_usize()?;
        let mut outages = Vec::with_capacity(n);
        for _ in 0..n {
            let node = NodeId::new(r.get_u32()?);
            let until = SimTime::from_micros(r.get_u64()?);
            outages.push((node, until));
        }
        self.cursor = cursor;
        self.pending = pending;
        self.outages = outages;
        self.log = FaultLog {
            node_crashes: r.get_u64()?,
            reboots: r.get_u64()?,
            oom_kills: r.get_u64()?,
            nic_degradations: r.get_u64()?,
            stat_outages: r.get_u64()?,
            skipped: r.get_u64()?,
        };
        Ok(())
    }

    /// Applies every fault and recovery due at or before `now`, returning
    /// the in-flight requests the faults aborted (connection failures —
    /// infrastructure deaths are not scale-in removals). Call once per
    /// tick, before the resource-model advance.
    pub fn apply_due(&mut self, cluster: &mut Cluster, now: SimTime) -> Vec<FailedRequest> {
        self.apply_due_traced(cluster, now, &mut TraceSink::disabled())
    }

    /// Like [`FaultInjector::apply_due`], but records every fault and
    /// recovery that actually struck into `trace` as
    /// [`EventKind::Fault`] events (skipped faults are not traced — they
    /// changed nothing).
    pub fn apply_due_traced(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> Vec<FailedRequest> {
        let mut aborted = Vec::new();

        // Recoveries first: a node whose downtime ends exactly when the
        // next fault strikes is back up for it.
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= now {
                let (_, recovery) = self.pending.remove(i);
                match recovery {
                    Recovery::Reboot(node) => {
                        if cluster.reboot_node(node).is_ok() {
                            self.log.reboots += 1;
                            trace.emit(
                                now,
                                EventKind::Fault {
                                    fault: FaultTag::Reboot,
                                    node: Some(node.index()),
                                    service: None,
                                    magnitude: 0.0,
                                },
                            );
                        }
                    }
                    Recovery::NicRestore(node) => {
                        if cluster.set_nic_factor(node, 1.0).is_ok() {
                            trace.emit(
                                now,
                                EventKind::Fault {
                                    fault: FaultTag::NicRestore,
                                    node: Some(node.index()),
                                    service: None,
                                    magnitude: 1.0,
                                },
                            );
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        self.outages.retain(|&(_, until)| until > now);

        while let Some(&(at, kind)) = self.schedule.get(self.cursor) {
            if at > now {
                break;
            }
            self.cursor += 1;
            match kind {
                FaultKind::NodeCrash { node, down_secs } => {
                    let id = self.node_ids[node];
                    match cluster.crash_node(id, now) {
                        Ok(mut failures) => {
                            aborted.append(&mut failures);
                            self.log.node_crashes += 1;
                            self.pending.push((
                                now + SimDuration::from_secs(down_secs),
                                Recovery::Reboot(id),
                            ));
                            trace.emit(
                                now,
                                EventKind::Fault {
                                    fault: FaultTag::NodeCrash,
                                    node: Some(id.index()),
                                    service: None,
                                    magnitude: down_secs,
                                },
                            );
                        }
                        Err(_) => self.log.skipped += 1,
                    }
                }
                FaultKind::OomKill { service } => {
                    match oom_victim(cluster, ServiceId::new(service)) {
                        Some(victim) => match cluster.oom_kill(victim, now) {
                            Ok(mut failures) => {
                                aborted.append(&mut failures);
                                self.log.oom_kills += 1;
                                trace.emit(
                                    now,
                                    EventKind::Fault {
                                        fault: FaultTag::OomKill,
                                        node: None,
                                        service: Some(service),
                                        magnitude: 0.0,
                                    },
                                );
                            }
                            Err(_) => self.log.skipped += 1,
                        },
                        None => self.log.skipped += 1,
                    }
                }
                FaultKind::NicDegrade {
                    node,
                    factor,
                    duration_secs,
                } => {
                    let id = self.node_ids[node];
                    match cluster.set_nic_factor(id, factor) {
                        Ok(()) => {
                            self.log.nic_degradations += 1;
                            self.pending.push((
                                now + SimDuration::from_secs(duration_secs),
                                Recovery::NicRestore(id),
                            ));
                            trace.emit(
                                now,
                                EventKind::Fault {
                                    fault: FaultTag::NicDegrade,
                                    node: Some(id.index()),
                                    service: None,
                                    magnitude: factor,
                                },
                            );
                        }
                        Err(_) => self.log.skipped += 1,
                    }
                }
                FaultKind::StatOutage {
                    node,
                    duration_secs,
                } => {
                    let id = self.node_ids[node];
                    self.outages
                        .push((id, now + SimDuration::from_secs(duration_secs)));
                    self.log.stat_outages += 1;
                    trace.emit(
                        now,
                        EventKind::Fault {
                            fault: FaultTag::StatOutage,
                            node: Some(id.index()),
                            service: None,
                            magnitude: duration_secs,
                        },
                    );
                }
            }
        }
        aborted
    }

    /// Nodes whose NodeManager reports are muted at `now`, in fault order.
    pub fn muted_nodes(&self, now: SimTime) -> Vec<NodeId> {
        let mut muted: Vec<NodeId> = self
            .outages
            .iter()
            .filter(|&&(_, until)| until > now)
            .map(|&(node, _)| node)
            .collect();
        muted.sort_unstable();
        muted.dedup();
        muted
    }

    /// True once every scheduled fault has struck and every recovery has
    /// been delivered.
    pub fn drained(&self) -> bool {
        self.cursor == self.schedule.len() && self.pending.is_empty()
    }

    /// Counts of faults applied so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }
}

/// The kernel OOM killer's victim: the replica of `service` with the
/// largest resident set (ties keep the earliest-created replica, for
/// determinism).
fn oom_victim(cluster: &Cluster, service: ServiceId) -> Option<ContainerId> {
    let mut best: Option<(f64, ContainerId)> = None;
    for id in cluster.service_replicas(service) {
        let Some(container) = cluster.container(id) else {
            continue;
        };
        let mem = container.resident_mem().get();
        if best.is_none_or(|(best_mem, _)| mem > best_mem) {
            best = Some((mem, id));
        }
    }
    best.map(|(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::container::ContainerSpec;
    use crate::node::NodeSpec;
    use crate::request::Request;
    use crate::{Cores, MemMb};

    fn two_node_cluster() -> (Cluster, Vec<NodeId>) {
        let mut cl = Cluster::new(ClusterConfig::default());
        let ids = vec![
            cl.add_node(NodeSpec::uniform_worker()),
            cl.add_node(NodeSpec::uniform_worker()),
        ];
        (cl, ids)
    }

    fn ready_spec(svc: u32) -> ContainerSpec {
        ContainerSpec::new(ServiceId::new(svc)).with_startup_secs(0.0)
    }

    #[test]
    fn crash_aborts_in_flight_as_connection_failures_and_reboot_restores() {
        let (mut cl, nodes) = two_node_cluster();
        let ctr = cl
            .start_container(nodes[0], ready_spec(0), SimTime::ZERO)
            .unwrap();
        cl.admit_request(
            ctr,
            Request::cpu_bound(ServiceId::new(0), SimTime::ZERO, 100.0),
            SimTime::ZERO,
        )
        .unwrap();
        let plan = FaultPlan::new().with(
            1.0,
            FaultKind::NodeCrash {
                node: 0,
                down_secs: 5.0,
            },
        );
        let mut injector = FaultInjector::new(&plan, &nodes);

        let aborted = injector.apply_due(&mut cl, SimTime::from_secs(1.0));
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].kind, crate::FailureKind::InfraDeath);
        assert!(cl.node(nodes[0]).is_none(), "crashed node is unreachable");
        assert_eq!(cl.node_count(), 1);
        assert!(!injector.drained());

        // Nothing happens while the machine is down.
        assert!(injector
            .apply_due(&mut cl, SimTime::from_secs(3.0))
            .is_empty());
        assert!(cl.node(nodes[0]).is_none());

        // Reboot at crash + 5 s: identity restored, containers gone.
        injector.apply_due(&mut cl, SimTime::from_secs(6.0));
        let node = cl.node(nodes[0]).expect("rebooted");
        assert_eq!(node.id(), nodes[0]);
        assert!(cl.service_replicas(ServiceId::new(0)).is_empty());
        assert!(injector.drained());
        assert_eq!(injector.log().node_crashes, 1);
        assert_eq!(injector.log().reboots, 1);
    }

    #[test]
    fn oom_kill_picks_the_fattest_replica() {
        let (mut cl, nodes) = two_node_cluster();
        let slim = cl
            .start_container(nodes[0], ready_spec(0), SimTime::ZERO)
            .unwrap();
        let fat = cl
            .start_container(
                nodes[1],
                ready_spec(0).with_base_overhead(Cores(0.02), MemMb(512.0)),
                SimTime::ZERO,
            )
            .unwrap();
        let plan = FaultPlan::new().with(0.0, FaultKind::OomKill { service: 0 });
        let mut injector = FaultInjector::new(&plan, &nodes);
        injector.apply_due(&mut cl, SimTime::ZERO);
        assert_eq!(cl.service_replicas(ServiceId::new(0)), vec![slim]);
        assert!(cl.container(fat).unwrap().state() == crate::ContainerState::Removed);
        assert_eq!(injector.log().oom_kills, 1);
    }

    #[test]
    fn oom_kill_without_replicas_is_skipped() {
        let (mut cl, nodes) = two_node_cluster();
        let plan = FaultPlan::new().with(0.0, FaultKind::OomKill { service: 7 });
        let mut injector = FaultInjector::new(&plan, &nodes);
        assert!(injector.apply_due(&mut cl, SimTime::ZERO).is_empty());
        assert_eq!(injector.log().skipped, 1);
        assert_eq!(injector.log().total_applied(), 0);
    }

    #[test]
    fn nic_degradation_applies_and_restores() {
        let (mut cl, nodes) = two_node_cluster();
        let plan = FaultPlan::new().with(
            1.0,
            FaultKind::NicDegrade {
                node: 1,
                factor: 0.25,
                duration_secs: 4.0,
            },
        );
        let mut injector = FaultInjector::new(&plan, &nodes);
        injector.apply_due(&mut cl, SimTime::from_secs(1.0));
        assert_eq!(cl.node(nodes[1]).unwrap().nic_factor(), 0.25);
        injector.apply_due(&mut cl, SimTime::from_secs(5.0));
        assert_eq!(cl.node(nodes[1]).unwrap().nic_factor(), 1.0);
        assert_eq!(injector.log().nic_degradations, 1);
    }

    #[test]
    fn stat_outage_mutes_then_expires() {
        let (mut cl, nodes) = two_node_cluster();
        let plan = FaultPlan::new().with(
            2.0,
            FaultKind::StatOutage {
                node: 0,
                duration_secs: 3.0,
            },
        );
        let mut injector = FaultInjector::new(&plan, &nodes);
        assert!(injector.muted_nodes(SimTime::from_secs(1.0)).is_empty());
        injector.apply_due(&mut cl, SimTime::from_secs(2.0));
        assert_eq!(
            injector.muted_nodes(SimTime::from_secs(2.0)),
            vec![nodes[0]]
        );
        assert_eq!(
            injector.muted_nodes(SimTime::from_secs(4.9)),
            vec![nodes[0]]
        );
        assert!(injector.muted_nodes(SimTime::from_secs(5.0)).is_empty());
    }

    #[test]
    fn crash_of_a_downed_node_is_skipped() {
        let (mut cl, nodes) = two_node_cluster();
        let plan = FaultPlan::new()
            .with(
                1.0,
                FaultKind::NodeCrash {
                    node: 0,
                    down_secs: 100.0,
                },
            )
            .with(
                2.0,
                FaultKind::NodeCrash {
                    node: 0,
                    down_secs: 100.0,
                },
            );
        let mut injector = FaultInjector::new(&plan, &nodes);
        injector.apply_due(&mut cl, SimTime::from_secs(1.0));
        injector.apply_due(&mut cl, SimTime::from_secs(2.0));
        assert_eq!(injector.log().node_crashes, 1);
        assert_eq!(injector.log().skipped, 1);
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let cfg = FaultPlanConfig {
            horizon_secs: 300.0,
            nodes: 5,
            services: 3,
            node_crashes: 2,
            oom_kills: 3,
            nic_degradations: 2,
            stat_outages: 2,
            ..FaultPlanConfig::default()
        };
        let a = FaultPlan::random(&cfg, &mut SimRng::seed_from(42));
        let b = FaultPlan::random(&cfg, &mut SimRng::seed_from(42));
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
        let services: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
        a.validate(5, &services).unwrap();
        // Sorted by time.
        assert!(a.events.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        // A different seed gives a different plan.
        let c = FaultPlan::random(&cfg, &mut SimRng::seed_from(43));
        assert_ne!(a, c);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let services = [ServiceId::new(0)];
        let bad_node = FaultPlan::new().with(
            1.0,
            FaultKind::NodeCrash {
                node: 9,
                down_secs: 1.0,
            },
        );
        assert!(bad_node.validate(2, &services).is_err());
        let bad_service = FaultPlan::new().with(1.0, FaultKind::OomKill { service: 5 });
        assert!(bad_service.validate(2, &services).is_err());
        let bad_factor = FaultPlan::new().with(
            1.0,
            FaultKind::NicDegrade {
                node: 0,
                factor: 1.5,
                duration_secs: 1.0,
            },
        );
        assert!(bad_factor.validate(2, &services).is_err());
        let bad_time = FaultPlan::new().with(
            -1.0,
            FaultKind::StatOutage {
                node: 0,
                duration_secs: 1.0,
            },
        );
        assert!(bad_time.validate(2, &services).is_err());
        let zero_duration = FaultPlan::new().with(
            1.0,
            FaultKind::StatOutage {
                node: 0,
                duration_secs: 0.0,
            },
        );
        assert!(zero_duration.validate(2, &services).is_err());
        assert!(FaultPlan::new().validate(0, &[]).is_ok());
    }
}
