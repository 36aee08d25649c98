//! The typed event taxonomy.
//!
//! Events are plain-old-data: `Copy`, no heap, labels as `&'static str`.
//! That keeps [`TraceSink::emit`](crate::TraceSink::emit) allocation-free
//! and lets the ring buffer overwrite entries in place.

/// Which utilization signal an evaluation looked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// CPU usage relative to the request.
    Cpu,
    /// Resident memory (plus swap) relative to the limit.
    Mem,
    /// Network throughput relative to the request.
    Net,
}

impl Metric {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Cpu => "cpu",
            Metric::Mem => "mem",
            Metric::Net => "net",
        }
    }
}

/// What an algorithm concluded from one metric evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the tolerance band (or no deficit): leave the service alone.
    Hold,
    /// The metric demands more resources this period.
    ScaleUp,
    /// The metric allows reclamation this period.
    ScaleDown,
    /// A rescale was wanted but the anti-thrashing gate blocked it.
    Gated,
}

impl Verdict {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Hold => "hold",
            Verdict::ScaleUp => "scale_up",
            Verdict::ScaleDown => "scale_down",
            Verdict::Gated => "gated",
        }
    }
}

/// The class of an applied scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionTag {
    /// `docker update` of a replica's CPU/memory allocation.
    Update,
    /// A new replica spawned on a node.
    Spawn,
    /// A replica removed by a scale-in decision.
    Remove,
    /// `tc`-style network cap change.
    NetCap,
}

impl ActionTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ActionTag::Update => "update",
            ActionTag::Spawn => "spawn",
            ActionTag::Remove => "remove",
            ActionTag::NetCap => "net_cap",
        }
    }
}

/// The class of an injected fault or its recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTag {
    /// A machine dropped off the network with all its replicas.
    NodeCrash,
    /// The kernel OOM killer took a service's fattest replica.
    OomKill,
    /// A node's NIC capacity dropped to a fraction.
    NicDegrade,
    /// A NodeManager's stat reports went stale.
    StatOutage,
    /// A crashed machine came back (empty).
    Reboot,
    /// A degraded NIC was restored to full capacity.
    NicRestore,
}

impl FaultTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultTag::NodeCrash => "node_crash",
            FaultTag::OomKill => "oom_kill",
            FaultTag::NicDegrade => "nic_degrade",
            FaultTag::StatOutage => "stat_outage",
            FaultTag::Reboot => "reboot",
            FaultTag::NicRestore => "nic_restore",
        }
    }
}

/// What happened to one NodeManager report in transit through the
/// (possibly degraded) control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTag {
    /// The report was dropped on the wire and never arrived.
    Lost,
    /// The report arrived late; the Monitor sees data measured
    /// `delay_periods` periods ago.
    Late,
    /// The report was delivered twice; the duplicate was idempotently
    /// re-applied.
    Duplicate,
}

impl LinkTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            LinkTag::Lost => "lost",
            LinkTag::Late => "late",
            LinkTag::Duplicate => "duplicate",
        }
    }
}

/// What happened to one scaling-action attempt through the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationTag {
    /// The attempt failed; a retry was scheduled with backoff.
    Failed,
    /// A scheduled retry attempt executed successfully.
    Retried,
    /// A retry was suppressed: the idempotency key shows the action
    /// already executed (its ack was lost), so re-running it would
    /// double-place.
    Deduped,
    /// Retries were exhausted; the action was dropped for good.
    Abandoned,
}

impl ActuationTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            ActuationTag::Failed => "failed",
            ActuationTag::Retried => "retried",
            ActuationTag::Deduped => "deduped",
            ActuationTag::Abandoned => "abandoned",
        }
    }
}

/// A circuit-breaker transition on one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTag {
    /// Consecutive failures tripped the breaker (or a half-open probe
    /// failed and it re-opened with a doubled cooldown).
    Open,
    /// A half-open probe succeeded; the breaker closed and reset.
    Close,
}

impl BreakerTag {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            BreakerTag::Open => "open",
            BreakerTag::Close => "close",
        }
    }
}

/// One traced occurrence in the control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The run began (emitted once, at time zero).
    RunStart {
        /// The scenario's master seed.
        seed: u64,
        /// The algorithm under test (paper label).
        algorithm: &'static str,
    },
    /// An algorithm weighed one metric for one service: the provenance of
    /// the decision that follows (or of the decision not to act).
    Evaluation {
        /// The deciding algorithm's report name.
        algorithm: &'static str,
        /// Numeric service id.
        service: u32,
        /// Which signal was measured.
        metric: Metric,
        /// The measured value (average utilization for the HPAs, missing
        /// resources in native units for the hybrid algorithms).
        value: f64,
        /// The configured target the value was compared against.
        target: f64,
        /// What the algorithm concluded.
        verdict: Verdict,
    },
    /// A scaling action the Monitor applied successfully.
    Decision {
        /// The deciding algorithm's report name.
        algorithm: &'static str,
        /// Numeric service id (`u32::MAX` if the container was already
        /// gone when the event was recorded).
        service: u32,
        /// The action class.
        action: ActionTag,
        /// The affected container, when the action targets one.
        container: Option<u32>,
        /// The node involved (spawn target / host of the container).
        node: Option<u32>,
        /// New CPU allocation in cores, when the action carries one.
        cpu: Option<f64>,
        /// New memory limit in MB, when the action carries one.
        mem: Option<f64>,
    },
    /// One node's free resources, sampled each Monitor period.
    AllocatorPressure {
        /// Numeric node id.
        node: u32,
        /// Unallocated CPU, cores.
        free_cpu: f64,
        /// Unallocated memory, MB.
        free_mem: f64,
        /// Live (non-removed) containers hosted.
        containers: u32,
    },
    /// An infrastructure fault struck (or its recovery landed).
    Fault {
        /// The fault class.
        fault: FaultTag,
        /// The targeted node, when the fault addresses one.
        node: Option<u32>,
        /// The targeted service (OOM-kills).
        service: Option<u32>,
        /// Class-specific magnitude: downtime/duration seconds for
        /// crashes and outages, the remaining capacity fraction for NIC
        /// degradation, 0 otherwise.
        magnitude: f64,
    },
    /// The Monitor's roll call noticed a replica that died without a
    /// scale-in decision.
    ReplicaDeath {
        /// Numeric service id.
        service: u32,
        /// The vanished replica.
        container: u32,
    },
    /// The recovery path respawned a replacement replica.
    RecoveryRespawn {
        /// Numeric service id.
        service: u32,
        /// Node the replacement was placed on.
        node: u32,
    },
    /// A recovery attempt found no feasible node and backed off.
    RecoveryBackoff {
        /// Numeric service id.
        service: u32,
        /// Attempts are suppressed until this simulated time (µs).
        retry_at_us: u64,
    },
    /// Requests routed/rejected for one service since the previous
    /// Monitor period.
    BalancerStats {
        /// Numeric service id.
        service: u32,
        /// Members a replica admitted.
        routed: u64,
        /// Members with no live replica or refused by a full queue.
        rejected: u64,
    },
    /// A final counter value from the metrics registry (emitted once per
    /// counter at the end of the run).
    Counter {
        /// Registry name of the counter.
        name: &'static str,
        /// Final value.
        value: u64,
    },
    /// A NodeManager report was perturbed on its way to the Monitor.
    ReportLink {
        /// What the degraded link did to the report.
        link: LinkTag,
        /// The reporting node.
        node: u32,
        /// How many Monitor periods late the data arrived (0 for losses
        /// and duplicates).
        delay_periods: u32,
    },
    /// A scaling action's delivery to the data plane failed, retried,
    /// was deduplicated, or was abandoned.
    Actuation {
        /// What happened to the attempt.
        outcome: ActuationTag,
        /// The action's idempotency key (monotonic per run).
        key: u64,
        /// Which attempt this was (1 = the original submission).
        attempt: u32,
        /// When the next retry fires, µs (0 when no retry is pending).
        retry_at_us: u64,
    },
    /// A replica's circuit breaker changed state.
    Breaker {
        /// Opened or closed.
        state: BreakerTag,
        /// The replica the breaker guards.
        container: u32,
        /// For opens: the cooldown deadline (µs) after which a half-open
        /// probe is allowed. 0 for closes.
        until_us: u64,
    },
    /// The Monitor entered or left cluster-wide safe mode (scaling
    /// frozen because too few nodes have fresh reports).
    SafeMode {
        /// `true` on entry, `false` on exit.
        entered: bool,
        /// Nodes whose data was within the staleness budget.
        fresh_nodes: u32,
        /// Nodes the Monitor polls.
        total_nodes: u32,
    },
    /// A batch of identical arrivals flowed through the balancer as one
    /// cohort (cohort-arrival driver mode).
    CohortFlow {
        /// Numeric service id.
        service: u32,
        /// Members in the arrival batch.
        count: u64,
        /// Members a replica admitted.
        routed: u64,
        /// Members rejected: no live replica, open breakers, or full
        /// queues.
        rejected: u64,
    },
    /// The closed-form time warp skipped a run of idle ticks in one jump.
    TimeWarp {
        /// Whole ticks skipped.
        ticks: u64,
        /// Simulated microseconds the warp covered.
        span_us: u64,
    },
    /// A full simulation snapshot was written at a tick boundary.
    Snapshot {
        /// Ticks executed when the snapshot was taken.
        tick: u64,
        /// The simulated clock at the boundary, microseconds.
        now_us: u64,
    },
    /// One hop of a multi-tier request finished on a service: the
    /// per-hop span record from which a user request's end-to-end path
    /// is reconstructed (stitch journal lines sharing one `root`).
    Span {
        /// The entry-point request (root) id this hop belongs to —
        /// unique per user arrival, monotonic per run.
        root: u64,
        /// Numeric id of the entry-point service the root arrived at.
        entry: u32,
        /// Numeric id of the service that executed this hop.
        service: u32,
        /// Hop depth below the entry point (0 = the entry hop itself).
        depth: u32,
        /// Member requests carried by this hop record (cohorts > 1).
        count: u64,
        /// Time spent between arrival and admission, microseconds
        /// (inter-tier queueing for derived hops).
        queue_us: u64,
        /// Time spent in service after admission, microseconds.
        service_us: u64,
    },
    /// A lost hop was re-queued as a retry attempt instead of failing
    /// its root (per-hop retry policy).
    Retry {
        /// The root whose hop is being retried.
        root: u64,
        /// Numeric id of the service the hop targets.
        service: u32,
        /// The delivery attempt number the retry will make (2 = first
        /// retry).
        attempt: u32,
        /// Members re-issued by this retry.
        count: u64,
        /// When the backoff expires and the retry becomes admissible,
        /// microseconds.
        retry_at_us: u64,
    },
    /// A new client root was shed at admission by the overload
    /// watermark (dropped unissued — counted as shed, not failed).
    Shed {
        /// Numeric id of the entry-point service.
        service: u32,
        /// Members the shed root would have carried.
        count: u64,
        /// The service's in-flight member count that tripped the
        /// watermark.
        in_flight: u64,
    },
    /// A retryable hop failure found its service's retry-budget bucket
    /// empty; the root failed instead of retrying.
    BudgetExhausted {
        /// The root that failed.
        root: u64,
        /// Numeric id of the service whose bucket was empty.
        service: u32,
        /// Members the suppressed retry would have re-issued.
        count: u64,
    },
    /// A retry's backoff landed past the root's end-to-end deadline;
    /// the root failed instead of retrying.
    DeadlineExceeded {
        /// The root that failed.
        root: u64,
        /// Numeric id of the service the hop targeted.
        service: u32,
        /// The root's deadline, microseconds.
        deadline_us: u64,
    },
    /// A capacity-reducing action was vetoed because the service's view
    /// was older than the staleness budget.
    StaleVeto {
        /// The deciding algorithm's report name.
        algorithm: &'static str,
        /// Numeric service id.
        service: u32,
        /// Age of the oldest replica sample backing the decision, in
        /// Monitor periods.
        age_ticks: u32,
        /// The configured staleness budget, in Monitor periods.
        budget_ticks: u32,
    },
}

impl EventKind {
    /// Stable lowercase label identifying the variant in exports.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run_start",
            EventKind::Evaluation { .. } => "evaluation",
            EventKind::Decision { .. } => "decision",
            EventKind::AllocatorPressure { .. } => "pressure",
            EventKind::Fault { .. } => "fault",
            EventKind::ReplicaDeath { .. } => "replica_death",
            EventKind::RecoveryRespawn { .. } => "recovery_respawn",
            EventKind::RecoveryBackoff { .. } => "recovery_backoff",
            EventKind::BalancerStats { .. } => "balancer",
            EventKind::Counter { .. } => "counter",
            EventKind::ReportLink { .. } => "report_link",
            EventKind::Actuation { .. } => "actuation",
            EventKind::Breaker { .. } => "breaker",
            EventKind::SafeMode { .. } => "safe_mode",
            EventKind::CohortFlow { .. } => "cohort_flow",
            EventKind::TimeWarp { .. } => "time_warp",
            EventKind::Snapshot { .. } => "snapshot",
            EventKind::Span { .. } => "span",
            EventKind::Retry { .. } => "retry",
            EventKind::Shed { .. } => "shed",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::DeadlineExceeded { .. } => "deadline_exceeded",
            EventKind::StaleVeto { .. } => "stale_veto",
        }
    }
}

/// One event stamped with its emission order and simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Global emission sequence number (monotonic, starts at 0; keeps
    /// counting even when the ring overwrites old entries).
    pub seq: u64,
    /// Simulated time of the emission, microseconds.
    pub time_us: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Metric::Cpu.label(), "cpu");
        assert_eq!(Metric::Mem.label(), "mem");
        assert_eq!(Metric::Net.label(), "net");
        assert_eq!(Verdict::Hold.label(), "hold");
        assert_eq!(Verdict::ScaleUp.label(), "scale_up");
        assert_eq!(Verdict::ScaleDown.label(), "scale_down");
        assert_eq!(Verdict::Gated.label(), "gated");
        assert_eq!(ActionTag::Update.label(), "update");
        assert_eq!(ActionTag::NetCap.label(), "net_cap");
        assert_eq!(FaultTag::NodeCrash.label(), "node_crash");
        assert_eq!(FaultTag::NicRestore.label(), "nic_restore");
        assert_eq!(LinkTag::Lost.label(), "lost");
        assert_eq!(LinkTag::Late.label(), "late");
        assert_eq!(LinkTag::Duplicate.label(), "duplicate");
        assert_eq!(ActuationTag::Failed.label(), "failed");
        assert_eq!(ActuationTag::Retried.label(), "retried");
        assert_eq!(ActuationTag::Deduped.label(), "deduped");
        assert_eq!(ActuationTag::Abandoned.label(), "abandoned");
        assert_eq!(BreakerTag::Open.label(), "open");
        assert_eq!(BreakerTag::Close.label(), "close");
    }

    #[test]
    fn kind_labels_cover_all_variants() {
        let kinds = [
            EventKind::RunStart {
                seed: 1,
                algorithm: "hybrid",
            },
            EventKind::Evaluation {
                algorithm: "hybrid",
                service: 0,
                metric: Metric::Cpu,
                value: 0.4,
                target: 0.5,
                verdict: Verdict::Hold,
            },
            EventKind::Decision {
                algorithm: "hybrid",
                service: 0,
                action: ActionTag::Spawn,
                container: None,
                node: Some(1),
                cpu: Some(0.5),
                mem: Some(256.0),
            },
            EventKind::AllocatorPressure {
                node: 0,
                free_cpu: 3.5,
                free_mem: 7168.0,
                containers: 2,
            },
            EventKind::Fault {
                fault: FaultTag::OomKill,
                node: None,
                service: Some(1),
                magnitude: 0.0,
            },
            EventKind::ReplicaDeath {
                service: 0,
                container: 3,
            },
            EventKind::RecoveryRespawn {
                service: 0,
                node: 1,
            },
            EventKind::RecoveryBackoff {
                service: 0,
                retry_at_us: 5_000_000,
            },
            EventKind::BalancerStats {
                service: 0,
                routed: 10,
                rejected: 1,
            },
            EventKind::Counter {
                name: "requests.issued",
                value: 42,
            },
            EventKind::ReportLink {
                link: LinkTag::Late,
                node: 2,
                delay_periods: 1,
            },
            EventKind::Actuation {
                outcome: ActuationTag::Failed,
                key: 7,
                attempt: 1,
                retry_at_us: 10_000_000,
            },
            EventKind::Breaker {
                state: BreakerTag::Open,
                container: 4,
                until_us: 12_000_000,
            },
            EventKind::SafeMode {
                entered: true,
                fresh_nodes: 1,
                total_nodes: 4,
            },
            EventKind::CohortFlow {
                service: 0,
                count: 1_000,
                routed: 990,
                rejected: 10,
            },
            EventKind::TimeWarp {
                ticks: 48,
                span_us: 4_800_000,
            },
            EventKind::Snapshot {
                tick: 120,
                now_us: 12_000_000,
            },
            EventKind::Span {
                root: 17,
                entry: 0,
                service: 2,
                depth: 1,
                count: 32,
                queue_us: 150_000,
                service_us: 820_000,
            },
            EventKind::Retry {
                root: 17,
                service: 2,
                attempt: 2,
                count: 32,
                retry_at_us: 2_500_000,
            },
            EventKind::Shed {
                service: 0,
                count: 64,
                in_flight: 10_000,
            },
            EventKind::BudgetExhausted {
                root: 17,
                service: 2,
                count: 32,
            },
            EventKind::DeadlineExceeded {
                root: 17,
                service: 2,
                deadline_us: 30_000_000,
            },
            EventKind::StaleVeto {
                algorithm: "hybrid",
                service: 0,
                age_ticks: 3,
                budget_ticks: 1,
            },
        ];
        let labels: Vec<&str> = kinds.iter().map(EventKind::label).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "labels must be distinct");
    }
}
