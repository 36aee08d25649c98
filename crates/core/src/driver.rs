//! End-to-end experiment driver: workload → load balancer → cluster →
//! Monitor, producing a [`RunReport`].
//!
//! A scenario is a pure function of its configuration and seed. The
//! driver owns the event loop: client arrivals (per-service
//! non-homogeneous Poisson processes), the fixed 100 ms resource tick,
//! and the Monitor's scaling period (5 s, matching the paper's
//! experiments). The paper's protocol of averaging each experiment over
//! five runs is [`SimulationDriver::run_averaged`] over five seeds.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use hyscale_cluster::{
    Cluster, ClusterConfig, Cohort, ContainerId, ContainerSpec, FailureKind, FaultInjector,
    FaultLog, FaultPlan, MemMb, NodeId, NodeSpec, Request, ServiceId, TickReport,
};
use hyscale_metrics::{
    AvailabilityTracker, CostMeter, MetricsRegistry, RequestOutcomes, ServiceAvailability, Summary,
    TimeSeries,
};
use hyscale_sim::{
    fnv1a, EventQueue, SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError,
    TickEngine, TickOutcome,
};
use hyscale_trace::{EventKind, TraceSink};
use hyscale_workload::{ArrivalProcess, LoadPattern, ServiceGraph, ServiceProfile, ServiceSpec};

use crate::algorithms::{AlgorithmKind, HpaConfig, HyScaleConfig};
use crate::balancer::LoadBalancer;
use crate::controlplane::{ControlPlane, ControlPlaneConfig, ControlPlaneStats};
use crate::error::CoreError;
use crate::flowgraph::{EntryPointStats, GraphTracker, PendingHop};
use crate::monitor::Monitor;
use crate::recovery::{RecoveryConfig, RecoveryManager};
use crate::resilience::{ResilienceConfig, ResilienceStats};
use hyscale_cluster::FailedRequest;

/// Complete description of one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Experiment name (used in reports).
    pub name: String,
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Resource-model tick.
    pub tick: SimDuration,
    /// Monitor scaling period (the paper queries every 5 s).
    pub scale_period: SimDuration,
    /// Worker-node hardware (the paper's LB nodes are excluded; only
    /// workers are modelled).
    pub nodes: Vec<NodeSpec>,
    /// The microservices under test.
    pub services: Vec<ServiceSpec>,
    /// Replicas started per service before the run.
    pub initial_replicas: usize,
    /// The algorithm under test.
    pub algorithm: AlgorithmKind,
    /// Horizontal-baseline parameters.
    pub hpa: HpaConfig,
    /// Hybrid-algorithm parameters.
    pub hyscale: HyScaleConfig,
    /// Resource-model overheads.
    pub cluster: ClusterConfig,
    /// Antagonist (stress) containers: `(node index, spec)` pairs started
    /// before the run, used by the Section III studies.
    pub antagonists: Vec<(usize, ContainerSpec)>,
    /// Scheduled machine additions/removals (paper future work:
    /// "dynamic addition and removal of machines").
    pub node_events: Vec<(f64, NodeEvent)>,
    /// Scheduled infrastructure faults (crashes, OOM-kills, NIC
    /// degradation, stat outages); empty = no chaos.
    pub faults: FaultPlan,
    /// Replica-recovery tunables (respawn floor, backoff).
    pub recovery: RecoveryConfig,
    /// Control-plane degradation model (report loss/delay/duplication,
    /// actuation failure) and the resilience machinery that survives it
    /// (staleness vetoes, safe mode, circuit breakers). Disabled =
    /// the legacy perfectly-reliable loop.
    pub control_plane: ControlPlaneConfig,
    /// Worker threads for the per-tick resource model (1 = serial).
    /// Results are bit-identical at any setting; see
    /// [`Cluster::set_parallelism`].
    pub parallelism: usize,
    /// Carry each tick's arrivals per service as one flow cohort instead
    /// of scheduling per-request arrival events: the tick draws a Poisson
    /// count, materializes one [`ServiceSpec::make_cohort`], and
    /// waterfills it across replicas. A different (fluid) arrival
    /// discipline from the default thinning process — not bit-comparable
    /// with it — but deterministic and bit-identical across parallelism.
    pub cohort_arrivals: bool,
    /// Let provably idle stretches (nothing in flight, no event, fault,
    /// or arrival due) be advanced in closed form as one jump. The warp
    /// is deterministic but not bit-identical to ticking through the same
    /// stretch (EWMA decay and usage windows are applied in closed form).
    pub time_warp: bool,
    /// Service dependency DAG over the service list (by index). `None` =
    /// the classic independent-services model. With a graph, client load
    /// attaches only to entry-point services; each completed hop spawns
    /// child work along its outgoing edges (admitted at the next tick, so
    /// inter-tier queueing is real), per-hop spans are journaled, and
    /// end-to-end outcomes per entry point land in
    /// [`RunReport::entry_points`]. Derived traffic draws no randomness:
    /// child demands are the child's base demands scaled by the edge
    /// multipliers, so an edge-free graph reproduces the graph-free run
    /// byte for byte (every service is then an entry point).
    pub graph: Option<ServiceGraph>,
    /// Request-lifecycle resilience: per-hop retries with exponential
    /// backoff and seeded jitter, end-to-end deadline propagation,
    /// per-service retry budgets, and admission-control load shedding.
    /// Requires [`ScenarioConfig::graph`] when enabled; disabled (the
    /// default) leaves every run bit-identical to a build without the
    /// layer. All stochastic draws come from a dedicated RNG split in
    /// the serial phase, so results stay bit-identical at any worker
    /// count.
    pub resilience: ResilienceConfig,
    /// Periodic full-state snapshots: write the complete deterministic
    /// simulation state to disk at tick boundaries. `None` = no
    /// snapshots. Does not perturb the simulation: a run with snapshots
    /// enabled is bit-identical to one without.
    pub snapshot: Option<SnapshotPolicy>,
    /// Resume from a snapshot file written by a run of this *exact*
    /// configuration (checked via a config digest; parallelism and the
    /// snapshot/resume controls themselves may differ). `None` = start
    /// from tick zero.
    pub resume: Option<PathBuf>,
}

/// When and where [`SimulationDriver`] writes full-state snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPolicy {
    /// Write a snapshot each time this many ticks have elapsed (time-warp
    /// jumps that overshoot a boundary snapshot once, at the landing
    /// tick). Must be positive.
    pub every_ticks: u64,
    /// Directory snapshot files are written into (created on demand).
    pub dir: PathBuf,
    /// Stop the run immediately after the first snapshot is written,
    /// without emitting the end-of-run counter dump. The returned report
    /// covers only the ticks that ran; the snapshot file plus
    /// [`ScenarioConfig::resume`] continue the run losslessly.
    pub halt_after_first: bool,
}

impl SnapshotPolicy {
    /// The file a snapshot taken after `tick` ticks is written to.
    pub fn file_for(&self, tick: u64) -> PathBuf {
        self.dir.join(format!("tick-{tick:010}.snap"))
    }
}

/// A scheduled change to the machine pool.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// Power off the node at this index (of the initial `nodes` list);
    /// its containers are lost (removal failures).
    Decommission(usize),
    /// Bring a new machine of this spec online.
    Commission(NodeSpec),
}

impl ScenarioConfig {
    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] describing the first
    /// problem.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.nodes.is_empty() {
            return Err(CoreError::InvalidScenario("no nodes".into()));
        }
        if self.services.is_empty() {
            return Err(CoreError::InvalidScenario("no services".into()));
        }
        if self.initial_replicas == 0 {
            return Err(CoreError::InvalidScenario(
                "initial_replicas must be at least 1".into(),
            ));
        }
        if self.tick.is_zero() || self.scale_period.is_zero() || self.duration.is_zero() {
            return Err(CoreError::InvalidScenario(
                "durations (tick, scale_period, duration) must be positive".into(),
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &self.services {
            if !seen.insert(s.id) {
                return Err(CoreError::InvalidScenario(format!(
                    "duplicate service id {}",
                    s.id
                )));
            }
        }
        for (idx, _) in &self.antagonists {
            if *idx >= self.nodes.len() {
                return Err(CoreError::InvalidScenario(format!(
                    "antagonist node index {idx} out of range"
                )));
            }
        }
        for (secs, event) in &self.node_events {
            if !secs.is_finite() || *secs < 0.0 {
                return Err(CoreError::InvalidScenario(format!(
                    "node event time must be non-negative, got {secs}"
                )));
            }
            if let NodeEvent::Decommission(idx) = event {
                if *idx >= self.nodes.len() {
                    return Err(CoreError::InvalidScenario(format!(
                        "decommission node index {idx} out of range"
                    )));
                }
            }
        }
        self.hpa
            .validate()
            .map_err(|e| CoreError::InvalidScenario(format!("hpa: {e}")))?;
        self.hyscale
            .validate()
            .map_err(|e| CoreError::InvalidScenario(format!("hyscale: {e}")))?;
        let service_ids: Vec<ServiceId> = self.services.iter().map(|s| s.id).collect();
        self.faults
            .validate(self.nodes.len(), &service_ids)
            .map_err(|e| CoreError::InvalidScenario(format!("faults: {e}")))?;
        self.recovery
            .validate()
            .map_err(|e| CoreError::InvalidScenario(format!("recovery: {e}")))?;
        self.control_plane
            .validate()
            .map_err(|e| CoreError::InvalidScenario(format!("control_plane: {e}")))?;
        if let Some(policy) = &self.snapshot {
            if policy.every_ticks == 0 {
                return Err(CoreError::InvalidScenario(
                    "snapshot.every_ticks must be positive".into(),
                ));
            }
        }
        if let Some(graph) = &self.graph {
            graph
                .validate()
                .map_err(|e| CoreError::InvalidScenario(format!("graph: {e}")))?;
            if graph.nodes() != self.services.len() {
                return Err(CoreError::InvalidScenario(format!(
                    "graph spans {} services, scenario has {}",
                    graph.nodes(),
                    self.services.len()
                )));
            }
        }
        self.resilience
            .validate()
            .map_err(|e| CoreError::InvalidScenario(format!("resilience: {e}")))?;
        if self.resilience.enabled && self.graph.is_none() {
            return Err(CoreError::InvalidScenario(
                "resilience requires a service graph (retries, deadlines, and \
                 shedding act on graph roots and hops)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Counts of scaling operations performed during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalingCounts {
    /// Vertical (`docker update` / `tc`) operations.
    pub vertical: u64,
    /// Replica spawns.
    pub spawns: u64,
    /// Replica removals.
    pub removals: u64,
}

impl ScalingCounts {
    /// Total operations of any kind.
    pub fn total(&self) -> u64 {
        self.vertical + self.spawns + self.removals
    }
}

impl std::ops::AddAssign for ScalingCounts {
    fn add_assign(&mut self, rhs: ScalingCounts) {
        self.vertical += rhs.vertical;
        self.spawns += rhs.spawns;
        self.removals += rhs.removals;
    }
}

/// Everything measured in one run (or merged across seeds).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// The algorithm that ran.
    pub algorithm: AlgorithmKind,
    /// Seeds merged into this report.
    pub seeds: Vec<u64>,
    /// Overall request outcomes.
    pub requests: RequestOutcomes,
    /// Outcomes per service.
    pub per_service: BTreeMap<ServiceId, RequestOutcomes>,
    /// Scaling-operation counts.
    pub scaling: ScalingCounts,
    /// Allocated-resource cost integral.
    pub cost: CostMeter,
    /// Total replica count sampled each scaling period.
    pub replicas: TimeSeries,
    /// Cluster CPU usage (cores) sampled each scaling period.
    pub cpu_used: TimeSeries,
    /// Cluster resident memory (MB) sampled each scaling period.
    pub mem_used: TimeSeries,
    /// Per-service availability (uptime %, MTTR, recovery counts).
    /// Tracked per tick only for scenarios with faults or node events;
    /// all-zero (nothing observed, 100% uptime) otherwise.
    pub availability: BTreeMap<ServiceId, ServiceAvailability>,
    /// Faults actually applied during the run.
    pub faults: FaultLog,
    /// Control-plane health counters (all zero when the control-plane
    /// degradation layer is disabled).
    pub control_plane: ControlPlaneStats,
    /// Ticks the time-warp fast path skipped in closed form (0 unless
    /// [`ScenarioConfig::time_warp`] was enabled).
    pub warp_ticks: u64,
    /// End-to-end outcomes per entry point, in ascending service order
    /// (empty unless [`ScenarioConfig::graph`] was set).
    pub entry_points: Vec<EntryPointStats>,
    /// Resilience-layer counters — retries, budget/deadline refusals,
    /// shed load, and the goodput-vs-wasted-work split (all zero unless
    /// [`ScenarioConfig::resilience`] was enabled).
    pub resilience: ResilienceStats,
    /// FNV-1a digest of the full serialized end-of-run state. `Some`
    /// only for single-seed runs that finished the horizon with
    /// snapshotting or resume enabled; two runs with equal digests ended
    /// in bit-identical simulation states.
    pub state_digest: Option<u64>,
}

impl RunReport {
    /// Mean response time in milliseconds (the paper's headline metric).
    pub fn mean_response_ms(&self) -> f64 {
        self.requests.mean_response_secs() * 1e3
    }

    /// Lowest per-service uptime percentage (100.0 when availability was
    /// not tracked).
    pub fn min_uptime_pct(&self) -> f64 {
        self.availability
            .values()
            .map(|a| a.uptime_pct())
            .fold(100.0, f64::min)
    }

    /// Largest per-service mean time to repair, in seconds.
    pub fn max_mttr_secs(&self) -> f64 {
        self.availability
            .values()
            .map(|a| a.mttr_secs())
            .fold(0.0, f64::max)
    }

    /// Total successful recovery respawns across services.
    pub fn total_respawns(&self) -> u64 {
        self.availability.values().map(|a| a.respawns).sum()
    }

    /// Total failed recovery attempts across services.
    pub fn total_recovery_failures(&self) -> u64 {
        self.availability
            .values()
            .map(|a| a.recovery_failures)
            .sum()
    }

    /// Releases the spare capacity of every response-time ledger once
    /// no more records are coming.
    fn trim(&mut self) {
        self.requests.response_times.shrink_to_fit();
        for o in self.per_service.values_mut() {
            o.response_times.shrink_to_fit();
        }
        for e in &mut self.entry_points {
            e.e2e_secs.shrink_to_fit();
        }
    }
}

/// Tallies one aborted/failed request exactly once, into both the overall
/// and the per-service outcomes, according to the paper's taxonomy:
/// scale-in and decommission aborts are **removal** failures, while
/// timeouts, queue aborts, and infrastructure deaths are tallied
/// separately and rolled up as **connection** failures in reports. Every
/// failure-recording site in the driver funnels through here, so a
/// request can never be double-counted or dropped — and, in graph mode,
/// so every lost hop reliably fails its root (or, with the resilience
/// layer enabled and a retryable failure, re-queues as a retry hop).
/// The failed attempt is tallied either way: retries are extra issued
/// load, so per-attempt accounting keeps `completed + failures ≤
/// issued` intact.
#[allow(clippy::too_many_arguments)]
fn record_failure(
    requests: &mut RequestOutcomes,
    per_service: &mut BTreeMap<ServiceId, RequestOutcomes>,
    graph: Option<&mut GraphTracker>,
    failure: &FailedRequest,
    rng: &mut SimRng,
    trace: &mut TraceSink,
    traced: bool,
) {
    if let Some(tracker) = graph {
        tracker.on_failed(failure, rng, trace, traced);
    }
    // Per-request paths always carry count 1; aborted cohorts arrive as
    // one aggregate record carrying their member count.
    record_failure_tally(requests, failure.kind, failure.count);
    if let Some(out) = per_service.get_mut(&failure.service) {
        record_failure_tally(out, failure.kind, failure.count);
    }
}

/// Hands one arrival's routed shares to the cluster — the single
/// admission path behind per-request arrivals, cohort arrivals and graph
/// child hops. `shares` come from [`LoadBalancer::route`] (one request,
/// one share) or [`LoadBalancer::route_cohort`] (a batch); `unrouted`
/// counts members the balancer found no replica for. Each share is
/// admitted as a copy of `flow` with the share's member count. Admitted
/// shares feed the replica's circuit breaker as successes and, in graph
/// mode, register as hops of `graph`'s root; refused shares feed it as
/// failures. Refused and unrouted members are tallied as queue aborts
/// and, in graph mode, handed to [`GraphTracker::on_unadmitted`] (retry
/// or fail the root). Returns `(admitted, rejected)` members — the
/// balancer tallies' one rule: a member counts as routed only once a
/// replica admitted it.
#[allow(clippy::too_many_arguments)]
fn admit_shares(
    cluster: &mut Cluster,
    balancer: &mut LoadBalancer,
    flow: &Cohort,
    shares: &[(ContainerId, u64)],
    unrouted: u64,
    mut graph: Option<(&mut GraphTracker, &PendingHop)>,
    requests: &mut RequestOutcomes,
    outcomes: &mut RequestOutcomes,
    rng: &mut SimRng,
    now: SimTime,
    trace: &mut TraceSink,
    traced: bool,
) -> (u64, u64) {
    let mut admitted = 0;
    let mut rejected = unrouted;
    for &(target, count) in shares {
        match cluster.admit_cohort(target, Cohort { count, ..*flow }, now) {
            Ok(first) => {
                admitted += count;
                if let Some((tracker, hop)) = graph.as_mut() {
                    tracker.register_hop(hop.root, first.index(), hop);
                }
                balancer.record_success(target, now, trace);
            }
            Err(_) => {
                rejected += count;
                balancer.record_failure(target, now, trace);
            }
        }
    }
    if rejected > 0 {
        requests.record_queue_abort_failures(rejected);
        outcomes.record_queue_abort_failures(rejected);
        if let Some((tracker, hop)) = graph {
            tracker.on_unadmitted(hop, rejected, now, rng, trace, traced);
        }
    }
    (admitted, rejected)
}

/// Bumps one outcome record's failure tally by kind.
fn record_failure_tally(out: &mut RequestOutcomes, kind: FailureKind, count: u64) {
    match kind {
        FailureKind::Removal => out.record_removal_failures(count),
        FailureKind::Timeout => out.record_timeout_failures(count),
        FailureKind::QueueAbort => out.record_queue_abort_failures(count),
        FailureKind::InfraDeath => out.record_infra_death_failures(count),
    }
}

/// Events on the driver's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A client request for service index `usize` arrives.
    Arrival(usize),
    /// The Monitor's scaling period fires.
    Scale,
    /// A scheduled machine addition/removal (index into
    /// `config.node_events`).
    NodeChange(usize),
}

/// Runs scenarios.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulationDriver;

impl SimulationDriver {
    /// Runs one scenario once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for inconsistent
    /// configurations, or a wrapped cluster error if setup fails.
    pub fn run(config: &ScenarioConfig) -> Result<RunReport, CoreError> {
        Self::run_traced(config, &mut TraceSink::disabled())
    }

    /// Runs one scenario once, journaling decision provenance into
    /// `trace`.
    ///
    /// With a disabled sink this is exactly [`SimulationDriver::run`]:
    /// every emission site is gated on [`TraceSink::is_enabled`] (or is a
    /// no-op `emit`), so tracing costs nothing when off and never touches
    /// the simulation state either way — traced and untraced runs of the
    /// same config and seed produce identical [`RunReport`]s.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimulationDriver::run`].
    pub fn run_traced(
        config: &ScenarioConfig,
        trace: &mut TraceSink,
    ) -> Result<RunReport, CoreError> {
        config.validate()?;
        let mut master_rng = SimRng::seed_from(config.seed);
        let traced = trace.is_enabled();
        // A resumed run continues the interrupted run's journal: it
        // neither re-announces the run nor restarts sequence numbers.
        if traced && config.resume.is_none() {
            trace.emit(
                SimTime::ZERO,
                EventKind::RunStart {
                    seed: config.seed,
                    algorithm: config.algorithm.label(),
                },
            );
        }

        // --- Cluster setup -------------------------------------------------
        let mut cluster = Cluster::new(config.cluster);
        cluster.set_parallelism(config.parallelism);
        let node_ids: Vec<NodeId> = config
            .nodes
            .iter()
            .map(|spec| cluster.add_node(*spec))
            .collect();

        for (node_idx, spec) in &config.antagonists {
            let spec = spec.clone().with_startup_secs(0.0);
            cluster.start_container(node_ids[*node_idx], spec, SimTime::ZERO)?;
        }

        // Initial replicas, placed round-robin across nodes. They are
        // pre-warmed (no startup delay): the paper's services are already
        // running when an experiment's measurement window opens.
        let mut placement_cursor = 0usize;
        for service in &config.services {
            for _ in 0..config.initial_replicas {
                let node = node_ids[placement_cursor % node_ids.len()];
                placement_cursor += 1;
                let spec = service.container.clone().with_startup_secs(0.0);
                cluster.start_container(node, spec, SimTime::ZERO)?;
            }
        }

        // --- Platform setup -------------------------------------------------
        let templates: HashMap<ServiceId, ContainerSpec> = config
            .services
            .iter()
            .map(|s| (s.id, s.container.clone()))
            .collect();
        let algorithm = config.algorithm.build(config.hpa, config.hyscale);
        let mut monitor = Monitor::new(algorithm, &cluster, templates.clone());
        let mut recovery = RecoveryManager::new(config.recovery);
        let mut injector = FaultInjector::new(&config.faults, &node_ids);

        // --- Workload setup ---------------------------------------------------
        let mut arrival_rngs: Vec<SimRng> =
            config.services.iter().map(|_| master_rng.split()).collect();
        let mut demand_rngs: Vec<SimRng> =
            config.services.iter().map(|_| master_rng.split()).collect();
        // Control-plane streams split *after* the workload streams so a
        // disabled control plane leaves every legacy stream untouched
        // (the splits still happen, keeping seeds comparable across
        // configs that only toggle `control_plane.enabled`).
        let cp_rng = master_rng.split();
        let lb_rng = master_rng.split();
        // The resilience stream (retry-backoff jitter) splits last and
        // unconditionally, so toggling the layer never shifts any other
        // stream; it is only ever drawn from in the serial phase.
        let mut resilience_rng = master_rng.split();

        let degraded_control = config.control_plane.enabled;
        let service_ids: Vec<ServiceId> = config.services.iter().map(|s| s.id).collect();
        let mut balancer = if degraded_control {
            monitor.set_control_plane(ControlPlane::new(config.control_plane, cp_rng));
            let mut lb = LoadBalancer::with_breakers(config.control_plane.breaker, lb_rng);
            // The balancer's first backend snapshot is the initial
            // placement; later ones arrive once per scaling period.
            lb.refresh(&cluster, &service_ids);
            lb
        } else {
            LoadBalancer::new()
        };
        let mut arrivals: Vec<ArrivalProcess> = config
            .services
            .iter()
            .map(|s| ArrivalProcess::new(s.load.clone()))
            .collect();

        // Graph mode: client load attaches only to entry points; every
        // non-entry tier sees purely derived traffic. Non-entry services
        // never draw from their arrival streams, which is exactly why an
        // edge-free graph (every service an entry) reproduces the
        // graph-free run bit for bit.
        let mut graph_tracker: Option<GraphTracker> = config
            .graph
            .as_ref()
            .map(|g| GraphTracker::new(g.clone(), &config.services, config.resilience));
        let takes_client_load = |idx: usize, tracker: &Option<GraphTracker>| {
            tracker.as_ref().is_none_or(|t| t.is_entry(idx))
        };

        let mut events: EventQueue<Event> = EventQueue::new();
        if !config.cohort_arrivals {
            // Per-request mode: each service runs a thinned Poisson
            // process of individual arrival events. Cohort mode draws a
            // per-tick Poisson count inside the tick body instead.
            for (idx, process) in arrivals.iter_mut().enumerate() {
                if !takes_client_load(idx, &graph_tracker) {
                    continue;
                }
                let first = process.next_arrival(SimTime::ZERO, &mut arrival_rngs[idx]);
                if first < SimTime::MAX {
                    events.schedule(first, Event::Arrival(idx));
                }
            }
        }
        events.schedule(SimTime::ZERO + config.scale_period, Event::Scale);
        for (idx, (secs, _)) in config.node_events.iter().enumerate() {
            events.schedule(SimTime::from_secs(*secs), Event::NodeChange(idx));
        }

        // --- Metrics ------------------------------------------------------------
        let mut requests = RequestOutcomes::new();
        let mut per_service: BTreeMap<ServiceId, RequestOutcomes> = config
            .services
            .iter()
            .map(|s| (s.id, RequestOutcomes::new()))
            .collect();
        let mut scaling = ScalingCounts::default();
        let mut cost = CostMeter::new();
        let mut replicas_ts = TimeSeries::new("replicas");
        let mut cpu_ts = TimeSeries::new("cpu-used-cores");
        let mut mem_ts = TimeSeries::new("mem-used-mb");

        // Per-tick availability roll calls cost one pass over all
        // containers, so they only run for scenarios that can actually
        // lose replicas to the infrastructure.
        let track_availability = !config.faults.is_empty() || !config.node_events.is_empty();
        let mut availability: BTreeMap<ServiceId, AvailabilityTracker> = config
            .services
            .iter()
            .map(|s| (s.id, AvailabilityTracker::new()))
            .collect();
        let mut ready_counts: Vec<u32> = Vec::new();

        // Trace tallies: per-service balancer routing deltas since the
        // last scaling period (emitted as `BalancerStats`, then reset)
        // plus run totals for the end-of-run counter dump.
        let mut balancer_deltas: Vec<(u64, u64)> = vec![(0, 0); config.services.len()];
        let mut balancer_total = (0u64, 0u64);
        let mut deaths_total = 0u64;
        let mut respawns_total = 0u64;
        let mut recovery_failures_total = 0u64;

        let horizon = SimTime::ZERO + config.duration;
        let mut engine = TickEngine::new(config.tick, horizon)?;
        let scale_period_secs = config.scale_period.as_secs();
        let mut tick_report = TickReport::default();
        // Cohort-mode scratch (reused across ticks) and the warp tally.
        let mut cohort_routes: Vec<(ContainerId, u64)> = Vec::new();
        let mut warp_ticks = 0u64;

        // --- Snapshot / resume ------------------------------------------------
        let cfg_digest = config_digest(config);
        let snapshot_policy = config.snapshot.clone();
        let mut next_snapshot_tick = snapshot_policy.as_ref().map_or(0, |p| p.every_ticks);
        let mut halted = false;

        if let Some(path) = &config.resume {
            // Overlay the snapshot onto the freshly built deterministic
            // setup above. The file is validated end to end (magic,
            // version, checksum, config digest, exact payload length)
            // before any state is committed by the all-or-nothing
            // sub-restores, so a bad file can never leave a partial run.
            let bytes = std::fs::read(path).map_err(SnapshotError::from)?;
            let mut r = SnapReader::open(&bytes)?;
            let found = r.get_u64()?;
            if found != cfg_digest {
                return Err(SnapshotError::ConfigMismatch {
                    expected: cfg_digest,
                    found,
                }
                .into());
            }
            let now = SimTime::from_micros(r.get_u64()?);
            let ticks_run = r.get_u64()?;
            engine.restore_clock(now, ticks_run);
            let seq = r.get_u64()?;
            if traced {
                trace.resume_at(seq);
            }
            cluster.snapshot_restore(&mut r)?;
            monitor.snapshot_restore(&mut r)?;
            balancer.snapshot_restore(&mut r)?;
            recovery.snapshot_restore(&mut r)?;
            injector.snapshot_restore(&mut r)?;
            restore_rngs(&mut r, &mut arrival_rngs)?;
            restore_rngs(&mut r, &mut demand_rngs)?;
            restore_rngs(&mut r, std::slice::from_mut(&mut resilience_rng))?;
            events = EventQueue::new();
            for _ in 0..r.get_usize()? {
                let time = SimTime::from_micros(r.get_u64()?);
                let event = match r.get_u8()? {
                    0 => Event::Arrival(r.get_usize()?),
                    1 => Event::Scale,
                    2 => Event::NodeChange(r.get_usize()?),
                    tag => {
                        return Err(SnapshotError::Corrupt(format!(
                            "unknown driver-event tag {tag}"
                        ))
                        .into());
                    }
                };
                events.schedule(time, event);
            }
            requests = read_outcomes(&mut r)?;
            let mut restored_per_service: BTreeMap<ServiceId, RequestOutcomes> = BTreeMap::new();
            for _ in 0..r.get_usize()? {
                let svc = ServiceId::new(r.get_u32()?);
                restored_per_service.insert(svc, read_outcomes(&mut r)?);
            }
            per_service = restored_per_service;
            scaling = ScalingCounts {
                vertical: r.get_u64()?,
                spawns: r.get_u64()?,
                removals: r.get_u64()?,
            };
            cost =
                CostMeter::from_raw_parts((r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?));
            read_series_into(&mut r, &mut replicas_ts)?;
            read_series_into(&mut r, &mut cpu_ts)?;
            read_series_into(&mut r, &mut mem_ts)?;
            let mut restored_avail: BTreeMap<ServiceId, AvailabilityTracker> = BTreeMap::new();
            for _ in 0..r.get_usize()? {
                let svc = ServiceId::new(r.get_u32()?);
                let parts = (
                    r.get_f64()?,
                    r.get_f64()?,
                    r.get_u64()?,
                    r.get_u64()?,
                    r.get_f64()?,
                    r.get_opt_f64()?,
                    r.get_u64()?,
                    r.get_u64()?,
                    r.get_u64()?,
                );
                restored_avail.insert(svc, AvailabilityTracker::from_raw_parts(parts));
            }
            availability = restored_avail;
            let n = r.get_usize()?;
            if n != balancer_deltas.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot carries {n} balancer tallies, scenario has {} services",
                    balancer_deltas.len()
                ))
                .into());
            }
            for delta in balancer_deltas.iter_mut() {
                *delta = (r.get_u64()?, r.get_u64()?);
            }
            balancer_total = (r.get_u64()?, r.get_u64()?);
            deaths_total = r.get_u64()?;
            respawns_total = r.get_u64()?;
            recovery_failures_total = r.get_u64()?;
            warp_ticks = r.get_u64()?;
            // Graph-tracker state (presence is pinned by the config
            // digest, but the tag is still validated).
            match (r.get_u8()?, graph_tracker.as_mut()) {
                (0, None) => {}
                (1, Some(tracker)) => tracker.snapshot_restore(&mut r)?,
                (tag, tracker) => {
                    return Err(SnapshotError::Corrupt(format!(
                        "graph-state tag {tag} does not match scenario (graph {})",
                        if tracker.is_some() { "on" } else { "off" }
                    ))
                    .into());
                }
            }
            r.expect_done()?;
            if let Some(policy) = &snapshot_policy {
                next_snapshot_tick =
                    (engine.ticks_run() / policy.every_ticks + 1) * policy.every_ticks;
            }
        }

        while !engine.finished() {
            let outcome = engine.step(|now, dt| {
                // 0. Fault injection strikes at the start of the tick, in the
                // serial phase (never inside the parallel node workers), so
                // chaos runs stay bit-identical at any parallelism setting.
                if !injector.drained() {
                    for failure in injector.apply_due_traced(&mut cluster, now, trace) {
                        record_failure(
                            &mut requests,
                            &mut per_service,
                            graph_tracker.as_mut(),
                            &failure,
                            &mut resilience_rng,
                            trace,
                            traced,
                        );
                    }
                }

                // 1. Deliver due events at the start of the tick.
                while let Some((event_time, event)) = events.pop_due(now) {
                    match event {
                        Event::Arrival(idx) => {
                            let service = &config.services[idx];
                            // Overload shedding: at or above the in-flight
                            // watermark the root is dropped unissued (counted
                            // as shed, not failed) so queued work can drain.
                            // The watermark reads serial-phase cluster state,
                            // so the decision is identical at any worker
                            // count; the skipped demand draw is deterministic
                            // per config for the same reason.
                            let shed = match graph_tracker.as_mut() {
                                Some(t) if t.sheds() => {
                                    let in_flight = cluster.service_in_flight(service.id);
                                    if in_flight >= t.shed_watermark() {
                                        t.record_shed(idx, 1, in_flight, event_time, trace, traced);
                                        true
                                    } else {
                                        false
                                    }
                                }
                                _ => false,
                            };
                            if !shed {
                                requests.record_issued();
                                let outcomes =
                                    per_service.get_mut(&service.id).expect("known service");
                                outcomes.record_issued();
                                let mut flow =
                                    service.make_cohort(event_time, 1, &mut demand_rngs[idx]);
                                // In graph mode every arrival opens a root; a
                                // request the balancer or admission rejects
                                // either retries (resilience on) or fails it
                                // on the spot (seal resolves roots that
                                // registered no hop). Entry hops inherit
                                // `min(service timeout, deadline budget)`.
                                let entry_hop = graph_tracker
                                    .as_mut()
                                    .map(|t| t.begin_entry(idx, &mut flow));
                                let target = balancer.route(&cluster, service.id, now);
                                let (routed, rejected) = admit_shares(
                                    &mut cluster,
                                    &mut balancer,
                                    &flow,
                                    target.map(|t| (t, 1)).as_slice(),
                                    u64::from(target.is_none()),
                                    graph_tracker.as_mut().zip(entry_hop.as_ref()),
                                    &mut requests,
                                    outcomes,
                                    &mut resilience_rng,
                                    now,
                                    trace,
                                    traced,
                                );
                                for t in [&mut balancer_deltas[idx], &mut balancer_total] {
                                    t.0 += routed;
                                    t.1 += rejected;
                                }
                                if let (Some(t), Some(hop)) =
                                    (graph_tracker.as_mut(), entry_hop.as_ref())
                                {
                                    t.seal_root(hop.root);
                                }
                            }
                            let next =
                                arrivals[idx].next_arrival(event_time, &mut arrival_rngs[idx]);
                            if next < SimTime::MAX && next < horizon {
                                events.schedule(next, Event::Arrival(idx));
                            }
                        }
                        Event::NodeChange(idx) => {
                            let (_, event) = &config.node_events[idx];
                            match event {
                                NodeEvent::Decommission(node_idx) => {
                                    let failures: Vec<FailedRequest> = cluster
                                        .decommission_node(node_ids[*node_idx], now)
                                        .unwrap_or_default();
                                    for failure in &failures {
                                        record_failure(
                                            &mut requests,
                                            &mut per_service,
                                            graph_tracker.as_mut(),
                                            failure,
                                            &mut resilience_rng,
                                            trace,
                                            traced,
                                        );
                                    }
                                }
                                NodeEvent::Commission(spec) => {
                                    cluster.add_node(*spec);
                                }
                            }
                        }
                        Event::Scale => {
                            // Muted NodeManagers (stat outages) leave their
                            // containers on stale usage this period.
                            monitor.set_stat_outages(injector.muted_nodes(now));
                            let report = monitor.run_period_traced(
                                &mut cluster,
                                now,
                                scale_period_secs,
                                trace,
                            );
                            for action in &report.applied {
                                use crate::actions::ScalingAction;
                                match action {
                                    ScalingAction::Update { .. }
                                    | ScalingAction::SetNetCap { .. } => {
                                        scaling.vertical += 1;
                                    }
                                    ScalingAction::Spawn { .. } => scaling.spawns += 1,
                                    ScalingAction::Remove { .. } => scaling.removals += 1,
                                }
                            }
                            for failure in &report.removal_failures {
                                record_failure(
                                    &mut requests,
                                    &mut per_service,
                                    graph_tracker.as_mut(),
                                    failure,
                                    &mut resilience_rng,
                                    trace,
                                    traced,
                                );
                            }

                            // Replicas that died underneath the platform are
                            // respawned through the recovery path (placement +
                            // capped exponential backoff).
                            deaths_total += report.dead_replicas.len() as u64;
                            for (service, _) in &report.dead_replicas {
                                if let Some(t) = availability.get_mut(service) {
                                    t.record_death();
                                }
                            }
                            let recovered =
                                recovery.run_traced(&mut cluster, &templates, now, trace);
                            respawns_total += recovered.respawned.len() as u64;
                            recovery_failures_total += recovered.failed.len() as u64;
                            for (service, _) in &recovered.respawned {
                                if let Some(t) = availability.get_mut(service) {
                                    t.record_respawn();
                                }
                            }
                            for service in &recovered.failed {
                                if let Some(t) = availability.get_mut(service) {
                                    t.record_recovery_failure();
                                }
                            }

                            // The balancer hears the period's final replica
                            // roll call (post scaling + recovery). Snapshot
                            // mode routes off this until the next period;
                            // live mode ignores it.
                            balancer.refresh(&cluster, &service_ids);

                            // Periodic samples for the report.
                            let secs = now.as_secs();
                            replicas_ts.push(secs, report.view.total_replicas() as f64);
                            let cpu_used: f64 = report
                                .view
                                .services
                                .iter()
                                .map(|s| s.total_cpu_used().get())
                                .sum();
                            let mem_used: f64 = report
                                .view
                                .services
                                .iter()
                                .map(|s| s.total_mem_used().get())
                                .sum();
                            cpu_ts.push(secs, cpu_used);
                            mem_ts.push(secs, mem_used);

                            let allocated: f64 = report
                                .view
                                .services
                                .iter()
                                .flat_map(|s| s.replicas.iter())
                                .map(|r| r.cpu_requested.get())
                                .sum();
                            let containers = report.view.total_replicas();
                            let busy_nodes = report
                                .view
                                .nodes
                                .iter()
                                .filter(|n| !n.hosted_services.is_empty())
                                .count();
                            cost.record_interval(
                                scale_period_secs,
                                allocated,
                                containers,
                                busy_nodes,
                            );

                            // Periodic trace snapshots: per-node allocator
                            // headroom, then this period's routing deltas.
                            if traced {
                                cluster.trace_pressure(now, trace);
                                for (svc_idx, service) in config.services.iter().enumerate() {
                                    let (routed, rejected) = balancer_deltas[svc_idx];
                                    trace.emit(
                                        now,
                                        EventKind::BalancerStats {
                                            service: service.id.index(),
                                            routed,
                                            rejected,
                                        },
                                    );
                                    balancer_deltas[svc_idx] = (0, 0);
                                }
                            }

                            events.schedule(now + config.scale_period, Event::Scale);
                        }
                    }
                }

                // 1b. Cohort-mode arrivals: one Poisson draw per service per
                // tick, carried as a single flow cohort and waterfilled
                // across replicas. The draw uses the same arrival/demand RNG
                // streams as per-request mode (one count draw, one profile
                // draw), so seeds stay comparable across services.
                if config.cohort_arrivals {
                    let dt_secs = dt.as_secs();
                    for (idx, service) in config.services.iter().enumerate() {
                        if !takes_client_load(idx, &graph_tracker) {
                            continue;
                        }
                        let mean = service.load.rate_at(now) * dt_secs;
                        let n = arrival_rngs[idx].poisson(mean);
                        if n == 0 {
                            continue;
                        }
                        // Overload shedding (see the per-request arm): the
                        // whole tick's cohort is dropped unissued when the
                        // entry point is at or above its in-flight watermark.
                        if let Some(t) = graph_tracker.as_mut() {
                            if t.sheds() {
                                let in_flight = cluster.service_in_flight(service.id);
                                if in_flight >= t.shed_watermark() {
                                    t.record_shed(idx, n, in_flight, now, trace, traced);
                                    continue;
                                }
                            }
                        }
                        requests.record_issued_n(n);
                        let outcomes = per_service.get_mut(&service.id).expect("known service");
                        outcomes.record_issued_n(n);
                        let mut cohort = service.make_cohort(now, n, &mut demand_rngs[idx]);
                        let entry_hop = graph_tracker
                            .as_mut()
                            .map(|t| t.begin_entry(idx, &mut cohort));
                        cohort_routes.clear();
                        let unrouted =
                            balancer.route_cohort(&cluster, service.id, n, now, &mut cohort_routes);
                        let (routed, rejected) = admit_shares(
                            &mut cluster,
                            &mut balancer,
                            &cohort,
                            &cohort_routes,
                            unrouted,
                            graph_tracker.as_mut().zip(entry_hop.as_ref()),
                            &mut requests,
                            outcomes,
                            &mut resilience_rng,
                            now,
                            trace,
                            traced,
                        );
                        if let (Some(t), Some(hop)) = (graph_tracker.as_mut(), entry_hop.as_ref()) {
                            // A root with no admitted hop and no queued
                            // retry resolves right here.
                            t.seal_root(hop.root);
                        }
                        for t in [&mut balancer_deltas[idx], &mut balancer_total] {
                            t.0 += routed;
                            t.1 += rejected;
                        }
                        if traced {
                            trace.emit(
                                now,
                                EventKind::CohortFlow {
                                    service: service.id.index(),
                                    count: n,
                                    routed,
                                    rejected,
                                },
                            );
                        }
                    }
                }

                // 1c. Graph mode: admit the child hops queued by hops that
                // completed last tick. Children ride the cohort machinery
                // regardless of arrival mode (one aggregate record per
                // admitted share, valid for count = 1), and their arrival
                // time is the parent's finish — the gap until `now` is the
                // inter-tier queueing delay the spans report.
                if graph_tracker
                    .as_ref()
                    .is_some_and(GraphTracker::has_pending)
                {
                    let tracker = graph_tracker.as_mut().expect("checked above");
                    let pending = tracker.take_due(now);
                    for hop in &pending {
                        let service = &config.services[hop.service];
                        let svc_idx = hop.service;
                        requests.record_issued_n(hop.count);
                        let outcomes = per_service.get_mut(&service.id).expect("known service");
                        outcomes.record_issued_n(hop.count);
                        let child = Request::new(
                            service.id,
                            hop.arrival,
                            hop.cpu_secs,
                            MemMb(hop.mem_mb),
                            hop.megabits,
                        )
                        .with_disk(hop.disk_megabits)
                        .with_timeout(tracker.hop_timeout(
                            hop.root,
                            hop.arrival,
                            service.timeout,
                        ));
                        let cohort =
                            Cohort::from_request(&child, hop.count).with_attempt(hop.attempt);
                        cohort_routes.clear();
                        let unrouted = balancer.route_cohort(
                            &cluster,
                            service.id,
                            hop.count,
                            now,
                            &mut cohort_routes,
                        );
                        // Retryable rejections re-queue (counting toward the
                        // root's pending total) inside the hand-off, before
                        // the settle below, so the root cannot resolve under
                        // them.
                        let (routed, rejected) = admit_shares(
                            &mut cluster,
                            &mut balancer,
                            &cohort,
                            &cohort_routes,
                            unrouted,
                            Some((&mut *tracker, hop)),
                            &mut requests,
                            outcomes,
                            &mut resilience_rng,
                            now,
                            trace,
                            traced,
                        );
                        // The queued entry itself is settled last, so the
                        // root cannot resolve before its shares register.
                        tracker.settle_queued(hop.root);
                        for t in [&mut balancer_deltas[svc_idx], &mut balancer_total] {
                            t.0 += routed;
                            t.1 += rejected;
                        }
                    }
                    tracker.return_pending_scratch(pending);
                }

                // 2. Advance the resource model (reusing one report buffer
                // across ticks keeps the hot loop allocation-free).
                cluster.advance_into(now, dt, &mut tick_report);
                let had_outcomes =
                    !tick_report.completed.is_empty() || !tick_report.failed.is_empty();
                for done in tick_report.completed.drain(..) {
                    requests.record_completed_n(done.response_time.as_secs(), done.count);
                    if let Some(out) = per_service.get_mut(&done.service) {
                        out.record_completed_n(done.response_time.as_secs(), done.count);
                    }
                    if let Some(tracker) = graph_tracker.as_mut() {
                        // Journals the hop's span, queues its children for
                        // next tick, and resolves the root if this was its
                        // last outstanding hop.
                        tracker.on_completed(&done, &config.services, trace, traced);
                    }
                }
                for failed in tick_report.failed.drain(..) {
                    record_failure(
                        &mut requests,
                        &mut per_service,
                        graph_tracker.as_mut(),
                        &failed,
                        &mut resilience_rng,
                        trace,
                        traced,
                    );
                }

                // 3. Availability roll call: a service is up in this tick iff
                // at least one ready replica exists.
                if track_availability {
                    cluster.ready_replicas_into(now, &mut ready_counts);
                    let dt_secs = dt.as_secs();
                    for (service, tracker) in availability.iter_mut() {
                        let up = ready_counts.get(service.as_usize()).is_some_and(|&n| n > 0);
                        tracker.record_tick(dt_secs, up);
                    }
                }

                // 4. Time warp: when this tick ended with nothing in flight
                // and nothing due before the next event boundary, advance the
                // idle stretch in closed form and tell the engine to skip it.
                // The boundary is the earliest of the next queued event (a
                // Scale event is always queued), the next fault or recovery,
                // and the horizon; in cohort mode the span is additionally
                // shrunk until the load patterns are provably silent over it.
                if config.time_warp
                    && !had_outcomes
                    && cluster.total_in_flight() == 0
                    && graph_tracker.as_ref().is_none_or(GraphTracker::is_idle)
                {
                    let end = now + dt;
                    let mut boundary = events.peek_time().unwrap_or(horizon).min(horizon);
                    if let Some(due) = injector.next_due_time() {
                        boundary = boundary.min(due);
                    }
                    if boundary > end {
                        let dt_us = dt.as_micros().max(1);
                        // Number of tick starts in [end, boundary): ticks
                        // starting at or past the boundary must run normally.
                        let mut k = (boundary - end).as_micros().div_ceil(dt_us);
                        if config.cohort_arrivals {
                            while k > 0 {
                                let span_end = end + dt * k;
                                let quiet = config
                                    .services
                                    .iter()
                                    .all(|s| s.load.max_rate_in(end, span_end) == 0.0);
                                if quiet {
                                    break;
                                }
                                k /= 2;
                            }
                        }
                        let warped = cluster.advance_warp(end, dt, k);
                        if warped > 0 {
                            warp_ticks += warped;
                            if track_availability {
                                // Liveness is constant across the warped span
                                // (advance_warp clamps at startup
                                // boundaries), so one roll call covers it.
                                cluster.ready_replicas_into(end, &mut ready_counts);
                                let span_secs = dt.as_secs() * warped as f64;
                                for (service, tracker) in availability.iter_mut() {
                                    let up = ready_counts
                                        .get(service.as_usize())
                                        .is_some_and(|&n| n > 0);
                                    tracker.record_tick(span_secs, up);
                                }
                            }
                            if traced {
                                trace.emit(
                                    end,
                                    EventKind::TimeWarp {
                                        ticks: warped,
                                        span_us: dt.as_micros() * warped,
                                    },
                                );
                            }
                            return TickOutcome::SkipAhead(warped);
                        }
                    }
                }
                TickOutcome::Continue
            })?;

            // Snapshot at the tick boundary the body just crossed. `>=`
            // plus the recompute below lets a time-warp jump that
            // overshot a boundary snapshot once at its landing tick.
            if let Some(policy) = &snapshot_policy {
                if engine.ticks_run() >= next_snapshot_tick && !engine.finished() {
                    let tick = engine.ticks_run();
                    let boundary = engine.now();
                    // The Snapshot event is emitted *before* the state is
                    // serialized, so the captured trace cursor already
                    // counts it: an interrupted journal ends exactly
                    // where the resumed journal begins.
                    if traced {
                        trace.emit(
                            boundary,
                            EventKind::Snapshot {
                                tick,
                                now_us: boundary.as_micros(),
                            },
                        );
                    }
                    // Replay any lazily-parked idle ticks so the
                    // serialized windows/EWMAs match a full-scan run.
                    cluster.flush_pending();
                    let writer = serialize_state(
                        cfg_digest,
                        &DriverState {
                            engine: &engine,
                            trace_seq: trace.total_emitted(),
                            cluster: &cluster,
                            monitor: &monitor,
                            balancer: &balancer,
                            recovery: &recovery,
                            injector: &injector,
                            arrival_rngs: &arrival_rngs,
                            demand_rngs: &demand_rngs,
                            resilience_rng: &resilience_rng,
                            events: &events,
                            requests: &requests,
                            per_service: &per_service,
                            scaling: &scaling,
                            cost: &cost,
                            replicas_ts: &replicas_ts,
                            cpu_ts: &cpu_ts,
                            mem_ts: &mem_ts,
                            availability: &availability,
                            balancer_deltas: &balancer_deltas,
                            balancer_total,
                            deaths_total,
                            respawns_total,
                            recovery_failures_total,
                            warp_ticks,
                            graph: graph_tracker.as_ref(),
                        },
                    );
                    std::fs::create_dir_all(&policy.dir).map_err(SnapshotError::from)?;
                    std::fs::write(policy.file_for(tick), writer.finish())
                        .map_err(SnapshotError::from)?;
                    next_snapshot_tick = (tick / policy.every_ticks + 1) * policy.every_ticks;
                    if policy.halt_after_first {
                        halted = true;
                    }
                }
            }
            if halted || matches!(outcome, TickOutcome::Stop) {
                break;
            }
        }

        // Control-plane health counters: the Monitor's control plane
        // tallies the report/actuation/safe-mode side; the balancer owns
        // the breaker tally.
        let mut control_plane_stats = monitor
            .control_plane()
            .map(|cp| cp.stats)
            .unwrap_or_default();
        control_plane_stats.breaker_opens = balancer.breaker_opens();

        // End-of-horizon state digest: cheap bit-exactness witness for
        // the resume-equivalence battery. Skipped for halted runs (their
        // state is mid-flight by design).
        // Any nodes still parked at the horizon replay their pending
        // idle ticks now, so end-of-run reads (and the digest below)
        // match the full-scan engine exactly.
        cluster.flush_pending();
        let state_digest = if !halted
            && engine.finished()
            && (config.snapshot.is_some() || config.resume.is_some())
        {
            Some(
                serialize_state(
                    cfg_digest,
                    &DriverState {
                        engine: &engine,
                        trace_seq: trace.total_emitted(),
                        cluster: &cluster,
                        monitor: &monitor,
                        balancer: &balancer,
                        recovery: &recovery,
                        injector: &injector,
                        arrival_rngs: &arrival_rngs,
                        demand_rngs: &demand_rngs,
                        resilience_rng: &resilience_rng,
                        events: &events,
                        requests: &requests,
                        per_service: &per_service,
                        scaling: &scaling,
                        cost: &cost,
                        replicas_ts: &replicas_ts,
                        cpu_ts: &cpu_ts,
                        mem_ts: &mem_ts,
                        availability: &availability,
                        balancer_deltas: &balancer_deltas,
                        balancer_total,
                        deaths_total,
                        respawns_total,
                        recovery_failures_total,
                        warp_ticks,
                        graph: graph_tracker.as_ref(),
                    },
                )
                .digest(),
            )
        } else {
            None
        };

        // Final counter dump through the metrics registry: names register
        // once, in a fixed order, so the journal tail is deterministic by
        // construction. A halted (snapshot-and-stop) run skips it: the
        // resumed run emits the dump at the true horizon, keeping the
        // concatenated journal identical to an uninterrupted one. Graph
        // counters are appended only for graph scenarios so a graph-free
        // journal stays byte-identical to pre-graph builds.
        if traced && !halted {
            let mut registry = MetricsRegistry::new();
            let mut totals: Vec<(&'static str, u64)> = vec![
                ("requests.issued", requests.issued),
                ("requests.completed", requests.completed),
                ("failures.connection", requests.failures.connection()),
                ("failures.removal", requests.failures.removal),
                ("scaling.vertical", scaling.vertical),
                ("scaling.spawns", scaling.spawns),
                ("scaling.removals", scaling.removals),
                ("balancer.routed", balancer_total.0),
                ("balancer.rejected", balancer_total.1),
                ("recovery.respawns", respawns_total),
                ("recovery.failures", recovery_failures_total),
                ("replica.deaths", deaths_total),
                (
                    "controlplane.reports_lost",
                    control_plane_stats.reports_lost,
                ),
                (
                    "controlplane.reports_late",
                    control_plane_stats.reports_late,
                ),
                (
                    "controlplane.reports_duplicated",
                    control_plane_stats.reports_duplicated,
                ),
                (
                    "controlplane.actuation_failures",
                    control_plane_stats.actuation_failures,
                ),
                (
                    "controlplane.actuation_retries",
                    control_plane_stats.actuation_retries,
                ),
                (
                    "controlplane.actuations_deduped",
                    control_plane_stats.actuations_deduped,
                ),
                (
                    "controlplane.actuations_abandoned",
                    control_plane_stats.actuations_abandoned,
                ),
                (
                    "controlplane.breaker_opens",
                    control_plane_stats.breaker_opens,
                ),
                (
                    "controlplane.safe_mode_periods",
                    control_plane_stats.safe_mode_periods,
                ),
                (
                    "controlplane.stale_vetoes",
                    control_plane_stats.stale_vetoes,
                ),
                ("timewarp.ticks_skipped", warp_ticks),
            ];
            if let Some(tracker) = graph_tracker.as_ref() {
                let stats = tracker.entry_stats();
                totals.push((
                    "graph.roots_completed",
                    stats.iter().map(|s| s.roots_completed).sum(),
                ));
                totals.push((
                    "graph.roots_failed",
                    stats.iter().map(|s| s.roots_failed).sum(),
                ));
                // Resilience counters only exist for resilience-enabled
                // scenarios, so a resilience-free journal stays
                // byte-identical to builds without the layer.
                if config.resilience.enabled {
                    let rs = tracker.resilience_stats();
                    totals.push(("retry.attempts", rs.retries));
                    totals.push(("retry.members", rs.retried_members));
                    totals.push(("retry.budget_exhausted", rs.budget_exhausted));
                    totals.push(("retry.deadline_exceeded", rs.deadline_exceeded));
                    totals.push(("shed.roots", rs.shed_roots));
                    totals.push(("shed.members", rs.shed_members));
                    totals.push(("goodput.members", rs.goodput_members));
                    totals.push(("wasted.members", rs.wasted_members));
                }
            }
            for (name, value) in totals {
                let id = registry.counter(name);
                registry.add(id, value);
            }
            for (name, value) in registry.counters() {
                trace.emit(horizon, EventKind::Counter { name, value });
            }
        }

        let resilience = graph_tracker
            .as_ref()
            .map(|t| t.resilience_stats())
            .unwrap_or_default();
        let mut report = RunReport {
            name: config.name.clone(),
            algorithm: config.algorithm,
            seeds: vec![config.seed],
            requests,
            per_service,
            scaling,
            cost,
            replicas: replicas_ts,
            cpu_used: cpu_ts,
            mem_used: mem_ts,
            availability: availability
                .into_iter()
                .map(|(s, t)| (s, t.finalize()))
                .collect(),
            faults: injector.log(),
            control_plane: control_plane_stats,
            warp_ticks,
            entry_points: graph_tracker
                .map(GraphTracker::into_entry_stats)
                .unwrap_or_default(),
            resilience,
            state_digest,
        };
        report.trim();
        Ok(report)
    }

    /// Runs the scenario once per seed and merges the outcomes — the
    /// paper's "results were averaged over 5 runs".
    ///
    /// Time series are kept from the first seed (they illustrate one run;
    /// outcome statistics aggregate all).
    ///
    /// # Errors
    ///
    /// Propagates the first failing run's error. `seeds` must not be
    /// empty.
    pub fn run_averaged(config: &ScenarioConfig, seeds: &[u64]) -> Result<RunReport, CoreError> {
        let Some((&first_seed, rest)) = seeds.split_first() else {
            return Err(CoreError::InvalidScenario("no seeds given".into()));
        };
        let mut config = config.clone();
        config.seed = first_seed;
        let mut merged = Self::run(&config)?;
        for &seed in rest {
            config.seed = seed;
            let run = Self::run(&config)?;
            merged.requests.merge(&run.requests);
            for (svc, outcomes) in run.per_service {
                merged
                    .per_service
                    .entry(svc)
                    .or_insert_with(RequestOutcomes::new)
                    .merge(&outcomes);
            }
            merged.scaling += run.scaling;
            for (svc, avail) in run.availability {
                merged.availability.entry(svc).or_default().merge(&avail);
            }
            merged.faults += run.faults;
            merged.control_plane += run.control_plane;
            merged.warp_ticks += run.warp_ticks;
            // Entry points come out in the same (ascending service)
            // order for every seed of one config.
            for (into, from) in merged.entry_points.iter_mut().zip(&run.entry_points) {
                into.merge(from);
            }
            merged.resilience += run.resilience;
            merged.seeds.push(seed);
        }
        if !rest.is_empty() {
            // A state digest witnesses one run's end state; a merged
            // report no longer corresponds to any single run.
            merged.state_digest = None;
            merged.trim();
        }
        Ok(merged)
    }
}

/// Digest of every configuration field that shapes the deterministic
/// simulation, via the fields' `Debug` forms. Excludes `parallelism`
/// (bit-identical at any worker count) and the snapshot/resume controls
/// themselves, so a resumed run may snapshot differently or run on more
/// workers than the run that wrote the file.
fn config_digest(config: &ScenarioConfig) -> u64 {
    let repr = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
        config.name,
        config.seed,
        config.duration,
        config.tick,
        config.scale_period,
        config.nodes,
        config.services,
        config.initial_replicas,
        config.algorithm,
        config.hpa,
        config.hyscale,
        config.cluster,
        config.antagonists,
        config.node_events,
        config.faults,
        config.recovery,
        config.control_plane,
        config.cohort_arrivals,
        config.time_warp,
        config.graph,
        config.resilience,
    );
    fnv1a(repr.as_bytes())
}

/// Shared borrows of every piece of mutable run state a snapshot
/// captures, bundled so [`serialize_state`] has one coherent signature.
struct DriverState<'a> {
    engine: &'a TickEngine,
    trace_seq: u64,
    cluster: &'a Cluster,
    monitor: &'a Monitor,
    balancer: &'a LoadBalancer,
    recovery: &'a RecoveryManager,
    injector: &'a FaultInjector,
    arrival_rngs: &'a [SimRng],
    demand_rngs: &'a [SimRng],
    resilience_rng: &'a SimRng,
    events: &'a EventQueue<Event>,
    requests: &'a RequestOutcomes,
    per_service: &'a BTreeMap<ServiceId, RequestOutcomes>,
    scaling: &'a ScalingCounts,
    cost: &'a CostMeter,
    replicas_ts: &'a TimeSeries,
    cpu_ts: &'a TimeSeries,
    mem_ts: &'a TimeSeries,
    availability: &'a BTreeMap<ServiceId, AvailabilityTracker>,
    balancer_deltas: &'a [(u64, u64)],
    balancer_total: (u64, u64),
    deaths_total: u64,
    respawns_total: u64,
    recovery_failures_total: u64,
    warp_ticks: u64,
    graph: Option<&'a GraphTracker>,
}

/// Serializes the complete run state into an (unframed) snapshot payload.
/// [`SnapWriter::finish`] frames it; [`SnapWriter::digest`] turns it into
/// the end-of-run state digest. The read side is the resume overlay in
/// [`SimulationDriver::run_traced`]; the two must mirror exactly.
fn serialize_state(cfg_digest: u64, s: &DriverState<'_>) -> SnapWriter {
    let mut w = SnapWriter::new();
    w.put_u64(cfg_digest);
    w.put_u64(s.engine.now().as_micros());
    w.put_u64(s.engine.ticks_run());
    w.put_u64(s.trace_seq);
    s.cluster.snapshot_write(&mut w);
    s.monitor.snapshot_write(&mut w);
    s.balancer.snapshot_write(&mut w);
    s.recovery.snapshot_write(&mut w);
    s.injector.snapshot_write(&mut w);
    write_rngs(&mut w, s.arrival_rngs);
    write_rngs(&mut w, s.demand_rngs);
    write_rngs(&mut w, std::slice::from_ref(s.resilience_rng));
    let entries = s.events.entries_in_order();
    w.put_usize(entries.len());
    for (time, event) in entries {
        w.put_u64(time.as_micros());
        match *event {
            Event::Arrival(idx) => {
                w.put_u8(0);
                w.put_usize(idx);
            }
            Event::Scale => w.put_u8(1),
            Event::NodeChange(idx) => {
                w.put_u8(2);
                w.put_usize(idx);
            }
        }
    }
    write_outcomes(&mut w, s.requests);
    w.put_usize(s.per_service.len());
    for (&svc, outcomes) in s.per_service {
        w.put_u32(svc.index());
        write_outcomes(&mut w, outcomes);
    }
    w.put_u64(s.scaling.vertical);
    w.put_u64(s.scaling.spawns);
    w.put_u64(s.scaling.removals);
    let (core_secs, container_secs, busy_node_secs, elapsed_secs) = s.cost.raw_parts();
    w.put_f64(core_secs);
    w.put_f64(container_secs);
    w.put_f64(busy_node_secs);
    w.put_f64(elapsed_secs);
    write_series(&mut w, s.replicas_ts);
    write_series(&mut w, s.cpu_ts);
    write_series(&mut w, s.mem_ts);
    w.put_usize(s.availability.len());
    for (&svc, tracker) in s.availability {
        w.put_u32(svc.index());
        let parts = tracker.raw_parts();
        w.put_f64(parts.0);
        w.put_f64(parts.1);
        w.put_u64(parts.2);
        w.put_u64(parts.3);
        w.put_f64(parts.4);
        w.put_opt_f64(parts.5);
        w.put_u64(parts.6);
        w.put_u64(parts.7);
        w.put_u64(parts.8);
    }
    w.put_usize(s.balancer_deltas.len());
    for &(routed, rejected) in s.balancer_deltas {
        w.put_u64(routed);
        w.put_u64(rejected);
    }
    w.put_u64(s.balancer_total.0);
    w.put_u64(s.balancer_total.1);
    w.put_u64(s.deaths_total);
    w.put_u64(s.respawns_total);
    w.put_u64(s.recovery_failures_total);
    w.put_u64(s.warp_ticks);
    match s.graph {
        None => w.put_u8(0),
        Some(tracker) => {
            w.put_u8(1);
            tracker.snapshot_write(&mut w);
        }
    }
    w
}

/// Writes the internal states of a slice of RNG streams.
fn write_rngs(w: &mut SnapWriter, rngs: &[SimRng]) {
    w.put_usize(rngs.len());
    for rng in rngs {
        for word in rng.state() {
            w.put_u64(word);
        }
    }
}

/// Restores RNG streams written by [`write_rngs`] in place; the count
/// must match the scenario's stream count exactly.
fn restore_rngs(r: &mut SnapReader<'_>, rngs: &mut [SimRng]) -> Result<(), SnapshotError> {
    let n = r.get_usize()?;
    if n != rngs.len() {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot carries {n} RNG streams, scenario expects {}",
            rngs.len()
        )));
    }
    for rng in rngs {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        *rng = SimRng::from_state(state);
    }
    Ok(())
}

/// Writes request outcomes including the whole response-time summary
/// (moments and records), so the restore is bit-exact.
fn write_outcomes(w: &mut SnapWriter, o: &RequestOutcomes) {
    w.put_u64(o.issued);
    w.put_u64(o.completed);
    w.put_u64(o.failures.removal);
    w.put_u64(o.failures.timeout);
    w.put_u64(o.failures.queue_abort);
    w.put_u64(o.failures.infra_death);
    o.response_times.snapshot_write(w);
}

/// Reads outcomes written by [`write_outcomes`].
fn read_outcomes(r: &mut SnapReader<'_>) -> Result<RequestOutcomes, SnapshotError> {
    let mut o = RequestOutcomes::new();
    o.issued = r.get_u64()?;
    o.completed = r.get_u64()?;
    o.failures.removal = r.get_u64()?;
    o.failures.timeout = r.get_u64()?;
    o.failures.queue_abort = r.get_u64()?;
    o.failures.infra_death = r.get_u64()?;
    o.response_times = Summary::snapshot_read(r)?;
    Ok(o)
}

/// Writes one time series as its `(secs, value)` points.
fn write_series(w: &mut SnapWriter, ts: &TimeSeries) {
    let points = ts.points();
    w.put_usize(points.len());
    for &(secs, value) in points {
        w.put_f64(secs);
        w.put_f64(value);
    }
}

/// Appends points written by [`write_series`] into a (fresh) series.
fn read_series_into(r: &mut SnapReader<'_>, ts: &mut TimeSeries) -> Result<(), SnapshotError> {
    for _ in 0..r.get_usize()? {
        let secs = r.get_f64()?;
        let value = r.get_f64()?;
        ts.push(secs, value);
    }
    Ok(())
}

/// Parses a `HYSCALE_PARALLELISM` value: a positive integer worker count.
///
/// Returns a descriptive error for anything else — empty strings,
/// non-numeric text, zero, negatives — so the caller can fail loudly
/// instead of silently running serial with a typo'd setting.
fn parse_parallelism(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("value is empty; expected a positive integer".into());
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("0 workers is meaningless; use 1 for serial execution".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "{trimmed:?} is not a positive integer (e.g. HYSCALE_PARALLELISM=4)"
        )),
    }
}

/// Reads the worker count from `HYSCALE_PARALLELISM`, defaulting to 1
/// (serial) when unset.
///
/// # Panics
///
/// Panics when the variable is set to an invalid value. A typo like
/// `HYSCALE_PARALLELISM=four` used to fall back to serial silently, which
/// defeats the CI bit-identity gate (the parallel re-run would quietly
/// test nothing); failing loudly is the only safe behaviour.
fn parallelism_from_env() -> usize {
    match std::env::var("HYSCALE_PARALLELISM") {
        Ok(raw) => match parse_parallelism(&raw) {
            Ok(n) => n,
            Err(why) => panic!("invalid HYSCALE_PARALLELISM={raw:?}: {why}"),
        },
        Err(_) => 1,
    }
}

/// Fluent construction of [`ScenarioConfig`]s.
///
/// # Example
///
/// ```
/// use hyscale_core::{AlgorithmKind, ScenarioBuilder};
/// use hyscale_workload::{LoadPattern, ServiceProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let report = ScenarioBuilder::new("smoke")
///     .nodes(2)
///     .services(1, ServiceProfile::CpuBound, LoadPattern::Constant { rate: 2.0 })
///     .duration_secs(30.0)
///     .algorithm(AlgorithmKind::Kubernetes)
///     .run()?;
/// assert!(report.requests.issued > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: ScenarioConfig,
    next_service_index: u32,
}

impl ScenarioBuilder {
    /// Starts a scenario with paper-style defaults: 100 ms tick, 5 s
    /// scaling period, 10-minute duration, seed 1, HyScaleCPU.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            config: ScenarioConfig {
                name: name.into(),
                seed: 1,
                duration: SimDuration::from_secs(600.0),
                tick: SimDuration::from_millis(100),
                scale_period: SimDuration::from_secs(5.0),
                nodes: Vec::new(),
                services: Vec::new(),
                initial_replicas: 1,
                algorithm: AlgorithmKind::HyScaleCpu,
                hpa: HpaConfig::default(),
                hyscale: HyScaleConfig::default(),
                cluster: ClusterConfig::default(),
                antagonists: Vec::new(),
                node_events: Vec::new(),
                faults: FaultPlan::new(),
                recovery: RecoveryConfig::default(),
                control_plane: ControlPlaneConfig::default(),
                // Results are bit-identical at any worker count, so CI
                // re-runs the whole suite with HYSCALE_PARALLELISM=4 to
                // prove it; explicit .parallelism() still overrides.
                parallelism: parallelism_from_env(),
                cohort_arrivals: false,
                time_warp: false,
                graph: None,
                resilience: ResilienceConfig::disabled(),
                snapshot: None,
                resume: None,
            },
            next_service_index: 0,
        }
    }

    /// Adds `count` uniform worker nodes (the paper's 4-core/8 GB boxes).
    pub fn nodes(mut self, count: usize) -> Self {
        self.config
            .nodes
            .extend(std::iter::repeat_n(NodeSpec::uniform_worker(), count));
        self
    }

    /// Adds `count` nodes of a specific hardware spec.
    pub fn nodes_with_spec(mut self, count: usize, spec: NodeSpec) -> Self {
        self.config.nodes.extend(std::iter::repeat_n(spec, count));
        self
    }

    /// Adds `count` synthetic services of `profile` under `load`.
    pub fn services(mut self, count: usize, profile: ServiceProfile, load: LoadPattern) -> Self {
        for _ in 0..count {
            let spec = ServiceSpec::synthetic(self.next_service_index, profile, load.clone());
            self.next_service_index += 1;
            self.config.services.push(spec);
        }
        self
    }

    /// Adds one fully custom service (its id must be unique).
    pub fn service(mut self, spec: ServiceSpec) -> Self {
        self.next_service_index = self.next_service_index.max(spec.id.index() + 1);
        self.config.services.push(spec);
        self
    }

    /// Adds an antagonist (stress) container on the node at `node_idx`.
    pub fn antagonist(mut self, node_idx: usize, spec: ContainerSpec) -> Self {
        self.config.antagonists.push((node_idx, spec));
        self
    }

    /// Schedules a machine addition or removal at `secs` into the run.
    pub fn node_event(mut self, secs: f64, event: NodeEvent) -> Self {
        self.config.node_events.push((secs, event));
        self
    }

    /// Installs a fault plan (chaos schedule) for the run.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Overrides the replica-recovery tunables.
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Installs a control-plane degradation model (lossy stats, failable
    /// actuation) and its resilience machinery for the run.
    pub fn control_plane(mut self, control_plane: ControlPlaneConfig) -> Self {
        self.config.control_plane = control_plane;
        self
    }

    /// Sets the simulated duration in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.config.duration = SimDuration::from_secs(secs);
        self
    }

    /// Sets the Monitor's scaling period in seconds.
    pub fn scale_period_secs(mut self, secs: f64) -> Self {
        self.config.scale_period = SimDuration::from_secs(secs);
        self
    }

    /// Sets the resource-model tick in milliseconds.
    pub fn tick_millis(mut self, millis: u64) -> Self {
        self.config.tick = SimDuration::from_millis(millis);
        self
    }

    /// Selects the algorithm under test.
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.config.algorithm = kind;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of replicas started per service.
    pub fn initial_replicas(mut self, n: usize) -> Self {
        self.config.initial_replicas = n;
        self
    }

    /// Overrides the horizontal-baseline parameters.
    pub fn hpa(mut self, hpa: HpaConfig) -> Self {
        self.config.hpa = hpa;
        self
    }

    /// Overrides the hybrid-algorithm parameters.
    pub fn hyscale(mut self, hyscale: HyScaleConfig) -> Self {
        self.config.hyscale = hyscale;
        self
    }

    /// Overrides the resource-model overheads.
    pub fn cluster_config(mut self, cluster: ClusterConfig) -> Self {
        self.config.cluster = cluster;
        self
    }

    /// Sets the tick-engine worker-thread count (default 1 = serial).
    /// Any value produces bit-identical results; higher settings only
    /// change wall-clock time.
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = workers;
        self
    }

    /// Switches the workload to flow-cohort arrivals: one Poisson batch
    /// per service per tick instead of individual arrival events. See
    /// [`ScenarioConfig::cohort_arrivals`].
    pub fn cohort_arrivals(mut self, on: bool) -> Self {
        self.config.cohort_arrivals = on;
        self
    }

    /// Enables closed-form skipping of provably idle tick stretches. See
    /// [`ScenarioConfig::time_warp`].
    pub fn time_warp(mut self, on: bool) -> Self {
        self.config.time_warp = on;
        self
    }

    /// Installs a service dependency DAG: client load attaches only to
    /// its entry points and completed hops spawn child work along its
    /// edges. See [`ScenarioConfig::graph`].
    pub fn graph(mut self, graph: ServiceGraph) -> Self {
        self.config.graph = Some(graph);
        self
    }

    /// Installs the request-resilience layer: per-hop retries with
    /// deadline propagation, retry budgets, and overload shedding.
    /// Requires [`ScenarioBuilder::graph`]. See
    /// [`ScenarioConfig::resilience`].
    pub fn resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.config.resilience = resilience;
        self
    }

    /// Writes a full-state snapshot into `dir` every `every_ticks` ticks.
    /// Snapshotting never perturbs the simulation. See
    /// [`ScenarioConfig::snapshot`].
    pub fn snapshot_every(mut self, every_ticks: u64, dir: impl Into<PathBuf>) -> Self {
        self.config.snapshot = Some(SnapshotPolicy {
            every_ticks,
            dir: dir.into(),
            halt_after_first: false,
        });
        self
    }

    /// Stops the run right after the first snapshot is written (requires
    /// [`ScenarioBuilder::snapshot_every`] first). See
    /// [`SnapshotPolicy::halt_after_first`].
    pub fn snapshot_halt(mut self, on: bool) -> Self {
        if let Some(policy) = self.config.snapshot.as_mut() {
            policy.halt_after_first = on;
        }
        self
    }

    /// Resumes from a snapshot file written by a run of this exact
    /// configuration. See [`ScenarioConfig::resume`].
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.resume = Some(path.into());
        self
    }

    /// Finishes building without running.
    pub fn build(self) -> ScenarioConfig {
        self.config
    }

    /// Builds and runs once.
    ///
    /// # Errors
    ///
    /// See [`SimulationDriver::run`].
    pub fn run(self) -> Result<RunReport, CoreError> {
        SimulationDriver::run(&self.config)
    }

    /// Builds and runs once, journaling decision provenance into `trace`.
    ///
    /// # Errors
    ///
    /// See [`SimulationDriver::run_traced`].
    pub fn run_traced(self, trace: &mut TraceSink) -> Result<RunReport, CoreError> {
        SimulationDriver::run_traced(&self.config, trace)
    }

    /// Builds and runs once per seed, merging outcomes.
    ///
    /// # Errors
    ///
    /// See [`SimulationDriver::run_averaged`].
    pub fn run_seeds(self, seeds: &[u64]) -> Result<RunReport, CoreError> {
        SimulationDriver::run_averaged(&self.config, seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_cluster::MemMb;

    #[test]
    fn parallelism_accepts_positive_integers() {
        assert_eq!(parse_parallelism("1"), Ok(1));
        assert_eq!(parse_parallelism("4"), Ok(4));
        assert_eq!(parse_parallelism(" 16 "), Ok(16), "whitespace is trimmed");
    }

    #[test]
    fn parallelism_rejects_garbage_loudly() {
        // Each of these used to silently fall back to serial execution.
        for bad in ["four", "", "  ", "0", "-2", "2.5", "4x"] {
            let err = parse_parallelism(bad)
                .expect_err(&format!("{bad:?} should be rejected, not defaulted"));
            assert!(!err.is_empty(), "error message must explain the rejection");
        }
    }

    #[test]
    fn parallelism_zero_gets_a_specific_message() {
        let err = parse_parallelism("0").unwrap_err();
        assert!(err.contains("serial"), "zero should point at 1: {err}");
    }

    fn quick(algorithm: AlgorithmKind, seed: u64) -> RunReport {
        ScenarioBuilder::new("test")
            .nodes(3)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 3.0 },
            )
            .duration_secs(60.0)
            .algorithm(algorithm)
            .seed(seed)
            .run()
            .expect("scenario runs")
    }

    #[test]
    fn smoke_all_algorithms_complete_requests() {
        for kind in AlgorithmKind::ALL {
            let report = quick(kind, 1);
            assert!(
                report.requests.issued > 50,
                "{kind}: {}",
                report.requests.issued
            );
            assert!(
                report.requests.completed > 0,
                "{kind} completed none of {} requests",
                report.requests.issued
            );
            assert_eq!(report.algorithm, kind);
        }
    }

    #[test]
    fn node_decommission_mid_run_is_survivable() {
        let run = |with_loss: bool| {
            let mut builder = ScenarioBuilder::new("elastic")
                .nodes(4)
                .services(
                    2,
                    ServiceProfile::CpuBound,
                    LoadPattern::Constant { rate: 4.0 },
                )
                .duration_secs(120.0)
                .algorithm(AlgorithmKind::HyScaleCpu)
                .seed(3);
            if with_loss {
                builder = builder.node_event(60.0, NodeEvent::Decommission(0));
            }
            builder.run().unwrap()
        };
        let stable = run(false);
        let elastic = run(true);
        assert!(elastic.requests.completed > 0);
        // Losing a machine mid-run costs something but the autoscaler
        // replaces the lost replicas; service continues.
        assert!(elastic.requests.availability_pct() > 90.0);
        assert!(elastic.requests.failures.removal >= stable.requests.failures.removal);
    }

    #[test]
    fn node_commission_mid_run_adds_capacity() {
        let report = ScenarioBuilder::new("grow")
            .nodes(1)
            .services(
                1,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 12.0 },
            )
            .duration_secs(180.0)
            .algorithm(AlgorithmKind::Kubernetes)
            .seed(4)
            .node_event(30.0, NodeEvent::Commission(NodeSpec::uniform_worker()))
            .node_event(30.0, NodeEvent::Commission(NodeSpec::uniform_worker()))
            .run()
            .unwrap();
        // The HPA spreads onto the commissioned machines.
        assert!(report.scaling.spawns > 0);
        assert!(report.replicas.max() > 1.0);
    }

    #[test]
    fn node_event_validation() {
        let bad_idx = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .node_event(10.0, NodeEvent::Decommission(7))
            .build();
        assert!(SimulationDriver::run(&bad_idx).is_err());

        let bad_time = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .node_event(-1.0, NodeEvent::Commission(NodeSpec::small()))
            .build();
        assert!(SimulationDriver::run(&bad_time).is_err());
    }

    #[test]
    fn vertical_only_baseline_never_replicates() {
        let report = quick(AlgorithmKind::VerticalOnly, 2);
        assert_eq!(report.scaling.spawns, 0);
        assert_eq!(report.scaling.removals, 0);
        assert!(report.scaling.vertical > 0, "it must still docker-update");
        assert!(report.requests.completed > 0);
    }

    #[test]
    fn determinism_same_seed_same_outcomes() {
        let a = quick(AlgorithmKind::HyScaleCpu, 7);
        let b = quick(AlgorithmKind::HyScaleCpu, 7);
        assert_eq!(a.requests.issued, b.requests.issued);
        assert_eq!(a.requests.completed, b.requests.completed);
        assert_eq!(a.requests.failures, b.requests.failures);
        assert_eq!(a.scaling, b.scaling);
        assert!((a.requests.mean_response_secs() - b.requests.mean_response_secs()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(AlgorithmKind::Kubernetes, 1);
        let b = quick(AlgorithmKind::Kubernetes, 2);
        assert_ne!(
            (a.requests.issued, a.requests.completed),
            (b.requests.issued, b.requests.completed)
        );
    }

    #[test]
    fn no_scaling_keeps_initial_allocation() {
        let report = quick(AlgorithmKind::None, 1);
        assert_eq!(report.scaling.total(), 0);
        // Replica count stays at the initial value throughout.
        assert!(report.replicas.points().iter().all(|&(_, v)| v == 2.0));
    }

    #[test]
    fn per_service_outcomes_sum_to_overall() {
        let report = quick(AlgorithmKind::HyScaleCpuMem, 3);
        let issued: u64 = report.per_service.values().map(|o| o.issued).sum();
        let completed: u64 = report.per_service.values().map(|o| o.completed).sum();
        assert_eq!(issued, report.requests.issued);
        assert_eq!(completed, report.requests.completed);
    }

    #[test]
    fn run_averaged_merges_seeds() {
        let config = ScenarioBuilder::new("avg")
            .nodes(2)
            .services(
                1,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 2.0 },
            )
            .duration_secs(30.0)
            .algorithm(AlgorithmKind::Kubernetes)
            .build();
        let merged = SimulationDriver::run_averaged(&config, &[1, 2, 3]).unwrap();
        assert_eq!(merged.seeds, vec![1, 2, 3]);
        let single = SimulationDriver::run(&config).unwrap();
        assert!(merged.requests.issued > single.requests.issued);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let no_nodes = ScenarioBuilder::new("x")
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .build();
        assert!(SimulationDriver::run(&no_nodes).is_err());

        let no_services = ScenarioBuilder::new("x").nodes(1).build();
        assert!(SimulationDriver::run(&no_services).is_err());

        let mut dup = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .build();
        dup.services.push(dup.services[0].clone());
        assert!(matches!(
            SimulationDriver::run(&dup),
            Err(CoreError::InvalidScenario(_))
        ));

        let bad_antagonist = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .antagonist(5, ContainerSpec::new(ServiceId::new(99)).antagonist())
            .build();
        assert!(SimulationDriver::run(&bad_antagonist).is_err());

        assert!(SimulationDriver::run_averaged(
            &ScenarioBuilder::new("x")
                .nodes(1)
                .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
                .build(),
            &[],
        )
        .is_err());
    }

    #[test]
    fn chaos_scenario_survives_and_reports_availability() {
        use hyscale_cluster::FaultKind;
        let report = ScenarioBuilder::new("chaos")
            .nodes(4)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 4.0 },
            )
            .duration_secs(120.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(9)
            .faults(
                FaultPlan::new()
                    .with(
                        30.0,
                        FaultKind::NodeCrash {
                            node: 0,
                            down_secs: 20.0,
                        },
                    )
                    .with(45.0, FaultKind::OomKill { service: 1 })
                    .with(
                        50.0,
                        FaultKind::NicDegrade {
                            node: 1,
                            factor: 0.2,
                            duration_secs: 15.0,
                        },
                    )
                    .with(
                        60.0,
                        FaultKind::StatOutage {
                            node: 2,
                            duration_secs: 10.0,
                        },
                    ),
            )
            .run()
            .unwrap();
        assert_eq!(report.faults.node_crashes, 1);
        assert_eq!(report.faults.reboots, 1);
        assert_eq!(report.faults.stat_outages, 1);
        assert!(report.requests.completed > 0, "service kept serving");
        assert_eq!(report.availability.len(), 2);
        for a in report.availability.values() {
            assert!(
                (a.observed_secs - 120.0).abs() < 0.5,
                "observed {}",
                a.observed_secs
            );
        }
        assert!(report.min_uptime_pct() > 50.0);
    }

    #[test]
    fn fault_plan_validation_is_wired() {
        use hyscale_cluster::FaultKind;
        let bad = ScenarioBuilder::new("x")
            .nodes(2)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .faults(FaultPlan::new().with(
                10.0,
                FaultKind::NodeCrash {
                    node: 9,
                    down_secs: 5.0,
                },
            ))
            .build();
        assert!(matches!(
            SimulationDriver::run(&bad),
            Err(CoreError::InvalidScenario(_))
        ));

        let bad_recovery = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .recovery(crate::recovery::RecoveryConfig {
                base_backoff_secs: -1.0,
                ..Default::default()
            })
            .build();
        assert!(SimulationDriver::run(&bad_recovery).is_err());
    }

    #[test]
    fn recovery_restores_service_after_total_replica_loss() {
        use hyscale_cluster::FaultKind;
        // One service, no autoscaling: when its only node crashes, only
        // the recovery path can bring the service back.
        let report = ScenarioBuilder::new("recover")
            .nodes(2)
            .services(
                1,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 2.0 },
            )
            .duration_secs(120.0)
            .algorithm(AlgorithmKind::None)
            .seed(5)
            .faults(FaultPlan::new().with(
                30.0,
                FaultKind::NodeCrash {
                    node: 0,
                    down_secs: 60.0,
                },
            ))
            .run()
            .unwrap();
        let avail = report.availability.values().next().unwrap();
        // The initial replica lands on node 0 (round-robin), dies at 30 s,
        // and recovery respawns it on the surviving node.
        assert!(report.total_respawns() >= 1, "{avail:?}");
        assert_eq!(avail.deaths, 1, "{avail:?}");
        assert!(avail.repairs >= 1, "{avail:?}");
        assert!(
            avail.mttr_secs() > 0.0 && avail.mttr_secs() < 20.0,
            "{avail:?}"
        );
        assert!(
            report.min_uptime_pct() > 80.0,
            "{}",
            report.min_uptime_pct()
        );
        // Requests kept completing after the repair.
        assert!(report.requests.completed > 0);
    }

    #[test]
    fn hyscale_performs_vertical_scaling_under_load() {
        let report = ScenarioBuilder::new("vertical")
            .nodes(3)
            .services(
                1,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 8.0 },
            )
            .duration_secs(120.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(5)
            .run()
            .unwrap();
        assert!(
            report.scaling.vertical > 0,
            "hybrid algorithm should docker-update under load: {:?}",
            report.scaling
        );
    }

    #[test]
    fn kubernetes_never_scales_vertically() {
        let report = ScenarioBuilder::new("horizontal-only")
            .nodes(3)
            .services(
                1,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 8.0 },
            )
            .duration_secs(120.0)
            .algorithm(AlgorithmKind::Kubernetes)
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(report.scaling.vertical, 0);
        assert!(report.scaling.spawns > 0, "k8s should scale out under load");
    }

    #[test]
    fn mem_bound_load_swamps_memory_blind_algorithms() {
        let run = |kind| {
            ScenarioBuilder::new("memory")
                .nodes(3)
                .service(
                    ServiceSpec::synthetic(
                        0,
                        ServiceProfile::MemBound,
                        LoadPattern::Constant { rate: 8.0 },
                    )
                    .with_demands(0.25, MemMb(100.0), 0.1),
                )
                .duration_secs(240.0)
                .algorithm(kind)
                .seed(11)
                .run()
                .unwrap()
        };
        let blind = run(AlgorithmKind::HyScaleCpu);
        let aware = run(AlgorithmKind::HyScaleCpuMem);
        assert!(
            aware.requests.failed_pct() < blind.requests.failed_pct(),
            "mem-aware {:.1}% vs blind {:.1}%",
            aware.requests.failed_pct(),
            blind.requests.failed_pct()
        );
    }

    #[test]
    fn report_helpers() {
        let report = quick(AlgorithmKind::Kubernetes, 1);
        assert!(report.mean_response_ms() > 0.0);
        assert_eq!(report.seeds, vec![1]);
        assert!(!report.replicas.is_empty());
    }

    #[test]
    fn builder_composes() {
        let config = ScenarioBuilder::new("composed")
            .nodes(2)
            .nodes_with_spec(1, NodeSpec::small())
            .services(1, ServiceProfile::Mixed, LoadPattern::high_burst())
            .initial_replicas(2)
            .scale_period_secs(10.0)
            .tick_millis(50)
            .hpa(HpaConfig {
                target: 0.7,
                ..HpaConfig::default()
            })
            .hyscale(HyScaleConfig {
                cpu_target: 0.6,
                ..HyScaleConfig::default()
            })
            .build();
        assert_eq!(config.nodes.len(), 3);
        assert_eq!(config.initial_replicas, 2);
        assert_eq!(config.scale_period, SimDuration::from_secs(10.0));
        assert_eq!(config.tick, SimDuration::from_millis(50));
        assert_eq!(config.hpa.target, 0.7);
        assert_eq!(config.hyscale.cpu_target, 0.6);
        assert!(config.validate().is_ok());
    }

    fn cohort_config(seed: u64, parallelism: usize) -> ScenarioConfig {
        ScenarioBuilder::new("cohort")
            .nodes(3)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 40.0 },
            )
            .duration_secs(60.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(seed)
            .parallelism(parallelism)
            .cohort_arrivals(true)
            .build()
    }

    #[test]
    fn cohort_mode_completes_requests_and_conserves_them() {
        let report = SimulationDriver::run(&cohort_config(7, 1)).unwrap();
        assert!(report.requests.issued > 1000, "{}", report.requests.issued);
        assert!(report.requests.completed > 0);
        // Every issued member is completed, failed, or still in flight at
        // the horizon: outstanding() saturates at 0 on violation, so
        // check the exact identity.
        assert!(
            report.requests.completed + report.requests.failures.total() <= report.requests.issued,
            "overcounted outcomes: {:?}",
            report.requests
        );
        let issued: u64 = report.per_service.values().map(|o| o.issued).sum();
        assert_eq!(issued, report.requests.issued);
    }

    #[test]
    fn cohort_mode_is_deterministic_and_parallelism_invariant() {
        let digest = |report: &RunReport| {
            (
                report.requests.issued,
                report.requests.completed,
                report.requests.failures,
                report.scaling,
                report.requests.mean_response_secs().to_bits(),
            )
        };
        let serial = SimulationDriver::run(&cohort_config(11, 1)).unwrap();
        let serial_again = SimulationDriver::run(&cohort_config(11, 1)).unwrap();
        let parallel = SimulationDriver::run(&cohort_config(11, 4)).unwrap();
        assert_eq!(digest(&serial), digest(&serial_again));
        assert_eq!(
            digest(&serial),
            digest(&parallel),
            "cohort runs must be bit-identical across worker counts"
        );
    }

    #[test]
    fn time_warp_skips_idle_stretches_without_changing_outcomes() {
        // A short burst then silence: most of the run is provably idle.
        let build = |warp: bool| {
            ScenarioBuilder::new("warp")
                .nodes(2)
                .services(
                    1,
                    ServiceProfile::CpuBound,
                    LoadPattern::Burst {
                        base: 0.0,
                        peak: 30.0,
                        period_secs: 600.0,
                        duty: 0.05,
                    },
                )
                .duration_secs(300.0)
                .algorithm(AlgorithmKind::None)
                .seed(3)
                .cohort_arrivals(true)
                .time_warp(warp)
                .build()
        };
        let plain = SimulationDriver::run(&build(false)).unwrap();
        let warped = SimulationDriver::run(&build(true)).unwrap();
        assert_eq!(plain.warp_ticks, 0);
        assert!(warped.warp_ticks > 100, "warped {}", warped.warp_ticks);
        assert_eq!(plain.requests.issued, warped.requests.issued);
        assert_eq!(plain.requests.completed, warped.requests.completed);
        assert_eq!(plain.requests.failures, warped.requests.failures);
        assert_eq!(
            plain.requests.mean_response_secs().to_bits(),
            warped.requests.mean_response_secs().to_bits(),
            "warped runs must complete the same members at the same times"
        );
    }

    #[test]
    fn time_warp_is_safe_under_events_and_faults() {
        use hyscale_cluster::FaultKind;
        let build = |warp: bool| {
            ScenarioBuilder::new("warp-chaos")
                .nodes(3)
                .services(
                    1,
                    ServiceProfile::CpuBound,
                    LoadPattern::Burst {
                        base: 0.0,
                        peak: 20.0,
                        period_secs: 120.0,
                        duty: 0.1,
                    },
                )
                .duration_secs(240.0)
                .algorithm(AlgorithmKind::HyScaleCpu)
                .seed(13)
                .faults(FaultPlan::new().with(
                    90.0,
                    FaultKind::NodeCrash {
                        node: 0,
                        down_secs: 30.0,
                    },
                ))
                .cohort_arrivals(true)
                .time_warp(warp)
                .build()
        };
        let plain = SimulationDriver::run(&build(false)).unwrap();
        let warped = SimulationDriver::run(&build(true)).unwrap();
        // Faults and arrivals land identically: the warp never jumps a
        // fault boundary, and skipped ticks draw nothing (zero-rate
        // Poisson draws consume no randomness). Completions are compared
        // loosely only because scaling decisions read closed-form usage
        // state that is not bitwise-identical to ticked decay.
        assert_eq!(plain.faults.node_crashes, warped.faults.node_crashes);
        assert_eq!(plain.faults.reboots, warped.faults.reboots);
        assert_eq!(plain.requests.issued, warped.requests.issued);
        assert!(warped.requests.completed > 0);
        assert!(warped.warp_ticks > 0, "chaos run never warped");
        // Availability observed the full horizon either way.
        for (plain_a, warp_a) in plain
            .availability
            .values()
            .zip(warped.availability.values())
        {
            assert!(
                (plain_a.observed_secs - warp_a.observed_secs).abs() < 1e-6,
                "warp lost wall-clock: {} vs {}",
                plain_a.observed_secs,
                warp_a.observed_secs
            );
        }
    }
}
