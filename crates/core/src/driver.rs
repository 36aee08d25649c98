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
use std::path::{Path, PathBuf};

use hyscale_cluster::{
    Cluster, ClusterConfig, Cohort, ContainerId, ContainerSpec, FailureKind, FaultInjector,
    FaultLog, FaultPlan, MemMb, NodeId, NodeSpec, Request, ServiceId, TickReport,
};
use hyscale_metrics::{
    AvailabilityTracker, CostMeter, RequestOutcomes, ServiceAvailability, Summary, TimeSeries,
};
use hyscale_sim::{
    fnv1a, EventQueue, SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError,
    TickEngine,
};
use hyscale_trace::{EventKind, TraceSink};
use hyscale_workload::{ArrivalProcess, LoadPattern, ServiceGraph, ServiceProfile, ServiceSpec};

use crate::actions::ScalingAction;
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
    /// Kept only because the frozen `e2ebench/` benchmark still writes
    /// `parallelism = 1`; removed together with that pin. Ticks always
    /// run serially, so the field must be 1 (the default):
    /// [`ScenarioConfig::validate`] rejects any other value. Run
    /// independent scenarios in parallel with `hyscale_bench::runner::sweep`.
    pub parallelism: usize,
    /// Carry each tick's arrivals per service as one flow cohort instead
    /// of scheduling per-request arrival events: the tick draws a Poisson
    /// count, materializes one [`ServiceSpec::make_cohort`], and
    /// waterfills it across replicas. A different (fluid) arrival
    /// discipline from the default thinning process — not bit-comparable
    /// with it — but deterministic.
    pub cohort_arrivals: bool,
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
    /// layer. All stochastic draws come from a dedicated RNG, so
    /// enabling it leaves every other draw sequence untouched.
    pub resilience: ResilienceConfig,
    /// Periodic full-state snapshots: write the complete deterministic
    /// simulation state to disk at tick boundaries. `None` = no
    /// snapshots. Does not perturb the simulation: a run with snapshots
    /// enabled is bit-identical to one without.
    pub snapshot: Option<SnapshotPolicy>,
    /// Resume from a snapshot file written by a run of this *exact*
    /// configuration (checked via a config digest; the snapshot/resume
    /// controls themselves may differ). `None` = start from tick zero.
    pub resume: Option<PathBuf>,
}

/// When and where [`SimulationDriver`] writes full-state snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPolicy {
    /// Write a snapshot each time this many ticks have elapsed. Must be
    /// positive.
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
        if self.parallelism != 1 {
            return Err(CoreError::InvalidScenario(format!(
                "parallelism {} is not supported: ticks run serially; \
                 run scenarios in parallel with hyscale_bench::runner::sweep",
                self.parallelism
            )));
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
    /// Always 0: the simulator no longer skips idle ticks. Kept because
    /// the end-to-end benchmark's correctness hash still reads it.
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
        let mut run = Run::new(config, trace)?;
        if let Some(path) = &config.resume {
            run.restore(path)?;
        }
        while !run.engine.finished() && !run.halted {
            let (now, dt) = run.engine.step()?;
            run.tick(now, dt);
            run.snapshot_if_due()?;
        }
        Ok(run.finish())
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
/// (always 1) and the snapshot/resume controls themselves, so a resumed
/// run may snapshot differently than the run that wrote the file.
fn config_digest(config: &ScenarioConfig) -> u64 {
    let repr = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
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
        config.graph,
        config.resilience,
    );
    fnv1a(repr.as_bytes())
}

/// One scenario run in flight: the configuration, the journal, and every
/// piece of mutable run state. [`SimulationDriver::run_traced`] builds it
/// with [`Run::new`], optionally overlays a snapshot with
/// [`Run::restore`], then alternates [`Run::tick`] and
/// [`Run::snapshot_if_due`] until the horizon (or a halting snapshot)
/// and ends with [`Run::finish`].
struct Run<'a> {
    config: &'a ScenarioConfig,
    trace: &'a mut TraceSink,
    /// [`config_digest`] of `config`; a snapshot must carry the same one.
    cfg_digest: u64,
    engine: TickEngine,
    node_ids: Vec<NodeId>,
    service_ids: Vec<ServiceId>,
    templates: HashMap<ServiceId, ContainerSpec>,
    cluster: Cluster,
    monitor: Monitor,
    balancer: LoadBalancer,
    recovery: RecoveryManager,
    injector: FaultInjector,
    arrivals: Vec<ArrivalProcess>,
    arrival_rngs: Vec<SimRng>,
    demand_rngs: Vec<SimRng>,
    /// Retry-backoff jitter, drawn only when a retry is re-queued.
    resilience_rng: SimRng,
    graph: Option<GraphTracker>,
    events: EventQueue<Event>,
    requests: RequestOutcomes,
    per_service: BTreeMap<ServiceId, RequestOutcomes>,
    scaling: ScalingCounts,
    cost: CostMeter,
    replicas_ts: TimeSeries,
    cpu_ts: TimeSeries,
    mem_ts: TimeSeries,
    /// Per-tick availability roll calls cost one pass over all
    /// containers, so they only run for scenarios that can actually lose
    /// replicas to the infrastructure.
    track_availability: bool,
    availability: BTreeMap<ServiceId, AvailabilityTracker>,
    /// Per-service balancer `(routed, rejected)` members since the last
    /// scaling period (emitted as `BalancerStats`, then reset).
    balancer_deltas: Vec<(u64, u64)>,
    /// Run totals for the end-of-run counter dump.
    balancer_total: (u64, u64),
    deaths_total: u64,
    respawns_total: u64,
    recovery_failures_total: u64,
    // Scratch reused across ticks, keeping the hot loop allocation-free.
    tick_report: TickReport,
    routes: Vec<(ContainerId, u64)>,
    ready_counts: Vec<u32>,
    next_snapshot_tick: u64,
    /// Set once a `halt_after_first` snapshot has been written.
    halted: bool,
}

impl<'a> Run<'a> {
    /// Validates `config` and builds the run at tick zero: nodes,
    /// antagonists, pre-warmed replicas, the platform, every RNG stream
    /// split from the master seed in a fixed order, and the first events.
    fn new(config: &'a ScenarioConfig, trace: &'a mut TraceSink) -> Result<Self, CoreError> {
        config.validate()?;
        let mut master_rng = SimRng::seed_from(config.seed);
        // A resumed run continues the interrupted run's journal: it
        // neither re-announces the run nor restarts sequence numbers.
        if config.resume.is_none() {
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

        // --- Workload setup ---------------------------------------------------
        let arrival_rngs: Vec<SimRng> =
            config.services.iter().map(|_| master_rng.split()).collect();
        let demand_rngs: Vec<SimRng> = config.services.iter().map(|_| master_rng.split()).collect();
        // Control-plane streams split *after* the workload streams so a
        // disabled control plane leaves every legacy stream untouched
        // (the splits still happen, keeping seeds comparable across
        // configs that only toggle `control_plane.enabled`).
        let cp_rng = master_rng.split();
        let lb_rng = master_rng.split();
        // The resilience stream (retry-backoff jitter) splits last and
        // unconditionally, so toggling the layer never shifts any other
        // stream.
        let resilience_rng = master_rng.split();

        let service_ids: Vec<ServiceId> = config.services.iter().map(|s| s.id).collect();
        let balancer = if config.control_plane.enabled {
            monitor.set_control_plane(ControlPlane::new(config.control_plane, cp_rng));
            let mut lb = LoadBalancer::with_breakers(config.control_plane.breaker, lb_rng);
            // The balancer's first backend snapshot is the initial
            // placement; later ones arrive once per scaling period.
            lb.refresh(&cluster, &service_ids);
            lb
        } else {
            LoadBalancer::new()
        };

        let mut run = Run {
            config,
            trace,
            cfg_digest: config_digest(config),
            engine: TickEngine::new(config.tick, SimTime::ZERO + config.duration)?,
            recovery: RecoveryManager::new(config.recovery),
            injector: FaultInjector::new(&config.faults, &node_ids),
            node_ids,
            service_ids,
            templates,
            cluster,
            monitor,
            balancer,
            arrivals: config
                .services
                .iter()
                .map(|s| ArrivalProcess::new(s.load.clone()))
                .collect(),
            arrival_rngs,
            demand_rngs,
            resilience_rng,
            graph: config
                .graph
                .as_ref()
                .map(|g| GraphTracker::new(g.clone(), &config.services, config.resilience)),
            events: EventQueue::new(),
            requests: RequestOutcomes::new(),
            per_service: config
                .services
                .iter()
                .map(|s| (s.id, RequestOutcomes::new()))
                .collect(),
            scaling: ScalingCounts::default(),
            cost: CostMeter::new(),
            replicas_ts: TimeSeries::new("replicas"),
            cpu_ts: TimeSeries::new("cpu-used-cores"),
            mem_ts: TimeSeries::new("mem-used-mb"),
            track_availability: !config.faults.is_empty() || !config.node_events.is_empty(),
            availability: config
                .services
                .iter()
                .map(|s| (s.id, AvailabilityTracker::new()))
                .collect(),
            balancer_deltas: vec![(0, 0); config.services.len()],
            balancer_total: (0, 0),
            deaths_total: 0,
            respawns_total: 0,
            recovery_failures_total: 0,
            tick_report: TickReport::default(),
            routes: Vec::new(),
            ready_counts: Vec::new(),
            next_snapshot_tick: config.snapshot.as_ref().map_or(0, |p| p.every_ticks),
            halted: false,
        };

        if !config.cohort_arrivals {
            // Per-request mode: each service runs a thinned Poisson
            // process of individual arrival events. Cohort mode draws a
            // per-tick Poisson count in `cohort_arrivals` instead.
            for idx in 0..config.services.len() {
                if !run.takes_client_load(idx) {
                    continue;
                }
                let first =
                    run.arrivals[idx].next_arrival(SimTime::ZERO, &mut run.arrival_rngs[idx]);
                if first < SimTime::MAX {
                    run.events.schedule(first, Event::Arrival(idx));
                }
            }
        }
        run.events
            .schedule(SimTime::ZERO + config.scale_period, Event::Scale);
        for (idx, (secs, _)) in config.node_events.iter().enumerate() {
            run.events
                .schedule(SimTime::from_secs(*secs), Event::NodeChange(idx));
        }
        Ok(run)
    }

    /// Whether service `idx` draws client load: every service without a
    /// graph, only the entry points with one (every other tier sees
    /// purely derived traffic). Non-entry services never draw from their
    /// arrival streams, which is exactly why an edge-free graph (every
    /// service an entry) reproduces the graph-free run bit for bit.
    fn takes_client_load(&self, idx: usize) -> bool {
        self.graph.as_ref().is_none_or(|t| t.is_entry(idx))
    }

    /// Serializes the complete simulation state into an (unframed)
    /// snapshot payload. [`SnapWriter::digest`] turns it into the
    /// end-of-run state digest; [`Run::snapshot_if_due`] appends the
    /// trace cursor and frames it. [`Run::restore`] reads the same fields
    /// in the same order. Nothing here depends on whether the run is
    /// traced, so traced and untraced runs reach the same digest.
    fn write_state(&self) -> SnapWriter {
        let mut w = SnapWriter::new();
        w.put_u64(self.cfg_digest);
        w.put_u64(self.engine.now().as_micros());
        w.put_u64(self.engine.ticks_run());
        self.cluster.snapshot_write(&mut w);
        self.monitor.snapshot_write(&mut w);
        self.balancer.snapshot_write(&mut w);
        self.recovery.snapshot_write(&mut w);
        self.injector.snapshot_write(&mut w);
        write_rngs(&mut w, &self.arrival_rngs);
        write_rngs(&mut w, &self.demand_rngs);
        write_rngs(&mut w, std::slice::from_ref(&self.resilience_rng));
        let entries = self.events.entries_in_order();
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
        write_outcomes(&mut w, &self.requests);
        w.put_usize(self.per_service.len());
        for (&svc, outcomes) in &self.per_service {
            w.put_u32(svc.index());
            write_outcomes(&mut w, outcomes);
        }
        w.put_u64(self.scaling.vertical);
        w.put_u64(self.scaling.spawns);
        w.put_u64(self.scaling.removals);
        let (core_secs, container_secs, busy_node_secs, elapsed_secs) = self.cost.raw_parts();
        w.put_f64(core_secs);
        w.put_f64(container_secs);
        w.put_f64(busy_node_secs);
        w.put_f64(elapsed_secs);
        write_series(&mut w, &self.replicas_ts);
        write_series(&mut w, &self.cpu_ts);
        write_series(&mut w, &self.mem_ts);
        w.put_usize(self.availability.len());
        for (&svc, tracker) in &self.availability {
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
        w.put_usize(self.balancer_deltas.len());
        for &(routed, rejected) in &self.balancer_deltas {
            w.put_u64(routed);
            w.put_u64(rejected);
        }
        w.put_u64(self.balancer_total.0);
        w.put_u64(self.balancer_total.1);
        w.put_u64(self.deaths_total);
        w.put_u64(self.respawns_total);
        w.put_u64(self.recovery_failures_total);
        match &self.graph {
            None => w.put_u8(0),
            Some(tracker) => {
                w.put_u8(1);
                tracker.snapshot_write(&mut w);
            }
        }
        w
    }

    /// Overlays the snapshot at `path` onto the freshly built run: the
    /// read side of [`Run::write_state`]. The file is validated end to
    /// end (magic, version, checksum, config digest, exact payload
    /// length); an error abandons the run, so a bad file can never leave
    /// a partial one.
    fn restore(&mut self, path: &Path) -> Result<(), CoreError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::from)?;
        let mut r = SnapReader::open(&bytes)?;
        let found = r.get_u64()?;
        if found != self.cfg_digest {
            return Err(SnapshotError::ConfigMismatch {
                expected: self.cfg_digest,
                found,
            }
            .into());
        }
        let now = SimTime::from_micros(r.get_u64()?);
        let ticks_run = r.get_u64()?;
        self.engine.restore_clock(now, ticks_run);
        self.cluster.snapshot_restore(&mut r)?;
        self.monitor.snapshot_restore(&mut r)?;
        self.balancer.snapshot_restore(&mut r)?;
        self.recovery.snapshot_restore(&mut r)?;
        self.injector.snapshot_restore(&mut r)?;
        restore_rngs(&mut r, &mut self.arrival_rngs)?;
        restore_rngs(&mut r, &mut self.demand_rngs)?;
        restore_rngs(&mut r, std::slice::from_mut(&mut self.resilience_rng))?;
        self.events = EventQueue::new();
        for _ in 0..r.get_usize()? {
            let time = SimTime::from_micros(r.get_u64()?);
            let event = match r.get_u8()? {
                0 => Event::Arrival(r.get_usize()?),
                1 => Event::Scale,
                2 => Event::NodeChange(r.get_usize()?),
                tag => {
                    return Err(
                        SnapshotError::Corrupt(format!("unknown driver-event tag {tag}")).into(),
                    );
                }
            };
            self.events.schedule(time, event);
        }
        self.requests = read_outcomes(&mut r)?;
        self.per_service.clear();
        for _ in 0..r.get_usize()? {
            let svc = ServiceId::new(r.get_u32()?);
            self.per_service.insert(svc, read_outcomes(&mut r)?);
        }
        self.scaling = ScalingCounts {
            vertical: r.get_u64()?,
            spawns: r.get_u64()?,
            removals: r.get_u64()?,
        };
        self.cost =
            CostMeter::from_raw_parts((r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?));
        read_series_into(&mut r, &mut self.replicas_ts)?;
        read_series_into(&mut r, &mut self.cpu_ts)?;
        read_series_into(&mut r, &mut self.mem_ts)?;
        self.availability.clear();
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
            self.availability
                .insert(svc, AvailabilityTracker::from_raw_parts(parts));
        }
        let n = r.get_usize()?;
        if n != self.balancer_deltas.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot carries {n} balancer tallies, scenario has {} services",
                self.balancer_deltas.len()
            ))
            .into());
        }
        for delta in &mut self.balancer_deltas {
            *delta = (r.get_u64()?, r.get_u64()?);
        }
        self.balancer_total = (r.get_u64()?, r.get_u64()?);
        self.deaths_total = r.get_u64()?;
        self.respawns_total = r.get_u64()?;
        self.recovery_failures_total = r.get_u64()?;
        // Graph-tracker state (presence is pinned by the config digest,
        // but the tag is still validated).
        match (r.get_u8()?, self.graph.as_mut()) {
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
        // The journal cursor trails the digested state. An untraced run
        // writes 0, so a traced resume of its snapshot numbers its
        // events from 0.
        let seq = r.get_u64()?;
        if self.trace.is_enabled() {
            self.trace.resume_at(seq);
        }
        r.expect_done()?;
        if let Some(policy) = &self.config.snapshot {
            self.next_snapshot_tick = (ticks_run / policy.every_ticks + 1) * policy.every_ticks;
        }
        Ok(())
    }

    /// One tick of length `dt` starting at `now`, phase by phase.
    fn tick(&mut self, now: SimTime, dt: SimDuration) {
        // Fault injection strikes at the start of the tick, before any
        // node advances, so a fault lands at the same state in every run
        // (and in every resume) of one config.
        if !self.injector.drained() {
            for failure in self
                .injector
                .apply_due_traced(&mut self.cluster, now, self.trace)
            {
                self.record_failure(&failure);
            }
        }
        while let Some((event_time, event)) = self.events.pop_due(now) {
            match event {
                Event::Arrival(idx) => self.arrival(idx, event_time, now),
                Event::NodeChange(idx) => self.node_change(idx, now),
                Event::Scale => self.scale_period(now),
            }
        }
        if self.config.cohort_arrivals {
            self.cohort_arrivals(now, dt);
        }
        self.graph_hops(now);
        self.advance(now, dt);
        // Availability roll call: a service is up in this tick iff at
        // least one ready replica exists.
        if self.track_availability {
            self.cluster
                .ready_replicas_into(now, &mut self.ready_counts);
            let dt_secs = dt.as_secs();
            for (service, tracker) in &mut self.availability {
                let up = self
                    .ready_counts
                    .get(service.as_usize())
                    .is_some_and(|&n| n > 0);
                tracker.record_tick(dt_secs, up);
            }
        }
    }

    /// One per-request client arrival on service `idx`, stamped
    /// `event_time` and routed at the tick start `now`; schedules the
    /// service's next arrival.
    fn arrival(&mut self, idx: usize, event_time: SimTime, now: SimTime) {
        let service = &self.config.services[idx];
        // Overload shedding drops the root unissued; the skipped demand
        // draw is deterministic per config because the shed decision is.
        let shed = self
            .graph
            .as_mut()
            .is_some_and(|t| t.shed_if_overloaded(idx, 1, &self.cluster, event_time, self.trace));
        if !shed {
            let mut flow = service.make_cohort(event_time, 1, &mut self.demand_rngs[idx]);
            // In graph mode every arrival opens a root; a request the
            // balancer or admission rejects either retries (resilience on)
            // or fails it on the spot (seal resolves roots that registered
            // no hop). Entry hops inherit `min(service timeout, deadline
            // budget)`.
            let entry_hop = self.graph.as_mut().map(|t| t.begin_entry(idx, &mut flow));
            let target = self.balancer.route(&self.cluster, service.id, now);
            self.routes.clear();
            self.routes.extend(target.map(|t| (t, 1)));
            self.admit(
                idx,
                &flow,
                u64::from(target.is_none()),
                entry_hop.as_ref(),
                now,
            );
            if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop) {
                t.seal_root(hop.root);
            }
        }
        let next = self.arrivals[idx].next_arrival(event_time, &mut self.arrival_rngs[idx]);
        if next < SimTime::MAX && next < self.engine.horizon() {
            self.events.schedule(next, Event::Arrival(idx));
        }
    }

    /// A scheduled machine addition or removal.
    fn node_change(&mut self, idx: usize, now: SimTime) {
        match &self.config.node_events[idx].1 {
            NodeEvent::Decommission(node_idx) => {
                let failures = self
                    .cluster
                    .decommission_node(self.node_ids[*node_idx], now)
                    .unwrap_or_default();
                for failure in &failures {
                    self.record_failure(failure);
                }
            }
            NodeEvent::Commission(spec) => {
                self.cluster.add_node(*spec);
            }
        }
    }

    /// The Monitor's scaling period: runs the algorithm, respawns dead
    /// replicas, refreshes the balancer, samples the report series and
    /// the cost integral, and schedules the next period.
    fn scale_period(&mut self, now: SimTime) {
        let config = self.config;
        let period_secs = config.scale_period.as_secs();
        // Muted NodeManagers (stat outages) leave their containers on
        // stale usage this period.
        self.monitor
            .set_stat_outages(self.injector.muted_nodes(now));
        let report =
            self.monitor
                .run_period_traced(&mut self.cluster, now, period_secs, self.trace);
        for action in &report.applied {
            match action {
                ScalingAction::Update { .. } | ScalingAction::SetNetCap { .. } => {
                    self.scaling.vertical += 1;
                }
                ScalingAction::Spawn { .. } => self.scaling.spawns += 1,
                ScalingAction::Remove { .. } => self.scaling.removals += 1,
            }
        }
        for failure in &report.removal_failures {
            self.record_failure(failure);
        }

        // Replicas that died underneath the platform are respawned
        // through the recovery path (placement + capped exponential
        // backoff).
        self.deaths_total += report.dead_replicas.len() as u64;
        for (service, _) in &report.dead_replicas {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_death();
            }
        }
        let recovered =
            self.recovery
                .run_traced(&mut self.cluster, &self.templates, now, self.trace);
        self.respawns_total += recovered.respawned.len() as u64;
        self.recovery_failures_total += recovered.failed.len() as u64;
        for (service, _) in &recovered.respawned {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_respawn();
            }
        }
        for service in &recovered.failed {
            if let Some(t) = self.availability.get_mut(service) {
                t.record_recovery_failure();
            }
        }

        // The balancer hears the period's final replica roll call (post
        // scaling + recovery). Snapshot mode routes off this until the
        // next period; live mode ignores it.
        self.balancer.refresh(&self.cluster, &self.service_ids);

        // Periodic samples for the report.
        let view = &report.view;
        let secs = now.as_secs();
        self.replicas_ts.push(secs, view.total_replicas() as f64);
        let cpu_used: f64 = view.services.iter().map(|s| s.total_cpu_used().get()).sum();
        let mem_used: f64 = view.services.iter().map(|s| s.total_mem_used().get()).sum();
        self.cpu_ts.push(secs, cpu_used);
        self.mem_ts.push(secs, mem_used);
        let allocated: f64 = view
            .services
            .iter()
            .flat_map(|s| s.replicas.iter())
            .map(|r| r.cpu_requested.get())
            .sum();
        let busy_nodes = view
            .nodes
            .iter()
            .filter(|n| !n.hosted_services.is_empty())
            .count();
        self.cost
            .record_interval(period_secs, allocated, view.total_replicas(), busy_nodes);

        // Periodic trace snapshots: per-node allocator headroom, then
        // this period's routing deltas. The deltas restart every period,
        // traced or not, so the snapshotted state never depends on
        // tracing.
        let traced = self.trace.is_enabled();
        if traced {
            self.cluster.trace_pressure(now, self.trace);
        }
        for (service, delta) in config.services.iter().zip(&mut self.balancer_deltas) {
            let (routed, rejected) = std::mem::take(delta);
            if traced {
                self.trace.emit(
                    now,
                    EventKind::BalancerStats {
                        service: service.id.index(),
                        routed,
                        rejected,
                    },
                );
            }
        }

        self.events
            .schedule(now + config.scale_period, Event::Scale);
    }

    /// Cohort-mode arrivals: one Poisson draw per service per tick,
    /// carried as a single flow cohort and waterfilled across replicas.
    /// The draw uses the same arrival/demand RNG streams as per-request
    /// mode (one count draw, one profile draw), so seeds stay comparable
    /// across services.
    fn cohort_arrivals(&mut self, now: SimTime, dt: SimDuration) {
        let config = self.config;
        let dt_secs = dt.as_secs();
        for (idx, service) in config.services.iter().enumerate() {
            if !self.takes_client_load(idx) {
                continue;
            }
            let mean = service.load.rate_at(now) * dt_secs;
            let n = self.arrival_rngs[idx].poisson(mean);
            if n == 0 {
                continue;
            }
            // Overload shedding drops the whole tick's cohort.
            if self
                .graph
                .as_mut()
                .is_some_and(|t| t.shed_if_overloaded(idx, n, &self.cluster, now, self.trace))
            {
                continue;
            }
            let mut cohort = service.make_cohort(now, n, &mut self.demand_rngs[idx]);
            let entry_hop = self.graph.as_mut().map(|t| t.begin_entry(idx, &mut cohort));
            self.routes.clear();
            let unrouted =
                self.balancer
                    .route_cohort(&self.cluster, service.id, n, now, &mut self.routes);
            let (routed, rejected) = self.admit(idx, &cohort, unrouted, entry_hop.as_ref(), now);
            if let (Some(t), Some(hop)) = (self.graph.as_mut(), entry_hop) {
                // A root with no admitted hop and no queued retry
                // resolves right here.
                t.seal_root(hop.root);
            }
            self.trace.emit(
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

    /// Graph mode: admits the child hops queued by hops that completed
    /// last tick. Children ride the cohort machinery regardless of
    /// arrival mode (one aggregate record per admitted share, valid for
    /// count = 1), and their arrival time is the parent's finish — the
    /// gap until `now` is the inter-tier queueing delay the spans report.
    fn graph_hops(&mut self, now: SimTime) {
        let config = self.config;
        let Some(tracker) = self.graph.as_mut().filter(|t| t.has_pending()) else {
            return;
        };
        let pending = tracker.take_due(now);
        for hop in &pending {
            let service = &config.services[hop.service];
            let tracker = self.graph.as_mut().expect("graph mode");
            let child = Request::new(
                service.id,
                hop.arrival,
                hop.cpu_secs,
                MemMb(hop.mem_mb),
                hop.megabits,
            )
            .with_disk(hop.disk_megabits)
            .with_timeout(tracker.hop_timeout(hop.root, hop.arrival, service.timeout));
            let cohort = Cohort::from_request(&child, hop.count).with_attempt(hop.attempt);
            self.routes.clear();
            let unrouted = self.balancer.route_cohort(
                &self.cluster,
                service.id,
                hop.count,
                now,
                &mut self.routes,
            );
            // Retryable rejections re-queue (counting toward the root's
            // pending total) inside the hand-off, before the settle below,
            // so the root cannot resolve under them.
            self.admit(hop.service, &cohort, unrouted, Some(hop), now);
            // The queued entry itself is settled last, so the root cannot
            // resolve before its shares register.
            self.graph
                .as_mut()
                .expect("graph mode")
                .settle_queued(hop.root);
        }
        self.graph
            .as_mut()
            .expect("graph mode")
            .return_pending_scratch(pending);
    }

    /// Issues `flow.count` members of service `idx` and hands their
    /// routed shares (`self.routes`) to the cluster — the single
    /// admission path behind per-request arrivals, cohort arrivals and
    /// graph child hops. `unrouted` counts members the balancer found no
    /// replica for. Each share is admitted as a copy of `flow` with the
    /// share's member count. Admitted shares feed the replica's circuit
    /// breaker as successes and, with a graph `hop`, register as hops of
    /// its root; refused shares feed it as failures. Refused and unrouted
    /// members are tallied as queue aborts and, with a `hop`, handed to
    /// [`GraphTracker::on_unadmitted`] (retry or fail the root). Returns
    /// `(admitted, rejected)` members, which also feed the balancer
    /// tallies: a member counts as routed only once a replica admitted it.
    fn admit(
        &mut self,
        idx: usize,
        flow: &Cohort,
        unrouted: u64,
        hop: Option<&PendingHop>,
        now: SimTime,
    ) -> (u64, u64) {
        let outcomes = self
            .per_service
            .get_mut(&self.config.services[idx].id)
            .expect("known service");
        self.requests.record_issued_n(flow.count);
        outcomes.record_issued_n(flow.count);
        let mut admitted = 0;
        let mut rejected = unrouted;
        for &(target, count) in &self.routes {
            match self
                .cluster
                .admit_cohort(target, Cohort { count, ..*flow }, now)
            {
                Ok(first) => {
                    admitted += count;
                    if let (Some(tracker), Some(hop)) = (self.graph.as_mut(), hop) {
                        tracker.register_hop(hop.root, first.index(), hop);
                    }
                    self.balancer.record_success(target, now, self.trace);
                }
                Err(_) => {
                    rejected += count;
                    self.balancer.record_failure(target, now, self.trace);
                }
            }
        }
        if rejected > 0 {
            self.requests.record_queue_abort_failures(rejected);
            outcomes.record_queue_abort_failures(rejected);
            if let (Some(tracker), Some(hop)) = (self.graph.as_mut(), hop) {
                tracker.on_unadmitted(hop, rejected, now, &mut self.resilience_rng, self.trace);
            }
        }
        for t in [&mut self.balancer_deltas[idx], &mut self.balancer_total] {
            t.0 += admitted;
            t.1 += rejected;
        }
        (admitted, rejected)
    }

    /// Advances the resource model one tick and settles what finished.
    /// The reused report buffer is moved out and put back, so the loop
    /// stays allocation-free.
    fn advance(&mut self, now: SimTime, dt: SimDuration) {
        let mut report = std::mem::take(&mut self.tick_report);
        self.cluster.advance_into(now, dt, &mut report);
        for done in report.completed.drain(..) {
            let secs = done.response_time.as_secs();
            self.requests.record_completed_n(secs, done.count);
            if let Some(out) = self.per_service.get_mut(&done.service) {
                out.record_completed_n(secs, done.count);
            }
            if let Some(tracker) = self.graph.as_mut() {
                // Journals the hop's span, queues its children for next
                // tick, and resolves the root if this was its last
                // outstanding hop.
                tracker.on_completed(&done, &self.config.services, self.trace);
            }
        }
        for failed in report.failed.drain(..) {
            self.record_failure(&failed);
        }
        self.tick_report = report;
    }

    /// Tallies one aborted/failed request exactly once, into both the
    /// overall and the per-service outcomes, according to the paper's
    /// taxonomy: scale-in and decommission aborts are **removal**
    /// failures, while timeouts, queue aborts, and infrastructure deaths
    /// are tallied separately and rolled up as **connection** failures in
    /// reports. Every failure-recording site funnels through here, so a
    /// request can never be double-counted or dropped — and, in graph
    /// mode, so every lost hop reliably fails its root (or, with the
    /// resilience layer enabled and a retryable failure, re-queues as a
    /// retry hop). The failed attempt is tallied either way: retries are
    /// extra issued load, so per-attempt accounting keeps `completed +
    /// failures ≤ issued` intact.
    fn record_failure(&mut self, failure: &FailedRequest) {
        if let Some(tracker) = self.graph.as_mut() {
            tracker.on_failed(failure, &mut self.resilience_rng, self.trace);
        }
        // Per-request paths always carry count 1; aborted cohorts arrive
        // as one aggregate record carrying their member count.
        record_failure_tally(&mut self.requests, failure.kind, failure.count);
        if let Some(out) = self.per_service.get_mut(&failure.service) {
            record_failure_tally(out, failure.kind, failure.count);
        }
    }

    /// Writes a snapshot at the tick boundary just crossed if one is due,
    /// and marks the run halted after the first one when the policy asks.
    fn snapshot_if_due(&mut self) -> Result<(), CoreError> {
        let Some(policy) = &self.config.snapshot else {
            return Ok(());
        };
        let tick = self.engine.ticks_run();
        if tick != self.next_snapshot_tick || self.engine.finished() {
            return Ok(());
        }
        let boundary = self.engine.now();
        // The Snapshot event is emitted *before* the state is serialized,
        // so the captured trace cursor already counts it: an interrupted
        // journal ends exactly where the resumed journal begins.
        self.trace.emit(
            boundary,
            EventKind::Snapshot {
                tick,
                now_us: boundary.as_micros(),
            },
        );
        // Replay any lazily-parked idle ticks so the serialized
        // windows/EWMAs match a full-scan run.
        self.cluster.flush_pending();
        let mut w = self.write_state();
        w.put_u64(self.trace.total_emitted());
        let bytes = w.finish();
        std::fs::create_dir_all(&policy.dir).map_err(SnapshotError::from)?;
        std::fs::write(policy.file_for(tick), bytes).map_err(SnapshotError::from)?;
        self.next_snapshot_tick += policy.every_ticks;
        self.halted = policy.halt_after_first;
        Ok(())
    }

    /// Ends the run: the end-of-horizon state digest, the counter dump,
    /// and the report.
    fn finish(mut self) -> RunReport {
        let config = self.config;
        // Control-plane health counters: the Monitor's control plane
        // tallies the report/actuation/safe-mode side; the balancer owns
        // the breaker tally.
        let mut control_plane = self
            .monitor
            .control_plane()
            .map(|cp| cp.stats)
            .unwrap_or_default();
        control_plane.breaker_opens = self.balancer.breaker_opens();

        // Any nodes still parked at the horizon replay their pending idle
        // ticks now, so end-of-run reads (and the digest below) match the
        // full-scan engine exactly.
        self.cluster.flush_pending();
        // End-of-horizon state digest: cheap bit-exactness witness for
        // the resume-equivalence battery. Skipped for halted runs (their
        // state is mid-flight by design).
        let state_digest = (!self.halted
            && self.engine.finished()
            && (config.snapshot.is_some() || config.resume.is_some()))
        .then(|| self.write_state().digest());

        // A halted (snapshot-and-stop) run skips the counter dump: the
        // resumed run emits it at the true horizon, keeping the
        // concatenated journal identical to an uninterrupted one.
        if self.trace.is_enabled() && !self.halted {
            self.counters(&control_plane);
        }

        let resilience = self
            .graph
            .as_ref()
            .map(GraphTracker::resilience_stats)
            .unwrap_or_default();
        let mut report = RunReport {
            name: config.name.clone(),
            algorithm: config.algorithm,
            seeds: vec![config.seed],
            requests: self.requests,
            per_service: self.per_service,
            scaling: self.scaling,
            cost: self.cost,
            replicas: self.replicas_ts,
            cpu_used: self.cpu_ts,
            mem_used: self.mem_ts,
            availability: self
                .availability
                .into_iter()
                .map(|(s, t)| (s, t.finalize()))
                .collect(),
            faults: self.injector.log(),
            control_plane,
            warp_ticks: 0,
            entry_points: self
                .graph
                .map(GraphTracker::into_entry_stats)
                .unwrap_or_default(),
            resilience,
            state_digest,
        };
        report.trim();
        report
    }

    /// The final counter dump: one `Counter` event per distinct name, in
    /// a fixed order, so the journal tail is deterministic by
    /// construction. Graph counters are appended only for graph
    /// scenarios so a graph-free journal stays byte-identical to
    /// pre-graph builds.
    fn counters(&mut self, control_plane: &ControlPlaneStats) {
        let mut totals: Vec<(&'static str, u64)> = vec![
            ("requests.issued", self.requests.issued),
            ("requests.completed", self.requests.completed),
            ("failures.connection", self.requests.failures.connection()),
            ("failures.removal", self.requests.failures.removal),
            ("scaling.vertical", self.scaling.vertical),
            ("scaling.spawns", self.scaling.spawns),
            ("scaling.removals", self.scaling.removals),
            ("balancer.routed", self.balancer_total.0),
            ("balancer.rejected", self.balancer_total.1),
            ("recovery.respawns", self.respawns_total),
            ("recovery.failures", self.recovery_failures_total),
            ("replica.deaths", self.deaths_total),
            ("controlplane.reports_lost", control_plane.reports_lost),
            ("controlplane.reports_late", control_plane.reports_late),
            (
                "controlplane.reports_duplicated",
                control_plane.reports_duplicated,
            ),
            (
                "controlplane.actuation_failures",
                control_plane.actuation_failures,
            ),
            (
                "controlplane.actuation_retries",
                control_plane.actuation_retries,
            ),
            (
                "controlplane.actuations_deduped",
                control_plane.actuations_deduped,
            ),
            (
                "controlplane.actuations_abandoned",
                control_plane.actuations_abandoned,
            ),
            ("controlplane.breaker_opens", control_plane.breaker_opens),
            (
                "controlplane.safe_mode_periods",
                control_plane.safe_mode_periods,
            ),
            ("controlplane.stale_vetoes", control_plane.stale_vetoes),
        ];
        if let Some(tracker) = self.graph.as_ref() {
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
            if self.config.resilience.enabled {
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
        let horizon = self.engine.horizon();
        for (name, value) in totals {
            self.trace.emit(horizon, EventKind::Counter { name, value });
        }
    }
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
                parallelism: 1,
                cohort_arrivals: false,
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

    /// Switches the workload to flow-cohort arrivals: one Poisson batch
    /// per service per tick instead of individual arrival events. See
    /// [`ScenarioConfig::cohort_arrivals`].
    pub fn cohort_arrivals(mut self, on: bool) -> Self {
        self.config.cohort_arrivals = on;
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
    fn validation_rejects_tick_parallelism() {
        let mut config = ScenarioBuilder::new("x")
            .nodes(1)
            .services(1, ServiceProfile::CpuBound, LoadPattern::low_burst())
            .build();
        assert_eq!(config.parallelism, 1);
        assert!(config.validate().is_ok());
        config.parallelism = 2;
        match config.validate() {
            Err(CoreError::InvalidScenario(why)) => {
                assert!(why.contains("runner::sweep"), "{why}");
            }
            other => panic!("parallelism 2 must be rejected, got {other:?}"),
        }
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

    fn cohort_config(seed: u64) -> ScenarioConfig {
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
            .cohort_arrivals(true)
            .build()
    }

    #[test]
    fn cohort_mode_completes_requests_and_conserves_them() {
        let report = SimulationDriver::run(&cohort_config(7)).unwrap();
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
    fn cohort_mode_is_deterministic() {
        let digest = |report: &RunReport| {
            (
                report.requests.issued,
                report.requests.completed,
                report.requests.failures,
                report.scaling,
                report.requests.mean_response_secs().to_bits(),
            )
        };
        let first = SimulationDriver::run(&cohort_config(11)).unwrap();
        let again = SimulationDriver::run(&cohort_config(11)).unwrap();
        assert_eq!(digest(&first), digest(&again));
    }
}
