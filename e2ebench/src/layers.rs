//! The layer pass: a benchmark-owned stepping loop over a workload's
//! configs that calls each layer's public functions directly and times
//! every call.
//!
//! It mirrors `SimulationDriver`'s tick (faults, scaling period, arrivals,
//! routing and admission, advance, outcome accounting) closely enough to
//! load the layers the same way, but it is not `SimulationDriver`: graph
//! hops fan out without its root tracking, retries, deadlines or shedding
//! (`GraphTracker` is private to `hyscale-core`), and there is no time
//! warp. Its outputs are per-layer costs, not simulated results.

use std::collections::HashMap;
use std::time::Instant;

use hyscale_cluster::{
    Cluster, Cohort, ContainerId, ContainerSpec, FailedRequest, FailureKind, FaultInjector, MemMb,
    NodeId, Request, ServiceId, TickReport,
};
use hyscale_core::{ControlPlane, LoadBalancer, Monitor, RecoveryManager, ScenarioConfig};
use hyscale_metrics::RequestOutcomes;
use hyscale_sim::{SimRng, SimTime, SnapReader, SnapWriter, SnapshotError};
use hyscale_trace::TraceSink;
use hyscale_workload::ArrivalProcess;

use crate::checks;

/// A layer boundary the loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ArrivalProcess::next_arrival`, `make_request`, `make_cohort`, and
    /// the per-tick Poisson draw (`workload`).
    Arrivals,
    /// `LoadBalancer::route` / `route_cohort` (`core.balancer`).
    Route,
    /// `LoadBalancer::record_success` / `record_failure` / `refresh`.
    BalancerUpkeep,
    /// `Cluster::admit_request` / `admit_cohort` (`cluster`).
    Admit,
    /// `Cluster::advance_into` (`cluster`).
    Advance,
    /// `RequestOutcomes::record_*` (`metrics`).
    Record,
    /// Mean, p95 and p99 of the run's response times (`metrics`).
    Report,
    /// `Monitor::run_period` (`core.monitor` and `core.algorithms`).
    Monitor,
    /// `RecoveryManager::run` (`core.recovery`).
    Recovery,
    /// `FaultInjector::apply_due` (`cluster::faults`).
    Faults,
    /// `snapshot_write` of cluster, monitor, balancer and fault injector.
    SnapshotWrite,
    /// `snapshot_restore` of the same into a twin stack.
    SnapshotRestore,
}

impl Layer {
    /// Every layer, in print order.
    pub const ALL: [Layer; 12] = [
        Layer::Arrivals,
        Layer::Route,
        Layer::BalancerUpkeep,
        Layer::Admit,
        Layer::Advance,
        Layer::Record,
        Layer::Report,
        Layer::Monitor,
        Layer::Recovery,
        Layer::Faults,
        Layer::SnapshotWrite,
        Layer::SnapshotRestore,
    ];

    /// Printed name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Arrivals => "workload.arrivals",
            Layer::Route => "balancer.route",
            Layer::BalancerUpkeep => "balancer.upkeep",
            Layer::Admit => "cluster.admit",
            Layer::Advance => "cluster.advance",
            Layer::Record => "metrics.record",
            Layer::Report => "metrics.report",
            Layer::Monitor => "monitor.period",
            Layer::Recovery => "recovery.run",
            Layer::Faults => "faults.apply",
            Layer::SnapshotWrite => "snapshot.write",
            Layer::SnapshotRestore => "snapshot.restore",
        }
    }
}

/// Sub-buckets per power of two in [`Histogram`]: values are kept to
/// within 1/64 (~1.6%) of their true size.
const SUB_BUCKETS: u64 = 64;

/// Log-linear histogram of nanosecond durations: fixed memory however
/// many calls it sees.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let exp = 63 - u64::from(v.leading_zeros());
        let shift = exp - 6;
        ((exp - 5) * SUB_BUCKETS + ((v >> shift) - SUB_BUCKETS)) as usize
    }

    /// Midpoint of the values bucket `i` holds.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let shift = i / SUB_BUCKETS - 1;
        ((i % SUB_BUCKETS + SUB_BUCKETS) << shift) + (1 << shift) / 2
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile `p` (0-100); 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(self.counts.len() - 1)
    }
}

/// Self time, call count and per-call distribution of every layer.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    nanos: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    hist: [Histogram; Layer::ALL.len()],
}

impl Clock {
    /// Runs `f` inside a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let i = layer as usize;
        self.nanos[i] += ns;
        self.calls[i] += 1;
        self.hist[i].record(ns);
        out
    }

    /// Total self time of `layer`, seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.nanos[layer as usize] as f64 / 1e9
    }

    /// Calls made into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Per-call durations of `layer`.
    pub fn hist(&self, layer: Layer) -> &Histogram {
        &self.hist[layer as usize]
    }

    /// Time covered by any span, seconds.
    pub fn covered_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Counts the loop gathers besides span times.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Client arrivals and child hops materialized (requests + cohorts).
    pub arrivals: u64,
    /// Members those arrivals carried.
    pub arrival_members: u64,
    /// Routing decisions (`route` + `route_cohort` calls).
    pub routes: u64,
    /// Members the balancer could not place.
    pub unrouted: u64,
    /// Ticks advanced.
    pub ticks: u64,
    /// Sum over ticks of the active-node count.
    pub active_node_ticks: u64,
    /// Most members in flight at once.
    pub in_flight_peak: u64,
    /// Response-time samples the outcome ledgers hold at the end.
    pub samples_held: u64,
    /// Scaling periods run.
    pub periods: u64,
    /// Scaling actions applied.
    pub actions: u64,
    /// Host seconds inside the stepping loops (spans plus the rest).
    pub loop_secs: f64,
}

/// Every stateful layer a run steps, built the way `SimulationDriver`
/// builds it.
struct Stack {
    cluster: Cluster,
    monitor: Monitor,
    balancer: LoadBalancer,
    recovery: RecoveryManager,
    injector: FaultInjector,
    templates: HashMap<ServiceId, ContainerSpec>,
    arrival_rngs: Vec<SimRng>,
    demand_rngs: Vec<SimRng>,
    /// The disabled sink the balancer's breaker feedback takes.
    quiet: TraceSink,
    /// Reusable `route_cohort` output.
    routes: Vec<(ContainerId, u64)>,
}

impl Stack {
    fn new(config: &ScenarioConfig) -> Result<Stack, String> {
        let mut cluster = Cluster::new(config.cluster);
        cluster.set_parallelism(1);
        let node_ids: Vec<NodeId> = config.nodes.iter().map(|s| cluster.add_node(*s)).collect();
        // `SimulationDriver`'s initial placement: round-robin, pre-warmed.
        let mut cursor = 0usize;
        for service in &config.services {
            for _ in 0..config.initial_replicas {
                let node = node_ids[cursor % node_ids.len()];
                cursor += 1;
                let spec = service.container.clone().with_startup_secs(0.0);
                cluster
                    .start_container(node, spec, SimTime::ZERO)
                    .map_err(|e| format!("{}: placement: {e}", config.name))?;
            }
        }
        let templates: HashMap<ServiceId, ContainerSpec> = config
            .services
            .iter()
            .map(|s| (s.id, s.container.clone()))
            .collect();
        let algorithm = config.algorithm.build(config.hpa, config.hyscale);
        let mut monitor = Monitor::new(algorithm, &cluster, templates.clone());
        let mut rng = SimRng::seed_from(config.seed);
        let arrival_rngs = config.services.iter().map(|_| rng.split()).collect();
        let demand_rngs = config.services.iter().map(|_| rng.split()).collect();
        let (cp_rng, lb_rng) = (rng.split(), rng.split());
        let balancer = if config.control_plane.enabled {
            monitor.set_control_plane(ControlPlane::new(config.control_plane, cp_rng));
            let mut lb = LoadBalancer::with_breakers(config.control_plane.breaker, lb_rng);
            let ids: Vec<ServiceId> = config.services.iter().map(|s| s.id).collect();
            lb.refresh(&cluster, &ids);
            lb
        } else {
            LoadBalancer::new()
        };
        Ok(Stack {
            cluster,
            monitor,
            balancer,
            recovery: RecoveryManager::new(config.recovery),
            injector: FaultInjector::new(&config.faults, &node_ids),
            templates,
            arrival_rngs,
            demand_rngs,
            quiet: TraceSink::disabled(),
            routes: Vec::new(),
        })
    }

    /// Tells the balancer's circuit breakers how an admission went.
    fn feedback(&mut self, target: ContainerId, admitted: bool, now: SimTime) {
        if admitted {
            self.balancer.record_success(target, now, &mut self.quiet);
        } else {
            self.balancer.record_failure(target, now, &mut self.quiet);
        }
    }

    /// Serializes every layer that has a snapshot codec.
    fn write(&mut self) -> Vec<u8> {
        self.cluster.flush_pending();
        let mut w = SnapWriter::new();
        self.cluster.snapshot_write(&mut w);
        self.monitor.snapshot_write(&mut w);
        self.balancer.snapshot_write(&mut w);
        self.recovery.snapshot_write(&mut w);
        self.injector.snapshot_write(&mut w);
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::open(bytes)?;
        self.cluster.snapshot_restore(&mut r)?;
        self.monitor.snapshot_restore(&mut r)?;
        self.balancer.snapshot_restore(&mut r)?;
        self.recovery.snapshot_restore(&mut r)?;
        self.injector.snapshot_restore(&mut r)?;
        r.expect_done()
    }
}

/// Scaling periods between layer snapshots (one a simulated minute at
/// the 5 s period).
const SNAPSHOT_EVERY_PERIODS: u64 = 12;

/// A graph hop waiting for the next tick: `count` members of `service`
/// with per-member demands, arriving when its parent finished.
struct Hop {
    service: usize,
    count: u64,
    cpu: f64,
    mem: f64,
    net: f64,
    disk: f64,
    arrival: SimTime,
}

/// Outcome ledgers: the run's and one per service.
struct Ledger {
    run: RequestOutcomes,
    services: Vec<RequestOutcomes>,
}

impl Ledger {
    fn issued(&mut self, idx: usize, n: u64) {
        self.run.record_issued_n(n);
        self.services[idx].record_issued_n(n);
    }

    fn failed(&mut self, idx: usize, kind: FailureKind, n: u64) {
        for o in [&mut self.run, &mut self.services[idx]] {
            match kind {
                FailureKind::Removal => o.record_removal_failures(n),
                FailureKind::Timeout => o.record_timeout_failures(n),
                FailureKind::QueueAbort => o.record_queue_abort_failures(n),
                FailureKind::InfraDeath => o.record_infra_death_failures(n),
            }
        }
    }

    fn failures(&mut self, failures: &[FailedRequest]) {
        for f in failures {
            self.failed(f.service.as_usize(), f.kind, f.count);
        }
    }
}

/// Steps one config through every layer, timing each call into `clock`.
///
/// # Errors
///
/// Reports a setup failure, a snapshot that does not round-trip, or an
/// unbalanced member ledger.
pub fn drive(config: &ScenarioConfig, clock: &mut Clock, tally: &mut Tally) -> Result<(), String> {
    for (i, s) in config.services.iter().enumerate() {
        if s.id.as_usize() != i {
            return Err(format!("{}: service ids must be 0..n", config.name));
        }
    }
    let mut live = Stack::new(config)?;
    let mut twin = Stack::new(config)?;
    let services = &config.services;
    let ids: Vec<ServiceId> = services.iter().map(|s| s.id).collect();
    let takes_client_load = |i: usize| config.graph.as_ref().is_none_or(|g| g.is_entry(i));
    let mut ledger = Ledger {
        run: RequestOutcomes::new(),
        services: services.iter().map(|_| RequestOutcomes::new()).collect(),
    };
    let mut processes: Vec<ArrivalProcess> = services
        .iter()
        .map(|s| ArrivalProcess::new(s.load.clone()))
        .collect();
    let horizon = SimTime::ZERO + config.duration;
    let mut next_arrival: Vec<SimTime> = vec![SimTime::MAX; services.len()];
    if !config.cohort_arrivals {
        for (i, process) in processes.iter_mut().enumerate() {
            if takes_client_load(i) {
                let rng = &mut live.arrival_rngs[i];
                next_arrival[i] =
                    clock.time(Layer::Arrivals, || process.next_arrival(SimTime::ZERO, rng));
            }
        }
    }
    let dt = config.tick;
    let period_secs = config.scale_period.as_secs();
    let mut next_period = SimTime::ZERO + config.scale_period;
    let mut report = TickReport::default();
    let mut hops: Vec<Hop> = Vec::new();
    let mut due_hops: Vec<Hop> = Vec::new();
    let mut now = SimTime::ZERO;

    let started = Instant::now();
    while now < horizon {
        let s = &mut live;
        if !s.injector.drained() {
            let lost = clock.time(Layer::Faults, || s.injector.apply_due(&mut s.cluster, now));
            clock.time(Layer::Record, || ledger.failures(&lost));
        }

        if now >= next_period {
            let muted = s.injector.muted_nodes(now);
            let period = clock.time(Layer::Monitor, || {
                s.monitor.set_stat_outages(muted);
                s.monitor.run_period(&mut s.cluster, now, period_secs)
            });
            tally.periods += 1;
            tally.actions += period.applied.len() as u64;
            clock.time(Layer::Record, || ledger.failures(&period.removal_failures));
            clock.time(Layer::Recovery, || {
                s.recovery.run(&mut s.cluster, &s.templates, now)
            });
            clock.time(Layer::BalancerUpkeep, || {
                s.balancer.refresh(&s.cluster, &ids)
            });
            next_period += config.scale_period;
            if tally.periods.is_multiple_of(SNAPSHOT_EVERY_PERIODS) {
                let bytes = clock.time(Layer::SnapshotWrite, || s.write());
                clock
                    .time(Layer::SnapshotRestore, || twin.restore(&bytes))
                    .map_err(|e| format!("{}: snapshot restore: {e}", config.name))?;
            }
        }

        // Client arrivals: exact event times in request mode, one Poisson
        // cohort per service per tick in cohort mode.
        for (i, spec) in services.iter().enumerate() {
            if !takes_client_load(i) {
                continue;
            }
            if config.cohort_arrivals {
                let (arrival_rng, demand_rng) = (&mut s.arrival_rngs[i], &mut s.demand_rngs[i]);
                let mean = spec.load.rate_at(now) * dt.as_secs();
                let cohort = clock.time(Layer::Arrivals, || {
                    let n = arrival_rng.poisson(mean);
                    (n > 0).then(|| spec.make_cohort(now, n, demand_rng))
                });
                if let Some(cohort) = cohort {
                    tally.arrivals += 1;
                    tally.arrival_members += cohort.count;
                    admit_cohort(s, clock, tally, &mut ledger, i, cohort, now);
                }
                continue;
            }
            while next_arrival[i] <= now && next_arrival[i] < horizon {
                let at = next_arrival[i];
                let (process, arrival_rng, demand_rng) = (
                    &mut processes[i],
                    &mut s.arrival_rngs[i],
                    &mut s.demand_rngs[i],
                );
                let request = clock.time(Layer::Arrivals, || {
                    next_arrival[i] = process.next_arrival(at, arrival_rng);
                    spec.make_request(at, demand_rng)
                });
                tally.arrivals += 1;
                tally.arrival_members += 1;
                clock.time(Layer::Record, || ledger.issued(i, 1));
                tally.routes += 1;
                let target =
                    clock.time(Layer::Route, || s.balancer.route(&s.cluster, spec.id, now));
                let Some(target) = target else {
                    tally.unrouted += 1;
                    clock.time(Layer::Record, || {
                        ledger.failed(i, FailureKind::QueueAbort, 1)
                    });
                    continue;
                };
                let admitted = clock.time(Layer::Admit, || {
                    s.cluster.admit_request(target, request, now)
                });
                clock.time(Layer::BalancerUpkeep, || {
                    s.feedback(target, admitted.is_ok(), now);
                });
                if admitted.is_err() {
                    clock.time(Layer::Record, || {
                        ledger.failed(i, FailureKind::QueueAbort, 1)
                    });
                }
            }
        }

        // Graph hops queued by last tick's completions.
        std::mem::swap(&mut hops, &mut due_hops);
        for hop in due_hops.drain(..) {
            let spec = &services[hop.service];
            let cohort = clock.time(Layer::Arrivals, || {
                let request = Request::new(spec.id, hop.arrival, hop.cpu, MemMb(hop.mem), hop.net)
                    .with_disk(hop.disk)
                    .with_timeout(spec.timeout);
                Cohort::from_request(&request, hop.count)
            });
            tally.arrivals += 1;
            tally.arrival_members += hop.count;
            admit_cohort(s, clock, tally, &mut ledger, hop.service, cohort, now);
        }

        tally.in_flight_peak = tally.in_flight_peak.max(s.cluster.total_in_flight());
        clock.time(Layer::Advance, || {
            s.cluster.advance_into(now, dt, &mut report)
        });
        tally.ticks += 1;
        tally.active_node_ticks += s.cluster.active_node_indices().len() as u64;
        if let Some(graph) = &config.graph {
            for done in &report.completed {
                for edge in graph.children(done.service.as_usize()) {
                    let child = &services[edge.child];
                    hops.push(Hop {
                        service: edge.child,
                        count: done.count * edge.fan_out,
                        cpu: child.cpu_secs_per_req * edge.cpu_mult,
                        mem: child.mem_per_req.get() * edge.mem_mult,
                        net: child.megabits_per_req * edge.net_mult,
                        disk: child.disk_megabits_per_req * edge.disk_mult,
                        arrival: done.finished,
                    });
                }
            }
        }
        clock.time(Layer::Record, || {
            for done in report.completed.drain(..) {
                let secs = done.response_time.as_secs();
                ledger.run.record_completed_n(secs, done.count);
                ledger.services[done.service.as_usize()].record_completed_n(secs, done.count);
            }
            ledger.failures(&report.failed);
            report.failed.clear();
        });
        now += dt;
    }
    tally.loop_secs += started.elapsed().as_secs_f64();

    let rt = &ledger.run.response_times;
    std::hint::black_box(clock.time(Layer::Report, || {
        (rt.mean(), rt.percentile(95.0), rt.percentile(99.0))
    }));
    tally.samples_held += ledger.run.response_times.count() as u64
        + ledger
            .services
            .iter()
            .map(|o| o.response_times.count() as u64)
            .sum::<u64>();
    checks::conservation_exact(&ledger.run, live.cluster.total_in_flight())
        .map_err(|e| format!("{}: layer pass: {e}", config.name))?;
    // The twin, restored from the live stack, must serialize to the same
    // bytes: every layer's codec round-trips.
    let bytes = live.write();
    twin.restore(&bytes)
        .map_err(|e| format!("{}: snapshot restore: {e}", config.name))?;
    if twin.write() != bytes {
        return Err(format!(
            "{}: layer snapshot does not round-trip",
            config.name
        ));
    }
    Ok(())
}

/// Waterfills one cohort over the service's replicas and admits each
/// share, as `SimulationDriver` does for cohort arrivals and graph hops.
fn admit_cohort(
    s: &mut Stack,
    clock: &mut Clock,
    tally: &mut Tally,
    ledger: &mut Ledger,
    idx: usize,
    cohort: Cohort,
    now: SimTime,
) {
    let service = cohort.service;
    let count = cohort.count;
    clock.time(Layer::Record, || ledger.issued(idx, count));
    s.routes.clear();
    tally.routes += 1;
    let unrouted = clock.time(Layer::Route, || {
        s.balancer
            .route_cohort(&s.cluster, service, count, now, &mut s.routes)
    });
    tally.unrouted += unrouted;
    let mut refused = unrouted;
    for k in 0..s.routes.len() {
        let (target, members) = s.routes[k];
        let mut share = cohort.clone();
        share.count = members;
        let admitted = clock.time(Layer::Admit, || s.cluster.admit_cohort(target, share, now));
        clock.time(Layer::BalancerUpkeep, || {
            s.feedback(target, admitted.is_ok(), now)
        });
        if admitted.is_err() {
            refused += members;
        }
    }
    if refused > 0 {
        clock.time(Layer::Record, || {
            ledger.failed(idx, FailureKind::QueueAbort, refused)
        });
    }
}
