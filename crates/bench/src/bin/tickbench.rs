//! `tickbench` — steady-state throughput benchmark for the tick engine.
//!
//! Drives a synthetic 24-node / 15-service cluster in a busy steady state
//! (every node ~90% CPU-loaded, modest egress) through `Cluster::advance`
//! alone — no autoscaler, no load balancer — so the numbers isolate the
//! simulation hot loop. Five sections:
//!
//! 1. **Request mode** — the per-request path: one `Request` per
//!    container per tick.
//! 2. **Cohort mode** — the flow-cohort hot path: one 64-member cohort
//!    per container per tick carries the same CPU load as request mode
//!    but moves 64x the members per record. Its requests/sec is the
//!    headline figure.
//! 3. **Ramp mode** — offered-rps staircase
//!    (`--initial-rps/--increment-rps/--max-rps`): each step drives a
//!    fresh cluster at a fixed offered rate and the saturation knee is
//!    the last step that completed >= 95% of what was offered.
//! 4. **Million users** — 96 containers x 11,000-member cohorts put
//!    1,056,000 concurrent members in flight, drained to empty.
//! 5. **Scale sweep** — total node count sweeps 24 / 240 / 2400 / 10000
//!    while the traffic footprint stays pinned to (a fraction of) the
//!    first 24 nodes: with the active-set engine, per-tick cost tracks
//!    the footprint rather than the cluster, so the big clusters must
//!    tick within `SCALE_GATE_FLOOR` of the 24-node rate.
//!
//! Results land in `BENCH_tick.json`; the top-level `requests_per_sec`
//! field is the cohort headline. Each timed section also records an
//! order-sensitive digest of its completions (`checksum`), which changes
//! only when the engine's arithmetic or ordering does.
//!
//! Usage: `cargo run --release -p hyscale-bench --bin tickbench [-- flags]`
//!
//! * `--smoke` — CI scale: fewer measured ticks, same assertions.
//! * `--gate`  — regression gate: fail if the cohort path stops beating
//!   request mode by at least `COHORT_GATE_FACTOR`, or if the scale
//!   sweep stops being sub-linear (see `scale_gate`).
//! * `--million-only` — run only the million-user section (CI smoke).
//! * `--nodes N` — run *only* the scale sweep, over {24, N}, leaving
//!   `BENCH_tick.json` untouched (CI uses `--smoke --nodes 2400 --gate`);
//!   the full default run sweeps 24 / 240 / 2400 / 10000 instead.
//! * `--active-fraction F` — fraction of the 24-node traffic footprint
//!   that receives load in the scale sweep (default 1.0).
//! * `--initial-rps N` / `--increment-rps N` / `--max-rps N` — ramp
//!   staircase parameters (defaults 20000 / 20000 / 160000).

use std::time::Instant;

use hyscale_cluster::{
    Cluster, ClusterConfig, Cohort, ContainerId, ContainerSpec, Cores, MemMb, NodeSpec, Request,
    ServiceId, TickReport,
};
use hyscale_sim::{SimDuration, SimRng, SimTime};

const NODES: usize = 24;
const SERVICES: usize = 15;
const CONTAINERS_PER_NODE: usize = 4;

/// Members per cohort in cohort mode. Per-member CPU demand is
/// request mode's divided by this, so both modes run the nodes at the
/// same ~90% utilization while cohort mode moves 64x the members.
const COHORT_MEMBERS: u64 = 64;

/// Serial ticks/sec of the pre-rework engine (per-tick allocations, no
/// idle fast path) on this exact scenario, measured on the reference
/// machine before the tick-engine rework landed. The acceptance bar for
/// the rework was >= 2x this figure.
const BASELINE_TICKS_PER_SEC: f64 = 1480.0;

/// Serial requests/sec of the per-request object model on the reference
/// machine before the flow-cohort rework (96 requests per 100 ms tick).
/// The cohort hot path's acceptance bar is >= 10x this figure there.
const BASELINE_REQUESTS_PER_SEC: f64 = 162_560.0;

/// Hardware-aware cohort gate: cohort-mode throughput must beat the
/// *same run's* request-mode throughput by at least this factor,
/// whatever the machine (the 10x reference-hardware target gives
/// plenty of margin; 5x catches a broken columnar path anywhere).
const COHORT_GATE_FACTOR: f64 = 5.0;

/// Million-user scenario shape: 96 containers x 11,000 members each =
/// 1,056,000 concurrent in-flight members.
const MILLION_MEMBERS_PER_CONTAINER: u64 = 11_000;
const MILLION_FLOOR: u64 = 1_000_000;

/// Node counts the full-run scale sweep visits at a fixed traffic
/// footprint. The sub-linearity gate covers every point up to
/// `SCALE_GATE_SPAN_NODES`; the 10,000-node point only has to complete.
const SCALE_SWEEP_NODES: [usize; 4] = [24, 240, 2_400, 10_000];

/// Lowest acceptable ticks/s ratio between a big swept cluster and the
/// 24-node baseline at the same traffic footprint. A full-scan engine
/// scores ~0.01 at 2,400 nodes; the active-set engine should stay near
/// 1.0, so 0.5 catches any reintroduced O(total-nodes) per-tick work
/// while absorbing cache and allocator noise.
const SCALE_GATE_FLOOR: f64 = 0.5;

/// Largest swept cluster the sub-linearity gate is enforced at.
const SCALE_GATE_SPAN_NODES: usize = 2_400;

/// The 24-node / 15-service steady-state scenario: four replicas per node,
/// services striped round-robin across the replica grid.
fn build_cluster(queue_cap: usize) -> (Cluster, Vec<ContainerId>) {
    build_cluster_n(NODES, queue_cap)
}

/// The same replica grid at an arbitrary node count (scale sweep).
fn build_cluster_n(nodes: usize, queue_cap: usize) -> (Cluster, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let mut containers = Vec::new();
    for n in 0..nodes {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        for c in 0..CONTAINERS_PER_NODE {
            let service = ServiceId::new(((n * CONTAINERS_PER_NODE + c) % SERVICES) as u32);
            let spec = ContainerSpec::new(service)
                .with_cpu_request(Cores(1.0))
                .with_mem_limit(MemMb(512.0))
                .with_queue_cap(queue_cap)
                .with_startup_secs(0.0);
            let id = cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("placement fits");
            containers.push(id);
        }
    }
    (cluster, containers)
}

/// Per-tick wall-clock latency distribution, in microseconds.
struct Latency {
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

impl Latency {
    fn from_ns(samples: &mut [u64]) -> Latency {
        samples.sort_unstable();
        let pct = |p: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let rank = (p / 100.0 * (samples.len() - 1) as f64).round() as usize;
            samples[rank.min(samples.len() - 1)] as f64 / 1e3
        };
        Latency {
            p50: pct(50.0),
            p95: pct(95.0),
            p99: pct(99.0),
            max: samples.last().copied().unwrap_or(0) as f64 / 1e3,
        }
    }
}

/// Result of driving the engine through one scenario.
struct RunOutcome {
    ticks_per_sec: f64,
    requests_per_sec: f64,
    latency: Latency,
    /// Order-sensitive digest of every completion (id, member count,
    /// response time): two runs are bit-identical iff digests match.
    checksum: u64,
}

/// Folds one tick's completions into a running order-sensitive digest and
/// returns the member count completed this tick.
fn fold_completions(report: &TickReport, checksum: &mut u64) -> u64 {
    let mut members = 0u64;
    for done in &report.completed {
        members += done.count;
        *checksum = checksum
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(done.id.index())
            .wrapping_add(done.count.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(done.response_time.as_secs().to_bits());
    }
    members
}

/// Drives one mode: `warmup_ticks` un-timed ticks admit load and fill
/// queues to steady state, so first-touch page faults never land inside
/// the timed window. Then `measured_ticks` are timed.
fn drive(label: &str, warmup_ticks: usize, measured_ticks: usize, cohorts: bool) -> RunOutcome {
    let (mut cluster, containers) = build_cluster(1024);
    let mut rng = SimRng::seed_from(0x71C2);
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut next = 0usize;
    let mut report = TickReport::default();

    let services: Vec<ServiceId> = containers
        .iter()
        .map(|&id| cluster.container(id).expect("live").spec().service)
        .collect();

    let admit = |cluster: &mut Cluster, rng: &mut SimRng, now: SimTime, next: &mut usize| {
        // One admission per container per tick keeps each 4-core node at
        // roughly 90% CPU: 4 x (0.085 mean core-secs + base tax) per 0.4
        // core-secs of tick capacity. Cohort mode spreads the same work
        // across COHORT_MEMBERS members of a single columnar record.
        for _ in 0..CONTAINERS_PER_NODE * NODES {
            let idx = *next % containers.len();
            let id = containers[idx];
            let service = services[idx];
            *next += 1;
            if cohorts {
                let cpu_secs = rng.uniform_range(0.07, 0.10) / COHORT_MEMBERS as f64;
                let megabits = rng.uniform_range(0.2, 0.8) / COHORT_MEMBERS as f64;
                let cohort = Cohort::new(
                    service,
                    now,
                    COHORT_MEMBERS,
                    cpu_secs,
                    MemMb(8.0 / COHORT_MEMBERS as f64),
                    megabits,
                );
                // Full queues just shed load; the steady state stays steady.
                let _ = cluster.admit_cohort(id, cohort, now);
            } else {
                let cpu_secs = rng.uniform_range(0.07, 0.10);
                let megabits = rng.uniform_range(0.2, 0.8);
                let request = Request::new(service, now, cpu_secs, MemMb(8.0), megabits);
                let _ = cluster.admit_request(id, request, now);
            }
        }
    };

    for _ in 0..warmup_ticks.max(1) {
        admit(&mut cluster, &mut rng, now, &mut next);
        cluster.advance_into(now, dt, &mut report);
        now += dt;
    }

    let mut completed = 0u64;
    let mut checksum = 0u64;
    let mut tick_ns: Vec<u64> = Vec::with_capacity(measured_ticks);
    let start = Instant::now();
    for _ in 0..measured_ticks {
        admit(&mut cluster, &mut rng, now, &mut next);
        let t0 = Instant::now();
        cluster.advance_into(now, dt, &mut report);
        tick_ns.push(t0.elapsed().as_nanos() as u64);
        completed += fold_completions(&report, &mut checksum);
        now += dt;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let outcome = RunOutcome {
        ticks_per_sec: measured_ticks as f64 / elapsed,
        requests_per_sec: completed as f64 / elapsed,
        latency: Latency::from_ns(&mut tick_ns),
        checksum,
    };
    println!(
        "{label}:\n  {:>10.0} ticks/s {:>12.0} req/s  p50 {:>7.1}us p95 {:>7.1}us p99 {:>7.1}us max {:>8.1}us  (checksum {:016x})",
        outcome.ticks_per_sec,
        outcome.requests_per_sec,
        outcome.latency.p50,
        outcome.latency.p95,
        outcome.latency.p99,
        outcome.latency.max,
        outcome.checksum
    );
    outcome
}

/// One step of the offered-rps staircase.
struct RampStep {
    offered_rps: f64,
    completed_ratio: f64,
}

/// Drives a fresh cluster at a fixed offered rate for each staircase
/// step. Arrivals are round-robin waterfilled cohorts; the knee is the
/// last offered rate whose measured window completed >= 95% of what it
/// admitted-or-shed (offered), i.e. the capacity of the fluid model on
/// this topology.
fn ramp(
    initial_rps: f64,
    increment_rps: f64,
    max_rps: f64,
    warmup_ticks: usize,
    measured_ticks: usize,
) -> (Vec<RampStep>, f64) {
    assert!(
        initial_rps > 0.0 && increment_rps > 0.0 && max_rps >= initial_rps,
        "ramp requires 0 < initial-rps <= max-rps and increment-rps > 0"
    );
    let dt = SimDuration::from_millis(100);
    let dt_secs = dt.as_secs();
    println!(
        "ramp: {initial_rps:.0} rps + {increment_rps:.0} rps steps to {max_rps:.0} rps, \
         {measured_ticks} measured ticks per step"
    );
    let mut steps = Vec::new();
    let mut knee = 0.0f64;
    let mut offered = initial_rps;
    while offered <= max_rps + 1e-9 {
        let (mut cluster, containers) = build_cluster(4096);
        let mut report = TickReport::default();
        let mut now = SimTime::ZERO;
        let members_per_tick = (offered * dt_secs).round().max(1.0) as u64;
        let admit = |cluster: &mut Cluster, now: SimTime| {
            // Waterfill the tick's members evenly across the grid; the
            // remainder goes one extra member each to the first few.
            let base = members_per_tick / containers.len() as u64;
            let extra = (members_per_tick % containers.len() as u64) as usize;
            for (i, &id) in containers.iter().enumerate() {
                let count = base + u64::from(i < extra);
                if count == 0 {
                    continue;
                }
                let service = cluster.container(id).expect("live").spec().service;
                let cohort = Cohort::new(service, now, count, 0.0013, MemMb(0.05), 0.006);
                let _ = cluster.admit_cohort(id, cohort, now);
            }
        };
        for _ in 0..warmup_ticks.max(1) {
            admit(&mut cluster, now);
            cluster.advance_into(now, dt, &mut report);
            now += dt;
        }
        let mut completed = 0u64;
        let mut checksum = 0u64;
        for _ in 0..measured_ticks {
            admit(&mut cluster, now);
            cluster.advance_into(now, dt, &mut report);
            completed += fold_completions(&report, &mut checksum);
            now += dt;
        }
        let offered_members = members_per_tick * measured_ticks as u64;
        let ratio = completed as f64 / offered_members as f64;
        println!(
            "  offered {:>8.0} rps -> completed ratio {:.3}{}",
            offered,
            ratio,
            if ratio >= 0.95 { "" } else { "  [saturated]" }
        );
        let saturated = ratio < 0.95;
        if !saturated {
            knee = offered;
        }
        steps.push(RampStep {
            offered_rps: offered,
            completed_ratio: ratio,
        });
        if saturated {
            break;
        }
        offered += increment_rps;
    }
    println!("  saturation knee: {knee:.0} rps");
    (steps, knee)
}

/// Outcome of one million-user drain run.
struct MillionOutcome {
    peak_in_flight: u64,
    drain_ticks: u64,
    requests_per_sec: f64,
    checksum: u64,
}

/// Fills 96 wide-queue containers with 11,000-member cohorts (1,056,000
/// concurrent in-flight members), then drains the cluster to empty,
/// digesting every completion.
fn million_users() -> MillionOutcome {
    println!(
        "million_users: {} containers x {} members",
        NODES * CONTAINERS_PER_NODE,
        MILLION_MEMBERS_PER_CONTAINER
    );
    let (mut cluster, containers) = build_cluster(16_384);
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut report = TickReport::default();

    for &id in &containers {
        let service = cluster.container(id).expect("live").spec().service;
        // Zero per-member memory keeps a million residents out of the
        // swap model; 120 s timeouts sit far beyond the drain time.
        let cohort = Cohort::new(
            service,
            now,
            MILLION_MEMBERS_PER_CONTAINER,
            0.002,
            MemMb(0.0),
            0.0,
        )
        .with_timeout(SimDuration::from_secs(120.0));
        cluster
            .admit_cohort(id, cohort, now)
            .expect("wide queue takes the cohort");
    }
    let peak_in_flight = cluster.total_in_flight();
    assert!(
        peak_in_flight >= MILLION_FLOOR,
        "expected >= {MILLION_FLOOR} concurrent members, got {peak_in_flight}"
    );

    let mut completed = 0u64;
    let mut checksum = 0u64;
    let mut drain_ticks = 0u64;
    let start = Instant::now();
    while cluster.total_in_flight() > 0 {
        cluster.advance_into(now, dt, &mut report);
        completed += fold_completions(&report, &mut checksum);
        now += dt;
        drain_ticks += 1;
        assert!(
            drain_ticks < 10_000,
            "million-user drain did not converge ({} still in flight)",
            cluster.total_in_flight()
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        completed, peak_in_flight,
        "every member must complete (timeouts would fail some)"
    );

    let outcome = MillionOutcome {
        peak_in_flight,
        drain_ticks,
        requests_per_sec: completed as f64 / elapsed,
        checksum,
    };
    println!(
        "  {:>7} members in flight, drained in {} ticks ({:.2}s wall, {:>12.0} req/s, checksum {:016x})",
        outcome.peak_in_flight,
        outcome.drain_ticks,
        elapsed,
        outcome.requests_per_sec,
        outcome.checksum
    );
    outcome
}

/// One point of the node-count scale sweep.
struct ScalePoint {
    nodes: usize,
    outcome: RunOutcome,
}

/// Drives a `nodes`-node cluster whose traffic is confined to the first
/// `footprint` nodes: cohort-mode admissions identical in shape to the
/// steady-state scenario land only on the footprint's containers, so
/// every node beyond it goes idle after warmup and parks. The active-set
/// engine must then keep per-tick cost proportional to the footprint,
/// not the cluster — that is what the sub-linearity gate measures.
fn scale_drive(
    nodes: usize,
    footprint: usize,
    warmup_ticks: usize,
    measured_ticks: usize,
) -> RunOutcome {
    assert!(
        footprint <= nodes,
        "traffic footprint cannot exceed the cluster"
    );
    let (mut cluster, containers) = build_cluster_n(nodes, 1024);
    let mut rng = SimRng::seed_from(0x5CA1E);
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut report = TickReport::default();

    let hot = &containers[..footprint * CONTAINERS_PER_NODE];
    let services: Vec<ServiceId> = hot
        .iter()
        .map(|&id| cluster.container(id).expect("live").spec().service)
        .collect();
    let admit = |cluster: &mut Cluster, rng: &mut SimRng, now: SimTime| {
        for (idx, &id) in hot.iter().enumerate() {
            let cpu_secs = rng.uniform_range(0.07, 0.10) / COHORT_MEMBERS as f64;
            let megabits = rng.uniform_range(0.2, 0.8) / COHORT_MEMBERS as f64;
            let cohort = Cohort::new(
                services[idx],
                now,
                COHORT_MEMBERS,
                cpu_secs,
                MemMb(8.0 / COHORT_MEMBERS as f64),
                megabits,
            );
            let _ = cluster.admit_cohort(id, cohort, now);
        }
    };

    for _ in 0..warmup_ticks.max(1) {
        admit(&mut cluster, &mut rng, now);
        cluster.advance_into(now, dt, &mut report);
        now += dt;
    }

    let mut completed = 0u64;
    let mut checksum = 0u64;
    let mut tick_ns: Vec<u64> = Vec::with_capacity(measured_ticks);
    let start = Instant::now();
    for _ in 0..measured_ticks {
        admit(&mut cluster, &mut rng, now);
        let t0 = Instant::now();
        cluster.advance_into(now, dt, &mut report);
        tick_ns.push(t0.elapsed().as_nanos() as u64);
        completed += fold_completions(&report, &mut checksum);
        now += dt;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let outcome = RunOutcome {
        ticks_per_sec: measured_ticks as f64 / elapsed,
        requests_per_sec: completed as f64 / elapsed,
        latency: Latency::from_ns(&mut tick_ns),
        checksum,
    };
    println!(
        "  nodes={:<6} {:>9.0} ticks/s {:>12.0} req/s  p50 {:>7.1}us p99 {:>7.1}us  (checksum {:016x})",
        nodes,
        outcome.ticks_per_sec,
        outcome.requests_per_sec,
        outcome.latency.p50,
        outcome.latency.p99,
        outcome.checksum
    );
    outcome
}

/// The scale sweep's traffic footprint: `active_fraction` of the 24-node
/// baseline, at least one node.
fn footprint_nodes(active_fraction: f64) -> usize {
    ((NODES as f64 * active_fraction).ceil() as usize).clamp(1, NODES)
}

/// Sweeps total cluster size at a fixed traffic footprint, measuring
/// ticks/s per point.
fn scale_sweep(node_counts: &[usize], active_fraction: f64, smoke: bool) -> Vec<ScalePoint> {
    let footprint = footprint_nodes(active_fraction);
    let (warmup_ticks, measured_ticks) = if smoke { (300, 3_000) } else { (500, 10_000) };
    println!(
        "scale sweep: footprint {footprint} of 24 nodes (active fraction {active_fraction}), \
         {measured_ticks} ticks per point"
    );
    node_counts
        .iter()
        .map(|&nodes| ScalePoint {
            nodes,
            outcome: scale_drive(nodes, footprint, warmup_ticks, measured_ticks),
        })
        .collect()
}

/// Sub-linearity gate: every swept cluster up to `SCALE_GATE_SPAN_NODES`
/// must tick within `SCALE_GATE_FLOOR` of the 24-node baseline rate at
/// the same traffic footprint. Larger points only have to complete.
fn scale_gate(points: &[ScalePoint]) {
    let base = points
        .iter()
        .find(|p| p.nodes == NODES)
        .expect("sweep includes the 24-node baseline");
    for p in points {
        if p.nodes <= NODES || p.nodes > SCALE_GATE_SPAN_NODES {
            continue;
        }
        let ratio = p.outcome.ticks_per_sec / base.outcome.ticks_per_sec;
        assert!(
            ratio >= SCALE_GATE_FLOOR,
            "scale gate: {} nodes tick at {ratio:.2}x the {NODES}-node rate, below the \
             {SCALE_GATE_FLOOR:.2}x floor — per-tick cost is no longer proportional to the \
             active set",
            p.nodes
        );
        println!(
            "  scale gate: {} nodes at {ratio:.2}x the {NODES}-node rate (floor {SCALE_GATE_FLOOR:.2}x)",
            p.nodes
        );
    }
}

/// Reads `--name value` or `--name=value` from the argument list.
fn flag_value(args: &[String], name: &str) -> Option<f64> {
    let prefix = format!("{name}=");
    for (i, arg) in args.iter().enumerate() {
        let raw = if let Some(v) = arg.strip_prefix(&prefix) {
            v
        } else if arg == name {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} requires a value"))
        } else {
            continue;
        };
        return Some(
            raw.parse()
                .unwrap_or_else(|_| panic!("{name}: {raw:?} is not a number")),
        );
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    let million_only = args.iter().any(|a| a == "--million-only");
    let initial_rps = flag_value(&args, "--initial-rps").unwrap_or(20_000.0);
    let increment_rps = flag_value(&args, "--increment-rps").unwrap_or(20_000.0);
    let max_rps = flag_value(&args, "--max-rps").unwrap_or(160_000.0);
    let nodes_flag = flag_value(&args, "--nodes").map(|v| v as usize);
    let active_fraction = flag_value(&args, "--active-fraction").unwrap_or(1.0);
    assert!(
        active_fraction > 0.0 && active_fraction <= 1.0,
        "--active-fraction must be in (0, 1]"
    );
    let (warmup_ticks, measured_ticks) = if smoke { (500, 5_000) } else { (2_000, 30_000) };
    let (ramp_warmup, ramp_measured) = if smoke { (30, 100) } else { (60, 200) };

    if million_only {
        million_users();
        println!("million-user smoke passed");
        return;
    }

    if let Some(nodes) = nodes_flag {
        // Scale-sweep-only mode: {24, N} at the fixed footprint, gated on
        // request, BENCH_tick.json untouched (the full run records it).
        assert!(nodes >= NODES, "--nodes must be >= {NODES}");
        let counts: Vec<usize> = if nodes == NODES {
            vec![NODES]
        } else {
            vec![NODES, nodes]
        };
        let points = scale_sweep(&counts, active_fraction, smoke);
        if gate {
            scale_gate(&points);
            println!("scale gates passed");
        }
        println!(
            "scale sweep done ({} point(s); BENCH_tick.json untouched)",
            points.len()
        );
        return;
    }

    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "tickbench: {NODES} nodes x {CONTAINERS_PER_NODE} containers, {SERVICES} services, \
         {measured_ticks} ticks, {hardware_threads} hardware thread(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    let request = drive("request mode", warmup_ticks, measured_ticks, false);
    let cohort = drive("cohort mode", warmup_ticks, measured_ticks, true);

    let speedup_vs_baseline = request.ticks_per_sec / BASELINE_TICKS_PER_SEC;
    let headline_rps = cohort.requests_per_sec;
    let cohort_vs_request = headline_rps / request.requests_per_sec;
    let cohort_vs_baseline = headline_rps / BASELINE_REQUESTS_PER_SEC;
    println!(
        "request mode: {speedup_vs_baseline:.2}x the pre-rework baseline \
         ({BASELINE_TICKS_PER_SEC:.0} ticks/s)"
    );
    println!(
        "cohort hot path: {headline_rps:.0} req/s = {cohort_vs_request:.1}x this machine's \
         request mode, {cohort_vs_baseline:.1}x the {BASELINE_REQUESTS_PER_SEC:.0} req/s baseline"
    );

    let (ramp_steps, knee_rps) = ramp(
        initial_rps,
        increment_rps,
        max_rps,
        ramp_warmup,
        ramp_measured,
    );
    let million = million_users();
    let scale_points = scale_sweep(&SCALE_SWEEP_NODES, active_fraction, smoke);

    if gate {
        scale_gate(&scale_points);
        assert!(
            cohort_vs_request >= COHORT_GATE_FACTOR,
            "cohort gate: {headline_rps:.0} req/s is only {cohort_vs_request:.2}x this \
             machine's request mode ({:.0} req/s); the columnar hot path must stay \
             >= {COHORT_GATE_FACTOR:.1}x",
            request.requests_per_sec
        );
        println!(
            "throughput gates passed (cohort {cohort_vs_request:.1}x >= {COHORT_GATE_FACTOR:.1}x)"
        );
    }

    let mode_json = |o: &RunOutcome| -> String {
        format!(
            "\"ticks_per_sec\": {:.1},\n    \"requests_per_sec\": {:.1},\n    \
             \"tick_latency_us\": {{ \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \"max\": {:.1} }},\n    \
             \"checksum\": \"{:016x}\"",
            o.ticks_per_sec,
            o.requests_per_sec,
            o.latency.p50,
            o.latency.p95,
            o.latency.p99,
            o.latency.max,
            o.checksum,
        )
    };
    let scale_base_tps = scale_points
        .iter()
        .find(|p| p.nodes == NODES)
        .map(|p| p.outcome.ticks_per_sec)
        .expect("sweep includes the 24-node baseline");
    let scale_json: Vec<String> = scale_points
        .iter()
        .map(|p| {
            format!(
                "      {{ \"nodes\": {}, \"ticks_per_sec\": {:.1}, \"requests_per_sec\": {:.1}, \"vs_24_nodes\": {:.3} }}",
                p.nodes,
                p.outcome.ticks_per_sec,
                p.outcome.requests_per_sec,
                p.outcome.ticks_per_sec / scale_base_tps
            )
        })
        .collect();
    let ramp_json: Vec<String> = ramp_steps
        .iter()
        .map(|s| {
            format!(
                "      {{ \"offered_rps\": {:.0}, \"completed_ratio\": {:.3} }}",
                s.offered_rps, s.completed_ratio
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scenario\": \"steady-state {NODES}x{CONTAINERS_PER_NODE} containers, {SERVICES} services\",\n  \
         \"measured_ticks\": {measured_ticks},\n  \
         \"baseline_ticks_per_sec\": {BASELINE_TICKS_PER_SEC:.1},\n  \
         \"baseline_requests_per_sec\": {BASELINE_REQUESTS_PER_SEC:.1},\n  \
         \"hardware_threads\": {hardware_threads},\n  \
         \"request_mode\": {{\n    {}\n  }},\n  \
         \"cohort_mode\": {{\n    \"members_per_cohort\": {COHORT_MEMBERS},\n    {}\n  }},\n  \
         \"ramp\": {{\n    \"initial_rps\": {initial_rps:.0},\n    \"increment_rps\": {increment_rps:.0},\n    \
         \"max_rps\": {max_rps:.0},\n    \"ticks_per_step\": {ramp_measured},\n    \
         \"saturation_knee_rps\": {knee_rps:.0},\n    \"steps\": [\n{}\n    ]\n  }},\n  \
         \"million_users\": {{\n    \"containers\": {},\n    \"members_per_container\": {MILLION_MEMBERS_PER_CONTAINER},\n    \
         \"peak_in_flight\": {},\n    \"drain_ticks\": {},\n    \"requests_per_sec\": {:.1},\n    \
         \"checksum\": \"{:016x}\"\n  }},\n  \
         \"scale_sweep\": {{\n    \"footprint_nodes\": {},\n    \"active_fraction\": {active_fraction:.2},\n    \
         \"sublinear_gate_floor\": {SCALE_GATE_FLOOR:.2},\n    \
         \"gate_span_nodes\": {SCALE_GATE_SPAN_NODES},\n    \
         \"points\": [\n{}\n    ]\n  }},\n  \
         \"requests_per_sec\": {headline_rps:.1},\n  \
         \"speedup_vs_baseline\": {speedup_vs_baseline:.2},\n  \
         \"speedup_requests_vs_baseline\": {cohort_vs_baseline:.2}\n}}\n",
        mode_json(&request),
        mode_json(&cohort),
        ramp_json.join(",\n"),
        NODES * CONTAINERS_PER_NODE,
        million.peak_in_flight,
        million.drain_ticks,
        million.requests_per_sec,
        million.checksum,
        footprint_nodes(active_fraction),
        scale_json.join(",\n"),
    );
    std::fs::write("BENCH_tick.json", json).expect("write BENCH_tick.json");
    println!("wrote BENCH_tick.json");
}
