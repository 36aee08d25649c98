//! Paper-scale scenario definitions for the Section VI experiments.
//!
//! The paper's setup: 24 nodes (5 dedicated to load balancers, so 19
//! workers host containers), 15 microservices, one hour per experiment,
//! averaged over 5 runs, Monitor period 5 s. [`Scale::full`] reproduces
//! that; [`Scale::quick`] and [`Scale::bench`] shrink the cluster and the
//! clock for CI and criterion runs while preserving the load-to-capacity
//! ratio (which is what the algorithms actually react to).

use hyscale_cluster::{FaultPlan, FaultPlanConfig, Mbps, MemMb, NodeSpec};
use hyscale_core::{
    AlgorithmKind, ControlPlaneConfig, ResilienceConfig, ScenarioBuilder, ScenarioConfig,
};
use hyscale_sim::SimRng;
use hyscale_workload::bitbrains::{trace_to_load_pattern, SyntheticTrace};
use hyscale_workload::{
    GraphEdge, LoadPattern, RetryPolicy, ServiceGraph, ServiceProfile, ServiceSpec,
};

/// The paper's five-run averaging protocol, as seeds.
pub const PAPER_SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

/// Which client-load shape an experiment uses (Sec. VI: "low-burst"
/// stable vs "high-burst" unstable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Burst {
    /// Stable, low-amplitude bursty traffic.
    Low,
    /// Unstable spiking traffic.
    High,
}

impl Burst {
    /// The label the paper's figures use.
    pub fn label(self) -> &'static str {
        match self {
            Burst::Low => "low-burst",
            Burst::High => "high-burst",
        }
    }
}

/// Experiment size: cluster, service count, duration, seeds.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Worker nodes (paper: 19 = 24 minus 5 LB nodes).
    pub nodes: usize,
    /// Number of microservices (paper: 15).
    pub services: usize,
    /// Simulated seconds per run (paper: 3600).
    pub duration_secs: f64,
    /// Seeds to average over (paper: 5 runs).
    pub seeds: Vec<u64>,
}

impl Scale {
    /// The paper's full experiment size.
    pub fn full() -> Self {
        Scale {
            nodes: 19,
            services: 15,
            duration_secs: 3600.0,
            seeds: PAPER_SEEDS.to_vec(),
        }
    }

    /// A minutes-scale variant for development and CI.
    pub fn quick() -> Self {
        Scale {
            nodes: 8,
            services: 6,
            duration_secs: 1200.0,
            seeds: vec![101, 202, 303],
        }
    }

    /// A seconds-scale variant for criterion benches.
    pub fn bench() -> Self {
        Scale {
            nodes: 4,
            services: 3,
            duration_secs: 300.0,
            seeds: vec![101],
        }
    }

    /// Total worker CPU capacity in cores (4-core paper nodes).
    pub fn capacity_cores(&self) -> f64 {
        self.nodes as f64 * 4.0
    }
}

/// Scales a base load pattern so that the experiment's *peak* demand sits
/// at `peak_fraction` of the cluster's CPU capacity — the knob that keeps
/// quick and full runs equally stressed. Peaks around 85% are what the
/// paper's runs look like: saturating once the co-location overhead of an
/// over-replicating algorithm eats the margin, comfortable for one that
/// scales precisely.
fn sized_load(
    scale: &Scale,
    burst: Burst,
    cpu_secs_per_req: f64,
    peak_fraction: f64,
) -> LoadPattern {
    let base = match burst {
        Burst::Low => LoadPattern::low_burst(),   // peak 10 req/s
        Burst::High => LoadPattern::high_burst(), // peak 20 req/s
    };
    let peak_demand_cores = base.peak_rate() * cpu_secs_per_req * scale.services as f64;
    let factor = peak_fraction * scale.capacity_cores() / peak_demand_cores;
    base.scaled(factor)
}

/// Per-service demand multipliers: the paper runs "15 different
/// microservices", not 15 identical ones. Sizes span 0.5x-2x the mean
/// (normalized to sum to `n`), so the largest services need more than one
/// node at peak (horizontal-scaling territory) while the smallest fit
/// comfortably inside one (vertical-scaling territory).
pub fn service_weights(n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![1.0; n];
    }
    let raw: Vec<f64> = (0..n)
        .map(|i| 0.5 + 1.5 * i as f64 / (n as f64 - 1.0))
        .collect();
    let sum: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w * n as f64 / sum).collect()
}

/// Figure 6: CPU-bound microservices.
///
/// Per-request demand 0.2 core-seconds; peak load sized to ~60% of raw
/// cluster CPU — comfortable for a precise scaler, tight once an
/// over-replicating algorithm's co-location overhead eats the margin.
pub fn cpu_bound(scale: &Scale, burst: Burst, algorithm: AlgorithmKind) -> ScenarioConfig {
    let cpu_per_req = 0.2;
    let load = sized_load(scale, burst, cpu_per_req, 0.60);
    let weights = service_weights(scale.services);
    let mut builder = ScenarioBuilder::new(format!("fig6-{}-{algorithm}", burst.label()))
        .nodes(scale.nodes)
        .duration_secs(scale.duration_secs)
        .algorithm(algorithm);
    for (i, weight) in weights.iter().enumerate() {
        let mut spec =
            ServiceSpec::synthetic(i as u32, ServiceProfile::CpuBound, load.scaled(*weight))
                // Responses carry ~0.5 Mb, so egress tracks request rate and
                // the network scaler has a correlated (if indirect) signal.
                .with_demands(cpu_per_req, MemMb(2.0), 0.5);
        // A CPU experiment: give containers ample memory so the only
        // scarce resource is CPU.
        spec.container = spec.container.clone().with_mem_limit(MemMb(512.0));
        spec.container.net_request = Mbps(10.0);
        builder = builder.service(spec);
    }
    builder.build()
}

/// Figure 7: mixed CPU+memory microservices.
///
/// Each in-flight request additionally holds 8 MB and each served req/s of throughput ~14 MB of working set, so queue buildup
/// during bursts overflows the 256 MB default limit unless an algorithm
/// raises it (HyScaleCPU+Mem) or incidentally adds replicas-with-memory
/// (Kubernetes) — the paper's Fig. 7 inversion.
pub fn mixed(scale: &Scale, burst: Burst, algorithm: AlgorithmKind) -> ScenarioConfig {
    let cpu_per_req = 0.12;
    let load = sized_load(scale, burst, cpu_per_req, 0.55);
    let weights = service_weights(scale.services);
    let mut builder = ScenarioBuilder::new(format!("fig7-{}-{algorithm}", burst.label()))
        .nodes(scale.nodes)
        .duration_secs(scale.duration_secs)
        .algorithm(algorithm);
    for (i, weight) in weights.iter().enumerate() {
        let mut spec =
            ServiceSpec::synthetic(i as u32, ServiceProfile::Mixed, load.scaled(*weight))
                .with_demands(cpu_per_req, MemMb(8.0), 0.2);
        // Mixed services carry a rate-proportional working set (caches,
        // session state): 14 MB per served req/s. A single replica serving
        // a whole service's peak blows past the 256 MB default limit; the
        // same rate split over Kubernetes' replicas stays under it. A
        // modest socket backlog keeps a swapping replica's resident set
        // bounded: overflow surfaces as fast connection failures (the
        // paper's failure class) rather than an unbounded swap spiral.
        spec.container = spec
            .container
            .clone()
            .with_mem_per_rps(MemMb(14.0))
            .with_queue_cap(64);
        builder = builder.service(spec);
    }
    builder.build()
}

/// Figure 8: network-bound microservices.
///
/// Every worker NIC is 250 Mb/s; each request pushes 8 Mb of egress and
/// costs only 0.02 core-seconds of CPU (the "moderate use of CPU caused
/// by networking system calls" that lets the CPU scalers limp along on
/// low-burst loads). Bursts saturate a single replica's transmit queues;
/// only the network scaler reads the right signal.
pub fn network(scale: &Scale, burst: Burst, algorithm: AlgorithmKind) -> ScenarioConfig {
    let megabits_per_req = 8.0;
    // One shared sizing for both bursts, anchored on the low-burst peak:
    // the average service peaks at ~38% of one NIC on the stable load
    // (every algorithm copes without scaling), while the high-burst
    // spikes reach twice that — past a single NIC for the larger
    // services, fixable only by replicating onto other machines' NICs.
    // The per-request CPU cost is tiny, so the CPU-driven scalers barely
    // see the overload.
    let nic = 250.0;
    let factor = 0.38 * nic / (10.0 * megabits_per_req);
    let base = match burst {
        Burst::Low => LoadPattern::low_burst(),
        Burst::High => LoadPattern::high_burst(),
    };
    let load = base.scaled(factor);

    let mut builder = ScenarioBuilder::new(format!("fig8-{}-{algorithm}", burst.label()))
        .nodes_with_spec(scale.nodes, NodeSpec::uniform_worker().with_nic(Mbps(nic)))
        .duration_secs(scale.duration_secs)
        .algorithm(algorithm);
    let weights = service_weights(scale.services);
    for (i, weight) in weights.iter().enumerate() {
        builder = builder.service(
            ServiceSpec::synthetic(i as u32, ServiceProfile::NetBound, load.scaled(*weight))
                .with_demands(0.01, MemMb(4.0), megabits_per_req),
        );
    }
    builder.build()
}

/// Chaos: the CPU-bound high-burst experiment under a seeded storm of
/// infrastructure faults — node crashes (with reboot), OOM-kills, NIC
/// degradations, and NodeManager stat outages.
///
/// The paper's robustness claim (availability ≥ 99.8%, Figs. 6–8) is
/// measured with the cluster intact; this scenario stresses the platform
/// side of that claim: the Monitor's roll call must notice dead replicas
/// and the recovery path must respawn them while the burst load is still
/// arriving. Reports uptime %, MTTR, and recovery counts per algorithm.
pub fn chaos(scale: &Scale, algorithm: AlgorithmKind) -> ScenarioConfig {
    let mut config = cpu_bound(scale, Burst::High, algorithm);
    config.name = format!("chaos-{algorithm}");
    let plan_cfg = FaultPlanConfig {
        horizon_secs: scale.duration_secs,
        nodes: scale.nodes,
        services: scale.services,
        node_crashes: (scale.nodes / 4).max(1),
        oom_kills: (scale.services / 2).max(1),
        nic_degradations: (scale.nodes / 6).max(1),
        stat_outages: (scale.nodes / 4).max(1),
        min_down_secs: scale.duration_secs * 0.02,
        max_down_secs: scale.duration_secs * 0.08,
    };
    // The fault storm is part of the experiment definition: fixed seed,
    // independent of the run seeds (the bitbrains trace does the same),
    // so every algorithm faces the identical sequence of disasters.
    config.faults = FaultPlan::random(&plan_cfg, &mut SimRng::seed_from(0xFA17));
    config
}

/// Chaos-control: the chaos experiment run through an *unreliable
/// control plane* — Node Manager reports are lost/delayed/duplicated and
/// scaling actuations fail, on top of the infrastructure fault storm.
///
/// Both arms run the control-plane layer (snapshot-mode balancer,
/// staleness vetoes, safe-mode quorum, actuation retries) so the only
/// difference between them is the degradation itself: the `degraded`
/// arm adds 5% report loss, 10% delay up to 2 periods, 2% duplication,
/// and 5% actuation failure; the healthy arm's link is perfect. The
/// `chaos_control` bench bin compares SLO violations and availability
/// across the two arms for all four algorithms.
pub fn chaos_control(scale: &Scale, algorithm: AlgorithmKind, degraded: bool) -> ScenarioConfig {
    let mut config = chaos(scale, algorithm);
    let arm = if degraded { "degraded" } else { "healthy" };
    config.name = format!("chaos-control-{arm}-{algorithm}");
    config.control_plane = if degraded {
        ControlPlaneConfig::degraded()
    } else {
        ControlPlaneConfig {
            enabled: true,
            ..ControlPlaneConfig::perfect()
        }
    };
    config
}

/// Graph: the CPU-bound low-burst experiment rewired as a three-tier
/// call graph (frontends → aggregators → backends).
///
/// Client load attaches only to the frontend tier; every other tier sees
/// purely derived traffic. Each frontend request fans out to two requests
/// on every aggregator (half the CPU cost — routing, not computing), and
/// each aggregator request issues one request per backend (a quarter of
/// the CPU but twice the egress — the data-heavy tier). The `graph`
/// bench bin reports per-entry-point end-to-end p95/p99 on top of the
/// usual per-hop metrics, which no independent-services scenario can
/// attribute.
pub fn graph(scale: &Scale, algorithm: AlgorithmKind) -> ScenarioConfig {
    let mut config = cpu_bound(scale, Burst::Low, algorithm);
    config.name = format!("graph-{algorithm}");
    let n = config.services.len();
    assert!(n >= 3, "the graph scenario needs at least three services");
    // Tier sizes: n/3 frontends, n/3 aggregators, the rest backends.
    let fronts = (n / 3).max(1);
    let mids = (n / 3).max(1);
    let mut g = ServiceGraph::new(n);
    for f in 0..fronts {
        for m in fronts..fronts + mids {
            g = g.with_edge_spec(GraphEdge::new(f, m, 2).with_costs(0.5, 1.0));
        }
    }
    for m in fronts..fronts + mids {
        for b in fronts + mids..n {
            g = g.with_edge_spec(GraphEdge::new(m, b, 1).with_costs(0.25, 2.0));
        }
    }
    config.graph = Some(g);
    config
}

/// Retry storm: the three-tier call graph under a seeded fault storm,
/// with per-hop retries enabled — in two arms that differ only in their
/// brakes.
///
/// Both arms retry queue aborts and infrastructure deaths with the same
/// exponential backoff. The *unbudgeted* arm retries with no brake at
/// all (no token budget, no deadline, no shedding): every burst of
/// failures multiplies into fresh load on the already-struggling tier,
/// so an ever-larger share of the work that does complete belongs to
/// roots that ultimately fail anyway — the goodput collapse. The
/// *budgeted* arm caps retries at 10% of completions per service,
/// bounds every root to a 30 s end-to-end deadline, and sheds new
/// client roots at the entry points once in-flight work passes a
/// capacity-proportional watermark — giving up a little edge
/// availability to keep the completed work useful.
///
/// Tight container queues (cap 24) turn overload into fast, retryable
/// queue aborts rather than long waits, and the chaos-style fault storm
/// supplies mid-flight infrastructure deaths; both failure kinds feed
/// the retry loop.
pub fn retry_storm(scale: &Scale, algorithm: AlgorithmKind, budgeted: bool) -> ScenarioConfig {
    let mut config = graph(scale, algorithm);
    let arm = if budgeted { "budgeted" } else { "unbudgeted" };
    config.name = format!("retry-storm-{arm}-{algorithm}");
    for spec in &mut config.services {
        // Push the client load past saturation at peak (the graph base
        // sizes peaks at 60% of capacity; 1.8x lands them at 108%) so
        // bursts already queue without faults and the crash windows
        // leave no spare capacity at all to absorb retries.
        spec.load = spec.load.scaled(1.8);
        spec.container = spec.container.clone().with_queue_cap(24);
    }
    let plan_cfg = FaultPlanConfig {
        horizon_secs: scale.duration_secs,
        nodes: scale.nodes,
        services: scale.services,
        // Harsher than `chaos`: a third of the nodes crash and stay
        // down long enough for the backlog (and the retry echo of it)
        // to build.
        node_crashes: (scale.nodes / 3).max(2),
        oom_kills: (scale.services / 2).max(1),
        nic_degradations: (scale.nodes / 6).max(1),
        stat_outages: (scale.nodes / 4).max(1),
        min_down_secs: scale.duration_secs * 0.05,
        max_down_secs: scale.duration_secs * 0.15,
    };
    // Fixed storm seed, independent of the run seeds: every algorithm
    // and both arms face the identical sequence of disasters.
    config.faults = FaultPlan::random(&plan_cfg, &mut SimRng::seed_from(0x570A));
    let policy = RetryPolicy::standard().with_max_attempts(5);
    config.resilience = if budgeted {
        ResilienceConfig::with_policy(policy)
            .with_root_budget_secs(30.0)
            .with_budget(10.0, 64.0)
            .with_shed_watermark((scale.capacity_cores() * 4.0) as u64)
    } else {
        ResilienceConfig::with_policy(policy)
    };
    config
}

/// Figures 9–10: the Bitbrains `Rnd` replay.
///
/// The synthetic GWA-T-12-like trace (see `hyscale-workload::bitbrains`)
/// provides per-service demand shapes; services are mixed CPU+memory, as
/// the paper observes the trace "exhibits the same behaviour as the
/// low-burst mix and high-burst mix workloads".
pub fn bitbrains(scale: &Scale, algorithm: AlgorithmKind) -> ScenarioConfig {
    let trace_cfg = SyntheticTrace {
        vms: scale.services * 4,
        duration_secs: scale.duration_secs,
        interval_secs: 15.0,
        ..SyntheticTrace::default()
    };
    // The trace itself is part of the experiment definition: fixed seed,
    // independent of the run seeds.
    let traces = trace_cfg.generate(&mut SimRng::seed_from(0xB17B));

    let cpu_per_req = 0.12;
    // A service at 100% trace CPU should drive roughly the same demand as
    // a fig-7 service at peak: rate_at_full_load chosen against capacity.
    let rate_at_full = 1.1 * scale.capacity_cores() / (cpu_per_req * scale.services as f64);

    let mut builder = ScenarioBuilder::new(format!("fig10-{algorithm}"))
        .nodes(scale.nodes)
        .duration_secs(scale.duration_secs)
        .algorithm(algorithm);
    for i in 0..scale.services {
        let slice: Vec<_> = traces.iter().skip(i).step_by(scale.services).collect();
        let len = slice.iter().map(|t| t.samples.len()).min().unwrap_or(0);
        let mean_cpu: Vec<f64> = (0..len)
            .map(|s| {
                slice
                    .iter()
                    .map(|t| t.samples[s].cpu_usage_pct)
                    .sum::<f64>()
                    / slice.len() as f64
            })
            .collect();
        let load = trace_to_load_pattern(&mean_cpu, trace_cfg.interval_secs, rate_at_full);
        let mut spec = ServiceSpec::synthetic(i as u32, ServiceProfile::Mixed, load).with_demands(
            cpu_per_req,
            MemMb(24.0),
            0.2,
        );
        spec.container = spec.container.clone().with_queue_cap(64);
        builder = builder.service(spec);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_shapes() {
        let full = Scale::full();
        assert_eq!(full.nodes, 19);
        assert_eq!(full.services, 15);
        assert_eq!(full.seeds.len(), 5);
        assert_eq!(full.capacity_cores(), 76.0);
        assert!(Scale::quick().duration_secs < full.duration_secs);
        assert!(Scale::bench().nodes < Scale::quick().nodes);
    }

    #[test]
    fn scenarios_validate() {
        let scale = Scale::bench();
        for kind in AlgorithmKind::ALL {
            for burst in [Burst::Low, Burst::High] {
                cpu_bound(&scale, burst, kind).validate().unwrap();
                mixed(&scale, burst, kind).validate().unwrap();
                network(&scale, burst, kind).validate().unwrap();
            }
            bitbrains(&scale, kind).validate().unwrap();
            graph(&scale, kind).validate().unwrap();
        }
    }

    #[test]
    fn graph_scenario_has_three_tiers() {
        let config = graph(&Scale::bench(), AlgorithmKind::HyScaleCpu);
        let g = config.graph.as_ref().expect("graph scenario sets a graph");
        assert_eq!(g.nodes(), config.services.len());
        // bench scale: 3 services => one per tier, chained 0 -> 1 -> 2.
        assert_eq!(g.entry_points(), vec![0]);
        assert!(!g.is_trivial());
        assert!(g.is_entry(0) && !g.is_entry(1) && !g.is_entry(2));
        // The quick scale (6 services) keeps a frontend tier of two.
        let wide = graph(&Scale::quick(), AlgorithmKind::HyScaleCpu);
        assert_eq!(wide.graph.as_ref().unwrap().entry_points(), vec![0, 1]);
    }

    #[test]
    fn load_sizing_tracks_capacity() {
        // The quick and full cpu-bound scenarios should put the same mean
        // demand fraction on their clusters.
        let frac = |scale: &Scale| {
            let config = cpu_bound(scale, Burst::Low, AlgorithmKind::Kubernetes);
            let mean_rate: f64 = config
                .services
                .iter()
                .map(|s| match &s.load {
                    LoadPattern::Wave {
                        base, amplitude, ..
                    } => base + amplitude / 2.0,
                    _ => panic!("expected wave"),
                })
                .sum();
            mean_rate * 0.2 / scale.capacity_cores()
        };
        let quick = frac(&Scale::quick());
        let full = frac(&Scale::full());
        assert!((quick - full).abs() < 1e-9, "quick {quick} vs full {full}");
        // Peak sized to 85% of capacity => mean of the wave (7/10 of
        // peak) sits at 59.5%.
        // Peak sized to 60% of capacity => wave mean (7/10 of peak) at 42%.
        assert!((quick - 0.42).abs() < 1e-9, "fraction {quick}");
    }

    #[test]
    fn service_weights_are_normalized_and_spread() {
        let w = service_weights(6);
        assert_eq!(w.len(), 6);
        let sum: f64 = w.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
        assert!(w[5] / w[0] > 3.0, "largest should be ~4x the smallest");
        assert_eq!(service_weights(1), vec![1.0]);
        assert!(service_weights(0).is_empty());
    }

    #[test]
    fn chaos_has_a_deterministic_nonempty_fault_plan() {
        let a = chaos(&Scale::bench(), AlgorithmKind::HyScaleCpu);
        let b = chaos(&Scale::bench(), AlgorithmKind::Kubernetes);
        assert!(!a.faults.is_empty());
        // Every algorithm faces the identical fault storm.
        assert_eq!(a.faults, b.faults);
        a.validate().unwrap();
        // Scale-proportional fault counts: bench (4 nodes, 3 services)
        // schedules 1 crash + 1 OOM + 1 NIC + 1 outage.
        assert_eq!(a.faults.len(), 4);
    }

    #[test]
    fn chaos_control_arms_differ_only_in_the_control_plane() {
        let scale = Scale::bench();
        let healthy = chaos_control(&scale, AlgorithmKind::HyScaleCpu, false);
        let degraded = chaos_control(&scale, AlgorithmKind::HyScaleCpu, true);
        healthy.validate().unwrap();
        degraded.validate().unwrap();
        assert!(healthy.control_plane.enabled);
        assert!(degraded.control_plane.enabled);
        assert_eq!(healthy.control_plane.loss_prob, 0.0);
        assert!(degraded.control_plane.loss_prob > 0.0);
        // Same fault storm underneath both arms.
        assert_eq!(healthy.faults, degraded.faults);
        assert!(healthy.name.contains("healthy"));
        assert!(degraded.name.contains("degraded"));
    }

    #[test]
    fn retry_storm_arms_differ_only_in_the_brakes() {
        let scale = Scale::bench();
        let loose = retry_storm(&scale, AlgorithmKind::HyScaleCpu, false);
        let tight = retry_storm(&scale, AlgorithmKind::HyScaleCpu, true);
        loose.validate().unwrap();
        tight.validate().unwrap();
        // Both arms retry with the same policy over the same storm...
        assert!(loose.resilience.enabled && tight.resilience.enabled);
        assert_eq!(
            loose.resilience.default_policy,
            tight.resilience.default_policy
        );
        assert_eq!(loose.faults, tight.faults);
        assert!(!loose.faults.is_empty());
        assert!(loose.graph.is_some());
        // ...but only the budgeted arm has brakes.
        assert!(!loose.resilience.has_retry_budget());
        assert!(!loose.resilience.has_root_budget());
        assert_eq!(loose.resilience.shed_watermark, 0);
        assert!(tight.resilience.has_retry_budget());
        assert!(tight.resilience.has_root_budget());
        assert!(tight.resilience.shed_watermark > 0);
        assert!(loose.name.contains("unbudgeted"));
        assert!(tight.name.contains("-budgeted"));
    }

    #[test]
    fn burst_labels() {
        assert_eq!(Burst::Low.label(), "low-burst");
        assert_eq!(Burst::High.label(), "high-burst");
    }

    #[test]
    fn bitbrains_trace_is_deterministic() {
        let a = bitbrains(&Scale::bench(), AlgorithmKind::HyScaleCpuMem);
        let b = bitbrains(&Scale::bench(), AlgorithmKind::HyScaleCpuMem);
        assert_eq!(a.services.len(), b.services.len());
        for (x, y) in a.services.iter().zip(&b.services) {
            assert_eq!(x.load, y.load);
        }
    }
}
