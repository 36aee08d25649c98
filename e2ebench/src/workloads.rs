//! The benchmark's three workloads, built from the repository's own
//! scenario constructors.
//!
//! Every config is pinned to one tick worker (`parallelism = 1`), whatever
//! `HYSCALE_PARALLELISM` says: the tick-level worker pool is deliberately
//! not measured here (see the README).

use std::path::{Path, PathBuf};

use hyscale_bench::scenarios::{cpu_bound, mixed, network, retry_storm, Burst, Scale};
use hyscale_cluster::MemMb;
use hyscale_core::{
    AlgorithmKind, ControlPlaneConfig, ScenarioBuilder, ScenarioConfig, SnapshotPolicy,
};
use hyscale_workload::{LoadPattern, ServiceProfile, ServiceSpec};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Sec. VI high-burst matrix in request mode.
    PaperMix,
    /// Tens of millions of cheap members in cohort mode.
    CohortFlood,
    /// The three-tier graph under the budgeted retry storm.
    GraphStorm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::CohortFlood,
        Workload::GraphStorm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::CohortFlood => "cohort-flood",
            Workload::GraphStorm => "graph-storm",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the workload is: the measured size, or a seconds-scale
/// variant with the same shape for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A tiny variant for smoke tests.
    Tiny,
}

/// One scenario of a workload, labelled with its algorithm.
pub type Run = (AlgorithmKind, ScenarioConfig);

/// A workload's scenarios and the seeds each one runs under. A pass runs
/// every scenario once per seed and merges its seeds into one report, as
/// the paper averages its runs (`SimulationDriver::run_averaged`).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scenarios, seed unset.
    pub runs: Vec<Run>,
    /// Seeds derived from `--seed`.
    pub seeds: Vec<u64>,
}

impl Plan {
    /// Every scenario under every seed, seed applied: the single runs a
    /// pass is made of.
    pub fn seeded(&self) -> impl Iterator<Item = ScenarioConfig> + '_ {
        self.runs.iter().flat_map(move |(_, config)| {
            self.seeds.iter().map(move |&seed| {
                let mut config = config.clone();
                config.seed = seed;
                config
            })
        })
    }
}

/// Graph-storm: ticks between periodic checkpoints (300 simulated s).
const GRAPH_SNAPSHOT_EVERY: u64 = 3000;

/// Graph-storm: seeds per scenario. One storm run's root failure share
/// swings by a quarter from seed to seed; merging eight keeps a pass's
/// simulated figures within a few percent.
const GRAPH_SEEDS: u64 = 8;

/// Builds every scenario of `workload` and its seeds: `seed` itself, and
/// for graph-storm the seeds after it.
///
/// `scratch` is the directory graph-storm writes its checkpoints into
/// (one subdirectory per scenario); the other workloads ignore it.
pub fn build(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Plan {
    let mut runs = match workload {
        Workload::PaperMix => paper_mix(size),
        Workload::CohortFlood => vec![(AlgorithmKind::Kubernetes, cohort_flood(size))],
        Workload::GraphStorm => graph_storm(size, scratch),
    };
    for (_, config) in &mut runs {
        config.seed = seed;
        config.parallelism = 1;
    }
    let count = match (workload, size) {
        (Workload::GraphStorm, Size::Full) => GRAPH_SEEDS,
        (Workload::GraphStorm, Size::Tiny) => 2,
        _ => 1,
    };
    Plan {
        runs,
        seeds: (0..count).map(|k| seed.wrapping_add(k)).collect(),
    }
}

fn paper_mix(size: Size) -> Vec<Run> {
    let scale = match size {
        Size::Full => Scale::full(),
        Size::Tiny => Scale::bench(),
    };
    let mut runs = Vec::new();
    for kind in AlgorithmKind::ALL {
        runs.push((kind, cpu_bound(&scale, Burst::High, kind)));
        runs.push((kind, mixed(&scale, Burst::High, kind)));
        runs.push((kind, network(&scale, Burst::High, kind)));
    }
    runs
}

/// 24 nodes and 12 cheap CPU-bound services (0.5 ms of core time per
/// request) under the Kubernetes HPA with cohort arrivals.
///
/// Eleven services follow a wave between 500 and 7,500 req/s (mean 4,000,
/// period 300 s) with room to queue every member: the HPA lags each rising
/// edge, so backlogs build and drain every cycle and response times spread
/// over many ticks. The twelfth is a single-slot canary at 240 req/s whose
/// queue holds one member: each tick the waterfill admits one member of
/// its ~24-member cohort and refuses the rest. That keeps partial
/// admission and the queue-abort path in the measured loop at a steady
/// ~0.52% of members; with refusals left to the HPA's timing the failure
/// share swings by tens of percent from seed to seed.
fn cohort_flood(size: Size) -> ScenarioConfig {
    let (nodes, services, secs, rate) = match size {
        Size::Full => (24, 12, 600.0, 4000.0),
        Size::Tiny => (4, 3, 30.0, 400.0),
    };
    let mut builder = ScenarioBuilder::new("cohort-flood")
        .nodes(nodes)
        .duration_secs(secs)
        .algorithm(AlgorithmKind::Kubernetes)
        .cohort_arrivals(true);
    for i in 0..services {
        let canary = i + 1 == services;
        let load = if canary {
            LoadPattern::Constant { rate: rate * 0.06 }
        } else {
            LoadPattern::Wave {
                base: rate / 8.0,
                amplitude: rate * 1.75,
                period_secs: 300.0,
            }
        };
        let mut spec = ServiceSpec::synthetic(i, ServiceProfile::CpuBound, load).with_demands(
            0.0005,
            MemMb(0.01),
            0.001,
        );
        spec.container = spec
            .container
            .clone()
            .with_queue_cap(if canary { 1 } else { 1 << 20 });
        builder = builder.service(spec);
    }
    builder.build()
}

fn graph_storm(size: Size, scratch: &Path) -> Vec<Run> {
    let mut scale = match size {
        Size::Full => Scale::quick(),
        Size::Tiny => Scale::bench(),
    };
    scale.duration_secs = match size {
        Size::Full => 1800.0,
        Size::Tiny => 120.0,
    };
    let every = match size {
        Size::Full => GRAPH_SNAPSHOT_EVERY,
        Size::Tiny => 300,
    };
    [AlgorithmKind::Kubernetes, AlgorithmKind::HyScaleCpuMem]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let mut config = retry_storm(&scale, kind, true);
            config.name = format!("graph-storm-{kind}");
            config.control_plane = ControlPlaneConfig::degraded();
            config.snapshot = Some(SnapshotPolicy {
                every_ticks: every,
                dir: snapshot_dir(scratch, i),
                halt_after_first: false,
            });
            (kind, config)
        })
        .collect()
}

/// The checkpoint directory of the `index`-th graph-storm scenario.
pub fn snapshot_dir(scratch: &Path, index: usize) -> PathBuf {
    scratch.join(format!("snap-{index}"))
}

/// Ticks in one run of `config`.
pub fn ticks(config: &ScenarioConfig) -> u64 {
    config.duration.as_micros() / config.tick.as_micros().max(1)
}

/// The same scenario cut down to one tick: what a run costs before its
/// first tick (config validation, cluster setup, initial placement,
/// Monitor/balancer/fault-injector construction) plus one tick.
pub fn setup_only(config: &ScenarioConfig) -> ScenarioConfig {
    let mut config = config.clone();
    config.duration = config.tick;
    config.snapshot = None;
    config.resume = None;
    config
}
