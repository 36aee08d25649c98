//! Determinism battery for the decision-trace journal: a seeded scenario
//! must serialize to a **byte-identical** JSONL journal across repeated
//! runs, tracing must not perturb the simulation itself, and the ring
//! buffer must degrade gracefully when a run outgrows it.

use hyscale::cluster::{FaultKind, FaultPlan};
use hyscale::core::{
    AlgorithmKind, ControlPlaneConfig, RunReport, ScenarioBuilder, ScenarioConfig, SimulationDriver,
};
use hyscale::trace::{export, RunMeta, TraceSink};
use hyscale::workload::{LoadPattern, ServiceProfile};

/// A small chaos scenario: every trace-emitting subsystem fires within
/// 120 simulated seconds (scaling, faults, recovery, balancer rejects).
fn chaos_config(seed: u64) -> ScenarioConfig {
    ScenarioBuilder::new("trace-chaos")
        .nodes(4)
        .services(
            2,
            ServiceProfile::CpuBound,
            LoadPattern::Constant { rate: 4.0 },
        )
        .duration_secs(120.0)
        .algorithm(AlgorithmKind::HyScaleCpu)
        .seed(seed)
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
        .build()
}

/// The chaos scenario run through a hot degraded control plane: loss,
/// delay, duplication, and actuation failure all cranked high enough
/// that every control-plane event kind fires within the run.
fn degraded_config(seed: u64) -> ScenarioConfig {
    let mut config = chaos_config(seed);
    config.name = "trace-chaos-degraded".to_string();
    let mut cp = ControlPlaneConfig::degraded();
    cp.loss_prob = 0.2;
    cp.delay_prob = 0.3;
    cp.duplicate_prob = 0.1;
    cp.actuation_failure_prob = 0.5;
    config.control_plane = cp;
    config
}

/// Runs `config` with an enabled sink of `capacity` and returns the JSONL
/// journal plus the report.
fn journal(config: &ScenarioConfig, capacity: usize) -> (String, RunReport) {
    let mut sink = TraceSink::with_capacity(capacity);
    let report = SimulationDriver::run_traced(config, &mut sink).expect("scenario runs");
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    (export::jsonl(&sink, &meta), report)
}

#[test]
fn journal_is_byte_identical_across_repeated_runs() {
    let (first, _) = journal(&chaos_config(11), 16_384);
    let (again, _) = journal(&chaos_config(11), 16_384);
    assert!(first.lines().count() > 50, "journal has substance");
    assert_eq!(first, again);
}

#[test]
fn different_seeds_produce_different_journals() {
    let (a, _) = journal(&chaos_config(1), 16_384);
    let (b, _) = journal(&chaos_config(2), 16_384);
    assert_ne!(a, b, "the seed must actually matter");
}

#[test]
fn csv_export_is_deterministic_too() {
    let run = |seed| {
        let config = chaos_config(seed);
        let mut sink = TraceSink::with_capacity(16_384);
        SimulationDriver::run_traced(&config, &mut sink).expect("scenario runs");
        export::csv(&sink)
    };
    assert_eq!(run(3), run(3));
    assert_ne!(run(3), run(4));
}

#[test]
fn chaos_journal_covers_the_whole_event_taxonomy() {
    let (journal, report) = journal(&chaos_config(9), 16_384);
    for needle in [
        "\"ev\":\"run_start\"",
        "\"ev\":\"evaluation\"",
        "\"ev\":\"decision\"",
        "\"ev\":\"pressure\"",
        "\"ev\":\"balancer\"",
        "\"ev\":\"fault\"",
        "\"ev\":\"replica_death\"",
        "\"ev\":\"counter\"",
        "\"fault\":\"node_crash\"",
        "\"fault\":\"oom_kill\"",
        "\"fault\":\"reboot\"",
    ] {
        assert!(journal.contains(needle), "missing {needle}");
    }
    // The counter tail agrees with the report the same run produced.
    let issued = format!(
        "\"name\":\"requests.issued\",\"value\":{}",
        report.requests.issued
    );
    assert!(journal.contains(&issued), "counter dump disagrees");
}

#[test]
fn degraded_journal_covers_the_control_plane_taxonomy() {
    let (journal, report) = journal(&degraded_config(9), 16_384);
    for needle in [
        "\"ev\":\"report_link\"",
        "\"link\":\"lost\"",
        "\"link\":\"late\"",
        "\"link\":\"duplicate\"",
        "\"ev\":\"actuation\"",
        "\"outcome\":\"failed\"",
    ] {
        assert!(journal.contains(needle), "missing {needle}");
    }
    assert!(report.control_plane.reports_lost > 0);
    assert!(report.control_plane.actuation_failures > 0);
    // The counter tail agrees with the report the same run produced.
    let lost = format!(
        "\"name\":\"controlplane.reports_lost\",\"value\":{}",
        report.control_plane.reports_lost
    );
    assert!(journal.contains(&lost), "counter dump disagrees");
}

#[test]
fn recovery_respawns_show_up_in_the_journal() {
    // No autoscaler: when the only replica's node crashes, the recovery
    // path is the sole way back, so its respawn must be journaled.
    let config = ScenarioBuilder::new("trace-recovery")
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
        .build();
    let (journal, report) = journal(&config, 16_384);
    assert!(report.total_respawns() >= 1, "{report:?}");
    assert!(journal.contains("\"ev\":\"recovery_respawn\""));
    assert!(journal.contains("\"ev\":\"replica_death\""));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let config = chaos_config(9);
    let untraced = SimulationDriver::run(&config).expect("scenario runs");
    let (_, traced) = journal(&config, 16_384);
    // Debug prints shortest-roundtrip floats, so string equality is bit
    // equality across every metric in the report.
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
}

#[test]
fn disabled_sink_stays_empty() {
    let mut sink = TraceSink::disabled();
    SimulationDriver::run_traced(&chaos_config(9), &mut sink).expect("scenario runs");
    assert!(sink.is_empty());
    assert_eq!(sink.total_emitted(), 0);
}

#[test]
fn ring_wraparound_keeps_newest_events_and_stays_deterministic() {
    let tiny = |seed| {
        let config = chaos_config(seed);
        let mut sink = TraceSink::with_capacity(64);
        SimulationDriver::run_traced(&config, &mut sink).expect("scenario runs");
        assert!(sink.dropped() > 0, "the run must outgrow 64 slots");
        assert_eq!(sink.len(), 64);
        let seqs: Vec<u64> = sink.events().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1), "oldest-first");
        // The newest events survive: the tail is the end-of-run counters.
        export::jsonl(&sink, &RunMeta::default())
    };
    let journal = tiny(9);
    assert!(journal.lines().count() == 65);
    assert!(journal.contains("\"name\":\"replica.deaths\""));
    // The control-plane counters are appended after the legacy dozen;
    // the ring must still be wide enough that the whole dump survives.
    assert!(journal.contains("\"name\":\"controlplane.stale_vetoes\""));
    assert_eq!(journal, tiny(9), "wraparound must not break determinism");
}
