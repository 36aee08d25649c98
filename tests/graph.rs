//! Battery for service dependency graphs: a three-tier scenario must
//! report per-entry-point end-to-end percentiles, journal per-hop spans
//! from which one logical request can be stitched back together by root
//! id, stay bit-identical across repeats and across snapshot/resume,
//! and — when the graph carries no edges — reproduce the classic
//! independent-services run byte-for-byte.

use std::fs;
use std::path::PathBuf;

use hyscale::cluster::{ClusterConfig, FaultKind, FaultPlan, ServiceId};
use hyscale::core::{
    AlgorithmKind, ResilienceConfig, RunReport, ScenarioBuilder, ScenarioConfig, SimulationDriver,
    SnapshotPolicy,
};
use hyscale::trace::{export, RunMeta, TraceSink};
use hyscale::workload::{GraphEdge, LoadPattern, RetryPolicy, ServiceGraph, ServiceProfile};

/// A three-tier fan-out: frontend 0 spawns two hops on aggregator 1 and
/// one on aggregator 2; both aggregators call backend 3.
fn three_tier() -> ServiceGraph {
    ServiceGraph::new(4)
        .with_edge(0, 1, 2)
        .with_edge(0, 2, 1)
        .with_edge_spec(GraphEdge::new(1, 3, 1).with_costs(0.5, 2.0))
        .with_edge(2, 3, 1)
}

fn graph_config(seed: u64, cohort: bool) -> ScenarioConfig {
    let load = if cohort {
        // Idle spans between bursts: roots still open from one burst
        // must resolve across the silence before the next.
        LoadPattern::Burst {
            base: 0.0,
            peak: 6.0,
            period_secs: 20.0,
            duty: 0.3,
        }
    } else {
        LoadPattern::Constant { rate: 3.0 }
    };
    ScenarioBuilder::new(if cohort {
        "graph-battery-cohort"
    } else {
        "graph-battery-events"
    })
    .nodes(4)
    .services(4, ServiceProfile::CpuBound, load)
    .duration_secs(120.0)
    .algorithm(AlgorithmKind::HyScaleCpu)
    .seed(seed)
    .cohort_arrivals(cohort)
    .graph(three_tier())
    .build()
}

/// Runs `config` with an enabled sink and returns the JSONL journal plus
/// the report.
fn journal(config: &ScenarioConfig, capacity: usize) -> (String, RunReport) {
    let mut sink = TraceSink::with_capacity(capacity);
    let report = SimulationDriver::run_traced(config, &mut sink).expect("scenario runs");
    assert_eq!(sink.dropped(), 0, "journal must not drop events");
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    (export::jsonl(&sink, &meta), report)
}

#[test]
fn three_tier_reports_per_entry_point_percentiles() {
    let report = SimulationDriver::run(&graph_config(7, false)).expect("scenario runs");
    // Only the frontend is an entry point; tiers 1-3 see derived traffic.
    assert_eq!(report.entry_points.len(), 1);
    let entry = &report.entry_points[0];
    assert_eq!(entry.service.index(), 0);
    assert!(entry.roots_started > 100, "{entry:?}");
    assert!(entry.roots_completed > 100, "{entry:?}");
    // Roots opened near the end of the run are legitimately still in
    // flight when the clock stops; everything else must have resolved.
    let resolved = entry.roots_completed + entry.roots_failed;
    assert!(
        resolved <= entry.roots_started && entry.roots_started - resolved <= 5,
        "too many unresolved roots: {entry:?}"
    );
    let p95 = entry.p95_secs();
    let p99 = entry.p99_secs();
    assert!(p95 > 0.0 && p99 >= p95, "p95 {p95}, p99 {p99}");
    // End-to-end latency spans at least three sequential tiers, so it
    // must exceed the frontend's own per-hop mean response time.
    assert!(
        entry.e2e_secs.mean() > report.requests.mean_response_secs(),
        "e2e mean {} vs per-hop mean {}",
        entry.e2e_secs.mean(),
        report.requests.mean_response_secs()
    );
    // Derived traffic actually hit the downstream tiers.
    for idx in 1..4u32 {
        let svc = &report.per_service[&ServiceId::new(idx)];
        assert!(svc.completed > 0, "tier {idx} saw no traffic");
    }
}

#[test]
fn one_request_stitches_from_spans_by_root_id() {
    let (journal, _) = journal(&graph_config(7, false), 1 << 17);
    // Pick the first journaled root and collect every span bearing it.
    let first_span = journal
        .lines()
        .find(|l| l.contains("\"ev\":\"span\""))
        .expect("graph run journals spans");
    let root_key = first_span
        .split("\"root\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("span carries a root id");
    let needle = format!("\"root\":{root_key},");
    let spans: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"ev\":\"span\"") && l.contains(&needle))
        .collect();
    let field = |line: &str, key: &str| -> u64 {
        line.split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("span missing {key}: {line}"))
    };
    // The three-tier graph moves 1 member through the frontend, 3
    // through the aggregators (fan-out 2 + 1), and 3 through the
    // backend. Admission may split a hop across containers (one span
    // each), so member counts — not span counts — are the invariant.
    for (expect, depth) in [(1, 0), (3, 1), (3, 2)] {
        let members: u64 = spans
            .iter()
            .filter(|l| field(l, "depth") == depth)
            .map(|l| field(l, "count"))
            .sum();
        assert_eq!(members, expect, "wrong member count at depth {depth}");
    }
    // Every hop of the root is attributed to the frontend entry point.
    assert!(spans.iter().all(|l| field(l, "entry") == 0));
    // Aggregator hops run on services 1 and 2, backend hops on 3.
    let services = |depth: u64| -> Vec<u64> {
        let mut s: Vec<u64> = spans
            .iter()
            .filter(|l| field(l, "depth") == depth)
            .map(|l| field(l, "service"))
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    assert_eq!(services(0), vec![0]);
    assert_eq!(services(1), vec![1, 2]);
    assert_eq!(services(2), vec![3]);
}

#[test]
fn graph_journal_is_byte_identical_across_repeats() {
    let (first, a) = journal(&graph_config(9, false), 1 << 17);
    let (again, b) = journal(&graph_config(9, false), 1 << 17);
    assert!(first.contains("\"ev\":\"span\""));
    assert_eq!(first, again, "graph journal diverged on repeat");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn cohort_graph_runs_are_deterministic_and_resolve_all_roots() {
    let (first, a) = journal(&graph_config(11, true), 1 << 17);
    let (again, b) = journal(&graph_config(11, true), 1 << 17);
    assert_eq!(first, again);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    let entry = &a.entry_points[0];
    assert!(entry.roots_started > 0);
    let resolved = entry.roots_completed + entry.roots_failed;
    assert!(
        resolved <= entry.roots_started && entry.roots_started - resolved <= 5,
        "too many unresolved roots: {entry:?}"
    );
    // Cohort batches record one e2e sample per member.
    assert_eq!(entry.e2e_secs.count() as u64, entry.members_completed);
}

#[test]
fn graph_run_resumes_bit_identically_from_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("hyscale-graphsnap-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");

    // Uninterrupted, snapshotting along the way.
    let mut config = graph_config(13, false);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 400,
        dir: dir.clone(),
        halt_after_first: false,
    });
    let full = SimulationDriver::run(&config).expect("full run");

    // Killed right after the first snapshot, mid-flight graph state and
    // all, then resumed from the file it wrote.
    let dir_cut = dir.join("cut");
    fs::create_dir_all(&dir_cut).expect("scratch dir");
    let mut config = graph_config(13, false);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 400,
        dir: dir_cut.clone(),
        halt_after_first: true,
    });
    SimulationDriver::run(&config).expect("halted run");
    let mut snaps: Vec<PathBuf> = fs::read_dir(&dir_cut)
        .expect("snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    let mut config = graph_config(13, false);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 400,
        dir: dir_cut,
        halt_after_first: false,
    });
    config.resume = Some(snaps.into_iter().next().expect("one snapshot"));
    let resumed = SimulationDriver::run(&config).expect("resumed run");

    assert_eq!(
        format!("{full:?}"),
        format!("{resumed:?}"),
        "resumed graph run diverges from the uninterrupted one"
    );
    assert!(full.state_digest.is_some());
    assert_eq!(full.state_digest, resumed.state_digest);
    let _ = fs::remove_dir_all(&dir);
}

/// The three-tier graph with the resilience layer live: a mid-run node
/// crash and an OOM-kill feed retryable failures into tight container
/// queues, while a 2 s root deadline (exactly 20 of the 100 ms ticks,
/// so deadline comparisons land on tick boundaries), a 20% retry
/// budget, and an admission watermark all engage. Every engine knob is
/// explicit so tests can toggle them independently.
fn resilient_graph_config(cohort: bool, active_set: bool) -> ScenarioConfig {
    let load = if cohort {
        LoadPattern::Burst {
            base: 0.0,
            peak: 6.0,
            period_secs: 20.0,
            duty: 0.3,
        }
    } else {
        LoadPattern::Constant { rate: 3.0 }
    };
    let mut config = ScenarioBuilder::new("graph-resilience")
        .nodes(4)
        .services(4, ServiceProfile::CpuBound, load)
        .duration_secs(120.0)
        .algorithm(AlgorithmKind::HyScaleCpu)
        .seed(17)
        .tick_millis(100)
        .cohort_arrivals(cohort)
        .cluster_config(ClusterConfig {
            active_set,
            ..ClusterConfig::default()
        })
        .graph(three_tier())
        .faults(
            FaultPlan::new()
                .with(
                    30.0,
                    FaultKind::NodeCrash {
                        node: 1,
                        down_secs: 20.0,
                    },
                )
                .with(60.0, FaultKind::OomKill { service: 3 }),
        )
        .resilience(
            // Jitter-free backoff: retry times are exact multiples of
            // 0.5 s past the failure, so deadline comparisons hit the
            // boundary case deterministically.
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(0.5, 4.0, 0.0))
                .with_root_budget_secs(2.0)
                .with_budget(20.0, 32.0)
                .with_shed_watermark(500),
        )
        .build();
    for spec in &mut config.services {
        spec.container = spec.container.clone().with_queue_cap(16);
    }
    config
}

#[test]
fn resilience_free_journal_carries_no_resilience_counters() {
    // A graph run with the layer off: graph counters appear, but no
    // retry/shed/goodput names and no resilience events — the journal
    // stays byte-identical to builds without the layer.
    let (plain, report) = journal(&graph_config(9, false), 1 << 17);
    assert!(plain.contains("graph.roots_completed"));
    assert_eq!(report.resilience, Default::default());
    for needle in [
        "retry.",
        "shed.",
        "goodput.",
        "wasted.",
        "\"ev\":\"retry\"",
        "\"ev\":\"shed\"",
        "\"ev\":\"budget_exhausted\"",
        "\"ev\":\"deadline_exceeded\"",
    ] {
        assert!(
            !plain.contains(needle),
            "resilience leaked into a resilience-free journal: {needle}"
        );
    }
    // A disabled layer must ignore its other knobs entirely: junk
    // budgets and watermarks produce a byte-identical journal.
    let mut junk = graph_config(9, false);
    junk.resilience.budget_pct = 50.0;
    junk.resilience.budget_floor = 8.0;
    junk.resilience.root_budget_secs = 1.0;
    junk.resilience.shed_watermark = 7;
    let (still_plain, _) = journal(&junk, 1 << 17);
    assert_eq!(
        plain, still_plain,
        "disabled resilience knobs perturbed the run"
    );
    // Positive control: an enabled layer does journal those counters
    // (proving the needles above test the real names).
    let (rich, report) = journal(&resilient_graph_config(false, true), 1 << 17);
    assert!(report.resilience.retries > 0, "{:?}", report.resilience);
    for needle in [
        "retry.attempts",
        "shed.roots",
        "goodput.members",
        "\"ev\":\"retry\"",
    ] {
        assert!(rich.contains(needle), "enabled journal missing {needle}");
    }
}

#[test]
fn deadline_ticks_are_identical_across_every_engine() {
    // The 2 s root deadline is exactly 20 ticks, so deadline and
    // backoff comparisons land on tick boundaries — where the active-set
    // and full-scan engines disagreeing by one tick would show up
    // immediately, in request and in cohort mode.
    for cohort in [false, true] {
        let base =
            SimulationDriver::run(&resilient_graph_config(cohort, true)).expect("scenario runs");
        assert!(base.resilience.retries > 0, "{:?}", base.resilience);
        let full_scan =
            SimulationDriver::run(&resilient_graph_config(cohort, false)).expect("scenario runs");
        assert_eq!(
            format!("{base:?}"),
            format!("{full_scan:?}"),
            "active-set off diverged (cohort mode: {cohort})"
        );
    }
}

#[test]
fn edge_free_graph_reproduces_the_classic_run_bit_for_bit() {
    let classic = |graph: Option<ServiceGraph>| {
        let mut builder = ScenarioBuilder::new("graph-degenerate")
            .nodes(3)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 4.0 },
            )
            .duration_secs(90.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(21);
        if let Some(g) = graph {
            builder = builder.graph(g);
        }
        SimulationDriver::run(&builder.build()).expect("scenario runs")
    };
    let plain = classic(None);
    let mut degenerate = classic(Some(ServiceGraph::new(2)));
    // With no edges every service is an entry point, no derived traffic
    // exists, and no extra RNG is drawn: everything the classic report
    // carries must match bit-for-bit. Only the entry-point stats — which
    // the classic run cannot produce at all — may differ.
    assert_eq!(degenerate.entry_points.len(), 2);
    assert_eq!(
        degenerate.entry_points[0].roots_completed + degenerate.entry_points[0].roots_failed,
        degenerate.entry_points[0].roots_started
    );
    degenerate.entry_points.clear();
    assert_eq!(
        format!("{plain:?}"),
        format!("{degenerate:?}"),
        "an edge-free graph perturbed the classic run"
    );
}
