//! Differential resume-equivalence battery for the snapshot/restore
//! subsystem: a run interrupted at a snapshot boundary and resumed from
//! the file it left behind must be **bit-identical** to the same run
//! left uninterrupted — same report, same state digest, and a decision
//! journal that stitches together seamlessly. Plus round-trip property
//! tests at the cluster level and typed-error regressions for corrupted
//! snapshot files.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

use hyscale::cluster::{
    Cluster, ClusterConfig, Cohort, ContainerId, ContainerSpec, FaultKind, FaultPlan, MemMb,
    NodeSpec, Request, ServiceId,
};
use hyscale::core::{
    AlgorithmKind, ControlPlaneConfig, CoreError, ResilienceConfig, RunReport, ScenarioBuilder,
    ScenarioConfig, SimulationDriver, SnapshotPolicy,
};
use hyscale::sim::{
    SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError, SNAPSHOT_VERSION,
};
use hyscale::trace::{export, RunMeta, TraceSink};
use hyscale::workload::{LoadPattern, RetryPolicy, ServiceGraph, ServiceProfile, ServiceSpec};

/// Fresh scratch directory under the system temp dir; unique per test
/// case so parallel test threads never collide.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyscale-snaptest-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The lowest-tick `.snap` file in `dir` (time-warp runs can overshoot
/// the nominal boundary, so the exact tick is not known a priori).
fn first_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir)
        .expect("snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    snaps
        .into_iter()
        .next()
        .expect("at least one snapshot file")
}

/// A compact chaos scenario: faults, recovery, breaker trips, and a hot
/// degraded control plane all fire inside 60 simulated seconds, so the
/// snapshot at tick 250 lands mid-churn with live fault and retry state.
fn battery_config(kind: AlgorithmKind, cohort_warp: bool, parallelism: usize) -> ScenarioConfig {
    let load = if cohort_warp {
        // Zero base load leaves genuinely idle spans between bursts, so
        // the time-warp fast path actually fires in this mode.
        LoadPattern::Burst {
            base: 0.0,
            peak: 8.0,
            period_secs: 20.0,
            duty: 0.3,
        }
    } else {
        LoadPattern::Constant { rate: 3.0 }
    };
    let mut cp = ControlPlaneConfig::degraded();
    cp.loss_prob = 0.2;
    cp.delay_prob = 0.3;
    cp.duplicate_prob = 0.1;
    cp.actuation_failure_prob = 0.4;
    ScenarioBuilder::new(if cohort_warp {
        "snap-battery-cohort-warp"
    } else {
        "snap-battery-events"
    })
    .nodes(3)
    .services(2, ServiceProfile::CpuBound, load)
    .duration_secs(60.0)
    .algorithm(kind)
    .seed(4242)
    .parallelism(parallelism)
    .cohort_arrivals(cohort_warp)
    .time_warp(cohort_warp)
    .faults(
        FaultPlan::new()
            .with(
                12.0,
                FaultKind::NodeCrash {
                    node: 0,
                    down_secs: 10.0,
                },
            )
            .with(20.0, FaultKind::OomKill { service: 1 })
            .with(
                22.0,
                FaultKind::NicDegrade {
                    node: 1,
                    factor: 0.2,
                    duration_secs: 15.0,
                },
            )
            .with(
                28.0,
                FaultKind::StatOutage {
                    node: 2,
                    duration_secs: 10.0,
                },
            ),
    )
    .control_plane(cp)
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

/// Everything after the meta header line. The header carries event
/// totals, which legitimately differ between a partial and a full run;
/// the event lines themselves must stitch byte-for-byte.
fn event_lines(journal: &str) -> &str {
    let first_newline = journal.find('\n').expect("journal has a header line");
    &journal[first_newline + 1..]
}

/// The differential core: run uninterrupted, run again halting at the
/// first snapshot, resume from the file it wrote, and demand the two
/// histories are indistinguishable.
fn assert_resume_equivalence(
    kind: AlgorithmKind,
    cohort_warp: bool,
    cut_workers: usize,
    resume_workers: usize,
) {
    let mode = if cohort_warp { "cw" } else { "ev" };
    let tag = format!("{}-{mode}-w{cut_workers}x{resume_workers}", kind.label());
    let dir_full = scratch_dir(&format!("{tag}-full"));
    let dir_cut = scratch_dir(&format!("{tag}-cut"));

    // Uninterrupted run, snapshotting along the way (snapshotting itself
    // must not perturb the simulation).
    let mut config = battery_config(kind, cohort_warp, cut_workers);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 250,
        dir: dir_full.clone(),
        halt_after_first: false,
    });
    let (journal_full, report_full) = journal(&config, 16_384);

    // The same run, killed right after the first snapshot is written...
    let mut config = battery_config(kind, cohort_warp, cut_workers);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 250,
        dir: dir_cut.clone(),
        halt_after_first: true,
    });
    let (journal_cut, partial) = journal(&config, 16_384);
    assert!(
        partial.state_digest.is_none(),
        "{tag}: a halted run must not claim a final digest"
    );
    let snap = first_snapshot(&dir_cut);

    // ...then resumed from the file it left behind, possibly at a
    // different worker count.
    let mut config = battery_config(kind, cohort_warp, resume_workers);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 250,
        dir: dir_cut.clone(),
        halt_after_first: false,
    });
    config.resume = Some(snap);
    let (journal_resumed, report_resumed) = journal(&config, 16_384);

    assert_eq!(
        format!("{report_full:?}"),
        format!("{report_resumed:?}"),
        "{tag}: resumed report diverges from the uninterrupted run"
    );
    assert!(
        report_full.state_digest.is_some(),
        "{tag}: snapshotting runs must report a state digest"
    );
    assert_eq!(
        report_full.state_digest, report_resumed.state_digest,
        "{tag}: end-of-run state digests diverge"
    );
    let stitched = format!(
        "{}{}",
        event_lines(&journal_cut),
        event_lines(&journal_resumed)
    );
    assert_eq!(
        event_lines(&journal_full),
        stitched,
        "{tag}: partial + resumed journals do not stitch into the full journal"
    );
    assert!(
        journal_cut.contains("\"ev\":\"snapshot\""),
        "{tag}: the snapshot itself must appear in the journal"
    );

    let _ = fs::remove_dir_all(&dir_full);
    let _ = fs::remove_dir_all(&dir_cut);
}

fn battery(kind: AlgorithmKind, cohort_warp: bool) {
    for workers in [1usize, 2, 4] {
        assert_resume_equivalence(kind, cohort_warp, workers, workers);
    }
}

#[test]
fn resume_equivalence_kubernetes_event_mode() {
    battery(AlgorithmKind::Kubernetes, false);
}

#[test]
fn resume_equivalence_network_event_mode() {
    battery(AlgorithmKind::Network, false);
}

#[test]
fn resume_equivalence_hyscale_cpu_event_mode() {
    battery(AlgorithmKind::HyScaleCpu, false);
}

#[test]
fn resume_equivalence_hyscale_cpu_mem_event_mode() {
    battery(AlgorithmKind::HyScaleCpuMem, false);
}

#[test]
fn resume_equivalence_kubernetes_cohort_warp() {
    battery(AlgorithmKind::Kubernetes, true);
}

#[test]
fn resume_equivalence_network_cohort_warp() {
    battery(AlgorithmKind::Network, true);
}

#[test]
fn resume_equivalence_hyscale_cpu_cohort_warp() {
    battery(AlgorithmKind::HyScaleCpu, true);
}

#[test]
fn resume_equivalence_hyscale_cpu_mem_cohort_warp() {
    battery(AlgorithmKind::HyScaleCpuMem, true);
}

/// The resilience-enabled cell of the battery: a three-tier graph with
/// retries, deadlines, budgets, and shedding all live, and a node crash
/// at 12 s feeding retryable failures through tight queues. The
/// snapshot lands at tick 130 (13 s) — one second into the crash, with
/// retries sitting in backoff, budget tokens spent, and deadlines
/// pending — all of which must round-trip bit-exactly.
fn resilience_battery_config(parallelism: usize) -> ScenarioConfig {
    let mut config = ScenarioBuilder::new("snap-battery-resilience")
        .nodes(3)
        .services(
            3,
            ServiceProfile::CpuBound,
            LoadPattern::Constant { rate: 3.0 },
        )
        .duration_secs(60.0)
        .algorithm(AlgorithmKind::HyScaleCpu)
        .seed(4242)
        .parallelism(parallelism)
        .graph(ServiceGraph::new(3).with_edge(0, 1, 2).with_edge(1, 2, 1))
        .faults(
            FaultPlan::new()
                .with(
                    12.0,
                    FaultKind::NodeCrash {
                        node: 0,
                        down_secs: 15.0,
                    },
                )
                .with(20.0, FaultKind::OomKill { service: 1 }),
        )
        .resilience(
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.1))
                .with_root_budget_secs(20.0)
                .with_budget(25.0, 64.0)
                .with_shed_watermark(400),
        )
        .build();
    for spec in &mut config.services {
        spec.container = spec.container.clone().with_queue_cap(16);
    }
    config
}

#[test]
fn resume_equivalence_with_live_resilience_state() {
    let dir_full = scratch_dir("resilience-full");
    let dir_cut = scratch_dir("resilience-cut");

    let mut config = resilience_battery_config(2);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 130,
        dir: dir_full.clone(),
        halt_after_first: false,
    });
    let (journal_full, report_full) = journal(&config, 16_384);
    assert!(
        report_full.resilience.retries > 0,
        "the storm must trigger retries: {:?}",
        report_full.resilience
    );

    let mut config = resilience_battery_config(2);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 130,
        dir: dir_cut.clone(),
        halt_after_first: true,
    });
    let (journal_cut, _) = journal(&config, 16_384);
    let snap = first_snapshot(&dir_cut);

    // Resume at a different worker count, mid-backoff.
    let mut config = resilience_battery_config(4);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 130,
        dir: dir_cut.clone(),
        halt_after_first: false,
    });
    config.resume = Some(snap);
    let (journal_resumed, report_resumed) = journal(&config, 16_384);

    assert_eq!(
        format!("{report_full:?}"),
        format!("{report_resumed:?}"),
        "resumed resilience run diverges from the uninterrupted one"
    );
    assert_eq!(report_full.state_digest, report_resumed.state_digest);
    assert_eq!(
        event_lines(&journal_full),
        format!(
            "{}{}",
            event_lines(&journal_cut),
            event_lines(&journal_resumed)
        ),
        "partial + resumed journals do not stitch into the full journal"
    );
    let _ = fs::remove_dir_all(&dir_full);
    let _ = fs::remove_dir_all(&dir_cut);
}

#[test]
fn resume_across_different_worker_counts() {
    // A snapshot taken under a serial run must resume bit-identically
    // under a parallel one (and vice versa): worker count is excluded
    // from the scenario digest by design.
    assert_resume_equivalence(AlgorithmKind::HyScaleCpu, false, 1, 4);
    assert_resume_equivalence(AlgorithmKind::HyScaleCpuMem, false, 4, 1);
}

#[test]
fn snapshotting_does_not_perturb_the_run() {
    let dir = scratch_dir("no-perturb");
    let plain = SimulationDriver::run(&battery_config(AlgorithmKind::HyScaleCpu, false, 2))
        .expect("plain run");
    let mut config = battery_config(AlgorithmKind::HyScaleCpu, false, 2);
    config.snapshot = Some(SnapshotPolicy {
        every_ticks: 250,
        dir: dir.clone(),
        halt_after_first: false,
    });
    let mut snapped = SimulationDriver::run(&config).expect("snapshotting run");
    assert!(plain.state_digest.is_none() && snapped.state_digest.is_some());
    snapped.state_digest = None;
    assert_eq!(
        format!("{plain:?}"),
        format!("{snapped:?}"),
        "writing snapshots changed the simulation outcome"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Checkpoint size and completed members of a cheap cohort-mode run on
/// fixed replicas, halted at its first snapshot (tick 200).
fn cohort_checkpoint(rate: f64, tag: &str) -> (u64, u64) {
    let dir = scratch_dir(tag);
    let mut builder = ScenarioBuilder::new("snap-size")
        .nodes(2)
        .duration_secs(30.0)
        .algorithm(AlgorithmKind::None)
        .initial_replicas(2)
        .seed(11)
        .cohort_arrivals(true)
        .snapshot_every(200, &dir)
        .snapshot_halt(true);
    for i in 0..2 {
        let load = LoadPattern::Constant { rate };
        let spec = ServiceSpec::synthetic(i, ServiceProfile::CpuBound, load).with_demands(
            0.0005,
            MemMb(0.01),
            0.001,
        );
        builder = builder.service(spec);
    }
    let report = builder.run().expect("scenario runs");
    let bytes = fs::metadata(first_snapshot(&dir)).expect("snapshot").len();
    let _ = fs::remove_dir_all(&dir);
    (bytes, report.requests.completed)
}

#[test]
fn checkpoint_size_does_not_grow_with_member_count() {
    let (base_bytes, base_completed) = cohort_checkpoint(100.0, "size-1x");
    let (flood_bytes, flood_completed) = cohort_checkpoint(800.0, "size-8x");
    assert!(
        flood_completed > 5 * base_completed,
        "8x the rate must complete over 5x the members: {flood_completed} vs {base_completed}"
    );
    assert!(
        flood_bytes < 2 * base_bytes,
        "checkpoint grew with members: {flood_bytes} vs {base_bytes} bytes"
    );
}

// ---------------------------------------------------------------------
// Cluster-level round-trip property test
// ---------------------------------------------------------------------

/// One tick's worth of churn, drawn as pure data so the same ops can be
/// replayed against two clusters in lockstep.
#[derive(Debug, Clone)]
enum ChurnOp {
    Start {
        node_choice: usize,
        service: u32,
    },
    Remove {
        container_choice: usize,
    },
    AdmitOne {
        container_choice: usize,
        cpu_secs: f64,
    },
    AdmitCohort {
        container_choice: usize,
        count: u64,
    },
    Idle,
}

fn draw_op(rng: &mut SimRng) -> ChurnOp {
    match rng.uniform_usize(10) {
        0 | 1 => ChurnOp::Start {
            node_choice: rng.uniform_usize(8),
            service: rng.uniform_usize(2) as u32,
        },
        2 => ChurnOp::Remove {
            container_choice: rng.uniform_usize(16),
        },
        3..=5 => ChurnOp::AdmitOne {
            container_choice: rng.uniform_usize(16),
            cpu_secs: rng.uniform_range(0.01, 0.2),
        },
        6..=8 => ChurnOp::AdmitCohort {
            container_choice: rng.uniform_usize(16),
            count: 1 + rng.uniform_usize(5) as u64,
        },
        _ => ChurnOp::Idle,
    }
}

/// Bookkeeping for one cluster being churned: conservation counters plus
/// every id ever issued (to prove allocators never reissue after a
/// round-trip).
struct Ledger {
    containers: Vec<ContainerId>,
    issued: u64,
    settled: u64,
    container_ids_seen: HashSet<u32>,
    max_request_id: Option<u64>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            containers: Vec::new(),
            issued: 0,
            settled: 0,
            container_ids_seen: HashSet::new(),
            max_request_id: None,
        }
    }

    fn note_request_id(&mut self, first: u64, count: u64) {
        if let Some(prev) = self.max_request_id {
            assert!(
                first > prev,
                "request id allocator went backwards after round-trip"
            );
        }
        self.max_request_id = Some(first + count - 1);
    }
}

/// Applies one op + one tick advance, updating the ledger. Returns a
/// digest-ish summary of what happened so twin clusters can be compared.
fn apply_op(cluster: &mut Cluster, ledger: &mut Ledger, op: &ChurnOp, now: SimTime) -> String {
    let mut outcome = String::new();
    match op {
        ChurnOp::Start {
            node_choice,
            service,
        } => {
            let nodes: Vec<_> = cluster.nodes().map(|n| n.id()).collect();
            let node = nodes[node_choice % nodes.len()];
            let spec = ContainerSpec::new(ServiceId::new(*service))
                .with_startup_secs(0.0)
                .with_queue_cap(64)
                .with_mem_limit(MemMb(2048.0));
            if let Ok(id) = cluster.start_container(node, spec, now) {
                assert!(
                    ledger.container_ids_seen.insert(id.index()),
                    "container id {id} was reissued"
                );
                ledger.containers.push(id);
                outcome.push_str(&format!("start:{id};"));
            }
        }
        ChurnOp::Remove { container_choice } => {
            if !ledger.containers.is_empty() {
                let id = ledger.containers[container_choice % ledger.containers.len()];
                if let Ok(aborted) = cluster.remove_container(id, now) {
                    let members: u64 = aborted.iter().map(|f| f.count).sum();
                    ledger.settled += members;
                    outcome.push_str(&format!("remove:{id}:{members};"));
                }
            }
        }
        ChurnOp::AdmitOne {
            container_choice,
            cpu_secs,
        } => {
            if !ledger.containers.is_empty() {
                let id = ledger.containers[container_choice % ledger.containers.len()];
                let request = Request::new(ServiceId::new(0), now, *cpu_secs, MemMb(16.0), 1.0);
                if let Ok(req) = cluster.admit_request(id, request, now) {
                    ledger.issued += 1;
                    ledger.note_request_id(req.index(), 1);
                    outcome.push_str(&format!("admit:{req};"));
                }
            }
        }
        ChurnOp::AdmitCohort {
            container_choice,
            count,
        } => {
            if !ledger.containers.is_empty() {
                let id = ledger.containers[container_choice % ledger.containers.len()];
                let cohort = Cohort::new(ServiceId::new(0), now, *count, 0.02, MemMb(8.0), 0.5);
                if let Ok(req) = cluster.admit_cohort(id, cohort, now) {
                    ledger.issued += *count;
                    ledger.note_request_id(req.index(), *count);
                    outcome.push_str(&format!("cohort:{req}x{count};"));
                }
            }
        }
        ChurnOp::Idle => {}
    }
    let report = cluster.advance(now, SimDuration::from_millis(100));
    let completed: u64 = report.completed.iter().map(|c| c.count).sum();
    let failed: u64 = report.failed.iter().map(|f| f.count).sum();
    ledger.settled += completed + failed;
    outcome.push_str(&format!("done:{completed}+{failed}"));

    // Member conservation must hold on every tick.
    assert_eq!(
        ledger.issued,
        ledger.settled + cluster.total_in_flight(),
        "member conservation violated (issued != settled + in-flight)"
    );
    outcome
}

#[test]
fn cluster_round_trip_mid_churn_conserves_members_and_ids() {
    let mut meta_rng = SimRng::seed_from(0x51AB);
    for _case in 0..6 {
        let seed = meta_rng.next_u64();
        let snap_tick = 20 + meta_rng.uniform_usize(100) as u64;

        let mut rng = SimRng::seed_from(seed);
        let mut cluster = Cluster::new(ClusterConfig::default());
        for _ in 0..3 {
            cluster.add_node(NodeSpec::uniform_worker());
        }
        let mut ledger = Ledger::new();
        let mut twin: Option<(Cluster, Ledger)> = None;

        for tick in 0..200u64 {
            let now = SimTime::from_micros(tick * 100_000);
            let op = draw_op(&mut rng);
            let outcome = apply_op(&mut cluster, &mut ledger, &op, now);

            if let Some((other, other_ledger)) = twin.as_mut() {
                // Post-restore, the twin must shadow the original exactly:
                // same admissions, same completions, same in-flight mass.
                let twin_outcome = apply_op(other, other_ledger, &op, now);
                assert_eq!(outcome, twin_outcome, "twin diverged after round-trip");
                assert_eq!(cluster.total_in_flight(), other.total_in_flight());
            }

            if tick == snap_tick {
                // Snapshots require all lazy idle ticks replayed first.
                cluster.flush_pending();
                let mut w = SnapWriter::new();
                cluster.snapshot_write(&mut w);
                let bytes = w.finish();
                let mut fresh = Cluster::new(ClusterConfig::default());
                let mut r = SnapReader::open(&bytes).expect("snapshot parses");
                fresh.snapshot_restore(&mut r).expect("snapshot restores");
                r.expect_done().expect("snapshot fully consumed");

                // The restored cluster starts from the original's books:
                // same conservation state, same id high-water marks.
                let twin_ledger = Ledger {
                    containers: ledger.containers.clone(),
                    issued: ledger.issued,
                    settled: ledger.settled,
                    container_ids_seen: ledger.container_ids_seen.clone(),
                    max_request_id: ledger.max_request_id,
                };
                assert_eq!(
                    twin_ledger.issued,
                    twin_ledger.settled + fresh.total_in_flight(),
                    "restored cluster broke member conservation"
                );
                twin = Some((fresh, twin_ledger));
            }
        }
        assert!(twin.is_some(), "snapshot tick must fall inside the run");
    }
}

// ---------------------------------------------------------------------
// Corrupted / mismatched snapshot files -> typed errors
// ---------------------------------------------------------------------

fn tiny_config(dir: &Path, seed: u64) -> ScenarioConfig {
    ScenarioBuilder::new("snap-tiny")
        .nodes(2)
        .services(
            1,
            ServiceProfile::CpuBound,
            LoadPattern::Constant { rate: 2.0 },
        )
        .duration_secs(20.0)
        .algorithm(AlgorithmKind::Kubernetes)
        .seed(seed)
        .snapshot_every(100, dir)
        .build()
}

/// Writes one snapshot file and returns its bytes + path.
fn make_snapshot(dir: &Path) -> (PathBuf, Vec<u8>) {
    let mut config = tiny_config(dir, 7);
    config.snapshot.as_mut().unwrap().halt_after_first = true;
    SimulationDriver::run(&config).expect("snapshot-producing run");
    let path = first_snapshot(dir);
    let bytes = fs::read(&path).expect("snapshot bytes");
    (path, bytes)
}

fn resume_err(dir: &Path, snap: &Path) -> CoreError {
    let mut config = tiny_config(dir, 7);
    config.resume = Some(snap.to_path_buf());
    SimulationDriver::run(&config).expect_err("resume must fail")
}

#[test]
fn truncated_snapshot_is_rejected_with_typed_error() {
    let dir = scratch_dir("truncated");
    let (path, bytes) = make_snapshot(&dir);
    // Chop off the tail — both a missing checksum and a short payload
    // must surface as Truncated, never as a partial restore.
    for keep in [bytes.len() - 4, bytes.len() / 2, 10] {
        fs::write(&path, &bytes[..keep]).unwrap();
        let err = resume_err(&dir, &path);
        assert!(
            matches!(err, CoreError::Snapshot(SnapshotError::Truncated)),
            "keep={keep}: expected Truncated, got {err:?}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_snapshot_is_rejected_with_typed_error() {
    let dir = scratch_dir("bitflip");
    let (path, bytes) = make_snapshot(&dir);
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    fs::write(&path, &corrupt).unwrap();
    let err = resume_err(&dir, &path);
    assert!(
        matches!(err, CoreError::Snapshot(SnapshotError::ChecksumMismatch)),
        "expected ChecksumMismatch, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_reports_expected_and_found() {
    let dir = scratch_dir("version");
    let (path, bytes) = make_snapshot(&dir);
    let mut future = bytes.clone();
    // Version is the little-endian u32 right after the 4-byte magic.
    future[4] = future[4].wrapping_add(1);
    fs::write(&path, &future).unwrap();
    let err = resume_err(&dir, &path);
    match err {
        CoreError::Snapshot(SnapshotError::VersionMismatch { expected, found }) => {
            assert_eq!(expected, SNAPSHOT_VERSION);
            assert_eq!(found, u32::from(bytes[4]) + 1);
            let msg = err_display(&SnapshotError::VersionMismatch { expected, found });
            assert!(
                msg.contains(&expected.to_string()) && msg.contains(&found.to_string()),
                "version error must name both versions: {msg}"
            );
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

fn err_display(e: &SnapshotError) -> String {
    format!("{e}")
}

#[test]
fn bad_magic_is_rejected_with_typed_error() {
    let dir = scratch_dir("magic");
    let (path, mut bytes) = make_snapshot(&dir);
    bytes[0] = b'X';
    fs::write(&path, &bytes).unwrap();
    let err = resume_err(&dir, &path);
    assert!(
        matches!(err, CoreError::Snapshot(SnapshotError::BadMagic)),
        "expected BadMagic, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scenario_mismatch_is_rejected_before_any_restore() {
    let dir = scratch_dir("config-mismatch");
    let (path, _) = make_snapshot(&dir);
    // Same snapshot, different scenario (seed changed): the config
    // digest check must refuse to overlay foreign state.
    let mut config = tiny_config(&dir, 8);
    config.resume = Some(path);
    let err = SimulationDriver::run(&config).expect_err("mismatched resume must fail");
    assert!(
        matches!(
            err,
            CoreError::Snapshot(SnapshotError::ConfigMismatch { .. })
        ),
        "expected ConfigMismatch, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_file_is_an_io_error() {
    let dir = scratch_dir("missing");
    let err = resume_err(&dir, &dir.join("tick-0000009999.snap"));
    assert!(
        matches!(err, CoreError::Snapshot(SnapshotError::Io(_))),
        "expected Io, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
