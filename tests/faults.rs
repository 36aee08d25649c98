//! Fault-injection invariants: request-conservation and capacity
//! properties that must hold under *any* seeded fault plan, plus the
//! exactly-once accounting of scale-in aborts (the paper's "removal
//! failures", Fig. 6).

use std::collections::HashSet;

use hyscale::cluster::{
    Cluster, ClusterConfig, ContainerSpec, FailureKind, FaultInjector, FaultKind, FaultPlan,
    FaultPlanConfig, NodeSpec, Request, ServiceId,
};
use hyscale::core::{
    AlgorithmKind, ControlPlaneConfig, NodeEvent, RunReport, ScenarioBuilder, SimulationDriver,
};
use hyscale::sim::{SimDuration, SimRng, SimTime};
use hyscale::trace::{export, RunMeta, TraceSink};
use hyscale::workload::{LoadPattern, ServiceProfile};

/// Drives a short two-service scenario under the given fault plan.
fn chaos_run(plan: FaultPlan, seed: u64, algorithm: AlgorithmKind) -> RunReport {
    ScenarioBuilder::new("fault-property")
        .nodes(4)
        .services(
            2,
            ServiceProfile::CpuBound,
            LoadPattern::Constant { rate: 6.0 },
        )
        .duration_secs(90.0)
        .algorithm(algorithm)
        .seed(seed)
        .faults(plan)
        .run()
        .expect("chaos scenario runs")
}

fn assert_conserved(report: &RunReport) {
    let r = &report.requests;
    // `outstanding()` saturates at zero, so check the raw inequality
    // first: over-counting a failure (e.g. a request aborted twice)
    // would push completed + failed past issued.
    assert!(
        r.completed + r.failures.total() <= r.issued,
        "over-counted outcomes: issued {} < completed {} + failed {}",
        r.issued,
        r.completed,
        r.failures.total(),
    );
    assert_eq!(
        r.issued,
        r.completed + r.failures.total() + r.outstanding(),
        "conservation broken: {r:?}",
    );
    for (svc, outcomes) in &report.per_service {
        assert_eq!(
            outcomes.issued,
            outcomes.completed + outcomes.failures.total() + outcomes.outstanding(),
            "conservation broken for {svc:?}: {outcomes:?}",
        );
    }
}

/// Property: `issued = completed + failed + outstanding`, overall and
/// per service, no matter what the fault storm does.
#[test]
fn request_conservation_holds_under_random_fault_plans() {
    let mut rng = SimRng::seed_from(0xFA17_5EED);
    for round in 0..6u64 {
        let cfg = FaultPlanConfig {
            horizon_secs: 90.0,
            nodes: 4,
            services: 2,
            node_crashes: 2,
            oom_kills: 2,
            nic_degradations: 1,
            stat_outages: 1,
            min_down_secs: 5.0,
            max_down_secs: 20.0,
        };
        let plan = FaultPlan::random(&cfg, &mut rng);
        assert!(!plan.is_empty());
        let report = chaos_run(plan, round + 1, AlgorithmKind::HyScaleCpu);
        assert!(report.requests.issued > 0);
        assert_conserved(&report);
    }
}

/// Conservation also holds when planned decommissions overlap with the
/// fault storm — both abort paths feed the same single tally.
#[test]
fn conservation_holds_with_decommission_and_faults_together() {
    let mut rng = SimRng::seed_from(0xD0_0DAD);
    let cfg = FaultPlanConfig {
        horizon_secs: 90.0,
        nodes: 4,
        services: 2,
        ..FaultPlanConfig::default()
    };
    let plan = FaultPlan::random(&cfg, &mut rng);
    let report = ScenarioBuilder::new("fault-plus-decommission")
        .nodes(4)
        .services(
            2,
            ServiceProfile::Mixed,
            LoadPattern::Constant { rate: 6.0 },
        )
        .duration_secs(90.0)
        .algorithm(AlgorithmKind::HyScaleCpuMem)
        .seed(11)
        .faults(plan)
        .node_event(40.0, NodeEvent::Decommission(3))
        .node_event(60.0, NodeEvent::Commission(NodeSpec::uniform_worker()))
        .run()
        .expect("scenario runs");
    assert!(report.requests.issued > 0);
    assert_conserved(&report);
}

/// Property: no per-window CPU grant ever exceeds a node's capacity,
/// through arbitrary crash/reboot cycles, and a rebooted node comes back
/// with its full capacity free.
#[test]
fn grants_never_exceed_capacity_through_crash_reboot_cycles() {
    let mut cl = Cluster::new(ClusterConfig::default());
    let spec = NodeSpec::uniform_worker();
    let cores = spec.cores;
    let node_ids: Vec<_> = (0..3).map(|_| cl.add_node(spec)).collect();
    let svc = ServiceId::new(0);
    for &n in &node_ids {
        cl.start_container(
            n,
            ContainerSpec::new(svc).with_startup_secs(0.0),
            SimTime::ZERO,
        )
        .unwrap();
    }
    let plan = FaultPlan::new()
        .with(
            2.0,
            FaultKind::NodeCrash {
                node: 0,
                down_secs: 3.0,
            },
        )
        .with(
            4.0,
            FaultKind::NodeCrash {
                node: 1,
                down_secs: 2.0,
            },
        )
        .with(
            9.0,
            FaultKind::NodeCrash {
                node: 0,
                down_secs: 2.0,
            },
        );
    let mut injector = FaultInjector::new(&plan, &node_ids);

    let mut rng = SimRng::seed_from(42);
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    for tick in 0..150 {
        injector.apply_due(&mut cl, now);
        // Offer load to whatever replicas are still accepting.
        let live: Vec<_> = cl.service_replicas(svc);
        for _ in 0..2 {
            if !live.is_empty() {
                let target = live[rng.uniform_usize(live.len())];
                let req = Request::cpu_bound(svc, now, rng.uniform_range(0.5, 4.0));
                let _ = cl.admit_request(target, req, now);
            }
        }
        cl.advance(now, dt);
        now += dt;
        if tick % 10 == 9 {
            let ids: Vec<_> = cl.nodes().map(|n| n.id()).collect();
            for id in ids {
                let usage = cl.node_usage_and_reset(id).unwrap();
                assert!(
                    usage.cpu_used.get() <= cores.get() + 1e-9,
                    "node {id:?} granted {:?} cores against capacity {cores:?}",
                    usage.cpu_used,
                );
            }
        }
    }

    // Every crash rebooted. The crashed nodes lost their containers, so
    // they advertise full capacity again; the survivor (node 2) still
    // reserves its replica's request.
    assert!(injector.drained());
    assert_eq!(injector.log().node_crashes, 3);
    assert_eq!(injector.log().reboots, 3);
    assert_eq!(cl.nodes().count(), 3);
    for &id in &node_ids[..2] {
        let (free_cpu, _) = cl.free_resources(id).unwrap();
        assert!((free_cpu.get() - cores.get()).abs() < 1e-9);
    }
    let (survivor_free, _) = cl.free_resources(node_ids[2]).unwrap();
    assert!(survivor_free.get() < cores.get());
    // A rebooted node can host replacement replicas again.
    cl.start_container(
        node_ids[0],
        ContainerSpec::new(svc).with_startup_secs(0.0),
        now,
    )
    .unwrap();
}

/// The injector is a pure function of (plan, node list): replaying the
/// same plan over an identical cluster yields the identical fault log.
#[test]
fn fault_injection_replays_identically() {
    let build = || {
        let mut cl = Cluster::new(ClusterConfig::default());
        let nodes: Vec<_> = (0..3)
            .map(|_| cl.add_node(NodeSpec::uniform_worker()))
            .collect();
        let svc = ServiceId::new(0);
        for &n in &nodes {
            cl.start_container(
                n,
                ContainerSpec::new(svc).with_startup_secs(0.0),
                SimTime::ZERO,
            )
            .unwrap();
        }
        (cl, nodes, svc)
    };
    let mut rng = SimRng::seed_from(77);
    let plan = FaultPlan::random(
        &FaultPlanConfig {
            horizon_secs: 20.0,
            nodes: 3,
            services: 1,
            ..FaultPlanConfig::default()
        },
        &mut rng,
    );

    let run = |plan: &FaultPlan| {
        let (mut cl, nodes, svc) = build();
        let mut injector = FaultInjector::new(plan, &nodes);
        let mut failures = Vec::new();
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for _ in 0..250 {
            for f in injector.apply_due(&mut cl, now) {
                failures.push(format!("{f:?}"));
            }
            let live = cl.service_replicas(svc);
            if let Some(&target) = live.first() {
                let _ = cl.admit_request(target, Request::cpu_bound(svc, now, 1.0), now);
            }
            cl.advance(now, dt);
            now += dt;
        }
        (format!("{:?}", injector.log()), failures)
    };
    assert_eq!(run(&plan), run(&plan));
}

/// Satellite fix audit: every in-flight request aborted by a scale-in is
/// tallied exactly once, as a removal failure, and never resurfaces.
#[test]
fn scale_in_aborts_are_tallied_exactly_once() {
    let mut cl = Cluster::new(ClusterConfig::default());
    let node = cl.add_node(NodeSpec::uniform_worker());
    let svc = ServiceId::new(0);
    let keep = cl
        .start_container(
            node,
            ContainerSpec::new(svc).with_startup_secs(0.0),
            SimTime::ZERO,
        )
        .unwrap();
    let victim = cl
        .start_container(
            node,
            ContainerSpec::new(svc).with_startup_secs(0.0),
            SimTime::ZERO,
        )
        .unwrap();
    for i in 0..5 {
        let req = Request::cpu_bound(svc, SimTime::ZERO, 30.0 + f64::from(i));
        cl.admit_request(victim, req, SimTime::ZERO).unwrap();
    }
    cl.admit_request(
        keep,
        Request::cpu_bound(svc, SimTime::ZERO, 30.0),
        SimTime::ZERO,
    )
    .unwrap();

    let aborted = cl
        .remove_container(victim, SimTime::from_secs(1.0))
        .unwrap();
    assert_eq!(aborted.len(), 5, "all five in-flight requests abort");
    assert!(aborted.iter().all(|f| f.kind == FailureKind::Removal));
    let ids: HashSet<_> = aborted.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), 5, "each request aborts once, no duplicates");

    // The aborted requests never resurface as later tick failures, and
    // the survivor keeps running.
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::from_secs(1.0);
    for _ in 0..100 {
        let tick = cl.advance(now, dt);
        for f in &tick.failed {
            assert!(!ids.contains(&f.id), "request {f:?} double-counted");
        }
        now += dt;
    }
    assert_eq!(cl.service_replicas(svc), vec![keep]);

    // Removing the already-removed container is an error, not a second
    // batch of failures.
    assert!(cl.remove_container(victim, now).is_err());
}

/// A hot degraded control plane for the property runs: well beyond the
/// bench's 5%-loss figure so every resilience path exercises.
fn hot_control_plane() -> ControlPlaneConfig {
    let mut cp = ControlPlaneConfig::degraded();
    cp.loss_prob = 0.2;
    cp.delay_prob = 0.3;
    cp.duplicate_prob = 0.1;
    cp.actuation_failure_prob = 0.3;
    cp
}

/// Property: the PR 2 request-conservation invariants survive the fault
/// storm *and* a lossy, delayed, duplicating, actuation-dropping control
/// plane at the same time — degradation reorders and suppresses scaling,
/// it never corrupts accounting.
#[test]
fn conservation_holds_under_a_degraded_control_plane() {
    let mut rng = SimRng::seed_from(0xC0_17A0);
    for round in 0..4u64 {
        let cfg = FaultPlanConfig {
            horizon_secs: 90.0,
            nodes: 4,
            services: 2,
            node_crashes: 2,
            oom_kills: 2,
            nic_degradations: 1,
            stat_outages: 1,
            min_down_secs: 5.0,
            max_down_secs: 20.0,
        };
        let plan = FaultPlan::random(&cfg, &mut rng);
        let report = ScenarioBuilder::new("degraded-conservation")
            .nodes(4)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 6.0 },
            )
            .duration_secs(90.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(round + 1)
            .faults(plan)
            .control_plane(hot_control_plane())
            .run()
            .expect("degraded chaos scenario runs");
        assert!(report.requests.issued > 0);
        assert!(
            report.control_plane.reports_lost > 0,
            "the degradation layer must actually fire: {:?}",
            report.control_plane
        );
        assert_conserved(&report);
    }
}

/// Property: when *every* report is lost the Monitor's view of every
/// service is permanently older than the staleness budget, so no replica
/// is ever scaled in — for any algorithm, any seed. (Scale-in on stale
/// data is the cascade the veto exists to prevent: removing replicas the
/// cluster still needs because the stats saying otherwise got dropped.)
#[test]
fn no_scale_in_from_views_older_than_the_staleness_budget() {
    let mut cp = ControlPlaneConfig::degraded();
    cp.loss_prob = 1.0;
    cp.delay_prob = 0.0;
    cp.duplicate_prob = 0.0;
    cp.actuation_failure_prob = 0.0;
    cp.quorum_fraction = 0.0; // no safe mode: the veto alone must hold
    cp.staleness_budget_ticks = 0;
    for algorithm in [
        AlgorithmKind::Kubernetes,
        AlgorithmKind::HyScaleCpu,
        AlgorithmKind::HyScaleCpuMem,
        AlgorithmKind::Network,
    ] {
        for seed in [1u64, 7, 42] {
            let report = ScenarioBuilder::new("stale-freeze")
                .nodes(4)
                .services(
                    2,
                    ServiceProfile::CpuBound,
                    LoadPattern::Constant { rate: 2.0 },
                )
                .duration_secs(90.0)
                .algorithm(algorithm)
                .seed(seed)
                .control_plane(cp)
                .run()
                .expect("scenario runs");
            assert!(report.control_plane.reports_lost > 0);
            assert_eq!(
                report.scaling.removals, 0,
                "{algorithm:?} seed {seed}: scaled in from a stale view"
            );
        }
    }
}

/// Property: one seeded degraded run serializes to a byte-identical
/// trace journal on every repeat — every control-plane draw (loss,
/// delay, duplication, actuation failure, breaker jitter) comes from a
/// seeded stream.
#[test]
fn degraded_replay_is_byte_identical_across_repeats() {
    let mut rng = SimRng::seed_from(0xB17_1DE7);
    let plan = FaultPlan::random(
        &FaultPlanConfig {
            horizon_secs: 90.0,
            nodes: 4,
            services: 2,
            ..FaultPlanConfig::default()
        },
        &mut rng,
    );
    let build = || {
        ScenarioBuilder::new("degraded-replay")
            .nodes(4)
            .services(
                2,
                ServiceProfile::CpuBound,
                LoadPattern::Constant { rate: 6.0 },
            )
            .duration_secs(90.0)
            .algorithm(AlgorithmKind::HyScaleCpu)
            .seed(13)
            .faults(plan.clone())
            .control_plane(hot_control_plane())
            .build()
    };
    let journal = || {
        let config = build();
        let mut sink = TraceSink::with_capacity(16_384);
        SimulationDriver::run_traced(&config, &mut sink).expect("scenario runs");
        let meta = RunMeta {
            scenario: &config.name,
            seed: config.seed,
            algorithm: config.algorithm.label(),
        };
        export::jsonl(&sink, &meta)
    };
    let first = journal();
    assert!(first.contains("\"ev\":\"report_link\""));
    assert_eq!(first, journal(), "degraded replay diverged across repeats");
}

/// Acceptance: losing quorum drops the cluster into safe mode — scaling
/// freezes entirely, with a matching trace event — while the recovery
/// path keeps respawning replicas the fault storm kills.
#[test]
fn safe_mode_freezes_scaling_but_recovery_still_respawns() {
    let mut cp = ControlPlaneConfig::degraded();
    cp.loss_prob = 1.0; // no node is ever fresh
    cp.quorum_fraction = 1.0;
    let config = ScenarioBuilder::new("safe-mode-e2e")
        .nodes(2)
        .services(
            1,
            ServiceProfile::CpuBound,
            LoadPattern::Constant { rate: 2.0 },
        )
        .duration_secs(120.0)
        .algorithm(AlgorithmKind::HyScaleCpu)
        .seed(5)
        .faults(FaultPlan::new().with(
            30.0,
            FaultKind::NodeCrash {
                node: 0,
                down_secs: 60.0,
            },
        ))
        .control_plane(cp)
        .build();
    let mut sink = TraceSink::with_capacity(16_384);
    let report = SimulationDriver::run_traced(&config, &mut sink).expect("scenario runs");
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    let journal = export::jsonl(&sink, &meta);

    assert!(
        report.control_plane.safe_mode_periods > 0,
        "safe mode never engaged: {:?}",
        report.control_plane
    );
    assert_eq!(
        report.scaling.total(),
        0,
        "safe mode must freeze all scaling: {:?}",
        report.scaling
    );
    assert!(
        report.total_respawns() >= 1,
        "recovery must keep running in safe mode: {report:?}"
    );
    assert!(journal.contains("\"ev\":\"safe_mode\""));
    assert!(journal.contains("\"entered\":true"));
}

/// Runs the published chaos benchmark scenario (CPU-bound high burst
/// plus the seeded fault storm) at smoke scale.
fn bench_chaos_run(seed: u64) -> RunReport {
    let scale = hyscale_bench::scenarios::Scale::bench();
    let mut config = hyscale_bench::scenarios::chaos(&scale, AlgorithmKind::HyScaleCpu);
    config.seed = seed;
    SimulationDriver::run(&config).expect("chaos scenario runs")
}

#[test]
fn chaos_runs_are_reproducible_across_repeats() {
    let first = bench_chaos_run(101);
    assert!(first.faults.total_applied() > 0, "faults actually fired");
    let again = bench_chaos_run(101);
    assert_eq!(format!("{first:?}"), format!("{again:?}"));
    // A different workload seed faces the same fault plan but different
    // traffic: the report must differ (the seed actually matters).
    let other = bench_chaos_run(505);
    assert_ne!(format!("{first:?}"), format!("{other:?}"));
}
