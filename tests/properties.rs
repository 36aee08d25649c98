//! Property-style tests on the core invariants, driven by the repo's own
//! deterministic [`SimRng`] instead of an external property-testing crate
//! (the offline build cannot reach crates.io).
//!
//! DESIGN.md §8 lists the invariants; each gets a randomized-but-seeded
//! check here: resource conservation in the allocators, memory-model
//! sanity, load pattern envelopes, algorithm action well-formedness, and
//! end-to-end accounting conservation in the driver.

use hyscale::cluster::{
    ContainerId, Cores, CpuAllocator, CpuDemand, MemMb, MemoryModel, NodeId, OverheadModel,
    ServiceId,
};
use hyscale::core::{
    AlgorithmKind, ClusterView, HpaConfig, HyScaleConfig, NodeView, ReplicaView, ScalingAction,
    ScenarioBuilder, ServiceView,
};
use hyscale::sim::{SimRng, SimTime};
use hyscale::workload::{LoadPattern, ServiceProfile};

// ---------------------------------------------------------------------
// CPU / network allocator invariants
// ---------------------------------------------------------------------

fn random_demands(rng: &mut SimRng) -> Vec<CpuDemand> {
    let count = rng.uniform_usize(12);
    (0..count)
        .map(|i| {
            let demand = rng.uniform_range(0.0, 50.0);
            let weight = rng.uniform_range(0.0, 4.0);
            let cap = rng.uniform_range(0.1, 100.0);
            CpuDemand::new(ContainerId::new(i as u32), demand, weight).with_cap(cap)
        })
        .collect()
}

#[test]
fn allocator_never_exceeds_capacity() {
    let mut rng = SimRng::seed_from(0xA110C);
    for _ in 0..256 {
        let capacity = rng.uniform_range(0.0, 64.0);
        let demands = random_demands(&mut rng);
        let grants = CpuAllocator::allocate(capacity, &demands);
        let total: f64 = grants.iter().map(|g| g.granted).sum();
        assert!(total <= capacity + 1e-6, "granted {total} of {capacity}");
    }
}

#[test]
fn allocator_never_exceeds_demand_or_cap() {
    let mut rng = SimRng::seed_from(0xA110D);
    for _ in 0..256 {
        let capacity = rng.uniform_range(0.0, 64.0);
        let demands = random_demands(&mut rng);
        let grants = CpuAllocator::allocate(capacity, &demands);
        for (grant, demand) in grants.iter().zip(&demands) {
            assert!(grant.granted <= demand.demand.max(0.0) + 1e-9);
            assert!(grant.granted <= demand.cap + 1e-9);
            assert!(grant.granted >= 0.0);
        }
    }
}

#[test]
fn allocator_is_work_conserving() {
    // If aggregate (weighted-eligible) demand saturates capacity, the
    // allocator must hand out (almost) all of it.
    let mut rng = SimRng::seed_from(0xA110E);
    for _ in 0..256 {
        let capacity = rng.uniform_range(0.1, 64.0);
        let demands = random_demands(&mut rng);
        let grants = CpuAllocator::allocate(capacity, &demands);
        let total: f64 = grants.iter().map(|g| g.granted).sum();
        let effective: f64 = demands.iter().map(|d| d.demand.max(0.0).min(d.cap)).sum();
        let expected = capacity.min(effective);
        assert!(
            total >= expected - 1e-6,
            "granted {total}, expected {expected}"
        );
    }
}

// ---------------------------------------------------------------------
// Memory model invariants
// ---------------------------------------------------------------------

#[test]
fn memory_pressure_is_sane() {
    let mut rng = SimRng::seed_from(0x3E3);
    let model = MemoryModel::new(OverheadModel::default());
    for _ in 0..512 {
        let resident = rng.uniform_range(0.0, 10_000.0);
        let limit = rng.uniform_range(0.0, 10_000.0);
        let p = model.pressure(MemMb(resident), MemMb(limit));
        assert!(p.swapped.get() >= 0.0);
        assert!(p.swapped.get() <= p.resident.get() + 1e-9);
        assert!((0.0..=1.0).contains(&p.swapped_fraction));
        assert!(p.slowdown >= 1.0);
    }
}

#[test]
fn swap_slowdown_is_monotone() {
    let mut rng = SimRng::seed_from(0x3E4);
    let m = OverheadModel::default();
    for _ in 0..512 {
        let f1 = rng.uniform_f64();
        let f2 = rng.uniform_f64();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        assert!(m.swap_slowdown(lo) <= m.swap_slowdown(hi) + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Load pattern invariants
// ---------------------------------------------------------------------

fn random_pattern(rng: &mut SimRng) -> LoadPattern {
    match rng.uniform_usize(4) {
        0 => LoadPattern::Constant {
            rate: rng.uniform_range(0.0, 50.0),
        },
        1 => LoadPattern::Wave {
            base: rng.uniform_range(0.0, 20.0),
            amplitude: rng.uniform_range(0.0, 30.0),
            period_secs: rng.uniform_range(1.0, 1000.0),
        },
        2 => LoadPattern::Burst {
            base: rng.uniform_range(0.0, 20.0),
            peak: rng.uniform_range(0.0, 50.0),
            period_secs: rng.uniform_range(1.0, 1000.0),
            duty: rng.uniform_range(0.01, 0.99),
        },
        _ => {
            let samples = (0..rng.uniform_usize(20))
                .map(|_| rng.uniform_range(0.0, 40.0))
                .collect();
            LoadPattern::Trace {
                samples,
                interval_secs: rng.uniform_range(0.1, 600.0),
            }
        }
    }
}

#[test]
fn rate_never_exceeds_envelope() {
    let mut rng = SimRng::seed_from(0x10AD);
    for _ in 0..512 {
        let pattern = random_pattern(&mut rng);
        let t = rng.uniform_range(0.0, 10_000.0);
        let rate = pattern.rate_at(SimTime::from_secs(t));
        assert!(rate >= 0.0);
        assert!(rate <= pattern.peak_rate() + 1e-9);
    }
}

#[test]
fn scaling_scales_the_envelope() {
    let mut rng = SimRng::seed_from(0x10AE);
    for _ in 0..512 {
        let pattern = random_pattern(&mut rng);
        let factor = rng.uniform_range(0.0, 4.0);
        let scaled = pattern.scaled(factor);
        assert!((scaled.peak_rate() - pattern.peak_rate() * factor).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------
// Algorithm action well-formedness over arbitrary views
// ---------------------------------------------------------------------

fn random_view(rng: &mut SimRng) -> ClusterView {
    let service = ServiceId::new(0);
    let replica_count = 1 + rng.uniform_usize(5);
    let replicas: Vec<ReplicaView> = (0..replica_count)
        .map(|i| ReplicaView {
            container: ContainerId::new(i as u32),
            node: NodeId::new(rng.uniform_usize(3) as u32),
            cpu_used: Cores(rng.uniform_range(0.0, 4.0)),
            cpu_requested: Cores(rng.uniform_range(0.05, 4.0)),
            mem_used: MemMb(rng.uniform_range(0.0, 2048.0)),
            mem_limit: MemMb(rng.uniform_range(32.0, 2048.0)),
            net_used: hyscale::cluster::Mbps(0.0),
            net_requested: hyscale::cluster::Mbps(50.0),
            in_flight: 1,
            swapping: false,
            ready: true,
            age_ticks: 0,
        })
        .collect();
    let nodes: Vec<(f64, f64)> = (0..3)
        .map(|_| (rng.uniform_range(0.0, 8.0), rng.uniform_range(0.0, 8192.0)))
        .collect();
    let hosted: Vec<Vec<ServiceId>> = (0..3)
        .map(|n| {
            if replicas.iter().any(|r| r.node == NodeId::new(n)) {
                vec![service]
            } else {
                vec![]
            }
        })
        .collect();
    ClusterView {
        now: SimTime::from_secs(100.0),
        period_secs: 5.0,
        services: vec![ServiceView {
            service,
            replicas,
            template_cpu: Cores(0.5),
            template_mem: MemMb(256.0),
            base_mem: MemMb(64.0),
        }],
        nodes: (0..3u32)
            .map(|n| NodeView {
                node: NodeId::new(n),
                free_cpu: Cores(nodes[n as usize].0),
                free_mem: MemMb(nodes[n as usize].1),
                hosted_services: hosted[n as usize].clone(),
            })
            .collect(),
        staleness_budget_ticks: 1,
    }
}

/// Checks the action list is well-formed with respect to the view.
fn assert_actions_well_formed(view: &ClusterView, actions: &[ScalingAction]) {
    let known: Vec<ContainerId> = view.services[0]
        .replicas
        .iter()
        .map(|r| r.container)
        .collect();
    let min_replicas = 1;
    let mut removed = 0usize;
    for action in actions {
        match action {
            ScalingAction::Update {
                container,
                cpu,
                mem,
            } => {
                assert!(known.contains(container), "update of unknown {container}");
                if let Some(c) = cpu {
                    assert!(c.get() >= 0.0 && c.get().is_finite());
                }
                if let Some(m) = mem {
                    assert!(m.get() >= 0.0 && m.get().is_finite());
                }
            }
            ScalingAction::Remove { container } => {
                assert!(known.contains(container));
                removed += 1;
            }
            ScalingAction::Spawn { node, cpu, mem, .. } => {
                assert!(view.node(*node).is_some(), "spawn on unknown node");
                assert!(cpu.get() > 0.0 && cpu.get().is_finite());
                assert!(mem.get() > 0.0 && mem.get().is_finite());
            }
            ScalingAction::SetNetCap { container, .. } => {
                assert!(known.contains(container));
            }
        }
    }
    assert!(
        view.services[0].replicas.len().saturating_sub(removed) >= min_replicas,
        "removals would violate min replicas"
    );
}

#[test]
fn all_algorithms_emit_well_formed_actions() {
    let mut rng = SimRng::seed_from(0xAC7);
    for _ in 0..64 {
        let view = random_view(&mut rng);
        let kinds = AlgorithmKind::ALL
            .into_iter()
            .chain([AlgorithmKind::VerticalOnly]);
        for kind in kinds {
            let mut algo = kind.build(HpaConfig::default(), HyScaleConfig::default());
            let actions = algo.decide(&view);
            assert_actions_well_formed(&view, &actions);
        }
    }
}

#[test]
fn vertical_only_never_changes_replica_counts() {
    let mut rng = SimRng::seed_from(0xAC8);
    for _ in 0..64 {
        let view = random_view(&mut rng);
        let mut algo =
            AlgorithmKind::VerticalOnly.build(HpaConfig::default(), HyScaleConfig::default());
        let actions = algo.decide(&view);
        assert!(actions.iter().all(|a| a.is_vertical()));
    }
}

#[test]
fn hyscale_acquisition_respects_node_free_cpu() {
    let mut rng = SimRng::seed_from(0xAC9);
    for _ in 0..64 {
        let view = random_view(&mut rng);
        let mut algo =
            AlgorithmKind::HyScaleCpu.build(HpaConfig::default(), HyScaleConfig::default());
        let actions = algo.decide(&view);
        // Net vertical CPU change per node (acquisitions minus in-period
        // reclamations, plus capacity returned by removals and taken by
        // spawns) must not exceed what the node advertised as free: the
        // plan may never overcommit a machine.
        for node in &view.nodes {
            let mut net = 0.0;
            for action in &actions {
                match action {
                    ScalingAction::Update {
                        container,
                        cpu: Some(new_cpu),
                        ..
                    } => {
                        if let Some(replica) = view.services[0]
                            .replicas
                            .iter()
                            .find(|r| r.container == *container && r.node == node.node)
                        {
                            net += new_cpu.get() - replica.cpu_requested.get();
                        }
                    }
                    ScalingAction::Remove { container } => {
                        if let Some(replica) = view.services[0]
                            .replicas
                            .iter()
                            .find(|r| r.container == *container && r.node == node.node)
                        {
                            net -= replica.cpu_requested.get();
                        }
                    }
                    ScalingAction::Spawn { node: n, cpu, .. } if *n == node.node => {
                        net += cpu.get();
                    }
                    _ => {}
                }
            }
            assert!(
                net <= node.free_cpu.get() + 1e-6,
                "{}: net CPU change {net} exceeds {} free",
                node.node,
                node.free_cpu.get()
            );
        }
    }
}

#[test]
fn kubernetes_replica_targets_stay_in_bounds() {
    let mut rng = SimRng::seed_from(0xACA);
    for _ in 0..64 {
        let view = random_view(&mut rng);
        let config = HpaConfig {
            min_replicas: 1,
            max_replicas: 4,
            ..HpaConfig::default()
        };
        let mut algo = AlgorithmKind::Kubernetes.build(config, HyScaleConfig::default());
        let actions = algo.decide(&view);
        let current = view.services[0].replicas.len();
        let spawns = actions
            .iter()
            .filter(|a| matches!(a, ScalingAction::Spawn { .. }))
            .count();
        let removals = actions
            .iter()
            .filter(|a| matches!(a, ScalingAction::Remove { .. }))
            .count();
        assert!(
            current + spawns <= 4 || spawns == 0,
            "over max: {current}+{spawns}"
        );
        assert!(current.saturating_sub(removals) >= 1, "under min");
        // Never both directions in one decision for one service.
        assert!(spawns == 0 || removals == 0);
    }
}

// ---------------------------------------------------------------------
// End-to-end accounting conservation
// ---------------------------------------------------------------------

fn small_run(kind: AlgorithmKind, seed: u64, rate: f64) -> hyscale::core::RunReport {
    ScenarioBuilder::new("prop-e2e")
        .nodes(2)
        .services(1, ServiceProfile::CpuBound, LoadPattern::Constant { rate })
        .duration_secs(60.0)
        .algorithm(kind)
        .seed(seed)
        .run()
        .expect("runs")
}

#[test]
fn request_accounting_conserves() {
    let mut rng = SimRng::seed_from(0xE2E);
    for _ in 0..3 {
        let seed = rng.next_u64() % 1000;
        let rate = rng.uniform_range(0.5, 12.0);
        for kind in AlgorithmKind::ALL {
            let report = small_run(kind, seed, rate);
            let accounted = report.requests.completed
                + report.requests.failures.total()
                + report.requests.outstanding();
            assert_eq!(accounted, report.requests.issued);
            // Per-service totals agree with the overall record.
            let per_service: u64 = report.per_service.values().map(|o| o.issued).sum();
            assert_eq!(per_service, report.requests.issued);
        }
    }
}

#[test]
fn same_seed_is_bit_identical() {
    for seed in [7u64, 421] {
        let a = small_run(AlgorithmKind::HyScaleCpuMem, seed, 4.0);
        let b = small_run(AlgorithmKind::HyScaleCpuMem, seed, 4.0);
        assert_eq!(a.requests.issued, b.requests.issued);
        assert_eq!(a.requests.completed, b.requests.completed);
        assert!((a.requests.mean_response_secs() - b.requests.mean_response_secs()).abs() < 1e-15);
    }
}

// ---------------------------------------------------------------------
// RNG distribution sanity (cross-crate: sim consumed by workload)
// ---------------------------------------------------------------------

#[test]
fn rng_samples_stay_in_domain() {
    for seed in 0u64..512 {
        let mut rng = SimRng::seed_from(seed * 19 + 1);
        assert!((0.0..1.0).contains(&rng.uniform_f64()));
        assert!(rng.exponential(2.0) > 0.0);
        assert!(rng.pareto(1.0, 2.0) >= 1.0);
        let n = rng.uniform_usize(7);
        assert!(n < 7);
    }
}

// ---------------------------------------------------------------------
// Flow-cohort member conservation
// ---------------------------------------------------------------------

use hyscale::cluster::{Cluster, ClusterConfig, Cohort, ContainerSpec, NodeSpec, TickReport};
use hyscale::sim::SimDuration;

/// Runs a randomized churn of cohort admissions, in-place splits, merges,
/// and ticks, then drains the cluster. Returns
/// `(issued, completed, failed, digest)` where the digest is an
/// order-sensitive fold of every completion and failure.
fn cohort_churn(seed: u64, workers: usize) -> (u64, u64, u64, u64) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.set_parallelism(workers);
    let mut containers = Vec::new();
    for _ in 0..2 {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        for c in 0..3u32 {
            let spec = ContainerSpec::new(ServiceId::new(c))
                .with_queue_cap(4096)
                .with_startup_secs(0.0);
            containers.push(
                cluster
                    .start_container(node, spec, SimTime::ZERO)
                    .expect("placement fits"),
            );
        }
    }

    let mut rng = SimRng::seed_from(seed);
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let mut report = TickReport::default();
    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut digest = 0u64;

    let drain = |cluster: &mut Cluster,
                 report: &mut TickReport,
                 completed: &mut u64,
                 failed: &mut u64,
                 digest: &mut u64| {
        for done in report.completed.drain(..) {
            *completed += done.count;
            *digest = digest
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(done.id.index())
                .wrapping_add(done.count)
                .wrapping_add(done.response_time.as_secs().to_bits());
        }
        for gone in report.failed.drain(..) {
            *failed += gone.count;
            *digest = digest
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(gone.id.index())
                .wrapping_add(gone.count.wrapping_mul(3));
        }
        *completed + *failed + cluster.total_in_flight()
    };

    for _ in 0..400 {
        match rng.uniform_usize(8) {
            0..=3 => {
                let idx = rng.uniform_usize(containers.len());
                let id = containers[idx];
                let count = 1 + rng.uniform_usize(64) as u64;
                let cpu = rng.uniform_range(0.001, 0.02);
                let net = rng.uniform_range(0.0, 0.05);
                let service = cluster.container(id).expect("live").spec().service;
                let cohort = Cohort::new(service, now, count, cpu, MemMb(0.1), net);
                if cluster.admit_cohort(id, cohort, now).is_ok() {
                    issued += count;
                }
            }
            4 => {
                // Split a random resident cohort at a random point.
                let idx = rng.uniform_usize(containers.len());
                let id = containers[idx];
                let slots = cluster.container(id).map_or(0, |c| c.cohort_count());
                if slots > 0 {
                    let slot = rng.uniform_usize(slots);
                    let left = 1 + rng.uniform_usize(64) as u64;
                    let _ = cluster.split_in_flight_cohort(id, slot, left);
                }
            }
            5 => {
                // Try to re-join two random slots (often refused —
                // non-adjacent ids — which must also conserve members).
                let idx = rng.uniform_usize(containers.len());
                let id = containers[idx];
                let slots = cluster.container(id).map_or(0, |c| c.cohort_count());
                if slots > 1 {
                    let i = rng.uniform_usize(slots);
                    let j = rng.uniform_usize(slots);
                    let _ = cluster.merge_in_flight_cohorts(id, i, j);
                }
            }
            _ => {
                cluster.advance_into(now, dt, &mut report);
                let accounted = drain(
                    &mut cluster,
                    &mut report,
                    &mut completed,
                    &mut failed,
                    &mut digest,
                );
                assert_eq!(accounted, issued, "conservation broke mid-churn");
                now += dt;
            }
        }
    }

    // Drain to empty: default 30 s timeouts bound the tail, so every
    // member must resolve well before the tick cap.
    let mut guard = 0;
    while cluster.total_in_flight() > 0 {
        cluster.advance_into(now, dt, &mut report);
        let accounted = drain(
            &mut cluster,
            &mut report,
            &mut completed,
            &mut failed,
            &mut digest,
        );
        assert_eq!(accounted, issued, "conservation broke during drain");
        now += dt;
        guard += 1;
        assert!(guard < 5_000, "drain did not converge");
    }
    (issued, completed, failed, digest)
}

#[test]
fn cohort_churn_conserves_members_across_seeds() {
    for seed in [1u64, 7, 42] {
        let (issued, completed, failed, _) = cohort_churn(seed, 1);
        assert!(issued > 1_000, "churn issued too little: {issued}");
        assert_eq!(
            issued,
            completed + failed,
            "seed {seed}: generated members must all complete or fail"
        );
    }
}

#[test]
fn cohort_churn_is_bit_identical_across_worker_counts() {
    for seed in [1u64, 7, 42] {
        let serial = cohort_churn(seed, 1);
        for workers in [2usize, 4] {
            assert_eq!(
                serial,
                cohort_churn(seed, workers),
                "seed {seed}: {workers}-worker churn diverged from serial"
            );
        }
    }
}

// ---------------------------------------------------------------------
// A request is a flow of one member
// ---------------------------------------------------------------------

use hyscale::cluster::Request;

/// One node with three small-queue replicas, so random load keeps
/// hitting `QueueFull`.
fn flow_twin() -> (Cluster, NodeId, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    let node = cluster.add_node(NodeSpec::uniform_worker());
    let containers = (0..3u32)
        .map(|c| {
            let spec = ContainerSpec::new(ServiceId::new(c))
                .with_queue_cap(12)
                .with_startup_secs(0.0);
            cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("placement fits")
        })
        .collect();
    (cluster, node, containers)
}

/// Admitting a request must be indistinguishable from admitting a cohort
/// of one copy of it: same ids (refusals included), same tick reports,
/// same teardown aborts, through queue overflow, timeouts, removals and
/// replicas still starting up.
#[test]
fn admitting_a_request_equals_admitting_a_cohort_of_one() {
    for seed in [3u64, 11, 29] {
        let (mut by_request, node, mut containers) = flow_twin();
        let (mut by_cohort, _, _) = flow_twin();
        let mut rng = SimRng::seed_from(seed);
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        let mut completed = 0u64;
        let mut refused = 0u64;
        for tick in 0..400 {
            for _ in 0..rng.uniform_usize(10) {
                // Index one past the end: an unknown container.
                let pick = rng.uniform_usize(containers.len() + 1);
                let target = containers
                    .get(pick)
                    .copied()
                    .unwrap_or(ContainerId::new(99));
                let request = Request::new(
                    ServiceId::new(pick as u32 % 3),
                    now,
                    rng.uniform_range(0.0, 0.3),
                    MemMb(rng.uniform_range(0.0, 40.0)),
                    rng.uniform_range(0.0, 30.0),
                )
                .with_disk(rng.uniform_range(0.0, 10.0))
                .with_timeout(SimDuration::from_secs(rng.uniform_range(0.2, 4.0)));
                let a = by_request.admit_request(target, request.clone(), now);
                let b = by_cohort.admit_cohort(target, Cohort::from_request(&request, 1), now);
                assert_eq!(a, b, "seed {seed} tick {tick}: admission diverged");
                refused += u64::from(a.is_err());
            }
            if tick % 50 == 49 {
                // Replace a replica: aborts its flows, and the newcomer
                // refuses work until its startup delay has passed.
                let gone = containers.remove(rng.uniform_usize(containers.len()));
                assert_eq!(
                    by_request.remove_container(gone, now),
                    by_cohort.remove_container(gone, now)
                );
                let spec = ContainerSpec::new(ServiceId::new(tick / 50 % 3))
                    .with_queue_cap(12)
                    .with_startup_secs(0.5);
                let fresh = by_request.start_container(node, spec.clone(), now);
                assert_eq!(fresh, by_cohort.start_container(node, spec, now));
                containers.push(fresh.expect("placement fits"));
            }
            let report = by_request.advance(now, dt);
            assert_eq!(
                report,
                by_cohort.advance(now, dt),
                "seed {seed} tick {tick}: tick reports diverged"
            );
            completed += report.completed_members();
            now += dt;
        }
        assert!(
            completed > 500 && refused > 100,
            "{completed} done, {refused} refused"
        );
    }
}

/// Requests and a cohort with the same per-member demand, admitted to
/// one replica on the same tick, progress identically and finish on the
/// same tick.
#[test]
fn requests_and_an_equal_cohort_finish_together() {
    let (mut cluster, _, containers) = flow_twin();
    let target = containers[0];
    let request = Request::new(ServiceId::new(0), SimTime::ZERO, 0.15, MemMb(8.0), 4.0);
    for _ in 0..3 {
        cluster
            .admit_request(target, request.clone(), SimTime::ZERO)
            .expect("fits");
    }
    cluster
        .admit_cohort(target, Cohort::from_request(&request, 5), SimTime::ZERO)
        .expect("fits");
    let dt = SimDuration::from_millis(100);
    let mut now = SimTime::ZERO;
    let report = loop {
        let report = cluster.advance(now, dt);
        if !report.completed.is_empty() {
            break report;
        }
        assert!(report.failed.is_empty());
        now += dt;
    };
    assert_eq!(
        report.completed_members(),
        8,
        "everyone finished on one tick"
    );
    assert_eq!(
        report.completed.len(),
        4,
        "three requests and one cohort record"
    );
    assert!(report
        .completed
        .iter()
        .all(|c| c.response_time == report.completed[0].response_time));
    assert_eq!(cluster.total_in_flight(), 0);
}
