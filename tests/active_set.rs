//! Differential and property tests for the active-set tick engine:
//! a cluster ticked with the lazy active-set engine must be
//! *bit-identical* to the full-scan reference engine under arbitrary
//! admit/remove/fault/recovery churn — same per-tick reports, same
//! snapshot bytes — and the active set itself must satisfy the park
//! invariant (no node that needs per-tick simulation is ever parked, and
//! every parked node is provably idle).

use hyscale::cluster::{
    Cluster, ClusterConfig, Cohort, ContainerId, ContainerSpec, Cores, MemMb, NodeId, NodeSpec,
    Request, ServiceId,
};
use hyscale::core::{AlgorithmKind, ScenarioBuilder};
use hyscale::sim::{SimDuration, SimRng, SimTime, SnapWriter};
use hyscale::workload::{LoadPattern, ServiceProfile};

const NODES: usize = 8;
const SERVICES: u32 = 3;

/// Twin clusters that only differ in the `active_set` engine flag.
fn twins() -> (Cluster, Cluster) {
    let enabled_cfg = ClusterConfig::default();
    assert!(enabled_cfg.active_set, "active set should default on");
    let disabled_cfg = ClusterConfig {
        active_set: false,
        ..ClusterConfig::default()
    };
    let mut enabled = Cluster::new(enabled_cfg);
    let mut disabled = Cluster::new(disabled_cfg);
    for _ in 0..NODES {
        enabled.add_node(NodeSpec::uniform_worker());
        disabled.add_node(NodeSpec::uniform_worker());
    }
    (enabled, disabled)
}

/// Applies one churn op to both clusters and asserts identical outcomes.
/// `containers` tracks ids the op stream may target (including removed
/// ones — errors must match too).
fn churn(
    rng: &mut SimRng,
    enabled: &mut Cluster,
    disabled: &mut Cluster,
    containers: &mut Vec<ContainerId>,
    now: SimTime,
) {
    match rng.uniform_usize(12) {
        0 | 1 => {
            let node = NodeId::new(rng.uniform_usize(NODES) as u32);
            let svc = ServiceId::new(rng.uniform_usize(SERVICES as usize) as u32);
            let spec = ContainerSpec::new(svc)
                .with_queue_cap(64)
                .with_startup_secs(if rng.uniform_usize(3) == 0 { 0.3 } else { 0.0 });
            let a = enabled.start_container(node, spec.clone(), now);
            let b = disabled.start_container(node, spec, now);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            if let Ok(id) = a {
                containers.push(id);
            }
        }
        2 if !containers.is_empty() => {
            let id = containers[rng.uniform_usize(containers.len())];
            let a = enabled.remove_container(id, now);
            let b = disabled.remove_container(id, now);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        3..=6 if !containers.is_empty() => {
            let id = containers[rng.uniform_usize(containers.len())];
            let svc = ServiceId::new(rng.uniform_usize(SERVICES as usize) as u32);
            let req = Request::new(svc, now, rng.uniform_range(0.01, 0.1), MemMb(2.0), 0.0);
            let a = enabled.admit_request(id, req.clone(), now);
            let b = disabled.admit_request(id, req, now);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        7 if !containers.is_empty() => {
            let id = containers[rng.uniform_usize(containers.len())];
            let svc = ServiceId::new(rng.uniform_usize(SERVICES as usize) as u32);
            let count = 1 + rng.uniform_usize(16) as u64;
            let cohort = Cohort::new(
                svc,
                now,
                count,
                rng.uniform_range(0.005, 0.05),
                MemMb(0.5),
                0.0,
            );
            let a = enabled.admit_cohort(id, cohort.clone(), now);
            let b = disabled.admit_cohort(id, cohort, now);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        8 => {
            // Fault: crash a node (all its replicas die) …
            let node = NodeId::new(rng.uniform_usize(NODES) as u32);
            let a = enabled.crash_node(node, now);
            let b = disabled.crash_node(node, now);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        9 => {
            // … recovery: reboot it (containers did not survive).
            let node = NodeId::new(rng.uniform_usize(NODES) as u32);
            let a = enabled.reboot_node(node);
            let b = disabled.reboot_node(node);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        10 => {
            let node = NodeId::new(rng.uniform_usize(NODES) as u32);
            let f = rng.uniform_range(0.3, 1.0);
            let a = enabled.set_nic_factor(node, f);
            let b = disabled.set_nic_factor(node, f);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        11 if !containers.is_empty() => {
            let id = containers[rng.uniform_usize(containers.len())];
            let cpu = Cores(rng.uniform_range(0.2, 1.5));
            let mem = MemMb(rng.uniform_range(128.0, 512.0));
            let a = enabled.update_container(id, cpu, mem);
            let b = disabled.update_container(id, cpu, mem);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        _ => {}
    }
}

/// The park invariant, brute-forced from raw container state:
/// * soundness — every node that needs per-tick simulation (anything in
///   flight, a slot still starting up, or a live antagonist) is in the
///   active set;
/// * safety — every node *outside* the active set is provably idle, so
///   the closed-form replay is valid.
fn assert_active_set_invariant(cluster: &Cluster, now: SimTime, tick: u64) {
    let active = cluster.active_node_indices();
    let is_active = |idx: u32| active.binary_search(&idx).is_ok();
    // Per-node flags brute-forced from raw container state.
    let mut needs_tick = [false; NODES];
    let mut idle_parkable = [true; NODES];
    for c in cluster.containers() {
        let n = c.node().as_usize();
        if c.in_flight_count() > 0 || c.ready_at() > now || (c.spec().antagonist && c.live(now)) {
            needs_tick[n] = true;
        }
        if c.in_flight_count() > 0 || c.spec().antagonist || c.ready_at() > now {
            idle_parkable[n] = false;
        }
    }
    for idx in 0..NODES {
        if needs_tick[idx] {
            assert!(
                is_active(idx as u32),
                "tick {tick}: node {idx} needs simulation but is parked"
            );
        }
        if !is_active(idx as u32) {
            assert!(
                idle_parkable[idx],
                "tick {tick}: node {idx} is parked but not provably idle"
            );
        }
    }
}

/// Snapshot bytes of a cluster, flushing lazy state on a clone first so
/// the original's parked nodes stay parked.
fn snapshot_bytes(cluster: &Cluster) -> Vec<u8> {
    let mut clone = cluster.clone();
    clone.flush_pending();
    let mut w = SnapWriter::new();
    clone.snapshot_write(&mut w);
    w.finish()
}

fn run_twin(seed: u64) {
    let mut rng = SimRng::seed_from(seed);
    let (mut enabled, mut disabled) = twins();
    let mut containers = Vec::new();
    let mut now = SimTime::ZERO;
    let mut dt = SimDuration::from_millis(100);

    for tick in 0..400u64 {
        // Exercise the dt-constancy flush: the span length changes
        // mid-run and parked spans must replay under the old dt.
        if tick == 173 {
            dt = SimDuration::from_millis(50);
        }
        churn(&mut rng, &mut enabled, &mut disabled, &mut containers, now);

        let ra = enabled.advance(now, dt);
        let rb = disabled.advance(now, dt);
        assert_eq!(ra, rb, "tick {tick} diverged (seed {seed:#x})");
        assert_eq!(enabled.total_in_flight(), disabled.total_in_flight());
        now += dt;

        assert_active_set_invariant(&enabled, now, tick);

        if tick % 50 == 49 {
            assert_eq!(
                snapshot_bytes(&enabled),
                snapshot_bytes(&disabled),
                "tick {tick}: snapshot bytes diverged (seed {seed:#x})"
            );
        }
    }

    // Final full-state comparison after draining everything.
    enabled.flush_pending();
    assert_eq!(snapshot_bytes(&enabled), snapshot_bytes(&disabled));
}

#[test]
fn active_set_engine_is_bit_identical_under_churn() {
    for &seed in &[0xAC71u64, 0xBEEF, 0x5EED] {
        run_twin(seed);
    }
}

/// Driver-level twin: full scenario runs (scaling, recovery, faults)
/// across all four benchmark algorithms must produce identical
/// reports with the active-set engine on and off.
#[test]
fn driver_reports_identical_with_and_without_active_set() {
    let run = |kind: AlgorithmKind, active_set: bool| {
        ScenarioBuilder::new("active-set-twin")
            .nodes(6)
            .services(
                3,
                ServiceProfile::Mixed,
                LoadPattern::high_burst().scaled(6.0),
            )
            .algorithm(kind)
            .duration_secs(90.0)
            .seed(11)
            .cluster_config(ClusterConfig {
                active_set,
                ..ClusterConfig::default()
            })
            .run()
            .expect("scenario runs")
    };
    for kind in [
        AlgorithmKind::Kubernetes,
        AlgorithmKind::Network,
        AlgorithmKind::HyScaleCpu,
        AlgorithmKind::HyScaleCpuMem,
    ] {
        let on = run(kind, true);
        let off = run(kind, false);
        assert_eq!(
            format!("{on:?}"),
            format!("{off:?}"),
            "algorithm {kind:?} diverged between engines"
        );
    }
}
