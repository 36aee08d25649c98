//! Lifecycle and partitioning regression tests for the persistent
//! tick-worker pool: a panicking worker propagates instead of
//! deadlocking, `set_parallelism` resizes pool and scratch mid-run
//! without changing a bit of output, dropping a `Cluster` joins every
//! worker (no thread leak across repeated construction), and heavily
//! skewed container placement — the case container-weighted partitioning
//! exists for — stays byte-identical serial vs parallel and across
//! repeated runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

use hyscale::cluster::{
    Cluster, ClusterConfig, ContainerId, ContainerSpec, Cores, MemMb, NodeId, NodeSpec, Request,
    ServiceId, TickReport,
};
use hyscale::sim::{SimDuration, SimRng, SimTime};

const DT_MS: u64 = 100;

/// Every test in this file holds this lock for its whole body. The
/// thread-leak tests count every OS thread in the process, so a sibling
/// test spawning or joining its own pool at the same time would skew the
/// count.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panics while holding the lock poisons it; the guarded
    // data is `()`, so later tests can safely proceed.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small busy cluster: every node hosts replicas, every replica gets
/// seeded traffic each tick.
fn build_uniform(parallelism: usize, nodes: usize) -> (Cluster, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.set_parallelism(parallelism);
    let mut containers = Vec::new();
    for n in 0..nodes {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        for c in 0..2 {
            let service = ServiceId::new(((n * 2 + c) % 4) as u32);
            let spec = ContainerSpec::new(service)
                .with_cpu_request(Cores(1.0))
                .with_mem_limit(MemMb(256.0))
                .with_startup_secs(0.0);
            let id = cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("node exists");
            containers.push(id);
        }
    }
    (cluster, containers)
}

/// One node carrying ~10x the containers of every other node: the
/// skew that index-chunked partitioning handles badly.
fn build_skewed(parallelism: usize) -> (Cluster, Vec<ContainerId>) {
    let mut cluster = Cluster::new(ClusterConfig::default());
    cluster.set_parallelism(parallelism);
    let mut containers = Vec::new();
    let hot = cluster.add_node(NodeSpec::uniform_worker());
    for c in 0..20 {
        let spec = ContainerSpec::new(ServiceId::new((c % 5) as u32))
            .with_cpu_request(Cores(0.2))
            .with_mem_limit(MemMb(128.0))
            .with_startup_secs(0.0);
        containers.push(
            cluster
                .start_container(hot, spec, SimTime::ZERO)
                .expect("hot node fits"),
        );
    }
    for n in 0..7 {
        let node = cluster.add_node(NodeSpec::uniform_worker());
        let spec = ContainerSpec::new(ServiceId::new((n % 5) as u32))
            .with_cpu_request(Cores(1.0))
            .with_mem_limit(MemMb(256.0))
            .with_startup_secs(0.0);
        containers.push(
            cluster
                .start_container(node, spec, SimTime::ZERO)
                .expect("node fits"),
        );
    }
    (cluster, containers)
}

fn tick_traffic(cluster: &mut Cluster, containers: &[ContainerId], rng: &mut SimRng, now: SimTime) {
    for &id in containers {
        if rng.uniform_f64() < 0.7 {
            let service = cluster.container(id).expect("exists").spec().service;
            let request = Request::new(
                service,
                now,
                rng.uniform_range(0.01, 0.12),
                MemMb(4.0),
                rng.uniform_range(0.0, 1.0),
            );
            let _ = cluster.admit_request(id, request, now);
        }
    }
}

/// Number of OS threads in this process, from /proc (Linux CI and dev
/// boxes; the leak test is skipped elsewhere), once it has held still
/// for 20 ms. Right after a sibling test releases [`SERIAL`] its harness
/// thread is still exiting and the harness may start the next test's
/// thread, and a joined worker can stay counted for a moment after
/// `join` returns. A leaked thread never exits, so it still shows.
#[cfg(target_os = "linux")]
fn process_thread_count() -> usize {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .expect("Threads: line present")
    };
    let mut last = read();
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = read();
        if now == last {
            break;
        }
        last = now;
    }
    last
}

#[test]
fn worker_panic_propagates_instead_of_deadlocking() {
    let _serial = serial();
    let (mut cluster, containers) = build_uniform(4, 8);
    let mut rng = SimRng::seed_from(0xBAD);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    for _ in 0..5 {
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }

    // Poison a node near the end of the list so it lands on a pool
    // worker, not the coordinator's first partition.
    cluster.inject_tick_panic(Some(NodeId::new(7)));
    let at = now;
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(at, dt);
    }));
    let payload = result.expect_err("poisoned tick must panic, not hang");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("injected tick panic"), "got: {msg}");

    // The pool survived the unwind: it keeps propagating...
    let again = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(at, dt);
    }));
    assert!(again.is_err(), "second poisoned tick must panic too");

    // ...and once the poison is cleared, ticks run normally again and
    // the cluster can be dropped without hanging on a stuck worker.
    cluster.inject_tick_panic(None);
    for _ in 0..5 {
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }
}

#[test]
fn serial_poison_panics_identically() {
    let _serial = serial();
    // The hook goes through the same code path serially, so the panic
    // contract does not depend on the pool.
    let (mut cluster, _) = build_uniform(1, 4);
    cluster.inject_tick_panic(Some(NodeId::new(2)));
    let result = catch_unwind(AssertUnwindSafe(|| {
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
    }));
    assert!(result.is_err());
}

#[test]
fn reconfiguring_parallelism_mid_run_is_bit_identical() {
    let _serial = serial();
    // A resize schedule that moves up, down, to serial, and oversubscribed.
    let schedule: &[(usize, usize)] = &[(0, 1), (50, 4), (100, 2), (150, 8), (200, 1), (250, 3)];
    let drive = |resizes: bool| -> (Vec<TickReport>, Vec<String>) {
        let (mut cluster, containers) = build_uniform(1, 9);
        let mut rng = SimRng::seed_from(0x5EED);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for tick in 0..300 {
            if resizes {
                if let Some(&(_, workers)) = schedule.iter().find(|&&(at, _)| at == tick) {
                    cluster.set_parallelism(workers);
                }
            }
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        let usage = containers
            .iter()
            .map(|&id| format!("{:?}", cluster.container_usage(id)))
            .collect();
        (reports, usage)
    };
    let (serial_reports, serial_usage) = drive(false);
    let (resized_reports, resized_usage) = drive(true);
    for (tick, (s, p)) in serial_reports.iter().zip(&resized_reports).enumerate() {
        assert_eq!(s, p, "tick {tick} diverged after a resize");
    }
    assert_eq!(serial_usage, resized_usage, "final usage diverged");
}

#[test]
fn repeated_reconfiguration_does_not_accumulate_threads() {
    let _serial = serial();
    let (mut cluster, containers) = build_uniform(4, 6);
    let mut rng = SimRng::seed_from(0x7EAD);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    // Churn the pool size; each resize joins the old pool first.
    for round in 0..20 {
        cluster.set_parallelism(1 + (round % 5));
        tick_traffic(&mut cluster, &containers, &mut rng, now);
        cluster.advance(now, dt);
        now += dt;
    }
    #[cfg(target_os = "linux")]
    {
        cluster.set_parallelism(3);
        cluster.advance(now, dt);
        let with_pool = process_thread_count();
        cluster.set_parallelism(1);
        let serial_again = process_thread_count();
        assert_eq!(
            serial_again,
            with_pool - 2,
            "shrinking to serial joins the pool's 2 threads"
        );
    }
}

#[test]
#[cfg(target_os = "linux")]
fn dropping_clusters_joins_all_workers() {
    let _serial = serial();
    // Warm up allocators/runtime threads, then measure the baseline.
    {
        let (mut cluster, _) = build_uniform(4, 6);
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
    }
    let baseline = process_thread_count();
    for _ in 0..25 {
        let (mut cluster, containers) = build_uniform(4, 6);
        let mut rng = SimRng::seed_from(0xD20B);
        tick_traffic(&mut cluster, &containers, &mut rng, SimTime::ZERO);
        cluster.advance(SimTime::ZERO, SimDuration::from_millis(DT_MS));
        drop(cluster);
    }
    let after = process_thread_count();
    assert_eq!(
        baseline, after,
        "thread count grew across 25 construct/drop cycles"
    );
}

#[test]
fn cloned_cluster_respawns_its_own_pool_and_matches() {
    let _serial = serial();
    let (mut original, containers) = build_uniform(4, 8);
    let mut rng = SimRng::seed_from(0xC10E);
    let dt = SimDuration::from_millis(DT_MS);
    let mut now = SimTime::ZERO;
    for _ in 0..20 {
        tick_traffic(&mut original, &containers, &mut rng, now);
        original.advance(now, dt);
        now += dt;
    }
    // The clone shares no threads with the original, but advancing both
    // with the same traffic must stay bit-identical.
    let mut clone = original.clone();
    let mut rng_a = SimRng::seed_from(0xF00D);
    let mut rng_b = SimRng::seed_from(0xF00D);
    for _ in 0..20 {
        tick_traffic(&mut original, &containers, &mut rng_a, now);
        tick_traffic(&mut clone, &containers, &mut rng_b, now);
        let a = original.advance(now, dt);
        let b = clone.advance(now, dt);
        assert_eq!(a, b, "clone diverged from original");
        now += dt;
    }
}

#[test]
fn skewed_cluster_is_bit_identical_serial_vs_parallel() {
    let _serial = serial();
    let drive = |parallelism: usize| -> (Vec<TickReport>, Vec<String>) {
        let (mut cluster, containers) = build_skewed(parallelism);
        let mut rng = SimRng::seed_from(0x0DD);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for _ in 0..250 {
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        let usage = containers
            .iter()
            .map(|&id| format!("{:?}", cluster.container_usage(id)))
            .collect();
        (reports, usage)
    };
    let (serial_reports, serial_usage) = drive(1);
    for workers in [2, 4, 8] {
        let (par_reports, par_usage) = drive(workers);
        for (tick, (s, p)) in serial_reports.iter().zip(&par_reports).enumerate() {
            assert_eq!(s, p, "tick {tick} diverged at {workers} workers");
        }
        assert_eq!(
            serial_usage, par_usage,
            "usage diverged at {workers} workers"
        );
    }
}

#[test]
fn skewed_cluster_partition_is_stable_across_repeats() {
    let _serial = serial();
    // The weighted partition is a pure function of cluster state, so two
    // identical seeded runs must produce byte-identical reports *and*
    // identical wall-clock-independent state at every tick — rerunning
    // is the observable form of "the partition is stable".
    let run = |seed: u64| -> Vec<TickReport> {
        let (mut cluster, containers) = build_skewed(4);
        let mut rng = SimRng::seed_from(seed);
        let dt = SimDuration::from_millis(DT_MS);
        let mut now = SimTime::ZERO;
        let mut reports = Vec::new();
        for _ in 0..200 {
            tick_traffic(&mut cluster, &containers, &mut rng, now);
            reports.push(cluster.advance(now, dt));
            now += dt;
        }
        reports
    };
    assert_eq!(run(0x11), run(0x11), "same seed must replay identically");
    assert_ne!(run(0x11), run(0x22), "different seeds must actually differ");
}
