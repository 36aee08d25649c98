//! Service-graph experiment: the CPU-bound low-burst workload rewired as
//! a three-tier call graph (frontends → aggregators → backends), with
//! client load attached only to the entry points and downstream tiers
//! driven purely by completed parent hops. Reports per-entry-point
//! end-to-end latency (p95/p99 over whole roots, not individual hops)
//! per algorithm, plus a repeat-run bit-identity check of the graph
//! path.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin graph [-- --full | --smoke]
//! ```

use hyscale_bench::runner::{perf_table, sweep_all, FigureRow};
use hyscale_bench::scenarios::{graph, Scale};
use hyscale_core::{AlgorithmKind, SimulationDriver};
use hyscale_metrics::Table;

/// Per-entry-point end-to-end outcomes, which the per-hop perf table
/// cannot attribute: a root only counts as completed when every
/// downstream hop finished.
fn entry_table(rows: &[FigureRow]) -> Table {
    let mut table = Table::new(vec![
        "algorithm",
        "entry",
        "roots ok",
        "roots failed",
        "e2e mean (ms)",
        "e2e p95 (ms)",
        "e2e p99 (ms)",
    ]);
    for row in rows {
        for entry in &row.report.entry_points {
            table.row(vec![
                row.algorithm.label().to_string(),
                entry.service.to_string(),
                entry.roots_completed.to_string(),
                entry.roots_failed.to_string(),
                format!("{:.1}", entry.e2e_secs.mean() * 1e3),
                format!("{:.1}", entry.p95_secs() * 1e3),
                format!("{:.1}", entry.p99_secs() * 1e3),
            ]);
        }
    }
    table
}

fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        println!("[scale: full — 19 workers, 15 services, 3600 s, 5 seeds]");
        Scale::full()
    } else if std::env::args().any(|a| a == "--smoke") {
        println!("[scale: smoke — 4 workers, 3 services, 300 s, 1 seed]");
        Scale::bench()
    } else {
        println!("[scale: quick — pass --full for the paper-size run]");
        Scale::quick()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();

    // Determinism gate: the graph path (child-hop admission, root
    // resolution) must reproduce its report bit for bit on a repeat.
    let mut config = graph(&scale, AlgorithmKind::HyScaleCpu);
    config.seed = scale.seeds[0];
    let a = SimulationDriver::run(&config)?;
    let b = SimulationDriver::run(&config)?;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "graph run diverged across repeated identical runs"
    );
    println!("[determinism: repeated run, bit-identical]");
    assert!(
        !a.entry_points.is_empty(),
        "graph run must report entry-point stats"
    );

    let rows = sweep_all(|k| graph(&scale, k), &scale.seeds)?;
    println!("\n=== Graph: three-tier call-graph, CPU-bound low-burst ===");
    println!("{}", perf_table(&rows));
    println!("{}", entry_table(&rows));
    println!("expectation: per-hop response times stay close to the flat");
    println!("fig-6 scenario, while end-to-end latency stacks the tiers —");
    println!("a root is only as fast as its slowest backend branch, so the");
    println!("e2e p99 amplifies whichever tier an algorithm under-scales.");
    Ok(())
}
