//! Chaos experiment: the CPU-bound high-burst workload under a seeded
//! storm of infrastructure faults (node crashes + reboots, OOM-kills,
//! NIC degradation, stat outages), reporting availability — uptime %,
//! MTTR, recovery counts — per algorithm, plus a repeat-run
//! bit-identity check of the fault path.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin chaos [-- --full | --smoke]
//! ```

use hyscale_bench::runner::{perf_table, sweep_all, FigureRow};
use hyscale_bench::scenarios::{chaos, Scale};
use hyscale_core::{AlgorithmKind, SimulationDriver};
use hyscale_metrics::Table;

/// Availability columns the standard perf table doesn't carry.
fn availability_table(rows: &[FigureRow]) -> Table {
    let mut table = Table::new(vec![
        "algorithm",
        "min uptime %",
        "max mttr (s)",
        "deaths",
        "respawns",
        "recovery fails",
        "crashes",
        "oom-kills",
    ]);
    for row in rows {
        let r = &row.report;
        let deaths: u64 = r.availability.values().map(|a| a.deaths).sum();
        table.row(vec![
            row.algorithm.label().to_string(),
            format!("{:.3}", r.min_uptime_pct()),
            format!("{:.1}", r.max_mttr_secs()),
            deaths.to_string(),
            r.total_respawns().to_string(),
            r.total_recovery_failures().to_string(),
            r.faults.node_crashes.to_string(),
            r.faults.oom_kills.to_string(),
        ]);
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

    // Determinism gate: repeating the same seeded chaos run must
    // reproduce its report bit for bit.
    let mut config = chaos(&scale, AlgorithmKind::HyScaleCpu);
    config.seed = scale.seeds[0];
    let a = SimulationDriver::run(&config)?;
    let b = SimulationDriver::run(&config)?;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "chaos run diverged across repeated identical runs"
    );
    println!("[determinism: repeated run, bit-identical]");

    let rows = sweep_all(|k| chaos(&scale, k), &scale.seeds)?;
    println!("\n=== Chaos: CPU-bound high-burst + fault storm ===");
    println!("{}", perf_table(&rows));
    println!("{}", availability_table(&rows));
    println!("expectation: uptime stays high (paper claims >= 99.8% on healthy");
    println!("hardware); MTTR is bounded by the recovery backoff, and every");
    println!("algorithm faces the identical seeded fault sequence.");
    Ok(())
}
