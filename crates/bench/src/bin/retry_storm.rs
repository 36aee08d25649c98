//! Retry-storm experiment: the three-tier call graph under a seeded
//! fault storm, with per-hop retries enabled, run in two arms — one
//! with no brakes (unlimited retries, no deadline, no shedding) and one
//! with the full resilience kit (10% retry budget, 30 s root deadline,
//! admission shedding). Reports the goodput-vs-wasted-work split per
//! algorithm for both arms, plus a repeat-run bit-identity check of the whole resilience path (backoff jitter,
//! token buckets, deadlines, shedding). Writes the two arms' tables to
//! `results/retry_storm_{smoke,quick,full}.txt`.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin retry_storm [-- --full | --smoke]
//! ```

use std::fmt::Write as _;

use hyscale_bench::runner::{perf_table, sweep_all, FigureRow};
use hyscale_bench::scenarios::{retry_storm, Scale};
use hyscale_core::{AlgorithmKind, SimulationDriver};
use hyscale_metrics::Table;

/// The resilience scoreboard: how much retrying happened, which brake
/// stopped it, and whether the work that completed was worth doing.
fn resilience_table(rows: &[FigureRow]) -> Table {
    let mut table = Table::new(vec![
        "algorithm",
        "retries",
        "retried members",
        "budget out",
        "deadline out",
        "shed roots",
        "goodput",
        "wasted",
        "goodput %",
    ]);
    for row in rows {
        let r = &row.report.resilience;
        table.row(vec![
            row.algorithm.label().to_string(),
            r.retries.to_string(),
            r.retried_members.to_string(),
            r.budget_exhausted.to_string(),
            r.deadline_exceeded.to_string(),
            r.shed_roots.to_string(),
            r.goodput_members.to_string(),
            r.wasted_members.to_string(),
            format!("{:.2}", r.goodput_pct()),
        ]);
    }
    table
}

/// What the two arms should show, printed after their tables.
const EXPECTATION: &str = "\
expectation: both arms face the identical fault storm and
retry policy. Without brakes, failed bursts re-enter the
struggling tiers as fresh load, so retries snowball and a
growing share of completed work belongs to roots that fail
anyway — goodput % collapses. With the budget, deadline, and
shedding engaged, retries are capped at a fixed fraction of
successes and hopeless roots are cut early, so wasted work
stays bounded and goodput % recovers.
";

fn scale_from_args() -> (Scale, &'static str) {
    if std::env::args().any(|a| a == "--full") {
        println!("[scale: full — 19 workers, 15 services, 3600 s, 5 seeds]");
        (Scale::full(), "full")
    } else if std::env::args().any(|a| a == "--smoke") {
        println!("[scale: smoke — 4 workers, 3 services, 300 s, 1 seed]");
        (Scale::bench(), "smoke")
    } else {
        println!("[scale: quick — pass --full for the paper-size run]");
        (Scale::quick(), "quick")
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (scale, label) = scale_from_args();

    // Determinism gate: every resilience mechanism draws from a
    // dedicated seeded RNG stream, so the storm must be bit-identical
    // across repeated runs.
    let mut config = retry_storm(&scale, AlgorithmKind::HyScaleCpu, true);
    config.seed = scale.seeds[0];
    let a = SimulationDriver::run(&config)?;
    let b = SimulationDriver::run(&config)?;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "retry-storm run diverged across repeated identical runs"
    );
    println!("[determinism: repeated run, bit-identical]");
    assert!(
        a.resilience.retries > 0,
        "the storm must actually trigger retries"
    );

    let mut out = String::new();
    for budgeted in [false, true] {
        let rows = sweep_all(|k| retry_storm(&scale, k, budgeted), &scale.seeds)?;
        let arm = if budgeted {
            "budgeted: 10% retry budget, 30 s root deadline, admission shedding"
        } else {
            "unbudgeted: unlimited retries, no deadline, no shedding"
        };
        if budgeted {
            out.push('\n');
        }
        writeln!(out, "=== Retry storm ({arm}) ===")?;
        writeln!(out, "{}", perf_table(&rows))?;
        writeln!(out, "{}", resilience_table(&rows))?;
    }
    out.push_str(EXPECTATION);
    print!("\n{out}");

    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/retry_storm_{label}.txt"), &out)?;
    Ok(())
}
