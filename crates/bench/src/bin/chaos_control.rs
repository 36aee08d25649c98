//! Chaos-control experiment: the chaos fault storm run through an
//! *unreliable control plane* (lossy/delayed/duplicated stat reports,
//! failable actuations), comparing all four algorithms' SLO violations
//! and availability against the same storm over a healthy link.
//!
//! Also gates determinism: the degraded run's trace journal must be
//! byte-identical across repeated runs (every control-plane RNG draw
//! comes from a seeded stream).
//!
//! Writes the comparison to `results/chaos_control[_full].txt`.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin chaos_control [-- --full | --smoke]
//! ```

use std::fmt::Write as _;

use hyscale_bench::runner::{perf_table, sla_table, sweep_all, FigureRow};
use hyscale_bench::scenarios::{chaos_control, Scale};
use hyscale_core::{AlgorithmKind, ScenarioConfig, SimulationDriver};
use hyscale_metrics::Table;
use hyscale_trace::{export, RunMeta, TraceSink};

/// Ring capacity for the journal gate: large enough that the bench-scale
/// scenario never wraps.
const CAPACITY: usize = 1 << 18;

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

/// Control-plane health columns: what the degradation did and what the
/// resilience machinery absorbed.
fn control_plane_table(rows: &[FigureRow]) -> Table {
    let mut table = Table::new(vec![
        "algorithm",
        "lost",
        "late",
        "dup",
        "act fails",
        "retries",
        "deduped",
        "abandoned",
        "breaker opens",
        "safe-mode periods",
        "stale vetoes",
    ]);
    for row in rows {
        let cp = &row.report.control_plane;
        table.row(vec![
            row.algorithm.label().to_string(),
            cp.reports_lost.to_string(),
            cp.reports_late.to_string(),
            cp.reports_duplicated.to_string(),
            cp.actuation_failures.to_string(),
            cp.actuation_retries.to_string(),
            cp.actuations_deduped.to_string(),
            cp.actuations_abandoned.to_string(),
            cp.breaker_opens.to_string(),
            cp.safe_mode_periods.to_string(),
            cp.stale_vetoes.to_string(),
        ]);
    }
    table
}

fn availability_table(rows: &[FigureRow]) -> Table {
    let mut table = Table::new(vec![
        "algorithm",
        "min uptime %",
        "max mttr (s)",
        "respawns",
        "recovery fails",
    ]);
    for row in rows {
        let r = &row.report;
        table.row(vec![
            row.algorithm.label().to_string(),
            format!("{:.3}", r.min_uptime_pct()),
            format!("{:.1}", r.max_mttr_secs()),
            r.total_respawns().to_string(),
            r.total_recovery_failures().to_string(),
        ]);
    }
    table
}

/// Runs the scenario with an enabled sink and serializes the journal.
fn traced_journal(config: &ScenarioConfig) -> Result<String, Box<dyn std::error::Error>> {
    let mut sink = TraceSink::with_capacity(CAPACITY);
    SimulationDriver::run_traced(config, &mut sink)?;
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    Ok(export::jsonl(&sink, &meta))
}

fn arm_section(title: &str, rows: &[FigureRow], out: &mut String) -> Result<(), std::fmt::Error> {
    writeln!(out, "\n=== {title} ===")?;
    writeln!(out, "{}", perf_table(rows))?;
    writeln!(out, "{}", sla_table(rows))?;
    writeln!(out, "{}", availability_table(rows))?;
    writeln!(out, "{}", control_plane_table(rows))?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (scale, label) = scale_from_args();

    // Determinism gate: the degraded control plane draws all its chaos
    // from seeded streams, so repeating the run must reproduce its trace
    // journal byte for byte.
    let mut config = chaos_control(&scale, AlgorithmKind::HyScaleCpu, true);
    config.seed = scale.seeds[0];
    let first = traced_journal(&config)?;
    let again = traced_journal(&config)?;
    assert_eq!(
        first, again,
        "degraded control-plane journal diverged across repeated runs"
    );
    println!("[determinism: degraded run repeated, byte-identical JSONL]");

    let healthy = sweep_all(|k| chaos_control(&scale, k, false), &scale.seeds)?;
    let degraded = sweep_all(|k| chaos_control(&scale, k, true), &scale.seeds)?;

    let mut out = String::new();
    arm_section(
        "Chaos-control: healthy control plane (fault storm only)",
        &healthy,
        &mut out,
    )?;
    arm_section(
        "Chaos-control: degraded control plane (5% loss, 10% delay<=2, 2% dup, 5% act-fail)",
        &degraded,
        &mut out,
    )?;
    writeln!(
        out,
        "expectation: the degraded arm loses some SLO headroom (stale views"
    )?;
    writeln!(
        out,
        "delay scaling; failed actuations retry with backoff) but safe mode,"
    )?;
    writeln!(
        out,
        "staleness vetoes, idempotent retries, and circuit breakers keep"
    )?;
    writeln!(
        out,
        "availability close to the healthy arm — degradation must not cascade."
    )?;
    print!("{out}");

    let path = if label == "full" {
        "results/chaos_control_full.txt".to_string()
    } else {
        format!("results/chaos_control_{label}.txt")
    };
    if std::fs::create_dir_all("results").is_ok() {
        std::fs::write(&path, &out)?;
        println!("[written: {path}]");
    }
    Ok(())
}
