//! Trace-journal determinism gate and journal generator: replays the
//! chaos benchmark scenario with an enabled trace sink, proves the JSONL
//! journal is byte-identical across repeated seeded runs — likewise for the graph scenario's journal, which adds
//! per-hop span events — then writes `TRACE_journal.jsonl` /
//! `TRACE_journal.csv` / `TRACE_graph.jsonl` and prints the event-kind
//! census.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin trace [-- --full | --smoke]
//! ```

use std::collections::BTreeMap;

use hyscale_bench::scenarios::{chaos, graph, Scale};
use hyscale_core::{AlgorithmKind, ScenarioConfig, SimulationDriver};
use hyscale_trace::{export, RunMeta, TraceSink};

/// Ring capacity for the journal runs: large enough that the bench-scale
/// chaos scenario never wraps (wraparound is exercised by the test
/// battery, not here — the published journal should be complete).
const CAPACITY: usize = 1 << 18;

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

/// Runs the scenario with an enabled sink and serializes the journal.
fn traced_journal(
    config: &ScenarioConfig,
) -> Result<(TraceSink, String), Box<dyn std::error::Error>> {
    let mut sink = TraceSink::with_capacity(CAPACITY);
    SimulationDriver::run_traced(config, &mut sink)?;
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    let journal = export::jsonl(&sink, &meta);
    Ok((sink, journal))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale_from_args();

    let mut config = chaos(&scale, AlgorithmKind::HyScaleCpu);
    config.seed = scale.seeds[0];

    // Gate 1: repeating the seeded run reproduces the journal exactly.
    let (sink, journal) = traced_journal(&config)?;
    let (_, again) = traced_journal(&config)?;
    assert_eq!(
        journal, again,
        "trace journal diverged across repeated runs"
    );
    println!(
        "[determinism: repeated seed {} run, byte-identical JSONL]",
        config.seed
    );

    // Gate 2: tracing does not perturb the simulation.
    let untraced = SimulationDriver::run(&config)?;
    let mut disabled = TraceSink::disabled();
    let traced = SimulationDriver::run_traced(&config, &mut disabled)?;
    assert_eq!(
        format!("{untraced:?}"),
        format!("{traced:?}"),
        "tracing perturbed the run report"
    );
    println!("[isolation: traced and untraced reports are bit-identical]");

    // Gate 3: the graph scenario's journal — which adds per-hop span
    // events — is also byte-identical across repeated runs, and
    // actually contains spans.
    let mut graph_config = graph(&scale, AlgorithmKind::HyScaleCpu);
    graph_config.seed = scale.seeds[0];
    let (graph_sink, graph_journal) = traced_journal(&graph_config)?;
    let (_, graph_again) = traced_journal(&graph_config)?;
    assert_eq!(
        graph_journal, graph_again,
        "graph trace journal diverged across repeated runs"
    );
    let spans = graph_sink
        .events()
        .filter(|e| e.kind.label() == "span")
        .count();
    assert!(spans > 0, "graph journal carries no span events");
    println!("[determinism: graph journal byte-identical, {spans} spans]");

    std::fs::write("TRACE_journal.jsonl", &journal)?;
    std::fs::write("TRACE_journal.csv", export::csv(&sink))?;
    std::fs::write("TRACE_graph.jsonl", &graph_journal)?;
    println!("wrote TRACE_journal.jsonl + TRACE_journal.csv + TRACE_graph.jsonl");

    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for event in sink.events() {
        *census.entry(event.kind.label()).or_insert(0) += 1;
    }
    println!("\n=== Journal census ({} events retained) ===", sink.len());
    for (kind, count) in &census {
        println!("{kind:>18}  {count}");
    }
    println!(
        "{:>18}  {} (emitted {}, ring capacity {})",
        "dropped",
        sink.dropped(),
        sink.total_emitted(),
        CAPACITY
    );
    Ok(())
}
