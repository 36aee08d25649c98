//! The traced pass: a journal pass through `run_traced`, then the layer
//! pass. Run separately from the end-to-end pass, so no end-to-end metric
//! carries tracing cost.

use std::time::Instant;

use hyscale_core::{RunReport, ScenarioConfig, SimulationDriver, SnapshotPolicy};
use hyscale_metrics::Summary;
use hyscale_trace::{export, EventKind, RunMeta, TraceSink};

use crate::checks;
use crate::layers::{drive, Clock, Layer, Tally};
use crate::output::Outcome;
use crate::untraced::timed_pass;
use crate::workloads::{build, ticks};
use crate::Settings;

/// First journal capacity tried; a run that overflows it is rerun with
/// room for every event it emitted, so the journal is never truncated.
const FIRST_CAPACITY: usize = 1 << 18;

/// What the journal pass gathers over a workload's runs.
#[derive(Debug, Default)]
struct Journal {
    untraced_secs: f64,
    traced_secs: f64,
    events: u64,
    dropped: u64,
    export_secs: f64,
    jsonl_bytes: u64,
    hops: u64,
    hop_queue_ms: Summary,
    hop_service_ms: Summary,
}

/// Runs `config` traced with a journal big enough to hold every event.
fn traced_run(config: &ScenarioConfig) -> Result<(TraceSink, RunReport, f64), String> {
    let mut capacity = FIRST_CAPACITY;
    loop {
        let mut sink = TraceSink::with_capacity(capacity);
        let start = Instant::now();
        let report = SimulationDriver::run_traced(config, &mut sink)
            .map_err(|e| format!("{}: traced run: {e}", config.name))?;
        let secs = start.elapsed().as_secs_f64();
        if sink.dropped() == 0 {
            return Ok((sink, report, secs));
        }
        capacity = usize::try_from(sink.total_emitted()).map_err(|e| e.to_string())?;
    }
}

/// Journal pass over one run: untraced and traced (compared), span
/// statistics, and the JSONL export. Only one report is held at a time.
fn journal_one(
    config: &ScenarioConfig,
    journal: &mut Journal,
    out: &mut Outcome,
) -> Option<RunReport> {
    let start = Instant::now();
    let untraced = match SimulationDriver::run(config) {
        Ok(r) => r,
        Err(e) => {
            out.check(Err(format!("{}: {e}", config.name)));
            return None;
        }
    };
    journal.untraced_secs += start.elapsed().as_secs_f64();
    out.check(checks::conservation(&untraced));
    let print = checks::fingerprint(&untraced);
    drop(untraced);
    let (sink, traced, secs) = match traced_run(config) {
        Ok(run) => run,
        Err(e) => {
            out.check(Err(e));
            return None;
        }
    };
    journal.traced_secs += secs;
    out.check(checks::reproduces("traced", print, &traced));
    journal.events += sink.total_emitted();
    journal.dropped += sink.dropped();
    for event in sink.events() {
        if let EventKind::Span {
            queue_us,
            service_us,
            ..
        } = event.kind
        {
            journal.hops += 1;
            journal.hop_queue_ms.record(queue_us as f64 / 1e3);
            journal.hop_service_ms.record(service_us as f64 / 1e3);
        }
    }
    let meta = RunMeta {
        scenario: &config.name,
        seed: config.seed,
        algorithm: config.algorithm.label(),
    };
    let start = Instant::now();
    let jsonl = export::jsonl(&sink, &meta);
    journal.export_secs += start.elapsed().as_secs_f64();
    journal.jsonl_bytes += jsonl.len() as u64;
    Some(traced)
}

/// Size of a full `SimulationDriver` checkpoint taken halfway through
/// `config`: everything a resumable run must carry, outcome ledgers
/// included.
fn checkpoint_bytes(config: &ScenarioConfig, settings: &Settings) -> Result<u64, String> {
    let half = (ticks(config) / 2).max(1);
    let policy = SnapshotPolicy {
        every_ticks: half,
        dir: settings.scratch.join("checkpoint"),
        halt_after_first: true,
    };
    let mut halted = config.clone();
    halted.snapshot = Some(policy.clone());
    SimulationDriver::run(&halted).map_err(|e| format!("{}: checkpoint: {e}", config.name))?;
    let file = policy.file_for(half);
    let len = std::fs::metadata(&file)
        .map_err(|e| format!("{}: {e}", file.display()))?
        .len();
    Ok(len)
}

/// The traced pass over the workload.
pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let plan = build(
        settings.workload,
        settings.size,
        settings.seed,
        &settings.scratch,
    );

    // The sweep the end-to-end pass times, once, for its efficiency.
    let sweep_secs = match timed_pass(&plan) {
        Ok((_, secs)) => secs,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };

    // Journal pass, one config at a time.
    let mut journal = Journal::default();
    let mut reports = Vec::new();
    for config in plan.seeded() {
        if let Some(report) = journal_one(&config, &mut journal, &mut out) {
            reports.push(report);
        }
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(plan.runs.len());
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    out.set(
        "graph.roots",
        sum(&|r| r.entry_points.iter().map(|e| e.roots_started).sum()),
    );
    out.set("graph.hops", journal.hops as f64);
    out.set(
        "graph.hop_queue_ms_p99",
        journal.hop_queue_ms.percentile(99.0),
    );
    out.set(
        "graph.hop_service_ms_p99",
        journal.hop_service_ms.percentile(99.0),
    );
    out.set("resilience.retries", sum(&|r| r.resilience.retries));
    out.set(
        "resilience.shed_members",
        sum(&|r| r.resilience.shed_members),
    );
    let goodput = sum(&|r| r.resilience.goodput_members);
    let goodput_base = goodput + sum(&|r| r.resilience.wasted_members);
    out.set(
        "resilience.goodput_pct",
        if goodput_base > 0.0 {
            100.0 * goodput / goodput_base
        } else {
            100.0
        },
    );
    println!(
        "journal: goodput base {goodput_base} completed members under resolved roots; \
         hop percentiles over {} span records",
        journal.hops
    );
    out.set(
        "controlplane.reports_lost",
        sum(&|r| r.control_plane.reports_lost),
    );
    out.set(
        "controlplane.actuation_retries",
        sum(&|r| r.control_plane.actuation_retries),
    );
    out.set("recovery.respawns", sum(&|r| r.total_respawns()));
    out.set("faults.applied", sum(&|r| r.faults.total_applied()));
    out.set(
        "runner.sweep_efficiency",
        journal.untraced_secs / (workers as f64 * sweep_secs),
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (journal.traced_secs - journal.untraced_secs) / journal.untraced_secs,
    );
    out.set("trace.events", journal.events as f64);
    out.set("trace.dropped", journal.dropped as f64);
    out.set("trace.export_s", journal.export_secs);
    out.set("trace.jsonl_bytes", journal.jsonl_bytes as f64);
    drop(reports);

    let first = plan.seeded().next().expect("every workload has a run");
    match checkpoint_bytes(&first, settings) {
        Ok(bytes) => out.set("snapshot.bytes", bytes as f64),
        Err(e) => out.check(Err(e)),
    }

    // Layer pass, one config at a time.
    let mut clock = Clock::default();
    let mut tally = Tally::default();
    for config in plan.seeded() {
        out.check(drive(&config, &mut clock, &mut tally));
    }
    layer_metrics(&clock, &tally, &mut out);
    out
}

fn layer_metrics(clock: &Clock, tally: &Tally, out: &mut Outcome) {
    for layer in Layer::ALL {
        let h = clock.hist(layer);
        println!(
            "layer {:<18} self {:>10.4} s  calls {:>10}  p50 {:>9} ns  p99 {:>9} ns  (n = {})",
            layer.name(),
            clock.secs(layer),
            clock.calls(layer),
            h.percentile(50.0),
            h.percentile(99.0),
            h.count(),
        );
    }
    let uncovered = tally.loop_secs - clock.covered_secs() + clock.secs(Layer::Report);
    println!(
        "layer pass: loop {:.4} s, covered by spans {:.4} s, uncovered {uncovered:.4} s; \
         {} arrivals carrying {} members",
        tally.loop_secs,
        tally.loop_secs - uncovered,
        tally.arrivals,
        tally.arrival_members,
    );
    out.set("workload.arrivals_s", clock.secs(Layer::Arrivals));
    out.set("workload.arrivals", tally.arrivals as f64);
    out.set(
        "balancer.route_s",
        clock.secs(Layer::Route) + clock.secs(Layer::BalancerUpkeep),
    );
    out.set("balancer.routes", tally.routes as f64);
    out.set("balancer.unrouted", tally.unrouted as f64);
    out.set(
        "balancer.route_ns_p99",
        clock.hist(Layer::Route).percentile(99.0) as f64,
    );
    out.set("cluster.advance_s", clock.secs(Layer::Advance));
    out.set("cluster.ticks", tally.ticks as f64);
    out.set(
        "cluster.tick_ns_p50",
        clock.hist(Layer::Advance).percentile(50.0) as f64,
    );
    out.set(
        "cluster.tick_ns_p99",
        clock.hist(Layer::Advance).percentile(99.0) as f64,
    );
    out.set("cluster.admit_s", clock.secs(Layer::Admit));
    out.set(
        "cluster.active_nodes_mean",
        tally.active_node_ticks as f64 / tally.ticks.max(1) as f64,
    );
    out.set("cluster.in_flight_peak", tally.in_flight_peak as f64);
    out.set("metrics.record_s", clock.secs(Layer::Record));
    out.set("metrics.report_s", clock.secs(Layer::Report));
    out.set("metrics.samples_held", tally.samples_held as f64);
    out.set("monitor.period_s", clock.secs(Layer::Monitor));
    out.set("monitor.periods", tally.periods as f64);
    out.set(
        "monitor.period_ns_p99",
        clock.hist(Layer::Monitor).percentile(99.0) as f64,
    );
    out.set("monitor.actions", tally.actions as f64);
    out.set("snapshot.write_s", clock.secs(Layer::SnapshotWrite));
    out.set("snapshot.restore_s", clock.secs(Layer::SnapshotRestore));
    out.set("layer.uncovered_s", uncovered);
    out.set("layer.loop_s", tally.loop_secs);
}
