//! The end-to-end pass: full `SimulationDriver` runs with tracing off.

use std::hint::black_box;
use std::time::Instant;

use hyscale_bench::runner::sweep;
use hyscale_core::{RunReport, ScenarioConfig, SimulationDriver};
use hyscale_metrics::{RequestOutcomes, Summary};

use crate::checks;
use crate::output::{median, peak_rss_mb, Outcome};
use crate::workloads::{build, setup_only, ticks, Plan, Workload};
use crate::Settings;

/// Set-up batches timed before the first pass and after every pass;
/// `setup_s` is the median of all their per-set-up means.
const SETUP_BATCHES_PER_SAMPLE: usize = 3;

/// Host time each set-up batch lasts at least, so that one batch averages
/// over scheduler and cache noise shorter than this.
const SETUP_BATCH_SECS: f64 = 0.01;

/// Fewest timed repetitions of the workload, even past `--seconds`.
const MIN_ITERATIONS: usize = 3;

/// Simulated outcomes of one pass over the workload, merged over its runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Mean response time, ms (end-to-end roots in graph mode).
    pub mean_ms: f64,
    /// 99th-percentile response time, ms.
    pub p99_ms: f64,
    /// Failed share, % of issued members (of resolved roots in graph
    /// mode).
    pub failed_pct: f64,
}

impl SimOutcome {
    /// Merges `reports` the way a figure merges seeds. Graph runs are
    /// judged by their end-to-end roots, everything else by members.
    pub fn of(reports: &[RunReport]) -> SimOutcome {
        if reports.iter().any(|r| !r.entry_points.is_empty()) {
            let mut e2e = Summary::new();
            let (mut done, mut failed) = (0u64, 0u64);
            for e in reports.iter().flat_map(|r| &r.entry_points) {
                e2e.merge(&e.e2e_secs);
                done += e.roots_completed;
                failed += e.roots_failed;
            }
            return SimOutcome {
                mean_ms: e2e.mean() * 1e3,
                p99_ms: e2e.percentile(99.0) * 1e3,
                failed_pct: 100.0 * failed as f64 / (done + failed).max(1) as f64,
            };
        }
        let of = |o: &RequestOutcomes| SimOutcome {
            mean_ms: o.mean_response_secs() * 1e3,
            p99_ms: o.response_times.percentile(99.0) * 1e3,
            failed_pct: o.failed_pct(),
        };
        match reports {
            [only] => of(&only.requests),
            _ => {
                let mut merged = RequestOutcomes::new();
                for r in reports {
                    merged.merge(&r.requests);
                }
                of(&merged)
            }
        }
    }
}

/// Runs every scenario of the workload under each of its seeds through
/// `runner::sweep` and computes each report's figures (mean, p95, p99), as
/// the figure binaries do. Returns one report per scenario (its seeds
/// merged) and the host seconds it took.
pub fn timed_pass(plan: &Plan) -> Result<(Vec<RunReport>, f64), String> {
    let input = plan.runs.clone();
    let start = Instant::now();
    let rows = sweep(input, &plan.seeds).map_err(|e| format!("run failed: {e}"))?;
    for row in &rows {
        let rt = &row.report.requests.response_times;
        black_box((rt.mean(), rt.percentile(95.0), rt.percentile(99.0)));
    }
    let wall = start.elapsed().as_secs_f64();
    Ok((rows.into_iter().map(|r| r.report).collect(), wall))
}

/// Times the workload's set-up: building its configs (fault plans and
/// graphs included) and running each through `SimulationDriver`'s set-up and
/// initial placement. Sampled between the timed passes, so the set-up is
/// measured under the same machine conditions as the passes.
struct SetupClock<'a> {
    settings: &'a Settings,
    /// Set-ups per batch, sized so one batch lasts [`SETUP_BATCH_SECS`].
    reps: usize,
    /// Per-set-up mean of every batch so far, seconds.
    means: Vec<f64>,
}

impl<'a> SetupClock<'a> {
    /// One untimed set-up warms caches and sizes the batches.
    fn new(settings: &'a Settings) -> Result<Self, String> {
        let mut clock = SetupClock {
            settings,
            reps: 1,
            means: Vec::new(),
        };
        let start = Instant::now();
        clock.set_up()?;
        let once = start.elapsed().as_secs_f64();
        clock.reps = (SETUP_BATCH_SECS / once).ceil().max(1.0) as usize;
        Ok(clock)
    }

    fn set_up(&self) -> Result<(), String> {
        let s = self.settings;
        let plan = build(s.workload, s.size, s.seed, &s.scratch);
        for config in plan.seeded() {
            black_box(
                SimulationDriver::run(&setup_only(&config))
                    .map_err(|e| format!("setup of {} failed: {e}", config.name))?,
            );
        }
        Ok(())
    }

    /// Times [`SETUP_BATCHES_PER_SAMPLE`] more batches.
    fn sample(&mut self) -> Result<(), String> {
        for _ in 0..SETUP_BATCHES_PER_SAMPLE {
            let start = Instant::now();
            for _ in 0..self.reps {
                self.set_up()?;
            }
            self.means
                .push(start.elapsed().as_secs_f64() / self.reps as f64);
        }
        Ok(())
    }
}

/// The end-to-end pass: set-up timing, then repeated timed passes over
/// the workload for `--seconds`, then the correctness checks.
pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = match SetupClock::new(settings).and_then(|mut c| c.sample().map(|()| c)) {
        Ok(clock) => clock,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    let plan = build(
        settings.workload,
        settings.size,
        settings.seed,
        &settings.scratch,
    );

    // The first pass is kept for the simulated metrics and the checks;
    // later passes must reproduce it exactly.
    let started = Instant::now();
    let (first, wall) = match timed_pass(&plan) {
        Ok(pass) => pass,
        Err(e) => {
            out.check(Err(e));
            return out;
        }
    };
    let mut walls = vec![wall];
    let members: u64 = first.iter().map(|r| r.requests.completed).sum();
    let sim = SimOutcome::of(&first);
    let prints: Vec<u64> = first.iter().map(checks::fingerprint).collect();
    for report in &first {
        out.check(checks::conservation(report));
    }
    if settings.workload == Workload::PaperMix {
        let reports: Vec<&RunReport> = first.iter().collect();
        let errors = checks::paper_orderings(&reports);
        out.check(if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        });
    }
    drop(first);

    while walls.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < settings.seconds {
        if let Err(e) = setup.sample() {
            out.check(Err(e));
            break;
        }
        match timed_pass(&plan) {
            Ok((reports, wall)) => {
                walls.push(wall);
                for (report, &print) in reports.iter().zip(&prints) {
                    out.check(checks::reproduces("repeated", print, report));
                }
            }
            Err(e) => {
                out.check(Err(e));
                break;
            }
        }
    }

    if settings.workload == Workload::GraphStorm {
        for (_, config) in &plan.runs {
            out.check(resume_check(config, plan.seeds[0], settings));
        }
    }

    let wall = median(&walls);
    println!(
        "{}: {} timed passes of {} scenarios x {} seeds, wall median {wall:.4} s \
         (min {:.4}, max {:.4}), {members} members per pass",
        settings.workload.name(),
        walls.len(),
        plan.runs.len(),
        plan.seeds.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    out.set("setup_s", median(&setup.means));
    out.set("wall_s", wall);
    out.set("ns_per_member", wall * 1e9 / members.max(1) as f64);
    // Left unset (so the invocation fails) where `/proc` cannot say.
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    out.set("sim_mean_response_ms", sim.mean_ms);
    out.set("sim_p99_response_ms", sim.p99_ms);
    out.set("sim_failed_pct", sim.failed_pct);
    out
}

/// Runs `config` under `seed` to the horizon, then again resumed from its
/// mid-run checkpoint, and compares the two end states.
fn resume_check(config: &ScenarioConfig, seed: u64, settings: &Settings) -> Result<(), String> {
    let name = &config.name;
    let mut whole = config.clone();
    whole.seed = seed;
    let policy = whole
        .snapshot
        .clone()
        .ok_or_else(|| format!("{name}: no checkpoint policy"))?;
    let uninterrupted =
        SimulationDriver::run(&whole).map_err(|e| format!("{name}: uninterrupted: {e}"))?;
    let mid = (ticks(&whole) / policy.every_ticks / 2).max(1) * policy.every_ticks;
    let mut resumed = whole.clone();
    resumed.resume = Some(policy.file_for(mid));
    if let Some(p) = resumed.snapshot.as_mut() {
        p.dir = settings.scratch.join(format!("resumed-{name}"));
    }
    let report = SimulationDriver::run(&resumed).map_err(|e| format!("{name}: resumed: {e}"))?;
    checks::resume_matches(name, uninterrupted.state_digest, report.state_digest)
}
