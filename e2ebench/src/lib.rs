//! End-to-end benchmark of the HyScale simulator.
//!
//! Drives full `SimulationDriver` runs of three workloads from outside the
//! program, using only the public functions of its crates, and checks the
//! outputs. See `README.md` for the workloads, the metrics, and what each
//! per-layer metric is expected to move.

pub mod checks;
pub mod layers;
pub mod output;
pub mod traced;
pub mod untraced;
pub mod workloads;

use std::path::PathBuf;

use workloads::{Size, Workload};

/// One benchmark invocation's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload to measure.
    pub workload: Workload,
    /// Measured size or the tiny test size.
    pub size: Size,
    /// Seed of every scenario run.
    pub seed: u64,
    /// Host seconds the end-to-end pass keeps repeating the workload.
    pub seconds: f64,
    /// Traced per-layer pass instead of the end-to-end pass.
    pub trace: bool,
    /// Directory for checkpoints and journals; removed afterwards.
    pub scratch: PathBuf,
}

impl Settings {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--size full|tiny]`. The workload is required; the seed defaults
    /// to 101, the run length to 30 s, tracing to off.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag or bad value.
    pub fn parse(args: &[String]) -> Result<Settings, String> {
        let mut workload = None;
        let mut settings = Settings {
            workload: Workload::PaperMix,
            size: Size::Full,
            seed: 101,
            seconds: 30.0,
            trace: false,
            scratch: PathBuf::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |what: &str| format!("bad {what}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => settings.seed = value.parse().map_err(|_| bad("seed"))?,
                "--seconds" => {
                    settings.seconds = value.parse().map_err(|_| bad("seconds"))?;
                    if !(settings.seconds.is_finite() && settings.seconds >= 0.0) {
                        return Err(bad("seconds"));
                    }
                }
                "--trace" => {
                    settings.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    }
                }
                "--size" => {
                    settings.size = match value {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err(bad("size")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        settings.workload = workload.ok_or("--workload is required")?;
        settings.scratch = PathBuf::from(".bench_tmp").join(format!(
            "{}-{}-{}",
            settings.workload.name(),
            settings.seed,
            std::process::id()
        ));
        Ok(settings)
    }
}

/// Runs one invocation: the end-to-end pass, or the traced pass.
pub fn run(settings: &Settings) -> output::Outcome {
    if settings.trace {
        traced::run(settings)
    } else {
        untraced::run(settings)
    }
}
