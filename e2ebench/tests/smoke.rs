//! The benchmark's own tests: a tiny-scale smoke of every workload through
//! the binary, and the correctness checks firing on broken inputs.

use std::process::Command;

use hyscale_core::{AlgorithmKind, RunReport};
use hyscale_e2ebench::checks;
use hyscale_e2ebench::layers::Histogram;
use hyscale_e2ebench::output::{Outcome, END_TO_END, PER_LAYER};
use hyscale_e2ebench::untraced::timed_pass;
use hyscale_e2ebench::workloads::{build, Size, Workload};
use hyscale_e2ebench::Settings;

/// Runs the benchmark binary at tiny scale and returns its stdout.
fn bench(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hyscale-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "101",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--size",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout
}

/// Every expected metric is printed by name with its unit, the result
/// line is last and carries each of them, and every check passed.
fn assert_prints(stdout: &str, expected: &[(&str, &str)]) {
    assert!(stdout.starts_with("machine: hardware_threads="), "{stdout}");
    let last = stdout.lines().last().expect("some output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for (name, unit) in expected {
        let printed = stdout.lines().any(|l| {
            l.starts_with(&format!("metric {name} = ")) && l.ends_with(&format!(" {unit}"))
        });
        assert!(printed, "metric {name} ({unit}) not printed:\n{stdout}");
        let field = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&field)
            .unwrap_or_else(|| panic!("{name} missing from {last}"));
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(last[at..].contains(&unit_field), "{name} lacks unit {unit}");
    }
}

#[test]
fn paper_mix_smoke() {
    assert_prints(&bench("paper-mix", "0"), &END_TO_END);
    assert_prints(&bench("paper-mix", "1"), &PER_LAYER);
}

#[test]
fn cohort_flood_smoke() {
    assert_prints(&bench("cohort-flood", "0"), &END_TO_END);
    assert_prints(&bench("cohort-flood", "1"), &PER_LAYER);
}

#[test]
fn graph_storm_smoke() {
    assert_prints(&bench("graph-storm", "0"), &END_TO_END);
    assert_prints(&bench("graph-storm", "1"), &PER_LAYER);
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "paper-mix", "--trace", "2"][..],
        &["--workload", "paper-mix", "--frobnicate", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hyscale-e2ebench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} should be refused");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}

/// The tiny paper-mix reports at seed 101.
fn tiny_paper_mix() -> Vec<RunReport> {
    let plan = build(
        Workload::PaperMix,
        Size::Tiny,
        101,
        std::path::Path::new("."),
    );
    timed_pass(&plan).expect("tiny paper-mix runs").0
}

#[test]
fn conservation_fires_on_broken_ledgers() {
    let report = tiny_paper_mix().swap_remove(0);
    checks::conservation(&report).expect("a real report balances");

    let mut inflated = report.clone();
    inflated.requests.completed = inflated.requests.issued + 1;
    assert!(checks::conservation(&inflated).is_err());

    let mut lost = report.clone();
    let first = lost.per_service.values_mut().next().expect("a service");
    first.issued += 1;
    assert!(checks::conservation(&lost).is_err());

    let mut unsampled = report;
    unsampled.requests.completed -= 1;
    assert!(checks::conservation(&unsampled).is_err());

    let mut ledger = hyscale_metrics::RequestOutcomes::new();
    ledger.record_issued_n(5);
    ledger.record_completed_n(0.1, 3);
    ledger.record_timeout_failures(1);
    assert!(checks::conservation_exact(&ledger, 1).is_ok());
    assert!(checks::conservation_exact(&ledger, 0).is_err());
}

#[test]
fn identity_and_orderings_fire_on_broken_reports() {
    let mut reports = tiny_paper_mix();
    let views: Vec<&RunReport> = reports.iter().collect();
    assert_eq!(checks::paper_orderings(&views), Vec::<String>::new());

    let mut perturbed = reports[0].clone();
    perturbed.scaling.spawns += 1;
    let print = checks::fingerprint(&reports[0]);
    assert!(checks::reproduces("perturbed", print, &perturbed).is_err());
    assert!(checks::reproduces("cloned", print, &reports[0].clone()).is_ok());

    // Swap the CPU-bound winner's and loser's labels: the ordering breaks.
    let pos = |r: &[RunReport], kind| {
        r.iter()
            .position(|x| x.algorithm == kind && x.name.starts_with("fig6"))
            .expect("fig6 run")
    };
    let (k8s, hyb) = (
        pos(&reports, AlgorithmKind::Kubernetes),
        pos(&reports, AlgorithmKind::HyScaleCpu),
    );
    reports[k8s].algorithm = AlgorithmKind::HyScaleCpu;
    reports[hyb].algorithm = AlgorithmKind::Kubernetes;
    let views: Vec<&RunReport> = reports.iter().collect();
    let errors = checks::paper_orderings(&views);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("cpu high-burst"));

    assert!(checks::paper_orderings(&views[..1]).len() >= 3);
}

#[test]
fn resume_check_fires_on_differing_digests() {
    assert!(checks::resume_matches("x", Some(7), Some(7)).is_ok());
    assert!(checks::resume_matches("x", Some(7), Some(8)).is_err());
    assert!(checks::resume_matches("x", Some(7), None).is_err());
    assert!(checks::resume_matches("x", None, None).is_err());
}

#[test]
fn failed_checks_make_the_result_incorrect() {
    let mut out = Outcome::default();
    for (name, _) in END_TO_END {
        out.set(name, 1.5);
    }
    out.check(Ok(()));
    out.check(Err("broken".into()));
    let line = out.json(&END_TO_END).expect("all metrics set");
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
    assert!(out.json(&PER_LAYER).is_err(), "missing metrics are refused");
    let mut nan = Outcome::default();
    nan.set("setup_s", f64::NAN);
    assert!(
        nan.json(&END_TO_END[..1]).is_err(),
        "non-finite values are refused"
    );
}

#[test]
fn histogram_percentiles_stay_within_a_bucket() {
    let mut h = Histogram::default();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 10_000);
    for (p, want) in [(50.0, 5_000.0), (99.0, 9_900.0), (100.0, 10_000.0)] {
        let got = h.percentile(p) as f64;
        assert!((got - want).abs() / want < 0.02, "p{p}: {got} vs {want}");
    }
    assert_eq!(Histogram::default().percentile(99.0), 0);
    let mut small = Histogram::default();
    small.record(3);
    assert_eq!(small.percentile(50.0), 3);
}

#[test]
fn settings_parse_the_command_line() {
    let args: Vec<String> = [
        "--workload",
        "graph-storm",
        "--seed",
        "7",
        "--seconds",
        "12",
        "--trace",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let s = Settings::parse(&args).expect("valid flags");
    assert_eq!(s.workload, Workload::GraphStorm);
    assert_eq!(
        (s.seed, s.seconds, s.trace, s.size),
        (7, 12.0, true, Size::Full)
    );
    assert!(
        Settings::parse(&args[..1]).is_err(),
        "a flag without a value"
    );
}
