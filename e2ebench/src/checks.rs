//! Correctness checks on the program's outputs.
//!
//! Each check returns `Err(reason)` when it fails; the caller counts every
//! failure as one failed operation.

use std::fmt::Write as _;

use hyscale_core::{AlgorithmKind, RunReport};
use hyscale_metrics::{RequestOutcomes, Summary};

/// A 64-bit FNV-1a hasher fed through `fmt::Write`, so `Debug` output can
/// be digested without building the string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Shape of a distribution: count, moments, extremes and the tail
/// percentiles. Two runs that agree on these agree on every figure a
/// report prints.
fn summary_shape(s: &Summary) -> [u64; 9] {
    [
        s.count() as u64,
        s.mean().to_bits(),
        s.std_dev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
        s.percentile(50.0).to_bits(),
        s.percentile(95.0).to_bits(),
        s.percentile(99.0).to_bits(),
        s.nan_dropped(),
    ]
}

fn outcome_shape(o: &RequestOutcomes) -> ([u64; 6], [u64; 9]) {
    let f = &o.failures;
    (
        [
            o.issued,
            o.completed,
            f.removal,
            f.timeout,
            f.queue_abort,
            f.infra_death,
        ],
        summary_shape(&o.response_times),
    )
}

/// Digest of everything a [`RunReport`] carries except `state_digest`.
/// Equal fingerprints mean equal reports, field for field. The state
/// digest is left out because it covers the journal cursor, which a
/// traced run advances and an untraced one does not.
pub fn fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let per_service: Vec<_> = r
        .per_service
        .iter()
        .map(|(svc, o)| (svc, outcome_shape(o)))
        .collect();
    let entries: Vec<_> = r
        .entry_points
        .iter()
        .map(|e| {
            (
                e.service,
                e.roots_started,
                e.roots_completed,
                e.roots_failed,
                e.members_completed,
                e.members_failed,
                summary_shape(&e.e2e_secs),
            )
        })
        .collect();
    write!(
        h,
        "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
        r.name,
        r.algorithm,
        r.seeds,
        outcome_shape(&r.requests),
        per_service,
        r.scaling,
        r.cost.raw_parts(),
        r.replicas.points(),
        r.cpu_used.points(),
        r.mem_used.points(),
        r.availability,
        r.faults,
        r.control_plane,
        r.warp_ticks,
        entries,
        r.resilience,
    )
    .expect("hashing never fails");
    h.0
}

/// Member conservation on one report.
///
/// Every member a report counts as issued is either completed, failed or
/// still outstanding at the horizon, so completed + failed never exceeds
/// issued; the per-service ledgers add up to the run ledger field by
/// field; and the response-time distribution holds one sample per
/// completed member. In graph mode the same holds for roots at every
/// entry point.
///
/// # Errors
///
/// Names the first ledger that does not balance.
pub fn conservation(r: &RunReport) -> Result<(), String> {
    let ledger = |o: &RequestOutcomes| -> Result<(), String> {
        let resolved = o.completed + o.failures.total();
        if resolved > o.issued {
            return Err(format!(
                "completed {} + failed {} exceeds issued {}",
                o.completed,
                o.failures.total(),
                o.issued
            ));
        }
        if o.response_times.count() as u64 != o.completed {
            return Err(format!(
                "{} response samples for {} completed members",
                o.response_times.count(),
                o.completed
            ));
        }
        Ok(())
    };
    ledger(&r.requests).map_err(|e| format!("{}: run ledger: {e}", r.name))?;
    let mut sum = RequestOutcomes::new();
    for (svc, o) in &r.per_service {
        ledger(o).map_err(|e| format!("{}: service {svc}: {e}", r.name))?;
        sum.issued += o.issued;
        sum.completed += o.completed;
        sum.failures.removal += o.failures.removal;
        sum.failures.timeout += o.failures.timeout;
        sum.failures.queue_abort += o.failures.queue_abort;
        sum.failures.infra_death += o.failures.infra_death;
    }
    let (run, services) = (outcome_shape(&r.requests).0, outcome_shape(&sum).0);
    if run != services {
        return Err(format!(
            "{}: per-service ledgers {services:?} do not add up to the run ledger {run:?}",
            r.name
        ));
    }
    for e in &r.entry_points {
        if e.roots_completed + e.roots_failed > e.roots_started {
            return Err(format!(
                "{}: entry {}: {} completed + {} failed roots exceed {} started",
                r.name, e.service, e.roots_completed, e.roots_failed, e.roots_started
            ));
        }
        if e.e2e_secs.count() as u64 != e.roots_completed {
            return Err(format!(
                "{}: entry {}: {} latency samples for {} completed roots",
                r.name,
                e.service,
                e.e2e_secs.count(),
                e.roots_completed
            ));
        }
    }
    Ok(())
}

/// Exact member conservation where the in-flight count is known (the
/// layer pass owns its cluster): issued = completed + failed + in flight.
///
/// # Errors
///
/// Reports the unbalanced ledger.
pub fn conservation_exact(o: &RequestOutcomes, in_flight: u64) -> Result<(), String> {
    let total = o.completed + o.failures.total() + in_flight;
    if total == o.issued {
        Ok(())
    } else {
        Err(format!(
            "issued {} != completed {} + failed {} + in flight {in_flight}",
            o.issued,
            o.completed,
            o.failures.total()
        ))
    }
}

/// A run must reproduce the report of an earlier run of the same config
/// and seed (tracing and repetition never perturb a run): `expected` is
/// that report's [`fingerprint`].
///
/// # Errors
///
/// Names the diverging scenario.
pub fn reproduces(what: &str, expected: u64, report: &RunReport) -> Result<(), String> {
    if fingerprint(report) == expected {
        Ok(())
    } else {
        Err(format!("{}: the {what} report differs", report.name))
    }
}

/// The paper's Sec. VI orderings on the high-burst matrix (Figs. 6-8):
///
/// * HyScaleCPU beats Kubernetes on CPU-bound: lower mean response time
///   and no more failed requests;
/// * HyScaleCPU+Mem is the fastest of all four algorithms on mixed
///   CPU+memory and fails the fewest requests;
/// * the network HPA beats Kubernetes on network-bound: lower mean
///   response time and no more failed requests.
///
/// `reports` are the paper-mix runs; each is found by its figure prefix
/// (`fig6`/`fig7`/`fig8`) and algorithm.
///
/// # Errors
///
/// Returns one message per ordering that does not hold.
pub fn paper_orderings(reports: &[&RunReport]) -> Vec<String> {
    let find = |fig: &str, kind: AlgorithmKind| -> Option<&RunReport> {
        reports
            .iter()
            .copied()
            .find(|r| r.algorithm == kind && r.name.starts_with(fig))
    };
    let mean = |r: &RunReport| r.requests.mean_response_secs();
    let failed = |r: &RunReport| r.requests.failures.total();
    let mut errors = Vec::new();
    let mut beats = |fig: &str, label: &str, winner: AlgorithmKind, loser: AlgorithmKind| match (
        find(fig, winner),
        find(fig, loser),
    ) {
        (Some(w), Some(l)) if mean(w) < mean(l) && failed(w) <= failed(l) => {}
        (Some(w), Some(l)) => errors.push(format!(
            "{label}: {winner} ({:.1} ms, {} failed) does not beat {loser} ({:.1} ms, {} failed)",
            mean(w) * 1e3,
            failed(w),
            mean(l) * 1e3,
            failed(l)
        )),
        _ => errors.push(format!("{label}: missing {winner} or {loser} run")),
    };
    beats(
        "fig6",
        "cpu high-burst",
        AlgorithmKind::HyScaleCpu,
        AlgorithmKind::Kubernetes,
    );
    beats(
        "fig8",
        "network high-burst",
        AlgorithmKind::Network,
        AlgorithmKind::Kubernetes,
    );
    match find("fig7", AlgorithmKind::HyScaleCpuMem) {
        None => errors.push("mixed high-burst: missing hybridmem run".into()),
        Some(best) => {
            for kind in AlgorithmKind::ALL {
                if kind == AlgorithmKind::HyScaleCpuMem {
                    continue;
                }
                match find("fig7", kind) {
                    Some(other) if mean(best) < mean(other) && failed(best) < failed(other) => {}
                    Some(other) => errors.push(format!(
                        "mixed high-burst: hybridmem ({:.1} ms, {} failed) is not faster with \
                         fewer failures than {kind} ({:.1} ms, {} failed)",
                        mean(best) * 1e3,
                        failed(best),
                        mean(other) * 1e3,
                        failed(other)
                    )),
                    None => errors.push(format!("mixed high-burst: missing {kind} run")),
                }
            }
        }
    }
    errors
}

/// A run resumed from a mid-run checkpoint must end in the same state as
/// the uninterrupted run: `uninterrupted` and `resumed` are their end-state
/// digests.
///
/// # Errors
///
/// Reports a missing or differing digest.
pub fn resume_matches(
    name: &str,
    uninterrupted: Option<u64>,
    resumed: Option<u64>,
) -> Result<(), String> {
    match (uninterrupted, resumed) {
        (Some(a), Some(b)) if a == b => Ok(()),
        (a, b) => Err(format!(
            "{name}: resumed run ends in state {b:x?}, uninterrupted run in {a:x?}"
        )),
    }
}
