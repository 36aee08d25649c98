//! Service-level agreement accounting.
//!
//! The paper's economics: tenants "negotiate a price for a specified
//! level of quality of service, usually defined in terms of availability
//! and response times ... The SLA stipulates the monetary penalty for
//! each violation". This module turns a run's request outcomes into SLA
//! violations and penalties, closing the loop between the autoscalers'
//! behaviour and the cost savings the paper argues for.

use crate::failures::RequestOutcomes;

/// An SLA: a response-time bound, an availability floor, and the
/// per-violation penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaPolicy {
    /// Requests slower than this violate the SLA, seconds.
    pub response_time_secs: f64,
    /// Minimum availability (completed/issued), percent.
    pub availability_pct: f64,
    /// Monetary penalty per violating request, arbitrary currency units.
    pub penalty_per_violation: f64,
}

impl SlaPolicy {
    /// A typical interactive-service SLA: 1 s responses, 99.8%
    /// availability (the paper's reported floor), 0.01 per violation.
    pub fn interactive() -> Self {
        SlaPolicy {
            response_time_secs: 1.0,
            availability_pct: 99.8,
            penalty_per_violation: 0.01,
        }
    }

    /// Evaluates the policy against a run's outcomes.
    ///
    /// Failed requests always count as violations; completed requests
    /// violate when they exceed the response-time bound.
    pub fn evaluate(&self, outcomes: &RequestOutcomes) -> SlaReport {
        let slow = outcomes.response_times.count_above(self.response_time_secs);
        let failed = outcomes.failures.total();
        let violations = slow as u64 + failed;
        SlaReport {
            policy: *self,
            slow_requests: slow as u64,
            failed_requests: failed,
            violations,
            penalty: violations as f64 * self.penalty_per_violation,
            availability_met: outcomes.availability_pct() >= self.availability_pct,
            violation_pct: if outcomes.issued == 0 {
                0.0
            } else {
                violations as f64 / outcomes.issued as f64 * 100.0
            },
        }
    }
}

impl Default for SlaPolicy {
    fn default() -> Self {
        SlaPolicy::interactive()
    }
}

/// Result of evaluating an [`SlaPolicy`] against a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaReport {
    /// The policy evaluated.
    pub policy: SlaPolicy,
    /// Completed requests slower than the bound.
    pub slow_requests: u64,
    /// Requests that failed outright.
    pub failed_requests: u64,
    /// Total violating requests.
    pub violations: u64,
    /// Total monetary penalty.
    pub penalty: f64,
    /// Whether the availability floor held.
    pub availability_met: bool,
    /// Violations as a percentage of issued requests.
    pub violation_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(rts: &[f64], failures: u64) -> RequestOutcomes {
        let mut o = RequestOutcomes::new();
        for &rt in rts {
            o.record_issued();
            o.record_completed(rt);
        }
        for _ in 0..failures {
            o.record_issued();
            o.record_timeout_failure();
        }
        o
    }

    #[test]
    fn counts_slow_and_failed_as_violations() {
        let o = outcomes(&[0.2, 0.5, 1.5, 3.0], 2);
        let report = SlaPolicy::interactive().evaluate(&o);
        assert_eq!(report.slow_requests, 2);
        assert_eq!(report.failed_requests, 2);
        assert_eq!(report.violations, 4);
        assert!((report.penalty - 0.04).abs() < 1e-12);
        assert!((report.violation_pct - 4.0 / 6.0 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn availability_floor() {
        // 2 of 4 failed: 50% availability < 99.8%.
        let bad = outcomes(&[0.1, 0.1], 2);
        assert!(!SlaPolicy::interactive().evaluate(&bad).availability_met);
        let good = outcomes(&[0.1; 1000], 1);
        assert!(SlaPolicy::interactive().evaluate(&good).availability_met);
    }

    #[test]
    fn empty_run_is_clean() {
        let o = RequestOutcomes::new();
        let report = SlaPolicy::default().evaluate(&o);
        assert_eq!(report.violations, 0);
        assert_eq!(report.penalty, 0.0);
        assert!(report.availability_met);
        assert_eq!(report.violation_pct, 0.0);
    }

    #[test]
    fn a_slow_cohort_counts_one_violation_per_member() {
        let mut o = RequestOutcomes::new();
        o.record_issued_n(1001);
        o.record_completed_n(2.5, 1000);
        o.record_completed(0.2);
        let report = SlaPolicy::interactive().evaluate(&o);
        assert_eq!(o.response_times.records().len(), 2);
        assert_eq!(report.slow_requests, 1000);
        assert_eq!(report.violations, 1000);
        assert!((report.penalty - 10.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_is_exclusive() {
        // Exactly at the bound is NOT a violation.
        let o = outcomes(&[1.0], 0);
        let report = SlaPolicy::interactive().evaluate(&o);
        assert_eq!(report.slow_requests, 0);
    }
}
