//! Request-outcome accounting: completions, removal failures, connection
//! failures, and the derived availability metrics of Figures 6–8 and 10.

use crate::summary::Summary;

/// Counts of failed requests by class (the stacked bars of Fig. 6a/7a/8a).
///
/// The paper's charts stack two classes — removal vs connection — but
/// the tally keeps the connection bucket split into its three causes
/// (timeout, queue abort, infrastructure death) so retry policies and
/// reports can tell retryable failures from fatal ones;
/// [`FailureTally::connection`] recovers the paper's rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureTally {
    /// Requests aborted because their replica was removed by scale-in.
    pub removal: u64,
    /// Requests not done by their deadline (client SLA expired).
    pub timeout: u64,
    /// Requests rejected at admission: queue overflow or no accepting
    /// replica.
    pub queue_abort: u64,
    /// Requests whose replica died underneath them (node crash, OOM
    /// kill).
    pub infra_death: u64,
}

impl FailureTally {
    /// Total failed requests.
    pub fn total(&self) -> u64 {
        self.removal + self.connection()
    }

    /// The paper's "connection failures" rollup: everything the client
    /// experiences as a reset or an expired call rather than a scaling
    /// decision.
    pub fn connection(&self) -> u64 {
        self.timeout + self.queue_abort + self.infra_death
    }
}

impl std::ops::Add for FailureTally {
    type Output = FailureTally;
    fn add(self, rhs: FailureTally) -> FailureTally {
        FailureTally {
            removal: self.removal + rhs.removal,
            timeout: self.timeout + rhs.timeout,
            queue_abort: self.queue_abort + rhs.queue_abort,
            infra_death: self.infra_death + rhs.infra_death,
        }
    }
}

impl std::ops::AddAssign for FailureTally {
    fn add_assign(&mut self, rhs: FailureTally) {
        *self = *self + rhs;
    }
}

/// Full request-outcome record of one experiment run: how many requests
/// were issued, completed, and failed, and the response-time distribution
/// of the completed ones.
#[derive(Debug, Clone, Default)]
pub struct RequestOutcomes {
    /// Requests issued by clients.
    pub issued: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Failure counts by class.
    pub failures: FailureTally,
    /// Response times of completed requests, in seconds.
    pub response_times: Summary,
}

impl RequestOutcomes {
    /// Creates an empty record.
    pub fn new() -> Self {
        RequestOutcomes::default()
    }

    /// Records a request being issued by a client.
    pub fn record_issued(&mut self) {
        self.issued += 1;
    }

    /// Records a completion with its response time in seconds.
    pub fn record_completed(&mut self, response_secs: f64) {
        self.completed += 1;
        self.response_times.record(response_secs);
    }

    /// Records a removal failure.
    pub fn record_removal_failure(&mut self) {
        self.failures.removal += 1;
    }

    /// Records a timeout failure.
    pub fn record_timeout_failure(&mut self) {
        self.failures.timeout += 1;
    }

    /// Records a queue-abort failure (admission rejection).
    pub fn record_queue_abort_failure(&mut self) {
        self.failures.queue_abort += 1;
    }

    /// Records an infrastructure-death failure (node crash, OOM kill).
    pub fn record_infra_death_failure(&mut self) {
        self.failures.infra_death += 1;
    }

    /// Records `n` requests issued at once (a cohort arrival batch).
    pub fn record_issued_n(&mut self, n: u64) {
        self.issued += n;
    }

    /// Records `n` completions sharing one response time — a cohort whose
    /// members finished together. O(1) in `n`: the summary keeps one
    /// weighted record, and its distribution stays exact.
    pub fn record_completed_n(&mut self, response_secs: f64, n: u64) {
        self.completed += n;
        self.response_times.record_n(response_secs, n);
    }

    /// Records `n` removal failures at once.
    pub fn record_removal_failures(&mut self, n: u64) {
        self.failures.removal += n;
    }

    /// Records `n` timeout failures at once.
    pub fn record_timeout_failures(&mut self, n: u64) {
        self.failures.timeout += n;
    }

    /// Records `n` queue-abort failures at once.
    pub fn record_queue_abort_failures(&mut self, n: u64) {
        self.failures.queue_abort += n;
    }

    /// Records `n` infrastructure-death failures at once.
    pub fn record_infra_death_failures(&mut self, n: u64) {
        self.failures.infra_death += n;
    }

    /// Fraction of issued requests that failed, in percent (Fig. 6–8's
    /// "% requests failed"); 0.0 when nothing was issued.
    pub fn failed_pct(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.failures.total() as f64 / self.issued as f64 * 100.0
        }
    }

    /// Removal-failure percentage of issued requests.
    pub fn removal_failed_pct(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.failures.removal as f64 / self.issued as f64 * 100.0
        }
    }

    /// Connection-failure percentage of issued requests (the rollup of
    /// timeouts, queue aborts, and infrastructure deaths).
    pub fn connection_failed_pct(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.failures.connection() as f64 / self.issued as f64 * 100.0
        }
    }

    /// Service availability in percent (the paper reports "at least 99.8%
    /// up-time"): completed over issued.
    pub fn availability_pct(&self) -> f64 {
        if self.issued == 0 {
            100.0
        } else {
            self.completed as f64 / self.issued as f64 * 100.0
        }
    }

    /// Mean response time in seconds.
    pub fn mean_response_secs(&self) -> f64 {
        self.response_times.mean()
    }

    /// Requests still unresolved (issued but neither completed nor failed;
    /// in-flight at the end of a run).
    pub fn outstanding(&self) -> u64 {
        self.issued
            .saturating_sub(self.completed)
            .saturating_sub(self.failures.total())
    }

    /// Merges another run's outcomes into this one (multi-seed averaging).
    pub fn merge(&mut self, other: &RequestOutcomes) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.failures += other.failures;
        self.response_times.merge(&other.response_times);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RequestOutcomes {
        let mut o = RequestOutcomes::new();
        for _ in 0..100 {
            o.record_issued();
        }
        for i in 0..90 {
            o.record_completed(0.1 + i as f64 * 0.01);
        }
        for _ in 0..3 {
            o.record_timeout_failure();
        }
        for _ in 0..2 {
            o.record_queue_abort_failure();
        }
        o.record_infra_death_failure();
        for _ in 0..4 {
            o.record_removal_failure();
        }
        o
    }

    #[test]
    fn percentages() {
        let o = sample();
        assert_eq!(o.failed_pct(), 10.0);
        assert_eq!(o.removal_failed_pct(), 4.0);
        assert_eq!(o.connection_failed_pct(), 6.0);
        assert_eq!(o.availability_pct(), 90.0);
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn empty_outcomes_are_benign() {
        let o = RequestOutcomes::new();
        assert_eq!(o.failed_pct(), 0.0);
        assert_eq!(o.availability_pct(), 100.0);
        assert_eq!(o.mean_response_secs(), 0.0);
        assert_eq!(o.outstanding(), 0);
    }

    #[test]
    fn outstanding_counts_in_flight() {
        let mut o = RequestOutcomes::new();
        o.record_issued();
        o.record_issued();
        o.record_completed(0.5);
        assert_eq!(o.outstanding(), 1);
    }

    #[test]
    fn batch_records_match_singles() {
        let mut batched = RequestOutcomes::new();
        batched.record_issued_n(10);
        batched.record_completed_n(0.25, 6);
        batched.record_timeout_failures(1);
        batched.record_queue_abort_failures(1);
        batched.record_infra_death_failures(1);
        batched.record_removal_failures(1);

        let mut single = RequestOutcomes::new();
        for _ in 0..10 {
            single.record_issued();
        }
        for _ in 0..6 {
            single.record_completed(0.25);
        }
        single.record_timeout_failure();
        single.record_queue_abort_failure();
        single.record_infra_death_failure();
        single.record_removal_failure();

        assert_eq!(batched.issued, single.issued);
        assert_eq!(batched.completed, single.completed);
        assert_eq!(batched.failures, single.failures);
        assert_eq!(batched.outstanding(), 0);
        assert_eq!(
            batched.response_times.count(),
            single.response_times.count()
        );
        assert_eq!(batched.mean_response_secs(), single.mean_response_secs());
    }

    #[test]
    fn tally_arithmetic() {
        let a = FailureTally {
            removal: 1,
            timeout: 2,
            queue_abort: 3,
            infra_death: 4,
        };
        let b = FailureTally {
            removal: 10,
            timeout: 20,
            queue_abort: 30,
            infra_death: 40,
        };
        let c = a + b;
        assert_eq!(c.removal, 11);
        assert_eq!(c.timeout, 22);
        assert_eq!(c.queue_abort, 33);
        assert_eq!(c.infra_death, 44);
        assert_eq!(c.connection(), 99);
        assert_eq!(c.total(), 110);
    }

    #[test]
    fn merge_accumulates_runs() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.issued, 200);
        assert_eq!(a.completed, 180);
        assert_eq!(a.failures.total(), 20);
        assert_eq!(a.failed_pct(), 10.0);
        assert_eq!(a.response_times.count(), 180);
    }

    #[test]
    fn mean_response_time_reflects_samples() {
        let mut o = RequestOutcomes::new();
        o.record_issued();
        o.record_issued();
        o.record_completed(1.0);
        o.record_completed(3.0);
        assert_eq!(o.mean_response_secs(), 2.0);
    }
}
