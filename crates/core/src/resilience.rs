//! Scenario-level resilience configuration and run counters: retry
//! defaults, end-to-end deadline budgets, per-service retry budgets, and
//! overload shedding watermarks.
//!
//! The mechanisms live in the graph tracker and the driver; this module
//! is the knob panel ([`ResilienceConfig`]) and the scoreboard
//! ([`ResilienceStats`]). Everything here is deterministic: backoff
//! jitter draws from a dedicated RNG stream, budget tokens are plain
//! arithmetic over completion counts, and shedding reads the cluster's
//! in-flight counts between ticks.

use hyscale_workload::RetryPolicy;

/// Scenario-wide resilience settings. `Default` (and
/// [`ResilienceConfig::disabled`]) turns the whole layer off, in which
/// case the run is bit-identical to a build without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Master switch. When false every other field is ignored and no
    /// resilience state is tracked, journaled, or snapshotted.
    pub enabled: bool,
    /// Retry policy for hops whose [`GraphEdge`](hyscale_workload::GraphEdge)
    /// carries no override, and for entry-point admissions (depth 0).
    pub default_policy: RetryPolicy,
    /// End-to-end deadline budget per root, in seconds: a root arriving
    /// at `t` must fully resolve by `t + root_budget_secs`. Hops inherit
    /// `min(remaining budget, service timeout)`, and a retry whose
    /// backoff lands past the deadline fails as `DeadlineExceeded`.
    /// Non-finite or non-positive = unlimited.
    pub root_budget_secs: f64,
    /// Retry budget as a percentage of successful completions: each
    /// completed member adds `budget_pct / 100` tokens to its service's
    /// bucket and each retried member costs one token, so sustained
    /// retries cannot exceed `budget_pct`% of goodput. `0.0` = no budget
    /// (unlimited retries — the retry-storm failure mode).
    pub budget_pct: f64,
    /// Initial tokens in, and cap on, each service's budget bucket
    /// (lets cold services retry before their first completions).
    pub budget_floor: f64,
    /// Overload shedding: when a service's in-flight member count is at
    /// or above this watermark, new client roots for that entry point
    /// are shed (dropped unissued, counted as shed, not failed).
    /// `0` = shedding off.
    pub shed_watermark: u64,
}

impl ResilienceConfig {
    /// The layer fully off (the legacy all-or-nothing failure model).
    pub fn disabled() -> Self {
        ResilienceConfig {
            enabled: false,
            default_policy: RetryPolicy::off(),
            root_budget_secs: 0.0,
            budget_pct: 0.0,
            budget_floor: 0.0,
            shed_watermark: 0,
        }
    }

    /// Enables the layer with the given default retry policy; budgets
    /// and shedding stay off until set.
    pub fn with_policy(policy: RetryPolicy) -> Self {
        ResilienceConfig {
            enabled: true,
            default_policy: policy,
            ..ResilienceConfig::disabled()
        }
    }

    /// Builder-style end-to-end root deadline budget.
    pub fn with_root_budget_secs(mut self, secs: f64) -> Self {
        self.root_budget_secs = secs;
        self
    }

    /// Builder-style retry budget (percent of successes) and bucket
    /// floor/cap.
    pub fn with_budget(mut self, pct: f64, floor: f64) -> Self {
        self.budget_pct = pct;
        self.budget_floor = floor;
        self
    }

    /// Builder-style shedding watermark (in-flight members per service).
    pub fn with_shed_watermark(mut self, watermark: u64) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Whether the root deadline budget is actually bounding.
    pub fn has_root_budget(&self) -> bool {
        self.root_budget_secs.is_finite() && self.root_budget_secs > 0.0
    }

    /// Whether the retry token budget is actually bounding.
    pub fn has_retry_budget(&self) -> bool {
        self.budget_pct > 0.0
    }

    /// Validates the configuration (only when enabled; a disabled layer
    /// is valid regardless of the ignored fields).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        self.default_policy
            .validate()
            .map_err(|e| format!("default_policy: {e}"))?;
        if !self.root_budget_secs.is_finite() && self.root_budget_secs != f64::INFINITY {
            return Err(format!(
                "root_budget_secs must be finite or +inf, got {}",
                self.root_budget_secs
            ));
        }
        if self.root_budget_secs.is_finite() && self.root_budget_secs < 0.0 {
            return Err(format!(
                "root_budget_secs must be non-negative, got {}",
                self.root_budget_secs
            ));
        }
        if !(self.budget_pct.is_finite() && self.budget_pct >= 0.0) {
            return Err(format!(
                "budget_pct must be finite and non-negative, got {}",
                self.budget_pct
            ));
        }
        if !(self.budget_floor.is_finite() && self.budget_floor >= 0.0) {
            return Err(format!(
                "budget_floor must be finite and non-negative, got {}",
                self.budget_floor
            ));
        }
        if self.has_retry_budget() && self.budget_floor == 0.0 {
            return Err("budget_floor must be positive when budget_pct is set \
                 (a zero-capacity bucket can never admit a retry)"
                .into());
        }
        Ok(())
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig::disabled()
    }
}

/// Run counters for the resilience layer, reported in
/// `RunReport::resilience` (all zero when the layer is disabled).
///
/// `goodput_members` vs `wasted_members` is the headline split: member
/// completions whose root ultimately succeeded vs member completions
/// whose root still failed — the work a retry storm burns for nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retry hops re-queued (one per aggregate failure record retried).
    pub retries: u64,
    /// Members re-issued across all retries.
    pub retried_members: u64,
    /// Aggregate failures that wanted a retry but found the service's
    /// token bucket empty (the root failed instead).
    pub budget_exhausted: u64,
    /// Aggregate failures whose backoff landed past the root deadline
    /// (the root failed instead).
    pub deadline_exceeded: u64,
    /// Client roots shed at admission by the overload watermark.
    pub shed_roots: u64,
    /// Members those shed roots would have carried.
    pub shed_members: u64,
    /// Member completions under roots that ultimately succeeded.
    pub goodput_members: u64,
    /// Member completions under roots that ultimately failed.
    pub wasted_members: u64,
}

impl ResilienceStats {
    /// Fraction of all completed member work that was goodput, in
    /// percent; 100 when nothing completed.
    pub fn goodput_pct(&self) -> f64 {
        let total = self.goodput_members + self.wasted_members;
        if total == 0 {
            100.0
        } else {
            self.goodput_members as f64 / total as f64 * 100.0
        }
    }
}

impl std::ops::AddAssign for ResilienceStats {
    fn add_assign(&mut self, rhs: ResilienceStats) {
        self.retries += rhs.retries;
        self.retried_members += rhs.retried_members;
        self.budget_exhausted += rhs.budget_exhausted;
        self.deadline_exceeded += rhs.deadline_exceeded;
        self.shed_roots += rhs.shed_roots;
        self.shed_members += rhs.shed_members;
        self.goodput_members += rhs.goodput_members;
        self.wasted_members += rhs.wasted_members;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_always_valid() {
        let mut cfg = ResilienceConfig::disabled();
        cfg.budget_pct = f64::NAN;
        cfg.root_budget_secs = -5.0;
        assert!(cfg.validate().is_ok());
        assert_eq!(ResilienceConfig::default(), ResilienceConfig::disabled());
    }

    #[test]
    fn enabled_config_validates_fields() {
        let base = ResilienceConfig::with_policy(RetryPolicy::standard());
        assert!(base.validate().is_ok());
        assert!(base
            .with_root_budget_secs(30.0)
            .with_budget(10.0, 50.0)
            .with_shed_watermark(1000)
            .validate()
            .is_ok());
        assert!(base
            .with_budget(-1.0, 10.0)
            .validate()
            .unwrap_err()
            .contains("budget_pct"));
        assert!(base
            .with_budget(10.0, 0.0)
            .validate()
            .unwrap_err()
            .contains("budget_floor"));
        assert!(base
            .with_root_budget_secs(-1.0)
            .validate()
            .unwrap_err()
            .contains("root_budget_secs"));
        let mut bad_policy = base;
        bad_policy.default_policy.jitter_frac = 2.0;
        assert!(bad_policy
            .validate()
            .unwrap_err()
            .contains("default_policy"));
    }

    #[test]
    fn budget_gates_report_state() {
        let cfg = ResilienceConfig::with_policy(RetryPolicy::standard());
        assert!(!cfg.has_root_budget());
        assert!(!cfg.has_retry_budget());
        assert!(cfg.with_root_budget_secs(10.0).has_root_budget());
        assert!(cfg.with_budget(5.0, 20.0).has_retry_budget());
        assert!(!cfg.with_root_budget_secs(f64::INFINITY).has_root_budget());
    }

    #[test]
    fn stats_accumulate_and_report_goodput() {
        let mut a = ResilienceStats {
            retries: 1,
            retried_members: 2,
            budget_exhausted: 3,
            deadline_exceeded: 4,
            shed_roots: 5,
            shed_members: 6,
            goodput_members: 30,
            wasted_members: 10,
        };
        a += a;
        assert_eq!(a.retries, 2);
        assert_eq!(a.shed_members, 12);
        assert_eq!(a.goodput_pct(), 75.0);
        assert_eq!(ResilienceStats::default().goodput_pct(), 100.0);
    }
}
