//! The (possibly unreliable) control plane between Node Managers and the
//! Monitor.
//!
//! The paper's platform is a distributed control loop: per-node Node
//! Managers stream `docker stats` to a central Monitor, which actuates
//! `docker update`/spawn/remove back over the network. Real deployments
//! lose, delay, and duplicate those messages, and actuations fail. This
//! module models that unreliability — **deterministically**: every
//! perturbation is drawn from one seeded [`SimRng`] stream in the
//! Monitor phase, so a degraded run is byte-identical on every repeat,
//! exactly like `FaultInjector`.
//!
//! Three mechanisms flow through the [`ControlPlane`]:
//!
//! * **Reports** ([`ControlPlane::transmit`]): each Node Manager's usage
//!   samples can be lost (never arrive), delayed (arrive N Monitor
//!   periods late, carrying their *measurement* timestamp so the Monitor
//!   sees stale data, not time-shifted data), or duplicated (idempotent
//!   re-delivery). The per-container sample store keeps the freshest
//!   measurement and its age in periods.
//! * **Actuations** ([`ControlPlane::submit`] / [`ControlPlane::due_retries`]):
//!   a scaling action can fail to apply. Failures retry with capped
//!   exponential backoff under a monotonic **idempotency key**; a
//!   lost-ack failure (the action executed but its acknowledgement was
//!   dropped) is deduplicated at retry time so a spawn can never
//!   double-place a replica.
//! * **Freshness accounting** ([`ControlPlane::node_age`]): the Monitor
//!   uses per-node report ages to compute its safe-mode quorum and the
//!   per-service staleness budget.

use std::collections::BTreeMap;

use hyscale_cluster::{ContainerId, ContainerUsage, Cores, Mbps, MemMb, NodeId, ServiceId};
use hyscale_sim::{SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError};
use hyscale_trace::{ActuationTag, EventKind, LinkTag, TraceSink};

use crate::actions::ScalingAction;
use crate::balancer::BreakerConfig;

/// Sample age reported for containers the Monitor has never heard about.
pub const NEVER_REPORTED: u32 = u32::MAX;

/// Tunables for the control-plane degradation model and the resilience
/// machinery that survives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPlaneConfig {
    /// Master switch. When `false` the Monitor bypasses the control
    /// plane entirely and behaves exactly as before this layer existed.
    pub enabled: bool,
    /// Probability a Node Manager report is lost in transit.
    pub loss_prob: f64,
    /// Probability a (non-lost) report is delayed.
    pub delay_prob: f64,
    /// Delayed reports arrive uniformly 1..=this many Monitor periods
    /// late, still carrying their measurement timestamp.
    pub max_delay_periods: u32,
    /// Probability a delivered report is delivered a second time
    /// (idempotently re-applied; counted and traced).
    pub duplicate_prob: f64,
    /// Probability a scaling action's delivery fails.
    pub actuation_failure_prob: f64,
    /// Among actuation failures, the fraction that are *lost acks*: the
    /// action executed but the Monitor never heard back, so its retry
    /// must be deduplicated by idempotency key.
    pub lost_ack_frac: f64,
    /// Retry attempts per failed actuation before abandoning it.
    pub max_actuation_retries: u32,
    /// First retry delay after a failed actuation.
    pub retry_base_secs: f64,
    /// Retry delay ceiling (doubles per consecutive failure).
    pub retry_max_secs: f64,
    /// A service's data is *stale* when its oldest replica sample is
    /// older than this many Monitor periods; capacity-reducing decisions
    /// for stale services are vetoed.
    pub staleness_budget_ticks: u32,
    /// Safe-mode quorum: when fewer than `ceil(fraction × polled nodes)`
    /// nodes have fresh reports, all scaling freezes (recovery keeps
    /// running). `0.0` disables safe mode.
    pub quorum_fraction: f64,
    /// Per-replica circuit-breaker tunables for the load balancer.
    pub breaker: BreakerConfig,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig::perfect()
    }
}

impl ControlPlaneConfig {
    /// A disabled control plane: the legacy perfectly-reliable loop.
    pub fn perfect() -> Self {
        ControlPlaneConfig {
            enabled: false,
            loss_prob: 0.0,
            delay_prob: 0.0,
            max_delay_periods: 1,
            duplicate_prob: 0.0,
            actuation_failure_prob: 0.0,
            lost_ack_frac: 0.5,
            max_actuation_retries: 3,
            retry_base_secs: 5.0,
            retry_max_secs: 40.0,
            staleness_budget_ticks: 1,
            quorum_fraction: 0.5,
            breaker: BreakerConfig::default(),
        }
    }

    /// The paper-style degraded preset: 5% loss, 10% delay up to 2
    /// periods, 2% duplication, 5% actuation failure.
    pub fn degraded() -> Self {
        ControlPlaneConfig {
            enabled: true,
            loss_prob: 0.05,
            delay_prob: 0.10,
            max_delay_periods: 2,
            duplicate_prob: 0.02,
            actuation_failure_prob: 0.05,
            ..ControlPlaneConfig::perfect()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if a probability leaves `[0, 1]`,
    /// the retry backoff range is not finite-positive or inverted, or
    /// `max_delay_periods` is zero while delays are possible.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("loss_prob", self.loss_prob),
            ("delay_prob", self.delay_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("actuation_failure_prob", self.actuation_failure_prob),
            ("lost_ack_frac", self.lost_ack_frac),
            ("quorum_fraction", self.quorum_fraction),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.delay_prob > 0.0 && self.max_delay_periods == 0 {
            return Err("max_delay_periods must be >= 1 when delay_prob > 0".into());
        }
        if !(self.retry_base_secs.is_finite() && self.retry_base_secs > 0.0) {
            return Err(format!(
                "retry_base_secs must be positive, got {}",
                self.retry_base_secs
            ));
        }
        if !(self.retry_max_secs.is_finite() && self.retry_max_secs >= self.retry_base_secs) {
            return Err(format!(
                "retry_max_secs must be >= retry_base_secs, got {}",
                self.retry_max_secs
            ));
        }
        self.breaker
            .validate()
            .map_err(|e| format!("breaker: {e}"))?;
        Ok(())
    }
}

/// Control-plane health counters, reported in `RunReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Node Manager reports dropped in transit.
    pub reports_lost: u64,
    /// Reports that arrived at least one period late.
    pub reports_late: u64,
    /// Reports delivered more than once (idempotently re-applied).
    pub reports_duplicated: u64,
    /// Scaling-action delivery failures (including retry failures).
    pub actuation_failures: u64,
    /// Retry attempts made for failed actuations.
    pub actuation_retries: u64,
    /// Retries suppressed because the idempotency key showed the action
    /// already executed (lost ack).
    pub actuations_deduped: u64,
    /// Actions dropped after exhausting their retry budget.
    pub actuations_abandoned: u64,
    /// Balancer circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Monitor periods spent in cluster-wide safe mode.
    pub safe_mode_periods: u64,
    /// Capacity-reducing decisions vetoed on stale data.
    pub stale_vetoes: u64,
}

impl std::ops::AddAssign for ControlPlaneStats {
    fn add_assign(&mut self, rhs: Self) {
        self.reports_lost += rhs.reports_lost;
        self.reports_late += rhs.reports_late;
        self.reports_duplicated += rhs.reports_duplicated;
        self.actuation_failures += rhs.actuation_failures;
        self.actuation_retries += rhs.actuation_retries;
        self.actuations_deduped += rhs.actuations_deduped;
        self.actuations_abandoned += rhs.actuations_abandoned;
        self.breaker_opens += rhs.breaker_opens;
        self.safe_mode_periods += rhs.safe_mode_periods;
        self.stale_vetoes += rhs.stale_vetoes;
    }
}

/// What happened to a submitted scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationOutcome {
    /// Delivered and acknowledged: apply it now, nothing pending.
    Executed,
    /// Executed on the data plane but the ack was lost: apply it now,
    /// and a retry is pending that the idempotency key will suppress.
    ExecutedAckLost,
    /// Delivery failed outright: do not apply; a retry is pending.
    Dropped,
}

impl ActuationOutcome {
    /// Whether the data plane actually ran the action.
    pub fn executed(self) -> bool {
        !matches!(self, ActuationOutcome::Dropped)
    }
}

/// A report in flight, queued for late delivery.
#[derive(Debug, Clone)]
struct DelayedReport {
    deliver_period: u64,
    node: NodeId,
    measured_period: u64,
    samples: Vec<ContainerUsage>,
}

/// A failed actuation awaiting its retry window.
#[derive(Debug, Clone, Copy)]
struct PendingActuation {
    key: u64,
    action: ScalingAction,
    /// Attempts made so far (1 = the original submission).
    attempts: u32,
    next_attempt: SimTime,
    /// Delay to impose after the *next* failure.
    backoff_secs: f64,
    /// The data plane already ran this action (its ack was lost); any
    /// due retry is deduplicated instead of re-executed.
    executed: bool,
}

/// The seeded, stateful control-plane model. Owned by the Monitor; all
/// RNG draws happen in the Monitor phase in a fixed order
/// (sorted node ids for reports, idempotency-key order for retries).
#[derive(Debug, Clone)]
pub struct ControlPlane {
    config: ControlPlaneConfig,
    rng: SimRng,
    /// Monitor periods elapsed (advanced by [`ControlPlane::begin_period`]).
    period: u64,
    /// Freshest delivered measurement per node, as the period it was
    /// measured in.
    node_delivered: BTreeMap<NodeId, u64>,
    /// Freshest delivered sample per container and the period it was
    /// measured in.
    samples: BTreeMap<ContainerId, (ContainerUsage, u64)>,
    /// Reports in flight, drained by [`ControlPlane::begin_period`].
    delayed: Vec<DelayedReport>,
    /// Failed actuations, kept sorted by idempotency key (monotonic, so
    /// insertion order *is* key order).
    pending: Vec<PendingActuation>,
    next_key: u64,
    /// Health counters (safe-mode and veto tallies are incremented by
    /// the Monitor, which owns those policies).
    pub stats: ControlPlaneStats,
}

impl ControlPlane {
    /// Creates a control plane with its own seeded RNG stream.
    pub fn new(config: ControlPlaneConfig, rng: SimRng) -> Self {
        ControlPlane {
            config,
            rng,
            period: 0,
            node_delivered: BTreeMap::new(),
            samples: BTreeMap::new(),
            delayed: Vec::new(),
            pending: Vec::new(),
            next_key: 0,
            stats: ControlPlaneStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ControlPlaneConfig {
        &self.config
    }

    /// Test hook: mutates the configuration mid-run (e.g. to heal the
    /// data plane and watch a pending retry land).
    #[cfg(test)]
    pub(crate) fn config_mut(&mut self) -> &mut ControlPlaneConfig {
        &mut self.config
    }

    /// Monitor periods elapsed so far.
    pub fn current_period(&self) -> u64 {
        self.period
    }

    /// Starts a new Monitor period: advances the period counter and
    /// delivers every delayed report that is now due, tracing each late
    /// arrival. Call once at the top of each Monitor period, before
    /// [`ControlPlane::transmit`].
    pub fn begin_period(&mut self, now: SimTime, trace: &mut TraceSink) {
        self.period += 1;
        let period = self.period;
        let due: Vec<DelayedReport> = {
            let mut due = Vec::new();
            self.delayed.retain_mut(|r| {
                if r.deliver_period <= period {
                    due.push(DelayedReport {
                        deliver_period: r.deliver_period,
                        node: r.node,
                        measured_period: r.measured_period,
                        samples: std::mem::take(&mut r.samples),
                    });
                    false
                } else {
                    true
                }
            });
            due
        };
        for report in due {
            let delay = (period - report.measured_period) as u32;
            self.stats.reports_late += 1;
            trace.emit(
                now,
                EventKind::ReportLink {
                    link: LinkTag::Late,
                    node: report.node.index(),
                    delay_periods: delay,
                },
            );
            self.deliver(report.node, report.measured_period, &report.samples);
        }
    }

    /// Sends one Node Manager's usage samples through the degraded link.
    /// Draws loss, delay, and duplication from the seeded stream; calls
    /// must happen in a deterministic node order.
    pub fn transmit(
        &mut self,
        node: NodeId,
        samples: Vec<ContainerUsage>,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        if self.rng.chance(self.config.loss_prob) {
            self.stats.reports_lost += 1;
            trace.emit(
                now,
                EventKind::ReportLink {
                    link: LinkTag::Lost,
                    node: node.index(),
                    delay_periods: 0,
                },
            );
            return;
        }
        if self.rng.chance(self.config.delay_prob) {
            let delay =
                self.rng
                    .uniform_usize(self.config.max_delay_periods as usize) as u64
                    + 1;
            self.delayed.push(DelayedReport {
                deliver_period: self.period + delay,
                node,
                measured_period: self.period,
                samples,
            });
            return;
        }
        self.deliver(node, self.period, &samples);
        if self.rng.chance(self.config.duplicate_prob) {
            // Idempotent re-delivery: the sample store keeps the
            // freshest measurement, so applying the same report twice
            // changes nothing — which is exactly the property we count.
            self.stats.reports_duplicated += 1;
            trace.emit(
                now,
                EventKind::ReportLink {
                    link: LinkTag::Duplicate,
                    node: node.index(),
                    delay_periods: 0,
                },
            );
            self.deliver(node, self.period, &samples);
        }
    }

    /// Installs delivered samples, keeping the freshest measurement per
    /// container (a late report never overwrites newer data).
    fn deliver(&mut self, node: NodeId, measured_period: u64, samples: &[ContainerUsage]) {
        let newest = self
            .node_delivered
            .get(&node)
            .is_none_or(|&prev| measured_period >= prev);
        if newest {
            self.node_delivered.insert(node, measured_period);
        }
        for sample in samples {
            match self.samples.get(&sample.container) {
                Some(&(_, prev)) if prev > measured_period => {}
                _ => {
                    self.samples
                        .insert(sample.container, (*sample, measured_period));
                }
            }
        }
    }

    /// The freshest delivered sample for a container and its age in
    /// Monitor periods ([`NEVER_REPORTED`] if nothing ever arrived).
    pub fn sample(&self, container: ContainerId) -> Option<(&ContainerUsage, u32)> {
        self.samples.get(&container).map(|(usage, measured)| {
            let age = (self.period - measured).min(u64::from(u32::MAX)) as u32;
            (usage, age)
        })
    }

    /// Age of a node's freshest delivered report, in Monitor periods
    /// ([`NEVER_REPORTED`] if nothing ever arrived).
    pub fn node_age(&self, node: NodeId) -> u32 {
        self.node_delivered
            .get(&node)
            .map(|&measured| (self.period - measured).min(u64::from(u32::MAX)) as u32)
            .unwrap_or(NEVER_REPORTED)
    }

    /// Drops samples for containers that no longer exist in the cluster
    /// (`live` must be sorted).
    pub fn prune_missing(&mut self, live: &[ContainerId]) {
        self.samples.retain(|id, _| live.binary_search(id).is_ok());
    }

    /// Submits a scaling action to the data plane, drawing its fate from
    /// the seeded stream. On failure a retry is scheduled under a fresh
    /// idempotency key; a lost-ack failure still executes (the caller
    /// must apply the action) and the key suppresses its retry.
    pub fn submit(
        &mut self,
        action: ScalingAction,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> ActuationOutcome {
        let key = self.next_key;
        self.next_key += 1;
        if !self.rng.chance(self.config.actuation_failure_prob) {
            return ActuationOutcome::Executed;
        }
        self.stats.actuation_failures += 1;
        let executed = self.rng.chance(self.config.lost_ack_frac);
        let next_attempt = now + SimDuration::from_secs(self.config.retry_base_secs);
        trace.emit(
            now,
            EventKind::Actuation {
                outcome: ActuationTag::Failed,
                key,
                attempt: 1,
                retry_at_us: next_attempt.as_micros(),
            },
        );
        self.pending.push(PendingActuation {
            key,
            action,
            attempts: 1,
            next_attempt,
            backoff_secs: (self.config.retry_base_secs * 2.0).min(self.config.retry_max_secs),
            executed,
        });
        if executed {
            ActuationOutcome::ExecutedAckLost
        } else {
            ActuationOutcome::Dropped
        }
    }

    /// Processes every pending retry whose window has arrived, in
    /// idempotency-key order, and returns the actions the caller must
    /// now apply (deduplicated lost-ack entries return nothing).
    pub fn due_retries(&mut self, now: SimTime, trace: &mut TraceSink) -> Vec<ScalingAction> {
        let mut execute = Vec::new();
        let mut keep = Vec::with_capacity(self.pending.len());
        // Monotonic keys + push order means `pending` is already sorted
        // by key; draining front-to-back keeps RNG draws deterministic.
        for mut entry in self.pending.drain(..) {
            if now < entry.next_attempt {
                keep.push(entry);
                continue;
            }
            if entry.executed {
                self.stats.actuations_deduped += 1;
                trace.emit(
                    now,
                    EventKind::Actuation {
                        outcome: ActuationTag::Deduped,
                        key: entry.key,
                        attempt: entry.attempts + 1,
                        retry_at_us: 0,
                    },
                );
                continue;
            }
            self.stats.actuation_retries += 1;
            entry.attempts += 1;
            if !self.rng.chance(self.config.actuation_failure_prob) {
                trace.emit(
                    now,
                    EventKind::Actuation {
                        outcome: ActuationTag::Retried,
                        key: entry.key,
                        attempt: entry.attempts,
                        retry_at_us: 0,
                    },
                );
                execute.push(entry.action);
                continue;
            }
            self.stats.actuation_failures += 1;
            if entry.attempts > self.config.max_actuation_retries {
                self.stats.actuations_abandoned += 1;
                trace.emit(
                    now,
                    EventKind::Actuation {
                        outcome: ActuationTag::Abandoned,
                        key: entry.key,
                        attempt: entry.attempts,
                        retry_at_us: 0,
                    },
                );
                continue;
            }
            if self.rng.chance(self.config.lost_ack_frac) {
                // The retry itself executed but its ack was lost: apply
                // now, keep the entry so further retries deduplicate.
                entry.executed = true;
                execute.push(entry.action);
            }
            entry.next_attempt = now + SimDuration::from_secs(entry.backoff_secs);
            trace.emit(
                now,
                EventKind::Actuation {
                    outcome: ActuationTag::Failed,
                    key: entry.key,
                    attempt: entry.attempts,
                    retry_at_us: entry.next_attempt.as_micros(),
                },
            );
            entry.backoff_secs = (entry.backoff_secs * 2.0).min(self.config.retry_max_secs);
            keep.push(entry);
        }
        self.pending = keep;
        execute
    }

    /// Pending (not yet abandoned) actuation retries.
    pub fn pending_retries(&self) -> usize {
        self.pending.len()
    }

    /// Serializes the full mutable control-plane state (snapshot
    /// support). The configuration is *not* written — it is rebuilt from
    /// scenario config on restore.
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_u64(self.period);
        w.put_usize(self.node_delivered.len());
        for (&node, &measured) in &self.node_delivered {
            w.put_u32(node.index());
            w.put_u64(measured);
        }
        w.put_usize(self.samples.len());
        for (&container, &(ref usage, measured)) in &self.samples {
            w.put_u32(container.index());
            write_usage(w, usage);
            w.put_u64(measured);
        }
        w.put_usize(self.delayed.len());
        for report in &self.delayed {
            w.put_u64(report.deliver_period);
            w.put_u32(report.node.index());
            w.put_u64(report.measured_period);
            w.put_usize(report.samples.len());
            for usage in &report.samples {
                write_usage(w, usage);
            }
        }
        w.put_usize(self.pending.len());
        for p in &self.pending {
            w.put_u64(p.key);
            write_action(w, &p.action);
            w.put_u32(p.attempts);
            w.put_u64(p.next_attempt.as_micros());
            w.put_f64(p.backoff_secs);
            w.put_bool(p.executed);
        }
        w.put_u64(self.next_key);
        let s = &self.stats;
        for v in [
            s.reports_lost,
            s.reports_late,
            s.reports_duplicated,
            s.actuation_failures,
            s.actuation_retries,
            s.actuations_deduped,
            s.actuations_abandoned,
            s.breaker_opens,
            s.safe_mode_periods,
            s.stale_vetoes,
        ] {
            w.put_u64(v);
        }
    }

    /// Overlays state captured by [`ControlPlane::snapshot_write`] onto
    /// this (freshly constructed) control plane.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        self.rng = SimRng::from_state(state);
        self.period = r.get_u64()?;
        self.node_delivered.clear();
        for _ in 0..r.get_usize()? {
            let node = NodeId::new(r.get_u32()?);
            let measured = r.get_u64()?;
            self.node_delivered.insert(node, measured);
        }
        self.samples.clear();
        for _ in 0..r.get_usize()? {
            let container = ContainerId::new(r.get_u32()?);
            let usage = read_usage(r)?;
            let measured = r.get_u64()?;
            self.samples.insert(container, (usage, measured));
        }
        self.delayed.clear();
        for _ in 0..r.get_usize()? {
            let deliver_period = r.get_u64()?;
            let node = NodeId::new(r.get_u32()?);
            let measured_period = r.get_u64()?;
            let n = r.get_usize()?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                samples.push(read_usage(r)?);
            }
            self.delayed.push(DelayedReport {
                deliver_period,
                node,
                measured_period,
                samples,
            });
        }
        self.pending.clear();
        for _ in 0..r.get_usize()? {
            let key = r.get_u64()?;
            let action = read_action(r)?;
            let attempts = r.get_u32()?;
            let next_attempt = SimTime::from_micros(r.get_u64()?);
            let backoff_secs = r.get_f64()?;
            let executed = r.get_bool()?;
            self.pending.push(PendingActuation {
                key,
                action,
                attempts,
                next_attempt,
                backoff_secs,
                executed,
            });
        }
        self.next_key = r.get_u64()?;
        self.stats = ControlPlaneStats {
            reports_lost: r.get_u64()?,
            reports_late: r.get_u64()?,
            reports_duplicated: r.get_u64()?,
            actuation_failures: r.get_u64()?,
            actuation_retries: r.get_u64()?,
            actuations_deduped: r.get_u64()?,
            actuations_abandoned: r.get_u64()?,
            breaker_opens: r.get_u64()?,
            safe_mode_periods: r.get_u64()?,
            stale_vetoes: r.get_u64()?,
        };
        Ok(())
    }
}

/// Serializes one usage sample (snapshot support).
fn write_usage(w: &mut SnapWriter, u: &ContainerUsage) {
    w.put_u32(u.container.index());
    w.put_f64(u.cpu_used.get());
    w.put_f64(u.mem_used.get());
    w.put_f64(u.net_used.get());
    w.put_f64(u.disk_used.get());
    w.put_usize(u.in_flight);
    w.put_bool(u.swapping);
}

/// Reads a usage sample written by [`write_usage`].
fn read_usage(r: &mut SnapReader<'_>) -> Result<ContainerUsage, SnapshotError> {
    Ok(ContainerUsage {
        container: ContainerId::new(r.get_u32()?),
        cpu_used: Cores(r.get_f64()?),
        mem_used: MemMb(r.get_f64()?),
        net_used: Mbps(r.get_f64()?),
        disk_used: Mbps(r.get_f64()?),
        in_flight: r.get_usize()?,
        swapping: r.get_bool()?,
    })
}

/// Serializes one scaling action as a tag byte plus its fields
/// (snapshot support for pending actuation retries).
fn write_action(w: &mut SnapWriter, action: &ScalingAction) {
    match *action {
        ScalingAction::Update {
            container,
            cpu,
            mem,
        } => {
            w.put_u8(0);
            w.put_u32(container.index());
            w.put_opt_f64(cpu.map(|c| c.get()));
            w.put_opt_f64(mem.map(|m| m.get()));
        }
        ScalingAction::Spawn {
            service,
            node,
            cpu,
            mem,
        } => {
            w.put_u8(1);
            w.put_u32(service.index());
            w.put_u32(node.index());
            w.put_f64(cpu.get());
            w.put_f64(mem.get());
        }
        ScalingAction::Remove { container } => {
            w.put_u8(2);
            w.put_u32(container.index());
        }
        ScalingAction::SetNetCap { container, cap } => {
            w.put_u8(3);
            w.put_u32(container.index());
            w.put_opt_f64(cap.map(|c| c.get()));
        }
    }
}

/// Reads a scaling action written by [`write_action`].
fn read_action(r: &mut SnapReader<'_>) -> Result<ScalingAction, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(ScalingAction::Update {
            container: ContainerId::new(r.get_u32()?),
            cpu: r.get_opt_f64()?.map(Cores),
            mem: r.get_opt_f64()?.map(MemMb),
        }),
        1 => Ok(ScalingAction::Spawn {
            service: ServiceId::new(r.get_u32()?),
            node: NodeId::new(r.get_u32()?),
            cpu: Cores(r.get_f64()?),
            mem: MemMb(r.get_f64()?),
        }),
        2 => Ok(ScalingAction::Remove {
            container: ContainerId::new(r.get_u32()?),
        }),
        3 => Ok(ScalingAction::SetNetCap {
            container: ContainerId::new(r.get_u32()?),
            cap: r.get_opt_f64()?.map(Mbps),
        }),
        tag => Err(SnapshotError::Corrupt(format!(
            "unknown scaling-action tag {tag}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_cluster::{Cores, Mbps, MemMb, ServiceId};

    fn usage(container: u32, cpu: f64) -> ContainerUsage {
        ContainerUsage {
            container: ContainerId::new(container),
            cpu_used: Cores(cpu),
            mem_used: MemMb(100.0),
            net_used: Mbps(1.0),
            disk_used: Mbps(0.0),
            in_flight: 1,
            swapping: false,
        }
    }

    fn spawn_action() -> ScalingAction {
        ScalingAction::Spawn {
            service: ServiceId::new(0),
            node: NodeId::new(0),
            cpu: Cores(0.5),
            mem: MemMb(256.0),
        }
    }

    #[test]
    fn perfect_config_delivers_everything_immediately() {
        let mut cp = ControlPlane::new(ControlPlaneConfig::perfect(), SimRng::seed_from(1));
        let mut trace = TraceSink::disabled();
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.5)],
            SimTime::ZERO,
            &mut trace,
        );
        let (sample, age) = cp.sample(ContainerId::new(0)).unwrap();
        assert_eq!(sample.cpu_used, Cores(0.5));
        assert_eq!(age, 0);
        assert_eq!(cp.node_age(NodeId::new(0)), 0);
        assert_eq!(cp.node_age(NodeId::new(9)), NEVER_REPORTED);
        assert_eq!(cp.stats, ControlPlaneStats::default());
    }

    #[test]
    fn certain_loss_drops_every_report() {
        let config = ControlPlaneConfig {
            enabled: true,
            loss_prob: 1.0,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(2));
        let mut trace = TraceSink::with_capacity(16);
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.5)],
            SimTime::ZERO,
            &mut trace,
        );
        assert!(cp.sample(ContainerId::new(0)).is_none());
        assert_eq!(cp.stats.reports_lost, 1);
        assert_eq!(cp.node_age(NodeId::new(0)), NEVER_REPORTED);
        assert!(trace.events().any(|e| matches!(
            e.kind,
            EventKind::ReportLink {
                link: LinkTag::Lost,
                ..
            }
        )));
    }

    #[test]
    fn delayed_reports_arrive_late_with_measurement_age() {
        let config = ControlPlaneConfig {
            enabled: true,
            delay_prob: 1.0,
            max_delay_periods: 1,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(3));
        let mut trace = TraceSink::with_capacity(16);
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.7)],
            SimTime::ZERO,
            &mut trace,
        );
        // Not delivered yet.
        assert!(cp.sample(ContainerId::new(0)).is_none());
        // Next period: the report lands, one period old.
        cp.begin_period(SimTime::from_secs(5.0), &mut trace);
        let (sample, age) = cp.sample(ContainerId::new(0)).unwrap();
        assert_eq!(sample.cpu_used, Cores(0.7));
        assert_eq!(age, 1);
        assert_eq!(cp.node_age(NodeId::new(0)), 1);
        assert_eq!(cp.stats.reports_late, 1);
        assert!(trace.events().any(|e| matches!(
            e.kind,
            EventKind::ReportLink {
                link: LinkTag::Late,
                delay_periods: 1,
                ..
            }
        )));
    }

    #[test]
    fn late_delivery_never_overwrites_fresher_data() {
        let config = ControlPlaneConfig {
            enabled: true,
            delay_prob: 1.0,
            max_delay_periods: 2,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(4));
        let mut trace = TraceSink::disabled();
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.2)],
            SimTime::ZERO,
            &mut trace,
        );
        // Hand-deliver a fresher measurement before the delayed one lands.
        cp.begin_period(SimTime::from_secs(5.0), &mut trace);
        let fresh_period = cp.current_period();
        cp.deliver(NodeId::new(0), fresh_period, &[usage(0, 0.9)]);
        cp.begin_period(SimTime::from_secs(10.0), &mut trace);
        cp.begin_period(SimTime::from_secs(15.0), &mut trace);
        let (sample, _) = cp.sample(ContainerId::new(0)).unwrap();
        assert_eq!(sample.cpu_used, Cores(0.9), "stale data must not win");
        assert_eq!(cp.node_age(NodeId::new(0)), 2);
    }

    #[test]
    fn duplicates_are_idempotent_and_counted() {
        let config = ControlPlaneConfig {
            enabled: true,
            duplicate_prob: 1.0,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(5));
        let mut trace = TraceSink::with_capacity(16);
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.4)],
            SimTime::ZERO,
            &mut trace,
        );
        assert_eq!(cp.stats.reports_duplicated, 1);
        let (sample, age) = cp.sample(ContainerId::new(0)).unwrap();
        assert_eq!(sample.cpu_used, Cores(0.4));
        assert_eq!(age, 0);
    }

    #[test]
    fn lost_ack_retry_is_deduplicated_by_key() {
        let config = ControlPlaneConfig {
            enabled: true,
            actuation_failure_prob: 1.0,
            lost_ack_frac: 1.0,
            retry_base_secs: 5.0,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(6));
        let mut trace = TraceSink::with_capacity(16);
        let outcome = cp.submit(spawn_action(), SimTime::ZERO, &mut trace);
        assert_eq!(outcome, ActuationOutcome::ExecutedAckLost);
        assert!(outcome.executed());
        assert_eq!(cp.pending_retries(), 1);
        // The retry window arrives: the key shows it already executed,
        // so nothing is returned for re-execution.
        let actions = cp.due_retries(SimTime::from_secs(5.0), &mut trace);
        assert!(actions.is_empty());
        assert_eq!(cp.pending_retries(), 0);
        assert_eq!(cp.stats.actuations_deduped, 1);
        assert!(trace.events().any(|e| matches!(
            e.kind,
            EventKind::Actuation {
                outcome: ActuationTag::Deduped,
                ..
            }
        )));
    }

    #[test]
    fn dropped_actuation_retries_and_eventually_executes() {
        let config = ControlPlaneConfig {
            enabled: true,
            actuation_failure_prob: 1.0,
            lost_ack_frac: 0.0,
            retry_base_secs: 5.0,
            retry_max_secs: 40.0,
            max_actuation_retries: 10,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(7));
        let mut trace = TraceSink::disabled();
        let outcome = cp.submit(spawn_action(), SimTime::ZERO, &mut trace);
        assert_eq!(outcome, ActuationOutcome::Dropped);
        // Too early: nothing happens, no RNG drawn.
        assert!(cp
            .due_retries(SimTime::from_secs(1.0), &mut trace)
            .is_empty());
        // First retry at 5 s fails again (prob 1.0); backoff doubles.
        assert!(cp
            .due_retries(SimTime::from_secs(5.0), &mut trace)
            .is_empty());
        assert_eq!(cp.pending_retries(), 1);
        // Flip to always-succeed and let the next window land.
        cp.config.actuation_failure_prob = 0.0;
        let actions = cp.due_retries(SimTime::from_secs(15.0), &mut trace);
        assert_eq!(actions, vec![spawn_action()]);
        assert_eq!(cp.pending_retries(), 0);
        assert!(cp.stats.actuation_retries >= 2);
    }

    #[test]
    fn retries_are_abandoned_after_the_budget() {
        let config = ControlPlaneConfig {
            enabled: true,
            actuation_failure_prob: 1.0,
            lost_ack_frac: 0.0,
            retry_base_secs: 1.0,
            retry_max_secs: 1.0,
            max_actuation_retries: 2,
            ..ControlPlaneConfig::perfect()
        };
        let mut cp = ControlPlane::new(config, SimRng::seed_from(8));
        let mut trace = TraceSink::with_capacity(16);
        assert_eq!(
            cp.submit(spawn_action(), SimTime::ZERO, &mut trace),
            ActuationOutcome::Dropped
        );
        let mut t = 0.0;
        for _ in 0..4 {
            t += 2.0;
            cp.due_retries(SimTime::from_secs(t), &mut trace);
        }
        assert_eq!(cp.pending_retries(), 0);
        assert_eq!(cp.stats.actuations_abandoned, 1);
        assert!(trace.events().any(|e| matches!(
            e.kind,
            EventKind::Actuation {
                outcome: ActuationTag::Abandoned,
                ..
            }
        )));
    }

    #[test]
    fn prune_missing_drops_vanished_containers() {
        let mut cp = ControlPlane::new(ControlPlaneConfig::perfect(), SimRng::seed_from(9));
        let mut trace = TraceSink::disabled();
        cp.begin_period(SimTime::ZERO, &mut trace);
        cp.transmit(
            NodeId::new(0),
            vec![usage(0, 0.1), usage(1, 0.2)],
            SimTime::ZERO,
            &mut trace,
        );
        cp.prune_missing(&[ContainerId::new(1)]);
        assert!(cp.sample(ContainerId::new(0)).is_none());
        assert!(cp.sample(ContainerId::new(1)).is_some());
    }

    #[test]
    fn config_validation_rejects_bad_probabilities() {
        assert!(ControlPlaneConfig::perfect().validate().is_ok());
        assert!(ControlPlaneConfig::degraded().validate().is_ok());
        assert!(ControlPlaneConfig {
            loss_prob: 1.5,
            ..ControlPlaneConfig::perfect()
        }
        .validate()
        .is_err());
        assert!(ControlPlaneConfig {
            delay_prob: 0.5,
            max_delay_periods: 0,
            ..ControlPlaneConfig::perfect()
        }
        .validate()
        .is_err());
        assert!(ControlPlaneConfig {
            retry_base_secs: 0.0,
            ..ControlPlaneConfig::perfect()
        }
        .validate()
        .is_err());
        assert!(ControlPlaneConfig {
            retry_base_secs: 10.0,
            retry_max_secs: 5.0,
            ..ControlPlaneConfig::perfect()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = || {
            let mut cp = ControlPlane::new(ControlPlaneConfig::degraded(), SimRng::seed_from(42));
            let mut trace = TraceSink::disabled();
            for p in 0..20u64 {
                let now = SimTime::from_secs(p as f64 * 5.0);
                cp.begin_period(now, &mut trace);
                for n in 0..4u32 {
                    cp.transmit(
                        NodeId::new(n),
                        vec![usage(n, 0.1 * f64::from(n))],
                        now,
                        &mut trace,
                    );
                }
                let _ = cp.due_retries(now, &mut trace);
                let _ = cp.submit(spawn_action(), now, &mut trace);
            }
            (cp.stats, cp.pending_retries(), cp.node_age(NodeId::new(2)))
        };
        assert_eq!(run(), run());
    }
}
