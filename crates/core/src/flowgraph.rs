//! Runtime tracking of multi-tier request flow over a [`ServiceGraph`].
//!
//! The graph itself (in `hyscale-workload`) is pure topology; this module
//! owns the driver-side state that walks it. Every client arrival on an
//! entry-point service opens a *root* — one logical user request. Each
//! admitted batch of work on some tier is a *hop*, keyed by the cluster's
//! aggregate [`RequestId`](hyscale_cluster::RequestId) base. When a hop
//! completes, one [`EventKind::Span`] is journaled (so the whole request
//! can be stitched back together from the trace by root id) and one child
//! hop per outgoing edge is queued; the driver admits queued hops at the
//! next tick, which is the inter-tier queueing delay. A root resolves
//! when no hops remain in flight or queued: end-to-end latency is the
//! last hop's finish minus the root's arrival, attributed to the entry
//! point that opened it.
//!
//! With the resilience layer disabled, failure is all-or-nothing: any
//! failed or unadmitted hop marks the whole root failed, and its member
//! count lands in the entry point's failed tally — a user request that
//! lost any downstream RPC did not succeed, even if sibling branches
//! finished. With a [`ResilienceConfig`] enabled, a retryable lost hop
//! instead re-queues as a fresh [`PendingHop`] after an exponential
//! backoff (seeded jitter drawn from the driver's dedicated resilience
//! RNG stream), bounded by the per-edge
//! [`RetryPolicy`]'s attempt cap, the root's end-to-end deadline, and
//! the per-service retry-budget token bucket replenished by successful
//! completions.
//!
//! Live roots and hops sit in `HashMap`s keyed by id, hashed by the
//! fixed [`IdHasher`] (never a randomly seeded one). Nothing reads the
//! maps in iteration order except [`GraphTracker::snapshot_write`], which
//! sorts their entries by id first, so snapshot serialization stays
//! deterministic and resume is bit-exact. Queued hops are an in-order
//! `Vec`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use hyscale_cluster::{Cluster, Cohort, CompletedRequest, FailedRequest, FailureKind, ServiceId};
use hyscale_metrics::Summary;
use hyscale_sim::{SimDuration, SimRng, SimTime, SnapReader, SnapWriter, SnapshotError};
use hyscale_trace::{EventKind, TraceSink};
use hyscale_workload::RetryPolicy;
use hyscale_workload::ServiceGraph;
use hyscale_workload::ServiceSpec;

use crate::resilience::{ResilienceConfig, ResilienceStats};

/// End-to-end outcomes for one entry-point service of a [`ServiceGraph`]
/// scenario.
///
/// Counts are in *root* (logical user request) and *member* units: a
/// cohort of `n` arrivals on the entry point opens one root with `n`
/// members, and every member of a successful root contributes one
/// end-to-end latency sample.
#[derive(Debug, Clone)]
pub struct EntryPointStats {
    /// The entry-point service these outcomes belong to.
    pub service: ServiceId,
    /// Roots opened (one per entry-point arrival event or cohort batch).
    pub roots_started: u64,
    /// Roots whose every hop completed.
    pub roots_completed: u64,
    /// Roots that lost at least one hop (admission rejection, timeout,
    /// abort, or infrastructure failure anywhere in the graph) beyond
    /// what retries recovered.
    pub roots_failed: u64,
    /// Members of completed roots.
    pub members_completed: u64,
    /// Members of failed roots.
    pub members_failed: u64,
    /// End-to-end latency (seconds) of completed roots, one record per
    /// root weighted by its members: last hop finish minus entry arrival.
    pub e2e_secs: Summary,
}

impl EntryPointStats {
    fn new(service: ServiceId) -> Self {
        EntryPointStats {
            service,
            roots_started: 0,
            roots_completed: 0,
            roots_failed: 0,
            members_completed: 0,
            members_failed: 0,
            e2e_secs: Summary::new(),
        }
    }

    /// End-to-end p95, in seconds (0.0 with no completed roots).
    pub fn p95_secs(&self) -> f64 {
        self.e2e_secs.percentile(95.0)
    }

    /// End-to-end p99, in seconds (0.0 with no completed roots).
    pub fn p99_secs(&self) -> f64 {
        self.e2e_secs.percentile(99.0)
    }

    /// Folds another seed's outcomes for the same entry point into this
    /// one (used by `run_averaged`).
    pub fn merge(&mut self, other: &EntryPointStats) {
        self.roots_started += other.roots_started;
        self.roots_completed += other.roots_completed;
        self.roots_failed += other.roots_failed;
        self.members_completed += other.members_completed;
        self.members_failed += other.members_failed;
        self.e2e_secs.merge(&other.e2e_secs);
    }
}

/// A child hop queued by a completed parent (or a retry queued by a lost
/// hop), waiting for an admission pass. Demands are fully materialized
/// at queue time (child base demands × edge multipliers) so processing
/// needs no graph lookups — and, deliberately, no RNG draws: derived
/// traffic must not perturb the workload streams shared with graph-free
/// runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingHop {
    /// Index of the child service in the scenario's service list.
    pub service: usize,
    /// Hop depth (entry point = 0).
    pub depth: u32,
    /// The root this hop belongs to.
    pub root: u64,
    /// Member requests in the hop.
    pub count: u64,
    /// CPU core-seconds per member.
    pub cpu_secs: f64,
    /// In-flight memory per member, MB.
    pub mem_mb: f64,
    /// Egress megabits per member.
    pub megabits: f64,
    /// Disk megabits per member.
    pub disk_megabits: f64,
    /// When the parent hop finished (the child's arrival time) — or,
    /// for a retry, when its backoff expires; the driver admits the hop
    /// at the first tick at or after this time.
    pub arrival: SimTime,
    /// Delivery attempts already made (0 = a fresh hop).
    pub attempt: u32,
    /// Index into the tracker's policy table (0 = scenario default,
    /// `i + 1` = edge `i`'s override).
    pub policy: u32,
}

/// One logical user request in flight across the graph.
#[derive(Debug, Clone, Copy)]
struct RootRecord {
    /// Slot in `entry_stats` of the entry point that opened this root.
    entry: usize,
    /// When the entry arrival happened.
    arrival: SimTime,
    /// Member requests that arrived at the entry point.
    members: u64,
    /// In-flight hop records plus queued [`PendingHop`]s; the root
    /// resolves when this reaches zero.
    pending: u32,
    /// Whether any hop was lost (beyond what retries recovered).
    failed: bool,
    /// Latest hop finish time seen so far.
    last_finish: SimTime,
    /// End-to-end deadline: the root must fully resolve by this time
    /// ([`SimTime::MAX`] = unlimited). Hops inherit
    /// `min(remaining budget, service timeout)` from it.
    deadline: SimTime,
    /// Member completions accumulated under this root (across all hops)
    /// — the goodput-vs-wasted split charged at resolution.
    work_members: u64,
}

/// An admitted batch of work on one tier, keyed by its aggregate request
/// id base (the cluster reports exactly one completion or failure record
/// per admitted batch). Carries the per-member demands so a lost batch
/// can be re-queued as a retry without re-deriving them (the cluster's
/// failure records carry no demand information).
#[derive(Debug, Clone, Copy)]
struct HopRecord {
    root: u64,
    depth: u32,
    /// Index of the hop's service in the scenario's service list.
    service: usize,
    /// Delivery attempts already made including this one minus one
    /// (0 = first attempt in flight).
    attempt: u32,
    /// Index into the tracker's policy table.
    policy: u32,
    cpu_secs: f64,
    mem_mb: f64,
    megabits: f64,
    disk_megabits: f64,
}

/// Multiply-rotate hasher for the tracker's `u64` root and hop ids.
///
/// The ids are sequential (roots) or spaced by batch size (hop id bases),
/// so the multiply spreads them into the high bits and the final rotate
/// brings those well-mixed bits down to where the table picks its bucket.
/// Fixed rather than randomly seeded: the simulator assigns these ids
/// itself, so SipHash's flood resistance would buy nothing.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Driver-side runtime state for a graph scenario.
#[derive(Debug, Clone)]
pub(crate) struct GraphTracker {
    graph: ServiceGraph,
    /// Service-list position → numeric ServiceId (for trace events).
    service_ids: Vec<u32>,
    /// Service-list position → slot in `entry_stats` (None for
    /// non-entry services).
    entry_slot: Vec<Option<usize>>,
    next_root: u64,
    roots: IdMap<RootRecord>,
    hops: IdMap<HopRecord>,
    pending: Vec<PendingHop>,
    /// The buffer [`GraphTracker::take_due`] hands out, recycled through
    /// [`GraphTracker::return_pending_scratch`]; empty between ticks.
    due: Vec<PendingHop>,
    entry_stats: Vec<EntryPointStats>,
    /// Resilience knobs (disabled = the legacy all-or-nothing model).
    resilience: ResilienceConfig,
    /// Policy table: slot 0 is the scenario default, slot `i + 1` is
    /// edge `i`'s effective policy. Rebuilt from config, never
    /// snapshotted — hops serialize only their table index.
    policies: Vec<RetryPolicy>,
    /// Per-service retry-budget tokens (member units). Empty when the
    /// budget is unbounded.
    tokens: Vec<f64>,
    /// Run counters for the resilience layer.
    stats: ResilienceStats,
}

impl GraphTracker {
    /// Builds the tracker for a validated graph over `services`.
    pub fn new(
        graph: ServiceGraph,
        services: &[ServiceSpec],
        resilience: ResilienceConfig,
    ) -> Self {
        let service_ids = services.iter().map(|s| s.id.index()).collect();
        let mut entry_slot = vec![None; services.len()];
        let mut entry_stats = Vec::new();
        for idx in graph.entry_points() {
            entry_slot[idx] = Some(entry_stats.len());
            entry_stats.push(EntryPointStats::new(services[idx].id));
        }
        let mut policies = Vec::with_capacity(graph.edges().len() + 1);
        policies.push(resilience.default_policy);
        for edge in graph.edges() {
            policies.push(edge.retry.unwrap_or(resilience.default_policy));
        }
        let tokens = if resilience.enabled && resilience.has_retry_budget() {
            vec![resilience.budget_floor; services.len()]
        } else {
            Vec::new()
        };
        GraphTracker {
            graph,
            service_ids,
            entry_slot,
            next_root: 0,
            roots: IdMap::default(),
            hops: IdMap::default(),
            pending: Vec::new(),
            due: Vec::new(),
            entry_stats,
            resilience,
            policies,
            tokens,
            stats: ResilienceStats::default(),
        }
    }

    /// Whether client load attaches to the service at list position
    /// `idx`.
    pub fn is_entry(&self, idx: usize) -> bool {
        self.entry_slot.get(idx).is_some_and(Option::is_some)
    }

    /// Overload shedding for a root of `members` arrivals on the entry
    /// point at list position `idx`. When shedding is armed (resilience
    /// on, watermark set) and the service already holds at least the
    /// watermark of in-flight members, the root is dropped unissued —
    /// counted as shed, not failed — so queued work can drain. Returns
    /// whether it was shed. The watermark reads the cluster's in-flight
    /// counts between ticks, so the decision is deterministic.
    pub fn shed_if_overloaded(
        &mut self,
        idx: usize,
        members: u64,
        cluster: &Cluster,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> bool {
        if !self.resilience.enabled || self.resilience.shed_watermark == 0 {
            return false;
        }
        let in_flight = cluster.service_in_flight(ServiceId::new(self.service_ids[idx]));
        if in_flight < self.resilience.shed_watermark {
            return false;
        }
        self.record_shed(idx, members, in_flight, now, trace);
        true
    }

    /// Records one shed root of `members` arrivals on the entry point at
    /// list position `idx`.
    fn record_shed(
        &mut self,
        idx: usize,
        members: u64,
        in_flight: u64,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        debug_assert!(self.is_entry(idx), "shed on a non-entry service");
        self.stats.shed_roots += 1;
        self.stats.shed_members += members;
        if trace.is_enabled() {
            trace.emit(
                now,
                EventKind::Shed {
                    service: self.service_ids[idx],
                    count: members,
                    in_flight,
                },
            );
        }
    }

    /// Run counters for the resilience layer (all zero when disabled).
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Opens a root for `members` arrivals on the entry point at list
    /// position `idx`; hops must then be registered (or the root failed)
    /// before [`GraphTracker::seal_root`].
    pub fn begin_root(&mut self, idx: usize, arrival: SimTime, members: u64) -> u64 {
        let slot = self.entry_slot[idx].expect("begin_root on a non-entry service");
        self.entry_stats[slot].roots_started += 1;
        let id = self.next_root;
        self.next_root += 1;
        let deadline = if self.resilience.enabled && self.resilience.has_root_budget() {
            arrival + SimDuration::from_secs(self.resilience.root_budget_secs)
        } else {
            SimTime::MAX
        };
        self.roots.insert(
            id,
            RootRecord {
                entry: slot,
                arrival,
                members,
                pending: 0,
                failed: false,
                last_finish: arrival,
                deadline,
                work_members: 0,
            },
        );
        id
    }

    /// Opens a root for a client arrival `flow` on the entry point at list
    /// position `idx` and returns its entry hop. The flow's timeout is
    /// tightened to the root's deadline budget
    /// ([`GraphTracker::hop_timeout`]) before it is admitted.
    pub fn begin_entry(&mut self, idx: usize, flow: &mut Cohort) -> PendingHop {
        let root = self.begin_root(idx, flow.arrival, flow.count);
        flow.timeout = self.hop_timeout(root, flow.arrival, flow.timeout);
        PendingHop {
            service: idx,
            depth: 0,
            root,
            count: flow.count,
            cpu_secs: flow.cpu_secs,
            mem_mb: flow.mem.0,
            megabits: flow.megabits_out,
            disk_megabits: flow.disk_megabits,
            arrival: flow.arrival,
            attempt: 0,
            policy: 0,
        }
    }

    /// The deadline-aware timeout for a hop of `root` arriving at
    /// `arrival`: `min(service timeout, remaining deadline budget)`.
    /// Exactly `service_timeout` when the layer is disabled or the root
    /// carries no deadline, so disabled runs stay bit-identical.
    pub fn hop_timeout(
        &self,
        root: u64,
        arrival: SimTime,
        service_timeout: SimDuration,
    ) -> SimDuration {
        let Some(record) = self.roots.get(&root) else {
            return service_timeout;
        };
        if record.deadline == SimTime::MAX {
            return service_timeout;
        }
        service_timeout.min(record.deadline.saturating_since(arrival))
    }

    /// Ties an admitted batch (aggregate id base `id_base`) to its root,
    /// copying the hop descriptor's demands so a lost batch can retry.
    pub fn register_hop(&mut self, root: u64, id_base: u64, hop: &PendingHop) {
        debug_assert_eq!(hop.root, root, "hop descriptor for a different root");
        let record = self.roots.get_mut(&root).expect("hop for unknown root");
        record.pending += 1;
        self.hops.insert(
            id_base,
            HopRecord {
                root,
                depth: hop.depth,
                service: hop.service,
                attempt: hop.attempt,
                policy: hop.policy,
                cpu_secs: hop.cpu_secs,
                mem_mb: hop.mem_mb,
                megabits: hop.megabits,
                disk_megabits: hop.disk_megabits,
            },
        );
    }

    /// Marks the root failed (lost members at admission or in flight).
    /// The root still waits for its surviving hops before resolving.
    pub fn fail_root(&mut self, root: u64) {
        if let Some(record) = self.roots.get_mut(&root) {
            record.failed = true;
        }
    }

    /// Resolves the root immediately if nothing was admitted for it
    /// (entry arrivals that were fully rejected never get a completion
    /// sweep to resolve them).
    pub fn seal_root(&mut self, root: u64) {
        if self.roots.get(&root).is_some_and(|r| r.pending == 0) {
            self.resolve(root);
        }
    }

    /// Settles one processed [`PendingHop`] of `root`: the queued entry
    /// no longer counts toward `pending` (any admitted shares were
    /// re-counted by [`GraphTracker::register_hop`], and any retried
    /// rejection re-counted itself in
    /// [`GraphTracker::on_unadmitted`]).
    pub fn settle_queued(&mut self, root: u64) {
        let record = self
            .roots
            .get_mut(&root)
            .expect("queued hop for unknown root");
        record.pending -= 1;
        if record.pending == 0 {
            self.resolve(root);
        }
    }

    /// Handles members of a hop the balancer or admission rejected:
    /// either re-queues them as a retry (counting toward `pending`) or
    /// fails the root. The caller still records the queue-abort failure
    /// and settles/seals the originating entry afterwards either way.
    pub fn on_unadmitted(
        &mut self,
        hop: &PendingHop,
        rejected: u64,
        now: SimTime,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) {
        let template = PendingHop {
            count: rejected,
            ..*hop
        };
        if self.try_retry(template, FailureKind::QueueAbort, now, rng, trace) {
            if let Some(record) = self.roots.get_mut(&hop.root) {
                record.pending += 1;
            }
        } else {
            self.fail_root(hop.root);
        }
    }

    /// Handles one completed batch from the cluster's sweep: journals the
    /// hop's span, queues one child hop per outgoing edge (demands =
    /// child base demands × edge multipliers, count = completed members ×
    /// fan-out), replenishes the service's retry budget, and resolves the
    /// root if this was its last outstanding hop.
    pub fn on_completed(
        &mut self,
        done: &CompletedRequest,
        services: &[ServiceSpec],
        trace: &mut TraceSink,
    ) {
        let Some(hop) = self.hops.remove(&done.id.index()) else {
            return;
        };
        let record = self.roots.get_mut(&hop.root).expect("hop without root");
        if trace.is_enabled() {
            trace.emit(
                done.finished,
                EventKind::Span {
                    root: hop.root,
                    entry: self.entry_stats[record.entry].service.index(),
                    service: done.service.index(),
                    depth: hop.depth,
                    count: done.count,
                    queue_us: (done.admitted - done.arrival).as_micros(),
                    service_us: (done.finished - done.admitted).as_micros(),
                },
            );
        }
        if done.finished > record.last_finish {
            record.last_finish = done.finished;
        }
        let parent_idx = hop.service;
        if self.resilience.enabled {
            record.work_members += done.count;
            if self.resilience.has_retry_budget() {
                // Token-bucket replenishment: each success earns
                // budget_pct% of a retry token, capped at the floor.
                self.tokens[parent_idx] = (self.tokens[parent_idx]
                    + done.count as f64 * self.resilience.budget_pct / 100.0)
                    .min(self.resilience.budget_floor);
            }
        }
        let mut spawned = 0u32;
        for (edge_idx, edge) in self.graph.edges().iter().enumerate() {
            if edge.parent != parent_idx {
                continue;
            }
            let child = &services[edge.child];
            self.pending.push(PendingHop {
                service: edge.child,
                depth: hop.depth + 1,
                root: hop.root,
                count: done.count * edge.fan_out,
                cpu_secs: child.cpu_secs_per_req * edge.cpu_mult,
                mem_mb: child.mem_per_req.get() * edge.mem_mult,
                megabits: child.megabits_per_req * edge.net_mult,
                disk_megabits: child.disk_megabits_per_req * edge.disk_mult,
                arrival: done.finished,
                attempt: 0,
                policy: (edge_idx + 1) as u32,
            });
            spawned += 1;
        }
        let record = self.roots.get_mut(&hop.root).expect("hop without root");
        record.pending += spawned;
        record.pending -= 1;
        if record.pending == 0 {
            self.resolve(hop.root);
        }
    }

    /// Handles one failed batch: with a retryable failure, attempt cap
    /// not reached, deadline budget left, and budget tokens available,
    /// the batch re-queues as a retry [`PendingHop`] after its backoff;
    /// otherwise the whole root is failed, no children spawn, and the
    /// root resolves once its other hops drain.
    pub fn on_failed(&mut self, failure: &FailedRequest, rng: &mut SimRng, trace: &mut TraceSink) {
        let Some(hop) = self.hops.remove(&failure.id.index()) else {
            return;
        };
        let template = PendingHop {
            service: hop.service,
            depth: hop.depth,
            root: hop.root,
            count: failure.count,
            cpu_secs: hop.cpu_secs,
            mem_mb: hop.mem_mb,
            megabits: hop.megabits,
            disk_megabits: hop.disk_megabits,
            arrival: failure.failed_at,
            attempt: hop.attempt,
            policy: hop.policy,
        };
        if self.try_retry(template, failure.kind, failure.failed_at, rng, trace) {
            // Net pending is unchanged: the in-flight hop record left,
            // the queued retry took its place.
            return;
        }
        let record = self.roots.get_mut(&hop.root).expect("hop without root");
        record.failed = true;
        record.pending -= 1;
        if record.pending == 0 {
            self.resolve(hop.root);
        }
    }

    /// Attempts to re-queue `hop` (whose `count` members just failed
    /// with `kind` at `failed_at`) as a retry. Returns whether the retry
    /// was queued; the caller owns the pending accounting of the failed
    /// attempt either way. The jitter draw happens only on an actually
    /// attempted retry, so disabled runs (and non-retryable failures)
    /// consume no randomness.
    fn try_retry(
        &mut self,
        hop: PendingHop,
        kind: FailureKind,
        failed_at: SimTime,
        rng: &mut SimRng,
        trace: &mut TraceSink,
    ) -> bool {
        if !self.resilience.enabled {
            return false;
        }
        let policy = self.policies[hop.policy as usize];
        if !policy.retries(kind) || hop.attempt + 1 >= policy.max_attempts {
            return false;
        }
        let Some(record) = self.roots.get(&hop.root) else {
            return false;
        };
        let service_id = self.service_ids[hop.service];
        let base = policy.backoff_secs(hop.attempt);
        let backoff = if policy.jitter_frac > 0.0 {
            base * (1.0 + policy.jitter_frac * rng.uniform_range(-1.0, 1.0))
        } else {
            base
        };
        let retry_at = failed_at + SimDuration::from_secs(backoff);
        if retry_at >= record.deadline {
            self.stats.deadline_exceeded += 1;
            if trace.is_enabled() {
                trace.emit(
                    failed_at,
                    EventKind::DeadlineExceeded {
                        root: hop.root,
                        service: service_id,
                        deadline_us: record.deadline.as_micros(),
                    },
                );
            }
            return false;
        }
        if self.resilience.has_retry_budget() {
            if self.tokens[hop.service] < hop.count as f64 {
                self.stats.budget_exhausted += 1;
                if trace.is_enabled() {
                    trace.emit(
                        failed_at,
                        EventKind::BudgetExhausted {
                            root: hop.root,
                            service: service_id,
                            count: hop.count,
                        },
                    );
                }
                return false;
            }
            self.tokens[hop.service] -= hop.count as f64;
        }
        self.stats.retries += 1;
        self.stats.retried_members += hop.count;
        if trace.is_enabled() {
            trace.emit(
                failed_at,
                EventKind::Retry {
                    root: hop.root,
                    service: service_id,
                    attempt: hop.attempt + 2,
                    count: hop.count,
                    retry_at_us: retry_at.as_micros(),
                },
            );
        }
        self.pending.push(PendingHop {
            arrival: retry_at,
            attempt: hop.attempt + 1,
            ..hop
        });
        true
    }

    /// Moves the queued child hops out for the driver's admission pass
    /// (in spawn order, which is deterministic). With the resilience
    /// layer disabled every queued hop is due (legacy behaviour); with
    /// it enabled, hops whose arrival — a retry's backoff expiry — lies
    /// beyond `now` stay queued for a later tick, in order.
    pub fn take_due(&mut self, now: SimTime) -> Vec<PendingHop> {
        let mut due = std::mem::take(&mut self.due);
        if !self.resilience.enabled {
            std::mem::swap(&mut due, &mut self.pending);
            return due;
        }
        self.pending.retain(|h| {
            let is_due = h.arrival <= now;
            if is_due {
                due.push(*h);
            }
            !is_due
        });
        due
    }

    /// Returns the buffer [`GraphTracker::take_due`] handed out, for reuse
    /// next tick.
    pub fn return_pending_scratch(&mut self, mut scratch: Vec<PendingHop>) {
        scratch.clear();
        self.due = scratch;
    }

    /// Whether any child hops await admission.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Whether the tracker holds no in-flight or queued work at all.
    #[cfg(test)]
    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.hops.is_empty() && self.roots.is_empty()
    }

    fn resolve(&mut self, root: u64) {
        let record = self.roots.remove(&root).expect("resolving unknown root");
        if record.failed {
            self.stats.wasted_members += record.work_members;
        } else {
            self.stats.goodput_members += record.work_members;
        }
        let stats = &mut self.entry_stats[record.entry];
        if record.failed {
            stats.roots_failed += 1;
            stats.members_failed += record.members;
        } else {
            stats.roots_completed += 1;
            stats.members_completed += record.members;
            let secs = (record.last_finish - record.arrival).as_secs();
            stats.e2e_secs.record_n(secs, record.members);
        }
    }

    /// Consumes the tracker into its per-entry-point report rows.
    pub fn into_entry_stats(self) -> Vec<EntryPointStats> {
        self.entry_stats
    }

    /// Read access for the end-of-run counter dump.
    pub fn entry_stats(&self) -> &[EntryPointStats] {
        &self.entry_stats
    }

    /// Serializes the full tracker state (mirrored by
    /// [`GraphTracker::snapshot_restore`]). The policy table is rebuilt
    /// from config (pinned by the snapshot's config digest), so hops
    /// serialize only their table index.
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.next_root);
        let mut roots: Vec<_> = self.roots.iter().collect();
        roots.sort_unstable_by_key(|&(&id, _)| id);
        w.put_usize(roots.len());
        for (&id, r) in roots {
            w.put_u64(id);
            w.put_usize(r.entry);
            w.put_u64(r.arrival.as_micros());
            w.put_u64(r.members);
            w.put_u32(r.pending);
            w.put_u8(r.failed as u8);
            w.put_u64(r.last_finish.as_micros());
            w.put_u64(r.deadline.as_micros());
            w.put_u64(r.work_members);
        }
        let mut hops: Vec<_> = self.hops.iter().collect();
        hops.sort_unstable_by_key(|&(&id_base, _)| id_base);
        w.put_usize(hops.len());
        for (&id_base, h) in hops {
            w.put_u64(id_base);
            w.put_u64(h.root);
            w.put_u32(h.depth);
            w.put_usize(h.service);
            w.put_u32(h.attempt);
            w.put_u32(h.policy);
            w.put_f64(h.cpu_secs);
            w.put_f64(h.mem_mb);
            w.put_f64(h.megabits);
            w.put_f64(h.disk_megabits);
        }
        w.put_usize(self.pending.len());
        for p in &self.pending {
            w.put_usize(p.service);
            w.put_u32(p.depth);
            w.put_u64(p.root);
            w.put_u64(p.count);
            w.put_f64(p.cpu_secs);
            w.put_f64(p.mem_mb);
            w.put_f64(p.megabits);
            w.put_f64(p.disk_megabits);
            w.put_u64(p.arrival.as_micros());
            w.put_u32(p.attempt);
            w.put_u32(p.policy);
        }
        w.put_usize(self.entry_stats.len());
        for s in &self.entry_stats {
            w.put_u32(s.service.index());
            w.put_u64(s.roots_started);
            w.put_u64(s.roots_completed);
            w.put_u64(s.roots_failed);
            w.put_u64(s.members_completed);
            w.put_u64(s.members_failed);
            s.e2e_secs.snapshot_write(w);
        }
        w.put_usize(self.tokens.len());
        for &t in &self.tokens {
            w.put_f64(t);
        }
        w.put_u64(self.stats.retries);
        w.put_u64(self.stats.retried_members);
        w.put_u64(self.stats.budget_exhausted);
        w.put_u64(self.stats.deadline_exceeded);
        w.put_u64(self.stats.shed_roots);
        w.put_u64(self.stats.shed_members);
        w.put_u64(self.stats.goodput_members);
        w.put_u64(self.stats.wasted_members);
    }

    /// Restores state written by [`GraphTracker::snapshot_write`] into a
    /// freshly built tracker (topology and policies come from the
    /// config, which the snapshot's config digest already pinned).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] when the payload disagrees
    /// with the scenario's entry-point or policy layout.
    pub fn snapshot_restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.next_root = r.get_u64()?;
        self.roots.clear();
        for _ in 0..r.get_usize()? {
            let id = r.get_u64()?;
            let entry = r.get_usize()?;
            if entry >= self.entry_stats.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "root {id} references entry slot {entry} of {}",
                    self.entry_stats.len()
                )));
            }
            self.roots.insert(
                id,
                RootRecord {
                    entry,
                    arrival: SimTime::from_micros(r.get_u64()?),
                    members: r.get_u64()?,
                    pending: r.get_u32()?,
                    failed: r.get_u8()? != 0,
                    last_finish: SimTime::from_micros(r.get_u64()?),
                    deadline: SimTime::from_micros(r.get_u64()?),
                    work_members: r.get_u64()?,
                },
            );
        }
        self.hops.clear();
        for _ in 0..r.get_usize()? {
            let id_base = r.get_u64()?;
            let root = r.get_u64()?;
            let depth = r.get_u32()?;
            let service = r.get_usize()?;
            let attempt = r.get_u32()?;
            let policy = r.get_u32()?;
            if service >= self.entry_slot.len() || policy as usize >= self.policies.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "hop {id_base} references service {service} / policy {policy} \
                     outside the scenario"
                )));
            }
            self.hops.insert(
                id_base,
                HopRecord {
                    root,
                    depth,
                    service,
                    attempt,
                    policy,
                    cpu_secs: r.get_f64()?,
                    mem_mb: r.get_f64()?,
                    megabits: r.get_f64()?,
                    disk_megabits: r.get_f64()?,
                },
            );
        }
        self.pending.clear();
        for _ in 0..r.get_usize()? {
            let service = r.get_usize()?;
            if service >= self.entry_slot.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "pending hop references service index {service} of {}",
                    self.entry_slot.len()
                )));
            }
            let hop = PendingHop {
                service,
                depth: r.get_u32()?,
                root: r.get_u64()?,
                count: r.get_u64()?,
                cpu_secs: r.get_f64()?,
                mem_mb: r.get_f64()?,
                megabits: r.get_f64()?,
                disk_megabits: r.get_f64()?,
                arrival: SimTime::from_micros(r.get_u64()?),
                attempt: r.get_u32()?,
                policy: r.get_u32()?,
            };
            if hop.policy as usize >= self.policies.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "pending hop references policy {} of {}",
                    hop.policy,
                    self.policies.len()
                )));
            }
            self.pending.push(hop);
        }
        let n = r.get_usize()?;
        if n != self.entry_stats.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot carries {n} entry points, scenario has {}",
                self.entry_stats.len()
            )));
        }
        for s in self.entry_stats.iter_mut() {
            let svc = r.get_u32()?;
            if svc != s.service.index() {
                return Err(SnapshotError::Corrupt(format!(
                    "entry point order mismatch: snapshot {svc}, scenario {}",
                    s.service.index()
                )));
            }
            s.roots_started = r.get_u64()?;
            s.roots_completed = r.get_u64()?;
            s.roots_failed = r.get_u64()?;
            s.members_completed = r.get_u64()?;
            s.members_failed = r.get_u64()?;
            s.e2e_secs = Summary::snapshot_read(r)?;
        }
        let n = r.get_usize()?;
        if n != self.tokens.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot carries {n} budget buckets, scenario has {}",
                self.tokens.len()
            )));
        }
        for t in self.tokens.iter_mut() {
            *t = r.get_f64()?;
        }
        self.stats = ResilienceStats {
            retries: r.get_u64()?,
            retried_members: r.get_u64()?,
            budget_exhausted: r.get_u64()?,
            deadline_exceeded: r.get_u64()?,
            shed_roots: r.get_u64()?,
            shed_members: r.get_u64()?,
            goodput_members: r.get_u64()?,
            wasted_members: r.get_u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_cluster::{ContainerId, FailureKind, RequestId};
    use hyscale_workload::{LoadPattern, ServiceProfile};

    fn services(n: u32) -> Vec<ServiceSpec> {
        (0..n)
            .map(|i| ServiceSpec::synthetic(i, ServiceProfile::CpuBound, LoadPattern::low_burst()))
            .collect()
    }

    fn tracker(graph: ServiceGraph, specs: &[ServiceSpec]) -> GraphTracker {
        GraphTracker::new(graph, specs, ResilienceConfig::disabled())
    }

    fn entry_hop(root: u64, service: usize) -> PendingHop {
        PendingHop {
            service,
            depth: 0,
            root,
            count: 1,
            cpu_secs: 0.1,
            mem_mb: 1.0,
            megabits: 0.1,
            disk_megabits: 0.0,
            arrival: SimTime::ZERO,
            attempt: 0,
            policy: 0,
        }
    }

    fn completed(id: u64, service: u32, count: u64, finished_secs: f64) -> CompletedRequest {
        let finished = SimTime::from_secs(finished_secs);
        CompletedRequest {
            id: RequestId::new(id),
            count,
            service: ServiceId::new(service),
            container: ContainerId::new(0),
            arrival: SimTime::ZERO,
            admitted: SimTime::from_secs(0.1),
            finished,
            response_time: finished - SimTime::ZERO,
        }
    }

    fn failed(id: u64, service: u32, count: u64, at_secs: f64, kind: FailureKind) -> FailedRequest {
        FailedRequest {
            id: RequestId::new(id),
            count,
            service: ServiceId::new(service),
            container: Some(ContainerId::new(0)),
            arrival: SimTime::ZERO,
            failed_at: SimTime::from_secs(at_secs),
            kind,
        }
    }

    #[test]
    fn three_tier_root_resolves_with_e2e_latency() {
        let specs = services(3);
        let graph = ServiceGraph::new(3).with_edge(0, 1, 2).with_edge(1, 2, 1);
        let mut t = tracker(graph, &specs);
        assert!(t.is_entry(0));
        assert!(!t.is_entry(1));

        let root = t.begin_root(0, SimTime::ZERO, 5);
        t.register_hop(root, 100, &entry_hop(root, 0));
        t.seal_root(root);
        assert!(!t.is_idle());

        let mut sink = TraceSink::disabled();
        t.on_completed(&completed(100, 0, 5, 1.0), &specs, &mut sink);
        // The entry hop spawned one pending child (service 1, 5×2
        // members); the root is still open.
        assert!(t.has_pending());
        let pending = t.take_due(SimTime::from_secs(100.0));
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].service, 1);
        assert_eq!(pending[0].count, 10);
        assert_eq!(pending[0].depth, 1);
        assert_eq!(pending[0].attempt, 0);
        assert_eq!(pending[0].policy, 1, "first edge's policy slot");

        t.register_hop(root, 200, &pending[0]);
        t.settle_queued(root);
        t.on_completed(&completed(200, 1, 10, 2.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        assert_eq!(pending[0].service, 2);
        t.register_hop(root, 300, &pending[0]);
        t.settle_queued(root);
        t.on_completed(&completed(300, 2, 10, 3.5), &specs, &mut sink);

        assert!(t.is_idle());
        let stats = t.into_entry_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].roots_completed, 1);
        assert_eq!(stats[0].members_completed, 5);
        assert_eq!(stats[0].e2e_secs.count(), 5);
        assert!((stats[0].e2e_secs.max() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn any_failed_hop_fails_the_whole_root() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let mut t = tracker(graph, &specs);
        let root = t.begin_root(0, SimTime::ZERO, 3);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(1);
        t.on_completed(&completed(10, 0, 3, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        t.on_failed(
            &failed(20, 1, 3, 2.0, FailureKind::Timeout),
            &mut rng,
            &mut sink,
        );
        assert!(t.is_idle());
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_failed, 1);
        assert_eq!(stats[0].members_failed, 3);
        assert_eq!(stats[0].roots_completed, 0);
        assert!(stats[0].e2e_secs.is_empty());
    }

    #[test]
    fn fully_rejected_entry_resolves_as_failed_on_seal() {
        let specs = services(1);
        let mut t = tracker(ServiceGraph::new(1), &specs);
        let root = t.begin_root(0, SimTime::ZERO, 4);
        t.fail_root(root);
        t.seal_root(root);
        assert!(t.is_idle());
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_started, 1);
        assert_eq!(stats[0].roots_failed, 1);
        assert_eq!(stats[0].members_failed, 4);
    }

    #[test]
    fn edge_multipliers_scale_child_demands() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge_spec(
            hyscale_workload::GraphEdge::new(0, 1, 3)
                .with_costs(2.0, 0.5)
                .with_mem_disk(4.0, 8.0),
        );
        let mut t = tracker(graph, &specs);
        let root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(root, 1, &entry_hop(root, 0));
        let mut sink = TraceSink::disabled();
        t.on_completed(&completed(1, 0, 1, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        let child = &specs[1];
        assert_eq!(pending[0].count, 3);
        assert!((pending[0].cpu_secs - child.cpu_secs_per_req * 2.0).abs() < 1e-12);
        assert!((pending[0].megabits - child.megabits_per_req * 0.5).abs() < 1e-12);
        assert!((pending[0].mem_mb - child.mem_per_req.get() * 4.0).abs() < 1e-12);
        assert!((pending[0].disk_megabits - child.disk_megabits_per_req * 8.0).abs() < 1e-12);
    }

    #[test]
    fn retryable_failure_requeues_instead_of_failing() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0));
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 2);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 2, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);

        // The child hop dies to an infra death: retryable.
        t.on_failed(
            &failed(20, 1, 2, 2.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert!(!t.is_idle(), "root must stay open for the retry");
        assert_eq!(t.resilience_stats().retries, 1);
        assert_eq!(t.resilience_stats().retried_members, 2);

        // Nothing is due before the backoff expires (base 1.0 s).
        assert!(t.take_due(SimTime::from_secs(2.5)).is_empty());
        let due = t.take_due(SimTime::from_secs(3.0));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].attempt, 1);
        assert_eq!(due[0].count, 2);
        assert_eq!(due[0].arrival, SimTime::from_secs(3.0));

        // The retry succeeds; the root completes cleanly.
        t.register_hop(root, 30, &due[0]);
        t.settle_queued(root);
        t.on_completed(&completed(30, 1, 2, 4.0), &specs, &mut sink);
        assert!(t.is_idle());
        assert_eq!(t.resilience_stats().goodput_members, 4);
        assert_eq!(t.resilience_stats().wasted_members, 0);
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_completed, 1);
        assert_eq!(stats[0].roots_failed, 0);
    }

    #[test]
    fn attempt_cap_exhausts_into_root_failure() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let resilience = ResilienceConfig::with_policy(
            RetryPolicy::standard()
                .with_max_attempts(2)
                .with_backoff(1.0, 8.0, 0.0),
        );
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 1, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        t.on_failed(
            &failed(20, 1, 1, 2.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        let due = t.take_due(SimTime::from_secs(10.0));
        assert_eq!(due[0].attempt, 1);
        t.register_hop(root, 30, &due[0]);
        t.settle_queued(root);
        // Second failure: attempts (2) are spent, root fails.
        t.on_failed(
            &failed(30, 1, 1, 4.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert!(t.is_idle());
        assert_eq!(t.resilience_stats().retries, 1);
        assert_eq!(t.resilience_stats().wasted_members, 1);
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_failed, 1);
    }

    #[test]
    fn empty_budget_bucket_blocks_the_retry() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0))
                .with_budget(10.0, 2.0);
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 4);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 4, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        // 4 members want a retry but the floor only holds 2 tokens
        // (plus the 4×10% earned by the entry completion, still < 4).
        t.on_failed(
            &failed(20, 1, 4, 2.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert!(t.is_idle(), "budget-refused retry fails the root");
        assert_eq!(t.resilience_stats().budget_exhausted, 1);
        assert_eq!(t.resilience_stats().retries, 0);
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_failed, 1);
    }

    #[test]
    fn backoff_past_deadline_fails_the_root() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(5.0, 8.0, 0.0))
                .with_root_budget_secs(6.0);
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 1);
        // Deadline budget also caps hop timeouts.
        assert_eq!(
            t.hop_timeout(root, SimTime::from_secs(2.0), SimDuration::from_secs(30.0)),
            SimDuration::from_secs(4.0)
        );
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 1, 2.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        // Fails at t=3; backoff of 5 s lands at t=8 > deadline t=6.
        t.on_failed(
            &failed(20, 1, 1, 3.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert!(t.is_idle());
        assert_eq!(t.resilience_stats().deadline_exceeded, 1);
        assert_eq!(t.resilience_stats().retries, 0);
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_failed, 1);
    }

    #[test]
    fn unadmitted_members_retry_and_keep_the_root_pending() {
        let specs = services(1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0));
        let mut t = GraphTracker::new(ServiceGraph::new(1), &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 3);
        let hop = entry_hop(root, 0);
        // The whole admission was rejected: retry instead of fail.
        t.on_unadmitted(&hop, 3, SimTime::ZERO, &mut rng, &mut sink);
        t.seal_root(root);
        assert!(!t.is_idle(), "retry keeps the root open past seal");
        let due = t.take_due(SimTime::from_secs(1.0));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].attempt, 1);
        assert_eq!(due[0].count, 3);
        t.register_hop(root, 40, &due[0]);
        t.settle_queued(root);
        t.on_completed(&completed(40, 0, 3, 2.0), &specs, &mut sink);
        assert!(t.is_idle());
        let stats = t.into_entry_stats();
        assert_eq!(stats[0].roots_completed, 1);
        assert_eq!(stats[0].roots_failed, 0);
    }

    #[test]
    fn jitter_draws_only_on_actual_retries() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        // Disabled layer: the RNG must never be touched.
        let mut t = tracker(graph.clone(), &specs);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(99);
        let before = rng.state();
        let root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_failed(
            &failed(10, 0, 1, 1.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert_eq!(rng.state(), before, "disabled layer must not draw");

        // Enabled with jitter: exactly one draw per retry.
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.5));
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut rng = SimRng::seed_from(99);
        let root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        let before = rng.state();
        t.on_failed(
            &failed(10, 0, 1, 1.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert_ne!(rng.state(), before, "jittered retry must draw once");
        assert_eq!(t.resilience_stats().retries, 1);
    }

    #[test]
    fn per_edge_policy_overrides_the_default() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge_spec(
            hyscale_workload::GraphEdge::new(0, 1, 1).with_retry(RetryPolicy::off()),
        );
        // Default would retry, but the edge override says no.
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0));
        let mut t = GraphTracker::new(graph, &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);
        let root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 1, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        assert_eq!(pending[0].policy, 1);
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        t.on_failed(
            &failed(20, 1, 1, 2.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        assert!(t.is_idle(), "edge-off policy must not retry");
        assert_eq!(t.resilience_stats().retries, 0);
    }

    #[test]
    fn snapshot_round_trips_mid_flight_state() {
        let specs = services(3);
        let graph = ServiceGraph::new(3).with_edge(0, 1, 2).with_edge(0, 2, 1);
        let mut t = tracker(graph.clone(), &specs);
        let root = t.begin_root(0, SimTime::from_secs(1.0), 2);
        t.register_hop(root, 50, &entry_hop(root, 0));
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(1);
        t.on_completed(&completed(50, 0, 2, 2.0), &specs, &mut sink);
        // Two pending children, root open. Also one fully resolved root.
        let done_root = t.begin_root(0, SimTime::ZERO, 1);
        t.register_hop(done_root, 60, &entry_hop(done_root, 0));
        // Complete it on a childless path by failing it instead.
        t.fail_root(done_root);
        t.on_failed(
            &failed(60, 0, 1, 1.0, FailureKind::Removal),
            &mut rng,
            &mut sink,
        );

        let mut w = SnapWriter::new();
        t.snapshot_write(&mut w);
        let first = w.finish();

        let mut restored = tracker(graph, &specs);
        let mut r = SnapReader::open(&first).unwrap();
        restored.snapshot_restore(&mut r).unwrap();
        r.expect_done().unwrap();

        let mut w2 = SnapWriter::new();
        restored.snapshot_write(&mut w2);
        assert_eq!(first, w2.finish(), "restore must be bit-exact");
        assert!(restored.has_pending());
        assert_eq!(restored.entry_stats()[0].roots_failed, 1);
    }

    #[test]
    fn snapshot_round_trips_resilience_state() {
        let specs = services(2);
        let graph = ServiceGraph::new(2).with_edge(0, 1, 1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0))
                .with_budget(10.0, 50.0)
                .with_root_budget_secs(60.0)
                .with_shed_watermark(100);
        let mut t = GraphTracker::new(graph.clone(), &specs, resilience);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(7);

        let root = t.begin_root(0, SimTime::ZERO, 2);
        t.register_hop(root, 10, &entry_hop(root, 0));
        t.seal_root(root);
        t.on_completed(&completed(10, 0, 2, 1.0), &specs, &mut sink);
        let pending = t.take_due(SimTime::from_secs(100.0));
        t.register_hop(root, 20, &pending[0]);
        t.settle_queued(root);
        // Mid-backoff: a retry is queued with a future arrival.
        t.on_failed(
            &failed(20, 1, 2, 2.0, FailureKind::InfraDeath),
            &mut rng,
            &mut sink,
        );
        t.record_shed(0, 5, 200, SimTime::from_secs(2.0), &mut sink);
        assert!(t.has_pending());
        assert_eq!(t.resilience_stats().retries, 1);
        assert_eq!(t.resilience_stats().shed_roots, 1);

        let mut w = SnapWriter::new();
        t.snapshot_write(&mut w);
        let first = w.finish();

        let mut restored = GraphTracker::new(graph, &specs, resilience);
        let mut r = SnapReader::open(&first).unwrap();
        restored.snapshot_restore(&mut r).unwrap();
        r.expect_done().unwrap();

        let mut w2 = SnapWriter::new();
        restored.snapshot_write(&mut w2);
        assert_eq!(first, w2.finish(), "restore must be bit-exact");
        assert_eq!(restored.resilience_stats(), t.resilience_stats());
        assert_eq!(restored.tokens, t.tokens);
        // The mid-backoff retry survives with its attempt counter.
        let due = restored.take_due(SimTime::from_secs(10.0));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].attempt, 1);
    }

    /// Reads the root ids and hop id bases, in written order, from a
    /// payload of [`GraphTracker::snapshot_write`].
    fn snapshot_ids(frame: &[u8]) -> (Vec<u64>, Vec<u64>) {
        let mut r = SnapReader::open(frame).unwrap();
        r.get_u64().unwrap();
        let roots = (0..r.get_usize().unwrap())
            .map(|_| {
                let id = r.get_u64().unwrap();
                r.get_usize().unwrap();
                r.get_u64().unwrap();
                r.get_u64().unwrap();
                r.get_u32().unwrap();
                r.get_u8().unwrap();
                for _ in 0..3 {
                    r.get_u64().unwrap();
                }
                id
            })
            .collect();
        let hops = (0..r.get_usize().unwrap())
            .map(|_| {
                let id_base = r.get_u64().unwrap();
                r.get_u64().unwrap();
                r.get_u32().unwrap();
                r.get_usize().unwrap();
                r.get_u32().unwrap();
                r.get_u32().unwrap();
                for _ in 0..4 {
                    r.get_f64().unwrap();
                }
                id_base
            })
            .collect();
        (roots, hops)
    }

    #[test]
    fn snapshot_lists_roots_and_hops_in_ascending_id_order() {
        let specs = services(1);
        let mut t = tracker(ServiceGraph::new(1), &specs);
        let mut sink = TraceSink::disabled();
        let mut rng = SimRng::seed_from(3);
        // Root k's hop gets id base 10_000 - 10k: hop ids descend while
        // root ids ascend.
        let roots: Vec<u64> = (0..40)
            .map(|k| {
                let root = t.begin_root(0, SimTime::ZERO, 1);
                t.register_hop(root, 10_000 - 10 * k, &entry_hop(root, 0));
                t.seal_root(root);
                root
            })
            .collect();
        // Resolve every third root, newest first, alternating success and
        // failure.
        for (n, &root) in roots.iter().rev().filter(|&&r| r % 3 == 0).enumerate() {
            let id = 10_000 - 10 * root;
            if n % 2 == 0 {
                t.on_completed(&completed(id, 0, 1, 1.0), &specs, &mut sink);
            } else {
                t.on_failed(
                    &failed(id, 0, 1, 1.0, FailureKind::Removal),
                    &mut rng,
                    &mut sink,
                );
            }
        }

        let mut w = SnapWriter::new();
        t.snapshot_write(&mut w);
        let first = w.finish();
        let (root_ids, hop_ids) = snapshot_ids(&first);
        let open: Vec<u64> = roots.iter().copied().filter(|r| r % 3 != 0).collect();
        assert_eq!(root_ids, open, "roots in ascending id order");
        let mut expected_hops: Vec<u64> = open.iter().map(|r| 10_000 - 10 * r).collect();
        expected_hops.sort_unstable();
        assert_eq!(hop_ids, expected_hops, "hops in ascending id order");

        let mut restored = tracker(ServiceGraph::new(1), &specs);
        let mut r = SnapReader::open(&first).unwrap();
        restored.snapshot_restore(&mut r).unwrap();
        r.expect_done().unwrap();
        let mut w2 = SnapWriter::new();
        restored.snapshot_write(&mut w2);
        assert_eq!(first, w2.finish(), "restore must be bit-exact");
    }

    #[test]
    fn take_due_recycles_its_buffer_and_keeps_later_hops_in_order() {
        let specs = services(1);
        let resilience =
            ResilienceConfig::with_policy(RetryPolicy::standard().with_backoff(1.0, 8.0, 0.0));
        let mut t = GraphTracker::new(ServiceGraph::new(1), &specs, resilience);
        for (root, secs) in [(0, 3.0), (1, 1.0), (2, 4.0), (3, 2.0)] {
            t.pending.push(PendingHop {
                arrival: SimTime::from_secs(secs),
                ..entry_hop(root, 0)
            });
        }
        let due = t.take_due(SimTime::from_secs(2.0));
        assert_eq!(due.iter().map(|h| h.root).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(t.pending.iter().map(|h| h.root).collect::<Vec<_>>(), [0, 2]);
        let buffer = due.as_ptr();
        t.return_pending_scratch(due);
        let due = t.take_due(SimTime::from_secs(5.0));
        assert_eq!(due.as_ptr(), buffer, "the returned buffer is reused");
        assert_eq!(due.iter().map(|h| h.root).collect::<Vec<_>>(), [0, 2]);
        assert!(!t.has_pending());
    }
}
