//! Flow cohorts: many identical requests carried as one record.
//!
//! Under processor sharing, identical requests admitted to the same
//! replica at the same tick receive identical CPU/network/disk shares and
//! therefore evolve identically. A [`Cohort`] exploits that: one record
//! with a member `count` and a *per-member* demand profile exactly models
//! `count` individual requests, turning the hot loop's cost from
//! O(requests) into O(distinct flows). Cohorts are split only when
//! something diverges their members — routing to different replicas,
//! circuit-breaker state, or faults (a replica death aborts its whole
//! resident cohort share).
//!
//! Inside a container, all in-flight work lives in one [`FlowTable`]: a
//! row per admitted cohort share, and a row of `count == 1` per
//! individually-admitted request. The tick engine's demand,
//! processor-sharing and settlement sweeps walk these rows directly.

use hyscale_sim::{SimDuration, SimTime, SnapReader, SnapWriter, SnapshotError};

use crate::ids::ServiceId;
use crate::request::Request;
use crate::MemMb;

/// A batch of identical in-flight requests: `count` members, each with
/// the same per-member demand profile and deadline.
///
/// Construct directly, via [`Cohort::from_request`], or by splitting an
/// existing cohort with [`Cohort::split`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cohort {
    /// The microservice every member targets.
    pub service: ServiceId,
    /// When the members were issued (they share one arrival tick).
    pub arrival: SimTime,
    /// Number of member requests represented by this record.
    pub count: u64,
    /// CPU work per member, core-seconds.
    pub cpu_secs: f64,
    /// Memory held per member while in flight.
    pub mem: MemMb,
    /// Egress traffic per member, megabits.
    pub megabits_out: f64,
    /// Disk traffic per member, megabits.
    pub disk_megabits: f64,
    /// Members fail as connection failures if not done by
    /// `arrival + timeout`.
    pub timeout: SimDuration,
    /// Delivery attempts already made for this work before this one
    /// (0 = first attempt). Carried so retried hops remain
    /// distinguishable in flight; the cluster itself never branches on
    /// it.
    pub attempt: u32,
}

impl Cohort {
    /// Creates a cohort with explicit per-member demands.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or any demand is negative or non-finite.
    pub fn new(
        service: ServiceId,
        arrival: SimTime,
        count: u64,
        cpu_secs: f64,
        mem: MemMb,
        megabits_out: f64,
    ) -> Self {
        assert!(count > 0, "cohort count must be positive");
        assert!(
            cpu_secs.is_finite() && cpu_secs >= 0.0,
            "cpu_secs must be finite and non-negative"
        );
        assert!(
            mem.get().is_finite() && mem.get() >= 0.0,
            "mem must be finite and non-negative"
        );
        assert!(
            megabits_out.is_finite() && megabits_out >= 0.0,
            "megabits_out must be finite and non-negative"
        );
        Cohort {
            service,
            arrival,
            count,
            cpu_secs,
            mem,
            megabits_out,
            disk_megabits: 0.0,
            timeout: Request::DEFAULT_TIMEOUT,
            attempt: 0,
        }
    }

    /// A cohort of `count` copies of one request.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn from_request(request: &Request, count: u64) -> Self {
        Cohort::new(
            request.service,
            request.arrival,
            count,
            request.cpu_secs,
            request.mem,
            request.megabits_out,
        )
        .with_disk(request.disk_megabits)
        .with_timeout(request.timeout)
    }

    /// Adds per-member disk traffic.
    ///
    /// # Panics
    ///
    /// Panics if `disk_megabits` is negative or not finite.
    pub fn with_disk(mut self, disk_megabits: f64) -> Self {
        assert!(
            disk_megabits.is_finite() && disk_megabits >= 0.0,
            "disk_megabits must be finite and non-negative"
        );
        self.disk_megabits = disk_megabits;
        self
    }

    /// Overrides the timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Marks the cohort as a retry: `attempt` prior delivery attempts.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// The absolute deadline after which members fail.
    pub fn deadline(&self) -> SimTime {
        self.arrival + self.timeout
    }

    /// Splits off `left` members, returning `(left_part, right_part)`.
    /// Both halves keep the shared demand profile; member identities
    /// partition in order (the left part keeps the low request ids once
    /// admitted).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < left < self.count`.
    pub fn split(self, left: u64) -> (Cohort, Cohort) {
        assert!(
            left > 0 && left < self.count,
            "split point must leave both halves non-empty"
        );
        let mut a = self.clone();
        let mut b = self;
        a.count = left;
        b.count -= left;
        (a, b)
    }
}

/// One in-flight flow: `count` member requests that share a demand
/// profile, a deadline and an admission tick, and therefore progress
/// identically under processor sharing. An individually-admitted request
/// is a flow with `count == 1`; the tick engine never tells the two apart.
/// Member request ids are the dense range `id_base .. id_base + count`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Flow {
    pub id_base: u64,
    pub count: u64,
    pub service: ServiceId,
    pub arrival: SimTime,
    /// When the members were admitted to this container (queue delay is
    /// `admitted - arrival`; service time runs from here).
    pub admitted: SimTime,
    pub deadline: SimTime,
    /// CPU core-seconds still owed *per member*.
    pub cpu_rem: f64,
    /// Egress megabits still owed *per member*.
    pub net_rem: f64,
    /// Disk megabits still owed *per member*.
    pub disk_rem: f64,
    /// In-flight memory *per member*, MB.
    pub mem_per: f64,
    /// Prior delivery attempts of the flow's work (0 = first attempt).
    pub attempt: u32,
}

impl Flow {
    /// A not-yet-admitted flow for one request (`id_base` is assigned on
    /// admission).
    pub fn of_request(r: &Request, admitted: SimTime) -> Self {
        Flow {
            id_base: 0,
            count: 1,
            service: r.service,
            arrival: r.arrival,
            admitted,
            deadline: r.deadline(),
            cpu_rem: r.cpu_secs,
            net_rem: r.megabits_out,
            disk_rem: r.disk_megabits,
            mem_per: r.mem.get(),
            attempt: 0,
        }
    }

    /// A not-yet-admitted flow for a whole cohort (`id_base` is assigned
    /// on admission).
    pub fn of_cohort(c: &Cohort, admitted: SimTime) -> Self {
        Flow {
            id_base: 0,
            count: c.count,
            service: c.service,
            arrival: c.arrival,
            admitted,
            deadline: c.deadline(),
            cpu_rem: c.cpu_secs,
            net_rem: c.megabits_out,
            disk_rem: c.disk_megabits,
            mem_per: c.mem.get(),
            attempt: c.attempt,
        }
    }

    /// The member count as an `f64` weight. Counts stay far below 2^53,
    /// so the conversion is exact; converting through `i64` is a single
    /// instruction on x86-64, which matters in the per-row tick passes.
    pub fn weight(&self) -> f64 {
        self.count as i64 as f64
    }

    /// Every member has finished its CPU, network and disk work.
    pub fn is_done(&self) -> bool {
        self.cpu_rem <= 1e-12 && self.net_rem <= 1e-9 && self.disk_rem <= 1e-9
    }
}

/// A container's in-flight flows, in admission order (settlement
/// swap-removes), with the member total kept in step.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FlowTable {
    pub rows: Vec<Flow>,
    /// Running total of members across all rows.
    members: u64,
}

impl FlowTable {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total members across all flows (maintained incrementally).
    pub fn members(&self) -> u64 {
        self.members
    }

    pub fn push(&mut self, flow: Flow) {
        self.members += flow.count;
        self.rows.push(flow);
    }

    /// Removes row `i` (order-insensitive, O(1)) and returns it.
    pub fn swap_remove(&mut self, i: usize) -> Flow {
        let flow = self.rows.swap_remove(i);
        self.members -= flow.count;
        flow
    }

    /// Per-member memory times member count, summed — the flows' share
    /// of the container's resident set.
    pub fn resident_mem(&self) -> f64 {
        self.rows.iter().map(|f| f.mem_per * f.weight()).sum()
    }

    /// Splits row `i` in place: the row keeps `left` members (and the
    /// low end of the id range); the remainder is appended as a new row
    /// with identical remaining work. Total members are conserved.
    ///
    /// Returns `false` (no-op) unless `0 < left < count`.
    pub fn split(&mut self, i: usize, left: u64) -> bool {
        let row = &mut self.rows[i];
        if left == 0 || left >= row.count {
            return false;
        }
        let mut right = *row;
        row.count = left;
        right.count -= left;
        right.id_base += left;
        self.rows.push(right);
        true
    }

    /// Merges row `j` back into row `i` when the two are re-joinable:
    /// identical remaining work, profile and deadline, and id ranges that
    /// are adjacent (`id_base[i] + count[i] == id_base[j]`). Returns
    /// whether the merge happened; on success row `j` is removed.
    pub fn merge(&mut self, i: usize, j: usize) -> bool {
        if i == j || i >= self.len() || j >= self.len() {
            return false;
        }
        let (a, b) = (self.rows[i], self.rows[j]);
        let rejoinable = a.id_base + a.count == b.id_base
            && Flow {
                id_base: a.id_base,
                count: a.count,
                ..b
            } == a;
        if !rejoinable {
            return false;
        }
        self.rows[i].count += b.count;
        self.rows.swap_remove(j);
        true
    }

    /// Serializes every row (snapshot support).
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for f in &self.rows {
            w.put_u64(f.id_base);
            w.put_u64(f.count);
            w.put_u32(f.service.index());
            w.put_u64(f.arrival.as_micros());
            w.put_u64(f.admitted.as_micros());
            w.put_u64(f.deadline.as_micros());
            w.put_f64(f.cpu_rem);
            w.put_f64(f.net_rem);
            w.put_f64(f.disk_rem);
            w.put_f64(f.mem_per);
            w.put_u32(f.attempt);
        }
    }

    /// Rebuilds a table from [`FlowTable::snapshot_write`] output. The
    /// member total is recomputed from the restored counts.
    pub fn snapshot_read(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.get_usize()?;
        let mut t = FlowTable::default();
        for _ in 0..len {
            let id_base = r.get_u64()?;
            let count = r.get_u64()?;
            if count == 0 {
                return Err(SnapshotError::Corrupt("flow with zero members".into()));
            }
            t.push(Flow {
                id_base,
                count,
                service: ServiceId::new(r.get_u32()?),
                arrival: SimTime::from_micros(r.get_u64()?),
                admitted: SimTime::from_micros(r.get_u64()?),
                deadline: SimTime::from_micros(r.get_u64()?),
                cpu_rem: r.get_f64()?,
                net_rem: r.get_f64()?,
                disk_rem: r.get_f64()?,
                mem_per: r.get_f64()?,
                attempt: r.get_u32()?,
            });
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(count: u64) -> Cohort {
        Cohort::new(
            ServiceId::new(1),
            SimTime::from_secs(1.0),
            count,
            0.2,
            MemMb(4.0),
            0.5,
        )
    }

    #[test]
    fn from_request_copies_profile() {
        let r = Request::cpu_bound(ServiceId::new(2), SimTime::ZERO, 0.3)
            .with_disk(1.5)
            .with_timeout(SimDuration::from_secs(5.0));
        let c = Cohort::from_request(&r, 10);
        assert_eq!(c.count, 10);
        assert_eq!(c.cpu_secs, 0.3);
        assert_eq!(c.disk_megabits, 1.5);
        assert_eq!(c.deadline(), SimTime::from_secs(5.0));
    }

    #[test]
    #[should_panic(expected = "count must be positive")]
    fn zero_count_panics() {
        let _ = cohort(0);
    }

    #[test]
    fn split_partitions_members() {
        let (a, b) = cohort(10).split(3);
        assert_eq!(a.count, 3);
        assert_eq!(b.count, 7);
        assert_eq!(a.cpu_secs, b.cpu_secs);
    }

    fn row(count: u64, id_base: u64) -> Flow {
        Flow {
            id_base,
            ..Flow::of_cohort(&cohort(count), SimTime::from_secs(1.0))
        }
    }

    #[test]
    fn table_push_split_merge_conserves_members() {
        let mut t = FlowTable::default();
        t.push(row(10, 100));
        t.push(row(4, 200));
        assert_eq!(t.members(), 14);
        assert!(t.split(0, 6));
        assert_eq!(t.members(), 14);
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows[2].id_base, 106);
        assert_eq!(t.rows[2].count, 4);
        // Re-join the halves.
        assert!(t.merge(0, 2));
        assert_eq!(t.members(), 14);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0].count, 10);
        // Non-adjacent ids refuse to merge.
        assert!(!t.merge(0, 1));
        assert_eq!(t.swap_remove(0).count, 10);
        assert_eq!(t.members(), 4);
    }

    #[test]
    fn a_request_is_a_flow_of_one() {
        let r = Request::cpu_bound(ServiceId::new(2), SimTime::from_secs(1.0), 0.3)
            .with_disk(1.5)
            .with_timeout(SimDuration::from_secs(5.0));
        let admitted = SimTime::from_secs(2.0);
        assert_eq!(
            Flow::of_request(&r, admitted),
            Flow::of_cohort(&Cohort::from_request(&r, 1), admitted)
        );
        let mut f = Flow::of_request(&r, admitted);
        assert!(!f.is_done());
        f.cpu_rem = 0.0;
        f.net_rem = 0.0;
        assert!(!f.is_done(), "disk traffic still owed");
        f.disk_rem = 0.0;
        assert!(f.is_done());
    }

    #[test]
    fn degenerate_splits_are_noops() {
        let mut t = FlowTable::default();
        t.push(row(5, 0));
        assert!(!t.split(0, 0));
        assert!(!t.split(0, 5));
        assert_eq!(t.len(), 1);
    }
}
