//! Per-container usage accounting — the simulator's `docker stats`.
//!
//! The paper's Node Managers poll `docker stats` and report CPU, memory,
//! and network usage for each container to the Monitor every scaling
//! period (5 s in the experiments). [`UsageWindow`] accumulates the fluid
//! model's per-tick grants and produces the same per-window averages.

use crate::ids::{ContainerId, NodeId};
use crate::{Cores, Mbps, MemMb};

/// Usage of one container averaged over a reporting window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerUsage {
    /// The container being reported.
    pub container: ContainerId,
    /// Average CPU consumption over the window, in cores.
    pub cpu_used: Cores,
    /// Resident memory at the end of the window (including swapped pages).
    pub mem_used: MemMb,
    /// Average egress rate over the window.
    pub net_used: Mbps,
    /// Average disk traffic rate over the window.
    pub disk_used: Mbps,
    /// Requests in flight at the end of the window.
    pub in_flight: usize,
    /// True if the container was swapping at any point in the window.
    pub swapping: bool,
}

/// Usage of one node over a reporting window.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeUsage {
    /// The node being reported.
    pub node: NodeId,
    /// Sum of container CPU consumption, in cores.
    pub cpu_used: Cores,
    /// Sum of container resident memory.
    pub mem_used: MemMb,
    /// Sum of container egress rates.
    pub net_used: Mbps,
    /// Per-container breakdown.
    pub containers: Vec<ContainerUsage>,
}

/// Accumulates one container's grants across ticks within a window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UsageWindow {
    /// Core-seconds consumed since the window started.
    cpu_core_secs: f64,
    /// Megabits sent since the window started.
    megabits: f64,
    /// Megabits of disk traffic since the window started.
    disk_megabits: f64,
    /// Wall-clock seconds elapsed in the window.
    elapsed_secs: f64,
    /// Latest resident-set sample.
    last_mem: f64,
    /// Latest in-flight sample.
    last_in_flight: usize,
    /// Whether any tick in the window saw swapping.
    swapped: bool,
}

impl UsageWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        UsageWindow::default()
    }

    /// Records one tick's grants for the container.
    #[allow(clippy::too_many_arguments)]
    pub fn record_tick(
        &mut self,
        dt_secs: f64,
        cpu_core_secs: f64,
        megabits: f64,
        disk_megabits: f64,
        mem: MemMb,
        in_flight: usize,
        swapping: bool,
    ) {
        self.elapsed_secs += dt_secs;
        self.cpu_core_secs += cpu_core_secs;
        self.megabits += megabits;
        self.disk_megabits += disk_megabits;
        self.last_mem = mem.get();
        self.last_in_flight = in_flight;
        self.swapped |= swapping;
    }

    /// Produces the window's averages and resets the accumulator for the
    /// next window.
    pub fn snapshot_and_reset(&mut self, container: ContainerId) -> ContainerUsage {
        let usage = self.peek(container);
        *self = UsageWindow {
            last_mem: self.last_mem,
            last_in_flight: self.last_in_flight,
            ..UsageWindow::default()
        };
        usage
    }

    /// Produces the window's averages without resetting.
    pub fn peek(&self, container: ContainerId) -> ContainerUsage {
        let denom = if self.elapsed_secs > 0.0 {
            self.elapsed_secs
        } else {
            1.0
        };
        ContainerUsage {
            container,
            cpu_used: Cores(self.cpu_core_secs / denom),
            mem_used: MemMb(self.last_mem),
            net_used: Mbps(self.megabits / denom),
            disk_used: Mbps(self.disk_megabits / denom),
            in_flight: self.last_in_flight,
            swapping: self.swapped,
        }
    }

    /// Seconds accumulated in the current window.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Serializes the accumulator fields (snapshot support).
    pub(crate) fn snapshot_write(&self, w: &mut hyscale_sim::SnapWriter) {
        w.put_f64(self.cpu_core_secs);
        w.put_f64(self.megabits);
        w.put_f64(self.disk_megabits);
        w.put_f64(self.elapsed_secs);
        w.put_f64(self.last_mem);
        w.put_usize(self.last_in_flight);
        w.put_bool(self.swapped);
    }

    /// Rebuilds a window from [`UsageWindow::snapshot_write`] output.
    pub(crate) fn snapshot_read(
        r: &mut hyscale_sim::SnapReader<'_>,
    ) -> Result<Self, hyscale_sim::SnapshotError> {
        Ok(UsageWindow {
            cpu_core_secs: r.get_f64()?,
            megabits: r.get_f64()?,
            disk_megabits: r.get_f64()?,
            elapsed_secs: r.get_f64()?,
            last_mem: r.get_f64()?,
            last_in_flight: r.get_usize()?,
            swapped: r.get_bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctr() -> ContainerId {
        ContainerId::new(7)
    }

    #[test]
    fn averages_over_elapsed_time() {
        let mut w = UsageWindow::new();
        // Two 100 ms ticks at full single-core usage.
        w.record_tick(0.1, 0.1, 1.0, 0.5, MemMb(100.0), 3, false);
        w.record_tick(0.1, 0.1, 1.0, 0.5, MemMb(120.0), 2, false);
        let u = w.peek(ctr());
        assert!((u.cpu_used.get() - 1.0).abs() < 1e-12);
        assert!((u.net_used.get() - 10.0).abs() < 1e-9);
        assert!((u.disk_used.get() - 5.0).abs() < 1e-9);
        assert_eq!(u.mem_used, MemMb(120.0));
        assert_eq!(u.in_flight, 2);
        assert!(!u.swapping);
    }

    #[test]
    fn swap_flag_is_sticky_within_window() {
        let mut w = UsageWindow::new();
        w.record_tick(0.1, 0.0, 0.0, 0.0, MemMb(10.0), 0, true);
        w.record_tick(0.1, 0.0, 0.0, 0.0, MemMb(10.0), 0, false);
        assert!(w.peek(ctr()).swapping);
    }

    #[test]
    fn snapshot_resets_rates_but_keeps_last_samples() {
        let mut w = UsageWindow::new();
        w.record_tick(0.5, 1.0, 5.0, 2.0, MemMb(200.0), 4, true);
        let first = w.snapshot_and_reset(ctr());
        assert!((first.cpu_used.get() - 2.0).abs() < 1e-12);
        assert!(first.swapping);

        // After reset: no elapsed time, zero rates, but memory/in-flight
        // remain the latest known values.
        let second = w.peek(ctr());
        assert_eq!(second.cpu_used, Cores::ZERO);
        assert_eq!(second.net_used, Mbps::ZERO);
        assert_eq!(second.mem_used, MemMb(200.0));
        assert_eq!(second.in_flight, 4);
        assert!(!second.swapping);
        assert_eq!(w.elapsed_secs(), 0.0);
    }

    #[test]
    fn empty_window_reports_zero() {
        let w = UsageWindow::new();
        let u = w.peek(ctr());
        assert_eq!(u.cpu_used, Cores::ZERO);
        assert_eq!(u.net_used, Mbps::ZERO);
        assert_eq!(u.mem_used, MemMb::ZERO);
    }
}
