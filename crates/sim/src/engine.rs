//! Fixed-step tick engine.
//!
//! HyScale's resource model is a fluid-flow model: each tick (default
//! 100 ms) the cluster advances every in-flight request by the CPU time and
//! bytes it received during the tick. The engine owns the clock and the
//! horizon, and hands each tick to a caller-supplied closure; discrete
//! events (request arrivals, scaling periods) are layered on top via
//! [`EventQueue`](crate::EventQueue) checked inside the tick body.

use crate::error::SimError;
use crate::time::{SimDuration, SimTime};

/// Outcome of a single tick, returned by the tick closure to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickOutcome {
    /// Keep ticking until the horizon.
    #[default]
    Continue,
    /// Stop the simulation early (e.g. all work has drained).
    Stop,
}

/// A fixed-step simulation clock with a horizon.
///
/// # Example
///
/// ```
/// use hyscale_sim::{SimDuration, SimTime, TickEngine, TickOutcome};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut engine = TickEngine::new(SimDuration::from_millis(100), SimTime::from_secs(1.0))?;
/// let mut ticks = 0;
/// engine.run(|_now, _dt| {
///     ticks += 1;
///     TickOutcome::Continue
/// });
/// assert_eq!(ticks, 10);
/// assert_eq!(engine.now(), SimTime::from_secs(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TickEngine {
    tick: SimDuration,
    horizon: SimTime,
    now: SimTime,
    ticks_run: u64,
}

impl TickEngine {
    /// Creates an engine that steps by `tick` until `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `tick` is zero or `horizon`
    /// is not a positive instant.
    pub fn new(tick: SimDuration, horizon: SimTime) -> Result<Self, SimError> {
        if tick.is_zero() {
            return Err(SimError::invalid_config(
                "tick",
                "tick length must be positive",
            ));
        }
        if horizon == SimTime::ZERO {
            return Err(SimError::invalid_config(
                "horizon",
                "horizon must be after t=0",
            ));
        }
        Ok(TickEngine {
            tick,
            horizon,
            now: SimTime::ZERO,
            ticks_run: 0,
        })
    }

    /// Current simulated time (start of the next tick).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The fixed tick length.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The configured end of simulation.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of ticks executed so far.
    pub fn ticks_run(&self) -> u64 {
        self.ticks_run
    }

    /// True once the clock has reached the horizon.
    pub fn finished(&self) -> bool {
        self.now >= self.horizon
    }

    /// Restores the clock to a previously captured position (snapshot
    /// resume). `now` must be a tick boundary within the horizon; the
    /// engine resumes stepping from there as if it had ticked to that
    /// point itself.
    pub fn restore_clock(&mut self, now: SimTime, ticks_run: u64) {
        self.now = now;
        self.ticks_run = ticks_run;
    }

    /// Advances one tick, invoking `body` with the tick's start time and
    /// length (the final tick is truncated to end exactly at the horizon).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PastHorizon`] if the engine already finished.
    pub fn step<F>(&mut self, mut body: F) -> Result<TickOutcome, SimError>
    where
        F: FnMut(SimTime, SimDuration) -> TickOutcome,
    {
        if self.finished() {
            return Err(SimError::PastHorizon);
        }
        let remaining = self.horizon - self.now;
        let dt = if remaining < self.tick {
            remaining
        } else {
            self.tick
        };
        let start = self.now;
        self.now += dt;
        self.ticks_run += 1;
        Ok(body(start, dt))
    }

    /// Runs ticks until the horizon or until the body returns
    /// [`TickOutcome::Stop`]. Returns the time at which the run ended.
    pub fn run<F>(&mut self, mut body: F) -> SimTime
    where
        F: FnMut(SimTime, SimDuration) -> TickOutcome,
    {
        while !self.finished() {
            match self.step(&mut body) {
                Ok(TickOutcome::Continue) => {}
                Ok(TickOutcome::Stop) | Err(_) => break,
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_tick_and_zero_horizon() {
        assert!(TickEngine::new(SimDuration::ZERO, SimTime::from_secs(1.0)).is_err());
        assert!(TickEngine::new(SimDuration::from_millis(100), SimTime::ZERO).is_err());
    }

    #[test]
    fn runs_expected_number_of_ticks() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(100), SimTime::from_secs(2.0)).unwrap();
        let mut n = 0;
        e.run(|_, _| {
            n += 1;
            TickOutcome::Continue
        });
        assert_eq!(n, 20);
        assert_eq!(e.ticks_run(), 20);
        assert!(e.finished());
    }

    #[test]
    fn truncates_final_partial_tick() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(300), SimTime::from_millis(700)).unwrap();
        let mut dts = Vec::new();
        e.run(|_, dt| {
            dts.push(dt.as_micros());
            TickOutcome::Continue
        });
        assert_eq!(dts, [300_000, 300_000, 100_000]);
        assert_eq!(e.now(), SimTime::from_millis(700));
    }

    #[test]
    fn stop_halts_early() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(100), SimTime::from_secs(10.0)).unwrap();
        let end = e.run(|now, _| {
            if now >= SimTime::from_millis(300) {
                TickOutcome::Stop
            } else {
                TickOutcome::Continue
            }
        });
        assert_eq!(end, SimTime::from_millis(400));
        assert!(!e.finished());
    }

    #[test]
    fn step_past_horizon_errors() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(100), SimTime::from_millis(100)).unwrap();
        assert!(e.step(|_, _| TickOutcome::Continue).is_ok());
        assert_eq!(
            e.step(|_, _| TickOutcome::Continue),
            Err(SimError::PastHorizon)
        );
    }

    #[test]
    fn tick_times_are_monotone_starts() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(250), SimTime::from_secs(1.0)).unwrap();
        let mut starts = Vec::new();
        e.run(|t, _| {
            starts.push(t.as_micros());
            TickOutcome::Continue
        });
        assert_eq!(starts, [0, 250_000, 500_000, 750_000]);
    }
}
