//! Fixed-step tick engine.
//!
//! HyScale's resource model is a fluid-flow model: each tick (default
//! 100 ms) the cluster advances every in-flight request by the CPU time and
//! bytes it received during the tick. The engine owns the clock and the
//! horizon: each [`TickEngine::step`] advances the clock and returns the
//! tick's start time and length to the caller, which runs the tick's
//! work; discrete events (request arrivals, scaling periods) are layered
//! on top via an [`EventQueue`](crate::EventQueue) the caller checks at
//! the start of each tick.

use crate::error::SimError;
use crate::time::{SimDuration, SimTime};

/// A fixed-step simulation clock with a horizon.
///
/// # Example
///
/// ```
/// use hyscale_sim::{SimDuration, SimTime, TickEngine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut engine = TickEngine::new(SimDuration::from_millis(100), SimTime::from_secs(1.0))?;
/// let mut ticks = 0;
/// while !engine.finished() {
///     let (_now, _dt) = engine.step()?;
///     ticks += 1;
/// }
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

    /// Advances one tick and returns its start time and length (the final
    /// tick is truncated to end exactly at the horizon).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PastHorizon`] if the engine already finished.
    pub fn step(&mut self) -> Result<(SimTime, SimDuration), SimError> {
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
        Ok((start, dt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps `e` to its horizon, collecting each tick's `(start, length)`
    /// in microseconds.
    fn drain(e: &mut TickEngine) -> Vec<(u64, u64)> {
        let mut ticks = Vec::new();
        while !e.finished() {
            let (start, dt) = e.step().unwrap();
            ticks.push((start.as_micros(), dt.as_micros()));
        }
        ticks
    }

    #[test]
    fn rejects_zero_tick_and_zero_horizon() {
        assert!(TickEngine::new(SimDuration::ZERO, SimTime::from_secs(1.0)).is_err());
        assert!(TickEngine::new(SimDuration::from_millis(100), SimTime::ZERO).is_err());
    }

    #[test]
    fn runs_expected_number_of_ticks() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(100), SimTime::from_secs(2.0)).unwrap();
        assert_eq!(drain(&mut e).len(), 20);
        assert_eq!(e.ticks_run(), 20);
        assert!(e.finished());
    }

    #[test]
    fn truncates_final_partial_tick() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(300), SimTime::from_millis(700)).unwrap();
        let dts: Vec<u64> = drain(&mut e).into_iter().map(|(_, dt)| dt).collect();
        assert_eq!(dts, [300_000, 300_000, 100_000]);
        assert_eq!(e.now(), SimTime::from_millis(700));
    }

    #[test]
    fn step_past_horizon_errors() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(100), SimTime::from_millis(100)).unwrap();
        assert!(e.step().is_ok());
        assert_eq!(e.step(), Err(SimError::PastHorizon));
    }

    #[test]
    fn tick_times_are_monotone_starts() {
        let mut e =
            TickEngine::new(SimDuration::from_millis(250), SimTime::from_secs(1.0)).unwrap();
        let starts: Vec<u64> = drain(&mut e).into_iter().map(|(t, _)| t).collect();
        assert_eq!(starts, [0, 250_000, 500_000, 750_000]);
    }
}
