//! Client load shapes and the non-homogeneous Poisson arrival process.
//!
//! The paper's microbenchmarks use two wave-like client loads emulating
//! peak/off-peak hours: a stable **low-burst** pattern ("low amplitude
//! bursty traffic") and an unstable **high-burst** pattern ("a spiking
//! pattern ... repeated peaks and troughs in client activity"). We model
//! client arrivals as a Poisson process whose rate follows the configured
//! shape, sampled by thinning.

use hyscale_sim::{SimRng, SimTime};

/// A time-varying request arrival rate, in requests per second.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadPattern {
    /// Constant rate.
    Constant {
        /// Requests per second.
        rate: f64,
    },
    /// A smooth sinusoidal wave: `base + amplitude·(1 + sin(2πt/period))/2`.
    ///
    /// The paper's *low-burst* stable load.
    Wave {
        /// Trough rate, requests per second.
        base: f64,
        /// Peak-to-trough swing, requests per second.
        amplitude: f64,
        /// Wave period in seconds.
        period_secs: f64,
    },
    /// A square-ish spiking wave: `base` rate with periodic bursts to
    /// `peak` lasting `duty` of each period.
    ///
    /// The paper's *high-burst* unstable load.
    Burst {
        /// Off-peak rate, requests per second.
        base: f64,
        /// Burst rate, requests per second.
        peak: f64,
        /// Burst period in seconds.
        period_secs: f64,
        /// Fraction of each period spent at `peak`, in `(0, 1)`.
        duty: f64,
    },
    /// Piecewise-constant rates replayed from a trace: sample `i` applies
    /// during `[i·interval, (i+1)·interval)`; the last sample persists.
    Trace {
        /// Requests-per-second samples.
        samples: Vec<f64>,
        /// Seconds each sample covers.
        interval_secs: f64,
    },
}

impl LoadPattern {
    /// The paper-flavoured stable load: gentle wave between 4 and 10 req/s
    /// with a 10-minute period (emulated peak/off-peak "hours").
    pub fn low_burst() -> Self {
        LoadPattern::Wave {
            base: 4.0,
            amplitude: 6.0,
            period_secs: 600.0,
        }
    }

    /// The paper-flavoured unstable load: 2 req/s background with spikes
    /// to 20 req/s for 25% of each 10-minute period.
    pub fn high_burst() -> Self {
        LoadPattern::Burst {
            base: 2.0,
            peak: 20.0,
            period_secs: 600.0,
            duty: 0.25,
        }
    }

    /// Scales every rate in the pattern by `factor` (for sizing workloads
    /// to clusters of different capacity).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> LoadPattern {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        match self {
            LoadPattern::Constant { rate } => LoadPattern::Constant {
                rate: rate * factor,
            },
            LoadPattern::Wave {
                base,
                amplitude,
                period_secs,
            } => LoadPattern::Wave {
                base: base * factor,
                amplitude: amplitude * factor,
                period_secs: *period_secs,
            },
            LoadPattern::Burst {
                base,
                peak,
                period_secs,
                duty,
            } => LoadPattern::Burst {
                base: base * factor,
                peak: peak * factor,
                period_secs: *period_secs,
                duty: *duty,
            },
            LoadPattern::Trace {
                samples,
                interval_secs,
            } => LoadPattern::Trace {
                samples: samples.iter().map(|s| s * factor).collect(),
                interval_secs: *interval_secs,
            },
        }
    }

    /// The arrival rate at time `t`, in requests per second.
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let secs = t.as_secs();
        match self {
            LoadPattern::Constant { rate } => rate.max(0.0),
            LoadPattern::Wave {
                base,
                amplitude,
                period_secs,
            } => {
                let phase = 2.0 * std::f64::consts::PI * secs / period_secs.max(1e-9);
                (base + amplitude * (1.0 + phase.sin()) / 2.0).max(0.0)
            }
            LoadPattern::Burst {
                base,
                peak,
                period_secs,
                duty,
            } => {
                let pos = (secs / period_secs.max(1e-9)).fract();
                if pos < duty.clamp(0.0, 1.0) {
                    peak.max(0.0)
                } else {
                    base.max(0.0)
                }
            }
            LoadPattern::Trace {
                samples,
                interval_secs,
            } => {
                if samples.is_empty() {
                    return 0.0;
                }
                let idx = ((secs / interval_secs.max(1e-9)) as usize).min(samples.len() - 1);
                samples[idx].max(0.0)
            }
        }
    }

    /// An upper bound on the rate over all time (the thinning envelope).
    pub fn peak_rate(&self) -> f64 {
        match self {
            LoadPattern::Constant { rate } => rate.max(0.0),
            LoadPattern::Wave {
                base, amplitude, ..
            } => (base + amplitude).max(0.0),
            LoadPattern::Burst { base, peak, .. } => base.max(*peak).max(0.0),
            LoadPattern::Trace { samples, .. } => {
                samples.iter().copied().fold(0.0_f64, f64::max).max(0.0)
            }
        }
    }
}

/// Generates request arrival instants from a [`LoadPattern`] by thinning
/// (Lewis & Shedler): candidate arrivals are drawn from a homogeneous
/// Poisson process at the envelope rate and accepted with probability
/// `rate(t)/peak_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    pattern: LoadPattern,
}

impl ArrivalProcess {
    /// Creates an arrival process for the given pattern.
    pub fn new(pattern: LoadPattern) -> Self {
        ArrivalProcess { pattern }
    }

    /// The underlying pattern.
    pub fn pattern(&self) -> &LoadPattern {
        &self.pattern
    }

    /// Draws the first arrival strictly after `after`.
    ///
    /// Returns [`SimTime::MAX`] if the pattern's rate is zero everywhere
    /// (no arrival will ever occur).
    pub fn next_arrival(&mut self, after: SimTime, rng: &mut SimRng) -> SimTime {
        let envelope = self.pattern.peak_rate();
        if envelope <= 0.0 {
            return SimTime::MAX;
        }
        let mut t = after.as_secs();
        // Thinning loop; bound iterations defensively for patterns whose
        // instantaneous rate is far below the envelope for long stretches.
        for _ in 0..100_000 {
            t += rng.exponential(envelope);
            let candidate = SimTime::from_secs(t);
            let accept_p = self.pattern.rate_at(candidate) / envelope;
            if rng.chance(accept_p) {
                return candidate;
            }
        }
        SimTime::MAX
    }

    /// Draws all arrivals in the half-open window `[start, end)`.
    pub fn arrivals_in(&mut self, start: SimTime, end: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = start;
        loop {
            t = self.next_arrival(t, rng);
            if t >= end {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in_window(pattern: LoadPattern, start: f64, end: f64, seed: u64) -> usize {
        let mut proc = ArrivalProcess::new(pattern);
        let mut rng = SimRng::seed_from(seed);
        proc.arrivals_in(SimTime::from_secs(start), SimTime::from_secs(end), &mut rng)
            .len()
    }

    #[test]
    fn constant_rate_matches_expectation() {
        // 10 req/s over 100 s -> ~1000 arrivals.
        let n = count_in_window(LoadPattern::Constant { rate: 10.0 }, 0.0, 100.0, 1);
        assert!((900..=1100).contains(&n), "got {n}");
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut proc = ArrivalProcess::new(LoadPattern::Constant { rate: 0.0 });
        let mut rng = SimRng::seed_from(2);
        assert_eq!(proc.next_arrival(SimTime::ZERO, &mut rng), SimTime::MAX);
    }

    #[test]
    fn wave_oscillates_between_base_and_base_plus_amplitude() {
        let p = LoadPattern::Wave {
            base: 4.0,
            amplitude: 6.0,
            period_secs: 100.0,
        };
        let rates: Vec<f64> = (0..100)
            .map(|i| p.rate_at(SimTime::from_secs(i as f64)))
            .collect();
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0, f64::max);
        assert!((4.0 - 1e-9..4.5).contains(&min), "min {min}");
        assert!(max <= 10.0 + 1e-9 && max > 9.5, "max {max}");
        assert_eq!(p.peak_rate(), 10.0);
    }

    #[test]
    fn burst_rate_switches_at_duty_boundary() {
        let p = LoadPattern::Burst {
            base: 2.0,
            peak: 20.0,
            period_secs: 100.0,
            duty: 0.25,
        };
        assert_eq!(p.rate_at(SimTime::from_secs(10.0)), 20.0);
        assert_eq!(p.rate_at(SimTime::from_secs(30.0)), 2.0);
        // Periodicity.
        assert_eq!(p.rate_at(SimTime::from_secs(110.0)), 20.0);
        assert_eq!(p.peak_rate(), 20.0);
    }

    #[test]
    fn burst_produces_more_arrivals_during_bursts() {
        let p = LoadPattern::Burst {
            base: 2.0,
            peak: 40.0,
            period_secs: 100.0,
            duty: 0.25,
        };
        let burst_n = count_in_window(p.clone(), 0.0, 25.0, 3);
        let quiet_n = count_in_window(p, 25.0, 50.0, 3);
        assert!(burst_n > quiet_n * 5, "burst {burst_n} vs quiet {quiet_n}");
    }

    #[test]
    fn trace_pattern_steps_through_samples() {
        let p = LoadPattern::Trace {
            samples: vec![1.0, 5.0, 0.0],
            interval_secs: 10.0,
        };
        assert_eq!(p.rate_at(SimTime::from_secs(5.0)), 1.0);
        assert_eq!(p.rate_at(SimTime::from_secs(15.0)), 5.0);
        assert_eq!(p.rate_at(SimTime::from_secs(25.0)), 0.0);
        // Last sample persists past the end.
        assert_eq!(p.rate_at(SimTime::from_secs(1000.0)), 0.0);
        assert_eq!(p.peak_rate(), 5.0);
    }

    #[test]
    fn empty_trace_is_silent() {
        let p = LoadPattern::Trace {
            samples: vec![],
            interval_secs: 10.0,
        };
        assert_eq!(p.rate_at(SimTime::from_secs(5.0)), 0.0);
        assert_eq!(p.peak_rate(), 0.0);
    }

    #[test]
    fn scaled_multiplies_rates() {
        let p = LoadPattern::low_burst().scaled(2.0);
        assert_eq!(p.peak_rate(), 20.0);
        let t = LoadPattern::Trace {
            samples: vec![1.0, 2.0],
            interval_secs: 1.0,
        }
        .scaled(3.0);
        assert_eq!(t.peak_rate(), 6.0);
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut proc = ArrivalProcess::new(LoadPattern::low_burst());
        let mut rng = SimRng::seed_from(5);
        let times = proc.arrivals_in(SimTime::ZERO, SimTime::from_secs(60.0), &mut rng);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(!times.is_empty());
    }

    #[test]
    fn determinism_same_seed_same_arrivals() {
        let run = |seed| {
            let mut proc = ArrivalProcess::new(LoadPattern::high_burst());
            let mut rng = SimRng::seed_from(seed);
            proc.arrivals_in(SimTime::ZERO, SimTime::from_secs(30.0), &mut rng)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn wave_long_run_average_matches_mean_rate() {
        // Mean of the wave is base + amplitude/2 = 7 req/s.
        let n = count_in_window(LoadPattern::low_burst(), 0.0, 600.0, 11);
        let avg = n as f64 / 600.0;
        assert!((avg - 7.0).abs() < 0.5, "avg rate {avg}");
    }
}
