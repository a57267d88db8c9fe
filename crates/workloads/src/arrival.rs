//! Arrival-process models.
//!
//! An arrival process decides, for each discrete time unit, how many records
//! the owner receives.  The taxi generator uses the diurnal profile; the
//! other models are useful for stress-testing strategies under different
//! data densities (e.g. the "sparse database" discussion in Observation 2).

use rand::Rng;

/// An arrival-process model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// At most one record per tick, arriving with the given probability.
    Bernoulli {
        /// Per-tick arrival probability in `[0, 1]`.
        probability: f64,
    },
    /// A day-periodic profile: the per-tick arrival probability oscillates
    /// between `base` and `base + amplitude` with the given period (minutes
    /// per day), peaking mid-period.  Still at most one record per tick, as
    /// in the paper's cleaned trace.
    Diurnal {
        /// Minimum arrival probability (overnight).
        base: f64,
        /// Additional probability at the daily peak.
        amplitude: f64,
        /// Period length in ticks (1440 for one-minute ticks).
        period: u64,
    },
    /// Bursty arrivals: every tick, with probability `burst_probability`, a
    /// burst of `burst_size` records arrives (exercises the multi-record
    /// generalization mentioned in §4.1).
    Bursty {
        /// Probability of a burst at each tick.
        burst_probability: f64,
        /// Records per burst.
        burst_size: u64,
    },
    /// Exactly one record every `period` ticks (deterministic).
    Periodic {
        /// Ticks between consecutive arrivals.
        period: u64,
    },
}

impl ArrivalProcess {
    /// Samples the number of arrivals at time `t` (1-based tick index).
    pub fn sample<R: Rng + ?Sized>(&self, t: u64, rng: &mut R) -> u64 {
        match *self {
            ArrivalProcess::Bernoulli { probability } => {
                u64::from(rng.gen::<f64>() < probability.clamp(0.0, 1.0))
            }
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period,
            } => {
                let period = period.max(1);
                let phase = (t % period) as f64 / period as f64;
                // A raised-cosine day profile peaking at mid-period.
                let p = base + amplitude * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                u64::from(rng.gen::<f64>() < p.clamp(0.0, 1.0))
            }
            ArrivalProcess::Bursty {
                burst_probability,
                burst_size,
            } => {
                if rng.gen::<f64>() < burst_probability.clamp(0.0, 1.0) {
                    burst_size
                } else {
                    0
                }
            }
            ArrivalProcess::Periodic { period } => {
                u64::from(period > 0 && t.is_multiple_of(period.max(1)))
            }
        }
    }

    /// Generates the arrival counts for ticks `1..=horizon`.
    pub fn generate<R: Rng + ?Sized>(&self, horizon: u64, rng: &mut R) -> Vec<u64> {
        (1..=horizon).map(|t| self.sample(t, rng)).collect()
    }

    /// The expected number of arrivals per tick (exact for every model).
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Bernoulli { probability } => probability.clamp(0.0, 1.0),
            ArrivalProcess::Diurnal {
                base, amplitude, ..
            } => (base + amplitude * 0.5).clamp(0.0, 1.0),
            ArrivalProcess::Bursty {
                burst_probability,
                burst_size,
            } => burst_probability.clamp(0.0, 1.0) * burst_size as f64,
            ArrivalProcess::Periodic { period } => {
                if period == 0 {
                    0.0
                } else {
                    1.0 / period as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_dp::DpRng;

    #[test]
    fn bernoulli_rate_matches_probability() {
        let p = ArrivalProcess::Bernoulli { probability: 0.3 };
        let mut rng = DpRng::seed_from_u64(1);
        let arrivals = p.generate(50_000, &mut rng);
        let rate = arrivals.iter().sum::<u64>() as f64 / arrivals.len() as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert_eq!(p.mean_rate(), 0.3);
        assert!(arrivals.iter().all(|&a| a <= 1));
    }

    #[test]
    fn diurnal_profile_peaks_mid_period() {
        let p = ArrivalProcess::Diurnal {
            base: 0.05,
            amplitude: 0.8,
            period: 1440,
        };
        let mut rng = DpRng::seed_from_u64(2);
        // Compare arrivals near the trough (t % 1440 ≈ 0) and the peak (≈720).
        let mut trough = 0u64;
        let mut peak = 0u64;
        for day in 0..200u64 {
            for offset in 0..30u64 {
                trough += p.sample(day * 1440 + offset, &mut rng);
                peak += p.sample(day * 1440 + 720 + offset, &mut rng);
            }
        }
        assert!(peak > trough * 3, "peak {peak} trough {trough}");
        assert!((p.mean_rate() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn bursty_produces_multi_record_ticks() {
        let p = ArrivalProcess::Bursty {
            burst_probability: 0.1,
            burst_size: 5,
        };
        let mut rng = DpRng::seed_from_u64(3);
        let arrivals = p.generate(10_000, &mut rng);
        assert!(arrivals.contains(&5));
        assert!(arrivals.iter().all(|&a| a == 0 || a == 5));
        let rate = arrivals.iter().sum::<u64>() as f64 / arrivals.len() as f64;
        assert!((rate - 0.5).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn periodic_is_deterministic() {
        let p = ArrivalProcess::Periodic { period: 10 };
        let mut rng = DpRng::seed_from_u64(4);
        let arrivals = p.generate(100, &mut rng);
        assert_eq!(arrivals.iter().sum::<u64>(), 10);
        assert_eq!(arrivals[9], 1);
        assert_eq!(arrivals[8], 0);
        assert_eq!(p.mean_rate(), 0.1);
        assert_eq!(ArrivalProcess::Periodic { period: 0 }.mean_rate(), 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = ArrivalProcess::Bernoulli { probability: 0.4 };
        let a = p.generate(1000, &mut DpRng::seed_from_u64(9));
        let b = p.generate(1000, &mut DpRng::seed_from_u64(9));
        let c = p.generate(1000, &mut DpRng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
