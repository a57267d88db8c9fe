//! Differential-privacy primitives used by DP-Sync.
//!
//! This crate provides the mechanism toolbox the paper relies on:
//!
//! * [`laplace`] — the Laplace distribution and its inverse-CDF sampler
//!   (`sample_n` draws a whole release's noise with one RNG call), used by
//!   the `Perturb` operator (Algorithm 2), the setup mechanism `M_setup`
//!   (Table 4) and Crypt-ε's noisy answers.
//! * [`svt`] — the sparse-vector technique ("Above Noisy Threshold") that
//!   underlies DP-ANT (Algorithm 3 / `M_sparse` in Table 4).
//! * [`composition`] — sequential and parallel composition (Lemmas 15/16) and
//!   a running [`composition::PrivacyAccountant`].
//! * [`bounds`] — the tail bounds on sums of Laplace random variables
//!   (Lemma 19, Corollaries 20/21) and the closed-form accuracy/performance
//!   bounds of Theorems 6–9.
//! * [`rng`] — a seedable RNG wrapper so every randomized component in the
//!   workspace is reproducible.
//!
//! All samplers take `&mut impl rand::Rng` so callers control determinism.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bounds;
pub mod composition;
pub mod laplace;
pub mod rng;
pub mod svt;

pub use bounds::{
    ant_logical_gap_bound, ant_outsourced_bound, laplace_sum_tail, laplace_sum_tail_alpha,
    timer_logical_gap_bound, timer_outsourced_bound,
};
pub use composition::{Composition, PrivacyAccountant, PrivacyBudget};
pub use laplace::Laplace;
pub use rng::DpRng;
pub use svt::{AboveNoisyThreshold, SvtOutcome};

/// The privacy parameter epsilon of a differentially private mechanism
/// (Definition 3: `Pr[M(D) ∈ O] ≤ e^ε · Pr[M(D') ∈ O]` for neighboring
/// `D`, `D'`; DP-Sync applies it to growing databases via Definitions 4/5).
///
/// A thin newtype so that privacy budgets are not accidentally confused with
/// other `f64` parameters (thresholds, sensitivities, ...).  The value must be
/// strictly positive and finite; `Epsilon::new` enforces this.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Creates a new epsilon, returning `None` when `value` is not a strictly
    /// positive finite number.
    pub fn new(value: f64) -> Option<Self> {
        if value.is_finite() && value > 0.0 {
            Some(Self(value))
        } else {
            None
        }
    }

    /// Creates a new epsilon, panicking on invalid input.
    ///
    /// Convenient in tests and experiment configuration where the value is a
    /// literal constant.
    pub fn new_unchecked(value: f64) -> Self {
        Self::new(value).expect("epsilon must be finite and > 0")
    }

    /// The raw floating point value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Splits the budget evenly into `parts` pieces (simple composition).
    pub fn split(self, parts: u32) -> Self {
        assert!(parts > 0, "cannot split a budget into zero parts");
        Self(self.0 / f64::from(parts))
    }

    /// Returns half the budget — DP-ANT splits its budget into
    /// `epsilon_1 = epsilon_2 = epsilon / 2` (Algorithm 3, line 3).
    pub fn halved(self) -> Self {
        self.split(2)
    }

    /// Multiplies the budget by `e^eps`-odds group factor `l` (group privacy).
    pub fn group(self, l: u32) -> Self {
        Self(self.0 * f64::from(l))
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_rejects_invalid_values() {
        assert!(Epsilon::new(0.0).is_none());
        assert!(Epsilon::new(-1.0).is_none());
        assert!(Epsilon::new(f64::NAN).is_none());
        assert!(Epsilon::new(f64::INFINITY).is_none());
        assert!(Epsilon::new(0.5).is_some());
    }

    #[test]
    fn epsilon_split_divides_evenly() {
        let eps = Epsilon::new_unchecked(1.0);
        assert_eq!(eps.split(4).value(), 0.25);
        assert_eq!(eps.halved().value(), 0.5);
    }

    #[test]
    fn epsilon_group_scales_up() {
        let eps = Epsilon::new_unchecked(0.5);
        assert_eq!(eps.group(3).value(), 1.5);
    }

    #[test]
    #[should_panic]
    fn epsilon_unchecked_panics_on_invalid() {
        let _ = Epsilon::new_unchecked(-3.0);
    }

    #[test]
    fn epsilon_display() {
        assert_eq!(Epsilon::new_unchecked(0.5).to_string(), "ε=0.5");
    }
}
