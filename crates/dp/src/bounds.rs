//! Closed-form accuracy and performance bounds from the paper.
//!
//! * [`laplace_sum_tail`] / [`laplace_sum_tail_alpha`] implement Lemma 19 and
//!   Corollary 20: tail bounds on the sum of `k` i.i.d. `Lap(b)` variables.
//! * [`timer_logical_gap_bound`] / [`timer_outsourced_bound`] implement
//!   Theorems 6 and 7 (DP-Timer accuracy / performance).
//! * [`ant_logical_gap_bound`] / [`ant_outsourced_bound`] implement Theorems 8
//!   and 9 (DP-ANT accuracy / performance).
//!
//! The simulation-based property tests in `dpsync-core` check that the
//! empirical logical gap and outsourced-size overhead respect these bounds
//! with the advertised probability, which is the executable counterpart of
//! the paper's Appendix C proofs.

use crate::Epsilon;

/// Lemma 19: for `Y = Σ_{i=1..k} Y_i` with `Y_i ~ Lap(b)` i.i.d. and
/// `0 < alpha <= k·b`, `Pr[Y >= alpha] <= exp(-alpha² / (4 k b²))`.
///
/// Values of `alpha` above `k·b` are clamped to `k·b` (the bound still holds,
/// it is merely looser than the optimal Chernoff exponent there).
pub fn laplace_sum_tail(k: u64, b: f64, alpha: f64) -> f64 {
    assert!(b > 0.0, "Laplace scale must be positive");
    if alpha <= 0.0 || k == 0 {
        return 1.0;
    }
    let kb = k as f64 * b;
    let a = alpha.min(kb);
    (-(a * a) / (4.0 * k as f64 * b * b)).exp().min(1.0)
}

/// Corollary 20: the value `alpha = 2 b sqrt(k ln(1/beta))` such that
/// `Pr[Y >= alpha] <= beta` (valid once `k >= 4 ln(1/beta)`).
pub fn laplace_sum_tail_alpha(k: u64, b: f64, beta: f64) -> f64 {
    assert!(b > 0.0, "Laplace scale must be positive");
    assert!(
        (0.0..1.0).contains(&beta) && beta > 0.0,
        "beta must be in (0,1)"
    );
    2.0 * b * ((k as f64) * (1.0 / beta).ln()).sqrt()
}

/// Theorem 6: with probability at least `1 - beta`, the DP-Timer logical gap
/// at a time where `k` synchronizations have happened is at most
/// `c + 2/ε · sqrt(k ln(1/β))` where `c` is the number of records received
/// since the last update.  This function returns the `alpha` term (excluding
/// `c`, which is workload-dependent and bounded by the timer period).
pub fn timer_logical_gap_bound(epsilon: Epsilon, k: u64, beta: f64) -> f64 {
    laplace_sum_tail_alpha(k, 1.0 / epsilon.value(), beta)
}

/// Theorem 7: with probability at least `1 - beta`, the total outsourced size
/// under DP-Timer satisfies `|DS_t| <= |D_t| + alpha + eta` with
/// `alpha = 2/ε sqrt(k ln 1/β)` and `eta = s * floor(t / f)` (cache-flush
/// dummy volume).  Returns `alpha + eta`.
pub fn timer_outsourced_bound(
    epsilon: Epsilon,
    k: u64,
    beta: f64,
    flush_size: u64,
    flush_interval: u64,
    t: u64,
) -> f64 {
    let alpha = timer_logical_gap_bound(epsilon, k, beta);
    let eta = flush_dummy_volume(flush_size, flush_interval, t) as f64;
    alpha + eta
}

/// Theorem 8: with probability at least `1 - beta`, the DP-ANT logical gap at
/// time `t` is at most `c + 16 (ln t + ln(2/β)) / ε`.  Returns the `alpha`
/// term (excluding `c`).
pub fn ant_logical_gap_bound(epsilon: Epsilon, t: u64, beta: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&beta) && beta > 0.0,
        "beta must be in (0,1)"
    );
    let t = (t.max(1)) as f64;
    16.0 * (t.ln() + (2.0 / beta).ln()) / epsilon.value()
}

/// Theorem 9: with probability at least `1 - beta`, the total outsourced size
/// under DP-ANT satisfies `|DS_t| <= |D_t| + alpha + eta`.  Returns
/// `alpha + eta`.
pub fn ant_outsourced_bound(
    epsilon: Epsilon,
    t: u64,
    beta: f64,
    flush_size: u64,
    flush_interval: u64,
) -> f64 {
    let alpha = ant_logical_gap_bound(epsilon, t, beta);
    let eta = flush_dummy_volume(flush_size, flush_interval, t) as f64;
    alpha + eta
}

/// The `eta = s * floor(t / f)` dummy volume contributed by the cache-flush
/// mechanism by time `t` (both Theorems 7 and 9).
pub fn flush_dummy_volume(flush_size: u64, flush_interval: u64, t: u64) -> u64 {
    t.checked_div(flush_interval)
        .map_or(0, |flushes| flush_size * flushes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpRng, Laplace};

    #[test]
    fn tail_bound_is_a_probability() {
        for k in [1u64, 5, 50, 500] {
            for alpha in [0.1, 1.0, 10.0, 1000.0] {
                let p = laplace_sum_tail(k, 2.0, alpha);
                assert!((0.0..=1.0).contains(&p), "k={k} alpha={alpha} p={p}");
            }
        }
        assert_eq!(laplace_sum_tail(0, 1.0, 5.0), 1.0);
        assert_eq!(laplace_sum_tail(3, 1.0, 0.0), 1.0);
    }

    #[test]
    fn tail_bound_decreases_in_alpha() {
        let mut prev = 1.0;
        for a in 1..40 {
            let p = laplace_sum_tail(10, 1.0, a as f64);
            assert!(p <= prev + 1e-15);
            prev = p;
        }
    }

    #[test]
    fn corollary_20_alpha_hits_target_beta() {
        // Plugging alpha from Corollary 20 back into Lemma 19 (with alpha <= kb)
        // must give exactly beta.
        let k = 100u64;
        let b = 2.0;
        let beta = 0.05;
        let alpha = laplace_sum_tail_alpha(k, b, beta);
        assert!(
            alpha <= k as f64 * b,
            "corollary regime requires alpha <= kb"
        );
        let p = laplace_sum_tail(k, b, alpha);
        assert!((p - beta).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn empirical_laplace_sum_respects_lemma_19() {
        // Monte-Carlo check: the empirical exceedance frequency of sums of
        // Laplace noise must not exceed the Lemma 19 bound (with slack).
        let k = 25u64;
        let b = 1.0 / 0.5; // epsilon = 0.5
        let dist = Laplace::new(0.0, b).unwrap();
        let mut rng = DpRng::seed_from_u64(123);
        let beta = 0.1;
        let alpha = laplace_sum_tail_alpha(k, b, beta);
        let trials = 20_000;
        let mut exceed = 0u32;
        for _ in 0..trials {
            let sum: f64 = (0..k).map(|_| dist.sample(&mut rng)).sum();
            if sum >= alpha {
                exceed += 1;
            }
        }
        let freq = f64::from(exceed) / f64::from(trials as u32);
        assert!(freq <= beta * 1.2, "freq={freq} beta={beta}");
    }

    #[test]
    fn timer_bound_shrinks_with_larger_epsilon() {
        let k = 50;
        let beta = 0.05;
        let loose = timer_logical_gap_bound(Epsilon::new_unchecked(0.1), k, beta);
        let tight = timer_logical_gap_bound(Epsilon::new_unchecked(1.0), k, beta);
        assert!(tight < loose);
        assert!(
            (loose / tight - 10.0).abs() < 1e-9,
            "bound scales as 1/epsilon"
        );
    }

    #[test]
    fn ant_bound_grows_logarithmically_in_time() {
        let eps = Epsilon::new_unchecked(0.5);
        let beta = 0.05;
        let b1 = ant_logical_gap_bound(eps, 100, beta);
        let b2 = ant_logical_gap_bound(eps, 10_000, beta);
        let b3 = ant_logical_gap_bound(eps, 1_000_000, beta);
        assert!(b2 > b1 && b3 > b2);
        // Each 100x increase in t adds 16*ln(100)/eps.
        let expected_step = 16.0 * (100.0f64).ln() / eps.value();
        assert!(((b2 - b1) - expected_step).abs() < 1e-9);
        assert!(((b3 - b2) - expected_step).abs() < 1e-9);
    }

    #[test]
    fn flush_volume_counts_completed_intervals() {
        assert_eq!(flush_dummy_volume(15, 2000, 0), 0);
        assert_eq!(flush_dummy_volume(15, 2000, 1999), 0);
        assert_eq!(flush_dummy_volume(15, 2000, 2000), 15);
        assert_eq!(flush_dummy_volume(15, 2000, 43_200), 15 * 21);
        assert_eq!(flush_dummy_volume(15, 0, 43_200), 0);
    }

    #[test]
    fn outsourced_bounds_add_flush_volume() {
        let eps = Epsilon::new_unchecked(0.5);
        let a = timer_logical_gap_bound(eps, 100, 0.05);
        let total = timer_outsourced_bound(eps, 100, 0.05, 15, 2000, 43_200);
        assert!((total - (a + (15 * 21) as f64)).abs() < 1e-9);

        let a2 = ant_logical_gap_bound(eps, 43_200, 0.05);
        let total2 = ant_outsourced_bound(eps, 43_200, 0.05, 15, 2000);
        assert!((total2 - (a2 + (15 * 21) as f64)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_beta_panics() {
        let _ = laplace_sum_tail_alpha(10, 1.0, 1.5);
    }
}
