//! The Laplace distribution and its sampler.
//!
//! DP-Sync uses Laplace noise in three places:
//!
//! * the `Perturb` operator (Algorithm 2) adds `Lap(1/ε)` to the count of
//!   cached records before fetching them,
//! * `M_setup` (Table 4) adds `Lap(1/ε)` to the initial database size, and
//! * DP-ANT (Algorithm 3) adds `Lap(2/ε₁)` to the threshold and `Lap(4/ε₁)`
//!   to the running count inside the sparse-vector test.
//!
//! The sampler uses the standard inverse-CDF transform and is exact up to
//! floating-point rounding; no external distribution crate is required.

use rand::Rng;

/// A Laplace distribution centred at `mu` with scale `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    b: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with location `mu` and scale `b > 0`.
    pub fn new(mu: f64, b: f64) -> Option<Self> {
        if b.is_finite() && b > 0.0 && mu.is_finite() {
            Some(Self { mu, b })
        } else {
            None
        }
    }

    /// The location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter.
    pub fn scale(&self) -> f64 {
        self.b
    }

    /// The variance `2 b^2`.
    pub fn variance(&self) -> f64 {
        2.0 * self.b * self.b
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (-(x - self.mu).abs() / self.b).exp() / (2.0 * self.b)
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.b;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    /// Quantile (inverse CDF) for `p` in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        if p < 0.5 {
            self.mu + self.b * (2.0 * p).ln()
        } else {
            self.mu - self.b * (2.0 * (1.0 - p)).ln()
        }
    }

    /// Draws one sample via the inverse-CDF transform of one `next_u64`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_word(rng.next_u64())
    }

    /// Draws `n` samples from a single `fill_bytes` call of `8·n` bytes, one
    /// little-endian word per sample; nothing is drawn when `n = 0`.
    ///
    /// One call is one entropy round trip when the RNG lives across the wire.
    /// For an RNG whose `fill_bytes` writes the little-endian bytes of
    /// successive `next_u64` words (`DpRng`, the vendored `StdRng`), the
    /// result and the RNG's final state equal those of `n` calls to
    /// [`Laplace::sample`].
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let mut bytes = vec![0u8; 8 * n];
        rng.fill_bytes(&mut bytes);
        bytes
            .chunks_exact(8)
            .map(|word| {
                self.sample_word(u64::from_le_bytes(
                    word.try_into().expect("chunks_exact yields 8 bytes"),
                ))
            })
            .collect()
    }

    /// The inverse-CDF transform of one 64-bit word: its top 53 bits as a
    /// uniform in `[0, 1)` (as `Rng::gen::<f64>` reads a `next_u64`), moved
    /// off 0 so `ln` stays finite.
    fn sample_word(&self, word: u64) -> f64 {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.quantile(u.max(f64::MIN_POSITIVE))
    }

    /// The tail probability `Pr[|X - mu| >= t]` (Fact 3.7 of Dwork & Roth,
    /// used in the proof of Theorem 8).
    pub fn two_sided_tail(&self, t: f64) -> f64 {
        if t <= 0.0 {
            1.0
        } else {
            (-t / self.b).exp()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DpRng;

    fn dist() -> Laplace {
        Laplace::new(0.0, 2.0).unwrap()
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Laplace::new(0.0, 0.0).is_none());
        assert!(Laplace::new(0.0, -1.0).is_none());
        assert!(Laplace::new(f64::NAN, 1.0).is_none());
        assert!(Laplace::new(1.0, f64::INFINITY).is_none());
    }

    #[test]
    fn pdf_integrates_to_one_numerically() {
        let d = dist();
        let mut total = 0.0;
        let step = 0.01;
        let mut x = -60.0;
        while x < 60.0 {
            total += d.pdf(x) * step;
            x += step;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral was {total}");
    }

    #[test]
    fn cdf_matches_quantile() {
        let d = dist();
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let d = dist();
        let mut prev = 0.0;
        let mut x = -50.0;
        while x <= 50.0 {
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev);
            prev = c;
            x += 0.5;
        }
    }

    #[test]
    fn sample_mean_and_variance_converge() {
        let d = Laplace::new(3.0, 1.5).unwrap();
        let mut rng = DpRng::seed_from_u64(11);
        let n = 200_000;
        let xs = d.sample_n(&mut rng, n);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - d.variance()).abs() < 0.2, "var={var}");
    }

    /// `sample_n` from one `fill_bytes` must release, bit for bit, what `n`
    /// successive `sample` calls release and leave the RNG where they do;
    /// `sample` in turn must equal the `gen::<f64>` inverse-CDF transform.
    fn assert_sample_n_matches_single_draws<R: Rng + Clone>(rng: R) {
        let d = Laplace::new(0.0, 1.0 / 3.0).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 7, 265] {
            let mut batched = rng.clone();
            let mut single = rng.clone();
            let mut via_gen = rng.clone();
            let xs = d.sample_n(&mut batched, n);
            let ys: Vec<f64> = (0..n).map(|_| d.sample(&mut single)).collect();
            let zs: Vec<f64> = (0..n)
                .map(|_| {
                    let u: f64 = via_gen.gen::<f64>().max(f64::MIN_POSITIVE);
                    d.quantile(if u >= 1.0 { 1.0 - f64::EPSILON } else { u })
                })
                .collect();
            assert_eq!(xs.len(), n);
            assert_eq!(bits(&xs), bits(&ys), "n = {n}");
            assert_eq!(bits(&ys), bits(&zs), "n = {n}");
            let next = batched.next_u64();
            assert_eq!(next, single.next_u64(), "n = {n}");
            assert_eq!(next, via_gen.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn sample_n_is_bit_identical_to_successive_samples() {
        use rand::SeedableRng;
        assert_sample_n_matches_single_draws(DpRng::seed_from_u64(21));
        assert_sample_n_matches_single_draws(rand::rngs::StdRng::seed_from_u64(21));
    }

    #[test]
    fn sample_n_makes_one_rng_call_and_none_for_zero() {
        #[derive(Default)]
        struct Calls(u32);
        impl rand::RngCore for Calls {
            fn next_u32(&mut self) -> u32 {
                self.0 += 1;
                0
            }
            fn next_u64(&mut self) -> u64 {
                self.0 += 1;
                0
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0 += 1;
                dest.fill(0x5a);
            }
        }
        let d = dist();
        for (n, calls) in [(0, 0), (1, 1), (265, 1)] {
            let mut rng = Calls::default();
            assert_eq!(d.sample_n(&mut rng, n).len(), n);
            assert_eq!(rng.0, calls, "n = {n}");
        }
    }

    #[test]
    fn two_sided_tail_matches_cdf() {
        let d = dist();
        for &t in &[0.5, 1.0, 2.0, 5.0] {
            let tail = d.two_sided_tail(t);
            let via_cdf = d.cdf(-t) + (1.0 - d.cdf(t));
            assert!((tail - via_cdf).abs() < 1e-12);
        }
        assert_eq!(d.two_sided_tail(-1.0), 1.0);
    }

    #[test]
    fn empirical_privacy_ratio_of_laplace_mechanism() {
        // Stochastic DP check: histogram of M(0) vs M(1) for a counting query
        // (sensitivity 1, so noise of scale 1/ε) should have likelihood ratio
        // bounded (approximately) by e^epsilon.
        let eps = crate::Epsilon::new_unchecked(1.0);
        let noise = Laplace::new(0.0, 1.0 / eps.value()).unwrap();
        let mut rng = DpRng::seed_from_u64(17);
        let n = 400_000usize;
        let bucket = |x: f64| -> i64 { (x * 2.0).floor() as i64 };
        let mut h0 = std::collections::HashMap::new();
        let mut h1 = std::collections::HashMap::new();
        for _ in 0..n {
            *h0.entry(bucket(noise.sample(&mut rng))).or_insert(0u32) += 1;
            *h1.entry(bucket(1.0 + noise.sample(&mut rng)))
                .or_insert(0u32) += 1;
        }
        let bound = eps.value().exp() * 1.35; // slack for sampling error
        for (k, &c0) in &h0 {
            let c1 = *h1.get(k).unwrap_or(&0);
            if c0 > 500 && c1 > 500 {
                let ratio = f64::from(c0) / f64::from(c1);
                assert!(
                    ratio < bound && 1.0 / ratio < bound,
                    "bucket {k}: ratio {ratio}"
                );
            }
        }
    }
}
