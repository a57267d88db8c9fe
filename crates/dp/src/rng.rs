//! Reproducible randomness for all DP-Sync components.
//!
//! Every randomized algorithm in the workspace (Laplace sampling, the sparse
//! vector technique, workload generators, the synthetic taxi data) draws from
//! a caller-supplied RNG.  [`DpRng`] is a small convenience wrapper around
//! [`rand::rngs::StdRng`] that makes seeding explicit and lets experiments
//! derive independent per-component streams from one master seed.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seedable random number generator with named sub-streams.
///
/// The experiment harness creates one `DpRng` from a configured master seed
/// and then derives independent generators for the workload, each strategy,
/// and each engine so that changing one component never perturbs the random
/// draws of another (a common source of irreproducible experiment tables).
#[derive(Debug, Clone)]
pub struct DpRng {
    inner: StdRng,
    seed: u64,
}

impl DpRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Creates a generator from operating-system entropy.
    pub fn from_entropy() -> Self {
        let seed = rand::thread_rng().gen::<u64>();
        Self::seed_from_u64(seed)
    }

    /// The master seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for the named sub-stream.
    ///
    /// The derivation hashes the label into the seed with a Fowler–Noll–Vo
    /// style mix, which is sufficient to decorrelate streams for simulation
    /// purposes (this is *not* a cryptographic KDF — the crypto crate has its
    /// own key-derivation code).
    pub fn derive(&self, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Mix once more so labels that share a prefix still diverge strongly.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        Self::seed_from_u64(h)
    }

    /// Derives an independent generator for a numbered repetition of a stream.
    pub fn derive_indexed(&self, label: &str, index: u64) -> Self {
        self.derive(&format!("{label}#{index}"))
    }
}

impl RngCore for DpRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DpRng::seed_from_u64(42);
        let mut b = DpRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DpRng::seed_from_u64(1);
        let mut b = DpRng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let root = DpRng::seed_from_u64(7);
        let mut a1 = root.derive("workload");
        let mut a2 = root.derive("workload");
        let mut b = root.derive("strategy");
        let x1: Vec<u64> = (0..4).map(|_| a1.gen()).collect();
        let x2: Vec<u64> = (0..4).map(|_| a2.gen()).collect();
        let y: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn derive_indexed_distinguishes_repetitions() {
        let root = DpRng::seed_from_u64(7);
        let mut a = root.derive_indexed("trial", 0);
        let mut b = root.derive_indexed("trial", 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn from_entropy_produces_distinct_generators() {
        let mut a = DpRng::from_entropy();
        let mut b = DpRng::from_entropy();
        // Overwhelmingly likely to differ; equality would indicate a broken
        // entropy source rather than bad luck.
        assert_ne!(
            (0..4).map(|_| a.gen::<u64>()).collect::<Vec<_>>(),
            (0..4).map(|_| b.gen::<u64>()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fill_bytes_writes_successive_little_endian_words() {
        // `Laplace::sample_n` relies on this to release, from one fill, the
        // noise of successive single `next_u64` draws.
        for n in [0, 1, 8, 13, 2120] {
            let mut filled = DpRng::seed_from_u64(5);
            let mut words = filled.clone();
            let mut buf = vec![0u8; n];
            filled.fill_bytes(&mut buf);
            let mut expected: Vec<u8> = (0..n.div_ceil(8))
                .flat_map(|_| words.next_u64().to_le_bytes())
                .collect();
            expected.truncate(n);
            assert_eq!(buf, expected, "n = {n}");
            assert_eq!(filled.next_u64(), words.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn fill_bytes_fills_every_byte_eventually() {
        let mut rng = DpRng::seed_from_u64(99);
        let mut buf = [0u8; 64];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
