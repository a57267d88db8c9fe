//! The cache-flush mechanism.
//!
//! Both DP strategies pair their data-dependent (noisy) synchronization with
//! a data-*independent* periodic flush: every `f` time units the owner
//! uploads exactly `s` records — cached records first, topped up with dummy
//! records when fewer than `s` are cached (§5.2.1).  Because the flush fires
//! on a fixed schedule with a fixed volume it consumes no privacy budget
//! (`M_flush` is 0-DP in Table 4), yet it guarantees that every record is
//! eventually synchronized: for a logical database of length `L`, all records
//! reach the server no later than `t = f · L / s`.

use crate::timeline::Timestamp;

/// Configuration of the periodic cache flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFlush {
    /// Flush interval `f`, in time units.
    pub interval: u64,
    /// Flush size `s`: the fixed number of records uploaded per flush.
    pub size: u64,
}

impl CacheFlush {
    /// The evaluation's default configuration (§8): `f = 2000`, `s = 15`.
    pub fn paper_default() -> Self {
        Self {
            interval: 2000,
            size: 15,
        }
    }

    /// Creates a flush configuration.
    ///
    /// # Panics
    /// Panics if `interval` or `size` is zero — a zero interval would flush
    /// every tick (that is SET, not a flush) and a zero size would be a
    /// no-op that still leaks a timing signal.
    pub fn new(interval: u64, size: u64) -> Self {
        assert!(interval > 0, "flush interval must be positive");
        assert!(size > 0, "flush size must be positive");
        Self { interval, size }
    }

    /// Whether the flush fires at `time`.
    pub fn fires_at(&self, time: Timestamp) -> bool {
        time.is_multiple_of(self.interval)
    }

    /// Number of flushes that have fired by `time` (inclusive) — the `⌊t/f⌋`
    /// factor in the `η` dummy-volume bound of Theorems 7 and 9.
    pub fn flushes_by(&self, time: Timestamp) -> u64 {
        time.value() / self.interval
    }

    /// Total flush upload volume by `time`: `η = s · ⌊t/f⌋`.
    pub fn volume_by(&self, time: Timestamp) -> u64 {
        self.size * self.flushes_by(time)
    }

    /// The latest time by which a logical database of length `record_count`
    /// is guaranteed to be fully synchronized (`t = f · L / s`, rounded up).
    pub fn full_sync_deadline(&self, record_count: u64) -> Timestamp {
        Timestamp(self.interval * record_count.div_ceil(self.size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_8() {
        let f = CacheFlush::paper_default();
        assert_eq!(f.interval, 2000);
        assert_eq!(f.size, 15);
    }

    #[test]
    fn fires_only_on_positive_multiples() {
        let f = CacheFlush::new(2000, 15);
        assert!(!f.fires_at(Timestamp(0)));
        assert!(!f.fires_at(Timestamp(1999)));
        assert!(f.fires_at(Timestamp(2000)));
        assert!(f.fires_at(Timestamp(4000)));
        assert!(!f.fires_at(Timestamp(4001)));
    }

    #[test]
    fn volume_matches_eta_formula() {
        let f = CacheFlush::new(2000, 15);
        assert_eq!(f.flushes_by(Timestamp(0)), 0);
        assert_eq!(f.flushes_by(Timestamp(1999)), 0);
        assert_eq!(f.flushes_by(Timestamp(43_200)), 21);
        assert_eq!(f.volume_by(Timestamp(43_200)), 315);
    }

    #[test]
    fn deadline_covers_all_records() {
        let f = CacheFlush::new(100, 10);
        // 95 records need ceil(95/10)=10 flushes => t = 1000.
        assert_eq!(f.full_sync_deadline(95), Timestamp(1000));
        assert_eq!(f.full_sync_deadline(0), Timestamp(0));
        assert_eq!(f.full_sync_deadline(10), Timestamp(100));
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let _ = CacheFlush::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "size")]
    fn zero_size_rejected() {
        let _ = CacheFlush::new(5, 0);
    }
}
