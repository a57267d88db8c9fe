//! Discrete time.
//!
//! The paper models time as discrete units (one minute in the evaluation's
//! client simulation) and a growing database as an initial database `D₀` plus
//! a sequence of logical updates `u_t`, each either a single record or ∅
//! (§4.1).  The simulation carries the updates of one owner as the event list
//! of a [`crate::sparse::OwnerWorkload`], which also supports the paper's
//! generalization to several records per unit.

/// A discrete time unit (the evaluation uses one-minute units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The epoch (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// The raw tick count.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The next time unit.
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }

    /// Whether this time is a multiple of `period` (and not the epoch).
    pub fn is_multiple_of(self, period: u64) -> bool {
        period > 0 && self.0 > 0 && self.0.is_multiple_of(period)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(v: u64) -> Self {
        Timestamp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(29);
        assert_eq!(t.next(), Timestamp(30));
        assert_eq!(t.value(), 29);
        assert!(Timestamp(60).is_multiple_of(30));
        assert!(!Timestamp(45).is_multiple_of(30));
        assert!(
            !Timestamp(0).is_multiple_of(30),
            "the epoch is not a sync point"
        );
        assert!(!Timestamp(10).is_multiple_of(0), "period zero never fires");
        assert_eq!(Timestamp::ZERO.to_string(), "t=0");
        assert_eq!(Timestamp::from(7u64), Timestamp(7));
    }
}
