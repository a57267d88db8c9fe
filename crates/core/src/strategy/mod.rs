//! Synchronization strategies.
//!
//! A strategy is the paper's `Sync(D)` algorithm: a stateful, possibly
//! randomized decision procedure that the owner consults at every time unit
//! to learn whether to run the update protocol and how many records (real +
//! dummy) the update should carry.
//!
//! * [`naive`] — the three baselines of §5.1: synchronize-upon-receipt (SUR),
//!   one-time-outsourcing (OTO) and synchronize-every-time (SET).
//! * [`timer`] — DP-Timer (Algorithm 1).
//! * [`ant`] — DP-ANT / Above Noisy Threshold (Algorithm 3).
//! * [`flush`] — the cache-flush mechanism shared by both DP strategies.
//! * [`bounds`] — the closed-form comparison of Table 2.

pub mod ant;
pub mod bounds;
pub mod flush;
pub mod naive;
pub mod timer;

pub use ant::AboveNoisyThresholdStrategy;
pub use flush::CacheFlush;
pub use naive::{OneTimeOutsourcing, SynchronizeEveryTime, SynchronizeUponReceipt};
pub use timer::DpTimerStrategy;

use crate::timeline::Timestamp;
use dpsync_dp::{Epsilon, PrivacyAccountant};
use rand::RngCore;

/// The strategies implemented in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Synchronize upon receipt (no privacy).
    Sur,
    /// One-time outsourcing (full privacy, no utility after setup).
    Oto,
    /// Synchronize every time unit (full privacy, maximal overhead).
    Set,
    /// DP-Timer (Algorithm 1).
    DpTimer,
    /// DP-ANT / Above Noisy Threshold (Algorithm 3).
    DpAnt,
}

impl StrategyKind {
    /// The label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Sur => "SUR",
            StrategyKind::Oto => "OTO",
            StrategyKind::Set => "SET",
            StrategyKind::DpTimer => "DP-Timer",
            StrategyKind::DpAnt => "DP-ANT",
        }
    }

    /// The privacy annotation the paper attaches to the strategy
    /// ("ε = ∞" for SUR, "ε = 0" for OTO/SET, "ε-DP" for the DP strategies).
    pub fn privacy_label(self) -> &'static str {
        match self {
            StrategyKind::Sur => "∞-DP (no privacy)",
            StrategyKind::Oto | StrategyKind::Set => "0-DP (full privacy)",
            StrategyKind::DpTimer | StrategyKind::DpAnt => "ε-DP",
        }
    }

    /// All strategy kinds in the order the paper lists them.
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::Sur,
        StrategyKind::Oto,
        StrategyKind::Set,
        StrategyKind::DpTimer,
        StrategyKind::DpAnt,
    ];
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Why a synchronization was posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncReason {
    /// The strategy's own schedule / threshold fired.
    Strategy,
    /// The periodic cache-flush mechanism fired (possibly combined with the
    /// strategy's own decision at the same tick).
    Flush,
}

/// The decision a strategy returns for one time unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDecision {
    /// Do not run the update protocol at this time unit.
    None,
    /// Run the update protocol with `fetch` records read from the cache
    /// (padded with dummies when the cache holds fewer).
    Sync {
        /// Number of records (real + dummy) to upload.
        fetch: u64,
        /// Why the synchronization happens.
        reason: SyncReason,
    },
}

impl SyncDecision {
    /// The fetch size, treating `None` as zero.
    pub fn fetch(self) -> u64 {
        match self {
            SyncDecision::None => 0,
            SyncDecision::Sync { fetch, .. } => fetch,
        }
    }

    /// Whether an update will be posted.
    pub fn is_sync(self) -> bool {
        matches!(self, SyncDecision::Sync { .. })
    }
}

/// The information a strategy sees at each time unit.
///
/// The owner writes any arrived records to the cache *before* consulting the
/// strategy, matching Algorithms 1 and 3 where `write(σ, u_t)` precedes the
/// synchronization check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickContext {
    /// The current time unit.
    pub time: Timestamp,
    /// Number of records that arrived at this time unit.
    pub arrived: u64,
    /// Cache length after the arrivals were written.
    pub cache_len: u64,
}

/// A synchronization strategy (the paper's `Sync` algorithm).
///
/// `Send` so a `Box<dyn SyncStrategy>` can move into the thread that drives
/// its owner.
pub trait SyncStrategy: Send {
    /// Which strategy this is.
    fn kind(&self) -> StrategyKind;

    /// The update-pattern privacy budget, when the strategy is differentially
    /// private (`None` for the naïve baselines).
    fn epsilon(&self) -> Option<Epsilon>;

    /// Decides how many records the initial `Π_Setup` outsources, given the
    /// size of the initial database `|D₀|`.
    fn initial_fetch(&mut self, initial_size: u64, rng: &mut dyn RngCore) -> u64;

    /// Consulted once per time unit after arrivals were cached; returns the
    /// synchronization decision for this tick.
    fn on_tick(&mut self, ctx: &TickContext, rng: &mut dyn RngCore) -> SyncDecision;

    /// The next time unit strictly after `now` at which the strategy must be
    /// consulted *even if no records arrive*, or `None` when only an arrival
    /// can make it act again.
    ///
    /// This is the contract the simulation driver
    /// ([`crate::simulation::Simulation::run_sparse`]) elides idle ticks on:
    /// for every `t` with `now < t < next_wake(now)`, calling
    /// [`SyncStrategy::on_tick`] at `t` with `arrived == 0` must return
    /// [`SyncDecision::None`], draw **no** randomness, and leave the strategy
    /// in an observably identical state.  A strategy whose idle ticks do any
    /// of those things must keep the dense default (`now + 1`), which makes
    /// elision a no-op.  The equivalence suite
    /// (`crates/core/tests/sparse_tick_equivalence.rs`) pins the contract:
    /// transcripts must stay byte-identical to the same run with the
    /// strategy wrapped in [`EveryTick`], which keeps the dense default.
    ///
    /// * DP-Timer wakes only at period and flush boundaries (its idle
    ///   non-boundary ticks touch nothing).
    /// * SUR and OTO never need waking (`None`).
    /// * SET and DP-ANT keep the dense default — SET uploads every tick and
    ///   DP-ANT's sparse-vector comparison draws noise every tick.
    fn next_wake(&self, now: Timestamp) -> Option<Timestamp> {
        Some(now.next())
    }

    /// The privacy-expenditure ledger, when the strategy keeps one.
    fn accountant(&self) -> Option<&PrivacyAccountant> {
        None
    }
}

/// Wraps a strategy so the driver consults it at every tick of its owner's
/// active window.
///
/// Every method is forwarded to the inner strategy except
/// [`SyncStrategy::next_wake`], which keeps the dense default (`now + 1`).
/// Wrapping therefore changes no decision, draw or transcript byte of a
/// strategy that honours the `next_wake` contract; the equivalence suite and
/// `exp_scale`'s self-check use it as the reference the sparse schedule is
/// compared against.
pub struct EveryTick(pub Box<dyn SyncStrategy>);

impl SyncStrategy for EveryTick {
    fn kind(&self) -> StrategyKind {
        self.0.kind()
    }

    fn epsilon(&self) -> Option<Epsilon> {
        self.0.epsilon()
    }

    fn initial_fetch(&mut self, initial_size: u64, rng: &mut dyn RngCore) -> u64 {
        self.0.initial_fetch(initial_size, rng)
    }

    fn on_tick(&mut self, ctx: &TickContext, rng: &mut dyn RngCore) -> SyncDecision {
        self.0.on_tick(ctx, rng)
    }

    // Forwarded explicitly: the trait default would hide the inner ledger.
    fn accountant(&self) -> Option<&PrivacyAccountant> {
        self.0.accountant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(StrategyKind::Sur.label(), "SUR");
        assert_eq!(StrategyKind::DpTimer.to_string(), "DP-Timer");
        assert_eq!(StrategyKind::DpAnt.label(), "DP-ANT");
        assert_eq!(StrategyKind::ALL.len(), 5);
    }

    #[test]
    fn privacy_labels() {
        assert!(StrategyKind::Sur.privacy_label().contains('∞'));
        assert!(StrategyKind::Oto.privacy_label().contains("0-DP"));
        assert!(StrategyKind::DpTimer.privacy_label().contains("ε"));
    }

    #[test]
    fn every_tick_forwards_all_but_next_wake() {
        let inner = DpTimerStrategy::new(Epsilon::new_unchecked(0.5), 30);
        assert_eq!(inner.next_wake(Timestamp(1)), Some(Timestamp(30)));
        let wrapped = EveryTick(Box::new(inner));
        assert_eq!(wrapped.next_wake(Timestamp(1)), Some(Timestamp(2)));
        assert_eq!(wrapped.kind(), StrategyKind::DpTimer);
        assert_eq!(wrapped.epsilon(), Some(Epsilon::new_unchecked(0.5)));
        assert!(wrapped.accountant().is_some());
        let sur = EveryTick(Box::new(SynchronizeUponReceipt::new()));
        assert_eq!(sur.next_wake(Timestamp(9)), Some(Timestamp(10)));
    }

    #[test]
    fn decision_accessors() {
        assert_eq!(SyncDecision::None.fetch(), 0);
        assert!(!SyncDecision::None.is_sync());
        let d = SyncDecision::Sync {
            fetch: 9,
            reason: SyncReason::Strategy,
        };
        assert_eq!(d.fetch(), 9);
        assert!(d.is_sync());
    }
}
