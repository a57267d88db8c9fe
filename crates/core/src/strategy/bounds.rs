//! The closed-form strategy comparison of Table 2.
//!
//! Table 2 summarizes, for each synchronization strategy, the privacy
//! guarantee, the logical-gap bound and the total-outsourced-records bound.
//! This module evaluates those formulas for concrete parameters so the
//! `exp_table2` binary can print the table with numbers next to the symbolic
//! forms, and so property tests in the simulation layer can check the
//! empirical quantities against them.

use super::{CacheFlush, StrategyKind};
use crate::timeline::Timestamp;
use dpsync_dp::{ant_logical_gap_bound, timer_logical_gap_bound, Epsilon};

/// The parameters the Table-2 formulas depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundContext {
    /// Privacy budget ε for the DP strategies.
    pub epsilon: Epsilon,
    /// Current time `t`.
    pub time: Timestamp,
    /// Number of synchronizations posted so far (`k`, DP-Timer).
    pub syncs_posted: u64,
    /// Records received since the last update (`c_t^{t*}`).
    pub received_since_last_sync: u64,
    /// `|D₀|`: size of the initial database.
    pub initial_size: u64,
    /// `|D_t|`: size of the logical database at `t`.
    pub logical_size: u64,
    /// Cache-flush configuration used by the DP strategies.
    pub flush: CacheFlush,
    /// Failure probability β for the probabilistic bounds.
    pub beta: f64,
}

/// One evaluated row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsRow {
    /// The strategy.
    pub strategy: StrategyKind,
    /// Privacy guarantee ("∞-DP", "0-DP", "ε-DP").
    pub privacy: String,
    /// Symbolic logical-gap bound as printed in the paper.
    pub logical_gap_formula: String,
    /// Numeric evaluation of the logical-gap bound (with probability 1-β for
    /// the DP strategies).
    pub logical_gap_value: f64,
    /// Symbolic total-outsourced-records bound.
    pub outsourced_formula: String,
    /// Numeric evaluation of the total-outsourced-records bound.
    pub outsourced_value: f64,
}

/// Evaluates the logical-gap bound for `strategy` under `ctx`.
pub fn logical_gap_bound(strategy: StrategyKind, ctx: &BoundContext) -> f64 {
    match strategy {
        StrategyKind::Sur | StrategyKind::Set => 0.0,
        StrategyKind::Oto => (ctx.logical_size - ctx.initial_size) as f64,
        StrategyKind::DpTimer => {
            ctx.received_since_last_sync as f64
                + timer_logical_gap_bound(ctx.epsilon, ctx.syncs_posted.max(1), ctx.beta)
        }
        StrategyKind::DpAnt => {
            ctx.received_since_last_sync as f64
                + ant_logical_gap_bound(ctx.epsilon, ctx.time.value().max(1), ctx.beta)
        }
    }
}

/// Evaluates the total-outsourced-records bound for `strategy` under `ctx`.
pub fn outsourced_bound(strategy: StrategyKind, ctx: &BoundContext) -> f64 {
    let eta = ctx.flush.volume_by(ctx.time) as f64;
    match strategy {
        StrategyKind::Sur => ctx.logical_size as f64,
        StrategyKind::Oto => ctx.initial_size as f64,
        StrategyKind::Set => ctx.initial_size as f64 + ctx.time.value() as f64,
        StrategyKind::DpTimer => {
            ctx.logical_size as f64
                + timer_logical_gap_bound(ctx.epsilon, ctx.syncs_posted.max(1), ctx.beta)
                + eta
        }
        StrategyKind::DpAnt => {
            ctx.logical_size as f64
                + ant_logical_gap_bound(ctx.epsilon, ctx.time.value().max(1), ctx.beta)
                + eta
        }
    }
}

/// Produces the full Table-2 comparison for the given context.
pub fn table2(ctx: &BoundContext) -> Vec<BoundsRow> {
    StrategyKind::ALL
        .iter()
        .map(|&strategy| BoundsRow {
            strategy,
            privacy: strategy.privacy_label().to_string(),
            logical_gap_formula: match strategy {
                StrategyKind::Sur | StrategyKind::Set => "0".to_string(),
                StrategyKind::Oto => "|D_t| - |D_0|".to_string(),
                StrategyKind::DpTimer => "c + O(2√k/ε)".to_string(),
                StrategyKind::DpAnt => "c + O(16 log t / ε)".to_string(),
            },
            logical_gap_value: logical_gap_bound(strategy, ctx),
            outsourced_formula: match strategy {
                StrategyKind::Sur => "|D_t|".to_string(),
                StrategyKind::Oto => "|D_0|".to_string(),
                StrategyKind::Set => "|D_0| + t".to_string(),
                StrategyKind::DpTimer => "|D_t| + O(2√k/ε) + η".to_string(),
                StrategyKind::DpAnt => "|D_t| + O(16 log t / ε) + η".to_string(),
            },
            outsourced_value: outsourced_bound(strategy, ctx),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BoundContext {
        BoundContext {
            epsilon: Epsilon::new_unchecked(0.5),
            time: Timestamp(43_200),
            syncs_posted: 1_440,
            received_since_last_sync: 12,
            initial_size: 120,
            logical_size: 18_429,
            flush: CacheFlush::paper_default(),
            beta: 0.05,
        }
    }

    #[test]
    fn perfect_strategies_have_zero_gap() {
        let c = ctx();
        assert_eq!(logical_gap_bound(StrategyKind::Sur, &c), 0.0);
        assert_eq!(logical_gap_bound(StrategyKind::Set, &c), 0.0);
    }

    #[test]
    fn oto_gap_is_everything_after_setup() {
        let c = ctx();
        assert_eq!(
            logical_gap_bound(StrategyKind::Oto, &c),
            (18_429 - 120) as f64
        );
        assert_eq!(outsourced_bound(StrategyKind::Oto, &c), 120.0);
    }

    #[test]
    fn dp_bounds_exceed_carryover_but_stay_small() {
        let c = ctx();
        let timer = logical_gap_bound(StrategyKind::DpTimer, &c);
        let ant = logical_gap_bound(StrategyKind::DpAnt, &c);
        assert!(timer > c.received_since_last_sync as f64);
        assert!(ant > c.received_since_last_sync as f64);
        // Both bounds are tiny relative to the OTO gap.
        assert!(timer < 1_000.0, "timer bound {timer}");
        assert!(ant < 1_000.0, "ant bound {ant}");
    }

    #[test]
    fn set_outsources_one_record_per_tick() {
        let c = ctx();
        assert_eq!(
            outsourced_bound(StrategyKind::Set, &c),
            (120 + 43_200) as f64
        );
        assert_eq!(outsourced_bound(StrategyKind::Sur, &c), 18_429.0);
    }

    #[test]
    fn dp_outsourced_bounds_include_flush_volume() {
        let c = ctx();
        let eta = c.flush.volume_by(c.time) as f64;
        let timer = outsourced_bound(StrategyKind::DpTimer, &c);
        assert!(timer >= c.logical_size as f64 + eta);
        // SET still outsources far more than the DP strategies over a sparse
        // month-long trace (43_200 ticks vs ≈18.4k records).
        assert!(outsourced_bound(StrategyKind::Set, &c) > timer);
    }

    #[test]
    fn table2_has_five_rows_with_formulas() {
        let rows = table2(&ctx());
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.logical_gap_formula.contains("√k")));
        assert!(rows
            .iter()
            .any(|r| r.outsourced_formula.contains("|D_0| + t")));
        for row in &rows {
            assert!(row.logical_gap_value >= 0.0);
            assert!(row.outsourced_value >= 0.0);
        }
    }
}
