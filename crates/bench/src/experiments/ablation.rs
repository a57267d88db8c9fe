//! Ablation study: how much of the DP strategies' behaviour comes from the
//! cache-flush mechanism?
//!
//! The cache flush (paper §5.2.3; mapped in ARCHITECTURE.md §2) is the
//! design choice that buys the strong "consistent eventually" property (P3)
//! at the cost of a fixed dummy volume `η = s⌊t/f⌋` (Theorems 7/9).  This
//! ablation runs each DP strategy with the flush enabled and disabled and
//! reports the quantities that choice trades off: the final logical gap
//! (does every record eventually reach the server?), the dummy volume, and
//! the query error.

use crate::experiments::config::{EngineKind, ExperimentConfig};
use crate::experiments::runner::{build_run_engine, build_workloads, RunSpec};
use crate::report::TextTable;
use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;

/// One ablation observation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Whether the cache flush was enabled.
    pub flush_enabled: bool,
    /// Mean Q2 L1 error across the run.
    pub mean_q2_error: f64,
    /// Logical gap at the end of the run (0 means every record was synced).
    pub final_logical_gap: u64,
    /// Dummy records stored at the end of the run.
    pub dummy_records: u64,
    /// Total ciphertexts stored at the end of the run.
    pub outsourced_records: u64,
}

fn run_with_flush(
    strategy: StrategyKind,
    flush: Option<CacheFlush>,
    config: ExperimentConfig,
) -> SimulationReport {
    let spec = RunSpec {
        engine: EngineKind::ObliDb,
        strategy,
        config,
    };
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&config.seed.to_le_bytes());
    bytes[8] = 0xAB;
    let master = MasterKey::from_bytes(bytes);
    // Honors the spec's backend *and* transport (`--backend disk`,
    // `--transport tcp`), exactly like every other experiment runner; the
    // guard keeps a disk run's scratch directory alive for the run.
    let (engine, _disk_dir) = build_run_engine(&spec, &master);
    let (workloads, horizon) = build_workloads(&spec);
    let eps = Epsilon::new_unchecked(config.params.epsilon);
    let sim = Simulation::new(SimulationConfig {
        query_interval: config.query_interval,
        size_sample_interval: config.size_sample_interval,
        queries: spec.query_set(),
        seed: config.seed,
    });
    sim.run_sparse(
        &workloads,
        horizon,
        engine.as_ref(),
        &master,
        |_| -> Box<dyn SyncStrategy> {
            match strategy {
                StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
                    eps,
                    config.params.timer_period,
                    flush,
                )),
                StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
                    eps,
                    config.params.ant_threshold,
                    flush,
                )),
                other => config.params.build(other),
            }
        },
    )
    .expect("simulation over generated workloads cannot fail")
}

/// Runs the flush ablation for both DP strategies.
///
/// The four (strategy × flush) cells are independent simulations and run
/// concurrently on the worker pool.
pub fn flush_ablation(config: ExperimentConfig) -> Vec<AblationRow> {
    let flush = CacheFlush::new(config.params.flush_interval, config.params.flush_size);
    let cells: Vec<(StrategyKind, bool)> = [StrategyKind::DpTimer, StrategyKind::DpAnt]
        .into_iter()
        .flat_map(|strategy| [(strategy, true), (strategy, false)])
        .collect();
    crate::pool::parallel_map(&cells, |&(strategy, flush_enabled)| {
        let report = run_with_flush(strategy, flush_enabled.then_some(flush), config);
        let sizes = report.final_sizes().unwrap_or_default();
        AblationRow {
            strategy,
            flush_enabled,
            mean_q2_error: report.mean_l1_error("Q2"),
            final_logical_gap: sizes.logical_gap,
            dummy_records: sizes.dummy_records,
            outsourced_records: sizes.outsourced_records,
        }
    })
}

/// Renders the ablation as a text table.
pub fn ablation_table(rows: &[AblationRow]) -> TextTable {
    let mut table = TextTable::new([
        "Strategy",
        "Cache flush",
        "Mean Q2 L1 error",
        "Final logical gap",
        "Dummy records",
        "Outsourced records",
    ]);
    for row in rows {
        table.add_row([
            row.strategy.label().to_string(),
            if row.flush_enabled { "on" } else { "off" }.to_string(),
            format!("{:.2}", row.mean_q2_error),
            row.final_logical_gap.to_string(),
            row.dummy_records.to_string(),
            row.outsourced_records.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_reduces_the_final_backlog_at_the_cost_of_dummies() {
        let config = ExperimentConfig {
            scale: 60,
            seed: 13,
            ..Default::default()
        }
        .rescale();
        // Shrink the flush interval so several flushes fit in the scaled run.
        let mut config = config;
        config.params.flush_interval = 150;
        let rows = flush_ablation(config);
        assert_eq!(rows.len(), 4);
        for strategy in [StrategyKind::DpTimer, StrategyKind::DpAnt] {
            let with = rows
                .iter()
                .find(|r| r.strategy == strategy && r.flush_enabled)
                .unwrap();
            let without = rows
                .iter()
                .find(|r| r.strategy == strategy && !r.flush_enabled)
                .unwrap();
            // The flush can only help the backlog and can only add uploads.
            assert!(
                with.final_logical_gap <= without.final_logical_gap,
                "{strategy:?}: gap with flush {} vs without {}",
                with.final_logical_gap,
                without.final_logical_gap
            );
            assert!(with.outsourced_records >= without.outsourced_records);
        }
        let rendered = ablation_table(&rows).render();
        assert!(rendered.contains("Cache flush"));
        assert!(rendered.contains("off"));
    }
}
