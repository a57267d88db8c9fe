//! The end-to-end simulation driver.
//!
//! A simulation replays a timestamped workload through the full DP-Sync
//! stack: one [`Owner`] per table (each running its own copy of the
//! configured strategy), one shared engine, and an [`Analyst`] that poses the
//! evaluation queries on a fixed schedule.  The driver also maintains the
//! plaintext logical database so that every query answer can be scored
//! against the ground truth, and samples storage sizes for the data-volume
//! figures.  Its output, a [`SimulationReport`](crate::SimulationReport), is
//! what the experiment binaries in `dpsync-bench` turn into the paper's
//! tables and figures.
//!
//! This module holds the driver's configuration; the driver itself,
//! [`Simulation::run_sparse`], is an event-driven scheduler over
//! [`OwnerWorkload`]s that lives in [`crate::sparse`] together with its
//! pre-run state (ARCHITECTURE.md §9).  With a fixed seed its reports are
//! reproducible up to measured wall-clock fields; see
//! [`SimulationReport::normalized`](crate::SimulationReport::normalized).
//!
//! # Owner churn
//!
//! An [`OwnerWorkload`] may give its owner a `join_time` and/or `leave_time`:
//! the owner's `Π_Setup` then runs at the join tick instead of during
//! preparation, followed immediately by a normal tick (so records arriving
//! exactly at the join tick are delivered, not dropped), and the owner is
//! never ticked outside its active window `join_time ≤ t ≤ leave_time`.
//!
//! [`Analyst`]: crate::analyst::Analyst
//! [`Owner`]: crate::owner::Owner
//! [`OwnerWorkload`]: crate::sparse::OwnerWorkload

use crate::analyst::ReadMode;
use dpsync_edb::planner::LeakagePolicy;
use dpsync_edb::Query;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Pose the analyst's queries every this many time units (§8 uses 360,
    /// i.e. every six hours of one-minute ticks).
    pub query_interval: u64,
    /// Sample storage sizes every this many time units (Figure 3 samples
    /// every 7200 units); a sample is always taken at the horizon.
    pub size_sample_interval: u64,
    /// The analyst's queries.
    pub queries: Vec<(String, Query)>,
    /// Master seed for every random draw in the run.
    pub seed: u64,
}

impl SimulationConfig {
    /// The evaluation defaults: queries every 360 units, sizes every 7200.
    pub fn paper_default(queries: Vec<(String, Query)>, seed: u64) -> Self {
        Self {
            query_interval: 360,
            size_sample_interval: 7200,
            queries,
            seed,
        }
    }
}

/// The simulation driver.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimulationConfig,
    read_mode: ReadMode,
}

impl Simulation {
    /// Creates a driver for `config`.
    pub fn new(config: SimulationConfig) -> Self {
        Self {
            config,
            read_mode: ReadMode::Scan,
        }
    }

    /// Serves the analyst's recurring queries from auto-registered
    /// materialized views (see [`ReadMode::Views`]).  Released answers and
    /// the adversary view are byte-identical to the scan path; only measured
    /// query latencies change.
    pub fn with_views(mut self) -> Self {
        self.read_mode = ReadMode::Views;
        self
    }

    /// Plans the analyst's queries over auto-registered encrypted-multimap
    /// indexes under `policy` (see [`ReadMode::Indexes`]).  Released answers
    /// are byte-identical to the scan path; under
    /// [`LeakagePolicy::TranscriptOnly`] so is the adversary view.
    pub fn with_indexes(mut self, policy: LeakagePolicy) -> Self {
        self.read_mode = ReadMode::Indexes(policy);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// How the analyst serves its reads.
    pub fn read_mode(&self) -> ReadMode {
        self.read_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SimulationReport;
    use crate::sparse::OwnerWorkload;
    use crate::strategy::{
        AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
        SyncStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
    };
    use dpsync_crypto::MasterKey;
    use dpsync_dp::Epsilon;
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{DataType, Row, Schema, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    /// A small deterministic workload: one arrival every other tick.
    fn workload(horizon: u64) -> OwnerWorkload {
        OwnerWorkload {
            table: "yellow".into(),
            schema: schema(),
            initial_rows: (0..5).map(|i| row(0, 50 + i)).collect(),
            join_time: 0,
            leave_time: None,
            arrivals: (2..=horizon)
                .step_by(2)
                .map(|t| (t, vec![row(t, (t % 200) as i64)]))
                .collect(),
        }
    }

    fn config(horizon: u64) -> SimulationConfig {
        SimulationConfig {
            query_interval: horizon / 8,
            size_sample_interval: horizon / 4,
            queries: vec![
                ("Q1".into(), paper_queries::q1_range_count("yellow")),
                ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
            ],
            seed: 99,
        }
    }

    fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
        match kind {
            StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
            StrategyKind::Oto => Box::new(OneTimeOutsourcing::new()),
            StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
            StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                30,
                Some(CacheFlush::new(400, 15)),
            )),
            StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
                Epsilon::new_unchecked(0.5),
                15,
                Some(CacheFlush::new(400, 15)),
            )),
        }
    }

    fn run(strategy: StrategyKind, horizon: u64) -> SimulationReport {
        let master = MasterKey::from_bytes([5u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(config(horizon));
        sim.run_sparse(&[workload(horizon)], horizon, &engine, &master, |_| {
            strategy_for(strategy)
        })
        .unwrap()
    }

    #[test]
    fn sur_has_zero_error_and_zero_gap() {
        let report = run(StrategyKind::Sur, 800);
        assert_eq!(report.strategy, StrategyKind::Sur);
        assert_eq!(report.mean_l1_error("Q1"), 0.0);
        assert_eq!(report.mean_l1_error("Q2"), 0.0);
        assert_eq!(report.mean_logical_gap(), 0.0);
        assert_eq!(report.final_sizes().unwrap().dummy_records, 0);
    }

    #[test]
    fn oto_error_grows_with_unsynced_data() {
        let report = run(StrategyKind::Oto, 800);
        // OTO outsources only the 5 initial rows; by the end ~400 rows are missing.
        assert!(report.mean_l1_error("Q2") > 100.0);
        assert_eq!(report.final_sizes().unwrap().outsourced_records, 5);
        assert_eq!(report.sync_count, 1);
    }

    #[test]
    fn set_outsources_one_record_per_tick() {
        let report = run(StrategyKind::Set, 800);
        let sizes = report.final_sizes().unwrap();
        assert_eq!(sizes.outsourced_records, 5 + 800);
        // Half the ticks had no arrival, so roughly half the uploads are dummies.
        assert!(sizes.dummy_records >= 390 && sizes.dummy_records <= 410);
        assert_eq!(report.mean_l1_error("Q2"), 0.0);
    }

    #[test]
    fn dp_strategies_bound_error_and_overhead() {
        for kind in [StrategyKind::DpTimer, StrategyKind::DpAnt] {
            let report = run(kind, 800);
            let sizes = report.final_sizes().unwrap();
            // Bounded error: far below OTO's hundreds.
            assert!(
                report.mean_l1_error("Q2") < 60.0,
                "{kind:?} mean error {}",
                report.mean_l1_error("Q2")
            );
            // Bounded overhead: clearly fewer dummies than SET, which uploads
            // a dummy at every one of the ~400 empty ticks.
            assert!(
                sizes.dummy_records < 280,
                "{kind:?} dummies {}",
                sizes.dummy_records
            );
            assert!(report.epsilon.is_some());
            assert!(report.sync_count > 2);
        }
    }

    #[test]
    fn join_workload_runs_two_owners() {
        let master = MasterKey::from_bytes([6u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let mut cfg = config(400);
        cfg.queries = vec![("Q3".into(), paper_queries::q3_join_count("yellow", "green"))];
        let sim = Simulation::new(cfg);
        let mut green = workload(400);
        green.table = "green".into();
        let report = sim
            .run_sparse(&[workload(400), green], 400, &engine, &master, |_| {
                Box::new(SynchronizeUponReceipt::new())
            })
            .unwrap();
        assert_eq!(report.mean_l1_error("Q3"), 0.0);
        assert!(report.final_sizes().unwrap().outsourced_records > 0);
    }

    #[test]
    fn reports_are_deterministic_for_a_fixed_seed() {
        // Everything except wall-clock timings must be bit-identical across
        // runs with the same seed.
        let a = run(StrategyKind::DpTimer, 400).normalized();
        let b = run(StrategyKind::DpTimer, 400).normalized();
        assert_eq!(a, b);
    }

    #[test]
    fn workload_accessors() {
        let mut w = workload(100);
        assert_eq!(w.total_rows(), 5 + 50);
        assert!(w.active_at(0) && w.active_at(100));
        // Both edges of the active window are inclusive.
        w.join_time = 14;
        w.leave_time = Some(28);
        assert!(w.active_at(14) && w.active_at(28));
        assert!(!w.active_at(13) && !w.active_at(29));
        let cfg = SimulationConfig::paper_default(vec![], 1);
        assert_eq!(cfg.query_interval, 360);
        assert_eq!(cfg.size_sample_interval, 7200);
        let sim = Simulation::new(cfg);
        assert_eq!(sim.config().seed, 1);
    }
}
