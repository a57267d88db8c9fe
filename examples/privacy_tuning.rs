//! Tuning the privacy / accuracy / performance trade-off (the paper's
//! Observations 4–6 in miniature): sweep the privacy budget ε and the
//! DP-Timer period T on a small workload and print how the mean query error
//! and the storage overhead respond.
//!
//! Run with: `cargo run --release --example privacy_tuning`

use dp_sync::core::simulation::{Simulation, SimulationConfig};
use dp_sync::core::strategy::{CacheFlush, DpTimerStrategy};
use dp_sync::crypto::MasterKey;
use dp_sync::dp::Epsilon;
use dp_sync::edb::engines::ObliDbEngine;
use dp_sync::workloads::queries;
use dp_sync::workloads::taxi::{TaxiConfig, TaxiDataset};

fn run(epsilon: f64, period: u64) -> (f64, f64, u64) {
    let yellow = TaxiDataset::generate(TaxiConfig::scaled_yellow(7, 20));
    let master = MasterKey::from_bytes([4u8; 32]);
    let engine = ObliDbEngine::new(&master);
    let sim = Simulation::new(SimulationConfig {
        query_interval: 18,
        size_sample_interval: 360,
        queries: queries::single_table_query_set(),
        seed: 7,
    });
    let report = sim
        .run_sparse(
            &[yellow.to_workload(queries::YELLOW_TABLE)],
            yellow.horizon(),
            &engine,
            &master,
            |_| {
                Box::new(DpTimerStrategy::with_flush(
                    Epsilon::new_unchecked(epsilon),
                    period,
                    Some(CacheFlush::new(500, 15)),
                ))
            },
        )
        .expect("simulation succeeds");
    let sizes = report.final_sizes().unwrap();
    (
        report.mean_l1_error("Q2"),
        report.mean_estimated_qet_all(),
        sizes.dummy_records,
    )
}

fn main() {
    println!("DP-Timer on a 1/20-scale taxi month (2 160 minutes, ~900 records)\n");

    println!("sweeping the privacy budget (T fixed at 30):");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "epsilon", "mean Q2 err", "mean QET (s)", "dummies"
    );
    for &eps in &[0.01, 0.1, 0.5, 1.0, 10.0] {
        let (err, qet, dummies) = run(eps, 30);
        println!("{eps:>8} {err:>14.2} {qet:>14.3} {dummies:>14}");
    }
    println!("  → smaller epsilon = stronger privacy, larger error and more dummy uploads\n");

    println!("sweeping the timer period T (epsilon fixed at 0.5):");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "T", "mean Q2 err", "mean QET (s)", "dummies"
    );
    for &period in &[5u64, 30, 120, 480] {
        let (err, qet, dummies) = run(0.5, period);
        println!("{period:>8} {err:>14.2} {qet:>14.3} {dummies:>14}");
    }
    println!(
        "  → longer periods defer more data (larger error) but synchronize — and pad — less often"
    );
}
