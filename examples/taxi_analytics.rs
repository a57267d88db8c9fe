//! The paper's evaluation workload in miniature: replay a scaled-down
//! June-2020 NYC taxi trace through the full DP-Sync stack (owner + ObliDB-like
//! engine + analyst) under every synchronization strategy and print the
//! accuracy / performance / storage trade-off each one achieves.
//!
//! Run with: `cargo run --release --example taxi_analytics`

use dp_sync::core::simulation::{Simulation, SimulationConfig};
use dp_sync::core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
    SyncStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
};
use dp_sync::crypto::MasterKey;
use dp_sync::dp::Epsilon;
use dp_sync::edb::engines::ObliDbEngine;
use dp_sync::workloads::queries;
use dp_sync::workloads::taxi::{TaxiConfig, TaxiDataset};

fn build(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    let eps = Epsilon::new_unchecked(0.5);
    let flush = Some(CacheFlush::new(500, 15));
    match kind {
        StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
        StrategyKind::Oto => Box::new(OneTimeOutsourcing::new()),
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(eps, 30, flush)),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(eps, 15, flush)),
    }
}

fn main() {
    // A 1/10-scale month: ~1.8k Yellow Cab and ~2.1k Green Boro records over
    // 4 320 one-minute ticks.
    let yellow = TaxiDataset::generate(TaxiConfig::scaled_yellow(2021, 10));
    let green = TaxiDataset::generate(TaxiConfig::scaled_green(2022, 10));
    println!(
        "workload: {} yellow + {} green records over {} minutes\n",
        yellow.len(),
        green.len(),
        yellow.horizon()
    );
    let workloads = [
        yellow.to_workload(queries::YELLOW_TABLE),
        green.to_workload(queries::GREEN_TABLE),
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "strategy", "Q1 err", "Q2 err", "Q3 err", "mean QET(s)", "total MB", "dummy MB"
    );
    for kind in StrategyKind::ALL {
        let master = MasterKey::from_bytes([8u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(SimulationConfig {
            query_interval: 36,
            size_sample_interval: 720,
            queries: queries::paper_query_set(),
            seed: 2021,
        });
        let report = sim
            .run_sparse(&workloads, yellow.horizon(), &engine, &master, |_| {
                build(kind)
            })
            .expect("simulation succeeds");
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>12.3} {:>12.2} {:>10.2}",
            kind.label(),
            report.mean_l1_error("Q1"),
            report.mean_l1_error("Q2"),
            report.mean_l1_error("Q3"),
            report.mean_estimated_qet_all(),
            report.total_outsourced_mb(),
            report.dummy_mb(),
        );
    }
    println!(
        "\nDP-Timer and DP-ANT keep query errors bounded (unlike OTO) while uploading far \
         fewer dummy records than SET — the trade-off the paper's Figure 4 illustrates."
    );
}
