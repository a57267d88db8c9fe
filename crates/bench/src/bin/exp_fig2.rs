//! Regenerates Figure 2: per-query L1 error and estimated QET over time for
//! every synchronization strategy, on both engines (panels a–j of the paper).
//!
//! Output is one CSV block per panel (`time` column plus one column per
//! strategy), ready to plot.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_fig2 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::config::EngineKind;
use dpsync_bench::experiments::end_to_end::{figure2_series, run_end_to_end, Fig2Metric};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_fig2", FlagSet::Simulation);
    let results = run_end_to_end(config);
    for (engine, reports) in &results {
        let queries: &[&str] = match engine {
            EngineKind::CryptEpsilon => &["Q1", "Q2"],
            EngineKind::ObliDb => &["Q1", "Q2", "Q3"],
        };
        for metric in [Fig2Metric::Error, Fig2Metric::Qet] {
            for query in queries {
                print!(
                    "{}",
                    figure2_series(*engine, query, metric, reports).render()
                );
                println!();
            }
        }
    }
}
