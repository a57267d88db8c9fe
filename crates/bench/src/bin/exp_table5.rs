//! Regenerates Table 5: the aggregated comparison statistics (mean/max L1
//! error and mean QET per query, mean logical gap, total and dummy data) for
//! every synchronization strategy on both engines.
//!
//! One simulated month per (strategy × engine) pair; at the default scale
//! this replays the full 43 200-minute June-2020-shaped workload.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_table5 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::end_to_end::{headline_summary, run_end_to_end, table5};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_table5", FlagSet::Simulation);
    println!(
        "Table 5 — aggregated statistics (scale 1/{}, epsilon = {}, T = {}, theta = {}, backend = {}, transport = {})\n",
        config.scale.max(1),
        config.params.epsilon,
        config.params.timer_period,
        config.params.ant_threshold,
        config.backend,
        config.transport
    );
    for (engine, reports) in run_end_to_end(config) {
        print!("{}", table5(engine, &reports).render());
        println!("{}\n", headline_summary(engine, &reports));
    }
}
