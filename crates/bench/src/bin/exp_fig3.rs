//! Regenerates Figure 3: total outsourced data size and dummy data size over
//! time for every synchronization strategy, on both engines (panels a–d).
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_fig3 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::end_to_end::{figure3_series, run_end_to_end};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_fig3", FlagSet::Simulation);
    for (engine, reports) in run_end_to_end(config) {
        print!("{}", figure3_series(engine, false, &reports).render());
        println!();
        print!("{}", figure3_series(engine, true, &reports).render());
        println!();
    }
}
