//! Regenerates Figure 4: mean Q2 query execution time versus mean Q2 L1 error,
//! one point per synchronization strategy, for both engines.  DP strategies
//! should land near the lower-left corner (close to SUR), SET in the lower
//! right, OTO in the upper left.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_fig4 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::end_to_end::{figure4_legend, figure4_series, run_end_to_end};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_fig4", FlagSet::Simulation);
    for (engine, reports) in run_end_to_end(config) {
        print!("{}", figure4_series(engine, &reports).render());
        for line in figure4_legend(&reports) {
            println!("# {line}");
        }
        println!();
    }
}
