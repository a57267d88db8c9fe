//! Regenerates Table 2: the analytic comparison of synchronization strategies
//! (privacy guarantee, logical-gap bound, total-outsourced-records bound),
//! evaluated at the end of the paper's month-long horizon with the default
//! parameters (ε = 0.5, T = 30, θ = 15, f = 2000, s = 15, β = 0.05).
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_table2 [--scale N] [--seed S]`
//!
//! This is an **analytic** experiment: it evaluates closed-form bounds and
//! never builds an engine or contacts a server, so it accepts no
//! `--transport`/`--backend` flags — passing one is an error, not a no-op.

use dpsync_bench::experiments::tables::table2_text;
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_table2", FlagSet::Analytic);
    println!("Table 2 — comparison of synchronization strategies");
    println!(
        "(epsilon = {}, T = {}, theta = {}, flush f = {}, s = {}, beta = 0.05, horizon = {} minutes)\n",
        config.params.epsilon,
        config.params.timer_period,
        config.params.ant_threshold,
        config.params.flush_interval,
        config.params.flush_size,
        43_200 / config.scale.max(1)
    );
    print!("{}", table2_text(&config).render());
}
