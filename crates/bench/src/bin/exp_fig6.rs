//! Regenerates Figure 6: the trade-off under a fixed privacy level when the
//! non-privacy parameters change — the DP-Timer period `T` (panels a, c) and
//! the DP-ANT threshold θ (panels b, d), swept from 1 to 1000 with ε = 0.5 on
//! the ObliDB engine and the default query Q2.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_fig6 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::sweeps::{
    ant_threshold_sweep, baseline_points, figure6_parameters, sweep_series, timer_period_sweep,
};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_fig6", FlagSet::Simulation);
    let parameters = figure6_parameters();

    let timer_points = timer_period_sweep(config, &parameters);
    print!(
        "{}",
        sweep_series(
            "Figure 6: DP-Timer vs sync interval span T",
            "T",
            &timer_points
        )
        .render()
    );
    println!();

    let ant_points = ant_threshold_sweep(config, &parameters);
    print!(
        "{}",
        sweep_series("Figure 6: DP-ANT vs threshold theta", "theta", &ant_points).render()
    );
    println!();

    println!("# parameter-independent baselines (mean Q2 L1 error, mean Q2 QET seconds)");
    for (strategy, point) in baseline_points(config) {
        println!(
            "# {}: {:.3}, {:.3}",
            strategy.label(),
            point.mean_l1_error,
            point.mean_qet
        );
    }
}
