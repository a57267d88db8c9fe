//! Regenerates Figure 5: the privacy trade-off.  Sweeps the privacy budget ε
//! from 0.001 to 10 for both DP strategies (ObliDB engine, default query Q2)
//! and reports the mean L1 error (panel a) and the mean QET (panel b), with
//! the ε-independent SUR / SET / OTO baselines for reference.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_fig5 [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::sweeps::{
    baseline_points, figure5_epsilons, privacy_sweep, sweep_series,
};
use dpsync_bench::{ExperimentConfig, FlagSet};
use dpsync_core::strategy::StrategyKind;

fn main() {
    let config = ExperimentConfig::from_env("exp_fig5", FlagSet::Simulation);
    let epsilons = figure5_epsilons();

    for strategy in [StrategyKind::DpTimer, StrategyKind::DpAnt] {
        let points = privacy_sweep(strategy, config, &epsilons);
        print!(
            "{}",
            sweep_series(
                &format!(
                    "Figure 5: {} vs privacy parameter epsilon",
                    strategy.label()
                ),
                "epsilon",
                &points
            )
            .render()
        );
        println!();
    }

    println!("# epsilon-independent baselines (mean Q2 L1 error, mean Q2 QET seconds)");
    for (strategy, point) in baseline_points(config) {
        println!(
            "# {}: {:.3}, {:.3}",
            strategy.label(),
            point.mean_l1_error,
            point.mean_qet
        );
    }
}
