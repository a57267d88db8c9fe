//! Ablation: DP-Timer and DP-ANT with and without the cache-flush mechanism.
//!
//! The flush (`f = 2000`, `s = 15` by default) is what guarantees the strong
//! "consistent eventually" property (P3): without it, records that the noisy
//! fetches happen to defer can linger in the local cache indefinitely.  This
//! binary quantifies that trade-off on the full workload.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_ablation_flush [--scale N] [--seed S] [--backend {memory,disk,disk-group}] [--transport {inproc,tcp}]`

use dpsync_bench::experiments::ablation::{ablation_table, flush_ablation};
use dpsync_bench::{ExperimentConfig, FlagSet};

fn main() {
    let config = ExperimentConfig::from_env("exp_ablation_flush", FlagSet::Simulation);
    println!(
        "Ablation — cache-flush mechanism (scale 1/{}, epsilon = {}, f = {}, s = {})\n",
        config.scale.max(1),
        config.params.epsilon,
        config.params.flush_interval,
        config.params.flush_size
    );
    let rows = flush_ablation(config);
    print!("{}", ablation_table(&rows).render());
    println!(
        "\nWith the flush disabled, records deferred by the Laplace noise can stay in the owner's \
         cache for the rest of the run (non-zero final logical gap); enabling it bounds the backlog \
         at the cost of the fixed eta = s*floor(t/f) dummy volume of Theorems 7 and 9."
    );
}
