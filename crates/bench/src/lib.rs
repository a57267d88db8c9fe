//! Experiment harness reproducing every table and figure of the DP-Sync paper.
//!
//! The crate has two halves:
//!
//! * a library ([`experiments`], [`report`], [`perf`]) that runs the
//!   simulations behind each experiment, renders their results as aligned
//!   text tables / CSV series, and times the microbenchmark suite, and
//! * the `exp_*` binaries: one per table/figure, plus the `exp_scale`,
//!   `exp_c10k`, `exp_views` and `exp_index` harnesses and the `exp_bench`
//!   suite driver.
//!
//! Every binary parses its command line through [`cli`]: an unknown flag, a
//! flag without its value or a value that does not parse exits 2.  The
//! README lists which binary takes which flags.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod perf;
pub mod pool;
pub mod report;

pub use experiments::config::{
    BackendKind, EngineKind, ExperimentConfig, FlagSet, StrategyParams, TransportKind,
};
pub use experiments::runner::{run_simulation, run_specs, RunSpec};
pub use pool::parallel_map;
