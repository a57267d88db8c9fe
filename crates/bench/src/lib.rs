//! Experiment harness reproducing every table and figure of the DP-Sync paper.
//!
//! The crate has two halves:
//!
//! * a library ([`experiments`], [`report`]) that configures and runs the
//!   simulations behind each experiment and renders their results as aligned
//!   text tables / CSV series, and
//! * one binary per table/figure (`exp_table2`, `exp_table3`,
//!   `exp_table4_privacy`, `exp_table5`, `exp_fig2` … `exp_fig6`) plus the
//!   Criterion micro-benchmarks under `benches/`.
//!
//! Every binary accepts `--scale N` (default 1 = the paper's full 43 200
//! minute horizon; larger N shrinks both the horizon and the record counts by
//! that factor) and `--seed S` so results are reproducible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod pool;
pub mod report;

pub use experiments::config::{
    BackendKind, EngineKind, ExperimentConfig, StrategyParams, TransportKind,
};
pub use experiments::runner::{run_simulation, run_specs, RunSpec};
pub use pool::parallel_map;
