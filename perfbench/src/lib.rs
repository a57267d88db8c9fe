//! End-to-end DP-Sync benchmark: three workloads through the real stack,
//! end-to-end metrics from an untraced run, and a per-layer breakdown from a
//! traced run.  See `README.md` in this directory.

pub mod harness;
pub mod probes;
pub mod scratch;
pub mod trace;
pub mod verify;
pub mod workloads;
