//! # DP-Sync
//!
//! A Rust reproduction of *"DP-Sync: Hiding Update Patterns in Secure Outsourced
//! Databases with Differential Privacy"* (SIGMOD 2021).
//!
//! This facade crate re-exports the workspace member crates so downstream users
//! can depend on a single crate:
//!
//! * [`dp`] — differential-privacy primitives (Laplace sampler, sparse vector
//!   technique, composition, tail bounds).
//! * [`crypto`] — the cryptographic substrate (ChaCha20 stream cipher, PRF,
//!   record encryption with dummy indistinguishability).
//! * [`edb`] — encrypted-database substrate: relational model, query engine,
//!   SOGDB protocols, leakage classification, and the Crypt-ε-like and
//!   ObliDB-like engines used in the paper's evaluation.
//! * [`core`] — the DP-Sync framework itself: local cache, synchronization
//!   strategies (SUR / OTO / SET / DP-Timer / DP-ANT), owner runtime,
//!   simulation driver, metrics, and privacy verification.
//! * [`workloads`] — workload generation: the synthetic NYC-taxi-like growing
//!   database and the evaluation queries Q1/Q2/Q3.
//! * [`net`] — the networked service tier: the CRC-framed wire protocol, the
//!   `EdbTcpServer` listener (and the `dpsync-serve` binary built on it), and
//!   the `MuxConnection` client, whose `MuxSession`s run the whole stack over
//!   TCP unchanged.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `ARCHITECTURE.md`
//! for the full system inventory.

#![forbid(unsafe_code)]

pub use dpsync_core as core;
pub use dpsync_crypto as crypto;
pub use dpsync_dp as dp;
pub use dpsync_edb as edb;
pub use dpsync_net as net;
pub use dpsync_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use dpsync_core::{
        cache::LocalCache,
        metrics::SimulationReport,
        simulation::{Simulation, SimulationConfig},
        strategy::{
            AboveNoisyThresholdStrategy, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
            SyncDecision, SyncStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
        },
        timeline::Timestamp,
    };
    pub use dpsync_dp::{DpRng, Epsilon};
    pub use dpsync_edb::{
        engines::{crypte::CryptEpsilonEngine, oblidb::ObliDbEngine},
        leakage::LeakageClass,
        query::Query,
        schema::{Schema, Value},
        sogdb::SecureOutsourcedDatabase,
    };
    pub use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection, MuxSession};
    pub use dpsync_workloads::{
        queries,
        taxi::{TaxiConfig, TaxiDataset},
    };
}
