//! The DP-Sync framework: differentially-private synchronization of a
//! growing, outsourced, encrypted database.
//!
//! This crate implements the paper's primary contribution — the owner-side
//! machinery that decides *when* to synchronize locally received records to
//! the untrusted server and *how many* (real + dummy) records each
//! synchronization carries, so that the server-visible update pattern is
//! differentially private (Definition 5):
//!
//! * [`timeline`] — discrete time.
//! * [`cache`] — the local FIFO cache σ with the
//!   paper's `len` / `write` / `read`-with-dummy-padding operations.
//! * [`perturb`] — the `Perturb` operator (Algorithm 2).
//! * [`strategy`] — the synchronization strategies: the naïve baselines
//!   (SUR, OTO, SET), DP-Timer (Algorithm 1), DP-ANT (Algorithm 3), the
//!   cache-flush mechanism, and the closed-form bounds of Table 2.
//! * [`owner`] — the owner runtime that executes a strategy against any
//!   engine implementing the SOGDB protocols.
//! * [`analyst`] — the analyst runtime that issues queries and measures
//!   errors against the logical database.
//! * [`metrics`] — logical gap, query error, QET and size accounting
//!   (§4.5), aggregated into a [`metrics::SimulationReport`].
//! * [`simulation`] — the driver's configuration: it replays a workload
//!   through owners + engine + analyst and produces the report the
//!   experiment harness turns into the paper's tables and figures.
//! * [`sparse`] — the driver itself, its pre-run state and its workload
//!   type ([`OwnerWorkload`]): an event-driven scheduler that wakes an owner
//!   only at its arrivals, strategy deadlines and join tick, built for
//!   10^5–10^6 mostly-idle owners (ARCHITECTURE.md §9).
//! * [`privacy`] — the Table-4 mechanism simulators (`M_timer`, `M_ANT`) and
//!   an empirical differential-privacy tester that backs Theorems 10/11 with
//!   executable evidence.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyst;
pub mod cache;
pub mod metrics;
pub mod owner;
pub mod perturb;
pub mod privacy;
pub mod simulation;
pub mod sparse;
pub mod strategy;
pub mod timeline;

pub use cache::LocalCache;
pub use metrics::{SimulationReport, SizeSample};
pub use owner::{Owner, TickReport};
pub use simulation::{Simulation, SimulationConfig};
pub use sparse::OwnerWorkload;
pub use strategy::{StrategyKind, SyncDecision, SyncStrategy};
pub use timeline::Timestamp;
