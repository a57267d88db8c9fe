//! Networked service tier for DP-Sync: the outsourced server over TCP.
//!
//! DP-Sync's model is an *outsourced* database — the owner and the analyst
//! talk to an untrusted server across a trust boundary — and this crate is
//! that boundary made physical.  Three pieces:
//!
//! * [`wire`] — a canonical binary codec for the Π_Setup / Π_Update /
//!   Π_Query messages plus an error frame that round-trips [`dpsync_edb::EdbError`]
//!   (including the `Storage` variant's source chain as text), carried in
//!   [`frame`]'s length-prefixed, CRC-checked frames.
//! * [`server`] — [`EdbTcpServer`], an epoll readiness reactor (built on
//!   the vendored `mio` crate) that wraps any engine (one shared instance,
//!   or a per-session factory as run by the `dpsync-serve` binary) behind
//!   session-multiplexed frames, with bounded per-connection queues,
//!   progress deadlines and graceful shutdown.
//! * [`mux`] — the client: a [`MuxConnection`] hosts any number of
//!   [`MuxSession`]s, each a [`dpsync_edb::SecureOutsourcedDatabase`]
//!   implementation that speaks the protocol over the shared socket, so
//!   every layer above (owner runtime, analyst, simulation drivers,
//!   experiment harness) runs remotely unchanged.  The caller that waits for
//!   a response reads the socket itself; no client thread runs in the
//!   background.
//!
//! # What the transport does and does not leak
//!
//! The wire protocol carries exactly the protocol messages of Definition 1,
//! so a network adversary observing the ciphertext stream learns nothing
//! beyond the Definition-2 transcript the server itself observes: update
//! times, update volumes (frame sizes are an affine function of the batch
//! volume — which the update pattern already reveals), query kinds and
//! engine-dependent response volumes.  The remote/in-process equivalence
//! suite in `dpsync-core` pins this down by comparing full adversary views
//! across transports byte for byte.  (Like the in-process engines, the
//! session handshake hands the server the record key — the engine simulators
//! stand in for trusted hardware; see `ARCHITECTURE.md` §7.)

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod frame;
pub mod mux;
mod reactor;
pub mod server;
pub mod wire;

pub use mux::{MuxConnection, MuxSession};
pub use reactor::{MAX_PENDING_REQUESTS, MAX_SESSIONS_PER_CONN, OUTBOUND_PAUSE_BYTES};
pub use server::{
    sweep_stale_session_dirs, EdbTcpServer, EngineFactory, EngineProvider, ServeOptions,
    ServerStats, DEFAULT_SERVE_ADDR,
};
pub use wire::{BackendRequest, Request, Response, SessionRequest, WireError};
