//! [`RemoteEdb`]: a [`SecureOutsourcedDatabase`] that lives across a socket.
//!
//! The client implements the full SOGDB trait, so `Owner`, `Analyst` and the
//! simulation drivers run over TCP *unchanged* — a `&RemoteEdb` drops in
//! wherever a `&dyn SecureOutsourcedDatabase` is expected.  One connection is
//! one session: on a shared-mode server every client sees the same engine; on
//! a factory-mode server (`dpsync-serve`) each connection gets its own.
//!
//! # Error mapping
//!
//! Protocol failures reported by the server round-trip as the original
//! [`EdbError`].  *Transport* failures (connection reset, deadline, framing)
//! have no variant of their own — deliberately, so the error surface is
//! identical across transports — and are mapped onto
//! [`EdbError::Storage`] / [`StorageError::Io`] with the peer address as the
//! path, preserving the full failure text in the source chain.
//!
//! The trait's infallible observers (`table_stats`, `adversary_view`,
//! `supports`) have no error channel at all; on a dead transport they panic
//! with the transport failure.  A vanished server mid-simulation is not a
//! recoverable condition for the harness, and silently returning zeroed
//! stats would corrupt experiment results invisibly.

use crate::frame::{read_frame, FrameError, FrameWriter};
use crate::wire::{BackendRequest, EntropyDraw, Request, Response, SessionRequest};
use dpsync_crypto::{EncryptedRecord, MasterKey};
use dpsync_edb::cost::CostModel;
use dpsync_edb::emm::IndexDef;
use dpsync_edb::engines::EngineKind;
use dpsync_edb::leakage::LeakageProfile;
use dpsync_edb::sogdb::{QueryOutcome, SecureOutsourcedDatabase, TableStats};
use dpsync_edb::views::ViewDef;
use dpsync_edb::{AdversaryView, EdbError, Query, Schema, StorageError};
use parking_lot::Mutex;
use rand::RngCore;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default client-side I/O timeout.  Generous: it exists to turn a hung
/// server into a diagnosable error, not to bound query latency.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The timeout [`RemoteEdb::connect`] / [`RemoteEdb::connect_engine`] use:
/// the `DPSYNC_NET_TIMEOUT_SECS` environment variable when set (`0` disables
/// the timeout entirely), [`DEFAULT_CLIENT_TIMEOUT`] otherwise.
///
/// The environment hook exists for very large remote runs: a full-scale
/// `Π_Query` can legitimately keep the server silent for minutes of
/// server-side compute, and the experiment harness constructs its clients
/// through the default-connect path.
pub fn client_timeout() -> Option<Duration> {
    match std::env::var("DPSYNC_NET_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(0) => None,
        Some(secs) => Some(Duration::from_secs(secs)),
        None => Some(DEFAULT_CLIENT_TIMEOUT),
    }
}

/// A remote secure outsourced database reached over TCP.
#[derive(Debug)]
pub struct RemoteEdb {
    /// The connection plus its reusable outbound frame buffer; they travel
    /// under one lock because a request and its entropy replies must not
    /// interleave with another caller's frames.
    conn: Mutex<Connection>,
    peer: String,
    name: &'static str,
    profile: LeakageProfile,
    cost: CostModel,
}

#[derive(Debug)]
struct Connection {
    stream: TcpStream,
    writer: FrameWriter,
}

pub(crate) fn transport_error(peer: &str, message: impl std::fmt::Display) -> EdbError {
    EdbError::Storage(StorageError::Io {
        path: format!("tcp://{peer}"),
        message: message.to_string(),
    })
}

/// Maps the server-announced engine name onto the `&'static str` the trait
/// requires.  Unknown names collapse onto `"remote"` rather than leaking a
/// string per connection.
pub(crate) fn intern_name(name: &str) -> &'static str {
    match name {
        "oblidb" => "oblidb",
        "crypt-epsilon" => "crypt-epsilon",
        _ => "remote",
    }
}

impl RemoteEdb {
    /// Connects to a shared-mode server and attaches to its engine, with
    /// the [`client_timeout`] I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, EdbError> {
        Self::open(addr, SessionRequest::Shared, client_timeout())
    }

    /// Connects to a factory-mode server (`dpsync-serve`) and asks it to
    /// build a fresh engine for this connection.
    pub fn connect_engine(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        engine: EngineKind,
        master: &MasterKey,
        backend: BackendRequest,
    ) -> Result<Self, EdbError> {
        Self::open(
            addr,
            SessionRequest::NewEngine {
                engine,
                master_key: *master.bytes(),
                backend,
            },
            client_timeout(),
        )
    }

    /// As [`RemoteEdb::connect`] / [`RemoteEdb::connect_engine`] with an
    /// explicit I/O timeout (`None` waits indefinitely).
    pub fn open(
        addr: impl ToSocketAddrs + std::fmt::Debug,
        session: SessionRequest,
        timeout: Option<Duration>,
    ) -> Result<Self, EdbError> {
        // `&str` debug-renders with quotes; strip them so the label reads as
        // an address in error messages.
        let peer_label = format!("{addr:?}").trim_matches('"').to_string();
        let stream = TcpStream::connect(&addr).map_err(|e| transport_error(&peer_label, e))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or(peer_label);
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(timeout))
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| transport_error(&peer, e))?;

        let mut client = Self {
            conn: Mutex::new(Connection {
                stream,
                writer: FrameWriter::new(),
            }),
            peer,
            name: "remote",
            profile: LeakageProfile {
                class: dpsync_edb::LeakageClass::L2RevealAccessPattern,
                update_leaks_beyond_pattern: true,
                native_dummy_support: false,
            },
            cost: CostModel::oblidb(),
        };
        match client.call(Request::Hello(session), None)? {
            Response::EngineInfo {
                name,
                profile,
                cost,
            } => {
                client.name = intern_name(&name);
                client.profile = profile;
                client.cost = cost;
                Ok(client)
            }
            // A session rejection (wrong mode, missing disk root, ...) is an
            // expected, actionable answer — surface the server's message
            // directly instead of burying it in a Debug rendering.
            Response::Protocol(message) => Err(transport_error(
                &client.peer,
                format!("server rejected the session: {message}"),
            )),
            other => Err(client.unexpected(other)),
        }
    }

    /// The peer address this client is bound to.
    pub fn peer(&self) -> &str {
        &self.peer
    }

    fn unexpected(&self, response: Response) -> EdbError {
        transport_error(&self.peer, format!("unexpected response: {response:?}"))
    }

    fn io_failed(&self, error: impl std::fmt::Display) -> EdbError {
        transport_error(&self.peer, error)
    }

    /// Sends one request and reads its response, answering any interleaved
    /// entropy requests from `rng` (only `Π_Query` produces them).
    ///
    /// The connection lock is held across the whole exchange, so concurrent
    /// callers of the trait serialize per request — the wire protocol has
    /// one outstanding request per connection by construction.
    fn call(
        &self,
        request: Request,
        mut rng: Option<&mut dyn RngCore>,
    ) -> Result<Response, EdbError> {
        let mut conn = self.conn.lock();
        let conn = &mut *conn;
        conn.writer
            .write_frame(&mut conn.stream, &request.encode())
            .map_err(|e| self.io_failed(e))?;
        loop {
            let payload = match read_frame(&mut conn.stream) {
                Ok(payload) => payload,
                Err(FrameError::Closed) => {
                    return Err(self.io_failed("server closed the connection"))
                }
                Err(e) => return Err(self.io_failed(e)),
            };
            let response = Response::decode(&payload).map_err(|e| self.io_failed(e))?;
            let Response::EntropyRequest(draw) = response else {
                return Ok(response);
            };
            let Some(rng) = rng.as_deref_mut() else {
                return Err(self.io_failed("server requested entropy outside a query"));
            };
            let bytes = match draw {
                EntropyDraw::U32 => rng.next_u32().to_le_bytes().to_vec(),
                EntropyDraw::U64 => rng.next_u64().to_le_bytes().to_vec(),
                EntropyDraw::Fill(n) => {
                    // A legitimate fill is 8 bytes per released group: one
                    // request carries a whole group-by's noise.  Cap
                    // defensively so a compromised server cannot demand
                    // unbounded memory.
                    if n as usize > crate::frame::MAX_FRAME_LEN / 2 {
                        return Err(self.io_failed("oversized entropy request"));
                    }
                    let mut buf = vec![0u8; n as usize];
                    rng.fill_bytes(&mut buf);
                    buf
                }
            };
            conn.writer
                .write_frame(&mut conn.stream, &Request::EntropyReply(bytes).encode())
                .map_err(|e| self.io_failed(e))?;
        }
    }

    fn expect_ok(&self, response: Response) -> Result<(), EdbError> {
        match response {
            Response::Ok => Ok(()),
            Response::Edb(e) => Err(e),
            Response::Protocol(message) => Err(self.io_failed(message)),
            other => Err(self.unexpected(other)),
        }
    }
}

impl SecureOutsourcedDatabase for RemoteEdb {
    fn name(&self) -> &'static str {
        self.name
    }

    fn leakage_profile(&self) -> LeakageProfile {
        self.profile.clone()
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let response = self.call(
            Request::Setup {
                table: table.to_string(),
                schema,
                records,
            },
            None,
        )?;
        self.expect_ok(response)
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        let response = self.call(
            Request::Update {
                table: table.to_string(),
                time,
                records,
            },
            None,
        )?;
        self.expect_ok(response)
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        match self.call(Request::Query(query.clone()), Some(rng))? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Edb(e) => Err(e),
            Response::Protocol(message) => Err(self.io_failed(message)),
            other => Err(self.unexpected(other)),
        }
    }

    fn supports(&self, query: &Query) -> bool {
        match self.call(Request::Supports(query.clone()), None) {
            Ok(Response::Supported(supported)) => supported,
            Ok(other) => panic!(
                "remote edb at {}: unexpected response to supports: {other:?}",
                self.peer
            ),
            Err(e) => panic!("remote edb at {}: supports failed: {e}", self.peer),
        }
    }

    fn table_stats(&self, table: &str) -> TableStats {
        match self.call(Request::TableStats(table.to_string()), None) {
            Ok(Response::Stats(stats)) => stats,
            Ok(other) => panic!(
                "remote edb at {}: unexpected response to table_stats: {other:?}",
                self.peer
            ),
            Err(e) => panic!("remote edb at {}: table_stats failed: {e}", self.peer),
        }
    }

    fn adversary_view(&self) -> AdversaryView {
        match self.call(Request::AdversaryView, None) {
            Ok(Response::View(view)) => view,
            Ok(other) => panic!(
                "remote edb at {}: unexpected response to adversary_view: {other:?}",
                self.peer
            ),
            Err(e) => panic!("remote edb at {}: adversary_view failed: {e}", self.peer),
        }
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        let response = self.call(
            Request::RegisterView {
                name: def.name().to_string(),
                query: def.query().clone(),
            },
            None,
        )?;
        self.expect_ok(response)
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        // Like `query`: the server may interleave entropy requests (Crypt-ε
        // draws its per-read noise through the caller's rng), so the rng
        // rides along.
        match self.call(Request::QueryView(name.to_string()), Some(rng))? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Edb(e) => Err(e),
            Response::Protocol(message) => Err(self.io_failed(message)),
            other => Err(self.unexpected(other)),
        }
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        let response = self.call(
            Request::RegisterIndex {
                name: def.name().to_string(),
                table: def.table().to_string(),
                column: def.column().to_string(),
            },
            None,
        )?;
        self.expect_ok(response)
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        // Like `query_view`: the rng rides along for Crypt-ε's noise draws.
        match self.call(
            Request::QueryIndexed {
                name: name.to_string(),
                query: query.clone(),
            },
            Some(rng),
        )? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Edb(e) => Err(e),
            Response::Protocol(message) => Err(self.io_failed(message)),
            other => Err(self.unexpected(other)),
        }
    }
}
