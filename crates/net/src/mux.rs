//! [`MuxConnection`]: the TCP client, hosting any number of logical
//! [`MuxSession`]s over one socket.
//!
//! The frame header carries a session id, and the reactor server keeps
//! per-session state, so one socket can host any number of independent
//! sessions.  Each [`MuxSession`] is a full [`SecureOutsourcedDatabase`]:
//! `Owner`, `Analyst` and the simulation drivers run over TCP unchanged.  A
//! lone owner or analyst opens one session on a connection of its own
//! (`MuxConnection::connect(addr)?.open_shared()`); the C10k experiment
//! models thousands of owners with a handful of sockets.
//!
//! Each session serializes its own exchanges (the wire protocol has one
//! outstanding request per session), while sessions on one socket proceed
//! concurrently.  No thread runs in the background: a caller waiting for a
//! response reads the socket itself whenever no other caller is reading it,
//! parking frames addressed to other open sessions in their inboxes and
//! waking their callers.  A caller that finds the socket busy waits until its
//! own frame has been parked or the socket is free.
//!
//! # Failures
//!
//! Errors the server reports round-trip as the original [`EdbError`].
//! *Transport* failures map onto [`EdbError::Storage`] / [`StorageError::Io`]
//! with the peer address as the path, so the error surface is identical
//! across transports.  Nothing can resynchronise a stream once an exchange
//! is cut short (a late reply would be read as the answer to the session's
//! next request), so any timeout, I/O failure, framing failure or protocol
//! violation, in either direction, is fatal for the connection: the socket
//! is shut down, the reason recorded, and every session on the connection
//! fails with it from then on.
//!
//! The trait's infallible observers (`table_stats`, `adversary_view`,
//! `supports`) have no error channel; on a dead transport they panic with the
//! transport failure.  A vanished server mid-simulation is not recoverable
//! for the harness, and silently zeroed stats would corrupt results.

use crate::frame::{encode_frame_mux_into, read_frame_mux, FrameError, MAX_FRAME_LEN};
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
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// Default client-side I/O timeout.  Generous: it exists to turn a hung
/// server into a diagnosable error, not to bound query latency.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// The timeout [`MuxConnection::connect`] uses: the
/// `DPSYNC_NET_TIMEOUT_SECS` environment variable when set (`0` disables the
/// timeout entirely), [`DEFAULT_CLIENT_TIMEOUT`] otherwise.
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

const TIMED_OUT: &str = "timed out waiting for the server";

fn transport_error(peer: &str, message: impl std::fmt::Display) -> EdbError {
    EdbError::Storage(StorageError::Io {
        path: format!("tcp://{peer}"),
        message: message.to_string(),
    })
}

/// Renders a socket failure; a timed-out read or write says so instead of
/// the OS's "Resource temporarily unavailable".
fn io_failure(e: &io::Error) -> String {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TIMED_OUT.to_string(),
        _ => format!("transport error: {e}"),
    }
}

fn frame_failure(e: FrameError) -> String {
    match e {
        FrameError::Io(e) => io_failure(&e),
        FrameError::Closed => "server closed the connection".to_string(),
        e => e.to_string(),
    }
}

/// Maps the server-announced engine name onto the `&'static str` the trait
/// requires.  Unknown names collapse onto `"remote"` rather than leaking a
/// string per connection.
fn intern_name(name: &str) -> &'static str {
    match name {
        "oblidb" => "oblidb",
        "crypt-epsilon" => "crypt-epsilon",
        _ => "remote",
    }
}

/// State shared between the connection handle and its sessions.  The
/// socket closes when the last of them drops it.
struct MuxShared {
    stream: TcpStream,
    /// Reusable frame-encoding buffer, held across the whole `write_all` so
    /// frames of concurrent sessions never interleave mid-frame.
    out: Mutex<Vec<u8>>,
    inbound: Mutex<Inbound>,
    /// Signalled when a frame is parked, the socket is free to read, or the
    /// connection dies.
    wake: Condvar,
    peer: String,
    next_session: AtomicU32,
    /// Per-frame wait bound (`None` waits forever).
    timeout: Option<Duration>,
}

#[derive(Default)]
struct Inbound {
    /// Open session → the frame another caller read for it, if any.  A
    /// session has at most one request outstanding, so at most one frame
    /// can be waiting for it.
    inboxes: HashMap<u32, Option<Vec<u8>>>,
    /// Whether some caller is reading the socket right now.
    reading: bool,
    /// Callers blocked on `wake`; a lone caller never pays for a notify.
    waiters: usize,
    /// Why the connection died, set once.
    dead: Option<String>,
}

impl MuxShared {
    fn wake_waiters(&self, inbound: &Inbound) {
        if inbound.waiters > 0 {
            self.wake.notify_all();
        }
    }

    /// Kills the connection: records the first failure's reason, shuts the
    /// socket down (so a caller blocked reading it returns) and wakes every
    /// waiter.  Returns the recorded reason as an error.
    fn fail(&self, inbound: &mut Inbound, reason: String) -> EdbError {
        let reason = inbound.dead.get_or_insert(reason).clone();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.wake_waiters(inbound);
        transport_error(&self.peer, reason)
    }

    /// [`Self::fail`] for a caller that does not hold the inbound lock.
    fn kill(&self, reason: impl std::fmt::Display) -> EdbError {
        self.fail(&mut self.inbound.lock(), reason.to_string())
    }

    fn send(&self, session: u32, payload: &[u8]) -> Result<(), EdbError> {
        let mut out = self.out.lock();
        if let Some(reason) = &self.inbound.lock().dead {
            return Err(transport_error(&self.peer, reason));
        }
        out.clear();
        encode_frame_mux_into(session, payload, &mut out);
        (&self.stream)
            .write_all(&out)
            .map_err(|e| self.kill(io_failure(&e)))
    }

    /// Waits for the next frame addressed to `session`, reading the socket
    /// itself whenever no other caller is.
    fn recv(&self, session: u32) -> Result<Vec<u8>, EdbError> {
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut inbound = self.inbound.lock();
        loop {
            if let Some(payload) = inbound.inboxes.get_mut(&session).and_then(Option::take) {
                return Ok(payload);
            }
            if let Some(reason) = &inbound.dead {
                return Err(transport_error(&self.peer, reason));
            }
            if !inbound.reading {
                inbound.reading = true;
                drop(inbound);
                let frame = read_frame_mux(&mut &self.stream);
                inbound = self.inbound.lock();
                inbound.reading = false;
                self.wake_waiters(&inbound);
                match frame {
                    Ok((to, payload)) if to == session => return Ok(payload),
                    Ok((to, payload)) => match inbound.inboxes.get_mut(&to) {
                        Some(slot @ None) => *slot = Some(payload),
                        Some(Some(_)) => {
                            let reason = format!("server sent session {to} an unrequested frame");
                            return Err(self.fail(&mut inbound, reason));
                        }
                        // The server's courtesy error on session 0 (the
                        // framing failure it reports follows), or a frame
                        // for no open session: nobody waits for it.
                        None => {}
                    },
                    Err(e) => return Err(self.fail(&mut inbound, frame_failure(e))),
                }
                continue;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Err(self.fail(&mut inbound, TIMED_OUT.to_string()));
            }
            inbound.waiters += 1;
            inbound = match left {
                Some(left) => {
                    self.wake
                        .wait_timeout(inbound, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => self
                    .wake
                    .wait(inbound)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            inbound.waiters -= 1;
        }
    }
}

/// One TCP connection hosting any number of logical sessions.
///
/// Dropping the connection handle does *not* tear the socket down — the
/// socket lives until the last [`MuxSession`] is gone too, so
/// `MuxConnection::connect(addr)?.open_shared()` is a complete one-session
/// client.
pub struct MuxConnection {
    shared: Arc<MuxShared>,
}

impl MuxConnection {
    /// Dials a server with the [`client_timeout`] I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Debug) -> Result<Self, EdbError> {
        Self::connect_with_timeout(addr, client_timeout())
    }

    /// As [`MuxConnection::connect`] with an explicit bound on every read,
    /// write and wait for a frame (`None` waits indefinitely).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs + std::fmt::Debug,
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
        Ok(Self {
            shared: Arc::new(MuxShared {
                stream,
                out: Mutex::new(Vec::new()),
                inbound: Mutex::new(Inbound::default()),
                wake: Condvar::new(),
                peer,
                next_session: AtomicU32::new(1),
                timeout,
            }),
        })
    }

    /// The peer address this connection is bound to.
    pub fn peer(&self) -> &str {
        &self.shared.peer
    }

    /// Opens a fresh logical session: allocates a session id, performs the
    /// hello handshake and returns the session as a full SOGDB.
    pub fn open(&self, hello: SessionRequest) -> Result<MuxSession, EdbError> {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.shared.inbound.lock().inboxes.insert(id, None);
        let mut session = MuxSession {
            shared: Arc::clone(&self.shared),
            id,
            exchange: Mutex::new(()),
            name: "remote",
            profile: LeakageProfile {
                class: dpsync_edb::LeakageClass::L2RevealAccessPattern,
                update_leaks_beyond_pattern: true,
                native_dummy_support: false,
            },
            cost: CostModel::oblidb(),
        };
        match session.call(Request::Hello(hello), None)? {
            Response::EngineInfo {
                name,
                profile,
                cost,
            } => {
                session.name = intern_name(&name);
                session.profile = profile;
                session.cost = cost;
                Ok(session)
            }
            // A session rejection (wrong mode, missing disk root, session
            // cap, ...) is an expected, actionable answer — surface the
            // server's message directly.
            Response::Protocol(message) => Err(transport_error(
                &self.shared.peer,
                format!("server rejected the session: {message}"),
            )),
            other => Err(session.refused(other)),
        }
    }

    /// Opens a session on a shared-mode server's engine.
    pub fn open_shared(&self) -> Result<MuxSession, EdbError> {
        self.open(SessionRequest::Shared)
    }

    /// Opens a session asking a factory-mode server (`dpsync-serve`) for a
    /// fresh engine.
    pub fn open_engine(
        &self,
        engine: EngineKind,
        master: &MasterKey,
        backend: BackendRequest,
    ) -> Result<MuxSession, EdbError> {
        self.open(SessionRequest::NewEngine {
            engine,
            master_key: *master.bytes(),
            backend,
        })
    }
}

/// One logical session on a [`MuxConnection`]: a full
/// [`SecureOutsourcedDatabase`] that shares its socket with every other
/// session on the connection.
pub struct MuxSession {
    shared: Arc<MuxShared>,
    id: u32,
    /// Held across a whole request/response exchange so concurrent callers
    /// serialize per session (the wire protocol has one outstanding request
    /// per session by construction).
    exchange: Mutex<()>,
    name: &'static str,
    profile: LeakageProfile,
    cost: CostModel,
}

impl Drop for MuxSession {
    fn drop(&mut self) {
        self.shared.inbound.lock().inboxes.remove(&self.id);
    }
}

impl MuxSession {
    /// The session id carried in this session's frames.
    pub fn session_id(&self) -> u32 {
        self.id
    }

    /// Sends one request and reads its response, answering any interleaved
    /// entropy requests from `rng` (only `Π_Query` produces them).
    fn call(
        &self,
        request: Request,
        mut rng: Option<&mut dyn RngCore>,
    ) -> Result<Response, EdbError> {
        let _exchange = self.exchange.lock();
        self.shared.send(self.id, &request.encode())?;
        loop {
            let payload = self.shared.recv(self.id)?;
            let response = Response::decode(&payload).map_err(|e| self.shared.kill(e))?;
            let Response::EntropyRequest(draw) = response else {
                return Ok(response);
            };
            let Some(rng) = rng.as_deref_mut() else {
                return Err(self.shared.kill("server requested entropy outside a query"));
            };
            let bytes = match draw {
                EntropyDraw::U32 => rng.next_u32().to_le_bytes().to_vec(),
                EntropyDraw::U64 => rng.next_u64().to_le_bytes().to_vec(),
                EntropyDraw::Fill(n) => {
                    // A legitimate fill is 8 bytes per released group: one
                    // request carries a whole group-by's noise.  Cap
                    // defensively so a compromised server cannot demand
                    // unbounded memory.
                    if n as usize > MAX_FRAME_LEN / 2 {
                        return Err(self.shared.kill("oversized entropy request"));
                    }
                    let mut buf = vec![0u8; n as usize];
                    rng.fill_bytes(&mut buf);
                    buf
                }
            };
            self.shared
                .send(self.id, &Request::EntropyReply(bytes).encode())?;
        }
    }

    /// The error for a response that is not the success its request expects.
    fn refused(&self, response: Response) -> EdbError {
        match response {
            Response::Edb(e) => e,
            Response::Protocol(message) => transport_error(&self.shared.peer, message),
            other => transport_error(&self.shared.peer, format!("unexpected response: {other:?}")),
        }
    }

    fn expect_ok(&self, request: Request) -> Result<(), EdbError> {
        match self.call(request, None)? {
            Response::Ok => Ok(()),
            other => Err(self.refused(other)),
        }
    }

    /// A read: the server may interleave entropy requests (Crypt-ε draws its
    /// noise through the caller's rng), so the rng rides along.
    fn read(&self, request: Request, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        match self.call(request, Some(rng))? {
            Response::Outcome(outcome) => Ok(outcome),
            other => Err(self.refused(other)),
        }
    }

    /// An infallible observer: `pick` extracts the answer, handing any other
    /// response back.  Panics on a transport failure or a wrong response.
    fn observe<T>(
        &self,
        what: &str,
        request: Request,
        pick: fn(Response) -> Result<T, Response>,
    ) -> T {
        match self.call(request, None).map(pick) {
            Ok(Ok(answer)) => answer,
            Ok(Err(other)) => panic!(
                "mux session {} at {}: unexpected response to {what}: {other:?}",
                self.id, self.shared.peer
            ),
            Err(e) => panic!(
                "mux session {} at {}: {what} failed: {e}",
                self.id, self.shared.peer
            ),
        }
    }
}

impl SecureOutsourcedDatabase for MuxSession {
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
        self.expect_ok(Request::Setup {
            table: table.to_string(),
            schema,
            records,
        })
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.expect_ok(Request::Update {
            table: table.to_string(),
            time,
            records,
        })
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(Request::Query(query.clone()), rng)
    }

    fn supports(&self, query: &Query) -> bool {
        self.observe("supports", Request::Supports(query.clone()), |r| match r {
            Response::Supported(supported) => Ok(supported),
            other => Err(other),
        })
    }

    fn table_stats(&self, table: &str) -> TableStats {
        self.observe(
            "table_stats",
            Request::TableStats(table.to_string()),
            |r| match r {
                Response::Stats(stats) => Ok(stats),
                other => Err(other),
            },
        )
    }

    fn adversary_view(&self) -> AdversaryView {
        self.observe("adversary_view", Request::AdversaryView, |r| match r {
            Response::View(view) => Ok(view),
            other => Err(other),
        })
    }

    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.expect_ok(Request::RegisterView {
            name: def.name().to_string(),
            query: def.query().clone(),
        })
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        self.read(Request::QueryView(name.to_string()), rng)
    }

    fn register_index(&self, def: &IndexDef) -> Result<(), EdbError> {
        self.expect_ok(Request::RegisterIndex {
            name: def.name().to_string(),
            table: def.table().to_string(),
            column: def.column().to_string(),
        })
    }

    fn query_indexed(
        &self,
        name: &str,
        query: &Query,
        rng: &mut dyn RngCore,
    ) -> Result<QueryOutcome, EdbError> {
        self.read(
            Request::QueryIndexed {
                name: name.to_string(),
                query: query.clone(),
            },
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{EdbTcpServer, EngineFactory, EngineProvider};
    use dpsync_crypto::RecordCryptor;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::schema::DataType;
    use dpsync_edb::{Row, Value};

    fn records(master: &MasterKey, n: usize) -> Vec<EncryptedRecord> {
        let mut cryptor = RecordCryptor::new(master);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int(i as i64)]))
            .collect();
        encrypt_batch(&mut cryptor, &rows, 0)
    }

    #[test]
    fn many_isolated_sessions_share_one_socket() {
        let server = EdbTcpServer::bind(
            "127.0.0.1:0",
            EngineProvider::Factory(EngineFactory::default()),
        )
        .unwrap();
        let conn = MuxConnection::connect(server.local_addr()).unwrap();

        // Eight independent engines behind one socket; every session owns a
        // table with the *same name*, which only works if sessions are
        // actually isolated.
        let masters: Vec<MasterKey> = (0..8u8).map(|i| MasterKey::from_bytes([i; 32])).collect();
        let sessions: Vec<MuxSession> = masters
            .iter()
            .map(|m| {
                conn.open_engine(EngineKind::ObliDb, m, BackendRequest::Memory)
                    .unwrap()
            })
            .collect();
        assert_eq!(sessions.len(), 8);
        for (i, s) in sessions.iter().enumerate() {
            assert_eq!(s.session_id(), i as u32 + 1);
            s.setup(
                "t",
                dpsync_edb::Schema::from_pairs(&[("a", DataType::Int)]),
                records(&masters[i], 2),
            )
            .unwrap();
        }

        // Concurrent updates from one thread per session interleave on the
        // shared socket without crosstalk.
        std::thread::scope(|scope| {
            for (i, s) in sessions.iter().enumerate() {
                let master = &masters[i];
                scope.spawn(move || {
                    for t in 1..=5u64 {
                        s.update("t", t, records(master, 1)).unwrap();
                    }
                });
            }
        });
        for s in &sessions {
            let view = s.adversary_view();
            // The initial batch at t=0 plus the five timed updates.
            assert_eq!(view.update_events().len(), 6);
            let stats = s.table_stats("t");
            assert_eq!(stats.ciphertext_count, 7);
        }
        assert_eq!(server.handler_panics(), 0);
    }

    /// The socket belongs to the handles: once the connection handle and
    /// its last session are dropped, the server sees the connection close
    /// (nothing else, such as a background thread, may keep it open).
    #[test]
    fn dropping_the_last_handle_tears_the_connection_down() {
        let server = EdbTcpServer::bind(
            "127.0.0.1:0",
            EngineProvider::Factory(EngineFactory::default()),
        )
        .unwrap();
        let conn = MuxConnection::connect(server.local_addr()).unwrap();
        let master = MasterKey::from_bytes([5u8; 32]);
        let session = conn
            .open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory)
            .unwrap();
        assert_eq!(server.stats().current_connections(), 1);

        drop(conn);
        drop(session);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.stats().current_connections() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "dropping every handle left the connection alive"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    /// One connection cannot accumulate unbounded session state: Hellos on
    /// fresh session ids past the cap are rejected without allocating,
    /// existing sessions keep working, and other connections are unaffected.
    #[test]
    fn sessions_per_connection_are_capped() {
        use crate::reactor::MAX_SESSIONS_PER_CONN;
        use dpsync_edb::engines::ObliDbEngine;
        use dpsync_edb::Query;

        let master = MasterKey::from_bytes([6u8; 32]);
        let engine: Arc<ObliDbEngine> = Arc::new(ObliDbEngine::new(&master));
        let server = EdbTcpServer::bind(
            "127.0.0.1:0",
            EngineProvider::Shared(engine as Arc<dyn SecureOutsourcedDatabase>),
        )
        .unwrap();
        let conn = MuxConnection::connect(server.local_addr()).unwrap();

        let sessions: Vec<MuxSession> = (0..MAX_SESSIONS_PER_CONN)
            .map(|_| conn.open_shared().unwrap())
            .collect();
        let err = match conn.open_shared() {
            Ok(_) => panic!("opened a session past the cap"),
            Err(e) => e,
        };
        assert!(
            format!("{err}").contains("session limit"),
            "expected a session-limit rejection, got: {err}"
        );

        // The rejection is per-Hello, not a connection fault: every
        // existing session still serves requests...
        let probe = Query::Count {
            table: "t".to_string(),
            predicate: None,
        };
        assert!(sessions.first().unwrap().supports(&probe));
        assert!(sessions.last().unwrap().supports(&probe));
        // ...and the cap is per-connection, not global.
        let other = MuxConnection::connect(server.local_addr()).unwrap();
        assert!(other.open_shared().unwrap().supports(&probe));
        assert_eq!(server.handler_panics(), 0);
    }

    #[test]
    fn a_dead_server_fails_every_session_with_the_reason() {
        let mut server = EdbTcpServer::bind(
            "127.0.0.1:0",
            EngineProvider::Factory(EngineFactory::default()),
        )
        .unwrap();
        let conn = MuxConnection::connect(server.local_addr()).unwrap();
        let master = MasterKey::from_bytes([9u8; 32]);
        let session = conn
            .open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory)
            .unwrap();
        server.shutdown();
        let err = session
            .setup(
                "t",
                dpsync_edb::Schema::from_pairs(&[("a", DataType::Int)]),
                Vec::new(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EdbError::Storage(dpsync_edb::StorageError::Io { .. })
        ));
    }
}
