//! The epoll readiness reactor behind [`crate::EdbTcpServer`].
//!
//! One reactor thread owns every socket: it accepts connections, runs a
//! per-connection read state machine over the framed wire protocol, demuxes
//! frames by session id, and queues decoded requests onto a small worker
//! pool.  Workers execute engine calls (including blocking disk commits and
//! the entropy sub-protocol) and hand encoded responses back through a
//! completion queue; a [`mio::Waker`] gets the reactor out of `epoll_wait`
//! when completions land.
//!
//! # Scheduling rules
//!
//! * **Per-session serial, cross-session concurrent.**  Each logical session
//!   has a FIFO queue and at most one request in flight, so a session sees
//!   exactly the request/response interleaving of a dedicated blocking
//!   connection.  Different sessions — whether on one socket or many — run
//!   concurrently on the worker pool.
//! * **Backpressure.**  A connection may have at most
//!   [`MAX_PENDING_REQUESTS`] requests queued+running and roughly
//!   [`OUTBOUND_PAUSE_BYTES`] of un-drained response bytes; beyond either
//!   bound the reactor stops *reading* that socket (drops its `READABLE`
//!   interest) until the client catches up.  TCP flow control then pushes
//!   the stall back to the client, so one unread connection can neither
//!   starve others nor grow server memory without bound.  Reading resumes
//!   once both backlogs halve — re-checked on every completion *and* every
//!   outbound flush, so a bursty client that later drains its responses
//!   always gets its socket back — or immediately if a session is owed an
//!   entropy reply (the reply must be readable for the in-flight query to
//!   finish).  Session state is bounded too: a connection may hold at most
//!   [`MAX_SESSIONS_PER_CONN`] logical sessions; Hellos on fresh ids past
//!   that are rejected without allocating.
//! * **Deadlines.**  A connection idling *between* frames with nothing
//!   outstanding may sit forever.  One that stalls mid-frame, stops
//!   draining queued responses, or owes an entropy reply is closed once it
//!   makes no byte progress for [`crate::ServeOptions::io_deadline`].
//! * **Entropy.**  `Π_Query` draws randomness from the client.  The worker
//!   running the query parks on a per-session [`EntropyBridge`]; the reactor
//!   ships the `EntropyRequest` frame out and routes the client's
//!   `EntropyReply` back to the bridge.  While a session owes a reply, any
//!   other frame on *that session* is a protocol violation and drops the
//!   connection without releasing the query result — exactly the threaded
//!   server's behaviour — while other sessions on the socket are unaffected
//!   until the drop itself.

use crate::frame::{
    check_frame, encode_frame_mux_into, frame_session, payload_len, FrameError, FRAME_HEADER_LEN,
    SESSION_DEFAULT,
};
use crate::server::{
    engine_info, open_session, EngineProvider, ServeOptions, ServerStats, Session,
};
use crate::wire::{EntropyDraw, Request, Response, SessionRequest};
use dpsync_edb::emm::IndexDef;
use dpsync_edb::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase};
use dpsync_edb::views::ViewDef;
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use rand::RngCore;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// First token handed to a connection; tokens are never reused, so a stale
/// completion or event can never touch a different connection.
const CONN_BASE: usize = 2;

/// Requests a single connection may have queued or running across all of its
/// sessions before the reactor stops reading it.
pub const MAX_PENDING_REQUESTS: usize = 128;

/// Logical sessions one connection may accumulate.  A Hello on a fresh
/// session id past this bound is rejected without allocating any state
/// (sessions live as long as their connection, and in factory mode each
/// one owns a whole engine — without a cap a hostile client could grow
/// server memory without bound by iterating cheap Hellos).
pub const MAX_SESSIONS_PER_CONN: usize = 4096;

/// Un-drained outbound bytes a connection may accumulate before the reactor
/// stops reading it (responses already produced still flush as the client
/// drains).  Requests already admitted (at most [`MAX_PENDING_REQUESTS`])
/// still complete after the pause, so a connection's outbound backlog is
/// bounded by this plus one response per admitted request — the invariant
/// the backpressure suite pins with
/// [`crate::ServerStats::peak_outbound_bytes`].
pub const OUTBOUND_PAUSE_BYTES: usize = 1 << 20;

/// Bytes one readable event may consume before yielding to other
/// connections (level-triggered epoll re-fires for the remainder).
const READ_BUDGET: usize = 256 << 10;

// ---------------------------------------------------------------------------
// Worker-side plumbing
// ---------------------------------------------------------------------------

enum BridgeState {
    Idle,
    Awaiting,
    Reply(Vec<u8>),
    Failed,
}

/// Hand-off point for the entropy sub-protocol: the worker running a query
/// parks here between sending an `EntropyRequest` and receiving the reply
/// the reactor routes back.  Failure is permanent (connection closed or
/// server shutting down) and unblocks the worker immediately.
struct EntropyBridge {
    state: Mutex<BridgeState>,
    cv: Condvar,
}

impl EntropyBridge {
    fn new() -> Self {
        Self {
            state: Mutex::new(BridgeState::Idle),
            cv: Condvar::new(),
        }
    }

    /// Worker: arm the bridge *before* the request frame is queued, so a
    /// fast reply can never race past an un-armed bridge.  `false` if the
    /// bridge already failed.
    fn begin(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        match *state {
            BridgeState::Failed => false,
            _ => {
                *state = BridgeState::Awaiting;
                true
            }
        }
    }

    /// Worker: park until the reactor delivers a reply or fails the bridge.
    fn wait(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().unwrap();
        loop {
            match &*state {
                BridgeState::Awaiting => {
                    state = self.cv.wait(state).unwrap();
                }
                BridgeState::Reply(_) => {
                    let BridgeState::Reply(bytes) =
                        std::mem::replace(&mut *state, BridgeState::Idle)
                    else {
                        unreachable!()
                    };
                    return Some(bytes);
                }
                BridgeState::Failed => return None,
                BridgeState::Idle => return None,
            }
        }
    }

    /// Reactor: deliver the client's reply (only meaningful while awaiting).
    fn deliver(&self, bytes: Vec<u8>) {
        let mut state = self.state.lock().unwrap();
        if matches!(*state, BridgeState::Awaiting) {
            *state = BridgeState::Reply(bytes);
            self.cv.notify_all();
        }
    }

    /// Reactor: permanently fail the bridge (connection closed / shutdown).
    fn fail(&self) {
        *self.state.lock().unwrap() = BridgeState::Failed;
        self.cv.notify_all();
    }
}

/// One unit of work for the pool.
enum WorkItem {
    /// Run `open_session` (which may build a disk-backed engine) for a
    /// hello.
    Open {
        conn: usize,
        session: u32,
        hello: SessionRequest,
    },
    /// Run one engine call for an open session.
    Call {
        conn: usize,
        session: u32,
        engine: Arc<Session>,
        bridge: Arc<EntropyBridge>,
        request: Request,
    },
}

struct WorkQueue {
    inner: Mutex<(VecDeque<WorkItem>, bool)>,
    cv: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        Self {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, item: WorkItem) {
        let mut inner = self.inner.lock().unwrap();
        if inner.1 {
            return; // shutting down: drop it, the bridges are failed anyway
        }
        inner.0.push_back(item);
        self.cv.notify_one();
    }

    /// `None` means shutdown.  Remaining queued items are dropped, not
    /// drained, so shutdown never waits behind a backlog of disk commits.
    fn pop(&self) -> Option<WorkItem> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.1 {
                return None;
            }
            if let Some(item) = inner.0.pop_front() {
                return Some(item);
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    fn shutdown(&self) {
        self.inner.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A completed unit of work, flowing worker → reactor.
enum Completion {
    /// An `EntropyRequest` frame to ship; the session stays in flight.
    Frame {
        conn: usize,
        session: u32,
        bytes: Vec<u8>,
    },
    /// The in-flight request finished.
    Done {
        conn: usize,
        session: u32,
        /// Encoded response payload; `None` means close without replying
        /// (failed entropy exchange or a caught panic).
        reply: Option<Vec<u8>>,
        /// A session opened by a hello, to install as the session's engine.
        engine: Option<Arc<Session>>,
        /// Drop the whole connection (panic, or a query whose entropy
        /// stream died — its result must not be released).
        close_conn: bool,
    },
}

struct CompletionSink {
    queue: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
}

impl CompletionSink {
    fn send(&self, completion: Completion) {
        self.queue.lock().unwrap().push(completion);
        let _ = self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.queue.lock().unwrap())
    }
}

/// The worker side of the entropy sub-protocol: a [`RngCore`] whose draws
/// round-trip to the client through the reactor.  Draws map 1:1 onto the
/// client RNG's methods, which is what keeps a fixed-seed client RNG stream
/// byte-identical between transports.  `RngCore` has no error channel, so a
/// dead bridge parks the proxy in a failed state (zeros let the engine
/// unwind normally) and the worker closes the connection without sending a
/// result.
struct EntropyProxy<'a> {
    bridge: &'a EntropyBridge,
    sink: &'a CompletionSink,
    conn: usize,
    session: u32,
    failed: bool,
}

impl EntropyProxy<'_> {
    fn exchange(&mut self, draw: EntropyDraw, expected_len: usize) -> Option<Vec<u8>> {
        if self.failed {
            return None;
        }
        if !self.bridge.begin() {
            self.failed = true;
            return None;
        }
        self.sink.send(Completion::Frame {
            conn: self.conn,
            session: self.session,
            bytes: Response::EntropyRequest(draw).encode(),
        });
        match self.bridge.wait() {
            Some(bytes) if bytes.len() == expected_len => Some(bytes),
            _ => {
                self.failed = true;
                None
            }
        }
    }
}

impl RngCore for EntropyProxy<'_> {
    fn next_u32(&mut self) -> u32 {
        self.exchange(EntropyDraw::U32, 4)
            .map_or(0, |b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn next_u64(&mut self) -> u64 {
        self.exchange(EntropyDraw::U64, 8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        match self.exchange(EntropyDraw::Fill(dest.len() as u32), dest.len()) {
            Some(bytes) => dest.copy_from_slice(&bytes),
            None => dest.fill(0),
        }
    }
}

/// Runs one engine call.  `None` means the connection must be dropped
/// without a response (the entropy stream died mid-query).
fn run_request(
    engine: &dyn SecureOutsourcedDatabase,
    request: Request,
    bridge: &EntropyBridge,
    sink: &CompletionSink,
    conn: usize,
    session: u32,
) -> Option<Response> {
    let proxy = EntropyProxy {
        bridge,
        sink,
        conn,
        session,
        failed: false,
    };
    Some(match request {
        // Hellos become `WorkItem::Open` and unsolicited entropy replies
        // are rejected at dispatch; both arms are defensive.
        Request::Hello(_) => Response::Protocol("hello already in progress".to_string()),
        Request::EntropyReply(_) => Response::Protocol("entropy reply outside a query".to_string()),
        Request::Setup {
            table,
            schema,
            records,
        } => acknowledged(engine.setup(&table, schema, records)),
        Request::Update {
            table,
            time,
            records,
        } => acknowledged(engine.update(&table, time, records)),
        Request::Query(query) => return released(proxy, |rng| engine.query(&query, rng)),
        Request::Supports(query) => Response::Supported(engine.supports(&query)),
        Request::TableStats(table) => Response::Stats(engine.table_stats(&table)),
        Request::AdversaryView => Response::View(engine.adversary_view()),
        Request::RegisterView { name, query } => {
            acknowledged(ViewDef::new(name, query).and_then(|def| engine.register_view(&def)))
        }
        Request::QueryView(name) => return released(proxy, |rng| engine.query_view(&name, rng)),
        Request::RegisterIndex {
            name,
            table,
            column,
        } => acknowledged(
            IndexDef::new(name, table, column).and_then(|def| engine.register_index(&def)),
        ),
        Request::QueryIndexed { name, query } => {
            return released(proxy, |rng| engine.query_indexed(&name, &query, rng))
        }
    })
}

/// The response to a call that returns nothing on success.
fn acknowledged(result: Result<(), EdbError>) -> Response {
    match result {
        Ok(()) => Response::Ok,
        Err(e) => Response::Edb(e),
    }
}

/// Runs one read with its noise drawn through `proxy`.  `None` when the
/// client vanished mid-query: the result was computed from a dead RNG
/// stream and must not be released.
fn released(
    mut proxy: EntropyProxy<'_>,
    read: impl FnOnce(&mut dyn RngCore) -> Result<QueryOutcome, EdbError>,
) -> Option<Response> {
    let result = read(&mut proxy);
    if proxy.failed {
        return None;
    }
    Some(match result {
        Ok(outcome) => Response::Outcome(outcome),
        Err(e) => Response::Edb(e),
    })
}

fn worker_loop(
    work: Arc<WorkQueue>,
    sink: Arc<CompletionSink>,
    provider: Arc<EngineProvider>,
    panics: Arc<AtomicUsize>,
) {
    while let Some(item) = work.pop() {
        let completion = match item {
            WorkItem::Open {
                conn,
                session,
                hello,
            } => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    open_session(&provider, hello)
                }));
                match result {
                    Ok(Ok(opened)) => {
                        let opened = Arc::new(opened);
                        let reply = engine_info(opened.engine()).encode();
                        Completion::Done {
                            conn,
                            session,
                            reply: Some(reply),
                            engine: Some(opened),
                            close_conn: false,
                        }
                    }
                    Ok(Err(message)) => Completion::Done {
                        conn,
                        session,
                        reply: Some(Response::Protocol(message).encode()),
                        engine: None,
                        close_conn: false,
                    },
                    Err(_) => {
                        panics.fetch_add(1, Ordering::SeqCst);
                        Completion::Done {
                            conn,
                            session,
                            reply: None,
                            engine: None,
                            close_conn: true,
                        }
                    }
                }
            }
            WorkItem::Call {
                conn,
                session,
                engine,
                bridge,
                request,
            } => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_request(engine.engine(), request, &bridge, &sink, conn, session)
                }));
                match result {
                    Ok(Some(response)) => Completion::Done {
                        conn,
                        session,
                        reply: Some(response.encode()),
                        engine: None,
                        close_conn: false,
                    },
                    Ok(None) => Completion::Done {
                        conn,
                        session,
                        reply: None,
                        engine: None,
                        close_conn: true,
                    },
                    Err(_) => {
                        panics.fetch_add(1, Ordering::SeqCst);
                        Completion::Done {
                            conn,
                            session,
                            reply: None,
                            engine: None,
                            close_conn: true,
                        }
                    }
                }
            }
        };
        sink.send(completion);
    }
}

// ---------------------------------------------------------------------------
// Reactor-side connection state
// ---------------------------------------------------------------------------

/// Where in a frame the connection's read cursor is.
enum ReadPhase {
    Header {
        buf: [u8; FRAME_HEADER_LEN],
        have: usize,
    },
    Payload {
        header: [u8; FRAME_HEADER_LEN],
        buf: Vec<u8>,
        have: usize,
    },
}

impl ReadPhase {
    fn start() -> Self {
        ReadPhase::Header {
            buf: [0u8; FRAME_HEADER_LEN],
            have: 0,
        }
    }

    fn mid_frame(&self) -> bool {
        match self {
            ReadPhase::Header { have, .. } => *have > 0,
            ReadPhase::Payload { .. } => true,
        }
    }
}

/// An item in a session's FIFO queue.
enum Queued {
    /// A decoded request awaiting its turn.
    Msg(Request),
    /// A protocol error to emit in order (bad message in a sound frame).
    Reject(String),
}

struct SessionState {
    engine: Option<Arc<Session>>,
    bridge: Arc<EntropyBridge>,
    queue: VecDeque<Queued>,
    in_flight: bool,
    /// The reactor has shipped an `EntropyRequest` and the next frame on
    /// this session must be the reply.
    awaiting_entropy: bool,
}

impl SessionState {
    fn new() -> Self {
        Self {
            engine: None,
            bridge: Arc::new(EntropyBridge::new()),
            queue: VecDeque::new(),
            in_flight: false,
            awaiting_entropy: false,
        }
    }
}

struct Conn {
    stream: TcpStream,
    phase: ReadPhase,
    out: Vec<u8>,
    out_cursor: usize,
    sessions: HashMap<u32, SessionState>,
    /// Requests queued or in flight across all sessions.
    pending: usize,
    /// Sessions currently owed an entropy reply.
    awaiting_entropy: usize,
    /// Reading paused by backpressure.
    paused: bool,
    /// A framing error queued its courtesy reply; flush, then close.
    close_after_flush: bool,
    last_progress: Instant,
    /// `(read, write)` interests currently registered with epoll; `None`
    /// while fully deregistered.
    registered: Option<(bool, bool)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            phase: ReadPhase::start(),
            out: Vec::new(),
            out_cursor: 0,
            sessions: HashMap::new(),
            pending: 0,
            awaiting_entropy: 0,
            paused: false,
            close_after_flush: false,
            last_progress: Instant::now(),
            registered: Some((true, false)),
        }
    }

    fn out_len(&self) -> usize {
        self.out.len() - self.out_cursor
    }

    /// Whether the peer currently owes us progress (as opposed to idling
    /// cleanly between frames).
    fn peer_owes_progress(&self) -> bool {
        self.phase.mid_frame() || self.out_len() > 0 || self.awaiting_entropy > 0
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct ReactorHandle {
    pub(crate) thread: JoinHandle<()>,
    pub(crate) waker: Arc<Waker>,
}

/// Binds the reactor to an already-listening std socket and spawns the
/// reactor thread plus its worker pool.
pub(crate) fn spawn(
    listener: std::net::TcpListener,
    provider: Arc<EngineProvider>,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
    panics: Arc<AtomicUsize>,
    stats: Arc<ServerStats>,
) -> io::Result<ReactorHandle> {
    let poll = Poll::new()?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    let mut listener = TcpListener::from_std(listener)?;
    poll.registry()
        .register(&mut listener, LISTENER, Interest::READABLE)?;

    let work = Arc::new(WorkQueue::new());
    let sink = Arc::new(CompletionSink {
        queue: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
    });

    let worker_count = if options.workers > 0 {
        options.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .clamp(2, 8)
    };
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let work = Arc::clone(&work);
        let sink = Arc::clone(&sink);
        let provider = Arc::clone(&provider);
        let panics = Arc::clone(&panics);
        workers.push(
            std::thread::Builder::new()
                .name(format!("dpsync-net-worker-{i}"))
                .spawn(move || worker_loop(work, sink, provider, panics))?,
        );
    }

    let reactor = Reactor {
        poll,
        listener,
        conns: HashMap::new(),
        next_token: CONN_BASE,
        options,
        shutdown,
        stats,
        work,
        sink,
        workers,
    };
    let thread = std::thread::Builder::new()
        .name("dpsync-net-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle { thread, waker })
}

struct Reactor {
    poll: Poll,
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    options: ServeOptions,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    work: Arc<WorkQueue>,
    sink: Arc<CompletionSink>,
    workers: Vec<JoinHandle<()>>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        while !self.shutdown.load(Ordering::SeqCst) {
            if self
                .poll
                .poll(&mut events, Some(self.options.poll_interval))
                .is_err()
            {
                break;
            }
            let batch: Vec<(Token, bool, bool)> = events
                .iter()
                .map(|e| (e.token(), e.is_readable(), e.is_writable()))
                .collect();
            for (token, readable, writable) in batch {
                match token {
                    LISTENER => self.accept_ready(),
                    WAKER => { /* completions drained below */ }
                    Token(id) => {
                        if writable {
                            self.try_flush(id);
                        }
                        if readable {
                            self.conn_readable(id);
                        }
                    }
                }
            }
            for completion in self.sink.drain() {
                self.handle_completion(completion);
            }
            self.reap_stalled();
        }
        // Shutdown: unblock the pool (dropping queued work), fail every
        // bridge so parked query workers unwind, then join the pool before
        // dropping connection state (and with it the session directories).
        self.work.shutdown();
        for conn in self.conns.values() {
            for session in conn.sessions.values() {
                session.bridge.fail();
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        continue; // drop it; the loop ends at WouldBlock
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn::new(stream);
                    if self
                        .poll
                        .registry()
                        .register(&mut conn.stream, Token(id), Interest::READABLE)
                        .is_ok()
                    {
                        self.conns.insert(id, conn);
                        self.stats.note_connections(self.conns.len());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break, // transient (e.g. EMFILE): retry next event
            }
        }
    }

    fn conn_readable(&mut self, id: usize) {
        let mut budget = READ_BUDGET;
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.paused || conn.close_after_flush {
                return;
            }
            // `stream` and `phase` are disjoint fields, so the read target
            // can live inside the state machine.
            let stream = &mut conn.stream;
            let read = match &mut conn.phase {
                ReadPhase::Header { buf, have } => stream.read(&mut buf[*have..]),
                ReadPhase::Payload { buf, have, .. } => stream.read(&mut buf[*have..]),
            };
            match read {
                Ok(0) => {
                    // EOF — clean between frames or dead mid-frame; either
                    // way the connection is over.
                    self.close(id, false);
                    return;
                }
                Ok(n) => {
                    conn.last_progress = Instant::now();
                    budget = budget.saturating_sub(n);
                    // Advance the state machine; a completed frame pops out.
                    let mut frame: Option<([u8; FRAME_HEADER_LEN], Vec<u8>)> = None;
                    match &mut conn.phase {
                        ReadPhase::Header { buf, have } => {
                            *have += n;
                            if *have == FRAME_HEADER_LEN {
                                let header = *buf;
                                match payload_len(header) {
                                    Err(e) => {
                                        self.framing_error(id, &e);
                                        return;
                                    }
                                    Ok(0) => {
                                        conn.phase = ReadPhase::start();
                                        frame = Some((header, Vec::new()));
                                    }
                                    Ok(len) => {
                                        conn.phase = ReadPhase::Payload {
                                            header,
                                            buf: vec![0u8; len],
                                            have: 0,
                                        };
                                    }
                                }
                            }
                        }
                        ReadPhase::Payload { header, buf, have } => {
                            *have += n;
                            if *have == buf.len() {
                                let header = *header;
                                let payload = std::mem::take(buf);
                                conn.phase = ReadPhase::start();
                                frame = Some((header, payload));
                            }
                        }
                    }
                    if let Some((header, payload)) = frame {
                        if let Err(e) = check_frame(header, &payload) {
                            self.framing_error(id, &e);
                            return;
                        }
                        self.process_frame(id, frame_session(header), payload);
                    }
                    if budget == 0 {
                        return; // level-triggered epoll re-fires for the rest
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(id, false);
                    return;
                }
            }
        }
    }

    /// The stream offset can no longer be trusted: one courtesy error frame
    /// (on the default session — the received header is not trustworthy),
    /// then disconnect once it flushes.
    fn framing_error(&mut self, id: usize, error: &FrameError) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let reply = Response::Protocol(format!("bad frame: {error}")).encode();
        encode_frame_mux_into(SESSION_DEFAULT, &reply, &mut conn.out);
        conn.close_after_flush = true;
        self.note_outbound(id);
        self.try_flush(id);
    }

    fn process_frame(&mut self, id: usize, session: u32, payload: Vec<u8>) {
        const NEED_HELLO: &str = "the first message must be a hello";
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        match Request::decode(&payload) {
            Err(e) => {
                let message = format!("bad message: {e}");
                match conn.sessions.get_mut(&session) {
                    Some(state) if state.awaiting_entropy => {
                        // Mid-entropy garbage: the query's RNG stream is
                        // broken; drop the connection without a result.
                        self.close(id, false);
                        return;
                    }
                    Some(state) => {
                        state.queue.push_back(Queued::Reject(message));
                        conn.pending += 1;
                        self.pump_session(id, session);
                    }
                    None => {
                        // The frame itself was sound, so the stream is
                        // still synchronized: report and keep serving.
                        self.queue_response(id, session, Response::Protocol(message));
                    }
                }
            }
            Ok(Request::EntropyReply(bytes)) => match conn.sessions.get_mut(&session) {
                Some(state) if state.awaiting_entropy => {
                    state.awaiting_entropy = false;
                    conn.awaiting_entropy -= 1;
                    state.bridge.deliver(bytes);
                }
                Some(state) => {
                    // Unsolicited; reject in order behind queued work.
                    state
                        .queue
                        .push_back(Queued::Msg(Request::EntropyReply(bytes)));
                    conn.pending += 1;
                    self.pump_session(id, session);
                }
                None => {
                    self.queue_response(id, session, Response::Protocol(NEED_HELLO.to_string()));
                }
            },
            Ok(Request::Hello(hello)) => {
                if !conn.sessions.contains_key(&session)
                    && conn.sessions.len() >= MAX_SESSIONS_PER_CONN
                {
                    // Reject before allocating: iterating fresh session ids
                    // must not grow per-connection state.
                    self.queue_response(
                        id,
                        session,
                        Response::Protocol(format!(
                            "session limit reached ({MAX_SESSIONS_PER_CONN} per connection)"
                        )),
                    );
                } else {
                    let state = conn
                        .sessions
                        .entry(session)
                        .or_insert_with(SessionState::new);
                    if state.awaiting_entropy {
                        self.close(id, false);
                        return;
                    }
                    state.queue.push_back(Queued::Msg(Request::Hello(hello)));
                    conn.pending += 1;
                    self.pump_session(id, session);
                }
            }
            Ok(request) => match conn.sessions.get_mut(&session) {
                Some(state) if state.awaiting_entropy => {
                    self.close(id, false);
                    return;
                }
                Some(state) => {
                    state.queue.push_back(Queued::Msg(request));
                    conn.pending += 1;
                    self.pump_session(id, session);
                }
                None => {
                    self.queue_response(id, session, Response::Protocol(NEED_HELLO.to_string()));
                }
            },
        }
        self.update_backpressure(id);
    }

    /// Starts the next queued item for a session unless one is in flight.
    fn pump_session(&mut self, id: usize, session: u32) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let Some(state) = conn.sessions.get_mut(&session) else {
                return;
            };
            if state.in_flight {
                return;
            }
            let Some(item) = state.queue.pop_front() else {
                return;
            };
            match item {
                Queued::Reject(message) => {
                    conn.pending -= 1;
                    self.queue_response(id, session, Response::Protocol(message));
                }
                Queued::Msg(Request::Hello(hello)) => {
                    state.in_flight = true;
                    self.work.push(WorkItem::Open {
                        conn: id,
                        session,
                        hello,
                    });
                    return;
                }
                Queued::Msg(request) => match &state.engine {
                    None => {
                        conn.pending -= 1;
                        self.queue_response(
                            id,
                            session,
                            Response::Protocol("the first message must be a hello".to_string()),
                        );
                    }
                    Some(engine) => {
                        if matches!(request, Request::EntropyReply(_)) {
                            conn.pending -= 1;
                            self.queue_response(
                                id,
                                session,
                                Response::Protocol("entropy reply outside a query".to_string()),
                            );
                            continue;
                        }
                        let engine = Arc::clone(engine);
                        let bridge = Arc::clone(&state.bridge);
                        state.in_flight = true;
                        self.work.push(WorkItem::Call {
                            conn: id,
                            session,
                            engine,
                            bridge,
                            request,
                        });
                        return;
                    }
                },
            }
        }
    }

    fn handle_completion(&mut self, completion: Completion) {
        match completion {
            Completion::Frame {
                conn: id,
                session,
                bytes,
            } => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return; // the connection died while the worker ran
                };
                if let Some(state) = conn.sessions.get_mut(&session) {
                    if !state.awaiting_entropy {
                        state.awaiting_entropy = true;
                        conn.awaiting_entropy += 1;
                    }
                }
                encode_frame_mux_into(session, &bytes, &mut conn.out);
                self.note_outbound(id);
                self.try_flush(id);
                self.update_backpressure(id);
            }
            Completion::Done {
                conn: id,
                session,
                reply,
                engine,
                close_conn,
            } => {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if let Some(state) = conn.sessions.get_mut(&session) {
                    state.in_flight = false;
                    if state.awaiting_entropy {
                        // The worker gave up (wrong-length or failed reply)
                        // while the reactor still expected one; keep the
                        // accounting consistent for teardown.
                        state.awaiting_entropy = false;
                        conn.awaiting_entropy -= 1;
                    }
                    if let Some(engine) = engine {
                        state.engine = Some(engine);
                    }
                }
                conn.pending = conn.pending.saturating_sub(1);
                if close_conn {
                    self.close(id, false);
                    return;
                }
                if let Some(bytes) = reply {
                    self.queue_response_bytes(id, session, bytes);
                }
                self.pump_session(id, session);
                self.update_backpressure(id);
            }
        }
    }

    fn queue_response(&mut self, id: usize, session: u32, response: Response) {
        self.queue_response_bytes(id, session, response.encode());
    }

    fn queue_response_bytes(&mut self, id: usize, session: u32, bytes: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        encode_frame_mux_into(session, &bytes, &mut conn.out);
        self.note_outbound(id);
        self.try_flush(id);
    }

    fn note_outbound(&mut self, id: usize) {
        if let Some(conn) = self.conns.get(&id) {
            self.stats.note_outbound(conn.out_len());
        }
    }

    fn try_flush(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        while conn.out_cursor < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_cursor..]) {
                Ok(0) => {
                    self.close(id, false);
                    return;
                }
                Ok(n) => {
                    conn.out_cursor += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(id, false);
                    return;
                }
            }
        }
        if conn.out_cursor == conn.out.len() {
            conn.out.clear();
            conn.out_cursor = 0;
            if conn.close_after_flush {
                self.close(id, false);
                return;
            }
        } else if conn.out_cursor > (64 << 10) {
            // Reclaim the drained prefix so a slow reader cannot pin the
            // full history of its responses in memory.
            conn.out.drain(..conn.out_cursor);
            conn.out_cursor = 0;
        }
        // A drained outbound buffer is a resume condition: without this a
        // connection paused on `out_len` alone (all admitted requests
        // already completed) would stay paused forever once the client
        // catches up — nothing else re-evaluates `paused` after the final
        // WRITABLE event.
        self.update_backpressure(id);
    }

    fn update_backpressure(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.paused {
            // Hysteresis: resume only once the backlog has halved, so a
            // borderline client does not thrash the epoll registration.
            // An owed entropy reply overrides the hysteresis entirely: the
            // reply must be readable for the in-flight query to finish —
            // and `pending` can never drain below the threshold while that
            // query blocks its session's queue.
            if conn.awaiting_entropy > 0
                || (conn.pending <= MAX_PENDING_REQUESTS / 2
                    && conn.out_len() <= OUTBOUND_PAUSE_BYTES / 2)
            {
                conn.paused = false;
            }
        } else if (conn.pending >= MAX_PENDING_REQUESTS || conn.out_len() >= OUTBOUND_PAUSE_BYTES)
            && conn.awaiting_entropy == 0
        {
            // Never pause while a session owes an entropy reply: the reply
            // must be readable for the in-flight query to finish at all.
            conn.paused = true;
        }
        self.update_interest(id);
    }

    fn update_interest(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let want_read = !conn.paused && !conn.close_after_flush;
        let want_write = conn.out_len() > 0;
        if conn.registered == Some((want_read, want_write)) {
            return;
        }
        let registry = self.poll.registry();
        if !want_read && !want_write {
            // Fully quiesced (paused with nothing to send): take the socket
            // out of epoll entirely; level-triggered readiness would
            // otherwise spin.  The reap scan still covers it.
            if conn.registered.is_some() && registry.deregister(&mut conn.stream).is_ok() {
                conn.registered = None;
            }
            return;
        }
        let interest = match (want_read, want_write) {
            (true, true) => Interest::READABLE | Interest::WRITABLE,
            (true, false) => Interest::READABLE,
            (false, _) => Interest::WRITABLE,
        };
        let applied = if conn.registered.is_some() {
            registry.reregister(&mut conn.stream, Token(id), interest)
        } else {
            registry.register(&mut conn.stream, Token(id), interest)
        };
        if applied.is_ok() {
            conn.registered = Some((want_read, want_write));
        }
    }

    fn reap_stalled(&mut self) {
        let deadline = self.options.io_deadline;
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| {
                conn.peer_owes_progress() && conn.last_progress.elapsed() > deadline
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stalled {
            self.close(id, true);
        }
    }

    fn close(&mut self, id: usize, reaped: bool) {
        if let Some(conn) = self.conns.remove(&id) {
            for session in conn.sessions.values() {
                session.bridge.fail();
            }
            if reaped {
                self.stats.note_reaped();
            }
            self.stats.note_connections(self.conns.len());
            // Dropping the stream closes the descriptor, which removes any
            // epoll registration implicitly.
        }
    }
}
