//! Slow-client and backpressure behavior of the reactor server.
//!
//! Three hostile client shapes run against one server while healthy peers
//! sync at full rate:
//!
//! * a connection that **stops reading** after flooding requests whose
//!   responses are large — its outbound backlog must stay bounded by the
//!   reactor's pause threshold plus one frame, and the progress deadline
//!   must reap it (un-drained responses mean the peer owes progress);
//! * a connection that **trickles** a frame byte by byte, slow-loris style —
//!   it keeps making progress, so it is *not* reaped, but it must not
//!   disturb anyone else either;
//! * healthy full-rate owners, whose throughput must be unaffected
//!   throughout.

use dpsync_crypto::{MasterKey, RecordCryptor};
use dpsync_dp::DpRng;
use dpsync_edb::engines::base::encrypt_batch;
use dpsync_edb::engines::{CryptEpsilonEngine, ObliDbEngine};
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{DataType, Query, Row, Schema, Value};
use dpsync_net::frame::{
    encode_frame_mux, read_frame, read_frame_mux, write_frame, FRAME_HEADER_LEN,
};
use dpsync_net::wire::{EntropyDraw, SessionRequest};
use dpsync_net::{
    EdbTcpServer, EngineProvider, MuxConnection, Request, Response, ServeOptions,
    MAX_PENDING_REQUESTS, OUTBOUND_PAUSE_BYTES,
};
use rand::RngCore;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Schema {
    Schema::from_pairs(&[("pick_time", DataType::Timestamp), ("fare", DataType::Int)])
}

fn records(master: &MasterKey, t: u64, n: usize) -> Vec<dpsync_crypto::EncryptedRecord> {
    let mut cryptor = RecordCryptor::new(master);
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::Timestamp(t), Value::Int(i as i64)]))
        .collect();
    encrypt_batch(&mut cryptor, &rows, 0)
}

#[test]
fn a_stalled_reader_stays_bounded_and_is_reaped_while_others_run_at_full_rate() {
    let master = MasterKey::from_bytes([0xBB; 32]);
    let engine: Arc<ObliDbEngine> = Arc::new(ObliDbEngine::new(&master));
    let server = EdbTcpServer::bind_with_options(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&engine) as Arc<dyn SecureOutsourcedDatabase>),
        ServeOptions {
            io_deadline: Duration::from_millis(700),
            poll_interval: Duration::from_millis(10),
            workers: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Fatten the adversary view so its response frame is substantial: the
    // stalled reader will request it repeatedly to grow server-side backlog.
    let loader = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    loader
        .setup("load", schema(), records(&master, 0, 2))
        .unwrap();
    for t in 1..=400u64 {
        loader.update("load", t, records(&master, t, 1)).unwrap();
    }
    let view = loader.adversary_view();
    let view_frame_len = Response::View(view).encode().len() + FRAME_HEADER_LEN;
    assert!(
        view_frame_len > 1024,
        "the view must be big enough to exercise the outbound pause ({view_frame_len} B)"
    );

    // Enough requests that fully answering them would need several times the
    // pause threshold — if backpressure failed, the backlog would blow well
    // past the asserted bound.
    let flood = (3 * OUTBOUND_PAUSE_BYTES / view_frame_len) + MAX_PENDING_REQUESTS;

    // The stalled reader: hello, then flood, then never read again.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_frame(
        &mut stalled,
        &Request::Hello(SessionRequest::Shared).encode(),
    )
    .unwrap();
    let payload = read_frame(&mut stalled).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::EngineInfo { .. }
    ));
    let request = Request::AdversaryView.encode();
    for _ in 0..flood {
        // The request frames are tiny; they fit the socket buffers even
        // after the server pauses reading this connection.
        write_frame(&mut stalled, &request).unwrap();
    }

    // The slow-loris trickler: a valid update frame, one byte every 30 ms.
    // It keeps making progress, so the deadline must NOT reap it while the
    // trickle continues.
    let mut trickle_frame = Vec::new();
    {
        struct Sink<'a>(&'a mut Vec<u8>);
        impl Write for Sink<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        write_frame(
            &mut Sink(&mut trickle_frame),
            &Request::Hello(SessionRequest::Shared).encode(),
        )
        .unwrap();
    }
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for chunk in trickle_frame.chunks(1).take(60) {
            if stream.write_all(chunk).is_err() {
                return false;
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        true
    });

    // Healthy owners at full rate while both hostile connections are live.
    let full_rate_started = Instant::now();
    std::thread::scope(|scope| {
        for owner in 0..4 {
            let master = &master;
            scope.spawn(move || {
                let remote = MuxConnection::connect(addr)
                    .and_then(|conn| conn.open_shared())
                    .unwrap();
                let table = format!("owner_{owner}");
                remote
                    .setup(&table, schema(), records(master, 0, 1))
                    .unwrap();
                for t in 1..=100u64 {
                    remote.update(&table, t, records(master, t, 1)).unwrap();
                }
            });
        }
    });
    let full_rate_elapsed = full_rate_started.elapsed();
    assert!(
        full_rate_elapsed < Duration::from_secs(10),
        "healthy owners were starved: 400 updates took {full_rate_elapsed:?}"
    );

    // The stalled reader must be deadline-reaped: its responses never drain,
    // so the peer owes progress.
    let deadline = Instant::now() + Duration::from_secs(15);
    while server.stats().reaped_connections() == 0 {
        assert!(
            Instant::now() < deadline,
            "the stalled connection was never reaped"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Bounded memory: pausing stops *reading*, but requests already
    // admitted (at most MAX_PENDING_REQUESTS) still complete and queue
    // their responses — so the backlog bound is the pause threshold plus
    // one response per admitted request.  A server without backpressure
    // would blow past this by the full flood size.  The per-response term
    // uses the *final* view size: the shared engine kept growing while the
    // healthy owners synced, so late flood responses are larger than the
    // frame measured before the flood started.
    let final_view_frame_len =
        Response::View(engine.adversary_view()).encode().len() + FRAME_HEADER_LEN;
    let peak = server.stats().peak_outbound_bytes();
    let bound = OUTBOUND_PAUSE_BYTES + MAX_PENDING_REQUESTS * final_view_frame_len;
    assert!(
        peak <= bound,
        "outbound backlog exceeded the backpressure bound: {peak} B > {bound} B"
    );
    // ... and the flood genuinely built a backlog, so the bound was tested.
    assert!(
        peak >= view_frame_len,
        "the stalled reader never accumulated a backlog (peak {peak} B)"
    );

    assert!(
        trickler.join().unwrap(),
        "the trickler was cut off mid-frame"
    );
    assert_eq!(server.handler_panics(), 0);

    // The server still serves fresh sessions at full function.
    let check = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    assert_eq!(check.table_stats("load").ciphertext_count, 402);
}

/// Regression: a connection paused by outbound backpressure must get its
/// socket back once the client drains the backlog.  The reactor originally
/// re-checked the pause only on request completions — if the last
/// completion landed while the outbound buffer was still above the resume
/// threshold, the connection stayed paused with nothing pending, and once
/// the client drained the buffer the socket was fully deregistered: a
/// live, well-behaved-but-bursty client hung forever.
#[test]
fn a_bursty_client_that_drains_its_backlog_resumes() {
    let master = MasterKey::from_bytes([0xCC; 32]);
    let engine: Arc<ObliDbEngine> = Arc::new(ObliDbEngine::new(&master));
    let server = EdbTcpServer::bind_with_options(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&engine) as Arc<dyn SecureOutsourcedDatabase>),
        ServeOptions {
            io_deadline: Duration::from_secs(20),
            poll_interval: Duration::from_millis(10),
            workers: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A wide table (5 columns is as wide as the record payload cap allows)
    // so one select-all response is large: few engine calls produce many
    // megabytes of outbound backlog.
    let wide_schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("c", DataType::Int),
        ("d", DataType::Int),
        ("e", DataType::Int),
    ]);
    let rows: Vec<Row> = (0..1000i64)
        .map(|i| Row::new((0..5).map(|c| Value::Int(i * 5 + c)).collect()))
        .collect();
    let mut cryptor = RecordCryptor::new(&master);
    let wide_records = encrypt_batch(&mut cryptor, &rows, 0);

    let loader = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    loader.setup("big", wide_schema, wide_records).unwrap();
    let select = Query::Select {
        table: "big".to_string(),
        columns: Vec::new(),
        predicate: None,
    };
    let mut rng = DpRng::seed_from_u64(7);
    let outcome = loader.query(&select, &mut rng).unwrap();
    let select_frame_len = Response::Outcome(outcome).encode().len() + FRAME_HEADER_LEN;
    assert!(
        select_frame_len > 32 << 10,
        "the select response must be substantial ({select_frame_len} B)"
    );

    // Enough selects that their responses total several times the pause
    // threshold — the burst must drive the connection into the paused
    // state (asserted below via peak_outbound_bytes) before we drain it.
    let flood = (8 * OUTBOUND_PAUSE_BYTES / select_frame_len) + 1;
    let mut bursty = TcpStream::connect(addr).unwrap();
    bursty
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    write_frame(
        &mut bursty,
        &Request::Hello(SessionRequest::Shared).encode(),
    )
    .unwrap();
    let payload = read_frame(&mut bursty).unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::EngineInfo { .. }
    ));
    let request = Request::Query(select.clone()).encode();
    for _ in 0..flood {
        write_frame(&mut bursty, &request).unwrap();
    }

    // Hold off reading until the server has demonstrably hit the outbound
    // pause threshold, so the resume path is genuinely exercised.
    let deadline = Instant::now() + Duration::from_secs(15);
    while server.stats().peak_outbound_bytes() < OUTBOUND_PAUSE_BYTES {
        assert!(
            Instant::now() < deadline,
            "the burst never drove the outbound backlog past the pause threshold \
             (peak {} B)",
            server.stats().peak_outbound_bytes()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Drain everything.  Before the fix the connection stayed paused after
    // the backlog emptied and the remaining requests were never read, so
    // one of these reads timed out.
    for i in 0..flood {
        let payload = read_frame(&mut bursty)
            .unwrap_or_else(|e| panic!("response {i}/{flood} never arrived: {e}"));
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Outcome(_)
        ));
    }

    // And the connection is still fully live for new work.
    write_frame(
        &mut bursty,
        &Request::TableStats("big".to_string()).encode(),
    )
    .unwrap();
    let payload = read_frame(&mut bursty).expect("the drained connection went deaf");
    match Response::decode(&payload).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.ciphertext_count, 1000),
        other => panic!("unexpected response: {other:?}"),
    }
    assert_eq!(server.handler_panics(), 0);
}

/// Regression: backpressure must never starve the entropy sub-protocol.
/// With session multiplexing, one session's pipeline can legally pin the
/// *connection's* pending count at the admission cap while another
/// session's `Π_Query` draws entropy.  The reply frame must still be
/// readable even though pending can never fall below the resume threshold
/// (the queued pipeline keeps it high until it runs, and it runs
/// concurrently with the blocked query).  Before the fix the connection
/// stayed paused, the worker parked until the deadline reaper killed the
/// connection, and the query was silently dropped.
#[test]
fn an_entropy_owing_query_completes_under_full_pipelining() {
    let master = MasterKey::from_bytes([0xDD; 32]);
    let engine: Arc<CryptEpsilonEngine> = Arc::new(CryptEpsilonEngine::new(&master));
    let server = EdbTcpServer::bind_with_options(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&engine) as Arc<dyn SecureOutsourcedDatabase>),
        ServeOptions {
            // Short on purpose: before the fix the reaper killed the
            // connection after this long, failing the test quickly.
            io_deadline: Duration::from_secs(3),
            poll_interval: Duration::from_millis(10),
            // One worker, so the entropy-parked query is the only thing
            // that can drain the pipeline: with a spare worker the filler
            // requests complete and unpause the connection through the
            // ordinary completion path, masking the entropy deadlock.
            workers: 1,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A table big enough that the count's pre-noise scan takes a moment —
    // the reactor must have read (and paused on) the whole pipeline by the
    // time the worker asks for entropy, or the pause never engages and the
    // regression goes unexercised.
    let loader = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    loader
        .setup("t", schema(), records(&master, 0, 20_000))
        .unwrap();

    const QUERY_SESSION: u32 = 1;
    const PIPELINE_SESSION: u32 = 2;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    let hello = Request::Hello(SessionRequest::Shared).encode();
    for session in [QUERY_SESSION, PIPELINE_SESSION] {
        stream
            .write_all(&encode_frame_mux(session, &hello))
            .unwrap();
        let (reply_session, payload) = read_frame_mux(&mut stream).unwrap();
        assert_eq!(reply_session, session);
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::EngineInfo { .. }
        ));
    }

    // The entropy-drawing query (Crypt-ε perturbs every count) on one
    // session, then enough cheap requests on the *other* session to pin
    // the connection's pending count at the admission cap — written in a
    // single burst so the reactor sees the whole pipeline at once.
    let count = Query::Count {
        table: "t".to_string(),
        predicate: None,
    };
    let mut burst = encode_frame_mux(QUERY_SESSION, &Request::Query(count.clone()).encode());
    let filler = encode_frame_mux(PIPELINE_SESSION, &Request::Supports(count).encode());
    for _ in 0..MAX_PENDING_REQUESTS {
        burst.extend_from_slice(&filler);
    }
    stream.write_all(&burst).unwrap();

    let mut rng = DpRng::seed_from_u64(42);
    let mut outcomes = 0usize;
    let mut supported = 0usize;
    while outcomes + supported < 1 + MAX_PENDING_REQUESTS {
        let (session, payload) = read_frame_mux(&mut stream).unwrap_or_else(|e| {
            panic!(
                "pipeline stalled after {outcomes} outcomes / {supported} supports \
                 (reaped: {}): {e}",
                server.stats().reaped_connections()
            )
        });
        match Response::decode(&payload).unwrap() {
            Response::EntropyRequest(draw) => {
                assert_eq!(session, QUERY_SESSION);
                let bytes = match draw {
                    EntropyDraw::U32 => rng.next_u32().to_le_bytes().to_vec(),
                    EntropyDraw::U64 => rng.next_u64().to_le_bytes().to_vec(),
                    EntropyDraw::Fill(n) => {
                        let mut buf = vec![0u8; n as usize];
                        rng.fill_bytes(&mut buf);
                        buf
                    }
                };
                stream
                    .write_all(&encode_frame_mux(
                        QUERY_SESSION,
                        &Request::EntropyReply(bytes).encode(),
                    ))
                    .unwrap();
            }
            Response::Outcome(_) => {
                assert_eq!(session, QUERY_SESSION);
                outcomes += 1;
            }
            Response::Supported(_) => {
                assert_eq!(session, PIPELINE_SESSION);
                supported += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(outcomes, 1);
    assert_eq!(supported, MAX_PENDING_REQUESTS);
    assert_eq!(
        server.stats().reaped_connections(),
        0,
        "the pipelining connection was deadline-reaped instead of resumed"
    );
    assert_eq!(server.handler_panics(), 0);
}
