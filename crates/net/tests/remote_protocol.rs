//! End-to-end protocol tests: a real `EdbTcpServer` on loopback driven by
//! [`MuxConnection`] clients, covering both session modes, the entropy
//! sub-protocol, error round-trips, graceful shutdown, and the rule that a
//! timeout or a stuck write is fatal for the whole connection.

use dpsync_crypto::{EncryptedRecord, MasterKey, RecordCryptor};
use dpsync_edb::cost::CostModel;
use dpsync_edb::engines::base::encrypt_batch;
use dpsync_edb::engines::{EngineKind, ObliDbEngine};
use dpsync_edb::leakage::LeakageProfile;
use dpsync_edb::query::{paper_queries, Predicate, Query};
use dpsync_edb::sogdb::{QueryOutcome, SecureOutsourcedDatabase, TableStats};
use dpsync_edb::{
    AdversaryView, DataType, EdbError, IndexDef, Row, Schema, StorageError, Value, ViewDef,
};
use dpsync_net::{BackendRequest, EdbTcpServer, EngineFactory, EngineProvider, MuxConnection};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

fn factory_server() -> EdbTcpServer {
    EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("ephemeral port binds")
}

#[test]
fn full_protocol_run_over_loopback_matches_in_process() {
    let master = MasterKey::from_bytes([0x21; 32]);
    let server = factory_server();
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory))
        .expect("session opens");
    let local = ObliDbEngine::new(&master);

    assert_eq!(remote.name(), "oblidb");
    assert_eq!(remote.leakage_profile(), local.leakage_profile());
    assert_eq!(remote.cost_model(), local.cost_model());

    // Drive both engines through the identical protocol sequence.  Batches
    // are encrypted once and replayed to both so the ciphertexts (and hence
    // byte totals in the adversary view) are identical.
    let mut cryptor = RecordCryptor::new(&master);
    let initial = encrypt_batch(&mut cryptor, &[row(0, 60), row(0, 80)], 3);
    let update = encrypt_batch(&mut cryptor, &[row(5, 55)], 1);
    for engine in [&remote as &dyn SecureOutsourcedDatabase, &local] {
        engine
            .setup("yellow", schema(), initial.clone())
            .expect("setup succeeds");
        engine
            .update("yellow", 5, update.clone())
            .expect("update succeeds");
    }

    let q1 = paper_queries::q1_range_count("yellow");
    let mut remote_rng = StdRng::seed_from_u64(9);
    let mut local_rng = StdRng::seed_from_u64(9);
    let remote_outcome = remote.query(&q1, &mut remote_rng).unwrap();
    let local_outcome = local.query(&q1, &mut local_rng).unwrap();
    assert_eq!(remote_outcome.answer, local_outcome.answer);
    assert_eq!(
        remote_outcome.estimated_seconds,
        local_outcome.estimated_seconds
    );
    assert_eq!(
        remote_outcome.touched_records,
        local_outcome.touched_records
    );

    assert!(remote.supports(&q1));
    assert_eq!(remote.table_stats("yellow"), local.table_stats("yellow"));
    assert_eq!(remote.table_stats("missing"), local.table_stats("missing"));
    assert_eq!(remote.adversary_view(), local.adversary_view());
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn noisy_engine_consumes_the_client_rng_identically() {
    // The crypt-epsilon engine draws Laplace noise from the caller's RNG.
    // Over the wire those draws round-trip through the entropy sub-protocol;
    // the released answers AND the client RNG's post-query state must match
    // the in-process run exactly.
    let master = MasterKey::from_bytes([0x22; 32]);
    let server = factory_server();
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| {
            conn.open_engine(EngineKind::CryptEpsilon, &master, BackendRequest::Memory)
        })
        .unwrap();
    let local = EngineKind::CryptEpsilon.build(&master);

    let mut cryptor = RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..40).map(|i| row(i, 75)).collect();
    let batch = encrypt_batch(&mut cryptor, &rows, 10);
    remote.setup("yellow", schema(), batch.clone()).unwrap();
    local.setup("yellow", schema(), batch).unwrap();

    let mut remote_rng = StdRng::seed_from_u64(77);
    let mut local_rng = StdRng::seed_from_u64(77);
    for query in [
        paper_queries::q1_range_count("yellow"),
        paper_queries::q2_group_by_count("yellow"),
        paper_queries::q1_range_count("yellow"),
    ] {
        let remote_outcome = remote.query(&query, &mut remote_rng).unwrap();
        let local_outcome = local.query(&query, &mut local_rng).unwrap();
        assert_eq!(remote_outcome.answer, local_outcome.answer);
    }
    // Post-query RNG states agree: the remote path consumed exactly the same
    // draws, in the same order, as the in-process path.
    use rand::RngCore as _;
    assert_eq!(remote_rng.next_u64(), local_rng.next_u64());

    // The noisy response volumes the server observed also agree.
    assert_eq!(remote.adversary_view(), local.adversary_view());
    assert_eq!(server.handler_panics(), 0);
}

/// A client RNG that counts its calls.  A client answers each
/// `EntropyRequest` frame with exactly one call, so the count is the number
/// of entropy round trips.
struct CountingRng {
    inner: StdRng,
    calls: usize,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.calls += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.calls += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.calls += 1;
        self.inner.fill_bytes(dest)
    }
}

type Read = fn(&dyn SecureOutsourcedDatabase, &mut dyn RngCore) -> Result<QueryOutcome, EdbError>;

#[test]
fn each_noisy_release_costs_one_entropy_round_trip() {
    // Crypt-ε draws a k-group answer's noise with one `fill_bytes`, so every
    // read — scan, view or index — costs at most one round trip, and an
    // empty answer none.  The answers and the client RNG's post-query state
    // must still match the in-process engine's.
    let master = MasterKey::from_bytes([0x27; 32]);
    let server = factory_server();
    let mux = MuxConnection::connect(server.local_addr()).unwrap();
    let session = mux
        .open_engine(EngineKind::CryptEpsilon, &master, BackendRequest::Memory)
        .unwrap();

    // 48 rows over the 12 pickup ids 60..=71.
    let mut cryptor = RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..48).map(|i| row(i, 60 + (i % 12) as i64)).collect();
    let batch = encrypt_batch(&mut cryptor, &rows, 8);
    let empty = encrypt_batch(&mut cryptor, &[], 0);
    // (label, read, groups released, client RNG calls)
    let reads: [(&str, Read, Option<usize>, usize); 5] = [
        (
            "Q1",
            |db, rng| db.query(&paper_queries::q1_range_count("yellow"), rng),
            None,
            1,
        ),
        (
            "Q2",
            |db, rng| db.query(&paper_queries::q2_group_by_count("yellow"), rng),
            Some(12),
            1,
        ),
        ("Q2 view", |db, rng| db.query_view("q2", rng), Some(12), 1),
        (
            "Q2 indexed",
            |db, rng| {
                let query = Query::GroupByCount {
                    table: "yellow".into(),
                    group_by: "pickup_id".into(),
                    predicate: Some(Predicate::Between("pickup_id".into(), 62.0, 69.0)),
                };
                db.query_indexed("idx", &query, rng)
            },
            Some(8),
            1,
        ),
        (
            "Q2 empty",
            |db, rng| db.query(&paper_queries::q2_group_by_count("empty"), rng),
            Some(0),
            0,
        ),
    ];

    let client: &dyn SecureOutsourcedDatabase = &session;
    let local = EngineKind::CryptEpsilon.build(&master);
    for engine in [client, &*local] {
        engine.setup("yellow", schema(), batch.clone()).unwrap();
        engine.setup("empty", schema(), empty.clone()).unwrap();
        engine
            .register_view(&ViewDef::new("q2", paper_queries::q2_group_by_count("yellow")).unwrap())
            .unwrap();
        engine
            .register_index(&IndexDef::new("idx", "yellow", "pickup_id").unwrap())
            .unwrap();
    }
    let mut remote_rng = CountingRng {
        inner: StdRng::seed_from_u64(78),
        calls: 0,
    };
    let mut local_rng = StdRng::seed_from_u64(78);
    for (label, read, groups, calls) in reads {
        let before = remote_rng.calls;
        let remote_outcome = read(client, &mut remote_rng).unwrap();
        let local_outcome = read(&*local, &mut local_rng).unwrap();
        assert_eq!(remote_outcome.answer, local_outcome.answer, "{label}");
        assert_eq!(
            local_outcome.answer.as_groups().map(|g| g.len()),
            groups,
            "{label}"
        );
        assert_eq!(remote_rng.calls - before, calls, "{label}");
        assert_eq!(remote_rng.inner, local_rng, "{label}");
    }
    assert_eq!(client.adversary_view(), local.adversary_view());
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn protocol_errors_round_trip_with_sources() {
    use std::error::Error as _;
    let master = MasterKey::from_bytes([0x23; 32]);
    let server = factory_server();
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| {
            conn.open_engine(EngineKind::CryptEpsilon, &master, BackendRequest::Memory)
        })
        .unwrap();

    // Π_Update against a missing table.
    let err = remote.update("nope", 1, Vec::new()).unwrap_err();
    assert_eq!(err, EdbError::NotSetUp("nope".into()));

    // Double setup.
    let mut cryptor = RecordCryptor::new(&master);
    let batch = encrypt_batch(&mut cryptor, &[row(0, 1)], 0);
    remote.setup("yellow", schema(), batch.clone()).unwrap();
    let err = remote.setup("yellow", schema(), batch).unwrap_err();
    assert_eq!(err, EdbError::AlreadySetUp("yellow".into()));

    // Records encrypted under the wrong key fail authentication remotely.
    let mut wrong = RecordCryptor::new(&MasterKey::from_bytes([0x99; 32]));
    let bad = encrypt_batch(&mut wrong, &[row(0, 1)], 0);
    let err = remote.update("yellow", 2, bad).unwrap_err();
    assert!(matches!(err, EdbError::Crypto(_)));
    assert!(err.source().is_some(), "crypto errors keep their source");

    // Joins are unsupported on crypt-epsilon; the static strings survive.
    let q3 = paper_queries::q3_join_count("yellow", "yellow");
    assert!(!remote.supports(&q3));
    let mut rng = StdRng::seed_from_u64(1);
    let err = remote.query(&q3, &mut rng).unwrap_err();
    assert_eq!(
        err,
        EdbError::UnsupportedQuery {
            engine: "crypt-epsilon",
            kind: "join",
        }
    );
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn disk_sessions_live_under_the_root_and_clean_up_on_disconnect() {
    let root = std::env::temp_dir().join(format!("dpsync-net-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let mut server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory {
            disk_root: Some(root.clone()),
        }),
    )
    .unwrap();

    let master = MasterKey::from_bytes([0x24; 32]);
    {
        let remote = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, BackendRequest::Disk))
            .unwrap();
        let mut cryptor = RecordCryptor::new(&master);
        remote
            .setup(
                "yellow",
                schema(),
                encrypt_batch(&mut cryptor, &[row(0, 1)], 1),
            )
            .unwrap();
        // The session wrote segment files under the root.
        let entries: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
        assert!(!entries.is_empty(), "disk session created its directory");
        assert_eq!(remote.table_stats("yellow").ciphertext_count, 2);
    }

    // Disconnect (drop) removes the per-session directory; shut the server
    // down first so the handler has definitely finished its cleanup.
    server.shutdown();
    let leftover: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
    assert!(
        leftover.is_empty(),
        "session scratch directories must be removed on disconnect: {leftover:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shared_server_serves_many_concurrent_clients() {
    let master = MasterKey::from_bytes([0x25; 32]);
    let engine: Arc<dyn SecureOutsourcedDatabase> = Arc::new(ObliDbEngine::new(&master));
    let server =
        EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(Arc::clone(&engine))).unwrap();
    let addr = server.local_addr();

    // Each client sets up its own table and uploads concurrently; all land
    // on the one shared engine's sharded storage.
    std::thread::scope(|scope| {
        for client_id in 0..4u64 {
            let master = &master;
            scope.spawn(move || {
                let remote = MuxConnection::connect(addr)
                    .and_then(|conn| conn.open_shared())
                    .unwrap();
                let table = format!("table-{client_id}");
                let mut cryptor = RecordCryptor::with_sequence(master, (client_id + 1) << 40);
                remote
                    .setup(
                        &table,
                        schema(),
                        encrypt_batch(&mut cryptor, &[row(0, client_id as i64)], 0),
                    )
                    .unwrap();
                for t in 1..=20u64 {
                    remote
                        .update(
                            &table,
                            t,
                            encrypt_batch(&mut cryptor, &[row(t, t as i64)], 1),
                        )
                        .unwrap();
                }
            });
        }
    });

    let view = engine.adversary_view();
    assert_eq!(view.update_pattern().len(), 4 * 21);
    assert_eq!(view.update_pattern().total_volume(), 4 * (1 + 20 * 2));
    // A late client observes the same merged transcript over the wire.
    let remote = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    assert_eq!(remote.adversary_view(), view);
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn transport_failures_surface_as_storage_io_errors() {
    use std::error::Error as _;
    let master = MasterKey::from_bytes([0x26; 32]);
    let mut server = factory_server();
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory))
        .unwrap();
    server.shutdown();

    let mut cryptor = RecordCryptor::new(&master);
    let err = remote
        .setup(
            "yellow",
            schema(),
            encrypt_batch(&mut cryptor, &[row(0, 1)], 0),
        )
        .unwrap_err();
    match &err {
        EdbError::Storage(StorageError::Io { path, .. }) => {
            assert!(path.starts_with("tcp://"), "path is the peer: {path}");
        }
        other => panic!("expected a transport error, got {other:?}"),
    }
    assert!(err.source().is_some());
}

#[test]
fn connecting_to_a_dead_port_fails_cleanly() {
    // Bind-then-drop to obtain a port with nothing listening.
    let port = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let err = MuxConnection::connect(("127.0.0.1", port))
        .err()
        .expect("nothing listens on the port");
    assert!(matches!(err, EdbError::Storage(StorageError::Io { .. })));
}

/// An ObliDB engine whose `Count` queries wait for the test's go-ahead and
/// report once answered, so the test decides when a late reply lands.
struct GatedCounts {
    inner: ObliDbEngine,
    go: Mutex<mpsc::Receiver<()>>,
    answered: mpsc::Sender<()>,
}

impl SecureOutsourcedDatabase for GatedCounts {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn leakage_profile(&self) -> LeakageProfile {
        self.inner.leakage_profile()
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }

    fn setup(
        &self,
        table: &str,
        schema: Schema,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.inner.setup(table, schema, records)
    }

    fn update(
        &self,
        table: &str,
        time: u64,
        records: Vec<EncryptedRecord>,
    ) -> Result<(), EdbError> {
        self.inner.update(table, time, records)
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        if !matches!(query, Query::Count { .. }) {
            return self.inner.query(query, rng);
        }
        let _ = self.go.lock().unwrap().recv();
        let outcome = self.inner.query(query, rng);
        let _ = self.answered.send(());
        outcome
    }

    fn supports(&self, query: &Query) -> bool {
        self.inner.supports(query)
    }

    fn table_stats(&self, table: &str) -> TableStats {
        self.inner.table_stats(table)
    }

    fn adversary_view(&self) -> AdversaryView {
        self.inner.adversary_view()
    }
}

fn assert_timed_out(result: Result<QueryOutcome, EdbError>, call: &str) {
    match result {
        Err(EdbError::Storage(StorageError::Io { message, .. })) => {
            assert!(message.contains("timed out"), "{call}: {message}")
        }
        other => panic!("{call}: expected a timeout, got {other:?}"),
    }
}

#[test]
fn a_timeout_kills_the_connection_instead_of_leaving_a_late_reply_behind() {
    let master = MasterKey::from_bytes([0x28; 32]);
    let (go, gate) = mpsc::channel();
    let (answered, late) = mpsc::channel();
    let engine: Arc<dyn SecureOutsourcedDatabase> = Arc::new(GatedCounts {
        inner: ObliDbEngine::new(&master),
        go: Mutex::new(gate),
        answered,
    });
    let server =
        EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(Arc::clone(&engine))).unwrap();
    let conn =
        MuxConnection::connect_with_timeout(server.local_addr(), Some(Duration::from_millis(200)))
            .unwrap();
    let session = conn.open_shared().unwrap();
    let other = conn.open_shared().unwrap();
    let mut cryptor = RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..30).map(|i| row(i, 60 + i as i64)).collect();
    session
        .setup("yellow", schema(), encrypt_batch(&mut cryptor, &rows, 0))
        .unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let q1 = session.query(&paper_queries::q1_range_count("yellow"), &mut rng);
    assert_timed_out(q1, "Q1");
    // Q1 is answered late.  Reading that reply as the answer to the next
    // request would hand Q2 a count of 30.
    go.send(()).unwrap();
    late.recv().unwrap();
    let q2 = session.query(&paper_queries::q2_group_by_count("yellow"), &mut rng);
    assert_timed_out(q2, "Q2 after the timeout");
    // The connection is dead for every session it hosts.
    let q2 = other.query(&paper_queries::q2_group_by_count("yellow"), &mut rng);
    assert_timed_out(q2, "another session on the connection");
}

#[test]
fn a_server_that_stops_reading_cannot_block_a_write_forever() {
    use dpsync_net::frame::{encode_frame_mux, read_frame_mux};
    use dpsync_net::Response;
    use std::io::Write as _;

    // A fake server: it answers the Hello, then never reads again.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = mpsc::channel::<()>();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (session, _hello) = read_frame_mux(&mut stream).unwrap();
        let local = ObliDbEngine::new(&MasterKey::from_bytes([0x29; 32]));
        let info = Response::EngineInfo {
            name: "oblidb".into(),
            profile: local.leakage_profile(),
            cost: local.cost_model(),
        };
        stream
            .write_all(&encode_frame_mux(session, &info.encode()))
            .unwrap();
        let _ = held.recv();
    });

    let session = MuxConnection::connect_with_timeout(addr, Some(Duration::from_secs(1)))
        .and_then(|conn| conn.open_shared())
        .unwrap();
    let mut cryptor = RecordCryptor::new(&MasterKey::from_bytes([0x29; 32]));
    let record = encrypt_batch(&mut cryptor, &[row(0, 1)], 0).remove(0);
    // 18 MiB: far more than loopback socket buffers hold.
    let records = vec![record; (18 << 20) / EncryptedRecord::TOTAL_LEN];
    let (done, result) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let _ = done.send(session.setup("yellow", schema(), records));
    });
    match result.recv_timeout(Duration::from_secs(30)) {
        Ok(Err(EdbError::Storage(StorageError::Io { message, .. }))) => {
            assert!(message.contains("timed out"), "{message}")
        }
        Ok(other) => panic!("expected a write timeout, got {other:?}"),
        Err(_) => panic!("a write to a server that stopped reading blocked for 30 s"),
    }
    caller.join().unwrap();
    drop(release);
    fake.join().unwrap();
}

#[test]
fn sixteen_crypt_epsilon_sessions_interleave_entropy_on_one_socket() {
    // Every query owes an entropy round trip, so sixteen threads sharing one
    // socket constantly read frames for each other.  Each thread's answers,
    // stats and post-query RNG states must equal its own in-process run.
    const THREADS: u64 = 16;
    const ROUNDS: u64 = 150;
    let master = MasterKey::from_bytes([0x2A; 32]);
    let server = factory_server();
    let conn = MuxConnection::connect(server.local_addr()).unwrap();
    let (done, finished) = mpsc::channel();
    let coordinator = std::thread::spawn(move || {
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (conn, master) = (&conn, &master);
                scope.spawn(move || {
                    let remote = conn
                        .open_engine(EngineKind::CryptEpsilon, master, BackendRequest::Memory)
                        .unwrap();
                    let local = EngineKind::CryptEpsilon.build(master);
                    let mut cryptor = RecordCryptor::with_sequence(master, (thread + 1) << 40);
                    let rows: Vec<Row> = (0..12).map(|i| row(0, 60 + i)).collect();
                    let initial = encrypt_batch(&mut cryptor, &rows, 2);
                    remote.setup("yellow", schema(), initial.clone()).unwrap();
                    local.setup("yellow", schema(), initial).unwrap();
                    let mut remote_rng = StdRng::seed_from_u64(thread);
                    let mut local_rng = StdRng::seed_from_u64(thread);
                    for t in 1..=ROUNDS {
                        let batch = encrypt_batch(&mut cryptor, &[row(t, 60 + (t % 12) as i64)], 1);
                        remote.update("yellow", t, batch.clone()).unwrap();
                        local.update("yellow", t, batch).unwrap();
                        assert_eq!(remote.table_stats("yellow"), local.table_stats("yellow"));
                        let query = if t % 2 == 0 {
                            paper_queries::q1_range_count("yellow")
                        } else {
                            paper_queries::q2_group_by_count("yellow")
                        };
                        let remote_outcome = remote.query(&query, &mut remote_rng).unwrap();
                        let local_outcome = local.query(&query, &mut local_rng).unwrap();
                        assert_eq!(remote_outcome.answer, local_outcome.answer, "round {t}");
                        assert_eq!(remote_rng, local_rng, "round {t}");
                    }
                });
            }
        });
        let _ = done.send(());
    });
    // A lost wake-up would hang a thread forever; fail instead.
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
        panic!("watchdog: the sessions did not finish within 120 s");
    }
    coordinator.join().expect("every session thread completes");
    assert_eq!(server.handler_panics(), 0);
}
