//! View-equivalence suite: materialized views must be invisible in
//! everything DP-Sync's guarantees are stated over.
//!
//! A registered view changes *where* a recurring query's answer comes from
//! (incremental aggregate state instead of a mirror scan) but must change
//! nothing the analyst or the adversary can compare:
//!
//! 1. every released query answer — including the Crypt-ε engine's *noisy*
//!    answers, because a view read perturbs the same exact aggregate with
//!    the same caller-RNG draw sequence as the scan it replaces;
//! 2. the full [`SimulationReport::normalized`] (errors, sizes, sync
//!    counts); and
//! 3. the complete adversary view — a view read is recorded with the same
//!    kind, touched-record count and (L-DP) noisy response volume as the
//!    equivalent scan, and view maintenance touches every record of every
//!    DP-padded batch (dummies as no-ops), so the update pattern that
//!    Definition 2 constrains is byte-for-byte the transcript of a view-free
//!    run.
//!
//! The cross product covers every engine × {SET, DP-Timer, DP-ANT} ×
//! {memory, group-commit segment log}, and a TCP leg replays the same
//! fixed-seed workload through `RegisterView`/`QueryView` wire frames on a
//! loopback reactor (entropy sub-protocol included).

use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
    SynchronizeEveryTime,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::backend::{BackendConfig, GroupCommitConfig, SegmentLogConfig};
use dpsync_edb::engines::EngineKind;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};
use dpsync_net::{BackendRequest, EdbTcpServer, EngineFactory, EngineProvider, MuxConnection};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(stem: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dpsync-view-equiv-{}-{stem}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

/// The same deterministic two-table workload shape as the backend- and
/// remote-equivalence suites: bursts, quiet stretches, a join table.
fn workloads(horizon: u64) -> Vec<OwnerWorkload> {
    let make = |name: &str, offset: u64| OwnerWorkload {
        table: name.into(),
        schema: schema(),
        initial_rows: (0..8).map(|i| row(0, 40 + offset as i64 + i)).collect(),
        join_time: 0,
        leave_time: None,
        arrivals: (1..=horizon)
            .filter_map(|t| {
                if (t + offset).is_multiple_of(3) {
                    Some((t, vec![row(t, ((t + offset) % 150) as i64)]))
                } else if (t + offset).is_multiple_of(17) {
                    Some((t, vec![row(t, 60), row(t, 61)]))
                } else {
                    None
                }
            })
            .collect(),
    };
    vec![make("yellow", 0), make("green", 5)]
}

fn simulation(horizon: u64, seed: u64, join: bool, views: bool) -> Simulation {
    let mut queries = vec![
        ("Q1".into(), paper_queries::q1_range_count("yellow")),
        ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
    ];
    if join {
        // Joins have no view shape; with views on, the analyst must fall
        // back to the scan path for Q3 without touching the server.
        queries.push(("Q3".into(), paper_queries::q3_join_count("yellow", "green")));
    }
    let sim = Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries,
        seed,
    });
    if views {
        sim.with_views()
    } else {
        sim
    }
}

fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    match kind {
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            30,
            Some(CacheFlush::new(300, 15)),
        )),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            15,
            Some(CacheFlush::new(300, 15)),
        )),
        other => panic!("not used in this suite: {other:?}"),
    }
}

/// Runs one fixed-seed simulation on the given engine, with the analyst
/// either auto-registering views for its hot queries or scanning everything;
/// returns the normalized report and the final adversary view.
fn run_on(
    engine: &dyn SecureOutsourcedDatabase,
    kind: StrategyKind,
    horizon: u64,
    seed: u64,
    views: bool,
) -> (SimulationReport, AdversaryView) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let join = matches!(engine.name(), "oblidb");
    let report = simulation(horizon, seed, join, views)
        .run_sparse(&workloads(horizon), horizon, engine, &master, |_| {
            strategy_for(kind)
        })
        .expect("simulation succeeds")
        .normalized();
    (report, engine.adversary_view())
}

#[test]
fn views_match_scans_across_engines_strategies_and_backends() {
    let master = MasterKey::from_bytes([0xEE; 32]);
    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            // The baseline: a view-free run on the in-memory backend.
            let scan_engine = engine_kind.build(&master);
            let (scan_report, scan_view) = run_on(scan_engine.as_ref(), strategy, 360, 7, false);

            // Same workload, same seeds, analyst serves Q1/Q2 from views.
            let view_engine = engine_kind.build(&master);
            let (view_report, view_view) = run_on(view_engine.as_ref(), strategy, 360, 7, true);

            // Reports carry every released query answer, error, QET and
            // size sample; normalized() strips only wall-clock fields —
            // so this pins the view answers to the scan answers.
            assert_eq!(
                scan_report, view_report,
                "report mismatch for {engine_kind:?}/{strategy:?}"
            );
            // The adversary transcript — what Definition 2 is about — must
            // not move by a byte when views are enabled.
            assert_eq!(
                scan_view, view_view,
                "adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{scan_view:?}"),
                format!("{view_view:?}"),
                "debug rendering must also be byte-identical"
            );

            // Views on the group-commit segment log: maintenance rides the
            // durable ingest path and still reproduces the memory scans.
            let dir = TempDir::new(&format!("{engine_kind:?}-{strategy:?}"));
            let config =
                SegmentLogConfig::new(&dir.0).with_group_commit(GroupCommitConfig::default());
            let backend = BackendConfig::SegmentLog(config).build().unwrap();
            let disk_engine = engine_kind.build_with_backend(&master, backend).unwrap();
            let (disk_report, disk_view) = run_on(disk_engine.as_ref(), strategy, 360, 7, true);
            assert_eq!(
                scan_report, disk_report,
                "report mismatch on disk-group views for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                scan_view, disk_view,
                "adversary view mismatch on disk-group views for {engine_kind:?}/{strategy:?}"
            );
        }
    }
}

#[test]
fn views_over_tcp_match_in_process_scans() {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("loopback server binds");

    for engine_kind in EngineKind::ALL {
        // The view-free in-process baseline every leg must reproduce.
        let scan_engine = engine_kind.build(&master);
        let (scan_report, scan_view) =
            run_on(scan_engine.as_ref(), StrategyKind::DpTimer, 240, 13, false);

        // View registration and reads cross the wire as `RegisterView` /
        // `QueryView` frames; Crypt-ε noise rides the entropy sub-protocol.
        let remote_engine = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(engine_kind, &master, BackendRequest::Memory))
            .expect("session opens");
        let (remote_report, remote_view) =
            run_on(&remote_engine, StrategyKind::DpTimer, 240, 13, true);

        assert_eq!(
            scan_report, remote_report,
            "report mismatch for remote views on {engine_kind:?}"
        );
        assert_eq!(
            scan_view, remote_view,
            "adversary view mismatch for remote views on {engine_kind:?}"
        );
    }
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn concurrent_registration_from_two_clients_is_idempotent() {
    use dpsync_edb::emm::IndexDef;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::sogdb::EdbError;
    use dpsync_edb::views::ViewDef;
    use std::sync::{Arc, Barrier};

    let master = MasterKey::from_bytes([0xD1; 32]);
    let engine = Arc::new(ObliDbEngine::new(&master));
    let mut cryptor = dpsync_crypto::RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..20).map(|i| row(i, 40 + i as i64)).collect();
    engine
        .setup("yellow", schema(), encrypt_batch(&mut cryptor, &rows, 3))
        .unwrap();
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Shared(engine.clone() as Arc<dyn SecureOutsourcedDatabase>),
    )
    .expect("loopback server binds");
    let addr = server.local_addr();

    // Two clients race identical view and index registrations through the
    // wire; the registries treat the second identical definition as a no-op,
    // so both must land on Ok.
    let barrier = Arc::new(Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let client = MuxConnection::connect(addr)
                    .and_then(|conn| conn.open_shared())
                    .expect("client connects");
                let view = ViewDef::new("V1", paper_queries::q1_range_count("yellow")).unwrap();
                let index = IndexDef::new("idx_yellow_pickup_id", "yellow", "pickup_id").unwrap();
                barrier.wait();
                (client.register_view(&view), client.register_index(&index))
            })
        })
        .collect();
    for handle in handles {
        let (view, index) = handle.join().expect("registration thread joins");
        view.expect("identical double view registration is idempotent");
        index.expect("identical double index registration is idempotent");
    }

    // A conflicting definition under a taken name is rejected, not merged.
    let client = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .unwrap();
    let clash_view = ViewDef::new("V1", paper_queries::q2_group_by_count("yellow")).unwrap();
    assert!(matches!(
        client.register_view(&clash_view),
        Err(EdbError::InvalidView(_))
    ));
    let clash_index = IndexDef::new("idx_yellow_pickup_id", "yellow", "pick_time").unwrap();
    assert!(matches!(
        client.register_index(&clash_index),
        Err(EdbError::InvalidIndex(_))
    ));
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn registration_races_ingest_without_deadlock() {
    use dpsync_edb::emm::IndexDef;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::views::ViewDef;
    use std::sync::{Arc, Barrier};

    let master = MasterKey::from_bytes([0xD2; 32]);
    let engine = Arc::new(ObliDbEngine::new(&master));
    let mut cryptor = dpsync_crypto::RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..10).map(|i| row(0, 40 + i as i64)).collect();
    engine
        .setup("yellow", schema(), encrypt_batch(&mut cryptor, &rows, 2))
        .unwrap();
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Shared(engine.clone() as Arc<dyn SecureOutsourcedDatabase>),
    )
    .expect("loopback server binds");
    let addr = server.local_addr();
    let key_bytes = *master.bytes();

    // One client streams padded update batches while another registers a
    // fresh view or index per iteration.  Registration takes the registry
    // lock *before* any table lock (the same order ingest-side view/index
    // maintenance uses), so the race must finish without deadlock and the
    // backfilled structures must agree with the scan afterwards.
    let barrier = Arc::new(Barrier::new(2));
    let writer = {
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            let client = MuxConnection::connect(addr)
                .and_then(|conn| conn.open_shared())
                .expect("writer connects");
            let mut cryptor = dpsync_crypto::RecordCryptor::new(&MasterKey::from_bytes(key_bytes));
            barrier.wait();
            for t in 1..=40u64 {
                let batch: Vec<Row> = (0..3).map(|i| row(t, (t as i64 * 3 + i) % 150)).collect();
                client
                    .update("yellow", t, encrypt_batch(&mut cryptor, &batch, 1))
                    .expect("update succeeds");
            }
        })
    };
    let registrar = {
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            let client = MuxConnection::connect(addr)
                .and_then(|conn| conn.open_shared())
                .expect("registrar connects");
            barrier.wait();
            for i in 0..20 {
                let view = ViewDef::new(
                    format!("race_v{i}"),
                    paper_queries::q1_range_count("yellow"),
                )
                .unwrap();
                client.register_view(&view).expect("view registers");
                let column = if i % 2 == 0 { "pickup_id" } else { "pick_time" };
                let index = IndexDef::new(format!("race_i{i}"), "yellow", column).unwrap();
                client.register_index(&index).expect("index registers");
            }
        })
    };
    writer.join().expect("writer joins");
    registrar.join().expect("registrar joins");

    // Every index — whenever it was registered relative to the stream of
    // updates — must now answer exactly like the scan.
    use dpsync_dp::DpRng;
    let q1 = paper_queries::q1_range_count("yellow");
    let mut rng = DpRng::seed_from_u64(9);
    let scanned = engine.query(&q1, &mut rng).unwrap();
    for i in (0..20).step_by(2) {
        let mut rng = DpRng::seed_from_u64(9);
        let indexed = engine
            .query_indexed(&format!("race_i{i}"), &q1, &mut rng)
            .unwrap();
        assert_eq!(scanned.answer, indexed.answer, "index race_i{i} diverged");
    }
    assert_eq!(server.handler_panics(), 0);
}
