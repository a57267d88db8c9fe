//! Index-equivalence suite: encrypted-multimap selection indexes must be
//! invisible in everything DP-Sync's guarantees are stated over.
//!
//! A registered index changes *how* a selective query's answer is assembled
//! (fetching PRF-labelled candidate locators instead of scanning the padded
//! mirror) but must never change the released answers, and — under the
//! planner's [`LeakagePolicy::TranscriptOnly`] policy — must not move the
//! adversary's view by a byte:
//!
//! 1. index maintenance inserts exactly one entry per record of every
//!    DP-padded batch (dummies under an opaque dummy label), so index growth
//!    is a function only of the public Definition-2 volumes `|γ_t|`;
//! 2. under `TranscriptOnly` every read stays a full scan, so the complete
//!    adversary transcript is byte-for-byte that of an index-free run;
//! 3. under `AllowIndexedVolume` an indexed read declares its fetch volume
//!    in the transcript, but the *released answers* (including Crypt-ε's
//!    noisy answers, which perturb the same exact aggregate with the same
//!    caller-RNG draw) still equal the scan path bit for bit, and the
//!    update pattern — what Definition 2 constrains — is unchanged.
//!
//! The cross product covers every engine × {SET, DP-Timer, DP-ANT} ×
//! {memory, group-commit segment log}, and a TCP leg replays the same
//! fixed-seed workload through `RegisterIndex`/`QueryIndexed` wire frames on
//! a loopback reactor (entropy sub-protocol included).

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
use dpsync_edb::planner::LeakagePolicy;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};
use dpsync_net::{BackendRequest, EdbTcpServer, EngineFactory, EngineProvider, MuxConnection};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(stem: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dpsync-index-equiv-{}-{stem}", std::process::id()));
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

/// The same deterministic two-table workload shape as the view- and
/// backend-equivalence suites: bursts, quiet stretches, a join table.
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

fn simulation(horizon: u64, seed: u64, join: bool, policy: Option<LeakagePolicy>) -> Simulation {
    let mut queries = vec![
        ("Q1".into(), paper_queries::q1_range_count("yellow")),
        ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
    ];
    if join {
        queries.push(("Q3".into(), paper_queries::q3_join_count("yellow", "green")));
    }
    let sim = Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries,
        seed,
    });
    match policy {
        Some(policy) => sim.with_indexes(policy),
        None => sim,
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
/// either planning over auto-registered indexes under `policy` or scanning
/// everything; returns the normalized report and the final adversary view.
fn run_on(
    engine: &dyn SecureOutsourcedDatabase,
    kind: StrategyKind,
    horizon: u64,
    seed: u64,
    policy: Option<LeakagePolicy>,
) -> (SimulationReport, AdversaryView) {
    let master = MasterKey::from_bytes([0xC9; 32]);
    let join = matches!(engine.name(), "oblidb");
    let report = simulation(horizon, seed, join, policy)
        .run_sparse(&workloads(horizon), horizon, engine, &master, |_| {
            strategy_for(kind)
        })
        .expect("simulation succeeds")
        .normalized();
    (report, engine.adversary_view())
}

/// Asserts the released answers (per-sample L1 errors against a shared
/// ground truth) of two runs are identical.
fn assert_answers_match(scan: &SimulationReport, indexed: &SimulationReport, context: &str) {
    assert_eq!(
        scan.query_samples.len(),
        indexed.query_samples.len(),
        "sample count mismatch for {context}"
    );
    for (s, i) in scan.query_samples.iter().zip(&indexed.query_samples) {
        assert_eq!(
            (s.time, s.query.as_str(), s.l1_error),
            (i.time, i.query.as_str(), i.l1_error),
            "released answer mismatch for {context}"
        );
    }
}

#[test]
fn transcript_only_indexes_match_scans_across_engines_strategies_and_backends() {
    let master = MasterKey::from_bytes([0xC9; 32]);
    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            // The baseline: an index-free run on the in-memory backend.
            let scan_engine = engine_kind.build(&master);
            let (scan_report, scan_view) = run_on(scan_engine.as_ref(), strategy, 360, 7, None);

            // Same workload, same seeds; indexes are registered, backfilled
            // and maintained on every padded batch, but the TranscriptOnly
            // policy keeps every read on the scan plan.
            let index_engine = engine_kind.build(&master);
            let (index_report, index_view) = run_on(
                index_engine.as_ref(),
                strategy,
                360,
                7,
                Some(LeakagePolicy::TranscriptOnly),
            );

            assert_eq!(
                scan_report, index_report,
                "report mismatch for {engine_kind:?}/{strategy:?}"
            );
            // The adversary transcript — what Definition 2 is about — must
            // not move by a byte when indexes are maintained.
            assert_eq!(
                scan_view, index_view,
                "adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{scan_view:?}"),
                format!("{index_view:?}"),
                "debug rendering must also be byte-identical"
            );

            // Indexes on the group-commit segment log: maintenance rides the
            // durable ingest path and still reproduces the memory scans.
            let dir = TempDir::new(&format!("{engine_kind:?}-{strategy:?}"));
            let config =
                SegmentLogConfig::new(&dir.0).with_group_commit(GroupCommitConfig::default());
            let backend = BackendConfig::SegmentLog(config).build().unwrap();
            let disk_engine = engine_kind.build_with_backend(&master, backend).unwrap();
            let (disk_report, disk_view) = run_on(
                disk_engine.as_ref(),
                strategy,
                360,
                7,
                Some(LeakagePolicy::TranscriptOnly),
            );
            assert_eq!(
                scan_report, disk_report,
                "report mismatch on disk-backed indexes for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                scan_view, disk_view,
                "adversary view mismatch on disk-backed indexes for {engine_kind:?}/{strategy:?}"
            );
        }
    }
}

#[test]
fn permissive_indexes_release_identical_answers_with_declared_leakage() {
    let master = MasterKey::from_bytes([0xC9; 32]);
    for engine_kind in EngineKind::ALL {
        for strategy in [StrategyKind::Set, StrategyKind::DpTimer] {
            let scan_engine = engine_kind.build(&master);
            let (scan_report, scan_view) = run_on(scan_engine.as_ref(), strategy, 360, 7, None);

            let index_engine = engine_kind.build(&master);
            let (index_report, index_view) = run_on(
                index_engine.as_ref(),
                strategy,
                360,
                7,
                Some(LeakagePolicy::AllowIndexedVolume),
            );

            // Released answers are pinned bit for bit — for Crypt-ε this
            // includes the noisy answers, because an indexed read perturbs
            // the same exact aggregate with the same caller-RNG draw.
            let context = format!("{engine_kind:?}/{strategy:?}");
            assert_answers_match(&scan_report, &index_report, &context);
            // The update pattern (Definition 2) is independent of the read
            // plan: only query observations may differ, and only by the
            // declared indexed fetch volumes.
            assert_eq!(
                scan_view.update_pattern(),
                index_view.update_pattern(),
                "update pattern mismatch for {context}"
            );
            assert_eq!(
                scan_view.update_events(),
                index_view.update_events(),
                "update events mismatch for {context}"
            );
            assert!(
                index_view.queries().iter().any(|o| o.kind == "index"),
                "at least one read must be served by the index for {context}"
            );
        }
    }
}

#[test]
fn indexes_over_tcp_match_in_process_runs() {
    let master = MasterKey::from_bytes([0xC9; 32]);
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("loopback server binds");

    for engine_kind in EngineKind::ALL {
        // The index-free in-process baseline every leg must reproduce.
        let scan_engine = engine_kind.build(&master);
        let (scan_report, scan_view) =
            run_on(scan_engine.as_ref(), StrategyKind::DpTimer, 240, 13, None);

        // TranscriptOnly over the wire: `RegisterIndex` frames cross the
        // loopback, reads stay scans, and the whole transcript is pinned.
        let remote_engine = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(engine_kind, &master, BackendRequest::Memory))
            .expect("session opens");
        let (remote_report, remote_view) = run_on(
            &remote_engine,
            StrategyKind::DpTimer,
            240,
            13,
            Some(LeakagePolicy::TranscriptOnly),
        );
        assert_eq!(
            scan_report, remote_report,
            "report mismatch for remote transcript-only indexes on {engine_kind:?}"
        );
        assert_eq!(
            scan_view, remote_view,
            "adversary view mismatch for remote transcript-only indexes on {engine_kind:?}"
        );

        // Permissive over the wire vs permissive in process: `QueryIndexed`
        // frames (entropy sub-protocol included for Crypt-ε) must land on
        // the exact same report and transcript as the local indexed run.
        let local_engine = engine_kind.build(&master);
        let (local_report, local_view) = run_on(
            local_engine.as_ref(),
            StrategyKind::DpTimer,
            240,
            13,
            Some(LeakagePolicy::AllowIndexedVolume),
        );
        let remote_engine = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(engine_kind, &master, BackendRequest::Memory))
            .expect("session opens");
        let (remote_report, remote_view) = run_on(
            &remote_engine,
            StrategyKind::DpTimer,
            240,
            13,
            Some(LeakagePolicy::AllowIndexedVolume),
        );
        assert_eq!(
            local_report, remote_report,
            "report mismatch for remote permissive indexes on {engine_kind:?}"
        );
        assert_eq!(
            local_view, remote_view,
            "adversary view mismatch for remote permissive indexes on {engine_kind:?}"
        );
    }
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn remote_index_registration_and_errors_cross_the_wire() {
    use dpsync_crypto::RecordCryptor;
    use dpsync_dp::DpRng;
    use dpsync_edb::emm::IndexDef;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::sogdb::EdbError;

    let master = MasterKey::from_bytes([0xCA; 32]);
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("loopback server binds");
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory))
        .expect("session opens");

    let mut cryptor = RecordCryptor::new(&master);
    let rows: Vec<Row> = (0..30).map(|i| row(i, 40 + i as i64)).collect();
    remote
        .setup("yellow", schema(), encrypt_batch(&mut cryptor, &rows, 4))
        .unwrap();
    let def = IndexDef::new("idx_yellow_pickup_id", "yellow", "pickup_id").unwrap();
    remote.register_index(&def).unwrap();
    // Idempotent re-registration crosses the wire cleanly.
    remote.register_index(&def).unwrap();

    // The indexed answer equals the scan answer bit for bit.
    let q1 = paper_queries::q1_range_count("yellow");
    let mut rng = DpRng::seed_from_u64(5);
    let scanned = remote.query(&q1, &mut rng).unwrap();
    let mut rng = DpRng::seed_from_u64(5);
    let indexed = remote
        .query_indexed("idx_yellow_pickup_id", &q1, &mut rng)
        .unwrap();
    assert_eq!(scanned.answer, indexed.answer);
    assert!(indexed.estimated_seconds < scanned.estimated_seconds);

    // Error surfaces round-trip with their wire tags: an unknown index…
    let mut rng = DpRng::seed_from_u64(6);
    match remote.query_indexed("nope", &q1, &mut rng) {
        Err(EdbError::UnknownIndex(name)) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownIndex, got {other:?}"),
    }
    // …a conflicting re-registration…
    let clash = IndexDef::new("idx_yellow_pickup_id", "yellow", "pick_time").unwrap();
    match remote.register_index(&clash) {
        Err(EdbError::InvalidIndex(_)) => {}
        other => panic!("expected InvalidIndex, got {other:?}"),
    }
    // …and a query the index cannot serve.
    let wrong_table = paper_queries::q1_range_count("green");
    let mut rng = DpRng::seed_from_u64(7);
    match remote.query_indexed("idx_yellow_pickup_id", &wrong_table, &mut rng) {
        Err(EdbError::InvalidIndex(_)) => {}
        other => panic!("expected InvalidIndex, got {other:?}"),
    }
    assert_eq!(server.handler_panics(), 0);
}
