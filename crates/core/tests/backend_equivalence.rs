//! Backend-equivalence suite: the storage backend must be invisible in
//! everything DP-Sync's guarantees are stated over.
//!
//! Definitions 1–4 constrain the server's *observations*, not its storage
//! medium, so swapping the in-memory backend for the durable segment log —
//! with per-batch fsync or with group commit — must leave three things
//! byte-identical on a fixed-seed workload:
//!
//! 1. every query answer the analyst receives,
//! 2. the full [`SimulationReport::normalized`] (errors, sizes, sync
//!    counts), and
//! 3. the complete adversary view (update pattern, query transcript, byte
//!    totals) that the privacy verifier consumes.
//!
//! A fourth property is durable-backend-specific: reopening a segment log
//! after a crash recovers the exact acknowledged transcript (torn-tail
//! details live in `crates/edb/tests/segment_log_recovery.rs`; here we check
//! the clean-shutdown round trip through the full simulation stack).

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
use dpsync_edb::server::ServerStorage;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(stem: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dpsync-backend-equiv-{}-{stem}",
            std::process::id()
        ));
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

/// A deterministic two-table workload with bursts and quiet stretches.
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

fn simulation(horizon: u64, seed: u64, join: bool) -> Simulation {
    let mut queries = vec![
        ("Q1".into(), paper_queries::q1_range_count("yellow")),
        ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
    ];
    if join {
        queries.push(("Q3".into(), paper_queries::q3_join_count("yellow", "green")));
    }
    Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries,
        seed,
    })
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

/// Runs one fixed-seed simulation on the given engine; returns the
/// normalized report and the final adversary view.
fn run_on(
    engine: &dyn SecureOutsourcedDatabase,
    kind: StrategyKind,
    horizon: u64,
    seed: u64,
) -> (SimulationReport, AdversaryView) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let join = matches!(engine.name(), "oblidb");
    let report = simulation(horizon, seed, join)
        .run_sparse(&workloads(horizon), horizon, engine, &master, |_| {
            strategy_for(kind)
        })
        .expect("simulation succeeds")
        .normalized();
    (report, engine.adversary_view())
}

#[test]
fn memory_and_segment_log_backends_are_byte_identical() {
    let master = MasterKey::from_bytes([0xEE; 32]);
    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            let dir = TempDir::new(&format!("{engine_kind:?}-{strategy:?}"));

            let memory_engine = engine_kind.build(&master);
            let (memory_report, memory_view) = run_on(memory_engine.as_ref(), strategy, 360, 7);

            let backend = BackendConfig::segment_log(&dir.0).build().unwrap();
            let disk_engine = engine_kind.build_with_backend(&master, backend).unwrap();
            let (disk_report, disk_view) = run_on(disk_engine.as_ref(), strategy, 360, 7);

            // Reports carry every released query answer, error, QET and
            // size sample; normalized() strips only wall-clock fields.
            assert_eq!(
                memory_report, disk_report,
                "report mismatch for {engine_kind:?}/{strategy:?}"
            );
            // The adversary transcript — what the privacy guarantee is
            // actually about — must match to the byte.
            assert_eq!(
                memory_view, disk_view,
                "adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{memory_view:?}"),
                format!("{disk_view:?}"),
                "debug rendering must also be byte-identical"
            );

            // Group commit only reschedules when fdatasync runs; the
            // transcript the adversary sees must not move by a byte.
            let group_dir = TempDir::new(&format!("{engine_kind:?}-{strategy:?}-group"));
            let config =
                SegmentLogConfig::new(&group_dir.0).with_group_commit(GroupCommitConfig::default());
            let backend = BackendConfig::SegmentLog(config).build().unwrap();
            let group_engine = engine_kind.build_with_backend(&master, backend).unwrap();
            let (group_report, group_view) = run_on(group_engine.as_ref(), strategy, 360, 7);
            assert_eq!(
                memory_report, group_report,
                "report mismatch under group commit for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                memory_view, group_view,
                "adversary view mismatch under group commit for {engine_kind:?}/{strategy:?}"
            );
        }
    }
}

#[test]
fn segment_log_survives_a_clean_restart_with_the_exact_transcript() {
    let dir = TempDir::new("restart");
    let master = MasterKey::from_bytes([0xEE; 32]);
    let config = BackendConfig::SegmentLog(SegmentLogConfig::new(&dir.0));

    let view_before = {
        let engine = EngineKind::ObliDb
            .build_with_backend(&master, config.build().unwrap())
            .unwrap();
        let (_, view) = run_on(engine.as_ref(), StrategyKind::DpTimer, 240, 13);
        view
    };

    // Reopen the same directory cold, exactly as a restarted server would:
    // the update pattern and byte totals are rebuilt from the segments alone
    // (query observations are process-local and compared without them).
    let storage = ServerStorage::with_backend(config.build().unwrap()).unwrap();
    let recovered = storage.adversary_view();
    assert_eq!(recovered.update_pattern(), view_before.update_pattern());
    assert_eq!(
        recovered.total_ciphertext_bytes(),
        view_before.total_ciphertext_bytes()
    );
    assert!(recovered.queries().is_empty());
}

#[test]
fn recovered_ciphertexts_decrypt_to_the_original_rows() {
    // End-to-end durability: after a simulated restart, scanning the segment
    // log and decrypting yields exactly the rows the owner uploaded — the
    // outsourced database itself survives, not just its transcript.
    use dpsync_core::strategy::SynchronizeUponReceipt;
    use dpsync_core::{Owner, Timestamp};
    use dpsync_crypto::RecordCryptor;
    use dpsync_dp::DpRng;

    let dir = TempDir::new("decrypt");
    let master = MasterKey::from_bytes([0x42; 32]);
    let config = BackendConfig::SegmentLog(SegmentLogConfig::new(&dir.0));

    {
        let engine = EngineKind::ObliDb
            .build_with_backend(&master, config.build().unwrap())
            .unwrap();
        let mut owner = Owner::new(
            "events",
            schema(),
            &master,
            Box::new(SynchronizeUponReceipt::new()),
        );
        let mut rng = DpRng::seed_from_u64(3);
        owner
            .setup(vec![row(0, 1), row(0, 2)], engine.as_ref(), &mut rng)
            .unwrap();
        for t in 1..=10u64 {
            owner
                .tick(Timestamp(t), &[row(t, t as i64)], engine.as_ref(), &mut rng)
                .unwrap();
        }
    }

    let storage = ServerStorage::with_backend(config.build().unwrap()).unwrap();
    let cryptor = RecordCryptor::new(&master);
    let mut ids = Vec::new();
    storage
        .scan_table("events", &mut |ciphertext| {
            let record = dpsync_crypto::EncryptedRecord::from_bytes(ciphertext)
                .expect("stored ciphertexts frame correctly");
            let plaintext = cryptor.decrypt(&record).expect("owner key decrypts");
            assert!(!plaintext.is_dummy, "SUR uploads no dummies");
            let row = Row::from_bytes(&plaintext.payload).expect("rows decode");
            ids.push(row.value(1).unwrap().as_i64().unwrap());
        })
        .expect("table exists")
        .expect("scan succeeds");
    assert_eq!(ids, vec![1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
}
