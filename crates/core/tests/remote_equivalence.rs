//! Remote/in-process equivalence suite: the TCP transport must be invisible
//! in everything DP-Sync's guarantees are stated over.
//!
//! Mirrors `backend_equivalence.rs` one layer up: where that suite swaps the
//! storage substrate, this one swaps the *transport* — the same fixed-seed
//! simulation runs once against an in-process engine and once against the
//! identical engine behind a loopback [`dpsync_net::EdbTcpServer`], through
//! one [`dpsync_net::MuxSession`] on a connection of its own.  Three things
//! must be byte-identical:
//!
//! 1. every query answer the analyst receives (including the Crypt-ε
//!    engine's *noisy* answers — the entropy sub-protocol forwards each RNG
//!    draw to the caller, so a fixed-seed analyst RNG produces the same
//!    noise on both transports),
//! 2. the full [`SimulationReport::normalized`] (errors, sizes, sync
//!    counts), and
//! 3. the complete adversary view the privacy verifier consumes.

use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
    SynchronizeEveryTime,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::engines::EngineKind;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};
use dpsync_net::{BackendRequest, EdbTcpServer, EngineFactory, EngineProvider, MuxConnection};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

/// The same deterministic two-table workload shape the backend-equivalence
/// suite uses: bursts, quiet stretches, and a second table for joins.
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
fn tcp_and_in_process_transports_are_byte_identical() {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("loopback server binds");

    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            let local_engine = engine_kind.build(&master);
            let (local_report, local_view) = run_on(local_engine.as_ref(), strategy, 360, 7);

            // A fresh connection is a fresh engine on the factory server, so
            // every (engine, strategy) cell runs against clean tables.
            let remote_engine = MuxConnection::connect(server.local_addr())
                .and_then(|conn| conn.open_engine(engine_kind, &master, BackendRequest::Memory))
                .expect("session opens");
            let (remote_report, remote_view) = run_on(&remote_engine, strategy, 360, 7);

            // Reports carry every released query answer, error, QET and size
            // sample; normalized() strips only wall-clock fields.
            assert_eq!(
                local_report, remote_report,
                "report mismatch for {engine_kind:?}/{strategy:?}"
            );
            // The adversary transcript — what the privacy guarantee is about
            // — must match to the byte, *including* the L-DP engine's noisy
            // observed response volumes.
            assert_eq!(
                local_view, remote_view,
                "adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{local_view:?}"),
                format!("{remote_view:?}"),
                "debug rendering must also be byte-identical"
            );
        }
    }
    assert_eq!(server.handler_panics(), 0);
}

#[test]
fn remote_engine_metadata_matches_in_process() {
    let master = MasterKey::from_bytes([0xED; 32]);
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .unwrap();
    for engine_kind in EngineKind::ALL {
        let local = engine_kind.build(&master);
        let remote = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(engine_kind, &master, BackendRequest::Memory))
            .unwrap();
        assert_eq!(remote.name(), local.name());
        assert_eq!(remote.leakage_profile(), local.leakage_profile());
        assert_eq!(remote.cost_model(), local.cost_model());
    }
}

#[test]
fn remote_disk_sessions_match_in_process_memory_runs() {
    // Transport and storage backend compose: a remote engine on the durable
    // segment log — per-batch fsync or group commit — still reproduces the
    // in-process in-memory run bit for bit (the backend-equivalence suite
    // already pins memory == disk in-process; this closes the square).
    let root =
        std::env::temp_dir().join(format!("dpsync-remote-equiv-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let mut server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory {
            disk_root: Some(root.clone()),
        }),
    )
    .unwrap();

    let master = MasterKey::from_bytes([0xEE; 32]);
    let local_engine = EngineKind::ObliDb.build(&master);
    let (local_report, local_view) = run_on(local_engine.as_ref(), StrategyKind::DpTimer, 240, 13);

    for backend in [BackendRequest::Disk, BackendRequest::DiskGroup] {
        let remote_engine = MuxConnection::connect(server.local_addr())
            .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, backend))
            .unwrap();
        let (remote_report, remote_view) = run_on(&remote_engine, StrategyKind::DpTimer, 240, 13);

        assert_eq!(
            local_report, remote_report,
            "report mismatch on {backend:?}"
        );
        assert_eq!(local_view, remote_view, "view mismatch on {backend:?}");
    }

    server.shutdown();
    let leftover: Vec<_> = std::fs::read_dir(&root).unwrap().collect();
    assert!(leftover.is_empty(), "disk session cleaned up: {leftover:?}");
    let _ = std::fs::remove_dir_all(&root);
}
