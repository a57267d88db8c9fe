//! Cross-socket concurrency: `concurrent_owners.rs` extended over TCP.
//!
//! N owner clients — each with its *own* [`MuxConnection`] — drive M
//! tables against one shared engine behind a loopback server, interleaving
//! `Π_Update` with `Π_Query`s posed by a separate analyst client.  With a
//! barrier per time unit (no upload crosses a tick boundary; the analyst
//! runs only with all owners parked), the server's canonical merged
//! transcript must equal the transcript of a single-threaded, in-process
//! reference run — Definition 2 is about the *set* of `(t, |γ_t|)` events,
//! so neither thread interleaving nor the socket hop may be visible in it.

use dpsync_core::owner::Owner;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, StrategyKind, SyncStrategy,
    SynchronizeEveryTime, SynchronizeUponReceipt,
};
use dpsync_core::timeline::Timestamp;
use dpsync_crypto::MasterKey;
use dpsync_dp::{DpRng, Epsilon};
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::view::AdversaryView;
use dpsync_edb::{DataType, Query, QueryAnswer, Row, Schema, Value};
use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection};
use std::sync::{Arc, Barrier};
use std::thread;

const HORIZON: u64 = 240;
const TABLES: [&str; 4] = ["yellow", "green", "blue", "red"];
const QUERY_INTERVAL: u64 = 24;

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

/// Table-specific arrivals, staggered so the owners' sync schedules genuinely
/// interleave across tables.
fn arrivals(table_index: usize, t: u64) -> Vec<Row> {
    let stride = table_index as u64 + 2;
    if t.is_multiple_of(stride) {
        vec![row(t, ((t + stride) % 100) as i64)]
    } else {
        vec![]
    }
}

fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    match kind {
        StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            10,
            Some(CacheFlush::new(100, 5)),
        )),
        other => panic!("not exercised here: {other:?}"),
    }
}

fn make_owner(table: &str, master: &MasterKey, kind: StrategyKind) -> (Owner, DpRng) {
    let owner = Owner::new(table, schema(), master, strategy_for(kind));
    let rng = DpRng::seed_from_u64(41).derive(&format!("owner-ticks/{table}"));
    (owner, rng)
}

fn analyst_queries() -> Vec<Query> {
    vec![
        paper_queries::q1_range_count("yellow"),
        paper_queries::q2_group_by_count("green"),
        paper_queries::q3_join_count("blue", "red"),
    ]
}

/// Drives the full workload against `engine_for(table)` plus an analyst
/// engine handle, all on the calling thread — the reference transcript.
fn sequential_run(
    kind: StrategyKind,
    master: &MasterKey,
    engine: &dyn SecureOutsourcedDatabase,
) -> (AdversaryView, Vec<QueryAnswer>) {
    let mut owners: Vec<(Owner, DpRng)> = TABLES
        .iter()
        .map(|table| make_owner(table, master, kind))
        .collect();
    for (index, (owner, rng)) in owners.iter_mut().enumerate() {
        owner
            .setup(vec![row(0, index as i64)], engine, rng)
            .unwrap();
    }
    let mut analyst_rng = DpRng::seed_from_u64(41).derive("analyst");
    let mut answers = Vec::new();
    for t in 1..=HORIZON {
        for (index, (owner, rng)) in owners.iter_mut().enumerate() {
            let batch = arrivals(index, t);
            owner.tick(Timestamp(t), &batch, engine, rng).unwrap();
        }
        if t % QUERY_INTERVAL == 0 {
            for query in analyst_queries() {
                answers.push(engine.query(&query, &mut analyst_rng).unwrap().answer);
            }
        }
    }
    (engine.adversary_view(), answers)
}

/// The same workload with one thread + one TCP connection per owner and a
/// dedicated analyst connection, barrier-synchronized per tick.
fn concurrent_remote_run(
    kind: StrategyKind,
    master: &MasterKey,
    addr: std::net::SocketAddr,
) -> (AdversaryView, Vec<QueryAnswer>) {
    // Owners + analyst rendezvous twice per tick: once to release the
    // owners into tick t, once when every upload of tick t is done.
    let barrier = Arc::new(Barrier::new(TABLES.len() + 1));
    let mut answers = Vec::new();

    thread::scope(|scope| {
        for (index, table) in TABLES.iter().enumerate() {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let remote = MuxConnection::connect(addr)
                    .and_then(|conn| conn.open_shared())
                    .expect("owner client connects");
                let (mut owner, mut rng) = make_owner(table, master, kind);
                owner
                    .setup(vec![row(0, index as i64)], &remote, &mut rng)
                    .unwrap();
                barrier.wait(); // all setups done before tick 1
                for t in 1..=HORIZON {
                    barrier.wait();
                    let batch = arrivals(index, t);
                    owner.tick(Timestamp(t), &batch, &remote, &mut rng).unwrap();
                    barrier.wait();
                }
            });
        }

        // Analyst thread on its own connection.
        let analyst = MuxConnection::connect(addr)
            .and_then(|conn| conn.open_shared())
            .expect("analyst client connects");
        let mut analyst_rng = DpRng::seed_from_u64(41).derive("analyst");
        barrier.wait(); // setups done
        for t in 1..=HORIZON {
            barrier.wait(); // owners enter tick t
            barrier.wait(); // owners finished tick t — engine state is stable
            if t % QUERY_INTERVAL == 0 {
                for query in analyst_queries() {
                    answers.push(analyst.query(&query, &mut analyst_rng).unwrap().answer);
                }
            }
        }
        drop(analyst);
    });

    let check = MuxConnection::connect(addr)
        .and_then(|conn| conn.open_shared())
        .expect("transcript reader connects");
    (check.adversary_view(), answers)
}

#[test]
fn concurrent_remote_clients_reproduce_the_reference_transcript() {
    for kind in [StrategyKind::Sur, StrategyKind::Set, StrategyKind::DpAnt] {
        let master = MasterKey::from_bytes([8u8; 32]);

        // Reference: single thread, in-process engine.
        let reference_engine = ObliDbEngine::new(&master);
        let (reference_view, reference_answers) = sequential_run(kind, &master, &reference_engine);

        // Concurrent: one shared engine behind a loopback server, one
        // connection per owner plus one for the analyst.
        let shared: Arc<dyn SecureOutsourcedDatabase> = Arc::new(ObliDbEngine::new(&master));
        let server = EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(shared)).unwrap();
        let (remote_view, remote_answers) =
            concurrent_remote_run(kind, &master, server.local_addr());

        assert_eq!(
            reference_view, remote_view,
            "merged transcript diverged from the single-threaded reference for {kind:?}"
        );
        assert_eq!(
            reference_answers, remote_answers,
            "query answers diverged for {kind:?}"
        );
        // Sanity: the run actually produced interleavable work and queries.
        assert!(
            reference_view.update_pattern().len() > 50,
            "{kind:?} too quiet"
        );
        assert!(!reference_answers.is_empty());
        assert_eq!(server.handler_panics(), 0);
    }
}

// ---------------------------------------------------------------------------
// Reactor-mode suite: hundreds of owner sessions multiplexed over a handful
// of sockets.
// ---------------------------------------------------------------------------

/// Sockets the multiplexed suite fans in over.
const MUX_SOCKETS: usize = 8;
/// Logical owner sessions (each owning its own table) across those sockets.
const MUX_SESSIONS: usize = 256;
/// Ticks the multiplexed suite runs.
const MUX_HORIZON: u64 = 24;

fn mux_table(index: usize) -> String {
    format!("mux_{index:03}")
}

/// Strategies cycle SET → DP-Timer → DP-ANT across the session index, so
/// every strategy's sync schedule interleaves on every socket.
fn mux_strategy(index: usize) -> Box<dyn SyncStrategy> {
    match index % 3 {
        0 => Box::new(SynchronizeEveryTime::new()),
        1 => Box::new(DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(0.8),
            4,
            Some(CacheFlush::new(100, 5)),
        )),
        _ => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            6,
            Some(CacheFlush::new(100, 5)),
        )),
    }
}

fn mux_owner(index: usize, master: &MasterKey) -> (Owner, DpRng) {
    let table = mux_table(index);
    let owner = Owner::new(&table, schema(), master, mux_strategy(index));
    // The DP noise stream is a pure function of the session index, so the
    // reference and multiplexed runs draw identical noise regardless of
    // which thread or socket hosts the owner.
    let rng = DpRng::seed_from_u64(97).derive(&format!("mux-owner/{table}"));
    (owner, rng)
}

fn mux_arrivals(index: usize, t: u64) -> Vec<Row> {
    let stride = (index as u64 % 5) + 1;
    if t.is_multiple_of(stride) {
        vec![row(t, index as i64)]
    } else {
        vec![]
    }
}

/// The single-threaded in-process reference for the multiplexed suite.
fn mux_sequential_run(master: &MasterKey, engine: &dyn SecureOutsourcedDatabase) -> AdversaryView {
    let mut owners: Vec<(Owner, DpRng)> = (0..MUX_SESSIONS)
        .map(|index| mux_owner(index, master))
        .collect();
    for (index, (owner, rng)) in owners.iter_mut().enumerate() {
        owner
            .setup(vec![row(0, index as i64)], engine, rng)
            .unwrap();
    }
    for t in 1..=MUX_HORIZON {
        for (index, (owner, rng)) in owners.iter_mut().enumerate() {
            owner
                .tick(Timestamp(t), &mux_arrivals(index, t), engine, rng)
                .unwrap();
        }
    }
    engine.adversary_view()
}

/// 256 owner sessions over 8 sockets against the reactor server: one driver
/// thread per socket, each multiplexing 32 sessions, barrier-synchronized
/// per tick so no upload crosses a tick boundary.  The server's canonical
/// merged transcript must equal the single-threaded reference — neither
/// readiness scheduling, worker-pool interleaving nor session multiplexing
/// may be visible in the Definition-2 view.
#[test]
fn multiplexed_reactor_sessions_reproduce_the_reference_transcript() {
    let master = MasterKey::from_bytes([13u8; 32]);

    let reference_engine = ObliDbEngine::new(&master);
    let reference_view = mux_sequential_run(&master, &reference_engine);

    let shared: Arc<ObliDbEngine> = Arc::new(ObliDbEngine::new(&master));
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&shared) as Arc<dyn SecureOutsourcedDatabase>),
    )
    .unwrap();
    let addr = server.local_addr();

    let per_socket = MUX_SESSIONS / MUX_SOCKETS;
    let barrier = Arc::new(Barrier::new(MUX_SOCKETS));
    thread::scope(|scope| {
        for socket in 0..MUX_SOCKETS {
            let barrier = Arc::clone(&barrier);
            let master = &master;
            scope.spawn(move || {
                let conn = MuxConnection::connect(addr).expect("driver connects");
                let mut sessions: Vec<_> = (0..per_socket)
                    .map(|k| {
                        let index = socket * per_socket + k;
                        let (owner, rng) = mux_owner(index, master);
                        (index, owner, rng, conn.open_shared().expect("session"))
                    })
                    .collect();
                for (index, owner, rng, session) in sessions.iter_mut() {
                    owner
                        .setup(vec![row(0, *index as i64)], session, rng)
                        .unwrap();
                }
                barrier.wait(); // all setups done before tick 1
                for t in 1..=MUX_HORIZON {
                    barrier.wait();
                    for (index, owner, rng, session) in sessions.iter_mut() {
                        owner
                            .tick(Timestamp(t), &mux_arrivals(*index, t), session, rng)
                            .unwrap();
                    }
                    barrier.wait();
                }
            });
        }
    });

    let remote_view = shared.adversary_view();
    assert_eq!(
        reference_view, remote_view,
        "merged multiplexed transcript diverged from the single-threaded reference"
    );
    // The run exercised genuine cross-strategy interleaving.
    assert!(remote_view.update_pattern().len() > MUX_SESSIONS);
    assert_eq!(server.handler_panics(), 0);
    // 256 sessions really did share 8 sockets.
    assert_eq!(server.stats().peak_connections(), MUX_SOCKETS);
}

#[test]
fn merged_remote_transcript_is_time_ordered_with_table_tiebreak() {
    let master = MasterKey::from_bytes([8u8; 32]);
    let shared: Arc<dyn SecureOutsourcedDatabase> = Arc::new(ObliDbEngine::new(&master));
    let server = EdbTcpServer::bind("127.0.0.1:0", EngineProvider::Shared(shared)).unwrap();
    let (view, _) = concurrent_remote_run(StrategyKind::Set, &master, server.local_addr());

    let events = view.update_events();
    assert!(
        events.windows(2).all(|w| w[0].time <= w[1].time),
        "canonical transcript must be time-sorted"
    );
    // SET posts one upload per table per tick: every tick appears once per
    // owner in the merged pattern.
    let times: Vec<u64> = view.update_pattern().times();
    for t in 1..=HORIZON {
        assert_eq!(
            times.iter().filter(|&&x| x == t).count(),
            TABLES.len(),
            "tick {t} should carry one upload per owner"
        );
    }
}
