//! Remote mode: run the full DP-Sync stack against a server on the other
//! side of a TCP socket — and verify the transport changes nothing.
//!
//! DP-Sync's model is an *outsourced* database: the owner and the analyst
//! sit on one side of a trust boundary, the untrusted server on the other.
//! This example makes that boundary physical.  It starts an
//! [`EdbTcpServer`] on a loopback port (the in-process stand-in for a
//! `dpsync-serve` deployment), opens one session on a [`MuxConnection`] of
//! its own, and replays a fixed-seed DP-Timer month over the socket — then
//! replays the identical workload in-process and shows that the simulation
//! report and, more importantly, the server's adversary view are
//! byte-identical.  The wire adds latency, never leakage.
//!
//! Run with: `cargo run --example remote_sync`

use dp_sync::core::simulation::{Simulation, SimulationConfig};
use dp_sync::core::sparse::OwnerWorkload;
use dp_sync::core::strategy::{CacheFlush, DpTimerStrategy};
use dp_sync::crypto::MasterKey;
use dp_sync::dp::Epsilon;
use dp_sync::edb::engines::EngineKind;
use dp_sync::edb::query::paper_queries;
use dp_sync::edb::sogdb::SecureOutsourcedDatabase;
use dp_sync::edb::{DataType, Row, Schema, Value};
use dp_sync::net::wire::BackendRequest;
use dp_sync::net::{EdbTcpServer, EngineFactory, EngineProvider, MuxConnection};

fn workload(horizon: u64) -> OwnerWorkload {
    OwnerWorkload {
        table: "yellow".into(),
        schema: Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ]),
        initial_rows: (0..12)
            .map(|i| Row::new(vec![Value::Timestamp(0), Value::Int(50 + i)]))
            .collect(),
        join_time: 0,
        leave_time: None,
        arrivals: (3..=horizon)
            .step_by(3)
            .map(|t| {
                let row = Row::new(vec![Value::Timestamp(t), Value::Int((t % 150) as i64)]);
                (t, vec![row])
            })
            .collect(),
    }
}

fn simulation(horizon: u64) -> Simulation {
    Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries: vec![
            ("Q1".into(), paper_queries::q1_range_count("yellow")),
            ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
        ],
        seed: 2021,
    })
}

fn strategy() -> Box<DpTimerStrategy> {
    Box::new(DpTimerStrategy::with_flush(
        Epsilon::new_unchecked(0.5),
        30,
        Some(CacheFlush::new(300, 15)),
    ))
}

fn main() {
    const HORIZON: u64 = 720;
    let master = MasterKey::from_bytes([0x5A; 32]);

    // ---- The server side of the trust boundary. --------------------------
    let server = EdbTcpServer::bind(
        "127.0.0.1:0",
        EngineProvider::Factory(EngineFactory::default()),
    )
    .expect("bind a loopback port");
    println!("server listening on {}", server.local_addr());

    // ---- The owner/analyst side: everything below runs over the socket. ---
    let remote = MuxConnection::connect(server.local_addr())
        .and_then(|conn| conn.open_engine(EngineKind::ObliDb, &master, BackendRequest::Memory))
        .expect("open a session");
    println!(
        "session open: engine `{}`, leakage class {}",
        remote.name(),
        remote.leakage_profile().class
    );

    let remote_report = simulation(HORIZON)
        .run_sparse(&[workload(HORIZON)], HORIZON, &remote, &master, |_| {
            strategy()
        })
        .expect("remote simulation")
        .normalized();
    let remote_view = remote.adversary_view();
    println!(
        "over TCP      : {} syncs, {} update events, {} bytes outsourced, mean Q2 error {:.2}",
        remote_report.sync_count,
        remote_view.update_pattern().len(),
        remote_view.total_ciphertext_bytes(),
        remote_report.mean_l1_error("Q2"),
    );

    // ---- The identical run, in-process. -----------------------------------
    let local = EngineKind::ObliDb.build(&master);
    let local_report = simulation(HORIZON)
        .run_sparse(
            &[workload(HORIZON)],
            HORIZON,
            local.as_ref(),
            &master,
            |_| strategy(),
        )
        .expect("local simulation")
        .normalized();
    let local_view = local.adversary_view();
    println!(
        "in-process    : {} syncs, {} update events, {} bytes outsourced, mean Q2 error {:.2}",
        local_report.sync_count,
        local_view.update_pattern().len(),
        local_view.total_ciphertext_bytes(),
        local_report.mean_l1_error("Q2"),
    );

    // ---- The whole point. --------------------------------------------------
    assert_eq!(
        remote_report, local_report,
        "reports must be byte-identical"
    );
    assert_eq!(
        remote_view, local_view,
        "adversary views must be byte-identical"
    );
    println!("reports and adversary views are byte-identical across transports ✓");
    println!("(the TCP transport adds latency, not leakage)");
}
