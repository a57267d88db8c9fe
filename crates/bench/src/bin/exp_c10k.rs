//! `exp_c10k` — the reactor server under C10k-style load on loopback.
//!
//! Opens `--connections` real TCP connections against an in-process
//! [`EdbTcpServer`] (shared-mode, `ObliDB` engine), multiplexes `--mux`
//! logical owner sessions over each, and drives `--ticks` interleaved
//! `Π_Update` ticks per session, measuring per-request latency the whole
//! way.  Every session owns its own table, so the workload exercises the
//! sharded server storage exactly like thousands of independent owners.
//!
//! The run is only accepted when three invariants hold:
//!
//! 1. the server sustained every connection concurrently
//!    (`peak_connections >= --connections`),
//! 2. zero handler panics and zero deadline-reaped connections, and
//! 3. the server's merged adversary-view transcript is **byte-identical**
//!    to a single-threaded in-process reference run of the same workload —
//!    the Definition-2 check: neither readiness scheduling, worker-pool
//!    interleaving nor session multiplexing may be visible in the
//!    transcript.
//!
//! Usage:
//!
//! ```text
//! exp_c10k [--connections 1000] [--mux 2] [--ticks 3] [--drivers 16] [--seed S]
//! ```
//!
//! Exits nonzero when any invariant fails, so CI can gate on it directly.

use dpsync_bench::cli::{self, unknown, Args, CliError};
use dpsync_bench::perf::{connect_with_retry, format_throughput, percentile};
use dpsync_bench::report::TextTable;
use dpsync_crypto::{MasterKey, RecordCryptor};
use dpsync_edb::engines::base::encrypt_batch;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{DataType, Row, Schema, Value};
use dpsync_net::{EdbTcpServer, EngineProvider, MuxSession, ServeOptions};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct Config {
    connections: usize,
    mux: usize,
    ticks: u64,
    drivers: usize,
    seed: u64,
}

fn parse(args: &mut Args) -> Result<Config, CliError> {
    let mut config = Config {
        connections: 1000,
        mux: 2,
        ticks: 3,
        drivers: 16,
        seed: 2021,
    };
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--connections" => config.connections = args.value(&flag)?,
            "--mux" => config.mux = args.value(&flag)?,
            "--ticks" => config.ticks = args.value(&flag)?,
            "--drivers" => config.drivers = args.value(&flag)?,
            "--seed" => config.seed = args.value(&flag)?,
            _ => return Err(unknown(&flag)),
        }
    }
    config.connections = config.connections.max(1);
    config.mux = config.mux.max(1);
    config.drivers = config.drivers.clamp(1, config.connections);
    Ok(config)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("pick_time", DataType::Timestamp), ("fare", DataType::Int)])
}

fn table_name(session: usize) -> String {
    format!("owners_{session:05}")
}

/// The deterministic per-session arrival stream: one real row per tick, plus
/// one dummy every third tick, so merged per-tick volumes vary but are a pure
/// function of `(session, tick)` — identical in the remote and reference runs.
fn tick_rows(session: usize, tick: u64, seed: u64) -> (Vec<Row>, usize) {
    let mix = seed ^ (session as u64).wrapping_mul(0x9E37_79B9) ^ tick;
    let rows = vec![Row::new(vec![
        Value::Timestamp(tick),
        Value::Int((mix % 500) as i64),
    ])];
    let dummies = tick.is_multiple_of(3) as usize;
    (rows, dummies)
}

fn setup_rows(session: usize, seed: u64) -> Vec<Row> {
    let mix = seed ^ (session as u64).wrapping_mul(0x517C_C1B7);
    vec![Row::new(vec![
        Value::Timestamp(0),
        Value::Int((mix % 500) as i64),
    ])]
}

/// Runs one session's full lifecycle against `engine`, encrypting with the
/// shared master key and reporting each `Π_Update` latency through `lat`.
fn drive_session(
    engine: &dyn SecureOutsourcedDatabase,
    master: &MasterKey,
    session: usize,
    phase: SessionPhase,
    seed: u64,
    lat: &mut Vec<u64>,
) {
    let mut cryptor = RecordCryptor::new(master);
    match phase {
        SessionPhase::Setup => {
            let records = encrypt_batch(&mut cryptor, &setup_rows(session, seed), 0);
            engine
                .setup(&table_name(session), schema(), records)
                .expect("setup succeeds");
        }
        SessionPhase::Tick(t) => {
            let (rows, dummies) = tick_rows(session, t, seed);
            let records = encrypt_batch(&mut cryptor, &rows, dummies);
            let started = Instant::now();
            engine
                .update(&table_name(session), t, records)
                .expect("update succeeds");
            lat.push(started.elapsed().as_nanos() as u64);
        }
    }
}

#[derive(Clone, Copy)]
enum SessionPhase {
    Setup,
    Tick(u64),
}

/// The single-threaded in-process reference: the same workload, session by
/// session in index order, against a fresh engine on the calling thread.
fn reference_transcript(
    master: &MasterKey,
    sessions: usize,
    ticks: u64,
    seed: u64,
) -> ObliDbEngine {
    let engine = ObliDbEngine::new(master);
    let mut sink = Vec::new();
    for session in 0..sessions {
        drive_session(
            &engine,
            master,
            session,
            SessionPhase::Setup,
            seed,
            &mut sink,
        );
    }
    for t in 1..=ticks {
        for session in 0..sessions {
            drive_session(
                &engine,
                master,
                session,
                SessionPhase::Tick(t),
                seed,
                &mut sink,
            );
        }
    }
    engine
}

fn format_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

fn main() {
    let config = cli::parse_env(
        "exp_c10k",
        "usage: exp_c10k [--connections 1000] [--mux 2] [--ticks 3] [--drivers 16] [--seed S]",
        parse,
    );
    let sessions_total = config.connections * config.mux;
    println!(
        "C10k reactor load — {} connections x {} sessions, {} ticks, {} drivers (seed {})\n",
        config.connections, config.mux, config.ticks, config.drivers, config.seed
    );

    let master = MasterKey::from_bytes([0xC1; 32]);
    let shared = Arc::new(ObliDbEngine::new(&master));
    let server = EdbTcpServer::bind_with_options(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&shared) as Arc<dyn SecureOutsourcedDatabase>),
        ServeOptions {
            // Generous: thousands of sessions sharing one core mean an
            // individual request can legitimately queue for a while.
            io_deadline: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .expect("loopback server binds");
    let addr = server.local_addr();

    // Shard the connections across driver threads; each driver owns its
    // connections' sessions end to end.  Session indices are global so every
    // session has a unique table.
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); config.drivers];
    for c in 0..config.connections {
        shards[c % config.drivers].push(c);
    }
    // All drivers hold their connections open across this barrier, so the
    // server's peak-connection counter must reach the full count.
    let all_connected = Arc::new(Barrier::new(config.drivers));
    let ticks_started = Arc::new(Barrier::new(config.drivers + 1));

    let started = Instant::now();
    let (latencies, connect_elapsed) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for shard in &shards {
            let all_connected = Arc::clone(&all_connected);
            let ticks_started = Arc::clone(&ticks_started);
            let master = &master;
            let config = &config;
            handles.push(scope.spawn(move || {
                // Connect phase: open every connection and session in the
                // shard, run the setups, then rendezvous.
                let mut sessions: Vec<(usize, MuxSession)> = Vec::new();
                let mut lat = Vec::new();
                for &c in shard {
                    let conn = connect_with_retry(addr);
                    for m in 0..config.mux {
                        let session_index = c * config.mux + m;
                        let session = conn.open_shared().expect("session opens");
                        drive_session(
                            &session,
                            master,
                            session_index,
                            SessionPhase::Setup,
                            config.seed,
                            &mut lat,
                        );
                        sessions.push((session_index, session));
                    }
                }
                all_connected.wait();
                ticks_started.wait();

                // Tick phase: interleave every session's updates, tick by
                // tick, measuring each request.
                lat.reserve(sessions.len() * config.ticks as usize);
                for t in 1..=config.ticks {
                    for (session_index, session) in &sessions {
                        drive_session(
                            session,
                            master,
                            *session_index,
                            SessionPhase::Tick(t),
                            config.seed,
                            &mut lat,
                        );
                    }
                }
                lat
            }));
        }

        ticks_started.wait();
        let connect_elapsed = started.elapsed();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("driver thread completes"));
        }
        (all, connect_elapsed)
    });
    let total_elapsed = started.elapsed();
    let tick_elapsed = total_elapsed.saturating_sub(connect_elapsed);

    // Every driver is done; the server-side transcript is stable.  Read it
    // straight off the shared engine (the same object the server serves).
    let remote_view = shared.adversary_view();
    let peak_connections = server.stats().peak_connections();
    let peak_outbound = server.stats().peak_outbound_bytes();
    let reaped = server.stats().reaped_connections();
    let panics = server.handler_panics();

    println!("replaying the single-threaded in-process reference...");
    let reference = reference_transcript(&master, sessions_total, config.ticks, config.seed);
    let reference_view = reference.adversary_view();
    let transcript_ok = remote_view == reference_view;

    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let updates = sorted.len() as u64;
    let records_ingested: u64 = (0..sessions_total)
        .map(|s| {
            (1..=config.ticks)
                .map(|t| {
                    let (rows, dummies) = tick_rows(s, t, config.seed);
                    (rows.len() + dummies) as u64
                })
                .sum::<u64>()
        })
        .sum();
    let rec_per_sec = if tick_elapsed.as_nanos() > 0 {
        records_ingested as f64 * 1e9 / tick_elapsed.as_nanos() as f64
    } else {
        0.0
    };

    let mut table = TextTable::new(["metric", "value"]);
    table.add_row(["connections sustained", &peak_connections.to_string()]);
    table.add_row(["owner sessions", &sessions_total.to_string()]);
    table.add_row(["update requests", &updates.to_string()]);
    table.add_row(["records ingested", &records_ingested.to_string()]);
    table.add_row([
        "connect+setup time",
        &format!("{:.2} s", connect_elapsed.as_secs_f64()),
    ]);
    table.add_row([
        "tick wall time",
        &format!("{:.2} s", tick_elapsed.as_secs_f64()),
    ]);
    table.add_row(["ingest throughput", &format_throughput(rec_per_sec)]);
    table.add_row(["update latency p50", &format_ms(percentile(&sorted, 0.50))]);
    table.add_row(["update latency p99", &format_ms(percentile(&sorted, 0.99))]);
    table.add_row(["peak outbound backlog", &format!("{peak_outbound} B")]);
    table.add_row(["reaped connections", &reaped.to_string()]);
    table.add_row(["handler panics", &panics.to_string()]);
    print!("{}", table.render());

    let mut failures = Vec::new();
    if peak_connections < config.connections {
        failures.push(format!(
            "only {} of {} connections were concurrently open",
            peak_connections, config.connections
        ));
    }
    if panics != 0 {
        failures.push(format!("{panics} handler panic(s)"));
    }
    if reaped != 0 {
        failures.push(format!("{reaped} connection(s) were deadline-reaped"));
    }
    if !transcript_ok {
        failures.push("merged transcript diverged from the single-threaded reference".into());
    }

    if failures.is_empty() {
        println!(
            "\ntranscript: merged server view is byte-identical to the in-process reference \
             ({} update events)",
            remote_view.update_events().len()
        );
    } else {
        for f in &failures {
            eprintln!("\nFAILED: {f}");
        }
        std::process::exit(1);
    }
}
