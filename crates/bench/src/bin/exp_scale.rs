//! `exp_scale` — the million-owner scale harness over the sparse-tick
//! scheduler.
//!
//! Generates a seed-deterministic fleet with the open-loop generator
//! (`dpsync_workloads::scale`: heavy-tailed per-owner rates, diurnal bursts,
//! flash crowds, owner churn) and drives it through
//! [`Simulation::run_sparse`] — in-process against a shared `ObliDB` engine
//! by default, or through the reactor tier with `--transport tcp` (real
//! loopback sockets, `--connections` multiplexed connections × `--mux`
//! sessions each, owners round-robined over the session pool).
//!
//! Before the measured run, a small **self-check** replays a few hundred
//! owners (with churn) twice — once with every strategy wrapped in
//! [`EveryTick`], so every owner is consulted at every tick, and once on the
//! strategies' native wake schedule — and requires byte-identical normalized
//! reports and adversary views: the same invariant the
//! `sparse_tick_equivalence` suite pins, re-verified at the harness's own
//! workload shape on every invocation.
//!
//! Output: a metrics table (sync lag, dummy overhead, update-latency
//! percentiles, ingest throughput) plus an optional BENCH-format JSON report
//! (`--out FILE`) with entries:
//!
//! * `scale_ingest` — wall-clock ns per outsourced record / records per
//!   second over the whole simulated run;
//! * `scale_update_p50` / `scale_update_p99` — `Π_Update` request latency
//!   percentiles (ns) at the sustained load;
//! * `scale_sync_lag` — mean logical gap in **records** (carried in the
//!   `median_ns_per_op` field; `throughput_per_sec` carries the final gap);
//! * `scale_dummy_overhead` — dummy records as a **percentage** of all
//!   outsourced records (in `median_ns_per_op`);
//! * `scale_analytics` — p50 analyst-query latency (ns).  With `--views` the
//!   recurring Q1/Q2 analytics are served from incrementally maintained
//!   materialized views, so this stays flat as the fleet grows; without it,
//!   every pose is a full scan over the outsourced volume.
//!
//! Usage:
//!
//! ```text
//! exp_scale [--owners 100000] [--horizon 1440] [--strategy dp-timer]
//!           [--seed 2021] [--transport inproc|tcp] [--connections 64]
//!           [--mux 4] [--views] [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` shrinks the fleet to 20 000 owners over 480 ticks for CI.
//! SET and DP-ANT wake every owner every tick (their `next_wake` is dense),
//! so at 10^5+ owners prefer SUR/OTO/DP-Timer.  Exits nonzero when the
//! self-check diverges or (TCP) the server reaps connections or panics.

use dpsync_bench::cli::{self, unknown, Args, CliError};
use dpsync_bench::perf::{
    connect_with_retry, format_throughput, percentile, BenchReport, BenchResult, REPORT_VERSION,
};
use dpsync_bench::report::TextTable;
use dpsync_bench::{StrategyParams, TransportKind};
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{EveryTick, StrategyKind};
use dpsync_crypto::{EncryptedRecord, MasterKey};
use dpsync_edb::cost::CostModel;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::leakage::LeakageProfile;
use dpsync_edb::query::Predicate;
use dpsync_edb::sogdb::{EdbError, SecureOutsourcedDatabase, TableStats};
use dpsync_edb::{AdversaryView, Query, QueryOutcome, Schema, ViewDef};
use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection, ServeOptions};
use dpsync_workloads::scale::ScaleProfile;
use rand::RngCore;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Config {
    owners: usize,
    horizon: u64,
    strategy: StrategyKind,
    seed: u64,
    transport: TransportKind,
    connections: usize,
    mux: usize,
    views: bool,
    smoke: bool,
    out: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            owners: 100_000,
            horizon: 1440,
            strategy: StrategyKind::DpTimer,
            seed: 2021,
            transport: TransportKind::Inproc,
            connections: 64,
            mux: 4,
            views: false,
            smoke: false,
            out: None,
        }
    }
}

const USAGE: &str =
    "usage: exp_scale [--owners N] [--horizon T] [--strategy sur|oto|set|dp-timer|dp-ant] \
     [--seed S] [--transport inproc|tcp] [--connections N] [--mux M] [--views] [--smoke] \
     [--out FILE]";

fn parse(args: &mut Args) -> Result<Config, CliError> {
    let mut config = Config::default();
    let (mut owners, mut horizon) = (None, None);
    while let Some(flag) = args.next_arg()? {
        match flag.as_str() {
            "--owners" => owners = Some(args.value(&flag)?),
            "--horizon" => horizon = Some(args.value(&flag)?),
            "--strategy" => {
                config.strategy = args.value_with(&flag, |v| match v {
                    "sur" => Ok(StrategyKind::Sur),
                    "oto" => Ok(StrategyKind::Oto),
                    "set" => Ok(StrategyKind::Set),
                    "dp-timer" => Ok(StrategyKind::DpTimer),
                    "dp-ant" => Ok(StrategyKind::DpAnt),
                    _ => Err("expected sur, oto, set, dp-timer or dp-ant"),
                })?;
            }
            "--seed" => config.seed = args.value(&flag)?,
            "--transport" => {
                config.transport = args.value_with(&flag, |v| {
                    TransportKind::parse(v).ok_or("expected inproc or tcp")
                })?;
            }
            "--connections" => config.connections = args.value(&flag)?,
            "--mux" => config.mux = args.value(&flag)?,
            "--views" => config.views = true,
            "--smoke" => config.smoke = true,
            "--out" => config.out = Some(args.string(&flag)?),
            _ => return Err(unknown(&flag)),
        }
    }
    // `--smoke` shrinks only the values not given explicitly.
    if config.smoke {
        config.owners = 20_000;
        config.horizon = 480;
    }
    config.owners = owners.unwrap_or(config.owners).max(1);
    config.horizon = horizon.unwrap_or(config.horizon).max(8);
    config.connections = config.connections.max(1);
    config.mux = config.mux.max(1);
    Ok(config)
}

/// Every owner's strategy parameters.
const STRATEGY: StrategyParams = StrategyParams {
    epsilon: 1.0,
    timer_period: 30,
    ant_threshold: 15,
    flush_interval: 240,
    flush_size: 15,
};

/// A pass-through engine decorator that timestamps every `Π_Update` call, so
/// the harness can report request-latency percentiles without touching the
/// engines or the scheduler.
struct LatencyProbe<'a> {
    inner: &'a dyn SecureOutsourcedDatabase,
    update_ns: Mutex<Vec<u64>>,
    query_ns: Mutex<Vec<u64>>,
}

impl<'a> LatencyProbe<'a> {
    fn new(inner: &'a dyn SecureOutsourcedDatabase) -> Self {
        Self {
            inner,
            update_ns: Mutex::new(Vec::new()),
            query_ns: Mutex::new(Vec::new()),
        }
    }

    fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.update_ns.lock().expect("probe lock"))
    }

    fn take_query_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut self.query_ns.lock().expect("probe lock"))
    }
}

impl SecureOutsourcedDatabase for LatencyProbe<'_> {
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
        let started = Instant::now();
        let result = self.inner.update(table, time, records);
        self.update_ns
            .lock()
            .expect("probe lock")
            .push(started.elapsed().as_nanos() as u64);
        result
    }

    fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        let started = Instant::now();
        let result = self.inner.query(query, rng);
        self.query_ns
            .lock()
            .expect("probe lock")
            .push(started.elapsed().as_nanos() as u64);
        result
    }

    // A decorator that swallowed these behind the trait defaults would turn
    // `--views` into a silent scan fallback (the default impls report views
    // as unsupported), so both view entry points delegate explicitly.
    fn register_view(&self, def: &ViewDef) -> Result<(), EdbError> {
        self.inner.register_view(def)
    }

    fn query_view(&self, name: &str, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
        let started = Instant::now();
        let result = self.inner.query_view(name, rng);
        self.query_ns
            .lock()
            .expect("probe lock")
            .push(started.elapsed().as_nanos() as u64);
        result
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

fn profile_for(config: &Config) -> ScaleProfile {
    ScaleProfile::new(config.owners, config.horizon, config.seed)
}

fn simulation_for(config: &Config, fleet: &[OwnerWorkload]) -> Simulation {
    // Query the first owner that is present from the start — churned owners
    // have no table until their join tick.
    let steady = fleet
        .iter()
        .find(|w| w.join_time == 0)
        .expect("at least one owner joins at t=0");
    let sim = Simulation::new(SimulationConfig {
        query_interval: (config.horizon / 4).max(1),
        size_sample_interval: (config.horizon / 2).max(1),
        // Q1/Q2 shapes from the paper, rebound to the scale schema's
        // `reading` column (the generator draws readings in 0..1000).
        queries: vec![
            (
                "Q1".into(),
                Query::Count {
                    table: steady.table.clone(),
                    predicate: Some(Predicate::Between("reading".into(), 100.0, 400.0)),
                },
            ),
            (
                "Q2".into(),
                Query::GroupByCount {
                    table: steady.table.clone(),
                    group_by: "reading".into(),
                    predicate: None,
                },
            ),
        ],
        seed: config.seed,
    });
    if config.views {
        sim.with_views()
    } else {
        sim
    }
}

/// Replays a small churn-heavy fleet with every strategy wrapped in
/// [`EveryTick`] and on the native wake schedule; any byte difference in the
/// normalized report or the adversary view aborts the run.
fn self_check(config: &Config) {
    let mut profile = ScaleProfile::new(240, 192, config.seed);
    profile.mean_rate = 0.05;
    profile.churn_fraction = 0.25;
    let fleet = profile.generate();
    let sim = simulation_for(
        &Config {
            owners: 240,
            horizon: profile.horizon,
            ..Config::default()
        },
        &fleet,
    );
    let master = MasterKey::from_bytes([0x5C; 32]);

    let reference_engine = ObliDbEngine::new(&master);
    let reference = sim
        .run_sparse(&fleet, profile.horizon, &reference_engine, &master, |_| {
            Box::new(EveryTick(STRATEGY.build(config.strategy)))
        })
        .expect("reference run succeeds")
        .normalized();

    let sparse_engine = ObliDbEngine::new(&master);
    let sparse = sim
        .run_sparse(&fleet, profile.horizon, &sparse_engine, &master, |_| {
            STRATEGY.build(config.strategy)
        })
        .expect("sparse run succeeds")
        .normalized();

    if reference != sparse || reference_engine.adversary_view() != sparse_engine.adversary_view() {
        eprintln!(
            "FAILED: sparse-tick self-check diverged from the every-tick reference \
             (strategy {:?}); not running the measured workload",
            config.strategy
        );
        std::process::exit(1);
    }
    println!(
        "self-check: sparse and every-tick schedules byte-identical on {} churn owners / {} ticks",
        profile.owners, profile.horizon
    );
}

struct RunOutcome {
    report: dpsync_core::metrics::SimulationReport,
    update_latencies_ns: Vec<u64>,
    query_latencies_ns: Vec<u64>,
    wall: Duration,
    server_failures: Vec<String>,
}

fn run_inproc(
    config: &Config,
    fleet: &[OwnerWorkload],
    sim: &Simulation,
    master: &MasterKey,
) -> RunOutcome {
    let engine = ObliDbEngine::new(master);
    let probe = LatencyProbe::new(&engine);
    let started = Instant::now();
    let report = sim
        .run_sparse(fleet, config.horizon, &probe, master, |_| {
            STRATEGY.build(config.strategy)
        })
        .expect("simulation succeeds");
    RunOutcome {
        report,
        update_latencies_ns: {
            let mut v = probe.take_latencies();
            v.sort_unstable();
            v
        },
        query_latencies_ns: {
            let mut v = probe.take_query_latencies();
            v.sort_unstable();
            v
        },
        wall: started.elapsed(),
        server_failures: Vec::new(),
    }
}

fn run_tcp(
    config: &Config,
    fleet: &[OwnerWorkload],
    sim: &Simulation,
    master: &MasterKey,
) -> RunOutcome {
    let shared = Arc::new(ObliDbEngine::new(master));
    let server = EdbTcpServer::bind_with_options(
        "127.0.0.1:0",
        EngineProvider::Shared(Arc::clone(&shared) as Arc<dyn SecureOutsourcedDatabase>),
        ServeOptions {
            io_deadline: Duration::from_secs(60),
            ..Default::default()
        },
    )
    .expect("loopback server binds");
    let addr = server.local_addr();

    // A bounded pool of multiplexed sessions; owners are round-robined over
    // it.  One extra session carries the analyst's queries and size samples.
    let connections: Vec<MuxConnection> = (0..config.connections)
        .map(|_| connect_with_retry(addr))
        .collect();
    let sessions: Vec<_> = connections
        .iter()
        .flat_map(|conn| (0..config.mux).map(|_| conn.open_shared().expect("session opens")))
        .collect();
    let analyst_session = connections[0].open_shared().expect("analyst session opens");
    let analyst_probe = LatencyProbe::new(&analyst_session as &dyn SecureOutsourcedDatabase);
    let probes: Vec<LatencyProbe<'_>> = sessions
        .iter()
        .map(|s| LatencyProbe::new(s as &dyn SecureOutsourcedDatabase))
        .collect();
    let owner_engines: Vec<&dyn SecureOutsourcedDatabase> = (0..fleet.len())
        .map(|i| &probes[i % probes.len()] as &dyn SecureOutsourcedDatabase)
        .collect();

    let started = Instant::now();
    let report = sim
        .run_sparse_multi(
            fleet,
            config.horizon,
            &owner_engines,
            &analyst_probe,
            master,
            |_| STRATEGY.build(config.strategy),
        )
        .expect("simulation succeeds");
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = probes
        .iter()
        .flat_map(LatencyProbe::take_latencies)
        .collect();
    latencies.sort_unstable();
    let mut query_latencies = analyst_probe.take_query_latencies();
    query_latencies.sort_unstable();

    let mut server_failures = Vec::new();
    if server.handler_panics() != 0 {
        server_failures.push(format!("{} handler panic(s)", server.handler_panics()));
    }
    if server.stats().reaped_connections() != 0 {
        server_failures.push(format!(
            "{} connection(s) were deadline-reaped",
            server.stats().reaped_connections()
        ));
    }
    RunOutcome {
        report,
        update_latencies_ns: latencies,
        query_latencies_ns: query_latencies,
        wall,
        server_failures,
    }
}

fn main() {
    let config = cli::parse_env("exp_scale", USAGE, parse);
    let transport_label = match config.transport {
        TransportKind::Inproc => "inproc".to_string(),
        TransportKind::Tcp => format!("tcp ({}x{} sessions)", config.connections, config.mux),
    };
    println!(
        "scale harness — {} owners, {} ticks, {} strategy, {} transport, analytics via {} (seed {})\n",
        config.owners,
        config.horizon,
        config.strategy.label(),
        transport_label,
        if config.views {
            "materialized views"
        } else {
            "full scans"
        },
        config.seed
    );

    self_check(&config);

    let profile = profile_for(&config);
    println!(
        "generating fleet (≈{:.0} expected arrival events)...",
        profile.expected_events()
    );
    let fleet = profile.generate();
    let events: usize = fleet.iter().map(|w| w.arrivals.len()).sum();
    let churned = fleet
        .iter()
        .filter(|w| w.join_time > 0 || w.leave_time.is_some())
        .count();
    let sim = simulation_for(&config, &fleet);
    let master = MasterKey::from_bytes([0x5C; 32]);

    println!(
        "running {} owners ({events} arrival events, {churned} churned)...\n",
        fleet.len()
    );
    let outcome = match config.transport {
        TransportKind::Inproc => run_inproc(&config, &fleet, &sim, &master),
        TransportKind::Tcp => run_tcp(&config, &fleet, &sim, &master),
    };

    let report = &outcome.report;
    let sizes = report.final_sizes().expect("at least one size sample");
    let outsourced = sizes.outsourced_records.max(1);
    let dummy_pct = sizes.dummy_records as f64 * 100.0 / outsourced as f64;
    let mean_gap = report.mean_logical_gap();
    let wall_s = outcome.wall.as_secs_f64();
    let ingest_per_sec = sizes.outsourced_records as f64 / wall_s.max(1e-9);
    let updates = outcome.update_latencies_ns.len() as u64;
    let p50 = percentile(&outcome.update_latencies_ns, 0.50);
    let p99 = percentile(&outcome.update_latencies_ns, 0.99);
    let analyst_queries = outcome.query_latencies_ns.len() as u64;
    let query_p50 = percentile(&outcome.query_latencies_ns, 0.50);
    let query_p99 = percentile(&outcome.query_latencies_ns, 0.99);

    let mut table = TextTable::new(["metric", "value"]);
    table.add_row(["owners", &fleet.len().to_string()]);
    table.add_row(["arrival events", &events.to_string()]);
    table.add_row(["update requests", &updates.to_string()]);
    table.add_row(["outsourced records", &sizes.outsourced_records.to_string()]);
    table.add_row([
        "dummy overhead",
        &format!("{dummy_pct:.1}% ({} records)", sizes.dummy_records),
    ]);
    table.add_row(["sync lag (mean)", &format!("{mean_gap:.1} records")]);
    table.add_row([
        "sync lag (final)",
        &format!("{} records", sizes.logical_gap),
    ]);
    table.add_row(["wall time", &format!("{wall_s:.2} s")]);
    table.add_row(["ingest throughput", &format_throughput(ingest_per_sec)]);
    table.add_row(["update latency p50", &format!("{:.1} µs", p50 as f64 / 1e3)]);
    table.add_row(["update latency p99", &format!("{:.1} µs", p99 as f64 / 1e3)]);
    table.add_row(["analyst queries", &analyst_queries.to_string()]);
    table.add_row([
        "analytics latency p50",
        &format!("{:.1} µs", query_p50 as f64 / 1e3),
    ]);
    table.add_row([
        "analytics latency p99",
        &format!("{:.1} µs", query_p99 as f64 / 1e3),
    ]);
    print!("{}", table.render());

    let bench = BenchReport {
        version: REPORT_VERSION,
        label: format!("scale-{}", config.strategy.label().to_lowercase()),
        seed: config.seed,
        smoke: config.smoke,
        workers: match config.transport {
            TransportKind::Inproc => 1,
            TransportKind::Tcp => config.connections as u64,
        },
        results: vec![
            BenchResult {
                name: "scale_ingest".into(),
                median_ns_per_op: outcome.wall.as_nanos() as f64 / outsourced as f64,
                throughput_per_sec: ingest_per_sec,
                records_processed: sizes.outsourced_records,
                samples: 1,
            },
            BenchResult {
                name: "scale_update_p50".into(),
                median_ns_per_op: p50 as f64,
                throughput_per_sec: if p50 > 0 { 1e9 / p50 as f64 } else { 0.0 },
                records_processed: updates,
                samples: 1,
            },
            BenchResult {
                name: "scale_update_p99".into(),
                median_ns_per_op: p99 as f64,
                throughput_per_sec: if p99 > 0 { 1e9 / p99 as f64 } else { 0.0 },
                records_processed: updates,
                samples: 1,
            },
            BenchResult {
                name: "scale_sync_lag".into(),
                median_ns_per_op: mean_gap,
                throughput_per_sec: sizes.logical_gap as f64,
                records_processed: report.sync_count,
                samples: 1,
            },
            BenchResult {
                name: "scale_dummy_overhead".into(),
                median_ns_per_op: dummy_pct,
                throughput_per_sec: sizes.dummy_records as f64,
                records_processed: sizes.outsourced_records,
                samples: 1,
            },
            // Per-epoch analytics cost: with `--views` this is a view read
            // (flat as the fleet grows); without, a full scan (grows with
            // outsourced volume).
            BenchResult {
                name: "scale_analytics".into(),
                median_ns_per_op: query_p50 as f64,
                throughput_per_sec: if query_p50 > 0 {
                    1e9 / query_p50 as f64
                } else {
                    0.0
                },
                records_processed: analyst_queries,
                samples: 1,
            },
        ],
    };
    if let Some(path) = &config.out {
        std::fs::write(path, bench.to_json()).expect("write BENCH report");
        println!("\nBENCH report written to {path}");
    }

    if !outcome.server_failures.is_empty() {
        for f in &outcome.server_failures {
            eprintln!("\nFAILED: {f}");
        }
        std::process::exit(1);
    }
}
