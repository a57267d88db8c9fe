//! The three workloads and the epoch that runs one of them through the real
//! stack: `Simulation` → `Owner`/`SyncStrategy` → `MuxSession` → reactor →
//! engine → `StorageBackend`, with the `Analyst` reading back.
//!
//! A run is a sequence of epochs.  Each epoch generates its inputs from
//! `(seed, epoch index)`, builds a fresh server (set-up, timed as `setup_s`),
//! runs one simulation to its horizon (the timed region), and is then
//! verified against an in-process replay (see [`crate::verify`]).

use crate::probes::{self, BackendProbe, ClientProbe, EngineProbe, StrategyProbe};
use crate::scratch::ScratchDir;
use crate::trace::{Recorder, Spans};
use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, SyncStrategy,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::backend::{MemoryBackend, SegmentLogConfig};
use dpsync_edb::engines::EngineKind;
use dpsync_edb::planner::LeakagePolicy;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, BackendConfig, Predicate, Query, StorageBackend, Value};
use dpsync_net::{EdbTcpServer, EngineProvider, MuxConnection, MuxSession, ServeOptions};
use dpsync_workloads::scale::ScaleProfile;
use dpsync_workloads::taxi::{TaxiConfig, TaxiDataset};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Write-heavy DP-Timer owner fleet over the reactor (ObliDB, memory).
    FleetTcp,
    /// Serial in-process DP-ANT owners on a segment log, with materialized
    /// views read often.
    DurableViews,
    /// Read-heavy analyst on Crypt-ε over the reactor, with EMM indexes.
    AnalystReadsTcp,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetTcp,
        Workload::DurableViews,
        Workload::AnalystReadsTcp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetTcp => "fleet_tcp",
            Workload::DurableViews => "durable_views",
            Workload::AnalystReadsTcp => "analyst_reads_tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine the workload runs on.
    pub fn engine_kind(self) -> EngineKind {
        match self {
            Workload::FleetTcp | Workload::DurableViews => EngineKind::ObliDb,
            Workload::AnalystReadsTcp => EngineKind::CryptEpsilon,
        }
    }

    /// A fresh instance of the workload's synchronization strategy.
    pub fn strategy(self) -> Box<dyn SyncStrategy> {
        let eps = Epsilon::new_unchecked(1.0);
        match self {
            Workload::FleetTcp => Box::new(DpTimerStrategy::with_flush(
                eps,
                30,
                Some(CacheFlush::new(240, 15)),
            )),
            Workload::DurableViews => Box::new(AboveNoisyThresholdStrategy::with_flush(
                eps,
                15,
                Some(CacheFlush::new(240, 15)),
            )),
            Workload::AnalystReadsTcp => Box::new(DpTimerStrategy::with_flush(
                eps,
                4,
                Some(CacheFlush::new(60, 15)),
            )),
        }
    }
}

/// Sizes of one epoch, per workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Owners in the fleet (`fleet_tcp`, `durable_views`).
    pub owners: usize,
    /// Simulated ticks.
    pub horizon: u64,
    /// Rows already in the analyst's large table (`analyst_reads_tcp`).
    pub large_table_rows: u64,
}

impl Scale {
    /// The sizes the benchmark runs.
    pub fn full(workload: Workload) -> Self {
        match workload {
            Workload::FleetTcp => Self {
                owners: 1600,
                horizon: 480,
                large_table_rows: 0,
            },
            Workload::DurableViews => Self {
                owners: 24,
                horizon: 1440,
                large_table_rows: 0,
            },
            Workload::AnalystReadsTcp => Self {
                owners: 3,
                horizon: 60,
                large_table_rows: 20_000,
            },
        }
    }

    /// Small sizes for tests.
    pub fn tiny(workload: Workload) -> Self {
        match workload {
            Workload::FleetTcp => Self {
                owners: 60,
                horizon: 96,
                large_table_rows: 0,
            },
            Workload::DurableViews => Self {
                owners: 6,
                horizon: 60,
                large_table_rows: 0,
            },
            Workload::AnalystReadsTcp => Self {
                owners: 3,
                horizon: 24,
                large_table_rows: 2_000,
            },
        }
    }
}

/// fleet_tcp: closed-loop driver threads (at most the core count of the
/// reference box), each on its own connection.
const FLEET_DRIVERS: usize = 2;
/// Multiplexed owner sessions per connection.
const SESSIONS_PER_CONNECTION: usize = 8;

/// The owners' master key (the engines are built with the same key).
pub fn master_key() -> MasterKey {
    MasterKey::from_bytes([0x5C; 32])
}

/// One driver thread's share of an epoch: its owners and its simulation.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Owners driven by this thread.
    pub owners: Vec<OwnerWorkload>,
    /// The simulation (its analyst poses only on the first slice).
    pub sim: Simulation,
}

/// Everything one epoch runs, generated from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// One slice per driver thread.
    pub slices: Vec<Slice>,
    /// Simulated ticks.
    pub horizon: u64,
}

impl Inputs {
    /// Generates the inputs of one epoch.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Self {
        let horizon = scale.horizon;
        let slices = match workload {
            Workload::FleetTcp => {
                let mut profile = ScaleProfile::new(scale.owners, horizon, seed);
                profile.mean_rate = 0.05;
                // Heavy-tailed but with a finite variance (the default 1.5
                // has none), so the fleet's mix, and with it every figure,
                // holds steady from seed to seed.
                profile.pareto_alpha = 2.5;
                let fleet = profile.generate();
                let per = fleet.len().div_ceil(FLEET_DRIVERS);
                fleet
                    .chunks(per)
                    .enumerate()
                    .map(|(i, owners)| {
                        // Only the first slice's analyst poses, so the query
                        // transcript has one author and a fixed order.
                        let (queries, interval) = if i == 0 {
                            let queries = busy_steady_owners(owners, 32)
                                .iter()
                                .flat_map(|table| scale_queries(table))
                                .collect();
                            (queries, (horizon / 40).max(1))
                        } else {
                            (Vec::new(), 0)
                        };
                        Slice {
                            owners: owners.to_vec(),
                            sim: Simulation::new(config(queries, interval, horizon, seed)),
                        }
                    })
                    .collect()
            }
            Workload::DurableViews => {
                let mut profile = ScaleProfile::new(scale.owners, horizon, seed);
                profile.mean_rate = 0.3;
                // Near-uniform rates: with a few tens of owners a heavy tail
                // would make the epoch's total volume a lottery, and every
                // per-record figure with it.
                profile.pareto_alpha = 20.0;
                profile.churn_fraction = 0.0;
                let owners = profile.generate();
                let queries = owners
                    .iter()
                    .take(4)
                    .flat_map(|w| scale_queries(&w.table))
                    .collect();
                vec![Slice {
                    owners,
                    sim: Simulation::new(config(queries, 6, horizon, seed)).with_views(),
                }]
            }
            Workload::AnalystReadsTcp => {
                let large = taxi_owner("yellow", scale.large_table_rows, horizon, seed);
                let small = scale.large_table_rows / 8;
                let mut owners = vec![large];
                for (i, table) in ["green", "blue"].iter().enumerate() {
                    owners.push(taxi_owner(table, small, horizon, seed ^ (i as u64 + 1)));
                }
                owners.truncate(scale.owners.max(1));
                let queries = vec![
                    ("Q1".to_string(), paper_queries::q1_range_count("yellow")),
                    (
                        "point".to_string(),
                        Query::Count {
                            table: "yellow".into(),
                            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(77))),
                        },
                    ),
                    ("Q2".to_string(), paper_queries::q2_group_by_count("yellow")),
                ];
                vec![Slice {
                    owners,
                    sim: Simulation::new(config(queries, 1, horizon, seed))
                        .with_indexes(LeakagePolicy::AllowIndexedVolume),
                }]
            }
        };
        Self {
            workload,
            slices,
            horizon,
        }
    }

    /// Mean plaintext bytes of one row, per table.
    pub fn row_bytes(&self) -> BTreeMap<String, f64> {
        self.slices
            .iter()
            .flat_map(|s| &s.owners)
            .map(|w| {
                let rows = w
                    .initial_rows
                    .iter()
                    .chain(w.arrivals.iter().flat_map(|(_, r)| r));
                let (count, bytes) = rows.fold((0u64, 0u64), |(c, b), row| {
                    (c + 1, b + row.to_bytes().len() as u64)
                });
                (w.table.clone(), bytes as f64 / count.max(1) as f64)
            })
            .collect()
    }

    /// Every table of the epoch.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.slices
            .iter()
            .flat_map(|s| s.owners.iter().map(|w| w.table.as_str()))
    }
}

fn config(
    queries: Vec<(String, Query)>,
    query_interval: u64,
    horizon: u64,
    seed: u64,
) -> SimulationConfig {
    SimulationConfig {
        query_interval,
        // One size sample at the horizon: every sample costs a
        // `table_stats` round trip per owner.
        size_sample_interval: horizon,
        queries,
        seed,
    }
}

/// `n` owners present from the start (late joiners have no table yet) whose
/// answers move: the next `n` below the `n` busiest (fewer in a small
/// fleet).  The very busiest are the Pareto tail's extremes, whose rates
/// swing from seed to seed.
fn busy_steady_owners(owners: &[OwnerWorkload], n: usize) -> Vec<String> {
    let mut steady: Vec<&OwnerWorkload> = owners.iter().filter(|w| w.join_time == 0).collect();
    steady.sort_by_key(|w| (std::cmp::Reverse(w.arrivals.len()), w.table.clone()));
    let skip = n.min(steady.len() / 2);
    steady
        .iter()
        .skip(skip)
        .take(n)
        .map(|w| w.table.clone())
        .collect()
}

/// Q1/Q2 rebound to the fleet schema's `reading` column (readings are drawn
/// in 0..1000), labelled per table so view names stay unique.
fn scale_queries(table: &str) -> Vec<(String, Query)> {
    vec![
        (
            format!("Q1_{table}"),
            Query::Count {
                table: table.to_string(),
                predicate: Some(Predicate::Between("reading".into(), 100.0, 400.0)),
            },
        ),
        (
            format!("Q2_{table}"),
            Query::GroupByCount {
                table: table.to_string(),
                group_by: "reading".into(),
                predicate: None,
            },
        ),
    ]
}

/// A taxi owner whose table already holds `initial` rows and who keeps
/// receiving trips at the generator's density over `horizon` ticks.
fn taxi_owner(table: &str, initial: u64, horizon: u64, seed: u64) -> OwnerWorkload {
    // At most one trip per minute: spread `initial` rows plus about one
    // arrival per tick over enough minutes that the density stays below 1.
    let minutes = (initial + horizon) * 6 / 5 + horizon;
    let dataset = TaxiDataset::generate(TaxiConfig {
        record_count: initial + horizon * 3 / 5,
        horizon: minutes,
        seed,
    });
    let cut = minutes - horizon;
    let mut initial_rows = Vec::new();
    let mut arrivals: Vec<(u64, Vec<_>)> = Vec::new();
    for record in dataset.records() {
        if record.pick_time <= cut {
            initial_rows.push(record.to_row());
        } else {
            arrivals.push((record.pick_time - cut, vec![record.to_row()]));
        }
    }
    OwnerWorkload {
        table: table.to_string(),
        schema: dpsync_workloads::taxi::taxi_schema(),
        initial_rows,
        join_time: 0,
        leave_time: None,
        arrivals,
    }
}

/// How much of the stack is decorated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No decorators at all (the equivalence tests' baseline).
    Plain,
    /// Client handles timed: the end-to-end metrics.
    Timed,
    /// Every layer timed: the per-layer breakdown.
    Traced,
}

/// What the server-side counters showed at the end of an epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    /// `ServerStats::peak_outbound_bytes`.
    pub peak_outbound_bytes: u64,
    /// `ServerStats::reaped_connections`.
    pub reaped: u64,
    /// `EdbTcpServer::handler_panics`.
    pub handler_panics: u64,
}

/// What verification compares: the reports of every slice and the engine's
/// adversary view.
#[derive(Debug, Clone)]
pub struct Observed {
    /// One report per slice, or the error that ended it.
    pub reports: Vec<Result<SimulationReport, String>>,
    /// The engine's adversary view at the end of the epoch.
    pub view: AdversaryView,
}

/// One epoch's measurements.
#[derive(Debug)]
pub struct Epoch {
    /// From the epoch's start to its first timed operation.
    pub setup: Duration,
    /// Wall clock of the timed region, per driver thread.
    pub walls: Vec<Duration>,
    /// Process CPU time (user + system) over the timed region.
    pub cpu: Duration,
    /// Recorded spans (client spans only unless traced).
    pub spans: Spans,
    /// Reports and adversary view.
    pub observed: Observed,
    /// Bytes the backend holds: ciphertext bytes on memory, segment-file
    /// bytes on the log.
    pub backend_bytes: u64,
    /// Plaintext bytes of the real rows the backend holds.
    pub user_bytes: f64,
    /// Server counters (zero in-process).
    pub server: ServerCounters,
}

impl Epoch {
    /// Ciphertexts acknowledged by `Π_Setup` / `Π_Update`.
    pub fn records(&self) -> u64 {
        self.spans
            .client_writes
            .iter()
            .filter(|w| w.ok)
            .map(|w| w.records)
            .sum()
    }
}

/// Process user + system CPU time, from `/proc/self/stat` (clock ticks of
/// 1/100 s, the Linux `USER_HZ`).
pub fn process_cpu() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall.
    let Some(rest) = stat.rsplit(')').next() else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Runs one epoch of `inputs` in `mode`.  `scratch_root` holds the durable
/// workload's segment logs.
pub fn run_epoch(
    inputs: &Inputs,
    mode: Mode,
    scratch_root: &Path,
    started: Instant,
) -> Result<Epoch, String> {
    let recorder = Arc::new(Recorder::default());
    let master = master_key();
    let kind = inputs.workload.engine_kind();

    let scratch = match inputs.workload {
        Workload::DurableViews => Some(
            ScratchDir::create(scratch_root).map_err(|e| format!("cannot create scratch: {e}"))?,
        ),
        _ => None,
    };
    let backend: Arc<dyn StorageBackend> = match &scratch {
        // fsync off: on a shared box fdatasync latency swings several-fold
        // between runs and would drown every code change (see README.md).
        // Every batch is still framed, checksummed and written to the log.
        Some(dir) => BackendConfig::SegmentLog(SegmentLogConfig::new(dir.path()).with_fsync(false))
            .build()
            .map_err(|e| format!("cannot open segment log: {e}"))?,
        None => Arc::new(MemoryBackend::new()),
    };
    let backend: Arc<dyn StorageBackend> = if mode == Mode::Traced {
        Arc::new(BackendProbe::new(backend, Arc::clone(&recorder)))
    } else {
        backend
    };
    let engine: Arc<dyn SecureOutsourcedDatabase> = Arc::from(
        kind.build_with_backend(&master, backend)
            .map_err(|e| format!("cannot build engine: {e}"))?,
    );
    let served: Arc<dyn SecureOutsourcedDatabase> = if mode == Mode::Traced {
        Arc::new(EngineProbe::new(Arc::clone(&engine), Arc::clone(&recorder)))
    } else {
        Arc::clone(&engine)
    };

    let over_tcp = inputs.workload != Workload::DurableViews;
    let mut server = None;
    // Per slice: owner handles and the analyst handle.
    let mut handles: Vec<(Vec<MuxSession>, MuxSession)> = Vec::new();
    if over_tcp {
        let bound = EdbTcpServer::bind_with_options(
            "127.0.0.1:0",
            EngineProvider::Shared(Arc::clone(&served)),
            ServeOptions {
                io_deadline: Duration::from_secs(60),
                ..Default::default()
            },
        )
        .map_err(|e| format!("cannot bind the loopback server: {e}"))?;
        for _ in &inputs.slices {
            let conn = MuxConnection::connect_with_timeout(
                bound.local_addr(),
                Some(Duration::from_secs(60)),
            )
            .map_err(|e| format!("cannot connect: {e}"))?;
            let sessions = (0..SESSIONS_PER_CONNECTION)
                .map(|_| conn.open_shared())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("cannot open a session: {e}"))?;
            let analyst = conn
                .open_shared()
                .map_err(|e| format!("cannot open a session: {e}"))?;
            handles.push((sessions, analyst));
        }
        server = Some(bound);
    }
    let setup = started.elapsed();

    let cpu_before = process_cpu();
    let drive = |index: usize, slice: &Slice| -> (Result<SimulationReport, String>, Duration) {
        probes::reset_thread_marks();
        // The analyst's handle is the last one.
        let raw: Vec<&dyn SecureOutsourcedDatabase> = if over_tcp {
            let (sessions, analyst) = &handles[index];
            sessions
                .iter()
                .chain(std::iter::once(analyst))
                .map(|s| s as &dyn SecureOutsourcedDatabase)
                .collect()
        } else {
            vec![served.as_ref(), served.as_ref()]
        };
        let client_probes: Vec<ClientProbe<'_>> = match mode {
            Mode::Plain => Vec::new(),
            Mode::Timed | Mode::Traced => raw
                .iter()
                .map(|h| ClientProbe::new(*h, Arc::clone(&recorder)))
                .collect(),
        };
        let mut all: Vec<&dyn SecureOutsourcedDatabase> = match mode {
            Mode::Plain => raw,
            Mode::Timed | Mode::Traced => client_probes
                .iter()
                .map(|p| p as &dyn SecureOutsourcedDatabase)
                .collect(),
        };
        let analyst_handle = all.pop().expect("the analyst handle is last");
        let owner_handles = all;
        let owner_engines: Vec<&dyn SecureOutsourcedDatabase> = (0..slice.owners.len())
            .map(|i| owner_handles[i % owner_handles.len()])
            .collect();
        let workload = inputs.workload;
        let timed_start = Instant::now();
        let report = slice.sim.run_sparse_multi(
            &slice.owners,
            inputs.horizon,
            &owner_engines,
            analyst_handle,
            &master,
            |_| {
                if mode == Mode::Traced {
                    Box::new(StrategyProbe::new(
                        workload.strategy(),
                        Arc::clone(&recorder),
                    ))
                } else {
                    workload.strategy()
                }
            },
        );
        let wall = timed_start.elapsed();
        let next_wake = probes::take_next_wake_ns();
        recorder.with(|s| s.strategy_ns += next_wake);
        (report.map_err(|e| e.to_string()), wall)
    };
    let results: Vec<(Result<SimulationReport, String>, Duration)> = std::thread::scope(|scope| {
        let threads: Vec<_> = inputs
            .slices
            .iter()
            .enumerate()
            .map(|(i, slice)| scope.spawn(move || drive(i, slice)))
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .unwrap_or_else(|_| (Err("driver thread panicked".into()), Duration::ZERO))
            })
            .collect()
    });
    let cpu = process_cpu().saturating_sub(cpu_before);

    let row_bytes = inputs.row_bytes();
    let mut memory_bytes = 0u64;
    let mut user_bytes = 0f64;
    for table in inputs.tables() {
        let stats = engine.table_stats(table);
        memory_bytes += stats.ciphertext_bytes;
        user_bytes += stats.real_records as f64 * row_bytes.get(table).copied().unwrap_or(0.0);
    }
    let observed = Observed {
        reports: results.iter().map(|(r, _)| r.clone()).collect(),
        view: engine.adversary_view(),
    };
    drop(handles);
    let counters = server.as_mut().map_or(ServerCounters::default(), |s| {
        s.shutdown();
        ServerCounters {
            peak_outbound_bytes: s.stats().peak_outbound_bytes() as u64,
            reaped: s.stats().reaped_connections() as u64,
            handler_panics: s.handler_panics() as u64,
        }
    });
    let backend_bytes = scratch
        .as_ref()
        .map_or(memory_bytes, ScratchDir::disk_bytes);
    // Close the log's files before its directory is removed.
    drop(served);
    drop(engine);
    drop(scratch);
    Ok(Epoch {
        setup,
        walls: results.iter().map(|(_, w)| *w).collect(),
        cpu,
        spans: recorder.take(),
        observed,
        backend_bytes,
        user_bytes,
        server: counters,
    })
}
