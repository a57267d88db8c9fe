//! Builds and runs one simulated month for a (strategy, engine) pair, and
//! fans batches of independent runs out over the worker pool.
//!
//! Determinism: every random stream in a run is derived from the run's own
//! config seed (workload, owners, analyst), and each run drives its owners
//! on one thread — so a batch of runs produces byte-identical
//! [`SimulationReport`]s (up to wall-clock fields, see
//! [`SimulationReport::normalized`]) whether it executes sequentially or on
//! the pool, in any worker count.  The pool is where the parallelism lives:
//! independent runs, not the owners of one run.

use crate::experiments::config::{
    serve_addr, BackendKind, EngineKind, ExperimentConfig, ScratchDir, TransportKind,
};
use crate::pool::parallel_map;
use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::StrategyKind;
use dpsync_crypto::MasterKey;
use dpsync_edb::backend::{BackendConfig, GroupCommitConfig, SegmentLogConfig};
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::Query;
use dpsync_net::{BackendRequest, MuxConnection};
use dpsync_workloads::queries;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One simulation run specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Which engine hosts the outsourced data.
    pub engine: EngineKind,
    /// Which synchronization strategy the owner runs.
    pub strategy: StrategyKind,
    /// Experiment configuration (scale, seed, parameters).
    pub config: ExperimentConfig,
}

impl RunSpec {
    /// The query set this run poses: the Crypt-ε-like engine cannot evaluate
    /// Q3 (joins), matching footnote 2 of the paper.
    pub fn query_set(&self) -> Vec<(String, Query)> {
        match self.engine {
            EngineKind::ObliDb => queries::paper_query_set(),
            EngineKind::CryptEpsilon => queries::single_table_query_set(),
        }
    }

    /// Whether the run replays the Green Boro table as well (needed for Q3).
    pub fn includes_green(&self) -> bool {
        matches!(self.engine, EngineKind::ObliDb)
    }
}

/// Derives the deterministic master key for a run.
fn master_key(config: &ExperimentConfig) -> MasterKey {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&config.seed.to_le_bytes());
    bytes[8] = 0xD5;
    MasterKey::from_bytes(bytes)
}

/// Monotone counter distinguishing concurrent disk runs within one process.
static DISK_RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Root under which every disk-backed scratch directory is created:
/// `DPSYNC_DISK_ROOT` when set (CI points it at a job-scoped temp dir), the
/// system temp directory otherwise.  Shared by the experiment runner and
/// the disk-ingest benchmark so both measure the same medium.
pub fn disk_scratch_root() -> PathBuf {
    std::env::var_os("DPSYNC_DISK_ROOT")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// Scratch directory for one disk-backed run, removed on drop (a thin
/// wrapper over [`ScratchDir`], so cleanup also happens when the run
/// panics mid-simulation).
///
/// The root is `DPSYNC_DISK_ROOT` when set (CI points it at a job-scoped
/// temp dir), the system temp directory otherwise; every run gets a unique
/// subdirectory so pooled runs never collide.
#[derive(Debug)]
pub struct DiskRunDir {
    dir: ScratchDir,
}

impl DiskRunDir {
    fn new() -> Self {
        let path = disk_scratch_root().join(format!(
            "dpsync-run-{}-{}",
            std::process::id(),
            DISK_RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        Self {
            dir: ScratchDir::claim(path),
        }
    }

    /// The scratch directory path.
    pub fn path(&self) -> &std::path::Path {
        self.dir.path()
    }
}

/// Builds the engine a spec asks for, on the spec's storage backend and
/// transport.
///
/// * `Inproc` builds the engine in this process (disk runs get a per-run
///   scratch directory; hold the returned guard for as long as the engine
///   lives — dropping it deletes the run's segment logs).
/// * `Tcp` opens a fresh session against the `dpsync-serve` process at
///   [`serve_addr`]; the server builds the engine (and owns any disk
///   scratch state, removed when the session ends), so no local guard is
///   returned.  The connection *is* the run: dropping the engine closes it.
pub fn build_run_engine(
    spec: &RunSpec,
    master: &MasterKey,
) -> (Box<dyn SecureOutsourcedDatabase>, Option<DiskRunDir>) {
    match spec.config.transport {
        TransportKind::Inproc => match spec.config.backend {
            BackendKind::Memory => (spec.engine.build(master), None),
            BackendKind::Disk | BackendKind::DiskGroup => {
                let dir = DiskRunDir::new();
                let mut config = SegmentLogConfig::new(dir.path());
                if spec.config.backend == BackendKind::DiskGroup {
                    config = config.with_group_commit(GroupCommitConfig::default());
                }
                let backend = BackendConfig::SegmentLog(config)
                    .build()
                    .expect("scratch directory for a disk run is creatable");
                let engine = spec
                    .engine
                    .build_with_backend(master, backend)
                    .expect("fresh segment log opens");
                (engine, Some(dir))
            }
        },
        TransportKind::Tcp => {
            let addr = serve_addr();
            let backend = match spec.config.backend {
                BackendKind::Memory => BackendRequest::Memory,
                BackendKind::Disk => BackendRequest::Disk,
                BackendKind::DiskGroup => BackendRequest::DiskGroup,
            };
            let engine = MuxConnection::connect(addr.as_str())
                .and_then(|conn| conn.open_engine(spec.engine, master, backend))
                .unwrap_or_else(|e| {
                    panic!(
                        "cannot open a remote session at {addr}: {e}\n\
                         (--transport tcp needs a running server: \
                         `cargo run --release -p dpsync-net --bin dpsync-serve`{})",
                        if spec.config.backend == BackendKind::Memory {
                            ""
                        } else {
                            " with --disk-root DIR"
                        }
                    )
                });
            (Box::new(engine), None)
        }
    }
}

/// Builds the table workloads for a run and the horizon they span (both
/// datasets cover the same scaled month).
pub fn build_workloads(spec: &RunSpec) -> (Vec<OwnerWorkload>, u64) {
    let yellow = spec.config.yellow_dataset();
    let horizon = yellow.horizon();
    let mut workloads = vec![yellow.to_workload(queries::YELLOW_TABLE)];
    if spec.includes_green() {
        workloads.push(
            spec.config
                .green_dataset()
                .to_workload(queries::GREEN_TABLE),
        );
    }
    (workloads, horizon)
}

fn simulation_for(spec: &RunSpec) -> Simulation {
    Simulation::new(SimulationConfig {
        query_interval: spec.config.query_interval,
        size_sample_interval: spec.config.size_sample_interval,
        queries: spec.query_set(),
        seed: spec.config.seed ^ (spec.strategy as u64).wrapping_mul(0x9e37_79b9),
    })
}

/// Runs one full simulation and returns its report.
pub fn run_simulation(spec: &RunSpec) -> SimulationReport {
    let master = master_key(&spec.config);
    let (engine, _disk_dir) = build_run_engine(spec, &master);
    let (workloads, horizon) = build_workloads(spec);
    let report = simulation_for(spec)
        .run_sparse(&workloads, horizon, engine.as_ref(), &master, |_| {
            spec.config.params.build(spec.strategy)
        })
        .expect("simulation over generated workloads cannot fail");
    // `engine` drops before `_disk_dir`, so the segment files are closed
    // when the scratch directory is removed.
    drop(engine);
    report
}

/// Runs a batch of independent specs on the worker pool, preserving order.
pub fn run_specs(specs: &[RunSpec]) -> Vec<SimulationReport> {
    parallel_map(specs, run_simulation)
}

/// Runs every strategy against one engine, in the paper's order, fanned out
/// over the worker pool.
pub fn run_all_strategies(
    engine: EngineKind,
    config: ExperimentConfig,
) -> Vec<(StrategyKind, SimulationReport)> {
    let specs: Vec<RunSpec> = StrategyKind::ALL
        .iter()
        .map(|&strategy| RunSpec {
            engine,
            strategy,
            config,
        })
        .collect();
    StrategyKind::ALL
        .iter()
        .copied()
        .zip(run_specs(&specs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 60,
            seed: 3,
            ..Default::default()
        }
        .rescale()
    }

    #[test]
    fn oblidb_run_covers_all_three_queries() {
        let spec = RunSpec {
            engine: EngineKind::ObliDb,
            strategy: StrategyKind::DpTimer,
            config: smoke_config(),
        };
        assert!(spec.includes_green());
        assert_eq!(spec.query_set().len(), 3);
        let report = run_simulation(&spec);
        assert_eq!(report.engine, "oblidb");
        assert_eq!(report.strategy, StrategyKind::DpTimer);
        let labels = report.query_labels();
        assert!(labels.contains(&"Q1".to_string()));
        assert!(labels.contains(&"Q3".to_string()));
        assert!(report.final_sizes().unwrap().outsourced_records > 0);
    }

    #[test]
    fn crypt_epsilon_run_skips_joins() {
        let spec = RunSpec {
            engine: EngineKind::CryptEpsilon,
            strategy: StrategyKind::Sur,
            config: smoke_config(),
        };
        assert!(!spec.includes_green());
        let report = run_simulation(&spec);
        assert_eq!(report.engine, "crypt-epsilon");
        assert!(!report.query_labels().contains(&"Q3".to_string()));
        // Crypt-ε adds per-query noise, so even SUR has non-zero error.
        assert!(report.mean_l1_error("Q2") > 0.0);
    }

    #[test]
    fn all_strategies_produce_reports_in_order() {
        let results = run_all_strategies(EngineKind::ObliDb, smoke_config());
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].0, StrategyKind::Sur);
        assert_eq!(results[4].0, StrategyKind::DpAnt);
        // Qualitative shape of Table 5: OTO's error dwarfs everyone else's,
        // SET stores the most data.
        let report_for = |kind: StrategyKind| &results.iter().find(|(k, _)| *k == kind).unwrap().1;
        let oto_err = report_for(StrategyKind::Oto).mean_l1_error("Q2");
        let timer_err = report_for(StrategyKind::DpTimer).mean_l1_error("Q2");
        assert!(
            oto_err > timer_err * 5.0,
            "oto {oto_err} vs timer {timer_err}"
        );
        let set_records = report_for(StrategyKind::Set)
            .final_sizes()
            .unwrap()
            .outsourced_records;
        let sur_records = report_for(StrategyKind::Sur)
            .final_sizes()
            .unwrap()
            .outsourced_records;
        assert!(set_records > sur_records);
    }

    #[test]
    fn disk_backends_reproduce_the_memory_report() {
        // The storage backend must be invisible in every report field: same
        // seed, same answers, same transcript-derived sizes — for per-batch
        // fsync and group commit alike.
        let memory_spec = RunSpec {
            engine: EngineKind::ObliDb,
            strategy: StrategyKind::DpTimer,
            config: smoke_config(),
        };
        let memory = run_simulation(&memory_spec).normalized();
        for backend in [BackendKind::Disk, BackendKind::DiskGroup] {
            let disk_spec = RunSpec {
                config: ExperimentConfig {
                    backend,
                    ..memory_spec.config
                },
                ..memory_spec
            };
            let disk = run_simulation(&disk_spec).normalized();
            assert_eq!(memory, disk, "backend {backend}");
        }
    }

    #[test]
    fn disk_runs_clean_up_their_scratch_directories() {
        let dir = DiskRunDir::new();
        let path = dir.path().to_path_buf();
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join("seg-000000.dpl"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists(), "drop removes the scratch directory");
    }

    #[test]
    fn runs_are_reproducible() {
        let spec = RunSpec {
            engine: EngineKind::ObliDb,
            strategy: StrategyKind::DpAnt,
            config: smoke_config(),
        };
        let a = run_simulation(&spec);
        let b = run_simulation(&spec);
        assert_eq!(a.final_sizes(), b.final_sizes());
        assert_eq!(a.sync_count, b.sync_count);
    }
}
