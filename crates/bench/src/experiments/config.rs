//! Shared experiment configuration.
//!
//! The defaults mirror §8 of the paper: privacy budget ε = 0.5, DP-Timer
//! period T = 30, DP-ANT threshold θ = 15, cache flush `f = 2000`, `s = 15`,
//! queries every 360 time units, size samples every 7200, and the June-2020
//! Yellow/Green taxi workload shapes.

use crate::cli::{self, unknown, Args, CliError};
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, OneTimeOutsourcing, StrategyKind,
    SyncStrategy, SynchronizeEveryTime, SynchronizeUponReceipt,
};
use dpsync_dp::Epsilon;
use dpsync_workloads::taxi::{TaxiConfig, TaxiDataset};
use std::num::NonZeroUsize;

/// Engine selection now lives next to the engines themselves; the harness
/// re-exports it so experiment code keeps one import path.
pub use dpsync_edb::engines::EngineKind;

/// Which ciphertext-storage backend the server tier runs on.
///
/// The adversary view — and therefore every simulation report — is
/// byte-identical across backends on a fixed seed (pinned by the
/// backend-equivalence suite in `dpsync-core`); the choice only affects
/// durability and ingest cost.  `Disk` runs each simulation against a
/// durable segment log in its own per-run scratch directory (under
/// `DPSYNC_DISK_ROOT` when set, the system temp directory otherwise),
/// removed when the run finishes.  `DiskGroup` is the same log with
/// group-commit sync windows — identical durability guarantees at the
/// acknowledgment boundary, one `fdatasync` amortized across a window of
/// concurrent batches instead of one per batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The in-memory backend (the default).
    #[default]
    Memory,
    /// The durable encrypted segment-log backend, one fsync per batch.
    Disk,
    /// The durable encrypted segment-log backend with group-commit windows.
    DiskGroup,
}

impl BackendKind {
    /// The `--backend` flag spelling.
    pub fn flag_name(self) -> &'static str {
        match self {
            BackendKind::Memory => "memory",
            BackendKind::Disk => "disk",
            BackendKind::DiskGroup => "disk-group",
        }
    }

    /// Parses a `--backend` flag value.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "memory" => Some(BackendKind::Memory),
            "disk" => Some(BackendKind::Disk),
            "disk-group" => Some(BackendKind::DiskGroup),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.flag_name())
    }
}

/// How the experiment harness reaches the outsourced server.
///
/// `Tcp` runs every protocol over a loopback/network socket against a
/// `dpsync-serve` process (see [`serve_addr`]); with a fixed seed the
/// reports are byte-identical to `Inproc` runs — pinned by the
/// remote-equivalence suite in `dpsync-core` — so the transport is a pure
/// deployment choice, never an experimental variable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Engine calls are in-process function calls (the default).
    #[default]
    Inproc,
    /// Engine calls travel over TCP to a `dpsync-serve` server.
    Tcp,
}

impl TransportKind {
    /// The `--transport` flag spelling.
    pub fn flag_name(self) -> &'static str {
        match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a `--transport` flag value.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "inproc" => Some(TransportKind::Inproc),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.flag_name())
    }
}

/// The default `dpsync-serve` address `--transport tcp` connects to — a
/// re-export of the one constant `dpsync-serve` itself binds, so
/// `dpsync-serve &` followed by `exp_* --transport tcp` works with no
/// further configuration and the pairing cannot drift.
pub use dpsync_net::DEFAULT_SERVE_ADDR;

/// Process-wide server address override (set from `--addr`, consulted by
/// TCP-transport runs).  Mirrors the `--jobs` pattern in [`crate::pool`]:
/// `ExperimentConfig` stays `Copy`, the address lives here.
static SERVE_ADDR: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);

/// Overrides the `dpsync-serve` address for subsequent TCP-transport runs
/// (`--addr HOST:PORT` in the experiment binaries).  `None` restores the
/// default.
pub fn set_serve_addr(addr: Option<String>) {
    *SERVE_ADDR.lock().expect("serve-addr lock") = addr;
}

/// The address TCP-transport runs connect to: the `--addr` override, else
/// the `DPSYNC_SERVE_ADDR` environment variable, else [`DEFAULT_SERVE_ADDR`].
pub fn serve_addr() -> String {
    if let Some(addr) = SERVE_ADDR.lock().expect("serve-addr lock").clone() {
        return addr;
    }
    std::env::var("DPSYNC_SERVE_ADDR").unwrap_or_else(|_| DEFAULT_SERVE_ADDR.to_string())
}

/// A scratch directory that is removed when the guard drops — **including
/// during a panic unwind**, so an aborted run never leaves segment logs (or
/// any other per-run disk state) behind.
///
/// Every per-run disk root in the experiment layer rides behind one of
/// these: hold the guard for as long as anything may touch the directory and
/// let scope exit (normal or unwinding) do the cleanup.  Never pair a bare
/// `create_dir_all` with a trailing `remove_dir_all` — the trailing call is
/// skipped the moment anything in between panics.
#[derive(Debug)]
pub struct ScratchDir {
    path: std::path::PathBuf,
}

impl ScratchDir {
    /// Claims `path` as a scratch directory (the directory itself is created
    /// lazily by whoever writes into it; dropping the guard removes whatever
    /// exists there).
    pub fn claim(path: impl Into<std::path::PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The scratch directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Strategy parameters for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyParams {
    /// Privacy budget for the DP strategies.
    pub epsilon: f64,
    /// DP-Timer period `T`.
    pub timer_period: u64,
    /// DP-ANT threshold θ.
    pub ant_threshold: u64,
    /// Cache-flush interval `f`.
    pub flush_interval: u64,
    /// Cache-flush size `s`.
    pub flush_size: u64,
}

impl Default for StrategyParams {
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            timer_period: 30,
            ant_threshold: 15,
            flush_interval: 2000,
            flush_size: 15,
        }
    }
}

impl StrategyParams {
    /// Builds a fresh strategy instance of the given kind.
    pub fn build(&self, kind: StrategyKind) -> Box<dyn SyncStrategy> {
        let flush = Some(CacheFlush::new(self.flush_interval, self.flush_size));
        match kind {
            StrategyKind::Sur => Box::new(SynchronizeUponReceipt::new()),
            StrategyKind::Oto => Box::new(OneTimeOutsourcing::new()),
            StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
            StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
                Epsilon::new_unchecked(self.epsilon),
                self.timer_period,
                flush,
            )),
            StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
                Epsilon::new_unchecked(self.epsilon),
                self.ant_threshold,
                flush,
            )),
        }
    }
}

/// The flags an experiment binary takes (see [`ExperimentConfig::parse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagSet {
    /// The simulation binaries: `--scale`, `--seed`, `--jobs`, `--backend`,
    /// `--transport` and `--addr`.
    Simulation,
    /// The analytic binaries: `--scale` and `--seed` only.
    Analytic,
}

/// Top-level experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Workload/horizon scale divisor: 1 is the paper's full month, larger
    /// values shrink both horizon and record counts proportionally (used by
    /// tests and quick smoke runs).
    pub scale: u64,
    /// Master seed.
    pub seed: u64,
    /// Strategy parameters.
    pub params: StrategyParams,
    /// Query interval in time units (paper: 360).
    pub query_interval: u64,
    /// Size-sample interval in time units (paper: 7200).
    pub size_sample_interval: u64,
    /// Which storage backend hosts the server-side ciphertexts.
    pub backend: BackendKind,
    /// How the harness reaches the outsourced server.
    pub transport: TransportKind,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: 1,
            seed: 2021,
            params: StrategyParams::default(),
            query_interval: 360,
            size_sample_interval: 7200,
            backend: BackendKind::Memory,
            transport: TransportKind::Inproc,
        }
    }
}

impl ExperimentConfig {
    /// Reads `flags` from `args`, starting from the defaults.
    ///
    /// [`FlagSet::Simulation`] takes `--scale N`, `--seed S`, `--jobs J`,
    /// `--backend {memory,disk,disk-group}`, `--transport {inproc,tcp}` and
    /// `--addr HOST:PORT`.  `--jobs` configures the experiment worker pool
    /// (see [`crate::pool`]): it caps how many simulations run concurrently,
    /// and defaults to the machine's available parallelism.  Results are
    /// byte-identical for every worker count — and, with a fixed seed, for
    /// every `--backend` and every `--transport`.  `--transport tcp` connects
    /// each run to the `dpsync-serve` process at `--addr` (default
    /// [`DEFAULT_SERVE_ADDR`]).
    ///
    /// [`FlagSet::Analytic`] takes `--scale` and `--seed` only, and rejects
    /// the simulation flags with an explanation: the analytic tables
    /// recompute closed-form bounds (or run in-process Monte-Carlo trials)
    /// and never build an engine, touch a storage backend or contact a
    /// server.
    pub fn parse(args: &mut Args, flags: FlagSet) -> Result<Self, CliError> {
        let mut config = Self::default();
        while let Some(flag) = args.next_arg()? {
            match flag.as_str() {
                "--scale" => config.scale = args.value(&flag)?,
                "--seed" => config.seed = args.value(&flag)?,
                "--transport" | "--backend" | "--addr" | "--jobs" if flags == FlagSet::Analytic => {
                    return Err(CliError::Invalid(format!(
                        "`{flag}` is not accepted: this is an analytic experiment — it \
                         recomputes closed-form bounds in process and never contacts a \
                         server, so it takes no transport, backend, address or worker \
                         flags (those belong to the simulation binaries; see the README's \
                         per-binary flag table)"
                    )));
                }
                "--jobs" => {
                    crate::pool::set_worker_override(NonZeroUsize::new(args.value(&flag)?));
                }
                "--backend" => {
                    config.backend = args.value_with(&flag, |v| {
                        BackendKind::parse(v).ok_or("expected memory, disk or disk-group")
                    })?;
                }
                "--transport" => {
                    config.transport = args.value_with(&flag, |v| {
                        TransportKind::parse(v).ok_or("expected inproc or tcp")
                    })?;
                }
                "--addr" => set_serve_addr(Some(args.string(&flag)?)),
                _ => return Err(unknown(&flag)),
            }
        }
        Ok(config.rescale())
    }

    /// Parses this process's arguments as `binary`'s (see [`Self::parse`]
    /// and [`cli::parse_env`]).
    pub fn from_env(binary: &str, flags: FlagSet) -> Self {
        let usage = match flags {
            FlagSet::Simulation => format!(
                "usage: {binary} [--scale N] [--seed S] [--jobs J] \
                 [--backend memory|disk|disk-group] [--transport inproc|tcp] [--addr HOST:PORT]"
            ),
            FlagSet::Analytic => format!("usage: {binary} [--scale N] [--seed S]"),
        };
        cli::parse_env(binary, &usage, |args| Self::parse(args, flags))
    }

    /// Applies the scale divisor to the time-dependent intervals so that a
    /// scaled run still poses a comparable number of queries.
    pub fn rescale(mut self) -> Self {
        let scale = self.scale.max(1);
        self.query_interval = (360 / scale).max(10);
        self.size_sample_interval = (7200 / scale).max(50);
        self
    }

    /// The Yellow Cab workload at this scale.
    pub fn yellow_dataset(&self) -> TaxiDataset {
        TaxiDataset::generate(TaxiConfig::scaled_yellow(self.seed, self.scale.max(1)))
    }

    /// The Green Boro workload at this scale.
    pub fn green_dataset(&self) -> TaxiDataset {
        TaxiDataset::generate(TaxiConfig::scaled_green(self.seed + 1, self.scale.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_run_leaves_no_scratch_directory_behind() {
        let path =
            std::env::temp_dir().join(format!("dpsync-scratch-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let result = std::panic::catch_unwind({
            let path = path.clone();
            move || {
                let scratch = ScratchDir::claim(&path);
                std::fs::create_dir_all(scratch.path()).unwrap();
                std::fs::write(scratch.path().join("seg-000000.dpl"), b"x").unwrap();
                assert!(scratch.path().exists());
                panic!("simulated mid-run failure");
            }
        });
        assert!(result.is_err(), "the run must actually have panicked");
        assert!(
            !path.exists(),
            "unwinding through the guard must remove the scratch directory"
        );
    }

    #[test]
    fn scratch_dir_cleans_up_on_normal_drop_too() {
        let path = std::env::temp_dir().join(format!("dpsync-scratch-drop-{}", std::process::id()));
        let scratch = ScratchDir::claim(&path);
        std::fs::create_dir_all(scratch.path()).unwrap();
        assert_eq!(scratch.path(), path.as_path());
        drop(scratch);
        assert!(!path.exists());
    }

    #[test]
    fn defaults_match_paper_section_8() {
        let p = StrategyParams::default();
        assert_eq!(p.epsilon, 0.5);
        assert_eq!(p.timer_period, 30);
        assert_eq!(p.ant_threshold, 15);
        assert_eq!(p.flush_interval, 2000);
        assert_eq!(p.flush_size, 15);
        let c = ExperimentConfig::default();
        assert_eq!(c.query_interval, 360);
        assert_eq!(c.size_sample_interval, 7200);
        assert_eq!(c.scale, 1);
    }

    #[test]
    fn build_creates_every_strategy_kind() {
        let p = StrategyParams::default();
        for kind in StrategyKind::ALL {
            let s = p.build(kind);
            assert_eq!(s.kind(), kind);
            match kind {
                StrategyKind::DpTimer | StrategyKind::DpAnt => {
                    assert_eq!(s.epsilon().unwrap().value(), 0.5)
                }
                _ => assert!(s.epsilon().is_none()),
            }
        }
    }

    fn parse(flags: FlagSet, args: &[&str]) -> Result<ExperimentConfig, CliError> {
        ExperimentConfig::parse(&mut Args::new(args.iter().copied()), flags)
    }

    /// Asserts that `args` are rejected with a message naming `flag`.
    fn assert_rejects(flags: FlagSet, args: &[&str], flag: &str) -> String {
        match parse(flags, args) {
            Err(CliError::Invalid(message)) => {
                assert!(message.contains(flag), "{args:?}: {message}");
                message
            }
            other => panic!("{args:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn arg_parsing_and_rescaling() {
        let c = parse(
            FlagSet::Simulation,
            &["--scale", "20", "--seed", "7", "--backend", "disk"],
        )
        .expect("valid flags parse");
        assert_eq!(c.scale, 20);
        assert_eq!(c.seed, 7);
        assert_eq!(c.query_interval, 18);
        assert_eq!(c.size_sample_interval, 360);
        assert_eq!(c.backend, BackendKind::Disk);
        // An unknown flag is rejected, not ignored.
        assert_rejects(
            FlagSet::Simulation,
            &["--scale", "20", "--seed", "7", "--ignored"],
            "--ignored",
        );
        // So is a trailing flag without its value.
        assert_rejects(FlagSet::Simulation, &["--scale"], "--scale");
        // And an unknown backend.
        assert_rejects(FlagSet::Simulation, &["--backend", "floppy"], "floppy");
        let d = parse(FlagSet::Simulation, &[]).expect("no flags parse");
        assert_eq!(d.scale, 1);
        assert_eq!(d.backend, BackendKind::Memory);
        assert_eq!(d, ExperimentConfig::default());
    }

    #[test]
    fn both_flag_sets_reject_what_they_cannot_parse_naming_the_flag() {
        for flags in [FlagSet::Simulation, FlagSet::Analytic] {
            assert_rejects(flags, &["--bogus-flag"], "--bogus-flag");
            assert_rejects(flags, &["--seed", "7", "--scale"], "--scale");
            assert_rejects(flags, &["--seed"], "--seed");
            let message = assert_rejects(flags, &["--scale", "abc"], "--scale");
            assert!(message.contains("`abc`"), "{message}");
            assert_rejects(flags, &["--backend", "floppy"], "--backend");
            assert_rejects(flags, &["--transport", "tcpp"], "--transport");
            assert_eq!(parse(flags, &["--seed", "3", "-h"]), Err(CliError::Help));
        }
        let message = assert_rejects(FlagSet::Simulation, &["--transport", "tcpp"], "tcpp");
        assert!(message.contains("inproc or tcp"), "{message}");
        assert_rejects(FlagSet::Simulation, &["--jobs", "many"], "--jobs");
        assert_rejects(FlagSet::Simulation, &["--addr"], "--addr");
    }

    #[test]
    fn analytic_parsing_accepts_only_scale_and_seed() {
        let c = parse(FlagSet::Analytic, &["--scale", "20", "--seed", "7"])
            .expect("scale and seed are accepted");
        assert_eq!(c.scale, 20);
        assert_eq!(c.seed, 7);
        assert_eq!(c.query_interval, 18);

        // Transport/backend flags are rejected with an explanation, not
        // silently ignored — the analytic tables never contact a server.
        for flag in ["--transport", "--backend", "--addr", "--jobs"] {
            let err = assert_rejects(FlagSet::Analytic, &[flag, "whatever"], flag);
            assert!(
                err.contains("analytic experiment"),
                "rejection for {flag} must explain itself, got: {err}"
            );
        }

        // Unknown flags and missing values are errors too.
        assert!(parse(FlagSet::Analytic, &["--frobnicate"]).is_err());
        assert!(parse(FlagSet::Analytic, &["--scale"]).is_err());
    }

    #[test]
    fn transport_kind_parses_and_renders() {
        assert_eq!(TransportKind::parse("inproc"), Some(TransportKind::Inproc));
        assert_eq!(TransportKind::parse("tcp"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("smoke-signals"), None);
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::default(), TransportKind::Inproc);
        let c = parse(FlagSet::Simulation, &["--transport", "tcp"]).expect("tcp parses");
        assert_eq!(c.transport, TransportKind::Tcp);
        // Unknown transports are rejected, naming the flag.
        assert_rejects(
            FlagSet::Simulation,
            &["--transport", "carrier-pigeon"],
            "--transport",
        );
    }

    #[test]
    fn serve_addr_resolution_order() {
        // Guarded by the same single-test discipline as the pool override:
        // the address is process-global state.
        set_serve_addr(Some("10.0.0.9:9999".into()));
        assert_eq!(serve_addr(), "10.0.0.9:9999");
        set_serve_addr(None);
        if std::env::var("DPSYNC_SERVE_ADDR").is_err() {
            assert_eq!(serve_addr(), DEFAULT_SERVE_ADDR);
        }
    }

    #[test]
    fn backend_kind_parses_and_renders() {
        assert_eq!(BackendKind::parse("memory"), Some(BackendKind::Memory));
        assert_eq!(BackendKind::parse("disk"), Some(BackendKind::Disk));
        assert_eq!(
            BackendKind::parse("disk-group"),
            Some(BackendKind::DiskGroup)
        );
        assert_eq!(BackendKind::parse("tape"), None);
        assert_eq!(BackendKind::Disk.to_string(), "disk");
        assert_eq!(BackendKind::DiskGroup.to_string(), "disk-group");
        assert_eq!(BackendKind::default(), BackendKind::Memory);
        // Round trip: every kind's flag spelling parses back to itself.
        for kind in [
            BackendKind::Memory,
            BackendKind::Disk,
            BackendKind::DiskGroup,
        ] {
            assert_eq!(BackendKind::parse(kind.flag_name()), Some(kind));
        }
    }

    #[test]
    fn scaled_datasets_shrink_proportionally() {
        let c = ExperimentConfig {
            scale: 40,
            ..Default::default()
        };
        let yellow = c.yellow_dataset();
        let green = c.green_dataset();
        assert_eq!(yellow.len(), 18_429 / 40);
        assert_eq!(green.len(), 21_300 / 40);
        assert_eq!(yellow.horizon(), 43_200 / 40);
    }

    #[test]
    fn engine_labels() {
        assert_eq!(EngineKind::ObliDb.to_string(), "ObliDB");
        assert_eq!(EngineKind::CryptEpsilon.label(), "Crypt-epsilon");
        assert_eq!(EngineKind::ALL.len(), 2);
    }
}
