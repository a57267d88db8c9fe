//! The perf-telemetry driver: runs the seeded microbenchmark suite and emits
//! a machine-readable `BENCH_<label>.json`, or compares two such reports as a
//! CI regression gate.
//!
//! Usage:
//!
//! ```text
//! exp_bench [run] [--smoke] [--label L] [--out PATH] [--seed S] [--jobs J]
//! exp_bench compare <baseline.json> <current.json> [--tolerance 25%]
//! ```
//!
//! `run` (the default subcommand) prints the medians as a table and writes
//! the JSON report to `--out` (default `BENCH_<label>.json` in the current
//! directory; the label defaults to `DPSYNC_BENCH_LABEL`, then the current
//! git short SHA, then `local`).  `compare` prints one line per benchmark and
//! exits with status 2 when any benchmark's throughput fell more than the
//! tolerance below the baseline (or disappeared); malformed or missing
//! report files exit with status 1 and a readable error.  Like every binary
//! in the crate, an argument the parser rejects exits with status 2.

use dpsync_bench::cli::{self, unknown, Args, CliError};
use dpsync_bench::perf::{self, SuiteConfig, Tolerance};
use std::process::ExitCode;

const USAGE: &str = "exp_bench — DP-Sync performance telemetry\n\n\
     USAGE:\n\
     \x20 exp_bench [run] [--smoke] [--label L] [--out PATH] [--seed S] [--jobs J]\n\
     \x20 exp_bench compare <baseline.json> <current.json> [--tolerance 25%]\n\n\
     `run` writes BENCH_<label>.json; `compare` exits 2 on regression,\n\
     1 on unreadable/malformed reports.";

enum Command {
    Run {
        config: SuiteConfig,
        out: Option<String>,
    },
    Compare {
        paths: Vec<String>,
        tolerance: Tolerance,
    },
}

fn parse(args: &mut Args) -> Result<Command, CliError> {
    let mut next = args.next_arg()?;
    match next.as_deref() {
        Some("help") => return Err(CliError::Help),
        Some("compare") => {
            let (mut paths, mut tolerance) = (Vec::new(), Tolerance(0.25));
            while let Some(arg) = args.next_arg()? {
                match arg.as_str() {
                    "--tolerance" => tolerance = args.value_with(&arg, Tolerance::parse)?,
                    _ if !arg.starts_with('-') => paths.push(arg),
                    _ => return Err(unknown(&arg)),
                }
            }
            return Ok(Command::Compare { paths, tolerance });
        }
        Some("run") => next = args.next_arg()?,
        _ => {}
    }
    let (mut config, mut label, mut out) = (SuiteConfig::default(), None, None);
    while let Some(flag) = next {
        match flag.as_str() {
            "--smoke" => config.smoke = true,
            "--label" => label = Some(args.string(&flag)?),
            "--out" => out = Some(args.string(&flag)?),
            "--seed" => config.seed = args.value(&flag)?,
            "--jobs" => {
                dpsync_bench::pool::set_worker_override(std::num::NonZeroUsize::new(
                    args.value(&flag)?,
                ));
            }
            _ => return Err(unknown(&flag)),
        }
        next = args.next_arg()?;
    }
    config.label = perf::sanitize_label(&label.unwrap_or_else(default_label));
    Ok(Command::Run { config, out })
}

fn main() -> ExitCode {
    match cli::parse_env("exp_bench", USAGE, parse) {
        Command::Run { config, out } => run_suite(&config, out),
        Command::Compare { paths, tolerance } => run_compare(&paths, tolerance),
    }
}

fn run_suite(config: &SuiteConfig, out_path: Option<String>) -> ExitCode {
    let out_path = out_path.unwrap_or_else(|| format!("BENCH_{}.json", config.label));
    println!(
        "Running the {} perf suite (label `{}`, seed {}) ...\n",
        if config.smoke { "smoke" } else { "full" },
        config.label,
        config.seed
    );
    let report = perf::run_suite(config);
    print!("{}", report.to_table().render());
    match std::fs::write(&out_path, report.to_json()) {
        Ok(()) => {
            println!("\nwrote {out_path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write `{out_path}`: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_compare(paths: &[String], tolerance: Tolerance) -> ExitCode {
    let [baseline_path, current_path] = paths else {
        eprintln!(
            "error: compare needs exactly two report paths, got {} (see `exp_bench --help`)",
            paths.len()
        );
        return ExitCode::FAILURE;
    };

    let baseline = match perf::load_report(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let current = match perf::load_report(current_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "Comparing `{}` ({}) -> `{}` ({}), tolerance {:.0}%:\n",
        baseline.label,
        baseline_path,
        current.label,
        current_path,
        tolerance.0 * 100.0
    );
    let comparison = perf::compare(&baseline, &current, tolerance);
    for line in &comparison.lines {
        println!("{}", line.render());
    }
    if comparison.has_regressions() {
        eprintln!(
            "\nFAIL: {} benchmark(s) regressed beyond the {:.0}% tolerance: {}",
            comparison.regressions().len(),
            tolerance.0 * 100.0,
            comparison.regressions().join(", ")
        );
        ExitCode::from(2)
    } else {
        println!(
            "\nOK: no benchmark regressed beyond the {:.0}% tolerance",
            tolerance.0 * 100.0
        );
        ExitCode::SUCCESS
    }
}

/// The default report label: `DPSYNC_BENCH_LABEL`, else the git short SHA,
/// else `local`.
fn default_label() -> String {
    if let Ok(label) = std::env::var("DPSYNC_BENCH_LABEL") {
        if !label.trim().is_empty() {
            return label;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "local".into())
}
