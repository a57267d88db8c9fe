//! End-to-end tests for the `exp_bench compare` regression gate: the exit
//! codes CI relies on, and readable errors for malformed/missing reports.
//!
//! Every test works inside its own [`TestDir`] — a per-test scratch
//! directory removed on drop — so the suite is parallel-safe: no fixture
//! path is shared, and no test can `remove_file` another test's report.

use dpsync_bench::perf::{BenchReport, BenchResult, Tolerance, REPORT_VERSION};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory unique to one test invocation, removed on drop.  It
/// sits directly in the temp dir, so removing it leaves nothing behind.
struct TestDir(PathBuf);

impl TestDir {
    fn new(test: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("dpsync_exp_bench_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir is writable");
        Self(path)
    }

    /// Writes `report` as `<stem>.json` inside this test's directory.
    fn write_report(&self, stem: &str, report: &BenchReport) -> PathBuf {
        let path = self.0.join(format!("{stem}.json"));
        std::fs::write(&path, report.to_json()).expect("test dir is writable");
        path
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn report_with(throughputs: &[(&str, f64)]) -> BenchReport {
    BenchReport {
        version: REPORT_VERSION,
        label: "test".into(),
        seed: 1,
        smoke: true,
        workers: 1,
        results: throughputs
            .iter()
            .map(|&(name, throughput)| BenchResult {
                name: name.into(),
                median_ns_per_op: 1e9 / throughput,
                throughput_per_sec: throughput,
                records_processed: 64,
                samples: 3,
            })
            .collect(),
    }
}

fn exp_bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp_bench"))
}

#[test]
fn compare_exits_nonzero_on_regression_beyond_tolerance() {
    let dir = TestDir::new("regression");
    let baseline = dir.write_report(
        "baseline",
        &report_with(&[("pi_update_ingest", 1_000_000.0)]),
    );
    let current = dir.write_report("current", &report_with(&[("pi_update_ingest", 600_000.0)]));
    let output = exp_bench()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            current.to_str().unwrap(),
            "--tolerance",
            "25%",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "regression must gate CI");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("pi_update_ingest"),
        "stderr names the regressed benchmark: {stderr}"
    );
}

#[test]
fn compare_passes_within_tolerance_and_on_improvement() {
    let dir = TestDir::new("within_tolerance");
    let baseline = dir.write_report(
        "baseline",
        &report_with(&[("pi_update_ingest", 1_000_000.0), ("crypto_encrypt", 500.0)]),
    );
    // One benchmark 10% slower (inside 25%), one faster.
    let current = dir.write_report(
        "current",
        &report_with(&[("pi_update_ingest", 900_000.0), ("crypto_encrypt", 800.0)]),
    );
    let output = exp_bench()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            current.to_str().unwrap(),
            "--tolerance",
            "25%",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("OK"), "stdout: {stdout}");
}

#[test]
fn compare_reports_missing_file_readably() {
    let dir = TestDir::new("missing_file");
    let baseline = dir.write_report("baseline", &report_with(&[("x", 1.0)]));
    let absent = dir.path().join("definitely_absent.json");
    let output = exp_bench()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            absent.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("definitely_absent.json") && stderr.contains("cannot read"),
        "stderr: {stderr}"
    );
}

#[test]
fn compare_reports_malformed_file_readably() {
    let dir = TestDir::new("malformed_file");
    let baseline = dir.write_report("baseline", &report_with(&[("x", 1.0)]));
    let malformed = dir.path().join("malformed.json");
    std::fs::write(&malformed, "{\"version\": 1, oops").unwrap();
    let output = exp_bench()
        .args([
            "compare",
            baseline.to_str().unwrap(),
            malformed.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("not valid JSON"),
        "stderr lacks parse diagnosis: {stderr}"
    );
}

#[test]
fn compare_rejects_bad_tolerance_and_wrong_arity() {
    let dir = TestDir::new("bad_args");
    let some = dir.write_report("baseline", &report_with(&[("x", 1.0)]));
    let output = exp_bench()
        .args([
            "compare",
            some.to_str().unwrap(),
            some.to_str().unwrap(),
            "--tolerance",
            "sideways",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("sideways"));

    let output = exp_bench()
        .args(["compare", some.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("exactly two"));
}

#[test]
fn rejected_arguments_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["run", "--smoke", "--seed"][..], "--seed"),
        (&["--jobs", "x"][..], "--jobs"),
        (&["run", "--smoek"][..], "--smoek"),
        (
            &["compare", "a.json", "b.json", "--tolerance"][..],
            "--tolerance",
        ),
        (&["compare", "a.json", "--bogus", "b.json"][..], "--bogus"),
    ] {
        let output = exp_bench().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("exp_bench:") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn checked_in_baseline_is_loadable_and_covers_the_gated_benchmarks() {
    // Guards the bench/baseline.json CI actually compares against: if its
    // schema drifts from the reader, the gate dies here rather than in CI.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json");
    let report = dpsync_bench::perf::load_report(path.to_str().unwrap())
        .expect("checked-in baseline parses");
    assert_eq!(report.version, REPORT_VERSION);
    assert!(report.smoke, "the CI baseline is a smoke-scale report");
    for name in [
        "pi_update_ingest",
        "pi_update_ingest_disk",
        "crypto_encrypt",
        "e2e_sync",
        "analyst_pose",
    ] {
        assert!(
            report.result(name).is_some(),
            "baseline lacks gated benchmark {name}"
        );
    }
    // Sanity on the comparator against itself: identical reports never gate.
    let cmp = dpsync_bench::perf::compare(&report, &report, Tolerance(0.0));
    assert!(!cmp.has_regressions());
}
