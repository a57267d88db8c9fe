//! One benchmark run: epochs until the time budget is spent, every epoch
//! verified, and the metrics the run prints.

use crate::scratch::{self, SCRATCH_ROOT};
use crate::trace::{quantile, Breakdown};
use crate::verify;
use crate::workloads::{run_epoch, Epoch, Inputs, Mode, Observed, Scale, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Epochs every run makes, whatever the budget: `l1_error_mean` is taken
/// over exactly these, so it is a pure function of the seed.
pub const MIN_EPOCHS: u64 = 8;

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Protocol calls attempted (`Π_Setup`, `Π_Update`, `Π_Query`).
    pub attempted: u64,
    /// Failed calls, handler panics, reaped connections and verification
    /// mismatches.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The seed of epoch `index` of a run seeded with `seed`.
pub fn epoch_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index)
}

/// One measured and verified epoch.
struct Verified {
    epoch: Option<Epoch>,
    attempted: u64,
    failed: u64,
}

fn measure(workload: Workload, scale: Scale, seed: u64, mode: Mode, root: &Path) -> Verified {
    let started = Instant::now();
    let inputs = Inputs::generate(workload, scale, seed);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_epoch(&inputs, mode, root, started)
    }));
    let epoch = match outcome {
        Ok(Ok(epoch)) => epoch,
        Ok(Err(message)) => {
            eprintln!("{}: epoch failed: {message}", workload.name());
            return Verified {
                epoch: None,
                attempted: 1,
                failed: 1,
            };
        }
        Err(_) => {
            eprintln!("{}: epoch panicked", workload.name());
            return Verified {
                epoch: None,
                attempted: 1,
                failed: 1,
            };
        }
    };
    let spans = &epoch.spans;
    let attempted = (spans.client_writes.len() + spans.client_reads.len()) as u64;
    let mut failed = spans.client_writes.iter().filter(|w| !w.ok).count() as u64
        + spans.client_reads.iter().filter(|r| !r.ok).count() as u64;
    if failed == 0 && epoch.observed.reports.iter().any(Result::is_err) {
        failed = 1;
    }
    failed += epoch.server.reaped + epoch.server.handler_panics;
    // Verification runs after the timed region and is excluded from every
    // metric.
    failed += verdict(&epoch.observed, &inputs);
    Verified {
        epoch: Some(epoch),
        attempted: attempted.max(1),
        failed,
    }
}

/// Verifies an epoch's outcome against the replay of `inputs`: 0 when it
/// matches, 1 (one failed operation) when it does not.
pub fn verdict(observed: &Observed, inputs: &Inputs) -> u64 {
    match verify::compare(inputs.workload, observed, &verify::reference(inputs)) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("{}: verification failed: {message}", inputs.workload.name());
            1
        }
    }
}

fn max_wall(epoch: &Epoch) -> Duration {
    epoch.walls.iter().copied().max().unwrap_or_default()
}

fn summed_wall(epoch: &Epoch) -> Duration {
    epoch.walls.iter().sum()
}

/// Runs `workload` for at least `seconds` of timed work (and at least
/// [`MIN_EPOCHS`] epochs).  With `trace`, every epoch runs once untraced
/// and once traced, and the result carries the per-layer metrics.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let root = Path::new(SCRATCH_ROOT);
    scratch::sweep_stale(root);
    let budget = Duration::from_secs(seconds);
    let mut attempted = 0;
    let mut failed = 0;
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut untraced_wall = Duration::ZERO;
    let mut timed = Duration::ZERO;
    let mut index = 0;
    while index < MIN_EPOCHS || timed < budget {
        let seed = epoch_seed(seed, index);
        if trace {
            let plain = measure(workload, scale, seed, Mode::Timed, root);
            attempted += plain.attempted;
            failed += plain.failed;
            untraced_wall += plain.epoch.as_ref().map(summed_wall).unwrap_or_default();
        }
        let mode = if trace { Mode::Traced } else { Mode::Timed };
        let verified = measure(workload, scale, seed, mode, root);
        attempted += verified.attempted;
        failed += verified.failed;
        match verified.epoch {
            Some(epoch) => {
                timed += max_wall(&epoch);
                epochs.push(epoch);
            }
            // A failed epoch still spends budget, so a broken build ends.
            None => timed += budget / 4,
        }
        index += 1;
    }
    let _ = std::fs::remove_dir(root);
    let metrics = if trace {
        per_layer(workload, &epochs, untraced_wall)
    } else {
        end_to_end(&epochs)
    };
    RunResult {
        attempted,
        failed,
        metrics,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Each metric's value in one epoch.
fn epoch_values(epoch: &Epoch) -> [f64; 7] {
    let records = epoch.records();
    let updates: Vec<u64> = epoch
        .spans
        .client_writes
        .iter()
        .filter(|w| w.ok && !w.setup)
        .map(|w| w.ns)
        .collect();
    let queries: Vec<u64> = epoch
        .spans
        .client_reads
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.ns)
        .collect();
    [
        records as f64 / max_wall(epoch).as_secs_f64().max(1e-9),
        us(quantile(&updates, 0.50)),
        us(quantile(&updates, 0.99)),
        us(quantile(&queries, 0.50)),
        us(quantile(&queries, 0.99)),
        epoch.cpu.as_secs_f64() * 1e6 / records.max(1) as f64,
        epoch.backend_bytes as f64 / epoch.user_bytes.max(1.0),
    ]
}

/// The end-to-end metrics: the median over epochs of each epoch's value,
/// which keeps one disturbed epoch on a shared box from moving the result.
fn end_to_end(epochs: &[Epoch]) -> Vec<Metric> {
    let per_epoch: Vec<[f64; 7]> = epochs.iter().map(epoch_values).collect();
    let med = |i: usize| median(per_epoch.iter().map(|v| v[i]).collect());
    let l1: Vec<f64> = epochs
        .iter()
        .take(MIN_EPOCHS as usize)
        .flat_map(|e| e.observed.reports.iter().flatten())
        .flat_map(|r| r.query_samples.iter().map(|s| s.l1_error))
        .collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("ingest_rec_per_s", med(0), "rec/s"),
        m("update_p50_us", med(1), "us"),
        m("update_p99_us", med(2), "us"),
        m("query_p50_us", med(3), "us"),
        m("query_p99_us", med(4), "us"),
        m("cpu_us_per_rec", med(5), "us"),
        m("storage_bytes_per_user_byte", med(6), "ratio"),
        m(
            "l1_error_mean",
            l1.iter().sum::<f64>() / l1.len().max(1) as f64,
            "answer",
        ),
        m(
            "setup_s",
            median(epochs.iter().map(|e| e.setup.as_secs_f64()).collect()),
            "s",
        ),
    ]
}

fn per_layer(workload: Workload, epochs: &[Epoch], untraced_wall: Duration) -> Vec<Metric> {
    let mut b = Breakdown::default();
    for epoch in epochs {
        b.add(&epoch.spans, summed_wall(epoch));
    }
    let s = |ns: f64| ns / 1e9;
    let p = |values: &[u64], q: f64| quantile(values, q) as f64;
    let engine_read = |path: &str| {
        us(quantile(
            b.engine_read_ns.get(path).map_or(&[][..], Vec::as_slice),
            0.5,
        ))
    };
    let plans = |path: &str| b.plans.get(path).copied().unwrap_or(0) as f64;
    let records: u64 = epochs.iter().map(Epoch::records).sum();
    let backend_bytes: f64 = epochs.iter().map(|e| e.backend_bytes as f64).sum();
    // Segment-file bytes per epoch; the memory backends hold nothing on disk.
    let disk_bytes = if workload == Workload::DurableViews {
        backend_bytes / epochs.len().max(1) as f64
    } else {
        0.0
    };
    let named = b.named_ns();
    let traced_wall = b.wall_ns;
    let untraced = untraced_wall.as_nanos() as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("core.simulation.self_s", s(traced_wall - named), "s"),
        m(
            "core.strategy.on_tick.calls",
            b.on_tick_ns.len() as f64,
            "count",
        ),
        m("core.strategy.on_tick.p50_ns", p(&b.on_tick_ns, 0.5), "ns"),
        m("core.strategy.self_s", s(b.strategy_ns), "s"),
        m("core.strategy.syncs", b.syncs as f64, "count"),
        m("core.owner.encrypt.self_s", s(b.encrypt_ns), "s"),
        m(
            "core.owner.encrypt.ns_per_rec",
            b.encrypt_ns / b.encrypt_records.max(1) as f64,
            "ns",
        ),
        m(
            "net.update.self_us_p50",
            us(quantile(&b.net_update_ns, 0.5)),
            "us",
        ),
        m(
            "net.update.self_us_p99",
            us(quantile(&b.net_update_ns, 0.99)),
            "us",
        ),
        m("net.update.self_s", s(b.net_write_ns), "s"),
        m(
            "net.query.self_us_p50",
            us(quantile(&b.net_read_ns, 0.5)),
            "us",
        ),
        m("net.query.self_s", s(b.net_read_total_ns), "s"),
        m("net.control.self_s", s(b.net_control_ns), "s"),
        m("net.entropy.draws", b.entropy_ns.len() as f64, "count"),
        m("net.entropy.us_p50", us(quantile(&b.entropy_ns, 0.5)), "us"),
        m(
            "net.peak_outbound_bytes",
            epochs
                .iter()
                .map(|e| e.server.peak_outbound_bytes)
                .max()
                .unwrap_or(0) as f64,
            "B",
        ),
        m(
            "net.reaped",
            epochs.iter().map(|e| e.server.reaped).sum::<u64>() as f64,
            "count",
        ),
        m(
            "net.handler_panics",
            epochs.iter().map(|e| e.server.handler_panics).sum::<u64>() as f64,
            "count",
        ),
        m(
            "edb.engine.update.self_ns_per_rec",
            b.engine_write_ns / b.write_records.max(1) as f64,
            "ns",
        ),
        m(
            "edb.engine.update.self_us_p99",
            us(quantile(&b.engine_update_ns, 0.99)),
            "us",
        ),
        m("edb.engine.update.self_s", s(b.engine_write_ns), "s"),
        m("edb.engine.query.scan.us_p50", engine_read("scan"), "us"),
        m("edb.engine.query.view.us_p50", engine_read("view"), "us"),
        m("edb.engine.query.index.us_p50", engine_read("index"), "us"),
        m("edb.engine.query.self_s", s(b.engine_read_total_ns), "s"),
        m(
            "edb.engine.query.touched_per_query",
            b.touched.iter().sum::<u64>() as f64 / b.touched.len().max(1) as f64,
            "count",
        ),
        m("edb.engine.control.self_s", s(b.engine_control_ns), "s"),
        m(
            "edb.backend.append.calls",
            b.append_ns.len() as f64,
            "count",
        ),
        m(
            "edb.backend.append.us_p50",
            us(quantile(&b.append_ns, 0.5)),
            "us",
        ),
        m(
            "edb.backend.append.us_p99",
            us(quantile(&b.append_ns, 0.99)),
            "us",
        ),
        m("edb.backend.append.self_s", s(b.append_total_ns), "s"),
        m("edb.backend.scan.self_s", s(b.scan_ns), "s"),
        m(
            "edb.backend.bytes_per_rec",
            backend_bytes / records.max(1) as f64,
            "B/rec",
        ),
        m("edb.backend.disk_bytes", disk_bytes, "B"),
        m("edb.planner.plans.scan", plans("scan"), "count"),
        m("edb.planner.plans.view", plans("view"), "count"),
        m("edb.planner.plans.index", plans("index"), "count"),
        m(
            "trace.overhead_pct",
            (traced_wall - untraced) * 100.0 / untraced.max(1.0),
            "%",
        ),
        m(
            "trace.coverage_pct",
            named * 100.0 / traced_wall.max(1.0),
            "%",
        ),
        m("trace.wall_s", s(traced_wall), "s"),
    ]
}
