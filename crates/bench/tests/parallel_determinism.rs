//! The parallel experiment runner must be a pure speedup: for a fixed-seed
//! sweep, the reports coming off the worker pool must be byte-identical to
//! the same runs made one after another without the pool — wall-clock
//! fields aside, which `normalized()` strips.

use dpsync_bench::experiments::config::EngineKind;
use dpsync_bench::pool::{parallel_map, set_worker_override};
use dpsync_bench::{run_simulation, run_specs, ExperimentConfig, RunSpec};
use dpsync_core::metrics::SimulationReport;
use dpsync_core::strategy::StrategyKind;
use std::num::NonZeroUsize;

/// A small fixed-seed sweep covering both engines, single- and multi-table
/// workloads, and every strategy family (deterministic + both DP mechanisms).
fn sweep_specs() -> Vec<RunSpec> {
    let config = ExperimentConfig {
        scale: 120,
        seed: 77,
        ..Default::default()
    }
    .rescale();
    let mut specs = Vec::new();
    for engine in [EngineKind::ObliDb, EngineKind::CryptEpsilon] {
        for strategy in [
            StrategyKind::Sur,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            specs.push(RunSpec {
                engine,
                strategy,
                config,
            });
        }
    }
    // A second seed so the sweep is not one repeated simulation.
    let mut other = config;
    other.seed = 78;
    specs.push(RunSpec {
        engine: EngineKind::ObliDb,
        strategy: StrategyKind::DpTimer,
        config: other,
    });
    specs
}

fn normalize(reports: Vec<SimulationReport>) -> Vec<SimulationReport> {
    reports
        .into_iter()
        .map(SimulationReport::normalized)
        .collect()
}

// One #[test] on purpose: the worker override is process-global and Rust's
// harness runs tests concurrently, so separate tests would race on it and
// could silently drop back to the single-worker path on a 1-core box —
// losing exactly the concurrent coverage this file exists to provide.
#[test]
fn pooled_execution_is_deterministic() {
    let specs = sweep_specs();
    // The sequential reference: one run after another, no pool.
    let sequential: Vec<SimulationReport> = normalize(specs.iter().map(run_simulation).collect());

    // The hosted CI box may report one core; force a real multi-worker pool
    // so the claim actually covers concurrent execution.
    set_worker_override(NonZeroUsize::new(4));
    let pooled = normalize(run_specs(&specs));

    assert_eq!(sequential.len(), pooled.len());
    for (spec, (seq, par)) in specs.iter().zip(sequential.iter().zip(&pooled)) {
        assert_eq!(
            seq, par,
            "pooled report diverged from sequential reference for {spec:?}"
        );
    }
    // Byte-identical in the strictest sense: the serialized reports match.
    assert_eq!(
        format!("{sequential:?}"),
        format!("{pooled:?}"),
        "serialized sweeps differ"
    );

    // The worker count must not change results either.
    set_worker_override(NonZeroUsize::new(2));
    let two = normalize(run_specs(&specs));
    set_worker_override(NonZeroUsize::new(8));
    let eight = normalize(run_specs(&specs));
    assert_eq!(two, eight);
    assert_eq!(two, pooled);

    // Order preservation under heterogeneous per-item durations: items sized
    // so later items finish before earlier ones.
    let items: Vec<u64> = vec![200_000, 10, 50_000, 1, 100_000, 5];
    set_worker_override(NonZeroUsize::new(3));
    let out = parallel_map(&items, |&n| (0..n).sum::<u64>());
    set_worker_override(None);
    assert_eq!(
        out,
        items
            .iter()
            .map(|&n| (0..n).sum::<u64>())
            .collect::<Vec<_>>()
    );
}
