//! Sparse-tick equivalence suite: eliding idle ticks must be invisible in
//! everything DP-Sync's guarantees are stated over.
//!
//! The simulation driver ([`Simulation::run_sparse`], ARCHITECTURE.md §9)
//! skips every tick on which no owner has work, trusting each strategy's
//! `next_wake`.  Definition 2's adversary observes the update pattern — the
//! set of `(t, |γ_t|)` events — and the analyst observes query answers at
//! tick boundaries, so on a fixed-seed workload the native wake schedule
//! must leave three things byte-identical to the reference run, in which
//! every strategy is wrapped in [`EveryTick`] and so consulted at every tick
//! of its owner's active window:
//!
//! 1. every query answer the analyst receives,
//! 2. the full [`SimulationReport::normalized`] (errors, sizes, sync
//!    counts), and
//! 3. the complete adversary view (update pattern, query transcript, byte
//!    totals) that the privacy verifier consumes.
//!
//! The suite covers every engine × {SET, DP-Timer, DP-ANT} — the strategies
//! with the three distinct wake behaviours (dense every tick, boundary-only,
//! dense with per-tick noise) — plus a churn workload where owners join and
//! leave mid-run, exercising deferred `Π_Setup` on both schedules.

use dpsync_core::metrics::SimulationReport;
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::{
    AboveNoisyThresholdStrategy, CacheFlush, DpTimerStrategy, EveryTick, StrategyKind,
    SyncStrategy, SynchronizeEveryTime,
};
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::engines::EngineKind;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ])
}

fn row(t: u64, p: i64) -> Row {
    Row::new(vec![Value::Timestamp(t), Value::Int(p)])
}

fn make_table(name: &str, offset: u64, horizon: u64) -> OwnerWorkload {
    OwnerWorkload {
        table: name.into(),
        schema: schema(),
        initial_rows: (0..8).map(|i| row(0, 40 + offset as i64 + i)).collect(),
        join_time: 0,
        leave_time: None,
        arrivals: (1..=horizon)
            .filter_map(|t| {
                if (t + offset).is_multiple_of(3) {
                    Some((t, vec![row(t, ((t + offset) % 150) as i64)]))
                } else if (t + offset).is_multiple_of(17) {
                    Some((t, vec![row(t, 60), row(t, 61)]))
                } else {
                    None
                }
            })
            .collect(),
    }
}

/// The backend-equivalence suite's two-table workload: bursts and quiet
/// stretches, no churn.
fn steady_workloads(horizon: u64) -> Vec<OwnerWorkload> {
    vec![
        make_table("yellow", 0, horizon),
        make_table("green", 5, horizon),
    ]
}

/// Three tables with churn: `yellow` is present for the whole run (and is
/// the only table queried), `late` joins mid-run, `early` leaves mid-run.
/// Each keeps only the arrivals inside its active window, and `early` gets
/// one batch exactly at its leave tick.
fn churn_workloads(horizon: u64) -> Vec<OwnerWorkload> {
    let mut late = make_table("late", 2, horizon);
    late.join_time = horizon / 3;
    late.arrivals.retain(|(t, _)| *t >= late.join_time);
    let mut early = make_table("early", 7, horizon);
    let leave = horizon / 2;
    early.leave_time = Some(leave);
    early.arrivals.retain(|(t, _)| *t < leave);
    early.arrivals.push((leave, vec![row(leave, 9)]));
    vec![make_table("yellow", 0, horizon), late, early]
}

fn simulation(horizon: u64, seed: u64, join: bool) -> Simulation {
    let mut queries = vec![
        ("Q1".into(), paper_queries::q1_range_count("yellow")),
        ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
    ];
    if join {
        queries.push(("Q3".into(), paper_queries::q3_join_count("yellow", "green")));
    }
    Simulation::new(SimulationConfig {
        query_interval: horizon / 6,
        size_sample_interval: horizon / 3,
        queries,
        seed,
    })
}

fn strategy_for(kind: StrategyKind) -> Box<dyn SyncStrategy> {
    match kind {
        StrategyKind::Set => Box::new(SynchronizeEveryTime::new()),
        StrategyKind::DpTimer => Box::new(DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            30,
            Some(CacheFlush::new(300, 15)),
        )),
        StrategyKind::DpAnt => Box::new(AboveNoisyThresholdStrategy::with_flush(
            Epsilon::new_unchecked(0.5),
            15,
            Some(CacheFlush::new(300, 15)),
        )),
        other => panic!("not used in this suite: {other:?}"),
    }
}

/// Runs one fixed-seed simulation, with every strategy wrapped in
/// [`EveryTick`] (the reference) or on its native wake schedule; returns the
/// normalized report and the final adversary view.
fn run_driver(
    every_tick: bool,
    engine: &dyn SecureOutsourcedDatabase,
    workloads: &[OwnerWorkload],
    kind: StrategyKind,
    horizon: u64,
    seed: u64,
) -> (SimulationReport, AdversaryView) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let join = matches!(engine.name(), "oblidb") && workloads.iter().any(|w| w.table == "green");
    let sim = simulation(horizon, seed, join);
    let report = sim
        .run_sparse(workloads, horizon, engine, &master, |_| {
            if every_tick {
                Box::new(EveryTick(strategy_for(kind)))
            } else {
                strategy_for(kind)
            }
        })
        .expect("simulation succeeds")
        .normalized();
    (report, engine.adversary_view())
}

fn assert_drivers_agree(
    workloads_for: impl Fn(u64) -> Vec<OwnerWorkload>,
    horizon: u64,
    seed: u64,
    label: &str,
) {
    let master = MasterKey::from_bytes([0xEE; 32]);
    let workloads = workloads_for(horizon);
    for engine_kind in EngineKind::ALL {
        for strategy in [
            StrategyKind::Set,
            StrategyKind::DpTimer,
            StrategyKind::DpAnt,
        ] {
            let reference_engine = engine_kind.build(&master);
            let (reference_report, reference_view) = run_driver(
                true,
                reference_engine.as_ref(),
                &workloads,
                strategy,
                horizon,
                seed,
            );

            let engine = engine_kind.build(&master);
            let (report, view) =
                run_driver(false, engine.as_ref(), &workloads, strategy, horizon, seed);
            assert_eq!(
                reference_report, report,
                "{label}: report mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                reference_view, view,
                "{label}: adversary view mismatch for {engine_kind:?}/{strategy:?}"
            );
            assert_eq!(
                format!("{reference_view:?}"),
                format!("{view:?}"),
                "{label}: debug rendering must also be byte-identical"
            );
        }
    }
}

#[test]
fn sparse_schedule_matches_the_every_tick_reference() {
    assert_drivers_agree(steady_workloads, 360, 7, "steady");
}

#[test]
fn churn_workload_is_driver_invariant() {
    // Owners joining and leaving mid-run: deferred Π_Setup at the join tick
    // and an abandoned cache after the leave tick must look the same on both
    // schedules — reports, query answers, and adversary transcripts.
    let horizon = 300u64;
    assert_drivers_agree(churn_workloads, horizon, 23, "churn");

    // Both schedules share the active window, so check its leave edge on
    // its own: with SET every active tick syncs, so the mirror ends with
    // the initial rows plus every arrival up to and including the leave
    // tick — the batch landing exactly there among them.
    let master = MasterKey::from_bytes([0xEE; 32]);
    let workloads = churn_workloads(horizon);
    let early = workloads
        .iter()
        .find(|w| w.table == "early")
        .expect("churn fleet has an early leaver");
    let leave = early.leave_time.expect("early leaves mid-run");
    assert_eq!(early.arrivals.last().map(|(t, _)| *t), Some(leave));
    let expected = early.initial_rows.len()
        + early
            .arrivals
            .iter()
            .filter(|(t, _)| *t <= leave)
            .map(|(_, rows)| rows.len())
            .sum::<usize>();
    let engine = EngineKind::ObliDb.build(&master);
    run_driver(
        false,
        engine.as_ref(),
        &workloads,
        StrategyKind::Set,
        horizon,
        23,
    );
    assert_eq!(engine.table_stats("early").real_records, expected as u64);
}

#[test]
fn join_tick_arrivals_are_delivered_and_driver_invariant() {
    // Regression for the churn off-by-one: the active window used to start
    // strictly after the join tick, so a record arriving exactly when its
    // owner joined was silently dropped from both the owner's cache and the
    // ground truth.  The join tick now runs the deferred Π_Setup followed by
    // a normal tick on both schedules.
    let horizon = 42u64;
    let master = MasterKey::from_bytes([0xEE; 32]);
    let workloads_for = |horizon: u64| {
        let late = OwnerWorkload {
            table: "late".into(),
            schema: schema(),
            initial_rows: (0..3).map(|i| row(0, 60 + i)).collect(),
            join_time: 14,
            leave_time: None,
            arrivals: vec![
                (14, vec![row(14, 7)]), // exactly the join tick
                (28, vec![row(28, 8)]), // mid-window control
            ],
        };
        vec![make_table("yellow", 0, horizon), late]
    };
    assert_drivers_agree(workloads_for, horizon, 31, "join-tick arrival");

    // And the join-tick record actually lands: with SET every active tick
    // syncs, so by the horizon the mirror holds all five real records —
    // three initial rows plus both arrivals, including the join-tick one.
    let engine = EngineKind::ObliDb.build(&master);
    run_driver(
        false,
        engine.as_ref(),
        &workloads_for(horizon),
        StrategyKind::Set,
        horizon,
        31,
    );
    assert_eq!(engine.table_stats("late").real_records, 5);
}
