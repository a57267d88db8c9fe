//! Verifies the Table-4 mechanisms empirically: runs the DP-Timer and DP-ANT
//! update-pattern mechanisms on neighboring growing databases many times and
//! checks that the observed odds ratio of the released update volumes stays
//! within `e^epsilon` (the executable counterpart of Theorems 10 and 11).
//!
//! It then re-checks the guarantee under the selection-index plans: with
//! encrypted-multimap indexes registered and maintained inside `Π_Update`,
//! the update pattern Theorems 10/11 constrain must be byte-identical to an
//! index-free run — under the `TranscriptOnly` planner policy the *entire*
//! adversary view is, and under `AllowIndexedVolume` only the per-query
//! fetch volumes the plan explicitly declares may move.
//!
//! Usage: `cargo run --release -p dpsync-bench --bin exp_table4_privacy [--seed S]`
//!
//! This is an **analytic** experiment: the Monte-Carlo trials run entirely in
//! process, so it accepts no `--transport`/`--backend` flags — passing one is
//! an error, not a no-op.

use dpsync_bench::experiments::tables::{table4_text, verify_update_pattern_privacy};
use dpsync_bench::{ExperimentConfig, FlagSet};
use dpsync_core::simulation::{Simulation, SimulationConfig};
use dpsync_core::sparse::OwnerWorkload;
use dpsync_core::strategy::DpTimerStrategy;
use dpsync_crypto::MasterKey;
use dpsync_dp::Epsilon;
use dpsync_edb::engines::ObliDbEngine;
use dpsync_edb::planner::LeakagePolicy;
use dpsync_edb::query::paper_queries;
use dpsync_edb::sogdb::SecureOutsourcedDatabase;
use dpsync_edb::{AdversaryView, DataType, Row, Schema, Value};

/// One fixed-seed DP-Timer run with the given index policy (`None` = no
/// indexes registered); returns the final adversary view.
fn indexed_run(seed: u64, policy: Option<LeakagePolicy>) -> AdversaryView {
    let horizon = 180u64;
    let schema = Schema::from_pairs(&[
        ("pick_time", DataType::Timestamp),
        ("pickup_id", DataType::Int),
    ]);
    let workload = OwnerWorkload {
        table: "yellow".into(),
        schema,
        initial_rows: (0..12)
            .map(|i| Row::new(vec![Value::Timestamp(0), Value::Int(40 + i)]))
            .collect(),
        join_time: 0,
        leave_time: None,
        arrivals: (4..=horizon)
            .step_by(4)
            .map(|t| {
                let row = Row::new(vec![Value::Timestamp(t), Value::Int((t % 150) as i64)]);
                (t, vec![row])
            })
            .collect(),
    };
    let sim = Simulation::new(SimulationConfig {
        query_interval: horizon / 4,
        size_sample_interval: horizon / 2,
        queries: vec![("Q1".into(), paper_queries::q1_range_count("yellow"))],
        seed,
    });
    let sim = match policy {
        Some(policy) => sim.with_indexes(policy),
        None => sim,
    };
    let master = MasterKey::from_bytes([0x7A; 32]);
    let engine = ObliDbEngine::new(&master);
    sim.run_sparse(&[workload], horizon, &engine, &master, |_| {
        Box::new(DpTimerStrategy::with_flush(
            Epsilon::new_unchecked(1.0),
            30,
            None,
        ))
    })
    .expect("simulation succeeds");
    engine.adversary_view()
}

fn main() {
    let config = ExperimentConfig::from_env("exp_table4_privacy", FlagSet::Analytic);
    let epsilon = 1.0;
    let trials = 20_000;
    println!(
        "Table 4 — empirical verification of the update-pattern mechanisms (epsilon = {epsilon}, {trials} trials per neighboring database)\n"
    );
    let verification = verify_update_pattern_privacy(epsilon, trials, config.seed);
    print!("{}", table4_text(&verification).render());
    if verification.timer.passes && verification.ant.passes {
        println!(
            "\nBoth DP strategies stay within the e^epsilon bound (Theorems 10 and 11); \
             worst-case headroom {:.2}x under the statistically corrected bound \
             across point buckets and tail events.",
            verification
                .timer
                .headroom()
                .min(verification.ant.headroom())
        );
    } else {
        println!("\nWARNING: a strategy exceeded the e^epsilon bound — investigate before trusting the implementation.");
        std::process::exit(1);
    }

    // The mechanisms' guarantee must survive the index plans: the update
    // pattern is produced before any index sees a record, and maintenance
    // inserts exactly one entry per padded record.
    println!("\nIndex-plan leakage profile (fixed-seed DP-Timer run, ObliDB engine):");
    let baseline = indexed_run(config.seed, None);
    let transcript_only = indexed_run(config.seed, Some(LeakagePolicy::TranscriptOnly));
    let permissive = indexed_run(config.seed, Some(LeakagePolicy::AllowIndexedVolume));
    let mut ok = true;
    if baseline == transcript_only {
        println!(
            "  transcript-only plan: adversary view byte-identical to the index-free run \
             ({} update events, {} query observations)",
            baseline.update_events().len(),
            baseline.queries().len()
        );
    } else {
        println!("  WARNING: transcript-only plan moved the adversary view");
        ok = false;
    }
    if baseline.update_pattern() == permissive.update_pattern() {
        let indexed_reads = permissive
            .queries()
            .iter()
            .filter(|o| o.kind == "index")
            .count();
        println!(
            "  indexed-volume plan: update pattern unchanged (Theorems 10/11 unaffected); \
             {indexed_reads} reads declared their fetch volume"
        );
    } else {
        println!("  WARNING: the indexed-volume plan changed the update pattern itself");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
}
