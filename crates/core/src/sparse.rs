//! The simulation driver: event-driven scheduling for fleets of
//! mostly-idle owners.
//!
//! Stepping every owner through every time unit costs
//! `O(owners × horizon)` even when almost every tick is a no-op.  At the
//! scale the harness targets (10^5–10^6 owners, see `exp_scale` in
//! `dpsync-bench`) a typical owner has work at a few dozen ticks out of
//! thousands, so the driver keeps a time-ordered **ready queue** of
//! `(next-event-time, owner)` entries and only wakes owners that have work:
//!
//! * an **arrival** — records reaching the owner's cache at that tick;
//! * a **strategy deadline** — the next tick at which the owner's
//!   [`SyncStrategy`] must be consulted even without arrivals, reported by
//!   [`next_wake`](SyncStrategy::next_wake)
//!   (DP-Timer's period and flush boundaries; SET and DP-ANT stay dense);
//! * the owner's **join tick** when it enters the simulation mid-run.
//!
//! The analyst still observes the engine exactly at tick boundaries, so the
//! Definition 2 transcript — the set of `(t, |γ_t|)` update events — is the
//! one an every-tick sweep would produce: elided ticks are precisely those
//! on which no owner would have acted and no randomness would have been
//! drawn, so eliding them reorders nothing the adversary observes and
//! perturbs no RNG stream.  The full argument lives in ARCHITECTURE.md §9;
//! the invariant is pinned by the `sparse_tick_equivalence` integration
//! suite, which requires normalized reports and adversary views
//! byte-identical to the same driver with every strategy wrapped in
//! [`EveryTick`](crate::strategy::EveryTick), which consults every owner at
//! every tick of its active window.
//!
//! # Ready-queue invariants
//!
//! 1. Every queue entry `(t, i)` satisfies `t_now < t ≤ min(leave_i,
//!    horizon)` — no event is ever scheduled in the past or outside the
//!    owner's active window.
//! 2. At most one entry per owner is in the queue at any moment; popping it
//!    processes the owner and pushes its next event (if any).
//! 3. Entries are popped in `(time, owner index)` order — the min-heap over
//!    `(u64, usize)` tuples breaks time ties by owner index, so owners act
//!    within a tick in workload order.
//! 4. Observation boundaries (analyst queries, size samples, the horizon)
//!    are merged into the same timeline: the loop never advances past the
//!    next boundary, so the analyst runs at exactly the multiples of its
//!    intervals, with all owner work at that tick already applied.

use crate::analyst::{Analyst, NamedQuery};
use crate::metrics::{SimulationReport, SizeSample};
use crate::owner::Owner;
use crate::simulation::Simulation;
use crate::strategy::{StrategyKind, SyncStrategy};
use crate::timeline::Timestamp;
use dpsync_crypto::MasterKey;
use dpsync_dp::DpRng;
use dpsync_edb::exec::PlainDatabase;
use dpsync_edb::sogdb::{EdbError, SecureOutsourcedDatabase};
use dpsync_edb::{Row, Schema};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The workload for one owner in event-list form: arrivals are kept as a
/// sorted `(time, rows)` list instead of one vector slot per tick, so a
/// million mostly-idle owners cost memory proportional to their *events*,
/// not to the horizon.
#[derive(Debug, Clone)]
pub struct OwnerWorkload {
    /// Table name (one table per owner).
    pub table: String,
    /// Table schema.
    pub schema: Schema,
    /// Initial database `D₀`, outsourced at setup.
    pub initial_rows: Vec<Row>,
    /// The tick at which the owner joins the simulation.  `0` means the
    /// owner is present from the start and `Π_Setup` runs during
    /// preparation; `J > 0` defers `Π_Setup` (and the insertion of
    /// `initial_rows` into the ground truth) to tick `J`, modelling an owner
    /// who comes online mid-run.  The join tick is part of the active
    /// window: after the deferred `Π_Setup` the owner is ticked normally, so
    /// arrivals landing exactly at tick `J` reach its cache like any others.
    pub join_time: u64,
    /// The last tick at which the owner is online, inclusive; `None` keeps
    /// the owner for the whole run.  After `leave_time` the owner is never
    /// ticked again — whatever its cache holds stays unsynced.
    pub leave_time: Option<u64>,
    /// Arrival events, strictly increasing in time, each at a tick `≥ 1`
    /// inside the owner's active window ([`OwnerWorkload::active_at`]).
    /// Ticks without an event model `u_t = ∅`; events past the horizon are
    /// never delivered.  The driver panics on a list that breaks this
    /// contract rather than silently dropping batches.
    pub arrivals: Vec<(u64, Vec<Row>)>,
}

impl OwnerWorkload {
    /// Whether the owner is online and tickable at time `t`: from its join
    /// tick (inclusive — a deferred `Π_Setup` runs there first, then the
    /// owner ticks normally) through its leave tick, inclusive.
    pub fn active_at(&self, t: u64) -> bool {
        t >= self.join_time && self.leave_time.is_none_or(|leave| t <= leave)
    }

    /// Total rows (initial plus arrivals).
    pub fn total_rows(&self) -> u64 {
        self.initial_rows.len() as u64
            + self
                .arrivals
                .iter()
                .map(|(_, rows)| rows.len() as u64)
                .sum::<u64>()
    }

    /// Panics unless the arrival ticks are strictly increasing, `≥ 1` and
    /// inside the active window.  The driver advances an owner's arrival
    /// cursor only when its tick comes up, so one out-of-contract entry
    /// would otherwise stall the cursor and drop every later batch from the
    /// engine and the ground truth alike.
    fn assert_well_formed(&self) {
        let mut previous = 0;
        for (t, _) in &self.arrivals {
            assert!(
                *t > previous && self.active_at(*t),
                "table {}: arrival at tick {t} breaks the OwnerWorkload contract \
                 (ticks strictly increasing, >= 1, inside the active window)",
                self.table
            );
            previous = *t;
        }
    }
}

/// Pre-run state: present-from-the-start owners set up, logical database
/// seeded with their initial rows, per-component RNGs derived.  Owners
/// joining mid-run keep their setup RNG in `setup_rngs` until their join
/// tick.
struct PreparedRun {
    owners: Vec<Owner>,
    owner_rngs: Vec<DpRng>,
    setup_rngs: Vec<Option<DpRng>>,
    analyst: Analyst,
    analyst_rng: DpRng,
    logical: PlainDatabase,
    sync_count: u64,
    strategy_kind: StrategyKind,
    epsilon: Option<f64>,
}

impl Simulation {
    /// Runs the simulation against one shared engine.
    ///
    /// * `workloads` — one entry per owner (table); all are replayed on a
    ///   shared clock.
    /// * `horizon` — the last tick; the run covers ticks `1..=horizon` and
    ///   always takes a size sample at the horizon.
    /// * `engine` — the shared encrypted database.
    /// * `master` — the owners' master key (must be the key the engine was
    ///   constructed with).
    /// * `make_strategy` — called once per table to create that owner's
    ///   strategy instance.
    ///
    /// Owner work costs `O(events + boundaries)` rather than
    /// `O(owners × horizon)`.  Panics if an arrival list breaks the
    /// [`OwnerWorkload::arrivals`] contract.
    pub fn run_sparse(
        &self,
        workloads: &[OwnerWorkload],
        horizon: u64,
        engine: &dyn SecureOutsourcedDatabase,
        master: &MasterKey,
        make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<SimulationReport, EdbError> {
        let engines: Vec<&dyn SecureOutsourcedDatabase> = vec![engine; workloads.len()];
        self.run_sparse_multi(workloads, horizon, &engines, engine, master, make_strategy)
    }

    /// Runs the sparse-tick scheduler with per-owner engine handles.
    ///
    /// All handles must address the *same* underlying database (e.g. many
    /// multiplexed client sessions onto one server): `owner_engines[i]`
    /// carries owner `i`'s `Π_Setup` / `Π_Update` calls and `analyst_engine`
    /// carries the analyst's queries and the size samples.  `exp_scale
    /// --transport tcp` uses this to spread a million owners over a bounded
    /// pool of reactor sessions.
    pub fn run_sparse_multi(
        &self,
        workloads: &[OwnerWorkload],
        horizon: u64,
        owner_engines: &[&dyn SecureOutsourcedDatabase],
        analyst_engine: &dyn SecureOutsourcedDatabase,
        master: &MasterKey,
        make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<SimulationReport, EdbError> {
        for w in workloads {
            w.assert_well_formed();
        }
        let mut run = self.prepare(workloads, owner_engines, master, make_strategy)?;
        let mut query_samples = Vec::new();
        let mut size_samples = Vec::new();

        // Per-owner cursor into its sorted arrival list; invariant: every
        // arrival before the cursor has been delivered.
        let mut cursors = vec![0usize; workloads.len()];
        // The ready queue: `Reverse` turns `BinaryHeap`'s max-heap into a
        // min-heap, and tuple ordering breaks equal times by owner index, so
        // owners act within a tick in workload order.
        let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();

        // An owner's events never extend past its leave tick or the horizon.
        let bound = |w: &OwnerWorkload| w.leave_time.unwrap_or(horizon).min(horizon);

        // The next tick strictly after `now` at which owner `i` has work:
        // its next undelivered arrival or its strategy's wake deadline,
        // whichever comes first, clamped to the owner's active window.
        let next_event =
            |run: &PreparedRun, cursors: &[usize], i: usize, now: u64| -> Option<u64> {
                let w = &workloads[i];
                let mut next: Option<u64> = w
                    .arrivals
                    .get(cursors[i])
                    .map(|(t, _)| *t)
                    .filter(|t| *t > now);
                if let Some(wake) = run.owners[i].strategy().next_wake(Timestamp(now)) {
                    // Defensive clamp: the contract says strictly after `now`.
                    let wake = wake.value().max(now + 1);
                    next = Some(next.map_or(wake, |n| n.min(wake)));
                }
                next.filter(|t| *t <= bound(w))
            };

        // Seed the queue: joined owners from their first post-zero event,
        // late joiners from their join tick (Π_Setup runs there even when
        // the active window is empty).
        for (i, w) in workloads.iter().enumerate() {
            if w.join_time == 0 {
                if let Some(t) = next_event(&run, &cursors, i, 0) {
                    queue.push(Reverse((t, i)));
                }
            } else if (1..=horizon).contains(&w.join_time) {
                queue.push(Reverse((w.join_time, i)));
            }
        }

        let qi = self.config().query_interval;
        let si = self.config().size_sample_interval;
        let mut t = 0u64;
        while t < horizon {
            // Advance to the next owner event or observation boundary,
            // whichever comes first; the horizon itself is always observed
            // (final size sample).
            let mut target = horizon;
            if let Some(periods) = t.checked_div(qi) {
                target = target.min((periods + 1) * qi);
            }
            if let Some(periods) = t.checked_div(si) {
                target = target.min((periods + 1) * si);
            }
            if let Some(Reverse((event_time, _))) = queue.peek() {
                target = target.min(*event_time);
            }
            t = target;
            let time = Timestamp(t);

            // 1. Owner events due now, in owner-index order.
            while let Some(Reverse((event_time, i))) = queue.peek().copied() {
                if event_time != t {
                    break;
                }
                queue.pop();
                let w = &workloads[i];
                if t == w.join_time {
                    for row in &w.initial_rows {
                        run.logical.insert(&w.table, row.clone());
                    }
                    let rng = run.setup_rngs[i].as_mut().expect("join tick reached once");
                    run.owners[i].setup(w.initial_rows.clone(), owner_engines[i], rng)?;
                    run.sync_count += 1;
                }
                // The join tick is inside the active window: the freshly
                // set-up owner ticks immediately, so arrivals landing on its
                // join tick are delivered right after the deferred setup.
                if w.active_at(t) {
                    let arrivals: &[Row] = match w.arrivals.get(cursors[i]) {
                        Some((arrival_time, rows)) if *arrival_time == t => {
                            cursors[i] += 1;
                            rows
                        }
                        _ => &[],
                    };
                    for row in arrivals {
                        run.logical.insert(&w.table, row.clone());
                    }
                    let report = run.owners[i].tick(
                        time,
                        arrivals,
                        owner_engines[i],
                        &mut run.owner_rngs[i],
                    )?;
                    if report.synced {
                        run.sync_count += 1;
                    }
                }
                if let Some(next) = next_event(&run, &cursors, i, t) {
                    queue.push(Reverse((next, i)));
                }
            }

            // 2. The analyst observes at exactly the multiples of its interval.
            if qi > 0 && t.is_multiple_of(qi) {
                query_samples.extend(run.analyst.pose_all(
                    time,
                    analyst_engine,
                    &run.logical,
                    &mut run.analyst_rng,
                )?);
            }

            // 3. Size samples on the same schedule (plus the horizon).
            if (si > 0 && t.is_multiple_of(si)) || t == horizon {
                let gap = run
                    .owners
                    .iter()
                    .map(crate::owner::Owner::logical_gap)
                    .sum();
                size_samples.push(self.sample_sizes(
                    time,
                    workloads.iter().map(|w| w.table.as_str()),
                    analyst_engine,
                    gap,
                    &run.logical,
                ));
            }
        }

        Ok(SimulationReport {
            strategy: run.strategy_kind,
            engine: analyst_engine.name().to_string(),
            epsilon: run.epsilon,
            query_samples,
            size_samples,
            sync_count: run.sync_count,
            horizon,
        })
    }

    /// Runs `Π_Setup` for every owner present from the start and derives the
    /// per-component RNG streams; `engines[i]` carries owner `i`'s setup.
    ///
    /// `DpRng::derive` is stateless and label-keyed, so the per-owner streams
    /// (`owner/{table}`, `owner-ticks/{table}`) and the analyst stream do not
    /// depend on the order in which they are derived.
    fn prepare(
        &self,
        workloads: &[OwnerWorkload],
        engines: &[&dyn SecureOutsourcedDatabase],
        master: &MasterKey,
        mut make_strategy: impl FnMut(&str) -> Box<dyn SyncStrategy>,
    ) -> Result<PreparedRun, EdbError> {
        assert!(
            !workloads.is_empty(),
            "at least one table workload is required"
        );
        assert_eq!(
            workloads.len(),
            engines.len(),
            "one engine reference per owner"
        );
        let rng = DpRng::seed_from_u64(self.config().seed);

        let mut logical = PlainDatabase::new();
        for w in workloads {
            logical.create_table(&w.table, w.schema.clone());
        }

        let mut owners: Vec<Owner> = Vec::with_capacity(workloads.len());
        let mut setup_rngs: Vec<Option<DpRng>> = Vec::with_capacity(workloads.len());
        let mut sync_count = 0u64;
        let mut strategy_kind = None;
        let mut epsilon = None;
        for (w, engine) in workloads.iter().zip(engines) {
            let strategy = make_strategy(&w.table);
            strategy_kind.get_or_insert(strategy.kind());
            if epsilon.is_none() {
                epsilon = strategy.epsilon().map(|e| e.value());
            }
            let mut owner = Owner::new(&w.table, w.schema.clone(), master, strategy);
            let mut owner_rng = rng.derive(&format!("owner/{}", w.table));
            if w.join_time == 0 {
                for row in &w.initial_rows {
                    logical.insert(&w.table, row.clone());
                }
                owner.setup(w.initial_rows.clone(), *engine, &mut owner_rng)?;
                sync_count += 1;
                setup_rngs.push(None);
            } else {
                // The owner joins mid-run: Π_Setup is deferred to its join
                // tick, but its RNG stream is derived here from the same
                // label so the transcript is a pure function of the seed.
                setup_rngs.push(Some(owner_rng));
            }
            owners.push(owner);
        }

        let named: Vec<NamedQuery> = self
            .config()
            .queries
            .iter()
            .map(|(label, q)| NamedQuery::new(label.clone(), q.clone()))
            .collect();
        let analyst = Analyst::with_mode(named, self.read_mode());
        let analyst_rng = rng.derive("analyst");
        let owner_rngs: Vec<DpRng> = workloads
            .iter()
            .map(|w| rng.derive(&format!("owner-ticks/{}", w.table)))
            .collect();

        Ok(PreparedRun {
            owners,
            owner_rngs,
            setup_rngs,
            analyst,
            analyst_rng,
            logical,
            sync_count,
            strategy_kind: strategy_kind.expect("at least one workload"),
            epsilon,
        })
    }

    fn sample_sizes<'a>(
        &self,
        time: Timestamp,
        tables: impl IntoIterator<Item = &'a str>,
        engine: &dyn SecureOutsourcedDatabase,
        logical_gap: u64,
        logical: &PlainDatabase,
    ) -> SizeSample {
        let mut outsourced_records = 0u64;
        let mut outsourced_bytes = 0u64;
        let mut dummy_records = 0u64;
        let mut dummy_bytes = 0u64;
        for table in tables {
            let stats = engine.table_stats(table);
            outsourced_records += stats.ciphertext_count;
            outsourced_bytes += stats.ciphertext_bytes;
            dummy_records += stats.dummy_records;
            dummy_bytes += stats.dummy_bytes();
        }
        SizeSample {
            time: time.value(),
            outsourced_records,
            outsourced_bytes,
            dummy_records,
            dummy_bytes,
            logical_records: logical.total_rows() as u64,
            logical_gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimulationConfig;
    use crate::strategy::SynchronizeUponReceipt;
    use dpsync_edb::engines::ObliDbEngine;
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{DataType, Value};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    /// A SUR owner of `table` holding one initial row.
    fn sur_owner(table: &str, join_time: u64, arrivals: &[u64]) -> OwnerWorkload {
        OwnerWorkload {
            table: table.into(),
            schema: schema(),
            initial_rows: vec![row(0, 1)],
            join_time,
            leave_time: None,
            arrivals: arrivals.iter().map(|&t| (t, vec![row(t, 2)])).collect(),
        }
    }

    /// Runs SUR owners with the given analyst schedule; returns the report.
    fn run_sur(
        workloads: &[OwnerWorkload],
        horizon: u64,
        query_interval: u64,
        size_sample_interval: u64,
    ) -> SimulationReport {
        let master = MasterKey::from_bytes([3u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(SimulationConfig {
            query_interval,
            size_sample_interval,
            queries: vec![
                ("Q1".into(), paper_queries::q1_range_count("yellow")),
                ("Q2".into(), paper_queries::q2_group_by_count("yellow")),
            ],
            seed: 7,
        });
        sim.run_sparse(workloads, horizon, &engine, &master, |_| {
            Box::new(SynchronizeUponReceipt::new())
        })
        .unwrap()
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at tick 5 breaks")]
    fn repeated_arrival_tick_is_rejected() {
        run_sur(&[sur_owner("yellow", 0, &[5, 5, 9])], 30, 0, 0);
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at tick 0 breaks")]
    fn arrival_at_tick_zero_is_rejected() {
        run_sur(&[sur_owner("yellow", 0, &[0, 9])], 30, 0, 0);
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at tick 5 breaks")]
    fn decreasing_arrival_ticks_are_rejected() {
        run_sur(&[sur_owner("yellow", 0, &[9, 5])], 30, 0, 0);
    }

    #[test]
    #[should_panic(expected = "table yellow: arrival at tick 3 breaks")]
    fn arrival_before_the_join_tick_is_rejected() {
        run_sur(&[sur_owner("yellow", 10, &[3, 20])], 30, 0, 0);
    }

    #[test]
    fn analyst_observes_exactly_at_interval_multiples() {
        // No owner acts at an observation tick: SUR never asks to be woken,
        // the two arrivals (t = 3, 26) and the late join (t = 5) fall between
        // the multiples of 7 and 11, and the horizon is a multiple of
        // neither interval.
        let fleet = [sur_owner("yellow", 0, &[3, 26]), sur_owner("green", 5, &[])];
        let horizon = 40;
        let query_times = |report: &SimulationReport| {
            let mut got: Vec<(u64, String)> = report
                .query_samples
                .iter()
                .map(|s| (s.time, s.query.clone()))
                .collect();
            got.sort();
            got
        };
        let size_times = |report: &SimulationReport| -> Vec<u64> {
            report.size_samples.iter().map(|s| s.time).collect()
        };
        let every = |interval: u64| -> Vec<(u64, String)> {
            (interval..=horizon)
                .step_by(interval as usize)
                .flat_map(|t| [(t, "Q1".to_string()), (t, "Q2".to_string())])
                .collect()
        };

        let report = run_sur(&fleet, horizon, 7, 11);
        assert_eq!(query_times(&report), every(7));
        assert_eq!(size_times(&report), vec![11, 22, 33, 40]);

        let report = run_sur(&fleet, horizon, 0, 11);
        assert!(report.query_samples.is_empty());
        assert_eq!(size_times(&report), vec![11, 22, 33, 40]);

        let report = run_sur(&fleet, horizon, 7, 0);
        assert_eq!(query_times(&report), every(7));
        assert_eq!(size_times(&report), vec![40]);
    }

    #[test]
    fn arrival_driven_owner_skips_idle_stretches() {
        // A SUR owner with two arrivals across a long horizon: the engine
        // must see exactly setup + two updates, and the report must still
        // cover the full horizon.
        let master = MasterKey::from_bytes([3u8; 32]);
        let engine = ObliDbEngine::new(&master);
        let sim = Simulation::new(SimulationConfig {
            query_interval: 0,
            size_sample_interval: 0,
            queries: vec![],
            seed: 7,
        });
        let workload = OwnerWorkload {
            table: "yellow".into(),
            schema: schema(),
            initial_rows: vec![row(0, 1)],
            join_time: 0,
            leave_time: None,
            arrivals: vec![(5, vec![row(5, 2)]), (90_000, vec![row(90_000, 3)])],
        };
        let report = sim
            .run_sparse(&[workload], 100_000, &engine, &master, |_| {
                Box::new(SynchronizeUponReceipt::new())
            })
            .unwrap();
        assert_eq!(report.sync_count, 3); // setup + two arrival-driven syncs
        assert_eq!(report.horizon, 100_000);
        assert_eq!(engine.table_stats("yellow").real_records, 3);
    }
}
