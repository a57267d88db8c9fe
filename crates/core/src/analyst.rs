//! The analyst's runtime.
//!
//! The analyst is the (trusted, authorized) party that poses queries against
//! the outsourced database.  In the evaluation the analyst also knows the
//! ground truth — the logical database — so it can measure the L1 error of
//! every answer; in production the error is of course unknown, which is
//! exactly why the paper proves the logical-gap bounds instead.
//!
//! The logical copy only grows, so the analyst keeps what it derives from it
//! current instead of recomputing it: a cursor per queried table counts the
//! rows already applied, and each pose first feeds the rows appended since
//! the last one to each count and group-by query's ground-truth
//! [`MaterializedView`] and, when it plans over indexes, to the planner's
//! [`RunningTableStats`].  A pose therefore costs O(rows appended since the
//! last pose) on the harness side, not O(table size).  Joins and selections
//! have no incremental form and keep their ground truth on
//! [`PlainDatabase::execute`].

use crate::metrics::QuerySample;
use crate::timeline::Timestamp;
use dpsync_edb::emm::IndexDef;
use dpsync_edb::exec::PlainDatabase;
use dpsync_edb::planner::{LeakagePolicy, Plan, Planner, RunningTableStats, Statistics};
use dpsync_edb::query::QueryAnswer;
use dpsync_edb::sogdb::{EdbError, QueryOutcome, SecureOutsourcedDatabase};
use dpsync_edb::views::{MaterializedView, ViewDef};
use dpsync_edb::Query;
use rand::RngCore;
use std::collections::BTreeSet;

/// A named query in the analyst's workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedQuery {
    /// Short label ("Q1", "Q2", "Q3").
    pub label: String,
    /// The query itself.
    pub query: Query,
}

impl NamedQuery {
    /// Creates a named query.
    pub fn new(label: impl Into<String>, query: Query) -> Self {
        Self {
            label: label.into(),
            query,
        }
    }
}

/// How the analyst serves its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadMode {
    /// Every read is a full scan.
    #[default]
    Scan,
    /// Each materializable query is registered as a server-side view, named
    /// after its label, and read through it.
    Views,
    /// Indexes derived from the workload are registered, and a planner under
    /// this policy picks each read's plan.
    Indexes(LeakagePolicy),
}

/// Registration status of one server-side access path: a recurring query's
/// view or a workload-derived index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Registration {
    /// Not yet registered (the table has not been set up yet); retried at
    /// the next pose.
    Pending,
    /// Registered; reads may go through it.
    Registered,
    /// The shape, the column or the engine cannot carry it; reads stay on
    /// the scan path for good.
    Unsupported,
}

/// The analyst: a fixed set of queries posed periodically.
///
/// Under [`ReadMode::Views`], the analyst treats its workload as *hot*: each
/// materializable query is auto-registered as a server-side view (named
/// after its label) the first time its table exists, and subsequent poses
/// read the view in O(result size).  Answers and the adversary's transcript
/// are unchanged — only the measured query latency drops.
///
/// Under [`ReadMode::Indexes`], the analyst derives candidate
/// encrypted-multimap indexes from its workload (one per predicate or join
/// column, named `idx_{table}_{column}`), registers them lazily, and runs a
/// leakage-aware [`Planner`] per pose: under
/// [`LeakagePolicy::TranscriptOnly`] every read stays a full scan (and the
/// adversary's view is byte-identical to an index-free run), while
/// [`LeakagePolicy::AllowIndexedVolume`] lets selective reads pay the
/// declared indexed-volume leakage for sub-scan cost.
#[derive(Debug, Clone, Default)]
pub struct Analyst {
    queries: Vec<NamedQuery>,
    mode: ReadMode,
    /// Under [`ReadMode::Views`], each query's view registration, in query
    /// order; empty otherwise.
    views: Vec<Registration>,
    /// Under [`ReadMode::Indexes`], the candidate indexes and their
    /// registration; empty otherwise.
    indexes: Vec<(IndexDef, Registration)>,
    /// Whether the engine supports each query, asked at the first pose.
    supported: Option<Vec<bool>>,
    /// Ground truth and planner statistics, kept current with the logical
    /// copy.
    running: Running,
}

impl Analyst {
    /// Creates an analyst with the given query workload (scan reads).
    pub fn new(queries: Vec<NamedQuery>) -> Self {
        Self::with_mode(queries, ReadMode::Scan)
    }

    /// Creates an analyst that serves its reads under `mode`.
    pub fn with_mode(queries: Vec<NamedQuery>, mode: ReadMode) -> Self {
        let views = match mode {
            ReadMode::Views => vec![Registration::Pending; queries.len()],
            _ => Vec::new(),
        };
        let indexes = match mode {
            ReadMode::Indexes(_) => candidate_indexes(&queries)
                .into_iter()
                .map(|def| (def, Registration::Pending))
                .collect(),
            _ => Vec::new(),
        };
        let running = Running::new(&queries, matches!(mode, ReadMode::Indexes(_)));
        Self {
            queries,
            mode,
            views,
            indexes,
            supported: None,
            running,
        }
    }

    /// The configured queries.
    pub fn queries(&self) -> &[NamedQuery] {
        &self.queries
    }

    /// How this analyst serves its reads.
    pub fn read_mode(&self) -> ReadMode {
        self.mode
    }

    /// Poses every supported query against `edb`, comparing each answer with
    /// the ground truth computed over `logical`, and returns one sample per
    /// query.  Unsupported queries (e.g. joins on the Crypt-ε-like engine)
    /// are skipped, mirroring the paper's footnote 2.  Support depends on a
    /// query's shape alone, so the engine is asked once per query, at the
    /// first pose.
    ///
    /// Each pose first retries the pending view or index registrations:
    /// tables that have not been set up yet are retried at the next pose,
    /// and a query whose shape or engine cannot be served by a view or an
    /// index stays on the scan path.
    ///
    /// # The logical copy only grows
    ///
    /// `logical` must be the same append-only copy at every pose: tables may
    /// appear and rows may be appended between poses, but no row is ever
    /// removed, replaced or reordered (a `Simulation` run only appends).
    /// The analyst relies on it to cost O(rows appended since the last pose)
    /// rather than O(table size): it feeds only the new rows of each queried
    /// table to the count and group-by queries' ground-truth views and to the
    /// planner's running statistics.  A table is followed from the first pose
    /// at which it exists with a schema.
    ///
    /// # Panics
    ///
    /// Panics, naming the table, when a followed table has fewer rows than
    /// an earlier pose already applied, or has vanished: the ground truth
    /// would otherwise be silently wrong.
    pub fn pose_all(
        &mut self,
        time: Timestamp,
        edb: &dyn SecureOutsourcedDatabase,
        logical: &PlainDatabase,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<QuerySample>, EdbError> {
        self.register_pending(edb)?;
        let queries = &self.queries;
        let supported = self
            .supported
            .get_or_insert_with(|| queries.iter().map(|q| edb.supports(&q.query)).collect());
        self.running.catch_up(queries, supported, logical);
        let plan_context = index_plan(self.mode, &self.indexes, &self.running);
        let mut samples = Vec::with_capacity(queries.len());
        for (index, named) in queries.iter().enumerate() {
            if !supported[index] {
                continue;
            }
            let truth = self.running.truth(index, &named.query, logical)?;
            let outcome = if self.views.get(index) == Some(&Registration::Registered) {
                edb.query_view(&named.label, rng)?
            } else if let Some((planner, registered)) = plan_context.as_ref() {
                pose_planned(edb, planner, registered, &named.query, rng)?
            } else {
                edb.query(&named.query, rng)?
            };
            // The analyst is the trust boundary for released answers: a
            // Laplace-perturbed count can come back negative, and a count
            // below zero is never a useful answer, so it is floored at zero
            // *here* — never inside the engine, whose release (and whose
            // server-side transcript) must keep the raw perturbed value.
            let released = clamp_released(outcome.answer);
            samples.push(QuerySample {
                time: time.value(),
                query: named.label.clone(),
                l1_error: released.l1_error(&truth),
                estimated_qet: outcome.estimated_seconds,
                measured_qet: outcome.measured_seconds,
            });
        }
        Ok(samples)
    }

    /// Retries every pending view and index registration.
    fn register_pending(&mut self, edb: &dyn SecureOutsourcedDatabase) -> Result<(), EdbError> {
        for (named, state) in self.queries.iter().zip(&mut self.views) {
            if *state == Registration::Pending {
                // A shape that cannot be materialized (joins, selects) is
                // refused by `ViewDef::new` without ever reaching the server.
                *state = register(
                    ViewDef::new(named.label.clone(), named.query.clone())
                        .and_then(|def| edb.register_view(&def)),
                )?;
            }
        }
        for (def, state) in &mut self.indexes {
            if *state == Registration::Pending {
                *state = register(edb.register_index(def))?;
            }
        }
        Ok(())
    }
}

/// The planner for this pose, over the running statistics, and the indexes
/// registered so far.  `None` unless the analyst plans over indexes.
fn index_plan(
    mode: ReadMode,
    indexes: &[(IndexDef, Registration)],
    running: &Running,
) -> Option<(Planner, Vec<IndexDef>)> {
    let ReadMode::Indexes(policy) = mode else {
        return None;
    };
    let registered = indexes
        .iter()
        .filter(|(_, state)| *state == Registration::Registered)
        .map(|(def, _)| def.clone())
        .collect();
    Some((Planner::new(policy, running.statistics()), registered))
}

/// The name every ground-truth view is built under.  The views never reach
/// a server, so one fixed name serves every query, whatever its label.
const GROUND_TRUTH_VIEW: &str = "ground_truth";

/// What the analyst derives from its logical copy, kept current one pose at
/// a time: each count and group-by query's ground truth as a
/// [`MaterializedView`], and per-table planner statistics.
#[derive(Debug, Clone, Default)]
struct Running {
    /// One entry per table the state is derived from, in first-use order.
    tables: Vec<FollowedTable>,
    /// Each query's ground-truth view, once its table exists with a schema;
    /// `None` answers through [`PlainDatabase::execute`].
    truths: Vec<Option<MaterializedView>>,
    /// Whether planner statistics are kept (under [`ReadMode::Indexes`]).
    with_stats: bool,
}

/// One table of the logical copy that the running state is derived from.
#[derive(Debug, Clone)]
struct FollowedTable {
    name: String,
    /// The queries whose ground truth can be a view over this table.
    readers: Vec<usize>,
    /// Set at the first pose at which the table exists with a schema.
    cursor: Option<Cursor>,
}

/// How far the running state has read into one table.
#[derive(Debug, Clone)]
struct Cursor {
    /// Rows of the table already applied.
    applied: usize,
    /// The table's running planner statistics, when kept.
    stats: Option<RunningTableStats>,
}

impl Running {
    /// Follows the table of every count and group-by query for ground truth
    /// and, `with_stats`, every table any query reads for planner
    /// statistics (the coverage `Statistics::observe_table` had per pose).
    fn new(queries: &[NamedQuery], with_stats: bool) -> Self {
        let mut tables: Vec<FollowedTable> = Vec::new();
        for (index, named) in queries.iter().enumerate() {
            let reader = matches!(
                named.query,
                Query::Count { .. } | Query::GroupByCount { .. }
            );
            if !(reader || with_stats) {
                continue;
            }
            for table in named.query.tables() {
                let slot = match tables.iter().position(|t| t.name == table) {
                    Some(slot) => slot,
                    None => {
                        tables.push(FollowedTable {
                            name: table.to_string(),
                            readers: Vec::new(),
                            cursor: None,
                        });
                        tables.len() - 1
                    }
                };
                if reader {
                    tables[slot].readers.push(index);
                }
            }
        }
        Self {
            tables,
            truths: vec![None; queries.len()],
            with_stats,
        }
    }

    /// Applies the rows appended to each followed table since the last pose.
    /// A table that has just appeared with a schema starts at row 0, and its
    /// supported readers get their views then.
    fn catch_up(&mut self, queries: &[NamedQuery], supported: &[bool], logical: &PlainDatabase) {
        for table in &mut self.tables {
            let plain = logical.table(&table.name);
            let Some((schema, rows)) = plain.and_then(|p| Some((p.schema()?, p.rows()))) else {
                assert!(
                    table.cursor.is_none(),
                    "the logical copy must only grow: table `{}` was followed by an \
                     earlier pose and is gone",
                    table.name
                );
                continue;
            };
            let cursor = table.cursor.get_or_insert_with(|| {
                for &index in &table.readers {
                    if supported[index] {
                        self.truths[index] =
                            ViewDef::new(GROUND_TRUTH_VIEW, queries[index].query.clone())
                                .and_then(|def| MaterializedView::new(def, schema))
                                .ok();
                    }
                }
                Cursor {
                    applied: 0,
                    stats: self.with_stats.then(|| RunningTableStats::new(schema)),
                }
            });
            let Some(new) = rows.get(cursor.applied..) else {
                panic!(
                    "the logical copy must only grow: table `{}` has {} rows, but an \
                     earlier pose already applied {}",
                    table.name,
                    rows.len(),
                    cursor.applied
                );
            };
            for &index in &table.readers {
                if let Some(view) = &mut self.truths[index] {
                    for row in new {
                        view.apply_row(schema, row);
                    }
                }
            }
            if let Some(stats) = &mut cursor.stats {
                stats.observe(new);
            }
            cursor.applied = rows.len();
        }
    }

    /// The ground truth of query `index`: its view's answer when it has
    /// one, otherwise a scan of `logical` (joins, selections, and tables
    /// that do not exist yet or have no schema, whose errors stay those of
    /// the scan).
    fn truth(
        &self,
        index: usize,
        query: &Query,
        logical: &PlainDatabase,
    ) -> Result<QueryAnswer, EdbError> {
        match &self.truths[index] {
            Some(view) => Ok(view.answer()),
            None => Ok(logical.execute(query)?),
        }
    }

    /// The planner statistics of every row applied so far, in O(columns).
    fn statistics(&self) -> Statistics {
        let mut stats = Statistics::new();
        for table in &self.tables {
            if let Some(running) = table.cursor.as_ref().and_then(|c| c.stats.as_ref()) {
                running.record_into(&table.name, &mut stats);
            }
        }
        stats
    }
}

/// Classifies one lazy registration attempt of a view or an index.
fn register(result: Result<(), EdbError>) -> Result<Registration, EdbError> {
    match result {
        Ok(()) => Ok(Registration::Registered),
        // No support on this engine, a name/definition conflict, or a column
        // the table lacks or cannot index: permanent fallback to scans.
        Err(
            EdbError::UnsupportedQuery { .. }
            | EdbError::InvalidView(_)
            | EdbError::InvalidIndex(_)
            | EdbError::Exec(_),
        ) => Ok(Registration::Unsupported),
        // The table has not joined the fleet yet: retry at the next pose.
        Err(EdbError::NotSetUp(_)) => Ok(Registration::Pending),
        Err(other) => Err(other),
    }
}

/// Poses one query through the plan the leakage-aware planner chose.
fn pose_planned(
    edb: &dyn SecureOutsourcedDatabase,
    planner: &Planner,
    indexes: &[IndexDef],
    query: &Query,
    rng: &mut dyn RngCore,
) -> Result<QueryOutcome, EdbError> {
    let planned = planner.plan(query, indexes, &edb.cost_model());
    match planned.plan {
        Plan::FullScan => edb.query(query, rng),
        Plan::IndexLookup { index } | Plan::IndexNestedLoop { index } => {
            match edb.query_indexed(&index, query, rng) {
                Ok(outcome) => Ok(outcome),
                // Defensive: the engine refused the indexed path at read
                // time (e.g. shape restrictions); answer by scan instead.
                Err(EdbError::UnsupportedQuery { .. } | EdbError::InvalidIndex(_)) => {
                    edb.query(query, rng)
                }
                Err(other) => Err(other),
            }
        }
    }
}

/// Derives the workload's candidate indexes: one per (table, predicate
/// column) and one per join side, named `idx_{table}_{column}`.
fn candidate_indexes(queries: &[NamedQuery]) -> Vec<IndexDef> {
    let mut seen = BTreeSet::new();
    let mut defs = Vec::new();
    for named in queries {
        let pairs: Vec<(&str, &str)> = match &named.query {
            Query::Count { table, predicate }
            | Query::GroupByCount {
                table, predicate, ..
            }
            | Query::Select {
                table, predicate, ..
            } => predicate
                .iter()
                .flat_map(|p| p.columns())
                .map(|column| (table.as_str(), column))
                .collect(),
            Query::JoinCount {
                left,
                right,
                left_column,
                right_column,
            } => vec![
                (left.as_str(), left_column.as_str()),
                (right.as_str(), right_column.as_str()),
            ],
        };
        for (table, column) in pairs {
            if !seen.insert((table.to_string(), column.to_string())) {
                continue;
            }
            if let Ok(def) = IndexDef::new(format!("idx_{table}_{column}"), table, column) {
                defs.push(def);
            }
        }
    }
    defs
}

/// Floors noisy counts at zero on the analyst's side of the trust boundary.
///
/// Selection results pass through unchanged — only count shapes can go
/// negative under Laplace perturbation.
fn clamp_released(answer: QueryAnswer) -> QueryAnswer {
    match answer {
        QueryAnswer::Scalar(v) => QueryAnswer::Scalar(v.max(0.0)),
        QueryAnswer::Groups(groups) => {
            QueryAnswer::Groups(groups.into_iter().map(|(k, v)| (k, v.max(0.0))).collect())
        }
        rows @ QueryAnswer::Rows(_) => rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsync_crypto::{EncryptedRecord, MasterKey, RecordCryptor};
    use dpsync_dp::DpRng;
    use dpsync_edb::cost::CostModel;
    use dpsync_edb::engines::base::encrypt_batch;
    use dpsync_edb::engines::{CryptEpsilonEngine, ObliDbEngine};
    use dpsync_edb::leakage::LeakageProfile;
    use dpsync_edb::query::paper_queries;
    use dpsync_edb::{AdversaryView, DataType, Row, Schema, TableStats, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ])
    }

    fn row(t: u64, p: i64) -> Row {
        Row::new(vec![Value::Timestamp(t), Value::Int(p)])
    }

    fn analyst() -> Analyst {
        Analyst::new(vec![
            NamedQuery::new("Q1", paper_queries::q1_range_count("yellow")),
            NamedQuery::new("Q2", paper_queries::q2_group_by_count("yellow")),
            NamedQuery::new("Q3", paper_queries::q3_join_count("yellow", "green")),
        ])
    }

    fn logical(rows_yellow: &[Row], rows_green: &[Row]) -> PlainDatabase {
        let mut db = PlainDatabase::new();
        db.create_table("yellow", schema());
        db.create_table("green", schema());
        for r in rows_yellow {
            db.insert("yellow", r.clone());
        }
        for r in rows_green {
            db.insert("green", r.clone());
        }
        db
    }

    #[test]
    fn oblidb_samples_have_zero_error_when_fully_synced() {
        let master = MasterKey::from_bytes([1u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let yellow: Vec<Row> = (0..30).map(|i| row(i, 50 + i as i64)).collect();
        let green: Vec<Row> = (0..10).map(|i| row(i, 5)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 3))
            .unwrap();
        engine
            .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 3))
            .unwrap();
        let mut rng = DpRng::seed_from_u64(1);
        let samples = analyst()
            .pose_all(Timestamp(360), &engine, &logical(&yellow, &green), &mut rng)
            .unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert_eq!(s.l1_error, 0.0, "query {} should be exact", s.query);
            assert!(s.estimated_qet > 0.0);
            assert_eq!(s.time, 360);
        }
    }

    #[test]
    fn unsynced_records_create_error() {
        let master = MasterKey::from_bytes([2u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let synced: Vec<Row> = (0..20).map(|i| row(i, 60)).collect();
        let all: Vec<Row> = (0..50).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &synced, 0))
            .unwrap();
        engine.setup("green", schema(), vec![]).unwrap();
        let mut rng = DpRng::seed_from_u64(2);
        let samples = analyst()
            .pose_all(Timestamp(720), &engine, &logical(&all, &[]), &mut rng)
            .unwrap();
        let q1 = samples.iter().find(|s| s.query == "Q1").unwrap();
        assert_eq!(q1.l1_error, 30.0, "30 unsynced matching records");
    }

    /// An ObliDB engine that counts the `supports` calls it answers.
    struct CountingSupports {
        inner: ObliDbEngine,
        supports_calls: AtomicUsize,
    }

    impl SecureOutsourcedDatabase for CountingSupports {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn leakage_profile(&self) -> LeakageProfile {
            self.inner.leakage_profile()
        }
        fn cost_model(&self) -> CostModel {
            self.inner.cost_model()
        }
        fn setup(
            &self,
            table: &str,
            schema: Schema,
            records: Vec<EncryptedRecord>,
        ) -> Result<(), EdbError> {
            self.inner.setup(table, schema, records)
        }
        fn update(
            &self,
            table: &str,
            time: u64,
            records: Vec<EncryptedRecord>,
        ) -> Result<(), EdbError> {
            self.inner.update(table, time, records)
        }
        fn query(&self, query: &Query, rng: &mut dyn RngCore) -> Result<QueryOutcome, EdbError> {
            self.inner.query(query, rng)
        }
        fn supports(&self, query: &Query) -> bool {
            self.supports_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.supports(query)
        }
        fn table_stats(&self, table: &str) -> TableStats {
            self.inner.table_stats(table)
        }
        fn adversary_view(&self) -> AdversaryView {
            self.inner.adversary_view()
        }
    }

    #[test]
    fn supports_is_asked_once_per_query() {
        // Support depends on the query's shape alone, so three poses of
        // Q1–Q3 ask the engine three times, not once per query per pose.
        let master = MasterKey::from_bytes([4u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CountingSupports {
            inner: ObliDbEngine::new(&master),
            supports_calls: AtomicUsize::new(0),
        };
        let yellow: Vec<Row> = (0..12).map(|i| row(i, 50 + i as i64)).collect();
        let green: Vec<Row> = (0..4).map(|i| row(i, 5)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 2))
            .unwrap();
        engine
            .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 1))
            .unwrap();
        let db = logical(&yellow, &green);
        let mut rng = DpRng::seed_from_u64(4);
        let mut posing = analyst();
        for pose in 1..=3 {
            let samples = posing
                .pose_all(Timestamp(360 * pose), &engine, &db, &mut rng)
                .unwrap();
            assert_eq!(samples.len(), 3);
        }
        assert_eq!(engine.supports_calls.load(Ordering::Relaxed), 3);
        assert_eq!(engine.adversary_view().queries().len(), 9);
    }

    #[test]
    fn crypt_epsilon_skips_joins() {
        let master = MasterKey::from_bytes([3u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::new(&master);
        let yellow: Vec<Row> = (0..10).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 0))
            .unwrap();
        engine.setup("green", schema(), vec![]).unwrap();
        let mut rng = DpRng::seed_from_u64(3);
        let samples = analyst()
            .pose_all(Timestamp(360), &engine, &logical(&yellow, &[]), &mut rng)
            .unwrap();
        let labels: Vec<_> = samples.iter().map(|s| s.query.as_str()).collect();
        assert_eq!(labels, vec!["Q1", "Q2"], "Q3 must be skipped for Crypt-ε");
    }

    #[test]
    fn negative_noisy_counts_are_clamped_at_the_analyst_boundary() {
        use dpsync_dp::Epsilon;
        // Fixed seed exercising a Laplace draw that goes negative: the
        // engine releases the raw perturbed count (the transcript keeps it),
        // and the analyst floors it at zero before scoring, so the sample's
        // L1 error against the empty ground truth is exactly zero.
        let master = MasterKey::from_bytes([7u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = CryptEpsilonEngine::with_query_epsilon(&master, Epsilon::new_unchecked(0.05));
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &[], 0))
            .unwrap();
        let db = logical(&[], &[]);
        let q1 = paper_queries::q1_range_count("yellow");

        // Probe the exact draw the analyst will consume: seed 0's first
        // Laplace sample on the empty table is negative.
        let mut probe_rng = DpRng::seed_from_u64(0);
        let raw = engine
            .query(&q1, &mut probe_rng)
            .unwrap()
            .answer
            .as_scalar()
            .unwrap();
        assert!(raw < 0.0, "seed 0 must produce a negative draw, got {raw}");

        let mut rng = DpRng::seed_from_u64(0);
        let samples = Analyst::new(vec![NamedQuery::new("Q1", q1)])
            .pose_all(Timestamp(60), &engine, &db, &mut rng)
            .unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(
            samples[0].l1_error, 0.0,
            "the clamped answer must match the empty ground truth exactly"
        );
    }

    #[test]
    fn accessors() {
        let a = analyst();
        assert_eq!(a.queries().len(), 3);
        assert_eq!(a.queries()[0].label, "Q1");
        assert_eq!(a.read_mode(), ReadMode::Scan);
        assert_eq!(
            Analyst::with_mode(vec![], ReadMode::Views).read_mode(),
            ReadMode::Views
        );
        assert!(Analyst::default().queries().is_empty());
    }

    #[test]
    fn view_analyst_samples_match_scan_analyst() {
        // Two identically-loaded engines, same seeds: the views-enabled
        // analyst must release identical samples except for the measured
        // wall clock.  Q3 (a join) silently stays on the scan path.
        let build = || {
            let master = MasterKey::from_bytes([5u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            let yellow: Vec<Row> = (0..25).map(|i| row(i, 50 + i as i64)).collect();
            let green: Vec<Row> = (0..8).map(|i| row(i, 5)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 4))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 2))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (view_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(11);
        let mut view_rng = DpRng::seed_from_u64(11);
        let mut hot = Analyst::with_mode(analyst().queries().to_vec(), ReadMode::Views);
        // Pose twice: the first registers + backfills, the second reads the
        // maintained state.  Samples must match the scan path both times.
        for _ in 0..2 {
            let scan_samples = analyst()
                .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
                .unwrap();
            let view_samples = hot
                .pose_all(Timestamp(360), &view_engine, &db, &mut view_rng)
                .unwrap();
            assert_eq!(view_samples.len(), scan_samples.len());
            for (v, s) in view_samples.iter().zip(&scan_samples) {
                assert_eq!(v.query, s.query);
                assert_eq!(v.l1_error, s.l1_error);
                assert_eq!(v.estimated_qet, s.estimated_qet);
            }
        }
        // Two poses each: the servers' query transcripts are identical.
        assert_eq!(
            scan_engine.adversary_view().queries(),
            view_engine.adversary_view().queries()
        );
    }

    #[test]
    fn transcript_only_index_analyst_is_byte_identical_to_scans() {
        // Indexes get registered and maintained server-side, but the
        // TranscriptOnly policy keeps every read on the scan plan — so the
        // adversary's entire view must match an index-free run byte for byte.
        let build = || {
            let master = MasterKey::from_bytes([8u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            let yellow: Vec<Row> = (0..40).map(|i| row(i, 40 + i as i64)).collect();
            let green: Vec<Row> = (0..12).map(|i| row(i % 4, 7)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 5))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 3))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (index_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(21);
        let mut index_rng = DpRng::seed_from_u64(21);
        let mut planned = Analyst::with_mode(
            analyst().queries().to_vec(),
            ReadMode::Indexes(LeakagePolicy::TranscriptOnly),
        );
        for _ in 0..2 {
            let scan_samples = analyst()
                .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
                .unwrap();
            let index_samples = planned
                .pose_all(Timestamp(360), &index_engine, &db, &mut index_rng)
                .unwrap();
            assert_eq!(index_samples.len(), scan_samples.len());
            for (i, s) in index_samples.iter().zip(&scan_samples) {
                assert_eq!((i.l1_error, i.estimated_qet), (s.l1_error, s.estimated_qet));
            }
        }
        assert_eq!(
            scan_engine.adversary_view(),
            index_engine.adversary_view(),
            "TranscriptOnly must not change the adversary's view at all"
        );
    }

    #[test]
    fn permissive_index_analyst_matches_answers_and_declares_index_reads() {
        let build = || {
            let master = MasterKey::from_bytes([9u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            // Selective pickup ids: Q1's [50, 100] range catches few rows,
            // so the planner routes Q1 through the index.
            let yellow: Vec<Row> = (0..60).map(|i| row(i, (i as i64) * 10)).collect();
            let green: Vec<Row> = (0..10).map(|i| row(i % 3, 7)).collect();
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 6))
                .unwrap();
            engine
                .setup("green", schema(), encrypt_batch(&mut cryptor, &green, 2))
                .unwrap();
            (engine, logical(&yellow, &green))
        };
        let (scan_engine, db) = build();
        let (index_engine, _) = build();
        let mut scan_rng = DpRng::seed_from_u64(31);
        let mut index_rng = DpRng::seed_from_u64(31);
        let mut planned = Analyst::with_mode(
            analyst().queries().to_vec(),
            ReadMode::Indexes(LeakagePolicy::AllowIndexedVolume),
        );
        let scan_samples = analyst()
            .pose_all(Timestamp(360), &scan_engine, &db, &mut scan_rng)
            .unwrap();
        let index_samples = planned
            .pose_all(Timestamp(360), &index_engine, &db, &mut index_rng)
            .unwrap();
        assert_eq!(index_samples.len(), scan_samples.len());
        for (i, s) in index_samples.iter().zip(&scan_samples) {
            assert_eq!(
                i.l1_error, s.l1_error,
                "indexed answers must equal scan answers bit for bit"
            );
        }
        let view = index_engine.adversary_view();
        assert!(
            view.queries().iter().any(|o| o.kind == "index"),
            "at least one read must go through the index under the permissive policy"
        );
    }

    #[test]
    fn view_registration_retries_until_table_exists() {
        let master = MasterKey::from_bytes([6u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let mut hot = Analyst::with_mode(
            vec![NamedQuery::new(
                "Q1",
                paper_queries::q1_range_count("yellow"),
            )],
            ReadMode::Views,
        );
        let mut rng = DpRng::seed_from_u64(12);
        // Table missing: the pose fails downstream (logical db also lacks
        // it), but registration must not poison the state.
        let empty = PlainDatabase::new();
        assert!(hot
            .pose_all(Timestamp(30), &engine, &empty, &mut rng)
            .is_err());
        // Once the table exists the view registers and serves reads.
        let yellow: Vec<Row> = (0..10).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 0))
            .unwrap();
        let db = logical(&yellow, &[]);
        let samples = hot.pose_all(Timestamp(60), &engine, &db, &mut rng).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].l1_error, 0.0);
    }

    /// The ground-truth workload of the running-state test: views over a
    /// table present from the start and one created after the first pose,
    /// scan fallbacks, and a schemaless and a missing table.
    fn running_workload() -> Vec<NamedQuery> {
        use dpsync_edb::Predicate;
        vec![
            NamedQuery::new("Q1", paper_queries::q1_range_count("yellow")),
            NamedQuery::new(
                "point",
                Query::Count {
                    table: "yellow".into(),
                    predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(77))),
                },
            ),
            NamedQuery::new("Q2", paper_queries::q2_group_by_count("yellow")),
            NamedQuery::new(
                "grouped",
                Query::GroupByCount {
                    table: "green".into(),
                    group_by: "pickup_id".into(),
                    predicate: Some(Predicate::GreaterThan("pick_time".into(), 3.0)),
                },
            ),
            NamedQuery::new(
                "count",
                Query::Count {
                    table: "green".into(),
                    predicate: None,
                },
            ),
            NamedQuery::new("Q3", paper_queries::q3_join_count("yellow", "green")),
            NamedQuery::new(
                "select",
                Query::Select {
                    table: "yellow".into(),
                    columns: vec!["pickup_id".into()],
                    predicate: Some(Predicate::LessThan("pickup_id".into(), 60.0)),
                },
            ),
            NamedQuery::new(
                "bare",
                Query::Count {
                    table: "bare".into(),
                    predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(1))),
                },
            ),
            NamedQuery::new(
                "ghost",
                Query::Count {
                    table: "ghost".into(),
                    predicate: None,
                },
            ),
        ]
    }

    /// Row `i` of the running-state test: every fifth pickup id is NULL.
    fn varied_row(i: u64) -> Row {
        let pickup = if i.is_multiple_of(5) {
            Value::Null
        } else {
            Value::Int(40 + (i as i64 * 13) % 50)
        };
        Row::new(vec![Value::Timestamp(i % 17), pickup])
    }

    #[test]
    fn running_ground_truth_and_stats_match_a_rescan_at_every_pose() {
        for mode in [
            ReadMode::Scan,
            ReadMode::Views,
            ReadMode::Indexes(LeakagePolicy::AllowIndexedVolume),
        ] {
            let master = MasterKey::from_bytes([10u8; 32]);
            let mut cryptor = RecordCryptor::new(&master);
            let engine = ObliDbEngine::new(&master);
            let mut db = PlainDatabase::new();
            let mut next = 0u64;
            let mut append = |db: &mut PlainDatabase, table: &str, n: u64| -> Vec<Row> {
                let rows: Vec<Row> = (next..next + n).map(varied_row).collect();
                next += n;
                for r in &rows {
                    db.insert(table, r.clone());
                }
                rows
            };
            db.create_table("yellow", schema());
            let initial = append(&mut db, "yellow", 40);
            engine
                .setup("yellow", schema(), encrypt_batch(&mut cryptor, &initial, 2))
                .unwrap();
            let queries = running_workload();
            let mut analyst = Analyst::with_mode(queries.clone(), mode);
            let mut rng = DpRng::seed_from_u64(10);
            for pose in 0..6u64 {
                if pose == 1 {
                    db.create_table("green", schema());
                    let initial = append(&mut db, "green", 9);
                    engine
                        .setup("green", schema(), encrypt_batch(&mut cryptor, &initial, 1))
                        .unwrap();
                }
                if pose > 0 {
                    for table in ["yellow", "green"] {
                        let rows = append(&mut db, table, pose * 3);
                        let batch = encrypt_batch(&mut cryptor, &rows, 1);
                        engine.update(table, pose, batch).unwrap();
                    }
                }
                append(&mut db, "bare", 2);

                // The pose fails at the first query whose scan fails, as a
                // pose that scans for every ground truth would.
                let expected = queries
                    .iter()
                    .find_map(|q| db.execute(&q.query).err())
                    .map(EdbError::from);
                let posed = analyst.pose_all(Timestamp(60 * (pose + 1)), &engine, &db, &mut rng);
                assert_eq!(posed.err(), expected, "{mode:?} pose {pose}");

                for (index, named) in queries.iter().enumerate() {
                    assert_eq!(
                        analyst.running.truth(index, &named.query, &db),
                        db.execute(&named.query).map_err(EdbError::from),
                        "{mode:?} pose {pose}: {}",
                        named.label
                    );
                }
                // Views for the count and group-by queries over tables with
                // a schema, each fed every row of its table exactly once.
                let viewed: &[usize] = if pose == 0 {
                    &[0, 1, 2]
                } else {
                    &[0, 1, 2, 3, 4]
                };
                for (index, truth) in analyst.running.truths.iter().enumerate() {
                    assert_eq!(truth.is_some(), viewed.contains(&index), "query {index}");
                    if let Some(view) = truth {
                        let rows = db.table(view.def().table()).unwrap().len() as u64;
                        assert_eq!(view.maintained_records(), rows, "query {index}");
                    }
                }

                let mut reference = Statistics::new();
                if matches!(mode, ReadMode::Indexes(_)) {
                    for table in ["yellow", "green", "bare", "ghost"] {
                        if let Some(plain) = db.table(table) {
                            if let Some(schema) = plain.schema() {
                                reference.observe_table(table, schema, plain.rows());
                            }
                        }
                    }
                }
                assert_eq!(
                    analyst.running.statistics(),
                    reference,
                    "{mode:?} pose {pose}"
                );
                if let ReadMode::Indexes(policy) = mode {
                    let (planner, registered) =
                        index_plan(analyst.mode, &analyst.indexes, &analyst.running).unwrap();
                    let rescanned = Planner::new(policy, reference);
                    let cost = engine.cost_model();
                    for named in &queries {
                        assert_eq!(
                            planner.plan(&named.query, &registered, &cost),
                            rescanned.plan(&named.query, &registered, &cost),
                            "{}",
                            named.label
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "the logical copy must only grow: table `yellow` has 3 rows, \
                               but an earlier pose already applied 5"
    )]
    fn a_logical_copy_that_shrinks_between_poses_panics() {
        let master = MasterKey::from_bytes([11u8; 32]);
        let mut cryptor = RecordCryptor::new(&master);
        let engine = ObliDbEngine::new(&master);
        let yellow: Vec<Row> = (0..5).map(|i| row(i, 60)).collect();
        engine
            .setup("yellow", schema(), encrypt_batch(&mut cryptor, &yellow, 0))
            .unwrap();
        let mut posing = Analyst::new(vec![NamedQuery::new(
            "Q1",
            paper_queries::q1_range_count("yellow"),
        )]);
        let mut rng = DpRng::seed_from_u64(11);
        posing
            .pose_all(Timestamp(60), &engine, &logical(&yellow, &[]), &mut rng)
            .unwrap();
        // The table is replaced by a shorter one between poses.
        let replaced = logical(&yellow[..3], &[]);
        let _ = posing.pose_all(Timestamp(120), &engine, &replaced, &mut rng);
    }
}
