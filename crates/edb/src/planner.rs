//! A client-side leakage-aware query planner.
//!
//! The planner decides, per query, whether to answer by full scan or through
//! a registered encrypted-multimap index ([`crate::emm`]).  The decision has
//! two axes:
//!
//! * **Leakage**: an indexed read reveals the number of index entries
//!   fetched for the query's condition ([`PlanLeakage::IndexedVolume`]) —
//!   a signal correlated with the condition's true selectivity that a full
//!   scan never emits.  Under [`LeakagePolicy::TranscriptOnly`] the planner
//!   refuses to pay this and always scans; under
//!   [`LeakagePolicy::AllowIndexedVolume`] it may trade the declared leakage
//!   for speed.
//! * **Cost**: using the engine's own [`CostModel`] and per-column
//!   [`ColumnStats`] held client-side (the analyst knows its own data), the
//!   planner estimates how many entries a lookup would fetch and compares the
//!   indexed cost against the scan cost.  A low-selectivity condition (or a
//!   tiny table) stays on the scan plan even when the policy would allow the
//!   index.
//!
//! The planner runs entirely on the trusted client — plan *selection* leaks
//! nothing; only plan *execution* does, and each plan carries the
//! [`PlanLeakage`] tag it declares.

use crate::cost::CostModel;
use crate::emm::{index_condition, IndexCondition, IndexDef};
use crate::leakage::PlanLeakage;
use crate::query::Query;
use crate::row::Row;
use crate::schema::{Schema, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What extra leakage the analyst is willing to accept from query plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakagePolicy {
    /// Never leak beyond the engine's baseline transcript: every query runs
    /// as a full scan and the adversary's view is byte-identical to a run
    /// without any indexes registered.
    TranscriptOnly,
    /// Allow plans that reveal per-query indexed fetch volumes in exchange
    /// for sub-scan query cost.
    AllowIndexedVolume,
}

/// The physical plan chosen for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Scan every stored ciphertext (the engines' default path).
    FullScan,
    /// Serve a single-table query through the named index's candidates.
    IndexLookup {
        /// Name of the registered index to use.
        index: String,
    },
    /// Serve an equi-join by scanning the non-indexed side and probing the
    /// named index with each join value.
    IndexNestedLoop {
        /// Name of the registered index to probe.
        index: String,
    },
}

impl Plan {
    /// The leakage this plan declares when executed.
    pub fn leakage(&self) -> PlanLeakage {
        match self {
            Plan::FullScan => PlanLeakage::TranscriptOnly,
            Plan::IndexLookup { .. } | Plan::IndexNestedLoop { .. } => PlanLeakage::IndexedVolume,
        }
    }
}

/// A chosen plan together with its declared leakage and cost estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The physical plan.
    pub plan: Plan,
    /// The leakage executing the plan declares.
    pub leakage: PlanLeakage,
    /// The planner's cost estimate for the plan, in model seconds.
    pub estimated_seconds: f64,
}

/// Client-side statistics for one indexable column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnStats {
    /// Records the planner believes the table stores (the analyst's best
    /// estimate of the server-side ciphertext count; using the real row
    /// count instead merely under-costs the scan, biasing toward scans).
    pub rows: u64,
    /// Distinct non-NULL values observed in the column (≥ 1 when any row
    /// has a value).
    pub distinct: u64,
    /// Smallest observed value (as `i64` image).
    pub min: i64,
    /// Largest observed value.
    pub max: i64,
}

impl ColumnStats {
    /// Expected rows matching an equality on this column (uniformity
    /// assumption: rows / distinct).
    fn expected_eq(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.rows as f64 / self.distinct as f64
        }
    }

    /// Expected rows matching `BETWEEN lo AND hi` (uniform spread over the
    /// observed [min, max] span).
    fn expected_range(&self, lo: f64, hi: f64) -> f64 {
        if self.rows == 0 || hi < lo {
            return 0.0;
        }
        let span = (self.max - self.min) as f64;
        if span <= 0.0 {
            // Single-valued column: all or nothing.
            let v = self.min as f64;
            return if (lo..=hi).contains(&v) {
                self.rows as f64
            } else {
                0.0
            };
        }
        let overlap = (hi.min(self.max as f64) - lo.max(self.min as f64)).max(0.0);
        self.rows as f64 * (overlap / span).min(1.0)
    }
}

/// Per-(table, column) statistics the analyst feeds the planner.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Statistics {
    columns: BTreeMap<(String, String), ColumnStats>,
}

impl Statistics {
    /// Creates an empty statistics set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or replaces) the stats for `table.column`.
    pub fn record(&mut self, table: &str, column: &str, stats: ColumnStats) {
        self.columns
            .insert((table.to_string(), column.to_string()), stats);
    }

    /// The stats for `table.column`, if recorded.
    pub fn get(&self, table: &str, column: &str) -> Option<&ColumnStats> {
        self.columns.get(&(table.to_string(), column.to_string()))
    }

    /// Derives stats for every indexable column of `table` from plaintext
    /// rows (the analyst's logical copy of its own data): a one-shot use of
    /// [`RunningTableStats`].
    pub fn observe_table(&mut self, table: &str, schema: &Schema, rows: &[Row]) {
        let mut running = RunningTableStats::new(schema);
        running.observe(rows);
        running.record_into(table, self);
    }
}

/// Per-column statistics of one table, kept up to date as its rows arrive.
///
/// This is the one derivation of [`ColumnStats`] from plaintext rows.  A
/// caller that watches an append-only table feeds it each new slice of rows
/// once, and can then write the stats of every row seen so far into a
/// [`Statistics`] in O(columns): the cost of a refresh is the number of rows
/// appended since the last one, not the size of the table.
#[derive(Debug, Clone)]
pub struct RunningTableStats {
    rows: u64,
    columns: Vec<RunningColumn>,
}

/// The running state of one column: every distinct `i64` image seen, in
/// order, so the smallest and largest are its ends.
#[derive(Debug, Clone)]
struct RunningColumn {
    name: String,
    distinct: BTreeSet<i64>,
}

impl RunningTableStats {
    /// Empty running stats for a table with `schema`.
    pub fn new(schema: &Schema) -> Self {
        Self {
            rows: 0,
            columns: schema
                .columns()
                .iter()
                .map(|col| RunningColumn {
                    name: col.name.clone(),
                    distinct: BTreeSet::new(),
                })
                .collect(),
        }
    }

    /// Folds `rows`, the table's next rows in order, into the stats.
    pub fn observe(&mut self, rows: &[Row]) {
        self.rows += rows.len() as u64;
        for (ci, col) in self.columns.iter_mut().enumerate() {
            col.distinct.extend(
                rows.iter()
                    .filter_map(|row| row.value(ci).and_then(Value::as_i64)),
            );
        }
    }

    /// Records (or replaces) the stats of every column that has seen a value
    /// with an `i64` image, as `table`'s stats in `stats`.  Floats, text and
    /// all-NULL columns get none.
    pub fn record_into(&self, table: &str, stats: &mut Statistics) {
        for col in &self.columns {
            if let (Some(&min), Some(&max)) = (col.distinct.first(), col.distinct.last()) {
                let column = ColumnStats {
                    rows: self.rows,
                    distinct: col.distinct.len() as u64,
                    min,
                    max,
                };
                stats.record(table, &col.name, column);
            }
        }
    }
}

/// The leakage-aware planner.
#[derive(Debug, Clone)]
pub struct Planner {
    policy: LeakagePolicy,
    stats: Statistics,
}

impl Planner {
    /// Creates a planner with the given policy and statistics.
    pub fn new(policy: LeakagePolicy, stats: Statistics) -> Self {
        Self { policy, stats }
    }

    /// Chooses a plan for `query` given the registered indexes and the
    /// engine's cost model.
    ///
    /// Under [`LeakagePolicy::TranscriptOnly`] this is always the full scan.
    /// Otherwise the cheapest eligible indexed plan is compared against the
    /// scan estimate, and the index wins only when its estimated cost is
    /// strictly lower.
    pub fn plan(&self, query: &Query, indexes: &[IndexDef], cost: &CostModel) -> PlannedQuery {
        let scan = PlannedQuery {
            plan: Plan::FullScan,
            leakage: PlanLeakage::TranscriptOnly,
            estimated_seconds: self.scan_estimate(query, cost),
        };
        if self.policy == LeakagePolicy::TranscriptOnly {
            return scan;
        }
        let mut best = scan;
        for def in indexes {
            if let Some(candidate) = self.indexed_estimate(query, def, cost) {
                if candidate.estimated_seconds < best.estimated_seconds {
                    best = candidate;
                }
            }
        }
        best
    }

    fn table_rows(&self, table: &str) -> u64 {
        // Any recorded column of the table carries its row count.
        self.stats
            .columns
            .iter()
            .find(|((t, _), _)| t == table)
            .map_or(0, |(_, s)| s.rows)
    }

    fn scan_estimate(&self, query: &Query, cost: &CostModel) -> f64 {
        match query {
            Query::Count { table, .. } | Query::Select { table, .. } => {
                cost.count_cost(self.table_rows(table))
            }
            Query::GroupByCount { table, .. } => cost.group_by_cost(self.table_rows(table)),
            Query::JoinCount { left, right, .. } => {
                cost.join_cost(self.table_rows(left), self.table_rows(right))
            }
        }
    }

    /// The cost of serving `query` through `def`, or `None` when the index
    /// cannot serve it (wrong table/column, no usable condition, no stats).
    fn indexed_estimate(
        &self,
        query: &Query,
        def: &IndexDef,
        cost: &CostModel,
    ) -> Option<PlannedQuery> {
        match query {
            Query::Count { table, predicate }
            | Query::GroupByCount {
                table, predicate, ..
            }
            | Query::Select {
                table, predicate, ..
            } => {
                if table != def.table() {
                    return None;
                }
                let stats = self.stats.get(def.table(), def.column())?;
                let expected = match index_condition(predicate.as_ref(), def.column())? {
                    IndexCondition::Eq(_) => stats.expected_eq(),
                    IndexCondition::Range(lo, hi) => stats.expected_range(lo, hi),
                };
                Some(PlannedQuery {
                    plan: Plan::IndexLookup {
                        index: def.name().to_string(),
                    },
                    leakage: PlanLeakage::IndexedVolume,
                    estimated_seconds: cost.count_cost(expected.ceil() as u64),
                })
            }
            Query::JoinCount {
                left,
                right,
                left_column,
                right_column,
            } => {
                // The index must sit on one join side; the other side drives.
                let outer = if def.table() == right && def.column() == right_column {
                    left
                } else if def.table() == left && def.column() == left_column {
                    right
                } else {
                    return None;
                };
                let inner = self.stats.get(def.table(), def.column())?;
                let outer_rows = self.table_rows(outer);
                let fetched = outer_rows as f64 * inner.expected_eq();
                Some(PlannedQuery {
                    plan: Plan::IndexNestedLoop {
                        index: def.name().to_string(),
                    },
                    leakage: PlanLeakage::IndexedVolume,
                    estimated_seconds: cost.count_cost(outer_rows + fetched.ceil() as u64),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{paper_queries, Predicate};
    use crate::schema::DataType;

    fn stats_with(table: &str, column: &str, stats: ColumnStats) -> Statistics {
        let mut s = Statistics::new();
        s.record(table, column, stats);
        s
    }

    fn selective_stats() -> Statistics {
        // 100k rows, 10k distinct pickup ids spread over [0, 100k].
        stats_with(
            "yellow",
            "pickup_id",
            ColumnStats {
                rows: 100_000,
                distinct: 10_000,
                min: 0,
                max: 100_000,
            },
        )
    }

    fn idx() -> IndexDef {
        IndexDef::new("idx", "yellow", "pickup_id").unwrap()
    }

    #[test]
    fn transcript_only_policy_always_scans() {
        let planner = Planner::new(LeakagePolicy::TranscriptOnly, selective_stats());
        let planned = planner.plan(
            &paper_queries::q1_range_count("yellow"),
            &[idx()],
            &CostModel::oblidb(),
        );
        assert_eq!(planned.plan, Plan::FullScan);
        assert_eq!(planned.leakage, PlanLeakage::TranscriptOnly);
    }

    #[test]
    fn selective_lookup_beats_scan_under_permissive_policy() {
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, selective_stats());
        let cost = CostModel::oblidb();
        // Q1's range [50, 100] covers 0.05% of the value span: the index
        // fetches ~50 of 100k rows.
        let planned = planner.plan(&paper_queries::q1_range_count("yellow"), &[idx()], &cost);
        assert_eq!(
            planned.plan,
            Plan::IndexLookup {
                index: "idx".into()
            }
        );
        assert_eq!(planned.leakage, PlanLeakage::IndexedVolume);
        assert!(planned.estimated_seconds < cost.count_cost(100_000));
    }

    #[test]
    fn unselective_conditions_stay_on_the_scan_plan() {
        // Every row shares one value: the "index" would fetch the whole
        // table, so the scan (identical fetch, no extra leakage) wins.
        let stats = stats_with(
            "yellow",
            "pickup_id",
            ColumnStats {
                rows: 10_000,
                distinct: 1,
                min: 75,
                max: 75,
            },
        );
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, stats);
        let q = Query::Count {
            table: "yellow".into(),
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(75))),
        };
        let planned = planner.plan(&q, &[idx()], &CostModel::oblidb());
        assert_eq!(planned.plan, Plan::FullScan);
    }

    #[test]
    fn queries_the_index_cannot_serve_fall_back() {
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, selective_stats());
        let cost = CostModel::oblidb();
        // No condition on the indexed column.
        let q = Query::Count {
            table: "yellow".into(),
            predicate: Some(Predicate::GreaterThan("pick_time".into(), 10.0)),
        };
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
        // Wrong table.
        let q = paper_queries::q1_range_count("green");
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
        // No stats for the column.
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, Statistics::new());
        let q = paper_queries::q1_range_count("yellow");
        assert_eq!(planner.plan(&q, &[idx()], &cost).plan, Plan::FullScan);
    }

    #[test]
    fn join_prefers_index_nested_loop_when_probes_are_cheap() {
        let mut stats = Statistics::new();
        stats.record(
            "yellow",
            "pick_time",
            ColumnStats {
                rows: 200_000,
                distinct: 160_000,
                min: 0,
                max: 259_200,
            },
        );
        stats.record(
            "green",
            "pick_time",
            ColumnStats {
                rows: 200_000,
                distinct: 160_000,
                min: 0,
                max: 259_200,
            },
        );
        let planner = Planner::new(LeakagePolicy::AllowIndexedVolume, stats);
        let jix = IndexDef::new("jix", "green", "pick_time").unwrap();
        let cost = CostModel::oblidb();
        let planned = planner.plan(
            &paper_queries::q3_join_count("yellow", "green"),
            &[jix],
            &cost,
        );
        assert_eq!(
            planned.plan,
            Plan::IndexNestedLoop {
                index: "jix".into()
            }
        );
        assert!(planned.estimated_seconds < cost.join_cost(200_000, 200_000));
        // An index on a non-join column cannot serve the join.
        let other = IndexDef::new("other", "green", "pickup_id").unwrap();
        let planned = planner.plan(
            &paper_queries::q3_join_count("yellow", "green"),
            &[other],
            &cost,
        );
        assert_eq!(planned.plan, Plan::FullScan);
    }

    #[test]
    fn observe_table_derives_stats_from_logical_rows() {
        let schema = Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("fare", DataType::Float),
        ]);
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row::new(vec![
                    Value::Timestamp(i),
                    Value::Int(50 + (i as i64 % 5)),
                    Value::Float(1.5),
                ])
            })
            .collect();
        let mut stats = Statistics::new();
        stats.observe_table("yellow", &schema, &rows);
        let s = stats.get("yellow", "pickup_id").unwrap();
        assert_eq!(s.rows, 10);
        assert_eq!(s.distinct, 5);
        assert_eq!((s.min, s.max), (50, 54));
        // Float columns have no i64 image and get no stats.
        assert!(stats.get("yellow", "fare").is_none());
        // Timestamp columns do.
        assert!(stats.get("yellow", "pick_time").is_some());
    }

    /// The statistics of `rows` derived directly: one set per column over
    /// all the rows at once.
    fn rescanned(table: &str, schema: &Schema, rows: &[Row]) -> Statistics {
        let mut stats = Statistics::new();
        for (ci, col) in schema.columns().iter().enumerate() {
            let values: BTreeSet<i64> = rows
                .iter()
                .filter_map(|row| row.value(ci).and_then(Value::as_i64))
                .collect();
            if let (Some(&min), Some(&max)) = (values.first(), values.last()) {
                let column = ColumnStats {
                    rows: rows.len() as u64,
                    distinct: values.len() as u64,
                    min,
                    max,
                };
                stats.record(table, &col.name, column);
            }
        }
        stats
    }

    #[test]
    fn running_stats_fed_in_chunks_equal_a_rescan() {
        let schema = Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("fare", DataType::Float),
            ("paid", DataType::Bool),
            ("late", DataType::Int),
        ]);
        // `pickup_id` is NULL on every third row; `late` is NULL until row 20.
        let rows: Vec<Row> = (0..58u64)
            .map(|i| {
                Row::new(vec![
                    Value::Timestamp(1_000 - 7 * i),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Int((i as i64 * 37) % 23 - 11)
                    },
                    Value::Float(i as f64 / 4.0),
                    Value::Bool(i % 5 == 0),
                    if i < 20 {
                        Value::Null
                    } else {
                        Value::Int(i as i64)
                    },
                ])
            })
            .collect();

        let mut running = RunningTableStats::new(&schema);
        let mut empty = Statistics::new();
        running.record_into("t", &mut empty);
        assert_eq!(empty, Statistics::new(), "an empty table has no stats");

        let mut seen = 0;
        for chunk in [0, 1, 7, 50, 0] {
            running.observe(&rows[seen..seen + chunk]);
            seen += chunk;
            let mut stats = Statistics::new();
            running.record_into("t", &mut stats);
            assert_eq!(stats, rescanned("t", &schema, &rows[..seen]), "{seen} rows");
            let mut one_shot = Statistics::new();
            one_shot.observe_table("t", &schema, &rows[..seen]);
            assert_eq!(stats, one_shot, "{seen} rows");
            assert!(stats.get("t", "fare").is_none());
        }
        assert_eq!(seen, rows.len());
        let mut stats = Statistics::new();
        running.record_into("t", &mut stats);
        assert_eq!(stats.get("t", "late").unwrap().distinct, 38);
        assert_eq!(stats.get("t", "paid").unwrap().distinct, 2);
    }

    #[test]
    fn expected_range_handles_degenerate_spans() {
        let single = ColumnStats {
            rows: 100,
            distinct: 1,
            min: 7,
            max: 7,
        };
        assert_eq!(single.expected_range(0.0, 10.0), 100.0);
        assert_eq!(single.expected_range(8.0, 10.0), 0.0);
        let empty = ColumnStats {
            rows: 0,
            distinct: 0,
            min: 0,
            max: 0,
        };
        assert_eq!(empty.expected_eq(), 0.0);
        assert_eq!(empty.expected_range(0.0, 10.0), 0.0);
    }
}
