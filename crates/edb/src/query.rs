//! The query AST and query answers.
//!
//! The paper evaluates three query shapes (§8, "Testing query"):
//!
//! * **Q1** — a filtered count (`SELECT COUNT(*) ... WHERE pickupID BETWEEN 50 AND 100`),
//! * **Q2** — a group-by count (`SELECT pickupID, COUNT(*) ... GROUP BY pickupID`),
//! * **Q3** — an equi-join count (`... YellowCab INNER JOIN GreenTaxi ON pickTime = pickTime`).
//!
//! [`Query`] covers those shapes (plus simple projections used by the query
//! rewriting tests).  [`QueryAnswer`] carries the result and knows how to
//! compute the L1 error against another answer — the accuracy metric of
//! §4.5.2.

use crate::schema::{GroupKey, Value};
use std::collections::BTreeMap;

/// A predicate over a single table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `column = value`
    Eq(String, Value),
    /// `column BETWEEN low AND high` (inclusive, numeric comparison).
    Between(String, f64, f64),
    /// `column < value` (numeric comparison).
    LessThan(String, f64),
    /// `column > value` (numeric comparison).
    GreaterThan(String, f64),
    /// Conjunction of two predicates.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction of two predicates.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation of a predicate.
    Not(Box<Predicate>),
    /// Always true (used by query rewriting as the neutral element).
    True,
}

impl Predicate {
    /// Conjunction helper that avoids allocating for the neutral element.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// All column names mentioned by the predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Predicate::Eq(c, _)
            | Predicate::Between(c, _, _)
            | Predicate::LessThan(c, _)
            | Predicate::GreaterThan(c, _) => out.push(c.as_str()),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Predicate::Not(inner) => inner.collect_columns(out),
            Predicate::True => {}
        }
    }
}

/// A query against the outsourced database.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT COUNT(*) FROM table [WHERE predicate]`
    Count {
        /// Table to count over.
        table: String,
        /// Optional filter.
        predicate: Option<Predicate>,
    },
    /// `SELECT group_by, COUNT(*) FROM table [WHERE predicate] GROUP BY group_by`
    GroupByCount {
        /// Table to aggregate over.
        table: String,
        /// Grouping column.
        group_by: String,
        /// Optional filter.
        predicate: Option<Predicate>,
    },
    /// `SELECT COUNT(*) FROM left INNER JOIN right ON left.left_column = right.right_column`
    JoinCount {
        /// Left table.
        left: String,
        /// Right table.
        right: String,
        /// Join column on the left table.
        left_column: String,
        /// Join column on the right table.
        right_column: String,
    },
    /// `SELECT columns FROM table [WHERE predicate]` — returns matching rows
    /// projected onto `columns`; used by tests and the query-rewriting layer.
    Select {
        /// Table to read.
        table: String,
        /// Columns to project (empty means all columns).
        columns: Vec<String>,
        /// Optional filter.
        predicate: Option<Predicate>,
    },
}

impl Query {
    /// The tables this query touches, in declaration order.
    pub fn tables(&self) -> Vec<&str> {
        match self {
            Query::Count { table, .. }
            | Query::GroupByCount { table, .. }
            | Query::Select { table, .. } => vec![table.as_str()],
            Query::JoinCount { left, right, .. } => vec![left.as_str(), right.as_str()],
        }
    }

    /// A short human-readable label ("count", "group-by", "join", "select").
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Count { .. } => "count",
            Query::GroupByCount { .. } => "group-by",
            Query::JoinCount { .. } => "join",
            Query::Select { .. } => "select",
        }
    }
}

/// The answer to a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// A single numeric answer (counts; may be non-integral after DP noise).
    Scalar(f64),
    /// Per-group counts keyed by the grouping value.
    Groups(BTreeMap<GroupKey, f64>),
    /// Projected rows (only produced by [`Query::Select`]).
    Rows(Vec<Vec<Value>>),
}

impl QueryAnswer {
    /// The scalar value if this is a scalar answer.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            QueryAnswer::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// The group map if this is a grouped answer.
    pub fn as_groups(&self) -> Option<&BTreeMap<GroupKey, f64>> {
        match self {
            QueryAnswer::Groups(g) => Some(g),
            _ => None,
        }
    }

    /// The projected rows if this is a row answer.
    pub fn as_rows(&self) -> Option<&[Vec<Value>]> {
        match self {
            QueryAnswer::Rows(rows) => Some(rows),
            _ => None,
        }
    }

    /// The L1 distance to another answer (the paper's query-error metric).
    ///
    /// * scalars: `|a - b|`;
    /// * grouped answers: sum over the union of group keys of the absolute
    ///   per-group difference (missing groups count as zero);
    /// * row answers: absolute difference in row counts (a coarse but
    ///   monotone proxy — the evaluation never measures error on selects);
    /// * mismatched shapes: treated as completely disjoint, returns infinity.
    pub fn l1_error(&self, other: &QueryAnswer) -> f64 {
        match (self, other) {
            (QueryAnswer::Scalar(a), QueryAnswer::Scalar(b)) => (a - b).abs(),
            (QueryAnswer::Groups(a), QueryAnswer::Groups(b)) => {
                let mut keys: std::collections::BTreeSet<&GroupKey> = a.keys().collect();
                keys.extend(b.keys());
                keys.into_iter()
                    .map(|k| {
                        (a.get(k).copied().unwrap_or(0.0) - b.get(k).copied().unwrap_or(0.0)).abs()
                    })
                    .sum()
            }
            (QueryAnswer::Rows(a), QueryAnswer::Rows(b)) => (a.len() as f64 - b.len() as f64).abs(),
            _ => f64::INFINITY,
        }
    }

    /// Total mass of the answer (scalar value, sum of group counts, or row count).
    pub fn total(&self) -> f64 {
        match self {
            QueryAnswer::Scalar(v) => *v,
            QueryAnswer::Groups(g) => g.values().sum(),
            QueryAnswer::Rows(rows) => rows.len() as f64,
        }
    }
}

/// Builders for the paper's three evaluation queries.
pub mod paper_queries {
    use super::*;

    /// Q1: `SELECT COUNT(*) FROM <table> WHERE pickup_id BETWEEN 50 AND 100`.
    pub fn q1_range_count(table: &str) -> Query {
        Query::Count {
            table: table.to_string(),
            predicate: Some(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
        }
    }

    /// Q2: `SELECT pickup_id, COUNT(*) FROM <table> GROUP BY pickup_id`.
    pub fn q2_group_by_count(table: &str) -> Query {
        Query::GroupByCount {
            table: table.to_string(),
            group_by: "pickup_id".into(),
            predicate: None,
        }
    }

    /// Q3: `SELECT COUNT(*) FROM <left> INNER JOIN <right> ON pick_time = pick_time`.
    pub fn q3_join_count(left: &str, right: &str) -> Query {
        Query::JoinCount {
            left: left.to_string(),
            right: right.to_string(),
            left_column: "pick_time".into(),
            right_column: "pick_time".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_and_short_circuits_true() {
        let p = Predicate::Eq("a".into(), Value::Int(1));
        assert_eq!(p.clone().and(Predicate::True), p);
        assert_eq!(Predicate::True.and(p.clone()), p);
        let both = p.clone().and(Predicate::LessThan("b".into(), 3.0));
        assert!(matches!(both, Predicate::And(_, _)));
    }

    #[test]
    fn predicate_columns_are_collected() {
        let p = Predicate::And(
            Box::new(Predicate::Between("x".into(), 0.0, 1.0)),
            Box::new(Predicate::Not(Box::new(Predicate::Eq(
                "y".into(),
                Value::Int(3),
            )))),
        );
        assert_eq!(p.columns(), vec!["x", "y"]);
        assert!(Predicate::True.columns().is_empty());
    }

    #[test]
    fn query_tables_and_kind() {
        let q1 = paper_queries::q1_range_count("yellow");
        assert_eq!(q1.tables(), vec!["yellow"]);
        assert_eq!(q1.kind(), "count");
        let q3 = paper_queries::q3_join_count("yellow", "green");
        assert_eq!(q3.tables(), vec!["yellow", "green"]);
        assert_eq!(q3.kind(), "join");
    }

    #[test]
    fn scalar_l1_error() {
        let a = QueryAnswer::Scalar(10.0);
        let b = QueryAnswer::Scalar(7.5);
        assert_eq!(a.l1_error(&b), 2.5);
        assert_eq!(b.l1_error(&a), 2.5);
        assert_eq!(a.total(), 10.0);
    }

    #[test]
    fn grouped_l1_error_covers_missing_groups() {
        let mut a = BTreeMap::new();
        a.insert(Value::Int(1).group_key(), 5.0);
        a.insert(Value::Int(2).group_key(), 3.0);
        let mut b = BTreeMap::new();
        b.insert(Value::Int(2).group_key(), 1.0);
        b.insert(Value::Int(3).group_key(), 4.0);
        let ga = QueryAnswer::Groups(a);
        let gb = QueryAnswer::Groups(b);
        // |5-0| + |3-1| + |0-4| = 11
        assert_eq!(ga.l1_error(&gb), 11.0);
        assert_eq!(ga.total(), 8.0);
    }

    #[test]
    fn mismatched_answer_shapes_are_infinite_error() {
        let a = QueryAnswer::Scalar(1.0);
        let mut g = BTreeMap::new();
        g.insert(Value::Int(1).group_key(), 1.0);
        let b = QueryAnswer::Groups(g);
        assert!(a.l1_error(&b).is_infinite());
    }

    #[test]
    fn rows_error_is_count_difference() {
        let a = QueryAnswer::Rows(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = QueryAnswer::Rows(vec![vec![Value::Int(1)]]);
        assert_eq!(a.l1_error(&b), 1.0);
        assert_eq!(a.total(), 2.0);
        assert!(a.as_rows().is_some());
    }

    #[test]
    fn accessors_return_expected_variants() {
        assert_eq!(QueryAnswer::Scalar(2.0).as_scalar(), Some(2.0));
        assert!(QueryAnswer::Scalar(2.0).as_groups().is_none());
        let g = QueryAnswer::Groups(BTreeMap::new());
        assert!(g.as_groups().is_some());
        assert!(g.as_scalar().is_none());
    }

    #[test]
    fn paper_queries_reference_expected_columns() {
        match paper_queries::q1_range_count("t") {
            Query::Count {
                predicate: Some(Predicate::Between(col, lo, hi)),
                ..
            } => {
                assert_eq!(col, "pickup_id");
                assert_eq!((lo, hi), (50.0, 100.0));
            }
            other => panic!("unexpected query {other:?}"),
        }
        match paper_queries::q2_group_by_count("t") {
            Query::GroupByCount { group_by, .. } => assert_eq!(group_by, "pickup_id"),
            other => panic!("unexpected query {other:?}"),
        }
        match paper_queries::q3_join_count("a", "b") {
            Query::JoinCount {
                left_column,
                right_column,
                ..
            } => {
                assert_eq!(left_column, "pick_time");
                assert_eq!(right_column, "pick_time");
            }
            other => panic!("unexpected query {other:?}"),
        }
    }
}
