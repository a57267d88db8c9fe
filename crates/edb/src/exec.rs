//! A plaintext reference query executor.
//!
//! The executor serves two purposes:
//!
//! 1. It computes the **true answers** over the owner's logical database —
//!    the baseline against which the paper's query-error metric (§4.5.2) is
//!    measured.
//! 2. It is the computational core reused by both simulated engines after
//!    they have decrypted their records (conceptually "inside the enclave"
//!    for the ObliDB-like engine, "inside the MPC" for the Crypt-ε-like
//!    engine).  The engines differ in their leakage and their cost model, not
//!    in the relational algebra.

use crate::query::{Predicate, Query, QueryAnswer};
use crate::row::Row;
use crate::schema::{GroupKey, Schema, Value};
use std::collections::{BTreeMap, HashMap};

/// Errors raised while executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query referenced a table that does not exist.
    UnknownTable(String),
    /// The query referenced a column that does not exist in the table.
    UnknownColumn {
        /// Table being queried.
        table: String,
        /// Missing column.
        column: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            ExecError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Evaluates a predicate against a row.
///
/// Unknown columns and non-numeric comparisons evaluate to `false`, matching
/// SQL's three-valued logic collapsed to a boolean filter.
pub fn eval_predicate(predicate: &Predicate, schema: &Schema, row: &Row) -> bool {
    match predicate {
        Predicate::True => true,
        Predicate::Eq(column, expected) => row.value_by_name(schema, column) == Some(expected),
        Predicate::Between(column, lo, hi) => {
            numeric(row, schema, column).is_some_and(|v| v >= *lo && v <= *hi)
        }
        Predicate::LessThan(column, bound) => {
            numeric(row, schema, column).is_some_and(|v| v < *bound)
        }
        Predicate::GreaterThan(column, bound) => {
            numeric(row, schema, column).is_some_and(|v| v > *bound)
        }
        Predicate::And(a, b) => eval_predicate(a, schema, row) && eval_predicate(b, schema, row),
        Predicate::Or(a, b) => eval_predicate(a, schema, row) || eval_predicate(b, schema, row),
        Predicate::Not(inner) => !eval_predicate(inner, schema, row),
    }
}

fn numeric(row: &Row, schema: &Schema, column: &str) -> Option<f64> {
    row.value_by_name(schema, column).and_then(Value::as_f64)
}

/// A plaintext table: schema plus rows.
#[derive(Debug, Clone, Default)]
pub struct PlainTable {
    schema: Option<Schema>,
    rows: Vec<Row>,
}

impl PlainTable {
    /// Creates an empty table with a schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema: Some(schema),
            rows: Vec::new(),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> Option<&Schema> {
        self.schema.as_ref()
    }

    /// The stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }
}

/// An in-memory plaintext database: a set of named tables.
///
/// This is the executor used for ground-truth answers; the engines embed
/// their own (decrypted) tables and call [`execute`] on them.
#[derive(Debug, Clone, Default)]
pub struct PlainDatabase {
    tables: BTreeMap<String, PlainTable>,
}

impl PlainDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or replaces) a table.
    pub fn create_table(&mut self, name: impl Into<String>, schema: Schema) {
        self.tables.insert(name.into(), PlainTable::new(schema));
    }

    /// Whether the named table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Inserts a row into the named table, creating the table schemalessly if
    /// it does not exist (used by engines that defer schema registration).
    pub fn insert(&mut self, table: &str, row: Row) {
        // Look up before `entry`: the table almost always exists, and only a
        // new table needs an owned name.
        match self.tables.get_mut(table) {
            Some(existing) => existing.push(row),
            None => self.tables.entry(table.to_string()).or_default().push(row),
        }
    }

    /// Returns the named table.
    pub fn table(&self, name: &str) -> Option<&PlainTable> {
        self.tables.get(name)
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(PlainTable::len).sum()
    }

    /// Executes a query and returns its answer.
    pub fn execute(&self, query: &Query) -> Result<QueryAnswer, ExecError> {
        execute(query, |name| {
            self.tables
                .get(name)
                .map(|t| (t.schema.as_ref(), t.rows.as_slice()))
        })
    }
}

/// Executes `query` against tables resolved through `lookup`.
///
/// `lookup` returns the (optional) schema and row slice for a table name, or
/// `None` when the table does not exist.  Engines use this entry point so
/// they can resolve tables from their own storage structures.  Schemas are
/// borrowed, not cloned — execution is on the per-query hot path and must
/// not copy column metadata for every table it touches.
pub fn execute<'a, F>(query: &Query, lookup: F) -> Result<QueryAnswer, ExecError>
where
    F: Fn(&str) -> Option<(Option<&'a Schema>, &'a [Row])>,
{
    let resolve = |name: &str| -> Result<(Option<&'a Schema>, &'a [Row]), ExecError> {
        lookup(name).ok_or_else(|| ExecError::UnknownTable(name.to_string()))
    };

    match query {
        Query::Count { table, predicate } => {
            let (schema, rows) = resolve(table)?;
            let schema = schema_or_err(table, schema, predicate.as_ref())?;
            let count = rows
                .iter()
                .filter(|row| match (&schema, predicate) {
                    (_, None) => true,
                    (Some(s), Some(p)) => eval_predicate(p, s, row),
                    (None, Some(_)) => false,
                })
                .count();
            Ok(QueryAnswer::Scalar(count as f64))
        }
        Query::GroupByCount {
            table,
            group_by,
            predicate,
        } => {
            let (schema, rows) = resolve(table)?;
            let schema = schema_or_err(table, schema, predicate.as_ref())?.ok_or_else(|| {
                ExecError::UnknownColumn {
                    table: table.clone(),
                    column: group_by.clone(),
                }
            })?;
            let group_index =
                schema
                    .column_index(group_by)
                    .ok_or_else(|| ExecError::UnknownColumn {
                        table: table.clone(),
                        column: group_by.clone(),
                    })?;
            // Hot path: group keys are built by reference (no per-row `Value`
            // clone) and counts accumulate as exact `u64` in a hash map; the
            // ordered f64 answer map is built once at the end.
            let mut groups: HashMap<GroupKey, u64> = HashMap::new();
            for row in rows {
                if let Some(p) = predicate {
                    if !eval_predicate(p, schema, row) {
                        continue;
                    }
                }
                let key = row
                    .value(group_index)
                    .map_or(GroupKey::Null, Value::group_key);
                *groups.entry(key).or_insert(0) += 1;
            }
            Ok(QueryAnswer::Groups(
                groups.into_iter().map(|(k, n)| (k, n as f64)).collect(),
            ))
        }
        Query::JoinCount {
            left,
            right,
            left_column,
            right_column,
        } => {
            let (left_schema, left_rows) = resolve(left)?;
            let (right_schema, right_rows) = resolve(right)?;
            let left_schema = left_schema.ok_or_else(|| ExecError::UnknownColumn {
                table: left.clone(),
                column: left_column.clone(),
            })?;
            let right_schema = right_schema.ok_or_else(|| ExecError::UnknownColumn {
                table: right.clone(),
                column: right_column.clone(),
            })?;
            let li =
                left_schema
                    .column_index(left_column)
                    .ok_or_else(|| ExecError::UnknownColumn {
                        table: left.clone(),
                        column: left_column.clone(),
                    })?;
            let ri = right_schema.column_index(right_column).ok_or_else(|| {
                ExecError::UnknownColumn {
                    table: right.clone(),
                    column: right_column.clone(),
                }
            })?;
            // Hash join on the grouping key of the join value.
            let mut build: BTreeMap<_, u64> = BTreeMap::new();
            for row in right_rows {
                if let Some(v) = row.value(ri) {
                    if !v.is_null() {
                        *build.entry(v.group_key()).or_insert(0) += 1;
                    }
                }
            }
            let mut matches = 0u64;
            for row in left_rows {
                if let Some(v) = row.value(li) {
                    if !v.is_null() {
                        if let Some(count) = build.get(&v.group_key()) {
                            matches += count;
                        }
                    }
                }
            }
            Ok(QueryAnswer::Scalar(matches as f64))
        }
        Query::Select {
            table,
            columns,
            predicate,
        } => {
            let (schema, rows) = resolve(table)?;
            let schema = schema.ok_or_else(|| ExecError::UnknownColumn {
                table: table.clone(),
                column: columns.first().cloned().unwrap_or_default(),
            })?;
            let indices: Vec<usize> = if columns.is_empty() {
                (0..schema.arity()).collect()
            } else {
                columns
                    .iter()
                    .map(|c| {
                        schema
                            .column_index(c)
                            .ok_or_else(|| ExecError::UnknownColumn {
                                table: table.clone(),
                                column: c.clone(),
                            })
                    })
                    .collect::<Result<_, _>>()?
            };
            let mut out = Vec::new();
            for row in rows {
                if let Some(p) = predicate {
                    if !eval_predicate(p, schema, row) {
                        continue;
                    }
                }
                out.push(row.project(&indices).values().to_vec());
            }
            Ok(QueryAnswer::Rows(out))
        }
    }
}

fn schema_or_err<'a>(
    table: &str,
    schema: Option<&'a Schema>,
    predicate: Option<&Predicate>,
) -> Result<Option<&'a Schema>, ExecError> {
    if schema.is_none() {
        if let Some(p) = predicate {
            if let Some(col) = p.columns().first() {
                return Err(ExecError::UnknownColumn {
                    table: table.to_string(),
                    column: (*col).to_string(),
                });
            }
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::paper_queries;
    use crate::schema::DataType;

    fn taxi_schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("dropoff_id", DataType::Int),
            ("distance", DataType::Float),
            ("fare", DataType::Float),
        ])
    }

    fn taxi_row(time: u64, pickup: i64, dropoff: i64) -> Row {
        Row::new(vec![
            Value::Timestamp(time),
            Value::Int(pickup),
            Value::Int(dropoff),
            Value::Float(1.0),
            Value::Float(10.0),
        ])
    }

    fn sample_db() -> PlainDatabase {
        let mut db = PlainDatabase::new();
        db.create_table("yellow", taxi_schema());
        db.create_table("green", taxi_schema());
        for (t, p, d) in [
            (1u64, 55i64, 10i64),
            (2, 99, 11),
            (3, 120, 12),
            (4, 75, 13),
            (4, 55, 14),
        ] {
            db.insert("yellow", taxi_row(t, p, d));
        }
        for (t, p, d) in [(2u64, 7i64, 1i64), (4, 8, 2), (9, 9, 3)] {
            db.insert("green", taxi_row(t, p, d));
        }
        db
    }

    #[test]
    fn count_without_predicate() {
        let db = sample_db();
        let q = Query::Count {
            table: "yellow".into(),
            predicate: None,
        };
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(5.0));
    }

    #[test]
    fn q1_range_count_matches_manual_count() {
        let db = sample_db();
        let q = paper_queries::q1_range_count("yellow");
        // pickup_id in [50,100]: 55, 99, 75, 55 -> 4
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(4.0));
    }

    #[test]
    fn q2_group_by_count() {
        let db = sample_db();
        let q = paper_queries::q2_group_by_count("yellow");
        let answer = db.execute(&q).unwrap();
        let groups = answer.as_groups().unwrap();
        assert_eq!(groups.get(&Value::Int(55).group_key()), Some(&2.0));
        assert_eq!(groups.get(&Value::Int(99).group_key()), Some(&1.0));
        assert_eq!(groups.len(), 4);
        assert_eq!(answer.total(), 5.0);
    }

    #[test]
    fn q3_join_count_on_pick_time() {
        let db = sample_db();
        let q = paper_queries::q3_join_count("yellow", "green");
        // yellow times {1,2,3,4,4}, green times {2,4,9}: t=2 matches 1*1, t=4 matches 2*1 -> 3.
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(3.0));
    }

    #[test]
    fn join_handles_duplicate_keys_on_both_sides() {
        let mut db = PlainDatabase::new();
        db.create_table("a", taxi_schema());
        db.create_table("b", taxi_schema());
        for _ in 0..3 {
            db.insert("a", taxi_row(5, 1, 1));
        }
        for _ in 0..4 {
            db.insert("b", taxi_row(5, 2, 2));
        }
        let q = paper_queries::q3_join_count("a", "b");
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(12.0));
    }

    #[test]
    fn select_projects_requested_columns() {
        let db = sample_db();
        let q = Query::Select {
            table: "green".into(),
            columns: vec!["pickup_id".into()],
            predicate: Some(Predicate::GreaterThan("pick_time".into(), 3.0)),
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(
            rows.as_rows().unwrap(),
            &[vec![Value::Int(8)], vec![Value::Int(9)]]
        );
    }

    #[test]
    fn select_all_columns_when_none_specified() {
        let db = sample_db();
        let q = Query::Select {
            table: "green".into(),
            columns: vec![],
            predicate: None,
        };
        let rows = db.execute(&q).unwrap();
        assert_eq!(rows.as_rows().unwrap().len(), 3);
        assert_eq!(rows.as_rows().unwrap()[0].len(), 5);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = sample_db();
        let q = Query::Count {
            table: "missing".into(),
            predicate: None,
        };
        assert_eq!(
            db.execute(&q),
            Err(ExecError::UnknownTable("missing".into()))
        );

        let q = Query::GroupByCount {
            table: "yellow".into(),
            group_by: "no_such".into(),
            predicate: None,
        };
        assert!(matches!(
            db.execute(&q),
            Err(ExecError::UnknownColumn { .. })
        ));
        assert!(db.execute(&q).unwrap_err().to_string().contains("no_such"));
    }

    #[test]
    fn predicate_logic_operators() {
        let schema = taxi_schema();
        let row = taxi_row(10, 60, 5);
        let p = Predicate::And(
            Box::new(Predicate::Between("pickup_id".into(), 50.0, 100.0)),
            Box::new(Predicate::Not(Box::new(Predicate::Eq(
                "dropoff_id".into(),
                Value::Int(99),
            )))),
        );
        assert!(eval_predicate(&p, &schema, &row));
        let p_or = Predicate::Or(
            Box::new(Predicate::LessThan("pickup_id".into(), 10.0)),
            Box::new(Predicate::GreaterThan("pick_time".into(), 5.0)),
        );
        assert!(eval_predicate(&p_or, &schema, &row));
        assert!(eval_predicate(&Predicate::True, &schema, &row));
        // Unknown column is simply false, not an error at predicate level.
        assert!(!eval_predicate(
            &Predicate::Eq("ghost".into(), Value::Int(1)),
            &schema,
            &row
        ));
    }

    #[test]
    fn grouping_nulls_together() {
        let mut db = PlainDatabase::new();
        db.create_table("t", taxi_schema());
        let mut row = taxi_row(1, 5, 5);
        db.insert("t", row.clone());
        row = Row::new(vec![
            Value::Timestamp(2),
            Value::Null,
            Value::Int(1),
            Value::Float(0.0),
            Value::Float(0.0),
        ]);
        db.insert("t", row.clone());
        db.insert("t", row);
        let q = Query::GroupByCount {
            table: "t".into(),
            group_by: "pickup_id".into(),
            predicate: None,
        };
        let groups = db.execute(&q).unwrap();
        let groups = groups.as_groups().unwrap();
        assert_eq!(groups.get(&Value::Null.group_key()), Some(&2.0));
        assert_eq!(groups.get(&Value::Int(5).group_key()), Some(&1.0));
    }

    #[test]
    fn database_bookkeeping() {
        let db = sample_db();
        assert!(db.has_table("yellow"));
        assert!(!db.has_table("red"));
        assert_eq!(db.total_rows(), 8);
        assert_eq!(db.table("green").unwrap().len(), 3);
        assert!(!db.table("green").unwrap().is_empty());
        assert!(db.table("green").unwrap().schema().is_some());
    }

    #[test]
    fn count_with_predicate_but_schemaless_table_errors() {
        let mut db = PlainDatabase::new();
        db.insert("bare", taxi_row(1, 2, 3)); // inserted without create_table => no schema
        let q = Query::Count {
            table: "bare".into(),
            predicate: Some(Predicate::Eq("pickup_id".into(), Value::Int(2))),
        };
        assert!(matches!(
            db.execute(&q),
            Err(ExecError::UnknownColumn { .. })
        ));
        // Without a predicate the count still works.
        let q = Query::Count {
            table: "bare".into(),
            predicate: None,
        };
        assert_eq!(db.execute(&q).unwrap(), QueryAnswer::Scalar(1.0));
    }
}
