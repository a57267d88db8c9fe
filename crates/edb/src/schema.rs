//! Typed values, column definitions and table schemas.
//!
//! The relational model is intentionally small: the paper's evaluation uses a
//! single-table taxi schema with integer zone identifiers, timestamps and a
//! couple of numeric measures, queried with filtered counts, group-by counts
//! and equi-join counts.  The model nevertheless supports arbitrary column
//! sets so the engines are reusable beyond the reproduction workload.

use std::fmt;

/// The data types a column may hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Signed 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Discrete time unit (minutes since the start of the observation window).
    Timestamp,
    /// Boolean flag.
    Bool,
    /// Short UTF-8 string.
    Text,
}

/// A single typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Signed integer value.
    Int(i64),
    /// Floating point value.
    Float(f64),
    /// Timestamp value (time units since epoch of the growing database).
    Timestamp(u64),
    /// Boolean value.
    Bool(bool),
    /// Text value.
    Text(String),
    /// SQL-style NULL.
    Null,
}

impl Value {
    /// The data type of this value (`None` for NULL).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Text(_) => Some(DataType::Text),
            Value::Null => None,
        }
    }

    /// Interprets the value as a float where that makes sense (for
    /// aggregation and comparison against numeric literals).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Text(_) | Value::Null => None,
        }
    }

    /// Interprets the value as an integer where exact (Int / Timestamp / Bool).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Timestamp(v) => i64::try_from(*v).ok(),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Float(_) | Value::Text(_) | Value::Null => None,
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A total ordering key used for grouping and equality joins.
    ///
    /// Floats are compared by their bit pattern after normalising NaN, which
    /// is sufficient for grouping (the evaluation never groups on floats).
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Int(v) => GroupKey::Int(*v),
            Value::Timestamp(v) => GroupKey::Timestamp(*v),
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Text(s) => GroupKey::Text(s.clone()),
            Value::Float(f) => {
                let normalized = if f.is_nan() { f64::NAN } else { *f };
                GroupKey::FloatBits(normalized.to_bits())
            }
            Value::Null => GroupKey::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "t{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A hashable, orderable key derived from a [`Value`], used by group-by and
/// join operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// NULL key (groups all NULLs together, as SQL GROUP BY does).
    Null,
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// Timestamp key.
    Timestamp(u64),
    /// Float key via bit pattern.
    FloatBits(u64),
    /// Text key.
    Text(String),
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupKey::Null => write!(f, "NULL"),
            GroupKey::Bool(b) => write!(f, "{b}"),
            GroupKey::Int(v) => write!(f, "{v}"),
            GroupKey::Timestamp(v) => write!(f, "t{v}"),
            GroupKey::FloatBits(bits) => write!(f, "{}", f64::from_bits(*bits)),
            GroupKey::Text(s) => write!(f, "{s}"),
        }
    }
}

/// A column definition: name and type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl ColumnDef {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }
}

/// A table schema: an ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Creates a schema from column definitions.
    ///
    /// # Panics
    /// Panics if two columns share a name — schemas are built from static
    /// configuration, so a duplicate is a programming error.
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(
                seen.insert(c.name.clone()),
                "duplicate column name `{}`",
                c.name
            );
        }
        Self { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Self::new(
            pairs
                .iter()
                .map(|(name, ty)| ColumnDef::new(*name, *ty))
                .collect(),
        )
    }

    /// The column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The index of the named column, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// The definition of the named column, if present.
    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Whether `values` is compatible with this schema (arity matches and
    /// every non-null value has the declared type).
    pub fn validates(&self, values: &[Value]) -> bool {
        values.len() == self.columns.len()
            && values
                .iter()
                .zip(&self.columns)
                .all(|(v, c)| v.data_type().is_none_or(|ty| ty == c.data_type))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taxi_schema() -> Schema {
        Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
            ("dropoff_id", DataType::Int),
            ("distance", DataType::Float),
            ("fare", DataType::Float),
        ])
    }

    #[test]
    fn column_lookup_by_name() {
        let s = taxi_schema();
        assert_eq!(s.arity(), 5);
        assert_eq!(s.column_index("pickup_id"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("fare").unwrap().data_type, DataType::Float);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        let _ = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Float)]);
    }

    #[test]
    fn validates_checks_arity_and_types() {
        let s = taxi_schema();
        let good = vec![
            Value::Timestamp(10),
            Value::Int(42),
            Value::Int(17),
            Value::Float(1.2),
            Value::Float(8.5),
        ];
        assert!(s.validates(&good));
        let mut with_null = good.clone();
        with_null[3] = Value::Null;
        assert!(s.validates(&with_null));
        let wrong_type = vec![
            Value::Timestamp(10),
            Value::Text("oops".into()),
            Value::Int(17),
            Value::Float(1.2),
            Value::Float(8.5),
        ];
        assert!(!s.validates(&wrong_type));
        assert!(!s.validates(&good[..4]));
    }

    #[test]
    fn value_numeric_conversions() {
        assert_eq!(Value::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Timestamp(7).as_i64(), Some(7));
        assert_eq!(Value::Bool(true).as_i64(), Some(1));
        assert_eq!(Value::Text("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_i64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn group_keys_distinguish_values_and_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Int(2).group_key());
        assert_ne!(Value::Int(1).group_key(), Value::Timestamp(1).group_key());
        assert_eq!(
            Value::Text("a".into()).group_key(),
            Value::Text("a".into()).group_key()
        );
        assert_eq!(Value::Float(1.5).group_key(), Value::Float(1.5).group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
    }

    #[test]
    fn group_keys_are_orderable() {
        let mut keys = vec![
            Value::Int(5).group_key(),
            Value::Int(1).group_key(),
            Value::Int(3).group_key(),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                Value::Int(1).group_key(),
                Value::Int(3).group_key(),
                Value::Int(5).group_key()
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Timestamp(9).to_string(), "t9");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(GroupKey::Text("hi".into()).to_string(), "hi");
        assert_eq!(GroupKey::FloatBits(2.0f64.to_bits()).to_string(), "2");
    }

    #[test]
    fn value_data_types() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Text("s".into()).data_type(), Some(DataType::Text));
    }
}
