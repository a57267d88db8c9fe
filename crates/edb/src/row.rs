//! Rows and their compact binary serialization.
//!
//! A [`Row`] is an ordered list of [`Value`]s matching a [`Schema`].  Rows are
//! serialized into a compact tag-prefixed binary format before encryption so
//! that the paper's taxi schema fits comfortably inside the fixed
//! [`dpsync_crypto::RECORD_PAYLOAD_LEN`] payload of an encrypted record.

use crate::schema::{Schema, Value};

/// A row of typed values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    values: Vec<Value>,
}

/// Errors raised when decoding a serialized row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowDecodeError {
    /// The byte stream ended in the middle of a value.
    UnexpectedEnd,
    /// An unknown type tag was encountered.
    UnknownTag(u8),
    /// A text value was not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for RowDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RowDecodeError::UnexpectedEnd => write!(f, "row bytes ended unexpectedly"),
            RowDecodeError::UnknownTag(t) => write!(f, "unknown row value tag {t}"),
            RowDecodeError::InvalidUtf8 => write!(f, "text value is not valid UTF-8"),
        }
    }
}

impl std::error::Error for RowDecodeError {}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TIMESTAMP: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_TEXT: u8 = 5;

impl Row {
    /// Creates a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The row's values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at `index`, if within bounds.
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }

    /// The value of the named column under `schema`.
    pub fn value_by_name<'a>(&'a self, schema: &Schema, name: &str) -> Option<&'a Value> {
        schema.column_index(name).and_then(|i| self.values.get(i))
    }

    /// Projects the row onto the given column indices (missing indices become NULL).
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(
            indices
                .iter()
                .map(|&i| self.values.get(i).cloned().unwrap_or(Value::Null))
                .collect(),
        )
    }

    /// Consumes the row, returning its values without cloning.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Serializes the row to a compact byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.values.len() * 9 + 1);
        self.encode_into(&mut out);
        out
    }

    /// Serializes the row into `out` (appended), so batch encoders can reuse
    /// one buffer across rows instead of allocating per row.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.values.len() as u8);
        for v in &self.values {
            match v {
                Value::Null => out.push(TAG_NULL),
                Value::Int(i) => {
                    out.push(TAG_INT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    out.push(TAG_FLOAT);
                    out.extend_from_slice(&f.to_le_bytes());
                }
                Value::Timestamp(t) => {
                    out.push(TAG_TIMESTAMP);
                    out.extend_from_slice(&t.to_le_bytes());
                }
                Value::Bool(b) => {
                    out.push(TAG_BOOL);
                    out.push(u8::from(*b));
                }
                Value::Text(s) => {
                    out.push(TAG_TEXT);
                    let bytes = s.as_bytes();
                    let len = bytes.len().min(u8::MAX as usize);
                    out.push(len as u8);
                    out.extend_from_slice(&bytes[..len]);
                }
            }
        }
    }

    /// Decodes a row previously produced by [`Row::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RowDecodeError> {
        let mut cursor = 0usize;
        let take = |cursor: &mut usize, n: usize| -> Result<&[u8], RowDecodeError> {
            if *cursor + n > bytes.len() {
                Err(RowDecodeError::UnexpectedEnd)
            } else {
                let slice = &bytes[*cursor..*cursor + n];
                *cursor += n;
                Ok(slice)
            }
        };

        let arity = take(&mut cursor, 1)?[0] as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            let tag = take(&mut cursor, 1)?[0];
            let value = match tag {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(i64::from_le_bytes(
                    take(&mut cursor, 8)?.try_into().expect("8 bytes"),
                )),
                TAG_FLOAT => Value::Float(f64::from_le_bytes(
                    take(&mut cursor, 8)?.try_into().expect("8 bytes"),
                )),
                TAG_TIMESTAMP => Value::Timestamp(u64::from_le_bytes(
                    take(&mut cursor, 8)?.try_into().expect("8 bytes"),
                )),
                TAG_BOOL => Value::Bool(take(&mut cursor, 1)?[0] != 0),
                TAG_TEXT => {
                    let len = take(&mut cursor, 1)?[0] as usize;
                    let raw = take(&mut cursor, len)?;
                    Value::Text(
                        std::str::from_utf8(raw)
                            .map_err(|_| RowDecodeError::InvalidUtf8)?
                            .to_string(),
                    )
                }
                other => return Err(RowDecodeError::UnknownTag(other)),
            };
            values.push(value);
        }
        Ok(Row::new(values))
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn sample_row() -> Row {
        Row::new(vec![
            Value::Timestamp(1234),
            Value::Int(42),
            Value::Int(-7),
            Value::Float(3.25),
            Value::Bool(true),
            Value::Text("yellow".into()),
            Value::Null,
        ])
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let row = sample_row();
        let bytes = row.to_bytes();
        assert_eq!(Row::from_bytes(&bytes).unwrap(), row);
    }

    #[test]
    fn taxi_row_fits_in_record_payload() {
        let row = Row::new(vec![
            Value::Timestamp(43_199),
            Value::Int(265),
            Value::Int(131),
            Value::Float(12.75),
            Value::Float(38.20),
        ]);
        assert!(
            row.to_bytes().len() <= dpsync_crypto::RECORD_PAYLOAD_LEN,
            "taxi row is {} bytes",
            row.to_bytes().len()
        );
    }

    #[test]
    fn truncated_bytes_error() {
        let bytes = sample_row().to_bytes();
        for cut in [0usize, 1, 5, bytes.len() - 1] {
            assert!(
                matches!(
                    Row::from_bytes(&bytes[..cut]),
                    Err(RowDecodeError::UnexpectedEnd)
                ),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let bytes = vec![1u8, 200u8];
        assert_eq!(
            Row::from_bytes(&bytes),
            Err(RowDecodeError::UnknownTag(200))
        );
    }

    #[test]
    fn long_text_is_truncated_not_panicking() {
        let long = "x".repeat(500);
        let row = Row::new(vec![Value::Text(long)]);
        let decoded = Row::from_bytes(&row.to_bytes()).unwrap();
        match decoded.value(0).unwrap() {
            Value::Text(s) => assert_eq!(s.len(), 255),
            other => panic!("unexpected value {other:?}"),
        }
    }

    #[test]
    fn value_by_name_uses_schema_ordering() {
        let schema = Schema::from_pairs(&[
            ("pick_time", DataType::Timestamp),
            ("pickup_id", DataType::Int),
        ]);
        let row = Row::new(vec![Value::Timestamp(5), Value::Int(99)]);
        assert_eq!(
            row.value_by_name(&schema, "pickup_id"),
            Some(&Value::Int(99))
        );
        assert_eq!(row.value_by_name(&schema, "nope"), None);
    }

    #[test]
    fn project_selects_and_pads_with_null() {
        let row = Row::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let projected = row.project(&[2, 0, 9]);
        assert_eq!(
            projected.values(),
            &[Value::Int(3), Value::Int(1), Value::Null]
        );
    }

    #[test]
    fn arity_and_value_accessors() {
        let row = sample_row();
        assert_eq!(row.arity(), 7);
        assert_eq!(row.value(1), Some(&Value::Int(42)));
        assert_eq!(row.value(99), None);
    }

    #[test]
    fn decode_error_display() {
        assert!(RowDecodeError::UnexpectedEnd.to_string().contains("ended"));
        assert!(RowDecodeError::UnknownTag(9).to_string().contains('9'));
        assert!(RowDecodeError::InvalidUtf8.to_string().contains("UTF-8"));
    }

    #[test]
    fn invalid_utf8_text_is_rejected() {
        // tag TEXT, len 2, invalid UTF-8 bytes
        let bytes = vec![1u8, TAG_TEXT, 2, 0xff, 0xfe];
        assert_eq!(Row::from_bytes(&bytes), Err(RowDecodeError::InvalidUtf8));
    }
}
