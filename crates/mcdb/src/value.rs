//! Typed scalar values.

use crate::McdbError;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string (reference-counted; rows are cloned freely during
    /// Monte Carlo iteration, so string payloads must be cheap to clone).
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Stable one-byte tag used by the page codec (`MDEPAGE1` and
    /// `MDEPAGE2` alike). Tags are part of the on-disk format: never
    /// renumber, only append.
    pub(crate) fn to_tag(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
        }
    }

    /// Inverse of [`DataType::to_tag`]; `None` for an unknown tag (a
    /// corrupt or future-format page).
    pub(crate) fn from_tag(tag: u8) -> Option<DataType> {
        match tag {
            0 => Some(DataType::Int),
            1 => Some(DataType::Float),
            2 => Some(DataType::Str),
            3 => Some(DataType::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "Int"),
            DataType::Float => write!(f, "Float"),
            DataType::Str => write!(f, "Str"),
            DataType::Bool => write!(f, "Bool"),
        }
    }
}

/// A scalar value. `Null` is typeless and compatible with every column
/// type, mirroring SQL.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// String constructor (wraps in an `Arc`).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Null => None,
        }
    }

    /// Whether this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: `Int` and `Float` coerce to `f64`; everything else is
    /// a type error.
    pub fn as_f64(&self) -> crate::Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(McdbError::type_mismatch(
                "as_f64",
                "Int or Float",
                format!("{other}"),
            )),
        }
    }

    /// Integer view (no float coercion — truncation must be explicit in
    /// expressions).
    pub fn as_i64(&self) -> crate::Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(McdbError::type_mismatch(
                "as_i64",
                "Int",
                format!("{other}"),
            )),
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> crate::Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(McdbError::type_mismatch(
                "as_bool",
                "Bool",
                format!("{other}"),
            )),
        }
    }

    /// String view.
    pub fn as_str(&self) -> crate::Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(McdbError::type_mismatch(
                "as_str",
                "Str",
                format!("{other}"),
            )),
        }
    }

    /// SQL-style three-valued comparison: `None` when either side is Null
    /// or the types are incomparable. Ints and Floats compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            _ => None,
        }
    }

    /// A hashable key form for grouping/joining. Floats hash by bit
    /// pattern of their canonicalized value (`-0.0` → `0.0`); NaN keys are
    /// rejected upstream by table validation.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(i) => GroupKey::Int(*i),
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Str(s) => GroupKey::Str(Arc::clone(s)),
            Value::Float(f) => {
                let f = if *f == 0.0 { 0.0 } else { *f };
                GroupKey::Float(f.to_bits())
            }
        }
    }
}

/// Hashable projection of a [`Value`] for hash joins and group-by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// Null key (groups with other Nulls).
    Null,
    /// Integer key.
    Int(i64),
    /// Float key by canonical bit pattern.
    Float(u64),
    /// Boolean key.
    Bool(bool),
    /// String key.
    Str(Arc<str>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3).as_i64().unwrap(), 3);
        assert_eq!(Value::from(3).as_f64().unwrap(), 3.0);
        assert_eq!(Value::from(2.5).as_f64().unwrap(), 2.5);
        assert!(Value::from(true).as_bool().unwrap());
        assert_eq!(Value::from("hi").as_str().unwrap(), "hi");
        assert!(Value::from("hi").as_f64().is_err());
        assert!(Value::from(1.5).as_i64().is_err());
        assert!(Value::Null.as_bool().is_err());
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::from(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::from(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::from(2).sql_cmp(&Value::from(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::from(1.5).sql_cmp(&Value::from(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::from(1)), None);
        assert_eq!(Value::from("a").sql_cmp(&Value::from(1)), None);
        assert_eq!(
            Value::from("a").sql_cmp(&Value::from("b")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn group_semantics() {
        assert_eq!(Value::Null.group_key(), GroupKey::Null);
        // -0.0 and 0.0 produce the same key.
        assert_eq!(Value::from(-0.0).group_key(), Value::from(0.0).group_key());
    }

    #[test]
    fn equality_matches_sql_cmp() {
        assert_eq!(Value::from(1), Value::from(1.0));
        assert_ne!(Value::from(1), Value::from("1"));
        assert_eq!(Value::Null, Value::Null); // for tests/assertions
    }

    #[test]
    fn display() {
        assert_eq!(Value::from(1).to_string(), "1");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::from("x").to_string(), "x");
    }
}
