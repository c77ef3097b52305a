//! Table schemas: ordered, named, typed columns.

pub use crate::value::DataType;
use crate::value::Value;
use crate::McdbError;
use std::sync::Arc;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (unique within a schema, case-sensitive).
    pub name: String,
    /// Column type. `Null` values are admitted in any column.
    pub dtype: DataType,
}

impl Column {
    /// Create a column.
    pub(crate) fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

/// An ordered collection of columns. Immutable once built, and shared:
/// every batch an operator emits carries its schema, so a clone is a
/// reference count, not a copy of the names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// Create a schema from columns; names must be unique.
    pub(crate) fn new(columns: Vec<Column>) -> crate::Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|o| o.name == c.name) {
                return Err(McdbError::invalid_plan(format!(
                    "duplicate column name `{}` in schema",
                    c.name
                )));
            }
        }
        Ok(Schema {
            columns: columns.into(),
        })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> crate::Result<Self> {
        Schema::new(pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect())
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Index of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> crate::Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| McdbError::UnknownColumn {
                column: name.to_string(),
                available: self.names(),
            })
    }

    /// Whether the schema has a column with this name.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name)
    }

    /// Validate that a row conforms to this schema (arity + per-column
    /// type, with `Null` always admitted).
    pub(crate) fn validate_row(&self, row: &[Value]) -> crate::Result<()> {
        if row.len() != self.columns.len() {
            return Err(McdbError::ArityMismatch {
                context: "Schema::validate_row".to_string(),
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (v, c) in row.iter().zip(self.columns.iter()) {
            if let Some(t) = v.data_type() {
                if t != c.dtype {
                    return Err(McdbError::type_mismatch(
                        format!("column `{}`", c.name),
                        c.dtype.to_string(),
                        t.to_string(),
                    ));
                }
            }
            if let Value::Float(f) = v {
                if f.is_nan() {
                    return Err(McdbError::type_mismatch(
                        format!("column `{}`", c.name),
                        "finite float or NULL".to_string(),
                        "NaN".to_string(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Concatenate two schemas (for joins). Collisions on the right side
    /// are disambiguated with the given prefix (`prefix.name`).
    pub(crate) fn concat(&self, other: &Schema, collision_prefix: &str) -> crate::Result<Schema> {
        let mut cols = self.columns.to_vec();
        for c in other.columns.iter() {
            let name = if self.contains(&c.name) {
                format!("{collision_prefix}.{}", c.name)
            } else {
                c.name.clone()
            };
            cols.push(Column::new(name, c.dtype));
        }
        Schema::new(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_rejected() {
        assert!(Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Float)]).is_err());
    }

    #[test]
    fn index_and_contains() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]).unwrap();
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.contains("a"));
        assert!(!s.contains("c"));
        assert!(matches!(
            s.index_of("c"),
            Err(McdbError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn validate_row_checks_arity_and_types() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]).unwrap();
        assert!(s.validate_row(&[Value::from(1), Value::from("x")]).is_ok());
        assert!(s.validate_row(&[Value::from(1)]).is_err());
        assert!(s
            .validate_row(&[Value::from("x"), Value::from("y")])
            .is_err());
        // Nulls always allowed.
        assert!(s.validate_row(&[Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn validate_row_rejects_nan() {
        let s = Schema::from_pairs(&[("a", DataType::Float)]).unwrap();
        assert!(s.validate_row(&[Value::from(f64::NAN)]).is_err());
        assert!(s.validate_row(&[Value::from(1.5)]).is_ok());
    }

    #[test]
    fn concat_disambiguates_collisions() {
        let a = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let b = Schema::from_pairs(&[("id", DataType::Int), ("y", DataType::Float)]).unwrap();
        let c = a.concat(&b, "r").unwrap();
        assert_eq!(c.names(), vec!["id", "x", "r.id", "y"]);
    }
}
