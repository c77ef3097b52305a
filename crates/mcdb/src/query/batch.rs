//! Columnar record batches: a [`Schema`] plus one [`ColumnVec`] per column.
//!
//! A [`Batch`] is both the in-memory storage of a
//! [`Table`](crate::table::Table) and the unit of data flowing between
//! physical operators in the vectorized executor, so a scan of a memory
//! table and the adoption of a result as a table are `Arc` clones.
//! Operators that only reorder or drop rows (filter, sort, limit) never
//! touch a `Batch` at all — they compose selection vectors over a shared
//! `Arc<Batch>` and only the final result (or an operator that must rebuild
//! columns, like a projection) gathers.

use super::column::ColumnVec;
use crate::schema::Schema;
use crate::table::Row;

/// A columnar batch of rows (shared immutably behind an `Arc`; a table
/// appends to its own through `Arc::make_mut`).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    schema: Schema,
    columns: Vec<ColumnVec>,
    len: usize,
}

impl Batch {
    /// A zero-row batch with one typed column per schema column — what a
    /// fresh table starts from, so a column that only ever receives NULLs
    /// stays typed as declared.
    pub(crate) fn empty(schema: Schema) -> Batch {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnVec::placeholders(0, c.dtype))
            .collect();
        Batch {
            schema,
            columns,
            len: 0,
        }
    }

    /// Validate a row against the schema and append it; a rejected row
    /// leaves every column as it was.
    pub(crate) fn push_row(&mut self, row: Row) -> crate::Result<()> {
        self.schema.validate_row(&row)?;
        for ((col, v), declared) in self.columns.iter_mut().zip(row).zip(self.schema.columns()) {
            if col.dtype().is_some_and(|t| t != declared.dtype) {
                // An adopted result column may be typed otherwise than
                // declared only while every lane is NULL (the executor's
                // output validation admits that, as `validate_row` admits
                // NULL in any column).
                debug_assert!((0..col.len()).all(|i| col.is_null(i)));
                *col = ColumnVec::typed_nulls(col.len(), declared.dtype);
            }
            col.push(v).expect("row validated against the batch schema");
        }
        self.len += 1;
        Ok(())
    }

    /// Assemble a batch from pre-built columns. All columns must have the
    /// same length and there must be one per schema column.
    pub fn from_columns(
        schema: Schema,
        columns: Vec<ColumnVec>,
        len: usize,
    ) -> crate::Result<Batch> {
        if columns.len() != schema.len() {
            return Err(crate::McdbError::ArityMismatch {
                context: "Batch::from_columns".into(),
                expected: schema.len(),
                found: columns.len(),
            });
        }
        for c in &columns {
            if c.len() != len {
                return Err(crate::McdbError::ArityMismatch {
                    context: "Batch::from_columns".into(),
                    expected: len,
                    found: c.len(),
                });
            }
        }
        Ok(Batch {
            schema,
            columns,
            len,
        })
    }

    /// The columns, by value.
    pub(crate) fn into_columns(self) -> Vec<ColumnVec> {
        self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The batch schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    /// The row at index `i`, materialized.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Gather a new batch by row index. A selection vector that addresses
    /// rows past the batch end (an executor bug, or a caller-supplied one)
    /// is a typed
    /// [`McdbError::RowOutOfBounds`](crate::McdbError::RowOutOfBounds), not
    /// a panic deep inside a column kernel.
    pub fn gather(&self, sel: &[u32]) -> crate::Result<Batch> {
        if let Some(&i) = sel.iter().find(|&&i| i as usize >= self.len) {
            return Err(crate::McdbError::RowOutOfBounds {
                context: "Batch::gather".into(),
                index: i as u64,
                rows: self.len,
            });
        }
        Ok(Batch {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
            len: sel.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};
    use crate::table::Table;
    use crate::value::Value;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("score", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("sample", schema);
        t.push_row(vec![Value::from(1), Value::from("a"), Value::from(0.5)])
            .unwrap();
        t.push_row(vec![Value::from(2), Value::Null, Value::Null])
            .unwrap();
        t.push_row(vec![Value::from(3), Value::from("c"), Value::from(2.5)])
            .unwrap();
        t
    }

    #[test]
    fn rows_round_trip_through_columnar_form() {
        let t = sample();
        let b = t.batch();
        assert_eq!(b.len(), 3);
        let back: Vec<Row> = (0..b.len()).map(|i| b.row(i)).collect();
        assert_eq!(back, t.rows());
    }

    #[test]
    fn selection_vector_restricts_and_reorders() {
        let t = sample();
        let g = t.batch().gather(&[2, 0]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), t.rows()[2]);
        assert_eq!(g.row(1), t.rows()[0]);
    }

    #[test]
    fn out_of_range_selection_is_a_typed_error_not_a_panic() {
        let b = sample().batch();
        match b.gather(&[0, 3]) {
            // batch has rows 0..=2
            Err(crate::McdbError::RowOutOfBounds {
                context,
                index,
                rows,
            }) => {
                assert_eq!(context, "Batch::gather");
                assert_eq!((index, rows), (3, 3));
            }
            other => panic!("expected RowOutOfBounds, got {other:?}"),
        }
        match b.gather(&[u32::MAX]) {
            Err(crate::McdbError::RowOutOfBounds { index, rows, .. }) => {
                assert_eq!((index, rows), (u32::MAX as u64, 3));
            }
            other => panic!("expected RowOutOfBounds, got {other:?}"),
        }
        // The error is classified fatal: a malformed selection vector
        // fails identically on every attempt.
        use mde_numeric::{ErrorClass as _, Severity};
        let e = b.gather(&[9]).unwrap_err();
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("row index 9"));
    }
}
