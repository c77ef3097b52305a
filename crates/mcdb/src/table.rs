//! Tables: a name plus columns.
//!
//! A [`Table`] is the unit of exchange throughout the workspace, and it
//! has one in-memory representation: **a table is columns** — a columnar
//! [`Batch`], the same type the vectorized executor computes on, so a scan
//! of a memory table and the adoption of a query result as a table are
//! `Arc` clones. [`Table::rows`] is a cached row *view* of those columns,
//! built on first use and dropped by an append. A paged table is a file
//! (a read-only [`PagedStore`] read through a [`BufferPool`]) plus a
//! columnar tail of the rows appended since; the file is written as
//! `MDETAB02`, and version 1 `MDETAB01` files still open. The
//! property suites assert that columns built by appending and columns
//! decoded from pages give bit-identical query results.

use crate::query::batch::Batch;
use crate::query::column::ColumnVec;
use crate::schema::{DataType, Schema};
use crate::storage::{BufferPool, PagedStore};
use crate::value::Value;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// A row is an ordered vector of values matching a schema.
pub type Row = Vec<Value>;

#[cfg(test)]
thread_local! {
    static ROW_VIEWS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Where a table's columns live.
#[derive(Debug, Clone)]
enum TableStore {
    /// Every row in memory. Shared with whoever else holds the batch (the
    /// table a `SELECT *` result was adopted from, a catalog snapshot);
    /// an append copies on write.
    Cols { batch: Arc<Batch> },
    /// A read-only paged file plus the rows appended since it was written.
    Paged { store: Arc<PagedStore>, tail: Batch },
}

/// A table with a name, schema, and rows.
///
/// Tables are the unit of exchange throughout the workspace: ordinary
/// (deterministic) database tables, realizations of stochastic tables,
/// query results, snapshots of agent populations, and observation exports
/// from simulations are all `Table`s.
///
/// A table is columns; [`Table::rows`] is a cached view that an append
/// drops; a paged table is a file plus a columnar tail.
///
/// A memory table ([`Table::new`] / [`Table::build`], and every query
/// result) holds a typed [`Batch`]: [`Table::push_row`] appends to the
/// columns, [`Table::batch`] hands them out by `Arc`, and the cell readers
/// ([`Table::scalar`], [`Table::column`], equality) read them directly.
///
/// A paged table ([`Table::open_paged`] / [`Table::to_paged`]) keeps its
/// rows in an on-disk paged file — [`Table::to_paged`] writes `MDETAB02`,
/// [`Table::open_paged`] also reads `MDETAB01` — and decodes them through
/// a shared [`BufferPool`], so resident memory is bounded by the pool's frame
/// budget rather than the table size. A query's scan reads only the pages
/// of the columns its plan binds (`SELECT COUNT(*)` reads none) and pays
/// for them every time — decoded pages are never cached outside the pool;
/// [`Table::try_batch`], [`Table::rows`] and equality read the whole file.
/// Appending to a paged table appends to its in-memory tail, which a scan
/// splices onto the decoded columns.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    store: TableStore,
    /// The row view of the columns — the only place a `Vec<Row>` lives.
    /// Filled by the first [`Table::rows`], dropped by an append, ignored
    /// by equality.
    rows_cache: OnceLock<Vec<Row>>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.schema() != other.schema() || self.len() != other.len() {
            return false;
        }
        // Cell by cell, so an untyped all-null column equals a typed one
        // holding only NULLs, exactly as their row views would.
        let (a, b) = (self.batch(), other.batch());
        a.columns()
            .iter()
            .zip(b.columns())
            .all(|(x, y)| (0..a.len()).all(|i| x.value(i) == y.value(i)))
    }
}

impl Table {
    /// Create an empty memory table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table::from_batch(name, Arc::new(Batch::empty(schema)))
    }

    /// Start a builder from `(name, type)` column pairs.
    pub fn build(name: impl Into<String>, columns: &[(&str, DataType)]) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
            rows: Vec::new(),
        }
    }

    /// Open a paged table file written by [`Table::to_paged`] (or
    /// [`PagedStore::write`] directly), reading its frames through
    /// `pool`. The table name and schema come from the validated file
    /// header; corruption surfaces as the typed
    /// [`McdbError::PageCorrupt`](crate::McdbError::PageCorrupt) /
    /// [`PageChecksumMismatch`](crate::McdbError::PageChecksumMismatch)
    /// errors.
    pub fn open_paged(path: &Path, pool: Arc<BufferPool>) -> crate::Result<Table> {
        let store = PagedStore::open(path, pool)?;
        Ok(Table {
            name: store.name().to_string(),
            store: TableStore::Paged {
                tail: Batch::empty(store.schema().clone()),
                store,
            },
            rows_cache: OnceLock::new(),
        })
    }

    /// Persist this table as a paged columnar file at `path`
    /// (crash-consistently: temp file, fsync, atomic rename) and return
    /// a paged table reading it back through `pool`.
    pub fn to_paged(
        &self,
        path: &Path,
        page_size: usize,
        pool: Arc<BufferPool>,
    ) -> crate::Result<Table> {
        let batch = self.try_batch()?;
        PagedStore::write(path, &self.name, &batch, page_size)?;
        Table::open_paged(path, pool)
    }

    /// Adopt a batch as a memory table — how the vectorized executor
    /// returns its result, and O(1) whatever the size.
    pub(crate) fn from_batch(name: impl Into<String>, batch: Arc<Batch>) -> Table {
        Table {
            name: name.into(),
            store: TableStore::Cols { batch },
            rows_cache: OnceLock::new(),
        }
    }

    /// Whether this table is backed by a paged file.
    pub fn is_paged(&self) -> bool {
        matches!(self.store, TableStore::Paged { .. })
    }

    /// The paged store backing this table, if any — exposed so the
    /// executor can attribute logical page reads per scan and tests can
    /// inspect pool behavior.
    pub fn paged_store(&self) -> Option<&Arc<PagedStore>> {
        match &self.store {
            TableStore::Cols { .. } => None,
            TableStore::Paged { store, .. } => Some(store),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when registering query results).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        match &self.store {
            TableStore::Cols { batch } => batch.schema(),
            TableStore::Paged { tail, .. } => tail.schema(),
        }
    }

    /// The rows: a view transposed from the columns on first use and kept
    /// until the next append. Code that alternates [`Table::push_row`] and
    /// `rows()` on one table therefore rebuilds the view every time — read
    /// before writing, or read cells from [`Table::batch`].
    ///
    /// For a paged table the first call decodes the whole file —
    /// deliberately unbounded by the pool budget, and it panics on a
    /// corrupt file. The vectorized executor never calls it: its scans
    /// stay columnar, read only the columns a plan binds, and surface
    /// corruption as typed errors.
    pub fn rows(&self) -> &[Row] {
        self.rows_cache.get_or_init(|| {
            #[cfg(test)]
            ROW_VIEWS_BUILT.with(|n| n.set(n.get() + 1));
            let batch = self.batch();
            (0..batch.len()).map(|i| batch.row(i)).collect()
        })
    }

    /// Whether [`Table::rows`] has built its view — the structure tests
    /// assert that query results and the replicate loop never do.
    #[cfg(test)]
    pub(crate) fn rows_materialized(&self) -> bool {
        self.rows_cache.get().is_some()
    }

    /// How many row views [`Table::rows`] has built on this thread, over
    /// all tables — so a structure test can cover the temporaries (a driver
    /// query's result, say) it has no handle on.
    #[cfg(test)]
    pub(crate) fn row_views_built() -> u64 {
        ROW_VIEWS_BUILT.with(|n| n.get())
    }

    /// Number of rows. Never reads a page of a paged table.
    pub fn len(&self) -> usize {
        match &self.store {
            TableStore::Cols { batch } => batch.len(),
            TableStore::Paged { store, tail } => store.n_rows() + tail.len(),
        }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table's columns.
    ///
    /// Memory table: an `Arc` clone. Paged: the whole file decoded on
    /// every call (decoded pages are cached only in the pool); panics on a
    /// corrupt file — [`Table::try_batch`] is the fallible form.
    pub fn batch(&self) -> Arc<Batch> {
        self.try_batch().expect("paged table batch decode failed")
    }

    /// The table's columns, with paged-file corruption surfaced as a typed
    /// error instead of a panic. Every column is read — for a paged table,
    /// every page is fetched, verified and decoded.
    pub fn try_batch(&self) -> crate::Result<Arc<Batch>> {
        match &self.store {
            TableStore::Cols { batch } => Ok(Arc::clone(batch)),
            TableStore::Paged { .. } => self.scan_batch(&vec![true; self.schema().len()]),
        }
    }

    /// What the vectorized executor's scan operator calls: the batch with
    /// (at least) the columns marked in `read` — one flag per schema
    /// column, computed at prepare time from what the plan binds.
    ///
    /// A memory table ignores `read` and clones its `Arc`. A paged table
    /// reads only the pages of marked columns ([`PagedStore::read_columns`])
    /// and splices its tail onto those columns only; an unmarked column is
    /// an untyped all-null placeholder that no operator may take a lane
    /// from. So a paged scan costs what it reads, and fails on a corrupt
    /// page iff it reads that page.
    pub(crate) fn scan_batch(&self, read: &[bool]) -> crate::Result<Arc<Batch>> {
        match &self.store {
            TableStore::Cols { batch } => Ok(Arc::clone(batch)),
            TableStore::Paged { store, tail } => {
                let base = store.read_columns(read)?;
                if tail.is_empty() {
                    return Ok(Arc::new(base));
                }
                let len = base.len() + tail.len();
                let columns: Vec<ColumnVec> = read
                    .iter()
                    .enumerate()
                    .map(|(i, &marked)| {
                        if marked {
                            base.column(i).concat(tail.column(i))
                        } else {
                            ColumnVec::AllNull { len }
                        }
                    })
                    .collect();
                Ok(Arc::new(Batch::from_columns(
                    tail.schema().clone(),
                    columns,
                    len,
                )?))
            }
        }
    }

    /// Validate a row and append it to the columns (copying them first if
    /// they are shared), dropping the row view. On a paged table the row
    /// lands in the in-memory tail; the on-disk base is immutable.
    pub fn push_row(&mut self, row: Row) -> crate::Result<()> {
        match &mut self.store {
            TableStore::Cols { batch } => Arc::make_mut(batch).push_row(row)?,
            TableStore::Paged { tail, .. } => tail.push_row(row)?,
        }
        self.rows_cache.take();
        Ok(())
    }

    /// The single scalar value of a 1×1 table, or an error.
    pub fn scalar(&self) -> crate::Result<Value> {
        if self.len() == 1 && self.schema().len() == 1 {
            Ok(self.batch().column(0).value(0))
        } else {
            Err(crate::McdbError::NonScalarResult {
                rows: self.len(),
                cols: self.schema().len(),
            })
        }
    }

    /// Extract one column as a vector of values.
    pub fn column(&self, name: &str) -> crate::Result<Vec<Value>> {
        let i = self.schema().index_of(name)?;
        let batch = self.batch();
        let col = batch.column(i);
        Ok((0..col.len()).map(|r| col.value(r)).collect())
    }

    /// Extract one numeric column as `f64`s (Nulls are skipped).
    pub fn column_f64(&self, name: &str) -> crate::Result<Vec<f64>> {
        let i = self.schema().index_of(name)?;
        let batch = self.batch();
        let col = batch.column(i);
        (0..col.len())
            .filter(|&r| !col.is_null(r))
            .map(|r| col.value(r).as_f64())
            .collect()
    }

    /// Render as an aligned text table (for the figure-regeneration
    /// binaries and debugging).
    pub fn render_ascii(&self) -> String {
        let names = self.schema().names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = names
            .iter()
            .zip(&widths)
            .map(|(n, w)| format!("{n:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} rows)", self.name, self.len())?;
        write!(f, "{}", self.render_ascii())
    }
}

/// Incremental table builder; validation happens at `finish`.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    columns: Vec<(String, DataType)>,
    rows: Vec<Row>,
}

impl TableBuilder {
    /// Append a row (validated at [`TableBuilder::finish`]).
    pub fn row(mut self, row: Row) -> Self {
        self.rows.push(row);
        self
    }

    /// Append many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Row>) -> Self {
        self.rows.extend(rows);
        self
    }

    /// Validate all rows and produce the table.
    pub fn finish(self) -> crate::Result<Table> {
        let pairs: Vec<(&str, DataType)> =
            self.columns.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut batch = Batch::empty(Schema::from_pairs(&pairs)?);
        for row in self.rows {
            batch.push_row(row)?;
        }
        Ok(Table::from_batch(self.name, Arc::new(batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::build("t", &[("id", DataType::Int), ("x", DataType::Float)])
            .row(vec![Value::from(1), Value::from(1.5)])
            .row(vec![Value::from(2), Value::from(2.5)])
            .finish()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        let bad = Table::build("t", &[("id", DataType::Int)])
            .row(vec![Value::from("oops")])
            .finish();
        assert!(bad.is_err());
    }

    #[test]
    fn push_and_access() {
        let mut t = sample();
        assert_eq!(t.len(), 2);
        t.push_row(vec![Value::from(3), Value::Null]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.column("id").unwrap().len(), 3);
        // column_f64 skips Nulls.
        assert_eq!(t.column_f64("x").unwrap(), vec![1.5, 2.5]);
        assert!(t.column("nope").is_err());
    }

    #[test]
    fn scalar_extraction() {
        let t = Table::build("s", &[("v", DataType::Float)])
            .row(vec![Value::from(9.0)])
            .finish()
            .unwrap();
        assert_eq!(t.scalar().unwrap(), Value::from(9.0));
        assert!(sample().scalar().is_err());
    }

    #[test]
    fn render_contains_headers_and_values() {
        let s = sample().render_ascii();
        assert!(s.contains("id"));
        assert!(s.contains("2.5"));
        assert_eq!(s.lines().count(), 4); // header + separator + 2 rows
    }

    #[test]
    fn rename() {
        let t = sample().with_name("renamed");
        assert_eq!(t.name(), "renamed");
    }

    #[test]
    fn batch_is_shared_until_an_append_copies_it() {
        let mut t = sample();
        let b1 = t.batch();
        assert!(Arc::ptr_eq(&b1, &t.batch()));
        assert_eq!(b1.len(), 2);
        // `b1` is still held, so the append copies the columns first.
        t.push_row(vec![Value::from(3), Value::Null]).unwrap();
        let b2 = t.batch();
        assert!(!Arc::ptr_eq(&b1, &b2));
        assert_eq!((b1.len(), b2.len()), (2, 3));
        // The row view is invisible to equality.
        let viewed = sample();
        let _ = viewed.rows();
        assert!(viewed.rows_materialized() && !sample().rows_materialized());
        assert_eq!(sample(), viewed);
    }

    #[test]
    fn rows_view_is_rebuilt_after_an_append() {
        let mut t = sample();
        assert_eq!(t.rows().len(), 2);
        t.push_row(vec![Value::from(3), Value::Null]).unwrap();
        assert!(!t.rows_materialized());
        assert_eq!(t.rows()[2], vec![Value::from(3), Value::Null]);
        // A rejected row leaves columns and view as they were.
        assert!(t.push_row(vec![Value::from(4)]).is_err());
        assert!(t
            .push_row(vec![Value::from(4), Value::from(f64::NAN)])
            .is_err());
        assert!(t.rows_materialized());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn equality_reads_cells_not_column_representation() {
        // An all-NULL column is typed when appended to and untyped when an
        // expression produced it; both are the same table.
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("x", DataType::Float)]).unwrap();
        let mut appended = Table::new("t", schema.clone());
        appended
            .push_row(vec![Value::from(1), Value::Null])
            .unwrap();
        let adopted = Table::from_batch(
            "t",
            Arc::new(
                Batch::from_columns(
                    schema,
                    vec![
                        ColumnVec::from_values(vec![Value::from(1)]).unwrap(),
                        ColumnVec::AllNull { len: 1 },
                    ],
                    1,
                )
                .unwrap(),
            ),
        );
        assert_ne!(*appended.batch(), *adopted.batch());
        assert_eq!(appended, adopted);
        assert_eq!(appended.rows(), adopted.rows());
        // Appending to the untyped column promotes it in place.
        let mut adopted = adopted;
        adopted.push_row(vec![Value::from(2), Value::Null]).unwrap();
        adopted
            .push_row(vec![Value::from(3), Value::from(0.5)])
            .unwrap();
        assert_eq!(
            adopted.column("x").unwrap(),
            vec![Value::Null, Value::Null, Value::from(0.5)]
        );
        assert_ne!(appended, adopted);
        // So does a column the executor typed otherwise while it held only
        // NULLs (its output validation admits that).
        let mut mistyped = Table::from_batch(
            "t",
            Arc::new(
                Batch::from_columns(
                    appended.schema().clone(),
                    vec![
                        ColumnVec::from_values(vec![Value::from(1)]).unwrap(),
                        ColumnVec::typed_nulls(1, DataType::Str),
                    ],
                    1,
                )
                .unwrap(),
            ),
        );
        assert_eq!(mistyped, appended);
        mistyped
            .push_row(vec![Value::from(3), Value::from(0.5)])
            .unwrap();
        assert_eq!(mistyped.column_f64("x").unwrap(), vec![0.5]);
    }

    fn star_catalog() -> crate::query::Catalog {
        let mut c = crate::query::Catalog::new();
        c.insert(
            Table::build(
                "FACT",
                &[
                    ("K", DataType::Int),
                    ("V", DataType::Float),
                    ("S", DataType::Str),
                ],
            )
            .rows((0..200).map(|i| {
                vec![
                    Value::from(i % 5),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::from(i as f64 * 0.5)
                    },
                    Value::from(["x", "y", "z"][i as usize % 3]),
                ]
            }))
            .finish()
            .unwrap(),
        );
        c.insert(
            Table::build("DIM", &[("K", DataType::Int), ("W", DataType::Float)])
                .rows((0..5).map(|k| vec![Value::from(k), Value::from(k as f64)]))
                .finish()
                .unwrap(),
        );
        c
    }

    #[test]
    fn query_results_are_columns_and_never_build_a_row_view() {
        // The row oracle reads its inputs through `rows()`; give it its own
        // catalog so the engine's stays unviewed.
        let (c, oracle) = (star_catalog(), star_catalog());
        for sql in [
            "SELECT * FROM FACT",
            "SELECT * FROM FACT WHERE V > 30.0",
            "SELECT K, V * 2.0 AS D FROM FACT WHERE S = 'x'",
            "SELECT S, W FROM FACT JOIN DIM ON K = K WHERE W > 1.0",
            "SELECT K, COUNT(*) AS N, SUM(V) AS T FROM FACT GROUP BY K",
            "SELECT * FROM FACT ORDER BY V DESC LIMIT 7",
            "SELECT COUNT(*) AS N FROM FACT",
        ] {
            let plan = crate::sql::plan_from_sql(sql).unwrap();
            let out = c.query(&plan).unwrap();
            let cells: usize = out.batch().columns().iter().map(|col| col.len()).sum();
            assert_eq!(cells, out.len() * out.schema().len(), "{sql}");
            if out.len() == 1 && out.schema().len() == 1 {
                assert_eq!(out.scalar().unwrap(), Value::from(200));
            }
            assert!(!out.rows_materialized(), "{sql}");
            // The row oracle agrees, and only now does a view exist.
            let want = crate::query::reference::execute(&plan, &oracle).unwrap();
            assert_eq!(out.rows(), want.rows(), "{sql}");
            assert!(out.rows_materialized());
        }
        for name in ["FACT", "DIM"] {
            assert!(!c.get(name).unwrap().rows_materialized());
        }
    }

    #[test]
    fn appending_to_an_adopted_scan_result_leaves_the_scanned_table_unchanged() {
        let c = star_catalog();
        let fact = c.get("FACT").unwrap();
        let mut out = c.query(&crate::query::Plan::scan("FACT")).unwrap();
        assert!(Arc::ptr_eq(&out.batch(), &fact.batch()), "a scan shares");
        let extra = vec![Value::from(9), Value::from(9.5), Value::from("w")];
        out.push_row(extra.clone()).unwrap();
        assert!(
            !Arc::ptr_eq(&out.batch(), &fact.batch()),
            "an append copies"
        );
        assert_eq!((fact.len(), out.len()), (200, 201));
        assert_eq!(out.rows()[200], extra);
        assert_eq!(out.rows()[..200], *fact.rows());
        assert_eq!(*fact, star_catalog().get("FACT").unwrap().clone());
    }

    #[test]
    fn alternating_append_and_query_equals_the_table_rebuilt_from_scratch() {
        let dir = std::env::temp_dir().join(format!("mde_table_alt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = star_catalog();
        let plans: Vec<crate::query::Plan> = [
            // Unprojected (every column read) and projected (one column,
            // and none at all) plans.
            "SELECT * FROM FACT WHERE K >= 0",
            "SELECT SUM(V) AS T FROM FACT",
            "SELECT COUNT(*) AS N FROM FACT",
            "SELECT S, COUNT(*) AS N FROM FACT GROUP BY S",
        ]
        .iter()
        .map(|sql| crate::sql::plan_from_sql(sql).unwrap())
        .collect();
        let mut mem = base.get("FACT").unwrap().clone();
        let mut paged = mem
            .to_paged(&dir.join("fact.mdet"), 512, BufferPool::new(8))
            .unwrap();
        let mut all_rows = mem.rows().to_vec();
        for step in 0..70i64 {
            // NULLs land on both sides of the tail's first mask word.
            let row = vec![
                Value::from(step % 5),
                if step % 3 == 0 {
                    Value::Null
                } else {
                    Value::from(step as f64)
                },
                if step % 11 == 0 {
                    Value::Null
                } else {
                    Value::from("t")
                },
            ];
            all_rows.push(row.clone());
            mem.push_row(row.clone()).unwrap();
            paged.push_row(row).unwrap();
            let rebuilt = Table::build(
                "FACT",
                &[
                    ("K", DataType::Int),
                    ("V", DataType::Float),
                    ("S", DataType::Str),
                ],
            )
            .rows(all_rows.iter().cloned())
            .finish()
            .unwrap();
            assert_eq!(*mem.batch(), *rebuilt.batch(), "step {step}");
            assert_eq!(*paged.batch(), *rebuilt.batch(), "step {step}");
            for plan in &plans {
                let mut want = crate::query::Catalog::new();
                want.insert(rebuilt.clone());
                let want = want.query(plan).unwrap();
                for t in [&mem, &paged] {
                    let mut c = crate::query::Catalog::new();
                    c.insert(t.clone());
                    assert_eq!(c.query(plan).unwrap(), want, "step {step}");
                }
            }
        }
        assert!(!mem.rows_materialized() && !paged.rows_materialized());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_round_trip_equals_memory_twin() {
        let dir = std::env::temp_dir().join(format!("mde_table_paged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdet");
        let mem = sample();
        let paged = mem.to_paged(&path, 256, BufferPool::new(2)).unwrap();
        assert!(paged.is_paged() && !mem.is_paged());
        assert_eq!(paged.name(), mem.name());
        assert_eq!(paged.schema(), mem.schema());
        assert_eq!(paged.len(), mem.len());
        // Batches decode bit-identically; equality compares cells.
        assert_eq!(*paged.try_batch().unwrap(), *mem.batch());
        assert_eq!(paged, mem);
        // Decoded columns are never kept: every scan pays its page reads.
        let before = paged.paged_store().unwrap().logical_reads();
        let _ = paged.try_batch().unwrap();
        assert!(paged.paged_store().unwrap().logical_reads() > before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_append_tail_splices_onto_base() {
        let dir = std::env::temp_dir().join(format!("mde_table_tail_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdet");
        let mut mem = sample();
        let mut paged = mem.to_paged(&path, 256, BufferPool::new(2)).unwrap();
        for t in [&mut mem, &mut paged] {
            t.push_row(vec![Value::from(3), Value::Null]).unwrap();
            t.push_row(vec![Value::from(4), Value::from(4.5)]).unwrap();
        }
        assert_eq!(paged.len(), 4);
        assert_eq!(*paged.try_batch().unwrap(), *mem.batch());
        assert_eq!(paged, mem);
        assert_eq!(paged.column("id").unwrap(), mem.column("id").unwrap());
        // Tail rows are validated against the schema like any others.
        assert!(paged
            .push_row(vec![Value::from("bad"), Value::Null])
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_corruption_is_typed_through_try_batch() {
        let dir = std::env::temp_dir().join(format!("mde_table_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdet");
        let mem = sample();
        let paged = mem.to_paged(&path, 256, BufferPool::new(2)).unwrap();
        // Flip a bit in the first page body, past the header.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 100] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = paged.try_batch().unwrap_err();
        assert!(
            matches!(
                err,
                crate::McdbError::PageChecksumMismatch { .. }
                    | crate::McdbError::PageCorrupt { .. }
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
