//! Tables: a schema plus rows, backed either by memory or by a paged
//! columnar file.
//!
//! A [`Table`] is the unit of exchange throughout the workspace. Since
//! the out-of-core storage layer landed it has two backends behind one
//! API: the original all-in-RAM row store, and a read-only
//! [`PagedStore`] (an `MDETAB01` file read through a [`BufferPool`])
//! plus a small in-memory append tail. The row backend doubles as the
//! differential oracle for the paged one — the property suites assert
//! both return bit-identical query results.

use crate::query::batch::Batch;
use crate::query::column::ColumnVec;
use crate::schema::{DataType, Schema};
use crate::storage::{BufferPool, PagedStore};
use crate::value::Value;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A row is an ordered vector of values matching a schema.
pub type Row = Vec<Value>;

/// Where a table's rows live.
#[derive(Debug, Clone)]
enum TableStore {
    /// All rows in memory (the original backend, and the oracle).
    Mem(Vec<Row>),
    /// A read-only paged file plus an in-memory append tail. `rows_cache`
    /// lazily materializes the full row vector for the row-oriented
    /// oracle paths ([`Table::rows`], equality); the vectorized executor
    /// never touches it.
    Paged {
        store: Arc<PagedStore>,
        tail: Vec<Row>,
        rows_cache: OnceLock<Vec<Row>>,
    },
    /// A columnar batch adopted wholesale from the vectorized executor
    /// (a plain-scan result with no selection vector). Row-oriented
    /// access lazily transposes into `rows_cache`; [`Table::try_batch`]
    /// is free, so repeated queries over a query result never re-transpose.
    Batch {
        batch: Arc<Batch>,
        rows_cache: OnceLock<Vec<Row>>,
    },
}

/// A table with a name, schema, and rows.
///
/// Tables are the unit of exchange throughout the workspace: ordinary
/// (deterministic) database tables, realizations of stochastic tables,
/// query results, snapshots of agent populations, and observation exports
/// from simulations are all `Table`s.
///
/// # Backends
///
/// A memory-backed table (everything constructed via [`Table::new`] /
/// [`Table::build`]) lazily caches a columnar [`Batch`] view of itself
/// (see [`Table::batch`]); the vectorized executor scans through that
/// cache so repeated queries over the same table transpose it exactly
/// once. The cache is invalidated whenever a row is appended and is
/// ignored by equality comparison.
///
/// A paged table ([`Table::open_paged`] / [`Table::to_paged`]) keeps its
/// rows in an on-disk `MDETAB01` file and decodes them through a shared
/// [`BufferPool`], so resident memory is bounded by the pool's frame
/// budget rather than the table size. A query's scan reads only the pages
/// of the columns its plan binds (`SELECT COUNT(*)` reads none);
/// [`Table::try_batch`], [`Table::rows`] and equality read the whole
/// file. Paged batches are deliberately *not* cached —
/// [`Table::batch_is_cached`] is always `false` — which keeps the
/// `cache_hit` field on scan spans truthful: a paged scan pays for the
/// pages it reads, every time. Appending to a paged table pushes onto an
/// in-memory tail that is spliced onto the decoded columns at scan time.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    store: TableStore,
    /// Lazily transposed columnar view (Mem backend only).
    ///
    /// `OnceLock::get_or_init` guarantees the init closure runs exactly
    /// once even under concurrent morsel-parallel scans — racing readers
    /// block and then share the winner's `Arc` — so there is no
    /// double-materialize race to guard against (regression-tested in
    /// `concurrent_scans_materialize_exactly_once`).
    batch_cache: OnceLock<Arc<Batch>>,
    /// How many times `batch_cache` actually ran its transpose. Shared
    /// across clones (clones share the observation, not the cache) so
    /// tests can assert the exactly-once property.
    materializations: Arc<AtomicU64>,
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.schema == other.schema && self.rows() == other.rows()
    }
}

impl Table {
    /// Create an empty memory-backed table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            store: TableStore::Mem(Vec::new()),
            batch_cache: OnceLock::new(),
            materializations: Arc::new(AtomicU64::new(0)),
        }
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
            schema: store.schema().clone(),
            store: TableStore::Paged {
                store,
                tail: Vec::new(),
                rows_cache: OnceLock::new(),
            },
            batch_cache: OnceLock::new(),
            materializations: Arc::new(AtomicU64::new(0)),
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

    /// Wrap an executor batch as a table without transposing it back to
    /// rows. This is how the vectorized executor returns a plain scan:
    /// the result shares the scanned table's cached batch, so a full-table
    /// scan is O(1) instead of an O(rows × cols) rebuild.
    pub(crate) fn from_batch(name: impl Into<String>, batch: Arc<Batch>) -> Table {
        Table {
            name: name.into(),
            schema: batch.schema().clone(),
            store: TableStore::Batch {
                batch,
                rows_cache: OnceLock::new(),
            },
            batch_cache: OnceLock::new(),
            materializations: Arc::new(AtomicU64::new(0)),
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
            TableStore::Mem(_) | TableStore::Batch { .. } => None,
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
        &self.schema
    }

    /// The rows.
    ///
    /// For a paged table this is the oracle path: the first call decodes
    /// the whole file and materializes (and caches) a row vector —
    /// deliberately unbounded by the pool budget, and it panics on a
    /// corrupt file. The vectorized executor never calls it: its scans
    /// stay columnar, read only the columns a plan binds, and surface
    /// corruption as typed errors.
    pub fn rows(&self) -> &[Row] {
        match &self.store {
            TableStore::Mem(rows) => rows,
            TableStore::Paged {
                store,
                tail,
                rows_cache,
            } => rows_cache.get_or_init(|| {
                let batch = store
                    .read_batch()
                    .expect("paged table row materialization failed");
                let mut rows: Vec<Row> = (0..batch.len()).map(|i| batch.row(i)).collect();
                rows.extend(tail.iter().cloned());
                rows
            }),
            TableStore::Batch { batch, rows_cache } => {
                rows_cache.get_or_init(|| (0..batch.len()).map(|i| batch.row(i)).collect())
            }
        }
    }

    /// Number of rows. Never materializes a paged table.
    pub fn len(&self) -> usize {
        match &self.store {
            TableStore::Mem(rows) => rows.len(),
            TableStore::Paged { store, tail, .. } => store.n_rows() + tail.len(),
            TableStore::Batch { batch, .. } => batch.len(),
        }
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the table, yielding its rows (engine-internal; lets
    /// operators that own their input avoid per-row clones). Paged tables
    /// materialize first.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        let _ = self.rows();
        match self.store {
            TableStore::Mem(rows) => rows,
            TableStore::Paged { rows_cache, .. } | TableStore::Batch { rows_cache, .. } => {
                rows_cache.into_inner().expect("rows materialized above")
            }
        }
    }

    /// The columnar [`Batch`] view of this table.
    ///
    /// Memory-backed: transposed on first use and cached; appending rows
    /// invalidates the cache. Paged: the whole file decoded on every call
    /// (never cached — see [`Table::batch_is_cached`]); panics on a
    /// corrupt file — [`Table::try_batch`] is the fallible form.
    pub fn batch(&self) -> Arc<Batch> {
        self.try_batch().expect("paged table batch decode failed")
    }

    /// The columnar [`Batch`] view, with paged-file corruption surfaced
    /// as a typed error instead of a panic. Every column is read — for a
    /// paged table, every page is fetched, verified and decoded.
    pub fn try_batch(&self) -> crate::Result<Arc<Batch>> {
        self.scan_batch(&vec![true; self.schema.len()], 1)
    }

    /// What the vectorized executor's scan operator calls: the batch with
    /// (at least) the columns marked in `read` — one flag per schema
    /// column, computed at prepare time from what the plan binds.
    ///
    /// Memory-backed tables ignore both arguments: the cached transpose
    /// holds every column and is already exactly-once under concurrency
    /// (see the `batch_cache` field docs). A paged table reads only the
    /// pages of marked columns ([`PagedStore::read_columns`], decode
    /// fanned out over `threads` workers, bit-identical at any count) and
    /// splices its in-memory tail onto those columns only; an unmarked
    /// column is an untyped all-null placeholder that no operator may take
    /// a lane from. So a paged scan costs what it reads, and fails on a
    /// corrupt page iff it reads that page.
    pub(crate) fn scan_batch(&self, read: &[bool], threads: usize) -> crate::Result<Arc<Batch>> {
        match &self.store {
            TableStore::Mem(_) => Ok(Arc::clone(self.batch_cache.get_or_init(|| {
                self.materializations.fetch_add(1, Ordering::Relaxed);
                Arc::new(Batch::from_table(self))
            }))),
            TableStore::Batch { batch, .. } => Ok(Arc::clone(batch)),
            TableStore::Paged { store, tail, .. } => {
                let base = store.read_columns(read, threads)?;
                if tail.is_empty() {
                    return Ok(Arc::new(base));
                }
                let len = base.len() + tail.len();
                let columns: Vec<ColumnVec> = self
                    .schema
                    .columns()
                    .iter()
                    .enumerate()
                    .map(|(i, col)| {
                        if read[i] {
                            base.column(i)
                                .concat(&ColumnVec::from_rows(tail, i, col.dtype))
                        } else {
                            ColumnVec::AllNull { len }
                        }
                    })
                    .collect();
                Ok(Arc::new(Batch::from_columns(
                    self.schema.clone(),
                    columns,
                    len,
                )?))
            }
        }
    }

    /// Whether the columnar batch is already transposed and cached — i.e.
    /// whether the next [`Table::batch`] call is a cache hit. Exposed so
    /// the traced executor can report batch-cache reuse per scan. Always
    /// `false` for paged tables: every paged scan decodes the pages it
    /// reads through the buffer pool, so reporting a cache hit would be a
    /// lie.
    pub fn batch_is_cached(&self) -> bool {
        match &self.store {
            TableStore::Mem(_) => self.batch_cache.get().is_some(),
            TableStore::Paged { .. } => false,
            // An adopted batch IS the columnar view — always a hit.
            TableStore::Batch { .. } => true,
        }
    }

    /// How many times the columnar batch cache actually transposed rows.
    /// Under concurrent scans of one (shared) table this must end up at
    /// exactly 1 — the exactly-once guarantee of the `OnceLock` cache.
    pub fn batch_materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Append a validated row. On a paged table the row lands in the
    /// in-memory tail; the on-disk base is immutable.
    pub fn push_row(&mut self, row: Row) -> crate::Result<()> {
        self.schema.validate_row(&row)?;
        self.push_row_unchecked(row);
        Ok(())
    }

    /// Append a row without validation.
    ///
    /// For engine-internal paths where the row provably conforms (e.g.
    /// projections of validated rows). Not `unsafe` in the memory sense,
    /// but misuse produces confusing downstream type errors.
    pub(crate) fn push_row_unchecked(&mut self, row: Row) {
        debug_assert!(self.schema.validate_row(&row).is_ok());
        self.batch_cache.take();
        if matches!(self.store, TableStore::Batch { .. }) {
            // Appending demotes an adopted batch to the plain row backend:
            // the batch is immutable, so materialize rows once and switch.
            let prev = std::mem::replace(&mut self.store, TableStore::Mem(Vec::new()));
            if let TableStore::Batch { batch, rows_cache } = prev {
                let rows = rows_cache
                    .into_inner()
                    .unwrap_or_else(|| (0..batch.len()).map(|i| batch.row(i)).collect());
                self.store = TableStore::Mem(rows);
            }
        }
        match &mut self.store {
            TableStore::Mem(rows) => rows.push(row),
            TableStore::Paged {
                tail, rows_cache, ..
            } => {
                rows_cache.take();
                tail.push(row);
            }
            TableStore::Batch { .. } => unreachable!("demoted to Mem above"),
        }
    }

    /// The single scalar value of a 1×1 table, or an error.
    pub fn scalar(&self) -> crate::Result<Value> {
        if self.len() == 1 && self.schema.len() == 1 {
            Ok(self.rows()[0][0].clone())
        } else {
            Err(crate::McdbError::NonScalarResult {
                rows: self.len(),
                cols: self.schema.len(),
            })
        }
    }

    /// Extract one column as a vector of values.
    pub fn column(&self, name: &str) -> crate::Result<Vec<Value>> {
        let i = self.schema.index_of(name)?;
        Ok(self.rows().iter().map(|r| r[i].clone()).collect())
    }

    /// Extract one numeric column as `f64`s (Nulls are skipped).
    pub fn column_f64(&self, name: &str) -> crate::Result<Vec<f64>> {
        let i = self.schema.index_of(name)?;
        self.rows()
            .iter()
            .filter(|r| !r[i].is_null())
            .map(|r| r[i].as_f64())
            .collect()
    }

    /// Render as an aligned text table (for the figure-regeneration
    /// binaries and debugging).
    pub fn render_ascii(&self) -> String {
        let names = self.schema.names();
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
        let schema = Schema::from_pairs(&pairs)?;
        let mut t = Table::new(self.name, schema);
        for row in self.rows {
            t.push_row(row)?;
        }
        Ok(t)
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
    fn batch_cache_reuses_until_mutated() {
        let mut t = sample();
        let b1 = t.batch();
        assert!(Arc::ptr_eq(&b1, &t.batch()));
        assert_eq!(b1.len(), 2);
        t.push_row(vec![Value::from(3), Value::Null]).unwrap();
        let b2 = t.batch();
        assert!(!Arc::ptr_eq(&b1, &b2));
        assert_eq!(b2.len(), 3);
        // The cache is invisible to equality.
        let fresh = sample().with_name("t");
        let warmed = {
            let t = sample();
            let _ = t.batch();
            t
        };
        assert_eq!(fresh, warmed);
    }

    #[test]
    fn concurrent_scans_materialize_exactly_once() {
        // The double-materialize audit (ISSUE 9): many threads hitting a
        // cold batch cache must transpose once and share one Arc.
        let t = Table::build("big", &[("id", DataType::Int)])
            .rows((0..5000).map(|i| vec![Value::from(i)]))
            .finish()
            .unwrap();
        assert_eq!(t.batch_materializations(), 0);
        let batches = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|_| t.try_batch().unwrap()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
        .unwrap();
        assert_eq!(t.batch_materializations(), 1, "transpose ran once");
        for b in &batches[1..] {
            assert!(Arc::ptr_eq(&batches[0], b), "all scans share one batch");
        }
        // Mutation invalidates; the next scan re-materializes (counter 2).
        let mut t = t;
        t.push_row(vec![Value::from(9999)]).unwrap();
        let _ = t.try_batch().unwrap();
        assert_eq!(t.batch_materializations(), 2);
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
        // Batches decode bit-identically; equality compares materialized rows.
        assert_eq!(*paged.try_batch().unwrap(), *mem.batch());
        assert_eq!(paged, mem);
        // Paged batches are never cached: every scan pays its page reads.
        assert!(!paged.batch_is_cached());
        let _ = paged.try_batch().unwrap();
        assert!(!paged.batch_is_cached());
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
