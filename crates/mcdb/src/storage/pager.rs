//! The paged table file: fixed-size frames, a checksummed header, and
//! crash-consistent writes.
//!
//! ## File layout (`MDETAB02`)
//!
//! ```text
//! [ 0..8 ]   file magic "MDETAB02"
//! [ 8..16]   pages_start: u64 — byte offset of page 0 (= header length)
//! [16..24]   checksum of the header body
//! [24..  ]   header body: table name, n_rows, page_size, schema,
//!            page directory (one (column, n_values) entry per page)
//! [pages_start .. ]  page frames, each exactly `page_size` bytes
//! ```
//!
//! ## Page frame (`MDEPAGE2`)
//!
//! ```text
//! [ 0..8 ]   page magic "MDEPAGE2"
//! [ 8..16]   checksum of frame[16..page_size]
//! [16..20]   column index: u32
//! [20..24]   n_values: u32
//! [24..28]   body length: u32
//! [28..  ]   encoded body (see `encoding`), zero-padded to `page_size`
//! ```
//!
//! ## Versions
//!
//! `PagedStore::write` writes version 2 only: `MDETAB02` files of
//! `MDEPAGE2` frames, header and frames sealed with the word-parallel
//! [`checksum64`]. Version 1 (`MDETAB01` / `MDEPAGE1`) has the same layout
//! sealed with byte-serial FNV-1a; `PagedStore::open` still reads it, and
//! no option writes it. The file magic fixes the
//! version of the whole file: the checksum of its header and of every
//! frame, and the magic every frame must carry, so a frame of the other
//! version is a typed error, never a decode.
//!
//! Every page holds one chunk of one column; a column spans as many
//! pages as needed, in row order, and the writer sizes each chunk by its
//! *encoded* size so a page holds as many values as fit its body budget
//! (`page_size - 28`). The directory says which column each page belongs
//! to and how many values it holds, so a reader fetches only the pages of
//! the columns it wants and knows each page's row offset before touching
//! it (`PagedStore::read_columns`). The checksum covers everything after
//! itself including the padding, so a bit flip anywhere in a frame —
//! payload or padding — surfaces as
//! [`McdbError::PageChecksumMismatch`], and a torn/truncated frame as
//! [`McdbError::PageCorrupt`]. Whole files are written with the same
//! temp-file + fsync + atomic-rename discipline as `MDECKPT` campaign
//! checkpoints ([`mde_numeric::write_atomic`]), so a crash mid-write
//! leaves the previous file intact.

use super::encoding::{decode_page, encode_page_body, page_corrupt, ColumnAssembler, LanesMut};
use super::pool::BufferPool;
use crate::query::batch::Batch;
use crate::query::column::ColumnVec;
use crate::schema::{Column, DataType, Schema};
use crate::McdbError;
use mde_numeric::codec::{
    checksum64, fnv1a, put_str, put_u32, put_u64, Cursor, LenPrefix, FNV_OFFSET,
};
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic prefix of a paged table file, as `PagedStore::write` writes it.
pub const TABLE_MAGIC: [u8; 8] = *b"MDETAB02";
/// Magic prefix of every page frame of a [`TABLE_MAGIC`] file.
pub const PAGE_MAGIC: [u8; 8] = *b"MDEPAGE2";
/// Version 1 magics: read, never written.
const TABLE_MAGIC_V1: [u8; 8] = *b"MDETAB01";
const PAGE_MAGIC_V1: [u8; 8] = *b"MDEPAGE1";
/// Default page frame size: 16 KiB.
pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;
/// Bytes of frame header before the encoded body.
const PAGE_HEADER: usize = 28;
/// Smallest sane frame (header plus a little room for a body).
const MIN_PAGE_SIZE: usize = 64;

/// Unique id per opened store, namespacing its frames in the shared
/// buffer pool.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// The on-disk version of an opened file, fixed by its file magic: the
/// checksum that seals its header and frames, and the magic its frames
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    /// `MDETAB01` / `MDEPAGE1`, sealed with FNV-1a.
    V1,
    /// `MDETAB02` / `MDEPAGE2`, sealed with `checksum64`.
    V2,
}

impl Version {
    fn of_table_magic(magic: &[u8]) -> Option<Version> {
        if magic == TABLE_MAGIC {
            Some(Version::V2)
        } else if magic == TABLE_MAGIC_V1 {
            Some(Version::V1)
        } else {
            None
        }
    }

    fn page_magic(self) -> [u8; 8] {
        match self {
            Version::V1 => PAGE_MAGIC_V1,
            Version::V2 => PAGE_MAGIC,
        }
    }

    fn checksum(self, bytes: &[u8]) -> u64 {
        match self {
            Version::V1 => fnv1a(FNV_OFFSET, bytes),
            Version::V2 => checksum64(bytes),
        }
    }
}

/// One directory entry: which column a page belongs to and how many
/// values it holds. Pages appear in the directory in file order
/// (column-major, row order within a column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMeta {
    /// Column index in the schema.
    pub column: u32,
    /// Values encoded in this page.
    pub n_values: u32,
}

/// A read-only paged columnar table file plus the buffer pool its frames
/// are cached in.
///
/// Stores are immutable once written (appends live in the owning
/// [`Table`](crate::table::Table)'s in-memory tail); all mutation happens by
/// atomically rewriting the whole file via `PagedStore::write`.
#[derive(Debug)]
pub struct PagedStore {
    id: u64,
    path: PathBuf,
    version: Version,
    name: String,
    schema: Schema,
    n_rows: usize,
    page_size: usize,
    pages_start: u64,
    directory: Vec<PageMeta>,
    file: Mutex<std::fs::File>,
    pool: Arc<BufferPool>,
    /// Logical page accesses (hit or miss) — deterministic, unlike the
    /// pool's hit/eviction counters.
    logical_reads: AtomicU64,
}

impl PagedStore {
    /// Encode `batch` as an `MDETAB02` paged table file at `path`,
    /// crash-consistently. Returns the I/O stats of the atomic write
    /// (out-of-band telemetry).
    pub(crate) fn write(
        path: &Path,
        name: &str,
        batch: &Batch,
        page_size: usize,
    ) -> crate::Result<mde_numeric::SaveStats> {
        if page_size < MIN_PAGE_SIZE {
            return Err(McdbError::invalid_plan(format!(
                "page size {page_size} below minimum {MIN_PAGE_SIZE}"
            )));
        }
        let body_budget = page_size - PAGE_HEADER;
        let mut directory: Vec<PageMeta> = Vec::new();
        let mut frames: Vec<u8> = Vec::new();
        let (mut body, mut grown) = (Vec::new(), Vec::new());
        for (c, col) in batch.columns().iter().enumerate() {
            let mut start = 0usize;
            while start < batch.len() {
                let remaining = batch.len() - start;
                // Chunk sizing by encoded size. Begin at the fixed-width
                // estimate and halve until the smallest encoding fits the
                // frame; when it fits with room to spare (bit-packed, RLE
                // and dictionary chunks do), re-encode once at the length
                // its bytes-per-value predicts would fill the frame, and
                // halve back towards the known-good length if that
                // overshoots (a wider chunk can need a wider bit width).
                let mut len = remaining.min((body_budget / 8).max(1));
                loop {
                    body.clear();
                    encode_page_body(col, start, len, &mut body);
                    if body.len() <= body_budget {
                        break;
                    }
                    if len == 1 {
                        return Err(McdbError::invalid_plan(format!(
                            "value in column {c} needs {} bytes, page body holds {body_budget}",
                            body.len()
                        )));
                    }
                    len /= 2;
                }
                let mut wider = remaining
                    .min(u32::MAX as usize)
                    .min(len * body_budget / body.len());
                while wider > len {
                    grown.clear();
                    encode_page_body(col, start, wider, &mut grown);
                    if grown.len() <= body_budget {
                        std::mem::swap(&mut body, &mut grown);
                        len = wider;
                        break;
                    }
                    wider /= 2;
                }
                directory.push(PageMeta {
                    column: c as u32,
                    n_values: len as u32,
                });
                let frame_at = frames.len();
                frames.extend_from_slice(&PAGE_MAGIC);
                frames.extend_from_slice(&[0u8; 8]); // checksum patched below
                put_u32(&mut frames, c as u32);
                put_u32(&mut frames, len as u32);
                put_u32(&mut frames, body.len() as u32);
                frames.extend_from_slice(&body);
                frames.resize(frame_at + page_size, 0);
                let sum = checksum64(&frames[frame_at + 16..frame_at + page_size]);
                frames[frame_at + 8..frame_at + 16].copy_from_slice(&sum.to_le_bytes());
                start += len;
            }
        }

        let mut header_body = Vec::new();
        put_str(&mut header_body, LenPrefix::U32, name);
        put_u64(&mut header_body, batch.len() as u64);
        put_u64(&mut header_body, page_size as u64);
        put_u32(&mut header_body, batch.schema().len() as u32);
        for col in batch.schema().columns() {
            put_str(&mut header_body, LenPrefix::U32, &col.name);
            header_body.push(col.dtype.to_tag());
        }
        put_u32(&mut header_body, directory.len() as u32);
        for m in &directory {
            put_u32(&mut header_body, m.column);
            put_u32(&mut header_body, m.n_values);
        }

        let mut file = Vec::with_capacity(24 + header_body.len() + frames.len());
        file.extend_from_slice(&TABLE_MAGIC);
        put_u64(&mut file, (24 + header_body.len()) as u64);
        put_u64(&mut file, checksum64(&header_body));
        file.extend_from_slice(&header_body);
        file.extend_from_slice(&frames);
        Ok(mde_numeric::write_atomic(path, &file)?)
    }

    /// Open a paged table file (`MDETAB02`, or a version 1 `MDETAB01`),
    /// validating its header, against `pool`.
    pub(crate) fn open(path: &Path, pool: Arc<BufferPool>) -> crate::Result<Arc<PagedStore>> {
        let display = path.display().to_string();
        let header_corrupt = page_corrupt(&display, u64::MAX);
        let mut f =
            std::fs::File::open(path).map_err(|e| header_corrupt(format!("cannot open: {e}")))?;
        let file_len = f
            .metadata()
            .map_err(|e| header_corrupt(format!("cannot stat: {e}")))?
            .len();
        let mut fixed = [0u8; 24];
        f.read_exact(&mut fixed)
            .map_err(|_| header_corrupt("truncated before header".into()))?;
        let version = Version::of_table_magic(&fixed[..8]).ok_or_else(|| {
            header_corrupt("bad file magic (not an MDETAB02 or MDETAB01 file)".into())
        })?;
        let pages_start = u64::from_le_bytes(fixed[8..16].try_into().unwrap());
        let stored_sum = u64::from_le_bytes(fixed[16..24].try_into().unwrap());
        if pages_start < 24 || pages_start > file_len {
            return Err(header_corrupt(format!(
                "header length {pages_start} outside file of {file_len} bytes"
            )));
        }
        let mut header_body = vec![0u8; (pages_start - 24) as usize];
        f.read_exact(&mut header_body)
            .map_err(|_| header_corrupt("truncated header".into()))?;
        let found = version.checksum(&header_body);
        if found != stored_sum {
            return Err(McdbError::PageChecksumMismatch {
                path: display.clone(),
                page: u64::MAX,
                expected: stored_sum,
                found,
            });
        }

        let mut cur = Cursor::new(&header_body, &header_corrupt);
        let name = cur.str(LenPrefix::U32)?.to_string();
        let n_rows = cur.u64()? as usize;
        let page_size = cur.u64()? as usize;
        if !(MIN_PAGE_SIZE..=1 << 30).contains(&page_size) {
            return Err(cur.corrupt(format!("implausible page size {page_size}")));
        }
        let n_cols = cur.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col_name = cur.str(LenPrefix::U32)?;
            let tag = cur.u8()?;
            let dtype = DataType::from_tag(tag)
                .ok_or_else(|| cur.corrupt(format!("unknown column type tag {tag}")))?;
            columns.push(Column::new(col_name, dtype));
        }
        let schema = Schema::new(columns)?;
        let n_pages = cur.u32()? as usize;
        let expect_len = pages_start + (n_pages * page_size) as u64;
        if expect_len > file_len {
            return Err(cur.corrupt(format!(
                "directory declares {n_pages} pages ({expect_len} bytes), file has {file_len}"
            )));
        }
        let mut directory = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            let column = cur.u32()?;
            if column as usize >= schema.len() {
                return Err(cur.corrupt(format!("page references column {column}")));
            }
            directory.push(PageMeta {
                column,
                n_values: cur.u32()?,
            });
        }
        // The cross-page row invariant, before any page is touched: the
        // reader sizes each column's buffer from `n_rows` and places each
        // page at the running sum of its column's earlier pages.
        let mut held = vec![Some(0usize); schema.len()];
        for m in &directory {
            let sum = &mut held[m.column as usize];
            *sum = sum.and_then(|s| s.checked_add(m.n_values as usize));
        }
        for (c, sum) in held.iter().enumerate() {
            if *sum != Some(n_rows) {
                return Err(cur.corrupt(match sum {
                    Some(0) => format!("no pages for column {c} of a {n_rows}-row table"),
                    Some(s) => {
                        format!("column {c} pages hold {s} values, header declares {n_rows} rows")
                    }
                    None => format!("column {c} page value counts overflow"),
                }));
            }
        }

        Ok(Arc::new(PagedStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            path: path.to_path_buf(),
            version,
            name,
            schema,
            n_rows,
            page_size,
            pages_start,
            directory,
            file: Mutex::new(f),
            pool,
            logical_reads: AtomicU64::new(0),
        }))
    }

    /// Table name recorded in the file.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The schema recorded in the file.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows stored on disk.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of page frames.
    pub fn n_pages(&self) -> usize {
        self.directory.len()
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The buffer pool this store reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Logical page reads since open: one per page access regardless of
    /// pool residency. Deterministic — a pure function of the queries
    /// executed — unlike the pool's hit/eviction counters.
    pub fn logical_reads(&self) -> u64 {
        self.logical_reads.load(Ordering::Relaxed)
    }

    /// The page directory, in file order.
    pub fn directory(&self) -> &[PageMeta] {
        &self.directory
    }

    /// Decode the entire table into a columnar [`Batch`]:
    /// `PagedStore::read_columns` with every column marked. The decoded
    /// batch is `PartialEq`-identical to the batch that was written.
    pub fn read_batch(&self) -> crate::Result<Batch> {
        self.read_columns(&vec![true; self.schema.len()])
    }

    /// The one page-read routine. Decodes the columns marked in `read`
    /// (one flag per schema column) and touches no page of the others:
    /// an unmarked column comes back as an untyped all-null placeholder
    /// of the right length, which nothing may take a lane from.
    ///
    /// Each page of a marked column is fetched through the buffer pool
    /// (magic, checksum and directory agreement checked on every miss)
    /// and decoded straight into its slice of the column's final buffer;
    /// the slice's position is the sum of the directory's value counts for
    /// the column's earlier pages, which [`PagedStore::open`] has checked
    /// against the row count. Pages are read in page order on the calling
    /// thread, one pinned frame at a time, so the first failing page is the
    /// error and no page after it is read. Page reports (null bitmaps,
    /// chunk kind) are then folded in, in page order.
    pub(crate) fn read_columns(&self, read: &[bool]) -> crate::Result<Batch> {
        let display = self.path.display().to_string();
        let mut assemblers: Vec<Option<ColumnAssembler>> = self
            .schema
            .columns()
            .iter()
            .zip(read)
            .map(|(col, &marked)| marked.then(|| ColumnAssembler::new(col.dtype, self.n_rows)))
            .collect();
        let mut unfilled: Vec<Option<LanesMut<'_>>> = assemblers
            .iter_mut()
            .map(|a| a.as_mut().map(ColumnAssembler::lanes_mut))
            .collect();
        let mut decoded = Vec::new();
        for (page_no, meta) in self.directory.iter().enumerate() {
            let Some(lanes) = unfilled[meta.column as usize].as_mut() else {
                continue;
            };
            let out = lanes.split_front(meta.n_values as usize);
            let frame = self.read_page(page_no as u32)?;
            let body_len = u32::from_le_bytes(frame[24..28].try_into().unwrap()) as usize;
            if PAGE_HEADER + body_len > frame.len() {
                return Err(McdbError::PageCorrupt {
                    path: display,
                    page: page_no as u64,
                    reason: format!("body length {body_len} exceeds frame"),
                });
            }
            let body = &frame[PAGE_HEADER..PAGE_HEADER + body_len];
            let corrupt = page_corrupt(&display, page_no as u64);
            let page = decode_page(&mut Cursor::new(body, &corrupt), out)?;
            decoded.push((page_no, page));
        }
        for (page_no, page) in decoded {
            let meta = self.directory[page_no];
            assemblers[meta.column as usize]
                .as_mut()
                .expect("only marked columns have page tasks")
                .absorb(
                    page,
                    meta.n_values as usize,
                    &page_corrupt(&display, page_no as u64),
                )?;
        }
        let columns = assemblers
            .into_iter()
            .map(|a| match a {
                Some(a) => a.finish(&display),
                None => Ok(ColumnVec::AllNull { len: self.n_rows }),
            })
            .collect::<crate::Result<Vec<_>>>()?;
        Batch::from_columns(self.schema.clone(), columns, self.n_rows)
    }

    /// Fetch one page frame through the pool, validating magic, header
    /// consistency, and checksum on a miss. The returned `Arc` pins the
    /// frame.
    pub(crate) fn read_page(&self, page_no: u32) -> crate::Result<Arc<Vec<u8>>> {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        self.pool
            .get((self.id, page_no), || self.load_frame(page_no))
    }

    fn load_frame(&self, page_no: u32) -> crate::Result<Vec<u8>> {
        // The path is formatted on the error paths only: a miss that
        // verifies pays for the read and the checksum, nothing else.
        let corrupt = |reason: String| McdbError::PageCorrupt {
            path: self.path.display().to_string(),
            page: page_no as u64,
            reason,
        };
        let meta = self
            .directory
            .get(page_no as usize)
            .ok_or_else(|| corrupt("page index outside directory".into()))?;
        let mut frame = vec![0u8; self.page_size];
        {
            let mut f = self.file.lock().expect("pager file lock");
            f.seek(SeekFrom::Start(
                self.pages_start + page_no as u64 * self.page_size as u64,
            ))
            .map_err(|e| corrupt(format!("seek failed: {e}")))?;
            f.read_exact(&mut frame)
                .map_err(|e| corrupt(format!("torn or truncated page: {e}")))?;
        }
        let magic = self.version.page_magic();
        if frame[..8] != magic {
            return Err(corrupt(format!(
                "bad page magic (not an {} frame)",
                String::from_utf8_lossy(&magic)
            )));
        }
        let stored = u64::from_le_bytes(frame[8..16].try_into().unwrap());
        let found = self.version.checksum(&frame[16..]);
        if stored != found {
            return Err(McdbError::PageChecksumMismatch {
                path: self.path.display().to_string(),
                page: page_no as u64,
                expected: stored,
                found,
            });
        }
        let col = u32::from_le_bytes(frame[16..20].try_into().unwrap());
        let n_values = u32::from_le_bytes(frame[20..24].try_into().unwrap());
        if col != meta.column || n_values != meta.n_values {
            return Err(corrupt(format!(
                "frame header (column {col}, {n_values} values) disagrees with \
                 directory (column {}, {} values)",
                meta.column, meta.n_values
            )));
        }
        Ok(frame)
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        self.pool.retire_store(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crate::value::Value;

    fn sample_table(n: usize) -> Table {
        let mut b = Table::build(
            "t",
            &[
                ("id", DataType::Int),
                ("x", DataType::Float),
                ("tag", DataType::Str),
                ("ok", DataType::Bool),
            ],
        );
        for i in 0..n {
            b = b.row(vec![
                Value::from(i as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::from(i as f64 * 0.25)
                },
                Value::str(["red", "green", "blue"][i % 3]),
                Value::from(i % 2 == 0),
            ]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn write_open_read_round_trip() {
        let dir = std::env::temp_dir().join(format!("mde_pager_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdet");
        let t = sample_table(1000);
        let batch = (*t.batch()).clone();
        PagedStore::write(&path, "t", &batch, 1024).unwrap();
        let pool = BufferPool::new(4);
        let store = PagedStore::open(&path, Arc::clone(&pool)).unwrap();
        assert_eq!(store.name(), "t");
        assert_eq!(store.n_rows(), 1000);
        assert!(store.n_pages() > 4, "expected multiple pages per column");
        let back = store.read_batch().unwrap();
        assert_eq!(back, batch);
        assert_eq!(store.logical_reads(), store.n_pages() as u64);
        // Second read with a tiny pool still succeeds (evictions, not
        // exhaustion) and stays within the frame budget.
        let back2 = store.read_batch().unwrap();
        assert_eq!(back2, batch);
        assert!(pool.stats().resident <= 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_column_subset_reads_only_its_pages() {
        let dir = std::env::temp_dir().join(format!("mde_pager_sub_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.mdet");
        let t = sample_table(2000);
        let batch = (*t.batch()).clone();
        PagedStore::write(&path, "t", &batch, 1024).unwrap();
        let store = PagedStore::open(&path, BufferPool::new(16)).unwrap();
        let marked = [false, true, false, true];
        let part = store.read_columns(&marked).unwrap();
        // Logical reads are a pure function of the pages of marked columns.
        let pages = store
            .directory()
            .iter()
            .filter(|m| marked[m.column as usize]);
        assert_eq!(store.logical_reads(), pages.count() as u64);
        for (j, &read) in marked.iter().enumerate() {
            if read {
                assert_eq!(part.column(j), batch.column(j), "column {j}");
            } else {
                assert!(matches!(part.column(j), ColumnVec::AllNull { len: 2000 }));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_table_round_trips() {
        let dir = std::env::temp_dir().join(format!("mde_pager_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.mdet");
        let t = Table::build("e", &[("a", DataType::Int)]).finish().unwrap();
        let batch = (*t.batch()).clone();
        PagedStore::write(&path, "e", &batch, 256).unwrap();
        let store = PagedStore::open(&path, BufferPool::new(2)).unwrap();
        assert_eq!(store.n_rows(), 0);
        assert_eq!(store.n_pages(), 0);
        assert_eq!(store.read_batch().unwrap(), batch);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_value_is_a_typed_write_error() {
        let dir = std::env::temp_dir().join(format!("mde_pager_big_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.mdet");
        let t = Table::build("big", &[("s", DataType::Str)])
            .row(vec![Value::str("x".repeat(4096))])
            .finish()
            .unwrap();
        let err = PagedStore::write(&path, "big", &t.batch(), 256).unwrap_err();
        assert!(matches!(err, McdbError::InvalidPlan { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
