//! Page-level chaos suite for the paged storage backend.
//!
//! Contract under test: any corruption of an `MDETAB02` file — random
//! bit flips, truncation, torn (partially overwritten) pages, foreign
//! file magic, frames or headers of the other format version — surfaces
//! as the typed
//! `McdbError::PageCorrupt` / `McdbError::PageChecksumMismatch` errors,
//! and *never* as a silently wrong answer. Every byte of the file is
//! covered by either the header checksum or a page-frame
//! checksum, so a mutated file must fail to open or fail to decode.
//! A query verifies the pages it reads, so it fails on a damaged page
//! iff it reads that page; a checksum-valid header that lies about row
//! or value counts is rejected when the file is opened.
//!
//! Fault placement is keyed off `MDE_CHAOS_SEED` (CI runs a small
//! matrix) but is fully deterministic for a given seed.

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::batch::Batch;
use model_data_ecosystems::mcdb::storage::BufferPool;
use model_data_ecosystems::mcdb::McdbError;
use model_data_ecosystems::numeric::rng::{chaos_seed, rng_from_seed};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mde_schaos_{}_{}",
        std::process::id(),
        FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A table mixing every dtype (so plain, RLE, dictionary, and bit-packed
/// pages all appear) with NULLs sprinkled in.
fn fixture_table(n_rows: usize) -> Table {
    Table::build(
        "T",
        &[
            ("K", DataType::Int),
            ("V", DataType::Float),
            ("TAG", DataType::Str),
            ("OK", DataType::Bool),
        ],
    )
    .rows((0..n_rows).map(|i| {
        vec![
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::from((i % 7) as i64)
            },
            Value::from(i as f64 * 0.25 - 3.0),
            Value::from(["alpha", "beta", "gamma"][i % 3]),
            Value::from(i % 2 == 0),
        ]
    }))
    .finish()
    .unwrap()
}

/// Open `path` through a fresh pool and fully decode it. The error (if
/// any) is what a query against the file would surface.
fn open_and_decode(path: &Path, frames: usize) -> Result<Arc<Batch>, McdbError> {
    let t = Table::open_paged(path, BufferPool::new(frames))?;
    t.try_batch()
}

fn assert_typed_storage_error(err: &McdbError, what: &str) {
    assert!(
        matches!(
            err,
            McdbError::PageCorrupt { .. } | McdbError::PageChecksumMismatch { .. }
        ),
        "{what} must surface a typed page error, got: {err}"
    );
}

/// Random single-bit flips anywhere in the file: every one must be
/// caught by a checksum or structural check — typed error, never a
/// different answer.
#[test]
fn bit_flips_surface_typed_errors_never_wrong_answers() {
    let dir = scratch_dir();
    let mem = fixture_table(200);
    let path = dir.join("t.mdet");
    let paged = mem.to_paged(&path, 256, BufferPool::new(4)).unwrap();
    let oracle = paged.try_batch().unwrap();
    assert_eq!(&*oracle, &*mem.batch(), "pristine file must round-trip");
    drop(paged);

    let pristine = std::fs::read(&path).unwrap();
    // The fault schedule is a pure function of the chaos seed.
    let mut rng = rng_from_seed(chaos_seed());
    for trial in 0..48 {
        let byte = rng.gen_range(0..pristine.len());
        let bit: u8 = rng.gen_range(0..8);
        let mut mutated = pristine.clone();
        mutated[byte] ^= 1 << bit;
        let victim = dir.join("flip.mdet");
        std::fs::write(&victim, &mutated).unwrap();
        match open_and_decode(&victim, 4) {
            Err(e) => {
                assert_typed_storage_error(&e, &format!("trial {trial}: bit {bit} of byte {byte}"))
            }
            Ok(batch) => panic!(
                "trial {trial}: flip of bit {bit} at byte {byte} went undetected \
                 (decoded {} rows)",
                batch.len()
            ),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncation at seed-chosen lengths — mid-header, mid-directory,
/// mid-page, one byte short — is caught at open or first read.
#[test]
fn truncation_is_detected() {
    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    drop(
        fixture_table(200)
            .to_paged(&path, 256, BufferPool::new(4))
            .unwrap(),
    );
    let pristine = std::fs::read(&path).unwrap();

    let mut rng = rng_from_seed(chaos_seed());
    let mut cuts = vec![0, 10, pristine.len() - 1];
    for _ in 0..8 {
        cuts.push(rng.gen_range(0..pristine.len()));
    }
    for cut in cuts {
        let victim = dir.join("cut.mdet");
        std::fs::write(&victim, &pristine[..cut]).unwrap();
        let err = open_and_decode(&victim, 4)
            .expect_err(&format!("truncation to {cut} bytes must be detected"));
        assert_typed_storage_error(&err, &format!("truncation to {cut} bytes"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn write — the tail half of a page frame replaced by other bytes,
/// as an interrupted in-place overwrite would leave it — fails that
/// page's checksum.
#[test]
fn torn_page_write_is_detected() {
    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    let paged = fixture_table(200)
        .to_paged(&path, 256, BufferPool::new(4))
        .unwrap();
    let n_pages = paged.paged_store().unwrap().n_pages();
    assert!(n_pages > 2, "fixture must span multiple pages");
    drop(paged);

    let mut bytes = std::fs::read(&path).unwrap();
    let page = rng_from_seed(chaos_seed()).gen_range(0..n_pages);
    let frame_start = bytes.len() - (n_pages - page) * 256;
    for b in &mut bytes[frame_start + 128..frame_start + 256] {
        *b = 0xAB;
    }
    std::fs::write(&path, &bytes).unwrap();
    let err = open_and_decode(&path, 4).expect_err("torn page must be detected");
    assert_typed_storage_error(&err, &format!("torn write in page {page}"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A file with someone else's magic — or a page frame wearing the table
/// magic — is rejected before any decoding.
#[test]
fn foreign_magic_is_rejected() {
    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    drop(
        fixture_table(60)
            .to_paged(&path, 256, BufferPool::new(4))
            .unwrap(),
    );
    let pristine = std::fs::read(&path).unwrap();

    // File-level: a checkpoint (or arbitrary) magic is not a table.
    for magic in [b"MDECKPT1", b"GARBAGE!"] {
        let mut mutated = pristine.clone();
        mutated[..8].copy_from_slice(magic);
        let victim = dir.join("magic.mdet");
        std::fs::write(&victim, &mutated).unwrap();
        let err = open_and_decode(&victim, 4).expect_err("foreign magic must be rejected");
        assert_typed_storage_error(&err, "foreign file magic");
    }

    // Frame-level: overwrite the first frame's magic with the table
    // magic; the page read must reject it.
    let mut mutated = pristine.clone();
    let first_frame = {
        let t = Table::open_paged(&path, BufferPool::new(2)).unwrap();
        mutated.len() - t.paged_store().unwrap().n_pages() * 256
    };
    mutated[first_frame..first_frame + 8]
        .copy_from_slice(&model_data_ecosystems::mcdb::storage::TABLE_MAGIC);
    let victim = dir.join("framemagic.mdet");
    std::fs::write(&victim, &mutated).unwrap();
    let err = open_and_decode(&victim, 4).expect_err("foreign frame magic must be rejected");
    assert_typed_storage_error(&err, "foreign frame magic");
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline bounded-memory property: scanning a working set ~8× the
/// pool's frame budget completes correctly while frame residency never
/// exceeds the budget — the pool evicts instead of growing.
#[test]
fn scan_of_8x_working_set_stays_within_frame_budget() {
    let dir = scratch_dir();
    let mem = fixture_table(4000);
    let path = dir.join("big.mdet");
    // Size the pool to 1/8 of the page count (at least 2 frames).
    let probe = mem.to_paged(&path, 256, BufferPool::new(2)).unwrap();
    let n_pages = probe.paged_store().unwrap().n_pages();
    drop(probe);
    let budget = (n_pages / 8).max(2);
    let pool = BufferPool::new(budget);

    let mut db = Catalog::new();
    db.insert(mem);
    let mut oracle = Catalog::new();
    oracle.insert(Table::open_paged(&path, Arc::clone(&pool)).unwrap());

    for plan in [
        Plan::scan("T"),
        Plan::scan("T").filter(Expr::col("V").gt(Expr::lit(100.0))),
        Plan::scan("T").aggregate(
            &["TAG"],
            vec![model_data_ecosystems::mcdb::query::AggSpec::count_star("N")],
        ),
    ] {
        let want = db.query(&plan).unwrap();
        let got = oracle.query(&plan).unwrap();
        assert_eq!(want.rows(), got.rows());
        let stats = pool.stats();
        assert!(
            stats.resident <= budget,
            "resident {} frames exceeds budget {budget}",
            stats.resident
        );
    }
    let stats = pool.stats();
    assert!(
        stats.evictions > 0,
        "an 8x working set must evict (pages {n_pages}, budget {budget})"
    );
    assert!(stats.hits + stats.misses >= n_pages as u64);
    assert!(pool.pressure() <= 1.0 + f64::EPSILON);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Faults mid-scan (ISSUE 9)
// ---------------------------------------------------------------------------

/// One byte flipped in a seed-chosen page of each column in turn (and in
/// that column's last page too, so a lower and a higher page are both bad).
/// Contract: a query fails on a corrupt page **iff it reads that page**.
/// Every plan that binds the damaged column returns the typed error naming
/// the lowest damaged page — the first one its scan reads — byte for byte
/// the same on every execution. Every plan that does not bind it never
/// touches the page and returns the in-memory twin's rows. Whole-table
/// reads (`try_batch`, `rows()`, a root scan / filter / sort) bind every
/// column.
#[test]
fn corruption_fails_exactly_the_plans_that_read_the_column() {
    use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec, SortKey};

    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    // Enough rows that even the bitmap-packed Bool column spans pages.
    let mem = fixture_table(6_000);
    let paged = mem.to_paged(&path, 256, BufferPool::new(8)).unwrap();
    let directory = paged.paged_store().unwrap().directory().to_vec();
    drop(paged);
    let pristine = std::fs::read(&path).unwrap();
    let mut twin = Catalog::new();
    twin.insert(mem);

    // (plan, the fixture columns it binds; `None` = the whole batch).
    let plans: Vec<(Plan, Option<&[usize]>)> = vec![
        (Plan::scan("T"), None),
        (
            Plan::scan("T").filter(Expr::col("V").gt(Expr::lit(10.0))),
            None,
        ),
        (
            Plan::scan("T")
                .sort(vec![SortKey::desc(Expr::col("V"))])
                .limit(5),
            None,
        ),
        (
            Plan::scan("T").aggregate(&["TAG"], vec![AggSpec::count_star("N")]),
            Some(&[2]),
        ),
        (
            Plan::scan("T").aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
            Some(&[1]),
        ),
        (
            Plan::scan("T")
                .filter(Expr::col("OK"))
                .project(&[("K", Expr::col("K"))]),
            Some(&[0, 3]),
        ),
        (
            Plan::scan("T").aggregate(&[], vec![AggSpec::count_star("N")]),
            Some(&[]),
        ),
    ];

    let mut rng = rng_from_seed(chaos_seed());
    for column in 0..4u32 {
        let pages: Vec<usize> = (0..directory.len())
            .filter(|&p| directory[p].column == column)
            .collect();
        assert!(pages.len() > 2, "column {column} must span several pages");
        // Never the column's last page, so a second, higher page can go
        // bad as well.
        let victim = pages[rng.gen_range(0..pages.len() - 1)];
        let mut bytes = pristine.clone();
        for page in [victim, *pages.last().unwrap()] {
            let frame_start = bytes.len() - (directory.len() - page) * 256;
            bytes[frame_start + 28 + rng.gen_range(0..64)] ^= 0x40;
        }
        std::fs::write(&path, &bytes).unwrap();

        let open = || {
            let mut db = Catalog::new();
            db.insert(Table::open_paged(&path, BufferPool::new(8)).unwrap());
            db
        };
        for (plan, binds) in &plans {
            let reads_column = binds.is_none_or(|cols| cols.contains(&(column as usize)));
            let mut first_err: Option<String> = None;
            for run in 0..2 {
                let what = format!(
                    "column {column} page {victim}, run {run}, {}",
                    plan.explain()
                );
                match open().query(plan) {
                    Err(err) => {
                        assert!(
                            reads_column,
                            "{what}: failed on a page it never reads: {err}"
                        );
                        assert_typed_storage_error(&err, &what);
                        match &err {
                            McdbError::PageChecksumMismatch { page, .. } => {
                                assert_eq!(*page, victim as u64, "{what}: lowest page must win")
                            }
                            other => panic!("{what}: expected a checksum mismatch, got {other}"),
                        }
                        let msg = err.to_string();
                        match &first_err {
                            None => first_err = Some(msg),
                            Some(first) => assert_eq!(first, &msg, "{what}: diverged from run 0"),
                        }
                    }
                    Ok(got) => {
                        assert!(
                            !reads_column,
                            "{what}: a plan that reads the page must fail"
                        );
                        assert_eq!(got.rows(), twin.query(plan).unwrap().rows(), "{what}");
                    }
                }
            }
        }
        // The whole-table surfaces read and verify every page.
        let t = Table::open_paged(&path, BufferPool::new(8)).unwrap();
        assert_typed_storage_error(&t.try_batch().unwrap_err(), "try_batch");
        let rows = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.rows().len()));
        assert!(rows.is_err(), "rows() must not materialize a damaged file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Hostile headers: checksum-valid, structurally wrong
// ---------------------------------------------------------------------------

/// The checksum a file with table magic `magic` seals its header and
/// frames with: FNV-1a for version 1, `checksum64` otherwise.
fn seal(magic: &[u8], bytes: &[u8]) -> u64 {
    if magic == V1_TABLE_MAGIC {
        mde_numeric::checkpoint::fnv1a(mde_numeric::checkpoint::FNV_OFFSET, bytes)
    } else {
        mde_numeric::checkpoint::checksum64(bytes)
    }
}

const V1_TABLE_MAGIC: &[u8; 8] = b"MDETAB01";
const V1_PAGE_MAGIC: &[u8; 8] = b"MDEPAGE1";

/// Re-seal a header whose body was edited, with the checksum its file
/// magic names, so only the structural checks stand between the edit and
/// the reader.
fn reseal_header(bytes: &mut [u8]) {
    let pages_start = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let sum = seal(&bytes[..8], &bytes[24..pages_start]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// The row invariant across a column's pages is checked at `open`, from
/// the directory alone: a header whose checksum is right but whose row
/// count or per-page value counts are not is a typed header error
/// (`page == u64::MAX`) — never a capacity-overflow panic or an allocator
/// abort when the first scan sizes its buffers from `n_rows`.
#[test]
fn crafted_headers_are_rejected_at_open() {
    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    let paged = fixture_table(200)
        .to_paged(&path, 256, BufferPool::new(4))
        .unwrap();
    let directory = paged.paged_store().unwrap().directory().to_vec();
    drop(paged);
    let pristine = std::fs::read(&path).unwrap();
    let pages_start = u64::from_le_bytes(pristine[8..16].try_into().unwrap()) as usize;
    // Header body: name (u32 length + bytes), n_rows, ...; the directory
    // is its last `8 * n_pages` bytes, one (column, n_values) pair each.
    let n_rows_at = 24 + 4 + "T".len();
    assert_eq!(
        u64::from_le_bytes(pristine[n_rows_at..n_rows_at + 8].try_into().unwrap()),
        200
    );
    let entry_at = |page: usize| pages_start - 8 * (directory.len() - page);

    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    for (what, n_rows) in [
        ("n_rows = 2^60", 1u64 << 60),
        ("n_rows = u64::MAX", u64::MAX),
        ("n_rows one short", 199),
        ("n_rows = 0 with pages", 0),
    ] {
        let mut bytes = pristine.clone();
        bytes[n_rows_at..n_rows_at + 8].copy_from_slice(&n_rows.to_le_bytes());
        cases.push((what, bytes));
    }
    let page = rng_from_seed(chaos_seed()).gen_range(0..directory.len());
    for (what, n_values) in [
        ("one page claims a value more", directory[page].n_values + 1),
        ("one page claims u32::MAX values", u32::MAX),
        ("one page claims no values", 0),
    ] {
        let mut bytes = pristine.clone();
        let at = entry_at(page) + 4;
        bytes[at..at + 4].copy_from_slice(&n_values.to_le_bytes());
        cases.push((what, bytes));
    }
    // Every page of the last column re-labelled as the first column's: a
    // non-empty table with a column that has no pages at all.
    let mut bytes = pristine.clone();
    for p in (0..directory.len()).filter(|&p| directory[p].column == 3) {
        bytes[entry_at(p)..entry_at(p) + 4].copy_from_slice(&0u32.to_le_bytes());
    }
    cases.push(("a column with no pages", bytes));

    for (what, mut bytes) in cases {
        reseal_header(&mut bytes);
        let victim = dir.join("crafted.mdet");
        std::fs::write(&victim, &bytes).unwrap();
        match Table::open_paged(&victim, BufferPool::new(4)) {
            Err(McdbError::PageCorrupt { page, .. }) => {
                assert_eq!(page, u64::MAX, "{what}: a header error names no page")
            }
            Err(other) => panic!("{what}: expected PageCorrupt at open, got {other}"),
            Ok(_) => panic!("{what}: a crafted header must not open"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// File compatibility
// ---------------------------------------------------------------------------

/// The version 1 reader: the committed `MDETAB01` / `MDEPAGE1` file
/// (FNV-1a sealed) was written by a build from before the writer began
/// filling pages to their byte budget (`fixture_table(200)`, 256-byte
/// pages, chunks of at most 28 values) and must still open and decode to
/// its source table, although the writer now emits only `MDETAB02`. The
/// same table written today takes fewer pages.
#[test]
fn file_written_by_the_previous_build_decodes_identically() {
    const PARENT_PAGES: usize = 32;
    let committed =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_pr14_t200_p256.mdet");
    let mem = fixture_table(200);
    let old = Table::open_paged(&committed, BufferPool::new(4)).unwrap();
    assert_eq!(old.paged_store().unwrap().n_pages(), PARENT_PAGES);
    assert_eq!(&*old.try_batch().unwrap(), &*mem.batch());
    assert_eq!(old, mem);

    let dir = scratch_dir();
    let new = mem
        .to_paged(&dir.join("t.mdet"), 256, BufferPool::new(4))
        .unwrap();
    let n_pages = new.paged_store().unwrap().n_pages();
    assert!(
        n_pages < PARENT_PAGES,
        "full pages: {n_pages} pages now, {PARENT_PAGES} before"
    );
    assert_eq!(&*new.try_batch().unwrap(), &*mem.batch());

    // A bit-packable column costs less on disk than its 8 bytes a value
    // in memory, frame headers and padding included.
    let ints = Table::build("I", &[("K", DataType::Int)])
        .rows((0..20_000).map(|i| vec![Value::from((i * 37 % 1_000) as i64)]))
        .finish()
        .unwrap();
    let path = dir.join("i.mdet");
    drop(ints.to_paged(&path, 4096, BufferPool::new(4)).unwrap());
    let bytes_per_user_byte =
        std::fs::metadata(&path).unwrap().len() as f64 / (ints.len() * 8) as f64;
    assert!(bytes_per_user_byte < 1.0, "{bytes_per_user_byte}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The version 2 format pinned from the reader's side: the committed file
/// was written by the first build that wrote `MDETAB02`
/// (`fixture_table(200)`, 256-byte pages). A change to `checksum64` or to
/// the layout that would orphan files already on disk fails here.
#[test]
fn version_2_file_on_disk_decodes_identically() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_t200_p256.mdet");
    assert_eq!(&std::fs::read(&committed).unwrap()[..8], b"MDETAB02");
    let mem = fixture_table(200);
    let v2 = Table::open_paged(&committed, BufferPool::new(4)).unwrap();
    assert_eq!(&*v2.try_batch().unwrap(), &*mem.batch());
    assert_eq!(v2, mem);
}

/// The file magic fixes the version of every frame and of the header
/// checksum. A file that mixes versions is a typed error, never a decode:
/// a frame resealed as a valid version 1 frame inside a version 2 file,
/// and a version 2 file relabelled `MDETAB01` with its header resealed by
/// FNV-1a (it opens as version 1, and its first page read meets an
/// `MDEPAGE2` frame).
#[test]
fn mixed_version_files_are_rejected() {
    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    let paged = fixture_table(200)
        .to_paged(&path, 256, BufferPool::new(4))
        .unwrap();
    let n_pages = paged.paged_store().unwrap().n_pages();
    drop(paged);
    let pristine = std::fs::read(&path).unwrap();
    let frame_at = |page: usize| pristine.len() - (n_pages - page) * 256;

    let page = rng_from_seed(chaos_seed()).gen_range(0..n_pages);
    let mut v1_frame = pristine.clone();
    let frame = &mut v1_frame[frame_at(page)..frame_at(page) + 256];
    frame[..8].copy_from_slice(V1_PAGE_MAGIC);
    let sum = seal(V1_TABLE_MAGIC, &frame[16..]);
    frame[8..16].copy_from_slice(&sum.to_le_bytes());

    let mut v1_header = pristine.clone();
    v1_header[..8].copy_from_slice(V1_TABLE_MAGIC);
    reseal_header(&mut v1_header);

    for (what, bytes) in [
        (format!("version 1 frame at page {page}"), v1_frame),
        (
            "version 2 frames under an MDETAB01 header".to_string(),
            v1_header,
        ),
    ] {
        let victim = dir.join("mixed.mdet");
        std::fs::write(&victim, &bytes).unwrap();
        match open_and_decode(&victim, 4) {
            Err(McdbError::PageCorrupt { reason, .. }) => {
                assert!(reason.contains("page magic"), "{what}: {reason}")
            }
            Err(other) => panic!("{what}: expected a page-magic error, got {other}"),
            Ok(_) => panic!("{what}: a mixed-version file must not decode"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Concurrent scans over one starved buffer pool: each session pins a
/// frame while decoding, so four sessions can exhaust a two-frame budget
/// one session never would. Contract: every query either succeeds with
/// bit-identical rows or fails with the *typed, retryable*
/// `McdbError::PoolExhausted` — and a bounded retry loop always converges
/// (no deadlock, no panic, no wrong answer).
#[test]
fn pool_exhausted_mid_morsel_is_typed_and_retryable() {
    use mde_numeric::{ErrorClass as _, Severity};

    let dir = scratch_dir();
    let path = dir.join("t.mdet");
    let mem = fixture_table(600);
    drop(mem.to_paged(&path, 256, BufferPool::new(2)).unwrap());

    let mut oracle = Catalog::new();
    oracle.insert(fixture_table(600));
    let plan = Plan::scan("T").filter(Expr::col("V").gt(Expr::lit(0.0)));
    let want = oracle.query(&plan).unwrap();

    // One 2-frame pool shared by four concurrent sessions.
    let pool = BufferPool::new(2);
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let plan = &plan;
                let path = &path;
                s.spawn(move || {
                    let mut db = Catalog::new();
                    db.insert(Table::open_paged(path, pool).unwrap());
                    // Bounded retry: `PoolExhausted` is transient (pins
                    // drain when competing scans finish), so retrying
                    // must converge well within the bound.
                    let mut exhausted = 0u32;
                    for _ in 0..200 {
                        match db.query(plan) {
                            Ok(t) => return (t, exhausted),
                            Err(e) => {
                                assert!(
                                    matches!(
                                        e,
                                        model_data_ecosystems::mcdb::McdbError::PoolExhausted { .. }
                                    ),
                                    "starved pool must surface PoolExhausted, got: {e}"
                                );
                                assert_eq!(
                                    e.severity(),
                                    Severity::Retryable,
                                    "PoolExhausted must classify retryable"
                                );
                                exhausted += 1;
                            }
                        }
                    }
                    panic!("retry loop did not converge: pool starvation wedged the scan");
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no worker may panic"))
            .collect::<Vec<_>>()
    });

    for (got, _) in &outcomes {
        assert_eq!(
            want.rows(),
            got.rows(),
            "a scan that survived pool pressure must still be bit-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
