//! Out-of-core paged columnar storage: page codec, pager, buffer pool,
//! and spill partitions.
//!
//! This layer lets a [`Table`](crate::table::Table) be backed by an on-disk
//! paged columnar file instead of in-memory rows, with working memory
//! bounded by a [`BufferPool`] frame budget rather than data size. The
//! all-in-RAM row path is retained as the differential oracle: the
//! property suites assert that a paged catalog returns bit-identical
//! query results to its in-memory twin across the whole SQL corpus, and
//! the chaos suites assert that page corruption (bit flips, truncation,
//! torn writes, foreign magic) surfaces as the typed
//! [`McdbError::PageCorrupt`](crate::McdbError::PageCorrupt) /
//! [`PageChecksumMismatch`](crate::McdbError::PageChecksumMismatch)
//! errors — never as silently wrong answers. A query's scan fetches,
//! verifies and decodes only the pages of the columns its plan binds, so
//! it fails on a corrupt page iff it reads that page.
//!
//! The module splits into:
//! - [`pager`] — the `MDETAB02` file format, `MDEPAGE2` page frames
//!   with per-page word-parallel checksums
//!   ([`checksum64`](mde_numeric::checkpoint::checksum64)), and
//!   crash-consistent whole-file writes via the checkpoint codec's
//!   atomic-rename discipline; it also reads version 1 (`MDETAB01`,
//!   FNV-1a) files, and writes only version 2;
//! - [`encoding`] — per-page column encodings (dictionary, RLE,
//!   bit-packing, plain) chosen smallest-wins at write time and decoded
//!   word-at-a-time straight into the executor's typed column vectors;
//! - [`pool`] — the clock buffer pool with Arc-pinned frames, eviction
//!   counters, and typed pool-exhaustion errors;
//! - [`spill`] — Grace-style hash partitioning that lets join builds and
//!   group-by hash tables degrade to out-of-core instead of aborting.

pub mod encoding;
pub mod pager;
pub mod pool;
pub mod spill;

pub(crate) mod codec;

pub use encoding::Encoding;
pub use pager::{PageMeta, PagedStore, DEFAULT_PAGE_SIZE, PAGE_MAGIC, TABLE_MAGIC};
pub use pool::{BufferPool, PoolStats};
pub use spill::SpillConfig;
