//! Grace-style spill partitions for hash joins and group-by.
//!
//! When a build side or group-by input exceeds the configured row
//! threshold, the executor hash-partitions the input by its key columns
//! (the deterministic typed key hash of `query::kernels` — never the
//! process-seeded `SipHash`, so partition assignment is identical across
//! runs and thread counts) and writes each partition through the page
//! codec to a temp file. Partitions are then processed one at a time, bounding the
//! in-memory hash table to one partition's share while their frames flow
//! through the shared buffer pool. Each partition preserves the global
//! row order of its lanes and every key lives wholly in one partition,
//! so per-group aggregation order — and therefore floating-point sums —
//! is bit-identical to the unspilled path.

use super::pager::{PagedStore, DEFAULT_PAGE_SIZE};
use super::pool::BufferPool;
use crate::query::batch::Batch;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Spill policy for hash join build sides and group-by hash tables.
///
/// `threshold_rows` is the admission point: inputs at or under it are
/// processed fully in memory (the fast path); larger inputs degrade to
/// out-of-core partitioning instead of aborting. The pool handle is
/// where spilled frames are cached on read-back — typically the same
/// pool backing the catalog's paged tables, so one frame budget governs
/// the whole query.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Rows a hash build side / group-by input may hold before spilling.
    pub threshold_rows: usize,
    /// Number of hash partitions when spilling.
    pub partitions: usize,
    /// Directory for partition files (`None` = [`std::env::temp_dir`]).
    pub dir: Option<PathBuf>,
    /// Frame size of partition files.
    pub page_size: usize,
    /// Buffer pool spilled frames are read back through.
    pub pool: Arc<BufferPool>,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            threshold_rows: 1 << 20,
            partitions: 8,
            dir: None,
            page_size: DEFAULT_PAGE_SIZE,
            pool: BufferPool::new(64),
        }
    }
}

impl SpillConfig {
    fn partition_dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// One on-disk spill partition: a gathered sub-batch written through the
/// page codec. The temp file is deleted on drop.
pub(crate) struct SpilledBatch {
    path: PathBuf,
    pool: Arc<BufferPool>,
    n_rows: usize,
}

impl SpilledBatch {
    /// Gather `sel` out of `batch` and persist it as a partition file.
    pub(crate) fn write(
        batch: &Batch,
        sel: &[u32],
        cfg: &SpillConfig,
        label: &str,
    ) -> crate::Result<SpilledBatch> {
        let sub = batch.gather(sel)?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = cfg.partition_dir().join(format!(
            "mde_spill_{}_{seq}_{label}.mdet",
            std::process::id()
        ));
        PagedStore::write(&path, label, &sub, cfg.page_size)?;
        Ok(SpilledBatch {
            path,
            pool: Arc::clone(&cfg.pool),
            n_rows: sel.len(),
        })
    }

    /// Rows in this partition.
    pub(crate) fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Read the partition back through the pool. The transient store is
    /// retired (its frames released) when the returned batch has been
    /// decoded.
    pub(crate) fn read(&self) -> crate::Result<Batch> {
        let store = PagedStore::open(&self.path, Arc::clone(&self.pool))?;
        store.read_batch()
    }
}

impl Drop for SpilledBatch {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::table::Table;
    use crate::value::Value;

    #[test]
    fn spilled_batch_round_trips_and_cleans_up() {
        let t = Table::build("s", &[("a", DataType::Int), ("s", DataType::Str)])
            .rows((0..100).map(|i| vec![Value::from(i as i64), Value::str(format!("v{}", i % 5))]))
            .finish()
            .unwrap();
        let batch = (*t.batch()).clone();
        let cfg = SpillConfig {
            page_size: 256,
            ..SpillConfig::default()
        };
        let sel: Vec<u32> = (0..100).filter(|i| i % 3 == 0).collect();
        let spilled = SpilledBatch::write(&batch, &sel, &cfg, "p0").unwrap();
        let path = spilled.path.clone();
        assert!(path.exists());
        assert_eq!(spilled.n_rows(), sel.len());
        let back = spilled.read().unwrap();
        assert_eq!(back, batch.gather(&sel).unwrap());
        drop(spilled);
        assert!(!path.exists(), "spill file must be deleted on drop");
    }
}
