//! Clock buffer pool over fixed-size page frames.
//!
//! The pool caches *compressed* page frames (not decoded columns) under a
//! configurable frame budget, shared by every paged table and spill
//! partition that was opened against it. Eviction is second-chance
//! clock: each hit sets a referenced bit; the hand clears bits until it
//! finds an unreferenced, unpinned frame. A frame is pinned exactly
//! while a caller holds the `Arc` returned by `BufferPool::get` — no
//! explicit unpin call, dropping the guard releases the pin — so
//! eviction can never free bytes a reader is still decoding. If every
//! frame is pinned the pool refuses the load with the retryable
//! [`McdbError::PoolExhausted`] rather than blowing the budget.
//!
//! ## Determinism
//!
//! Logical page reads (one per page *access*) are a pure function of the
//! plan and data, so they land in deterministic ledger counters. Hits,
//! misses, and evictions depend on which thread touched the pool first —
//! flow-control telemetry, recorded out-of-band and excluded from run
//! equality (same split as `ckpt.fsync` durations).

use crate::McdbError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key of a cached frame: (store id, page index). Store ids are unique
/// per opened [`PagedStore`](super::PagedStore), so two stores opened on
/// the same path never alias frames.
pub(crate) type PageKey = (u64, u32);

/// Counter snapshot of a pool's activity since creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Frame lookups served from a resident frame.
    pub hits: u64,
    /// Frame lookups that had to load from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Frames currently resident.
    pub resident: usize,
    /// Configured frame budget.
    pub budget: usize,
}

struct Frame {
    data: Arc<Vec<u8>>,
    referenced: bool,
}

#[derive(Default)]
struct Inner {
    frames: HashMap<PageKey, Frame>,
    /// Clock ring: the keys of `frames`, in hand order. Eviction and
    /// [`BufferPool::retire_store`] remove a frame's key with the frame,
    /// so the ring never outgrows the resident set.
    ring: VecDeque<PageKey>,
}

/// A clock-eviction cache of compressed page frames. See the module docs
/// for pinning and determinism semantics.
pub struct BufferPool {
    budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("budget", &self.budget)
            .field("stats", &stats)
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `frame_budget` page frames (minimum 1).
    pub fn new(frame_budget: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            budget: frame_budget.max(1),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Configured frame budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Occupancy in `[0, 1]`: resident frames over budget. Exposed as an
    /// admission signal for the campaign scheduler.
    pub fn pressure(&self) -> f64 {
        let resident = self.inner.lock().expect("pool lock").frames.len();
        resident as f64 / self.budget as f64
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident: self.inner.lock().expect("pool lock").frames.len(),
            budget: self.budget,
        }
    }

    /// Fetch the frame for `key`, loading it via `load` on a miss. The
    /// returned `Arc` pins the frame until dropped.
    pub(crate) fn get(
        &self,
        key: PageKey,
        load: impl FnOnce() -> crate::Result<Vec<u8>>,
    ) -> crate::Result<Arc<Vec<u8>>> {
        {
            let mut inner = self.inner.lock().expect("pool lock");
            if let Some(frame) = inner.frames.get_mut(&key) {
                frame.referenced = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&frame.data));
            }
        }
        // Load outside the lock so concurrent misses on other pages are
        // not serialized behind this disk read. A racing load of the
        // same key is benign: the loser adopts the winner's frame.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(load()?);
        let mut inner = self.inner.lock().expect("pool lock");
        if let Some(frame) = inner.frames.get_mut(&key) {
            frame.referenced = true;
            return Ok(Arc::clone(&frame.data));
        }
        while inner.frames.len() >= self.budget {
            self.evict_one(&mut inner)?;
        }
        inner.frames.insert(
            key,
            Frame {
                data: Arc::clone(&data),
                referenced: true,
            },
        );
        inner.ring.push_back(key);
        Ok(data)
    }

    /// Drop every frame belonging to `store_id` (called when a paged
    /// store is closed or its spill file deleted).
    pub(crate) fn retire_store(&self, store_id: u64) {
        let mut inner = self.inner.lock().expect("pool lock");
        inner.frames.retain(|k, _| k.0 != store_id);
        // The hand only moves on eviction, so a pool that never fills
        // would keep a retired store's keys forever.
        inner.ring.retain(|k| k.0 != store_id);
    }

    fn evict_one(&self, inner: &mut Inner) -> crate::Result<()> {
        // Second-chance sweep: each resident frame is visited at most
        // twice (once to clear its bit, once to evict). Bound the walk
        // so a fully pinned pool terminates with a typed error.
        let mut sweeps = 2 * inner.ring.len() + 1;
        while sweeps > 0 {
            sweeps -= 1;
            let Some(key) = inner.ring.pop_front() else {
                break;
            };
            let Some(frame) = inner.frames.get_mut(&key) else {
                continue; // a key without a frame: nothing to evict
            };
            if frame.referenced {
                frame.referenced = false;
                inner.ring.push_back(key);
            } else if Arc::strong_count(&frame.data) == 1 {
                inner.frames.remove(&key);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            } else {
                inner.ring.push_back(key); // pinned by a reader
            }
        }
        let pinned = inner
            .frames
            .values()
            .filter(|f| Arc::strong_count(&f.data) > 1)
            .count();
        Err(McdbError::PoolExhausted {
            budget: self.budget,
            pinned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_counters() {
        let pool = BufferPool::new(2);
        for page in 0..3u32 {
            let data = pool.get((1, page), || Ok(vec![page as u8; 4])).unwrap();
            assert_eq!(data[0], page as u8);
        }
        // Page 0 was evicted (budget 2); re-reading is a miss.
        let _ = pool.get((1, 0), || Ok(vec![9; 4])).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.misses, 4);
        assert!(stats.evictions >= 2);
        assert_eq!(stats.resident, 2);
        // A resident page is a hit and does not reload.
        let _ = pool.get((1, 0), || panic!("must not reload")).unwrap();
        assert_eq!(pool.stats().hits, 1);
        assert!(pool.pressure() > 0.99);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let pool = BufferPool::new(2);
        let pin_a = pool.get((1, 0), || Ok(vec![0])).unwrap();
        let pin_b = pool.get((1, 1), || Ok(vec![1])).unwrap();
        // Pool is full and fully pinned: the next load must fail typed.
        let err = pool.get((1, 2), || Ok(vec![2])).unwrap_err();
        assert!(matches!(err, McdbError::PoolExhausted { budget: 2, .. }));
        use mde_numeric::ErrorClass as _;
        assert_eq!(err.severity(), mde_numeric::Severity::Retryable);
        // Releasing one pin makes room again.
        drop(pin_a);
        let _ = pool.get((1, 2), || Ok(vec![2])).unwrap();
        assert_eq!(pin_b[0], 1);
        // The pinned frame survived the eviction.
        let _ = pool
            .get((1, 1), || panic!("pinned frame was evicted"))
            .unwrap();
    }

    #[test]
    fn retire_store_frees_frames() {
        let pool = BufferPool::new(4);
        for page in 0..4u32 {
            let _ = pool.get((7, page), || Ok(vec![0])).unwrap();
        }
        pool.retire_store(7);
        assert_eq!(pool.stats().resident, 0);
        for page in 0..4u32 {
            let _ = pool.get((8, page), || Ok(vec![1])).unwrap();
        }
        assert_eq!(pool.stats().resident, 4);
    }

    /// A pool larger than its working set never evicts, so the clock hand
    /// never moves: retiring a store must take its ring entries with it,
    /// or every Grace spill partition ever read leaks its page keys.
    #[test]
    fn retired_stores_leave_no_ring_entries() {
        let pool = BufferPool::new(64);
        let _ = pool.get((0, 0), || Ok(vec![0])).unwrap();
        for store in 1..=10_000u64 {
            for page in 0..3u32 {
                let _ = pool.get((store, page), || Ok(vec![0])).unwrap();
            }
            pool.retire_store(store);
        }
        let inner = pool.inner.lock().unwrap();
        assert_eq!(pool.evictions.load(Ordering::Relaxed), 0);
        assert_eq!(inner.frames.len(), 1, "only store 0's frame is resident");
        assert!(
            inner.ring.len() <= inner.frames.len(),
            "ring holds {} keys for {} resident frames",
            inner.ring.len(),
            inner.frames.len()
        );
    }
}
