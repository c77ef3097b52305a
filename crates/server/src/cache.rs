//! Shared prepared-query cache keyed by catalog schema fingerprint.
//!
//! Sessions share one [`PlanCache`]: a query prepared against a given
//! catalog *shape* is reusable by every session as long as the shape
//! holds. The key pairs [`Catalog::schema_fingerprint`] with the SQL
//! text, so a DDL that swaps in a new catalog snapshot silently
//! invalidates every cached plan — stale entries can never execute
//! against a catalog whose shape moved underneath them, they just stop
//! being found.
//!
//! Eviction is FIFO at a fixed capacity; counters are atomics so the
//! hot path takes one short mutex hold for the map probe.

use mde_mcdb::prelude::{Catalog, Plan};
use mde_mcdb::query::PreparedQuery;
use mde_mcdb::sql::plan_from_sql;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache counters snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that prepared a fresh plan.
    pub misses: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, String), Arc<PreparedQuery>>,
    order: VecDeque<(u64, String)>,
}

/// A bounded, schema-fingerprint-keyed cache of prepared queries.
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// Create a cache holding at most `capacity` prepared plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Parse, plan, and prepare `sql` against `catalog`, reusing a
    /// cached plan when the catalog shape and query text match: a
    /// `probe`, and on a miss a parse and a
    /// `fill`.
    pub fn prepare(&self, catalog: &Catalog, sql: &str) -> mde_mcdb::Result<Arc<PreparedQuery>> {
        if let Some(hit) = self.probe(catalog, sql) {
            return Ok(hit);
        }
        let plan =
            plan_from_sql(sql).map_err(|e| mde_mcdb::McdbError::invalid_plan(e.to_string()))?;
        self.fill(catalog, sql, &plan)
    }

    /// The plan cached for `sql` at this catalog shape, if any; a hit is
    /// counted, a miss is counted by the [`fill`](Self::fill) that follows.
    pub(crate) fn probe(&self, catalog: &Catalog, sql: &str) -> Option<Arc<PreparedQuery>> {
        let key = (catalog.schema_fingerprint(), sql.to_string());
        let hit = Arc::clone(self.inner.lock().expect("cache lock").map.get(&key)?);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Prepare `plan`, parsed from `sql`, against `catalog` and cache it
    /// under the text and the catalog shape.
    pub(crate) fn fill(
        &self,
        catalog: &Catalog,
        sql: &str,
        plan: &Plan,
    ) -> mde_mcdb::Result<Arc<PreparedQuery>> {
        // Prepare outside the lock: planning is the expensive part and
        // two sessions racing on the same key just do the work twice.
        let prepared = Arc::new(PreparedQuery::prepare(plan, catalog)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let key = (catalog.schema_fingerprint(), sql.to_string());
        let mut inner = self.inner.lock().expect("cache lock");
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                match inner.order.pop_front() {
                    Some(old) => {
                        inner.map.remove(&old);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
            inner.order.push_back(key.clone());
            inner.map.insert(key, Arc::clone(&prepared));
        }
        Ok(prepared)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Current number of cached plans.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_mcdb::prelude::{DataType, Table, Value};

    fn catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build("t", &[("id", DataType::Int), ("x", DataType::Float)])
                .rows((0..4).map(|i| vec![Value::from(i), Value::from(i as f64)]))
                .finish()
                .unwrap(),
        );
        db
    }

    #[test]
    fn hits_on_same_shape_misses_after_ddl() {
        let cache = PlanCache::new(8);
        let db = catalog();
        let sql = "SELECT COUNT(*) AS n FROM t";
        let a = cache.prepare(&db, sql).unwrap();
        let b = cache.prepare(&db, sql).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same shape reuses the plan");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);

        // A catalog whose shape changed misses even for identical SQL.
        let mut db2 = catalog();
        db2.insert(
            Table::build("u", &[("y", DataType::Int)])
                .row(vec![Value::from(1)])
                .finish()
                .unwrap(),
        );
        let c = cache.prepare(&db2, sql).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "schema change invalidates");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let cache = PlanCache::new(2);
        let db = catalog();
        cache.prepare(&db, "SELECT COUNT(*) AS a FROM t").unwrap();
        cache.prepare(&db, "SELECT COUNT(*) AS b FROM t").unwrap();
        cache.prepare(&db, "SELECT COUNT(*) AS c FROM t").unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest entry was evicted; probing it again is a miss.
        cache.prepare(&db, "SELECT COUNT(*) AS a FROM t").unwrap();
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn parse_errors_pass_through() {
        let cache = PlanCache::new(2);
        assert!(cache.prepare(&catalog(), "SELECT FROM WHERE").is_err());
        assert!(cache.is_empty());
    }
}
