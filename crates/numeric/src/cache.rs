//! Content-addressed cross-campaign result cache with provenance.
//!
//! The paper's §2.3 observation is that simulation-driven exploration
//! revisits parameter points: calibration loops, screening designs, and
//! what-if sweeps all re-ask questions a previous campaign already
//! answered. This module turns a completed run into a durable, reusable
//! artifact:
//!
//! * [`CacheKey`] — content address of a result: the campaign's spec
//!   [`Fingerprint`](crate::checkpoint::Fingerprint) digest, the exact
//!   parameter point (as `f64` bit patterns, so `-0.0` ≠ `0.0` and every
//!   NaN payload is distinct), the replicate count, and the master seed.
//!   Two runs share a key only if they are bit-identical computations.
//! * [`CacheEntry`] — the cached payload: result values, integer
//!   side-channel (e.g. replicate indices), the deterministic
//!   [`RunReport`], and a [`Provenance`] record naming the campaign and
//!   the upstream entry hashes it was derived from.
//! * [`ResultCache`] — in-memory index plus optional on-disk persistence
//!   in the checksummed `MDECACHE1` format (FNV-1a per-entry checksums,
//!   [`write_atomic`] temp-file + fsync + rename), bounded by
//!   `max_bytes` with least-recently-used eviction.
//! * [`CacheHandle`] — the shared, cloneable front the execution surfaces
//!   carry (e.g. in `RunOptions::cache`).
//! * [`ObjectiveScope`] — per-campaign memoization helper for optimizer
//!   and screening objectives, which accumulates the upstream hashes it
//!   consulted so a final calibration result can be traced back to the
//!   exact cached runs that produced it via [`provenance_of`][p].
//!
//! The safety contract is the checkpoint codec's: a corrupt entry is
//! always a recompute, never a wrong answer. Every decode failure is a
//! typed [`CacheError`]; [`ResultCache::open_or_recover`] drops
//! undecodable entries and keeps the rest. Cache `hits`/`misses`/
//! `evictions` counters are deterministic (pure functions of the call
//! sequence) and belong in the obs ledger; lookup wall-clock latency is
//! recorded out-of-band only.
//!
//! Determinism: a cache hit replays the stored values and deterministic
//! report verbatim, so `hit ≡ recompute` bit-for-bit — enforced by
//! `tests/cache_differential.rs` in `mde-mcdb`.
//!
//! [p]: ResultCache::provenance_of

use crate::checkpoint::{decode_report, encode_report, write_atomic, CheckpointError, SaveStats};
use crate::codec::{fnv1a, put_f64s, put_str, put_u64, put_u64s, Cursor, LenPrefix, FNV_OFFSET};
use crate::resilience::RunReport;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// File magic: `MDECACHE` + format version `1`.
pub const MAGIC: [u8; 9] = *b"MDECACHE1";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of cache persistence, decoding, and validation.
///
/// All cache errors are [`Severity::Fatal`](crate::Severity::Fatal) in the
/// retry sense — re-reading a corrupt entry fails identically — but none
/// of them is fatal to the *computation*: the caching layer treats every
/// error as a miss and recomputes.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    /// The underlying filesystem operation failed.
    Io {
        /// Path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file or an entry is not decodable (bad magic, truncation, or a
    /// structurally impossible field).
    Corrupt {
        /// What the decoder tripped over.
        reason: String,
    },
    /// An entry body does not hash to its stored checksum — the file was
    /// altered or torn after it was written.
    ChecksumMismatch {
        /// Checksum stored alongside the entry.
        expected: u64,
        /// Checksum of the body as found.
        found: u64,
    },
    /// A decoded entry's identity disagrees with what the caller expected
    /// (wrong fingerprint, seed, or replicate count for the slot).
    KeyMismatch {
        /// Which identity field disagreed.
        field: &'static str,
        /// Value the caller expected.
        expected: String,
        /// Value found in the entry.
        found: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, message } => {
                write!(f, "cache I/O error at {path}: {message}")
            }
            CacheError::Corrupt { reason } => write!(f, "corrupt cache: {reason}"),
            CacheError::ChecksumMismatch { expected, found } => write!(
                f,
                "cache entry checksum mismatch: stored {expected:#018x}, body hashes to \
                 {found:#018x}"
            ),
            CacheError::KeyMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "cache {field} mismatch: caller expects {expected}, entry has {found}"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

impl crate::resilience::ErrorClass for CacheError {
    /// Cache failures are never draw-dependent: re-reading a corrupt or
    /// foreign entry fails identically every time. (The *caching layer*
    /// still recovers by recomputing — fatal here means "do not retry the
    /// read", not "abort the campaign".)
    fn severity(&self) -> crate::resilience::Severity {
        crate::resilience::Severity::Fatal
    }
}

impl From<CheckpointError> for CacheError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io { path, message } => CacheError::Io { path, message },
            CheckpointError::Corrupt { reason } => CacheError::Corrupt { reason },
            CheckpointError::ChecksumMismatch { expected, found } => {
                CacheError::ChecksumMismatch { expected, found }
            }
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => CacheError::KeyMismatch {
                field,
                expected,
                found,
            },
        }
    }
}

/// Result alias for cache operations.
pub type Result<T> = std::result::Result<T, CacheError>;

/// The error a cache [`Cursor`] fails with.
fn corrupt(reason: String) -> CacheError {
    CacheError::Corrupt { reason }
}

// ---------------------------------------------------------------------------
// Keys, provenance, entries
// ---------------------------------------------------------------------------

/// Content address of a cached result.
///
/// Everything that can change the bits of the answer participates:
/// * `spec_fingerprint` — FNV-1a digest of the campaign's spec shape
///   (model specs, query, run policy, fault plan — whatever the surface
///   folds in). Different specs never cross-hit.
/// * `param_point_bits` — the parameter point as raw `f64` bit patterns,
///   so lookup equality is bit equality, not float equality.
/// * `replicates` — replicate count; an `n = 100` aggregate is not an
///   `n = 1000` aggregate.
/// * `master_seed` — the seed; a stale-seed key must never hit.
///
/// How a run was scheduled, cut or resumed is deliberately *absent*: the
/// engine's determinism contract makes a resumed run bit-identical to an
/// uninterrupted one, so either's result is valid for the other.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Digest of the campaign spec (see
    /// [`Fingerprint`](crate::checkpoint::Fingerprint)).
    pub spec_fingerprint: u64,
    /// The parameter point, one `f64::to_bits` word per dimension.
    /// Empty for whole-campaign (non-pointwise) results.
    pub param_point_bits: Vec<u64>,
    /// Replicate count the result aggregates over.
    pub replicates: u64,
    /// Master seed of the run.
    pub master_seed: u64,
}

impl CacheKey {
    /// Key for a per-point result at parameter point `x`.
    pub fn for_point(spec_fingerprint: u64, x: &[f64], replicates: u64, master_seed: u64) -> Self {
        CacheKey {
            spec_fingerprint,
            param_point_bits: x.iter().map(|v| v.to_bits()).collect(),
            replicates,
            master_seed,
        }
    }

    /// Key for a whole-campaign result (no parameter point).
    pub fn for_campaign(spec_fingerprint: u64, replicates: u64, master_seed: u64) -> Self {
        CacheKey {
            spec_fingerprint,
            param_point_bits: Vec::new(),
            replicates,
            master_seed,
        }
    }
}

/// Where a cached result came from: the campaign that produced it and the
/// content hashes of the cached entries it was derived from. A
/// calibration result's `upstream` lists the exact MC evaluations that
/// fed it — the ProvSQL-style "why" provenance at entry granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Campaign tag of the producing surface (e.g.
    /// `"calibrate.kriging"`).
    pub campaign: String,
    /// The producing campaign's spec fingerprint (mirrors the key's).
    pub spec_fingerprint: u64,
    /// Content hashes of upstream cache entries consulted or produced
    /// while computing this result. Empty for leaf entries.
    pub upstream: Vec<u64>,
}

/// One cached result: the content-addressed key, the payload, and its
/// provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Content address.
    pub key: CacheKey,
    /// Result values (samples, objective values, or a summary vector —
    /// surface-defined).
    pub values: Vec<f64>,
    /// Integer side-channel (e.g. completed-replicate indices).
    pub ints: Vec<u64>,
    /// The deterministic run report, when the surface has one. Only the
    /// deterministic half persists (see
    /// [`encode_report`](crate::checkpoint)); out-of-band wall-clock and
    /// I/O measurements restart from zero on a hit.
    pub report: Option<RunReport>,
    /// Where this result came from.
    pub provenance: Provenance,
}

impl CacheEntry {
    /// A leaf entry (no upstream dependencies).
    pub fn leaf(key: CacheKey, campaign: &str, values: Vec<f64>) -> Self {
        let spec_fingerprint = key.spec_fingerprint;
        CacheEntry {
            key,
            values,
            ints: Vec::new(),
            report: None,
            provenance: Provenance {
                campaign: campaign.to_string(),
                spec_fingerprint,
                upstream: Vec::new(),
            },
        }
    }

    /// Content hash of this entry — the FNV-1a digest of its encoded
    /// body, which is also the per-entry checksum in the file format.
    pub fn content_hash(&self) -> u64 {
        fnv1a(FNV_OFFSET, &encode_entry_body(self))
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

fn encode_entry_body(entry: &CacheEntry) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, entry.key.spec_fingerprint);
    put_u64s(&mut body, &entry.key.param_point_bits);
    put_u64(&mut body, entry.key.replicates);
    put_u64(&mut body, entry.key.master_seed);
    put_str(&mut body, LenPrefix::U64, &entry.provenance.campaign);
    put_u64(&mut body, entry.provenance.spec_fingerprint);
    put_u64s(&mut body, &entry.provenance.upstream);
    put_f64s(&mut body, &entry.values);
    put_u64s(&mut body, &entry.ints);
    match &entry.report {
        None => body.push(0),
        Some(r) => {
            body.push(1);
            encode_report(r, &mut body);
        }
    }
    body
}

fn decode_entry_body(body: &[u8]) -> Result<CacheEntry> {
    let mut cur = Cursor::new(body, &corrupt);
    let spec_fingerprint = cur.u64()?;
    let param_point_bits = cur.u64s()?;
    let replicates = cur.u64()?;
    let master_seed = cur.u64()?;
    let campaign = cur.str(LenPrefix::U64)?.to_string();
    let prov_fingerprint = cur.u64()?;
    let upstream = cur.u64s()?;
    let values = cur.f64s()?;
    let ints = cur.u64s()?;
    let report = match cur.u8()? {
        0 => None,
        1 => Some(decode_report(&mut cur)?),
        b => return Err(cur.corrupt(format!("invalid report marker {b}"))),
    };
    if cur.remaining() != 0 {
        return Err(cur.corrupt(format!("{} trailing bytes after entry", cur.remaining())));
    }
    Ok(CacheEntry {
        key: CacheKey {
            spec_fingerprint,
            param_point_bits,
            replicates,
            master_seed,
        },
        values,
        ints,
        report,
        provenance: Provenance {
            campaign,
            spec_fingerprint: prov_fingerprint,
            upstream,
        },
    })
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

/// Deterministic cache effectiveness counters plus capacity figures,
/// snapshot via [`CacheHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a recompute.
    pub misses: u64,
    /// Entries evicted by the LRU size bound.
    pub evictions: u64,
    /// Live entries in the index.
    pub entries: u64,
    /// Sum of encoded entry sizes currently held.
    pub bytes: u64,
    /// Best-effort persists that failed (the in-memory cache stays
    /// authoritative; persistence failure never loses an answer).
    pub persist_failures: u64,
}

struct Slot {
    entry: CacheEntry,
    /// Content hash of the encoded body (= the on-disk checksum).
    hash: u64,
    /// Encoded size including the 16-byte checksum + length framing.
    bytes: u64,
    /// LRU tick of the last hit or insert.
    last_used: u64,
}

/// The cache proper: an in-memory content-addressed index with optional
/// crash-consistent persistence and an LRU size bound.
///
/// Not itself shared — wrap in a [`CacheHandle`] to hand to the execution
/// surfaces.
pub struct ResultCache {
    path: Option<PathBuf>,
    max_bytes: u64,
    slots: BTreeMap<CacheKey, Slot>,
    /// Sum of `bytes` over `slots`, kept by every insert and removal.
    bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    persist_failures: u64,
    lookup_nanos: u64,
}

/// Default on-disk budget: 64 MiB of encoded entries.
pub const DEFAULT_MAX_BYTES: u64 = 64 << 20;

impl ResultCache {
    /// A purely in-memory cache (no persistence) with the default size
    /// bound.
    pub fn in_memory() -> Self {
        ResultCache {
            path: None,
            max_bytes: DEFAULT_MAX_BYTES,
            slots: BTreeMap::new(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            persist_failures: 0,
            lookup_nanos: 0,
        }
    }

    /// Open (or create) a persistent cache at `path`, failing with a
    /// typed error on any undecodable content. Use
    /// [`open_or_recover`](ResultCache::open_or_recover) on hot paths
    /// where a corrupt entry should cost a recompute, not an error.
    pub fn open(path: &Path, max_bytes: u64) -> Result<Self> {
        Self::open_inner(path, max_bytes, true).map(|(cache, _)| cache)
    }

    /// Open `path`, silently dropping entries that fail checksum or
    /// decode — the recovery mode of the "corrupt entry is a recompute"
    /// contract. Returns the cache and the number of entries dropped.
    pub fn open_or_recover(path: &Path, max_bytes: u64) -> Result<(Self, usize)> {
        Self::open_inner(path, max_bytes, false)
    }

    fn open_inner(path: &Path, max_bytes: u64, strict: bool) -> Result<(Self, usize)> {
        let mut cache = ResultCache {
            path: Some(path.to_path_buf()),
            max_bytes,
            ..ResultCache::in_memory()
        };
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((cache, 0)),
            Err(e) => {
                return Err(CacheError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let mut dropped = 0usize;
        match cache.load_from(&bytes) {
            Ok(d) => dropped += d,
            Err(e) if strict => return Err(e),
            Err(_) => {
                // Unrecoverable framing (bad magic / torn header): start
                // empty but keep whatever entries decoded before the tear.
                dropped += 1;
            }
        }
        if strict && dropped > 0 {
            return Err(CacheError::Corrupt {
                reason: format!("{dropped} undecodable entries"),
            });
        }
        Ok((cache, dropped))
    }

    /// Decode a serialized cache image into `self.slots`. In recovery
    /// mode the caller tolerates a returned error (framing damage);
    /// per-entry damage is counted and skipped, keeping good entries.
    fn load_from(&mut self, bytes: &[u8]) -> Result<usize> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(CacheError::Corrupt {
                reason: "bad magic: not an MDECACHE1 file".into(),
            });
        }
        let mut cur = Cursor::new(&bytes[MAGIC.len()..], &corrupt);
        let n_entries = cur.u64()?;
        let mut dropped = 0usize;
        for _ in 0..n_entries {
            // Framing reads are strict: a torn length prefix ends the
            // file, and the remaining entries are unrecoverable.
            let stored = cur.u64()?;
            let len = cur.count()?;
            let body = cur.bytes(len)?;
            let found = fnv1a(FNV_OFFSET, body);
            if found != stored {
                dropped += 1;
                continue;
            }
            match decode_entry_body(body) {
                Ok(entry) => {
                    // File order is ascending last-used; re-assigning
                    // ticks in file order preserves eviction order across
                    // a save/load cycle.
                    self.tick += 1;
                    self.put(Slot {
                        hash: found,
                        bytes: 16 + len as u64,
                        last_used: self.tick,
                        entry,
                    });
                }
                Err(_) => dropped += 1,
            }
        }
        Ok(dropped)
    }

    /// Look up `key`, counting a hit or miss and bumping recency. Returns
    /// the entry and its content hash.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<(CacheEntry, u64)> {
        let t0 = Instant::now();
        let found = match self.slots.get_mut(key) {
            Some(slot) => {
                self.tick += 1;
                slot.last_used = self.tick;
                self.hits += 1;
                Some((slot.entry.clone(), slot.hash))
            }
            None => {
                self.misses += 1;
                None
            }
        };
        self.lookup_nanos += t0.elapsed().as_nanos() as u64;
        found
    }

    /// Insert `entry`, evicting least-recently-used entries while the
    /// encoded size exceeds the bound (the fresh entry itself is never
    /// evicted). Returns the entry's content hash.
    pub fn insert(&mut self, entry: CacheEntry) -> u64 {
        let body = encode_entry_body(&entry);
        let hash = fnv1a(FNV_OFFSET, &body);
        let key = entry.key.clone();
        self.tick += 1;
        self.put(Slot {
            hash,
            bytes: 16 + body.len() as u64,
            last_used: self.tick,
            entry,
        });
        while self.bytes > self.max_bytes && self.slots.len() > 1 {
            let victim = self
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    let evicted = self.slots.remove(&v).expect("victim is held");
                    self.bytes -= evicted.bytes;
                    self.evictions += 1;
                }
                None => break,
            }
        }
        hash
    }

    /// Provenance of the entry at `key`, if cached.
    pub fn provenance_of(&self, key: &CacheKey) -> Option<Provenance> {
        self.slots.get(key).map(|s| s.entry.provenance.clone())
    }

    /// Hold `slot` under its entry's key, replacing any slot already
    /// there.
    fn put(&mut self, slot: Slot) {
        self.bytes += slot.bytes;
        if let Some(old) = self.slots.insert(slot.entry.key.clone(), slot) {
            self.bytes -= old.bytes;
        }
    }

    /// Sum of encoded entry sizes currently held.
    #[cfg(test)]
    fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Deterministic counters plus capacity figures.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.slots.len() as u64,
            bytes: self.bytes,
            persist_failures: self.persist_failures,
        }
    }

    /// Nanoseconds spent in lookups so far (out-of-band measurement).
    fn lookup_nanos(&self) -> u64 {
        self.lookup_nanos
    }

    /// Serialize the full cache image. Entries are written in ascending
    /// last-used order so a reload reconstructs the same eviction order.
    /// Each entry's checksum is the content hash its slot already holds.
    fn encode(&self) -> Vec<u8> {
        let mut slots: Vec<&Slot> = self.slots.values().collect();
        slots.sort_by_key(|s| s.last_used);
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u64(&mut out, slots.len() as u64);
        for slot in slots {
            let body = encode_entry_body(&slot.entry);
            put_u64(&mut out, slot.hash);
            put_u64(&mut out, body.len() as u64);
            out.extend_from_slice(&body);
        }
        out
    }

    /// Persist the cache crash-consistently to its path, if it has one.
    /// Returns `None` for in-memory caches.
    pub fn persist(&self) -> Result<Option<SaveStats>> {
        match &self.path {
            None => Ok(None),
            Some(path) => {
                let stats = write_atomic(path, &self.encode())?;
                Ok(Some(stats))
            }
        }
    }
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("path", &self.path)
            .field("max_bytes", &self.max_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// CacheHandle
// ---------------------------------------------------------------------------

/// Shared, cloneable front over a [`ResultCache`]. This is what execution
/// surfaces carry (e.g. `RunOptions::cache`): cloning shares the same
/// underlying cache, and equality is identity (two handles are equal iff
/// they point at the same cache), which keeps `RunOptions: PartialEq`
/// meaningful.
#[derive(Clone)]
pub struct CacheHandle(Arc<Mutex<ResultCache>>);

impl CacheHandle {
    /// Wrap a cache for sharing.
    pub fn new(cache: ResultCache) -> Self {
        CacheHandle(Arc::new(Mutex::new(cache)))
    }

    /// A shared, purely in-memory cache.
    pub fn in_memory() -> Self {
        CacheHandle::new(ResultCache::in_memory())
    }

    /// Open (or create) a persistent cache at `path` in recovery mode:
    /// corrupt entries are dropped (each future lookup is a recompute),
    /// never surfaced as a wrong answer. Returns the handle and the count
    /// of dropped entries.
    pub fn open_or_recover(path: &Path, max_bytes: u64) -> Result<(Self, usize)> {
        let (cache, dropped) = ResultCache::open_or_recover(path, max_bytes)?;
        Ok((CacheHandle::new(cache), dropped))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        // A poisoned mutex means a panic elsewhere mid-operation; the
        // cache's state is still structurally valid (no partial inserts
        // escape), so keep serving rather than cascading the panic.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up `key` (counts a hit or miss).
    pub fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        self.lock().lookup(key).map(|(entry, _)| entry)
    }

    /// Look up `key`, also returning the entry's content hash for
    /// provenance tracking.
    fn get_with_hash(&self, key: &CacheKey) -> Option<(CacheEntry, u64)> {
        self.lock().lookup(key)
    }

    /// Insert an entry; returns its content hash.
    pub fn insert(&self, entry: CacheEntry) -> u64 {
        self.lock().insert(entry)
    }

    /// Insert an entry and best-effort persist the cache. A failed
    /// persist is counted in `persist_failures` and never loses the
    /// in-memory answer.
    pub fn insert_durable(&self, entry: CacheEntry) -> u64 {
        let mut cache = self.lock();
        let hash = cache.insert(entry);
        if cache.persist().is_err() {
            cache.persist_failures += 1;
        }
        hash
    }

    /// Provenance of the entry at `key`, if cached.
    pub fn provenance_of(&self, key: &CacheKey) -> Option<Provenance> {
        self.lock().provenance_of(key)
    }

    /// Deterministic counters plus capacity figures.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Persist crash-consistently (no-op `Ok(None)` for in-memory
    /// caches).
    pub fn persist(&self) -> Result<Option<SaveStats>> {
        self.lock().persist()
    }

    /// Record cache effectiveness into an obs ledger: deterministic
    /// `cache.hits` / `cache.misses` / `cache.evictions` counters (pure
    /// functions of the call sequence, so they survive the ledger's
    /// equality contract) and the out-of-band `cache.lookup` wall-clock
    /// histogram.
    pub fn record_into(&self, metrics: &mut crate::obs::RunMetrics) {
        let cache = self.lock();
        let stats = cache.stats();
        metrics.set_counter("cache.hits", stats.hits);
        metrics.set_counter("cache.misses", stats.misses);
        metrics.set_counter("cache.evictions", stats.evictions);
        metrics.observe_duration(
            "cache.lookup",
            std::time::Duration::from_nanos(cache.lookup_nanos()),
        );
    }
}

impl fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CacheHandle").field(&*self.lock()).finish()
    }
}

impl PartialEq for CacheHandle {
    /// Identity equality: handles are equal iff they share the cache.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

// ---------------------------------------------------------------------------
// ObjectiveScope
// ---------------------------------------------------------------------------

/// Per-campaign memoization scope for optimizer and screening
/// objectives.
///
/// An objective closure is opaque, so its cache identity must be supplied
/// by the caller: a campaign tag, a spec fingerprint covering everything
/// that shapes the objective's bits, the replicate count, and the master
/// seed. The scope derives [`CacheKey`]s for parameter points, memoizes
/// evaluations through the shared cache, and accumulates the content
/// hashes of every entry it consulted or produced — the `upstream` set
/// for a final result's [`Provenance`].
pub struct ObjectiveScope {
    handle: CacheHandle,
    campaign: String,
    spec_fingerprint: u64,
    replicates: u64,
    master_seed: u64,
    upstream: Vec<u64>,
}

impl ObjectiveScope {
    /// Create a scope. `spec_fingerprint` must digest everything that
    /// shapes the objective's output bits (bounds, config, model specs);
    /// two scopes with the same fingerprint and seed are asserting their
    /// objectives are bit-identical functions.
    pub fn new(
        handle: CacheHandle,
        campaign: &str,
        spec_fingerprint: u64,
        replicates: u64,
        master_seed: u64,
    ) -> Self {
        ObjectiveScope {
            handle,
            campaign: campaign.to_string(),
            spec_fingerprint,
            replicates,
            master_seed,
            upstream: Vec::new(),
        }
    }

    /// The key this scope derives for parameter point `x`.
    pub fn key(&self, x: &[f64]) -> CacheKey {
        CacheKey::for_point(self.spec_fingerprint, x, self.replicates, self.master_seed)
    }

    /// Cached values for `x`, if present (tracks the hit's hash as
    /// upstream).
    pub fn lookup(&mut self, x: &[f64]) -> Option<Vec<f64>> {
        let key = self.key(x);
        match self.handle.get_with_hash(&key) {
            Some((entry, hash)) => {
                self.upstream.push(hash);
                Some(entry.values)
            }
            None => None,
        }
    }

    /// Store freshly computed `values` for `x` (tracked as upstream).
    /// Returns the entry's content hash.
    pub fn store(&mut self, x: &[f64], values: Vec<f64>) -> u64 {
        let entry = CacheEntry::leaf(self.key(x), &self.campaign, values);
        let hash = self.handle.insert(entry);
        self.upstream.push(hash);
        hash
    }

    /// Memoize a vector-valued evaluation at `x`: return the cached
    /// values on a hit, else compute, store, and return them.
    pub fn memoize(&mut self, x: &[f64], compute: impl FnOnce() -> Vec<f64>) -> Vec<f64> {
        if let Some(values) = self.lookup(x) {
            return values;
        }
        let values = compute();
        self.store(x, values.clone());
        values
    }

    /// Memoize a scalar objective at `x`.
    pub fn memoize_scalar(&mut self, x: &[f64], compute: impl FnOnce() -> f64) -> f64 {
        self.memoize(x, || vec![compute()])[0]
    }

    /// Fingerprint of this scope's trace entry: the campaign tag folded
    /// into the objective fingerprint, so two campaigns (say GA and
    /// kriging) sharing one objective's per-point entries keep distinct
    /// traces.
    fn trace_fingerprint(&self) -> u64 {
        crate::checkpoint::Fingerprint::new(&self.campaign)
            .push_u64(self.spec_fingerprint)
            .finish()
    }

    /// Store a final derived result whose provenance lists every entry
    /// this scope consulted or produced. Keyed as a whole-campaign entry
    /// with `values` as the summary vector (e.g. best point + objective).
    /// Returns the trace entry's content hash.
    pub fn store_trace(&self, values: Vec<f64>) -> u64 {
        let key =
            CacheKey::for_campaign(self.trace_fingerprint(), self.replicates, self.master_seed);
        let entry = CacheEntry {
            key,
            values,
            ints: Vec::new(),
            report: None,
            provenance: Provenance {
                campaign: self.campaign.clone(),
                spec_fingerprint: self.spec_fingerprint,
                upstream: self.upstream.clone(),
            },
        };
        self.handle.insert(entry)
    }

    /// The trace key [`store_trace`](ObjectiveScope::store_trace) writes
    /// under, for [`provenance_of`](CacheHandle::provenance_of) queries.
    pub fn trace_key(&self) -> CacheKey {
        CacheKey::for_campaign(self.trace_fingerprint(), self.replicates, self.master_seed)
    }

    /// Upstream hashes consulted or produced so far.
    pub fn upstream(&self) -> &[u64] {
        &self.upstream
    }

    /// The shared cache this scope memoizes through.
    pub fn handle(&self) -> &CacheHandle {
        &self.handle
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{ErrorClass as _, Severity};

    fn entry(seed: u64, x: &[f64], values: Vec<f64>) -> CacheEntry {
        CacheEntry::leaf(
            CacheKey::for_point(0xABCD, x, 8, seed),
            "test.campaign",
            values,
        )
    }

    fn entry_with_report(seed: u64) -> CacheEntry {
        let mut e = entry(seed, &[1.5, -0.0], vec![3.25, 4.5]);
        e.ints = vec![0, 1, 2];
        let mut report = RunReport::new();
        report.attempted = 3;
        report.succeeded = 3;
        report.metrics.inc("mc.completed");
        report.metrics.observe("mc.sample", 3.25);
        e.report = Some(report);
        e.provenance.upstream = vec![0xDEAD, 0xBEEF];
        e
    }

    #[test]
    fn roundtrip_entry_codec() {
        let e = entry_with_report(42);
        let body = encode_entry_body(&e);
        let back = decode_entry_body(&body).expect("decode");
        assert_eq!(back, e);
        assert_eq!(back.content_hash(), e.content_hash());
    }

    #[test]
    fn hit_requires_exact_key() {
        let cache = CacheHandle::in_memory();
        cache.insert(entry(42, &[1.0, 2.0], vec![7.0]));
        assert!(cache
            .get(&CacheKey::for_point(0xABCD, &[1.0, 2.0], 8, 42))
            .is_some());
        // Stale seed never hits.
        assert!(cache
            .get(&CacheKey::for_point(0xABCD, &[1.0, 2.0], 8, 43))
            .is_none());
        // Foreign fingerprint never hits.
        assert!(cache
            .get(&CacheKey::for_point(0xABCE, &[1.0, 2.0], 8, 42))
            .is_none());
        // Different replicate count never hits.
        assert!(cache
            .get(&CacheKey::for_point(0xABCD, &[1.0, 2.0], 9, 42))
            .is_none());
        // Bit-level point equality: -0.0 is not 0.0.
        cache.insert(entry(42, &[0.0], vec![1.0]));
        assert!(cache
            .get(&CacheKey::for_point(0xABCD, &[-0.0], 8, 42))
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn lru_eviction_respects_recency_and_spares_fresh_entry() {
        let mut cache = ResultCache::in_memory();
        // Size each entry and bound the cache to hold roughly three.
        let probe = encode_entry_body(&entry(1, &[1.0], vec![1.0])).len() as u64 + 16;
        cache.max_bytes = probe * 3 + probe / 2;
        cache.insert(entry(1, &[1.0], vec![1.0]));
        cache.insert(entry(2, &[2.0], vec![2.0]));
        cache.insert(entry(3, &[3.0], vec![3.0]));
        // Touch entry 1 so entry 2 is now least recently used.
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[1.0], 8, 1))
            .is_some());
        cache.insert(entry(4, &[4.0], vec![4.0]));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 3);
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[2.0], 8, 2))
            .is_none());
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[1.0], 8, 1))
            .is_some());
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[4.0], 8, 4))
            .is_some());
    }

    #[test]
    fn byte_total_is_the_sum_of_slot_sizes_after_every_step() {
        crate::rng::for_cases(64, |rng| {
            let probe = encode_entry_body(&entry(0, &[0.0], vec![0.0; 3])).len() as u64 + 16;
            let mut cache = ResultCache::in_memory();
            cache.max_bytes = probe * rng.gen_range(1..5);
            let held = |c: &ResultCache| c.slots.values().map(|s| s.bytes).sum::<u64>();
            for _ in 0..40 {
                // Six keys, so most inserts replace a slot of the same key
                // with a different size; the small bound forces evictions.
                let k = rng.gen_range(0..6u64);
                if rng.gen::<f64>() < 0.25 {
                    cache.lookup(&CacheKey::for_point(0xABCD, &[k as f64], 8, k));
                } else {
                    let values = vec![1.0; rng.gen_range(0..7)];
                    cache.insert(entry(k, &[k as f64], values));
                }
                assert_eq!(cache.stats().bytes, held(&cache));
            }
            let mut reloaded = ResultCache::in_memory();
            assert_eq!(reloaded.load_from(&cache.encode()).expect("replay"), 0);
            assert_eq!(reloaded.stats().bytes, held(&reloaded));
            assert_eq!(reloaded.stats().bytes, cache.stats().bytes);
        });
    }

    #[test]
    fn persist_and_reload_preserves_entries_and_lru_order() {
        let dir = std::env::temp_dir().join(format!("mde_cache_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("reload.mdecache");
        let _ = std::fs::remove_file(&path);
        {
            let mut cache = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect("open");
            cache.insert(entry_with_report(1));
            cache.insert(entry(2, &[2.0], vec![2.0]));
            cache.insert(entry(3, &[3.0], vec![3.0]));
            // Bump entry 2 so persisted recency order is 1 < 3 < 2.
            cache.lookup(&CacheKey::for_point(0xABCD, &[2.0], 8, 2));
            cache.persist().expect("persist");
        }
        let mut cache = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect("reopen");
        assert_eq!(cache.stats().entries, 3);
        let hit = cache
            .lookup(&CacheKey::for_point(0xABCD, &[1.5, -0.0], 8, 1))
            .expect("entry with report survives");
        assert_eq!(hit.0, entry_with_report(1));
        // Shrink the budget and insert: entry 3 (older than the bumped
        // entry 2) must be the first eviction — recency order survived
        // the save/load cycle. Entry 1 was just touched by the lookup.
        let probe = encode_entry_body(&entry(9, &[9.0], vec![9.0])).len() as u64 + 16;
        cache.max_bytes = cache.total_bytes() + probe / 2;
        cache.insert(entry(9, &[9.0], vec![9.0]));
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[3.0], 8, 3))
            .is_none());
        assert!(cache
            .lookup(&CacheKey::for_point(0xABCD, &[2.0], 8, 2))
            .is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = std::env::temp_dir().join(format!("mde_cache_flip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flip.mdecache");
        {
            let mut cache = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect("open");
            cache.insert(entry_with_report(7));
            cache.persist().expect("persist");
        }
        let good = std::fs::read(&path).expect("read");
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).expect("write");
            // Strict open must fail (typed), never panic or return the
            // altered entry as valid.
            match ResultCache::open(&path, DEFAULT_MAX_BYTES) {
                Ok(cache) => {
                    // A flip in the (unchecksummed) entry-count header
                    // may decode as "zero entries": acceptable only if
                    // the altered entry is NOT served.
                    assert_eq!(
                        cache.stats().entries,
                        0,
                        "flip at byte {pos} produced a served entry"
                    );
                }
                Err(
                    CacheError::Corrupt { .. }
                    | CacheError::ChecksumMismatch { .. }
                    | CacheError::Io { .. },
                ) => {}
                Err(other) => panic!("flip at byte {pos}: unexpected error {other}"),
            }
            // Recovery mode never errors on body damage and never serves
            // the damaged entry.
            if let Ok((cache, _dropped)) = ResultCache::open_or_recover(&path, DEFAULT_MAX_BYTES) {
                if let Some((e, _)) = CacheHandle::new(cache).lock().lookup(&CacheKey::for_point(
                    0xABCD,
                    &[1.5, -0.0],
                    8,
                    7,
                )) {
                    assert_eq!(
                        e,
                        entry_with_report(7),
                        "flip at byte {pos} served altered data"
                    );
                }
            }
        }
        std::fs::write(&path, &good).expect("restore");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_is_typed_and_recoverable() {
        let dir = std::env::temp_dir().join(format!("mde_cache_trunc_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trunc.mdecache");
        {
            let mut cache = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect("open");
            cache.insert(entry(1, &[1.0], vec![1.0]));
            cache.insert(entry_with_report(2));
            cache.persist().expect("persist");
        }
        let good = std::fs::read(&path).expect("read");
        for keep in 0..good.len() {
            std::fs::write(&path, &good[..keep]).expect("write");
            if let Ok(cache) = ResultCache::open(&path, DEFAULT_MAX_BYTES) {
                assert_eq!(cache.stats().entries, 0, "truncate at {keep}");
            }
            // Recovery keeps any fully intact prefix entries.
            let (cache, _) =
                ResultCache::open_or_recover(&path, DEFAULT_MAX_BYTES).expect("recover");
            assert!(cache.stats().entries <= 2);
        }
        std::fs::write(&path, &good).expect("restore");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn objective_scope_memoizes_and_traces_provenance() {
        let handle = CacheHandle::in_memory();
        let mut scope = ObjectiveScope::new(handle.clone(), "calibrate.test", 0x1234, 4, 99);
        let mut evals = 0;
        let mut f = |x: &[f64]| {
            evals += 1;
            x[0] * 2.0
        };
        let a = scope.memoize_scalar(&[3.0], || f(&[3.0]));
        let b = scope.memoize_scalar(&[3.0], || f(&[3.0]));
        scope.memoize_scalar(&[5.0], || f(&[5.0]));
        assert_eq!(a, 6.0);
        assert_eq!(a, b);
        assert_eq!(evals, 2, "second evaluation of [3.0] must be a hit");
        let trace = scope.store_trace(vec![3.0, 6.0]);
        let prov = handle
            .provenance_of(&scope.trace_key())
            .expect("trace provenance");
        assert_eq!(prov.campaign, "calibrate.test");
        // Upstream: store(3.0), hit(3.0), store(5.0).
        assert_eq!(prov.upstream.len(), 3);
        assert_eq!(prov.upstream[0], prov.upstream[1]);
        assert_ne!(trace, prov.upstream[0]);
        // A different seed's scope shares nothing.
        let mut other = ObjectiveScope::new(handle.clone(), "calibrate.test", 0x1234, 4, 100);
        assert!(other.lookup(&[3.0]).is_none());
    }

    #[test]
    fn errors_are_fatal_and_convert_from_checkpoint() {
        let e: CacheError = CheckpointError::Mismatch {
            field: "fingerprint",
            expected: "1".into(),
            found: "2".into(),
        }
        .into();
        assert!(matches!(
            e,
            CacheError::KeyMismatch {
                field: "fingerprint",
                ..
            }
        ));
        assert_eq!(e.severity(), Severity::Fatal);
        let c: CacheError = CheckpointError::Corrupt { reason: "x".into() }.into();
        assert!(matches!(c, CacheError::Corrupt { .. }));
        assert!(c.to_string().contains("corrupt"));
    }
}
