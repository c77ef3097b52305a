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
//!   in the `MDECACHE2` format, bounded by `max_bytes` with
//!   least-recently-used eviction. The file is the magic followed by one
//!   sealed segment (`len ‖ body ‖ checksum64(body)`) per persist, holding
//!   only what changed since the one before: the entries inserted and
//!   still live, the content hashes of the entries that left, and the
//!   recency order of every slot used. A persist appends its segment with
//!   [`append_durable`] and does no I/O when nothing changed. The file is
//!   rewritten whole as one segment, through [`write_atomic`], when it is
//!   new, was read as `MDECACHE1` (still readable, never written), ended
//!   in a torn segment, is not the length this cache last wrote, or holds
//!   more dead bytes than live ones. The crash window is the last
//!   segment: a torn or damaged one is dropped whole.
//! * [`CacheHandle`] — the shared, cloneable front the execution surfaces
//!   carry (e.g. in `RunOptions::cache`).
//! * [`ObjectiveScope`] — per-campaign memoization helper for optimizer
//!   and screening objectives, which accumulates the upstream hashes it
//!   consulted so a final calibration result can be traced back to the
//!   exact cached runs that produced it via [`provenance_of`][p].
//!
//! A slot holds its entry's encoded body, never a decoded entry. Opening a
//! file reads it once into one shared image, verifies every seal, walks
//! every entry body field by field without building anything, and indexes
//! each entry by a digest of its key; a slot's body is a range of that
//! image. A hit confirms its key against the leading words of the body and
//! decodes only what its caller takes: an [`ObjectiveScope`] lookup the
//! values, [`CacheHandle::get`] the whole entry, [`provenance_of`][p] the
//! provenance. A persist copies the bodies it writes.
//!
//! The safety contract is the checkpoint codec's: a corrupt entry is
//! always a recompute, never a wrong answer. Every decode failure is a
//! typed [`CacheError`], raised at open: the walk fails exactly where a
//! whole decode would. [`ResultCache::open_or_recover`] drops a damaged
//! segment and every one after it (an `MDECACHE1` entry at a time) and
//! keeps the state the segments before it left. Cache `hits`/`misses`/
//! `evictions` counters are deterministic (pure functions of the call
//! sequence) and belong in the obs ledger; lookup wall-clock latency is
//! recorded out-of-band only.
//!
//! Determinism: a cache hit replays the stored values and deterministic
//! report verbatim, so `hit ≡ recompute` bit-for-bit — enforced by
//! `tests/cache_differential.rs` in `mde-mcdb`.
//!
//! [p]: ResultCache::provenance_of

use crate::checkpoint::{
    append_durable, decode_report, encode_report, write_atomic, CheckpointError, SaveStats,
};
use crate::codec::{
    fnv1a, put_f64s, put_sealed, put_str, put_u64, put_u64s, Cursor, LenPrefix, FNV_OFFSET,
};
use crate::resilience::RunReport;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// File magic of what this build writes: `MDECACHE` + format version `2`.
pub const MAGIC: [u8; 9] = *b"MDECACHE2";

/// File magic of the first layout, which a current build reads and never
/// writes.
const MAGIC_V1: [u8; 9] = *b"MDECACHE1";

/// The layout of an opened file, fixed by its magic.
enum Version {
    /// `MDECACHE1`: an entry count, then `fnv1a ‖ len ‖ body` per entry in
    /// ascending recency, the whole image rewritten on every persist.
    V1,
    /// `MDECACHE2`: sealed segments, one per persist.
    V2,
}

impl Version {
    fn of(bytes: &[u8]) -> Option<Version> {
        match bytes.get(..MAGIC.len())? {
            m if m == MAGIC => Some(Version::V2),
            m if m == MAGIC_V1 => Some(Version::V1),
            _ => None,
        }
    }
}

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
    /// An entry body (`MDECACHE1`) or a segment (`MDECACHE2`) does not
    /// sum to its stored checksum — the file was altered or torn after it
    /// was written.
    ChecksumMismatch {
        /// Checksum stored alongside the entry or segment.
        expected: u64,
        /// Checksum of the bytes as found.
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

/// A key as a lookup probes for it: the fields of a [`CacheKey`], with the
/// point borrowed as bit patterns or as the floats they came from, so a
/// lookup builds no key.
#[derive(Clone, Copy)]
struct Probe<'a> {
    spec_fingerprint: u64,
    point: Point<'a>,
    replicates: u64,
    master_seed: u64,
}

#[derive(Clone, Copy)]
enum Point<'a> {
    Bits(&'a [u64]),
    Floats(&'a [f64]),
}

impl Point<'_> {
    fn len(self) -> usize {
        match self {
            Point::Bits(b) => b.len(),
            Point::Floats(f) => f.len(),
        }
    }

    fn word(self, i: usize) -> u64 {
        match self {
            Point::Bits(b) => b[i],
            Point::Floats(f) => f[i].to_bits(),
        }
    }
}

impl<'a> Probe<'a> {
    fn of(key: &'a CacheKey) -> Self {
        Probe {
            spec_fingerprint: key.spec_fingerprint,
            point: Point::Bits(&key.param_point_bits),
            replicates: key.replicates,
            master_seed: key.master_seed,
        }
    }

    /// The key's words as an entry body begins with them:
    /// `spec_fingerprint ‖ n ‖ point[..n] ‖ replicates ‖ master_seed`.
    fn words(self) -> impl Iterator<Item = u64> + 'a {
        let n = self.point.len();
        [self.spec_fingerprint, n as u64]
            .into_iter()
            .chain((0..n).map(move |i| self.point.word(i)))
            .chain([self.replicates, self.master_seed])
    }

    /// Whether the held `body` is this key's entry.
    fn is_key_of(self, body: &[u8]) -> bool {
        self.words().eq(le_words(key_bytes(body)))
    }
}

/// Digest of a key's words (see [`Probe::words`]): what the index is
/// keyed by. Each step is a bijection of the state for a fixed word and of
/// the word for a fixed state, so keys of one length that differ in one
/// word never collide; any two keys may, and the index holds both.
fn key_digest(words: impl Iterator<Item = u64>) -> u64 {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED_DIGEST.with(std::cell::Cell::get) {
        return forced;
    }
    words.fold(0x243F_6A88_85A3_08D3, |h, w| {
        (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
    })
}

/// The leading words of a walked entry body that encode its key.
fn key_bytes(body: &[u8]) -> &[u8] {
    let n = u64::from_le_bytes(body[8..16].try_into().expect("a walked body holds its key"));
    &body[..8 * (4 + n as usize)]
}

/// Little-endian `u64` words of `raw`, whose length is a multiple of 8.
fn le_words(raw: &[u8]) -> impl Iterator<Item = u64> + '_ {
    raw.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")))
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
    /// body. The file stores it beside the body, so opening a file does
    /// not recompute it.
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
    let key = CacheKey {
        spec_fingerprint: cur.u64()?,
        param_point_bits: cur.u64s()?,
        replicates: cur.u64()?,
        master_seed: cur.u64()?,
    };
    let provenance = decode_provenance(&mut cur)?;
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
        key,
        values,
        ints,
        report,
        provenance,
    })
}

fn decode_provenance(cur: &mut Cursor<'_, CacheError>) -> Result<Provenance> {
    Ok(Provenance {
        campaign: cur.str(LenPrefix::U64)?.to_string(),
        spec_fingerprint: cur.u64()?,
        upstream: cur.u64s()?,
    })
}

/// The raw words of what [`put_u64s`] wrote, read as [`Cursor::u64s`]
/// reads them.
fn words<'a>(cur: &mut Cursor<'a, CacheError>) -> Result<&'a [u8]> {
    let n = cur.count()?;
    cur.bytes(n.saturating_mul(8))
}

/// Check an entry body without building anything: every read
/// [`decode_entry_body`] makes, in its order, so it fails exactly where
/// and as that does.
fn walk_entry_body(body: &[u8]) -> Result<()> {
    let mut cur = Cursor::new(body, &corrupt);
    cur.u64()?;
    words(&mut cur)?;
    cur.u64()?;
    cur.u64()?;
    skip_provenance(&mut cur)?;
    words(&mut cur)?;
    words(&mut cur)?;
    match cur.u8()? {
        0 => {}
        1 => walk_report(&mut cur)?,
        b => return Err(cur.corrupt(format!("invalid report marker {b}"))),
    }
    if cur.remaining() != 0 {
        return Err(cur.corrupt(format!("{} trailing bytes after entry", cur.remaining())));
    }
    Ok(())
}

fn skip_provenance(cur: &mut Cursor<'_, CacheError>) -> Result<()> {
    cur.str(LenPrefix::U64)?;
    cur.u64()?;
    words(cur)?;
    Ok(())
}

/// [`decode_report`]'s reads, building nothing.
fn walk_report(cur: &mut Cursor<'_, CacheError>) -> Result<()> {
    for _ in 0..5 {
        cur.count()?;
    }
    cur.u8()?;
    for _ in 0..cur.count()? {
        cur.u64()?;
        cur.u64()?;
        match cur.u8()? {
            0..=2 => {}
            other => return Err(cur.corrupt(format!("unknown failure kind tag {other}"))),
        }
        cur.str(LenPrefix::U64)?;
    }
    for _ in 0..cur.count()? {
        cur.str(LenPrefix::U64)?;
        cur.u64()?;
    }
    for _ in 0..cur.count()? {
        cur.str(LenPrefix::U64)?;
        cur.u64()?;
        cur.u64()?;
        cur.u64()?;
        for _ in 0..cur.count()? {
            cur.u64()?;
            cur.u64()?;
        }
    }
    Ok(())
}

/// Why a read of a held body cannot fail.
const WALKED: &str = "a held entry body was walked when it was loaded or encoded";

/// A cursor over a held body, just past its key.
fn after_key(body: &[u8]) -> Cursor<'_, CacheError> {
    Cursor::new(&body[key_bytes(body).len()..], &corrupt)
}

fn held_entry(body: &[u8]) -> CacheEntry {
    decode_entry_body(body).expect(WALKED)
}

fn held_provenance(body: &[u8]) -> Provenance {
    decode_provenance(&mut after_key(body)).expect(WALKED)
}

fn held_values(body: &[u8]) -> Vec<f64> {
    let mut cur = after_key(body);
    skip_provenance(&mut cur)
        .and_then(|()| cur.f64s())
        .expect(WALKED)
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
    /// The buffer holding the entry's encoded body: the image of the file
    /// it was loaded from, or the body `insert` encoded.
    buf: Arc<Vec<u8>>,
    /// Where the body sits in `buf`: walked when it was loaded, or
    /// encoded by `insert`.
    body: Range<usize>,
    /// Content hash of the encoded body.
    hash: u64,
    /// LRU tick of the last hit or insert. No two slots share one.
    last_used: u64,
    /// Tick of the insert that made this slot.
    born: u64,
}

impl Slot {
    fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }

    /// Size of the entry's record in a segment: the body plus its 16-byte
    /// hash and length.
    fn bytes(&self) -> u64 {
        16 + self.body.len() as u64
    }
}

/// The slots whose keys share a digest: one, and more only when distinct
/// keys collide.
struct Bucket {
    slot: Slot,
    more: Vec<Slot>,
}

impl Bucket {
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        std::iter::once(&self.slot).chain(&self.more)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot> {
        std::iter::once(&mut self.slot).chain(&mut self.more)
    }

    /// Hold `slot`, returning the slot of the same key it replaced.
    fn put(&mut self, slot: Slot) -> Option<Slot> {
        let key = key_bytes(slot.body());
        let held = self.iter_mut().find(|s| key_bytes(s.body()) == key);
        match held {
            Some(held) => Some(std::mem::replace(held, slot)),
            None => {
                self.more.push(slot);
                None
            }
        }
    }
}

/// The cache proper: an in-memory content-addressed index with optional
/// crash-consistent persistence and an LRU size bound.
///
/// Not itself shared — wrap in a [`CacheHandle`] to hand to the execution
/// surfaces.
pub struct ResultCache {
    path: Option<PathBuf>,
    max_bytes: u64,
    /// Key digest → the slots of the keys with that digest.
    index: HashMap<u64, Bucket>,
    /// Number of slots in `index`.
    entries: usize,
    /// Sum of `bytes()` over the slots, kept by every insert and removal.
    bytes: u64,
    tick: u64,
    /// `tick` when the file last matched the cache: a slot born after it
    /// is not on disk yet, and one used after it has a recency the file
    /// does not hold yet.
    persisted_tick: u64,
    /// Content hashes of the entries on disk that were evicted or replaced
    /// since the last persist.
    dead: Vec<u64>,
    /// Length of the file as this cache last read or wrote it; `None`
    /// when the next persist rewrites it whole.
    file_len: Option<u64>,
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
            index: HashMap::new(),
            entries: 0,
            bytes: 0,
            tick: 0,
            persisted_tick: 0,
            dead: Vec::new(),
            file_len: None,
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

    /// Open `path`, silently dropping what fails checksum or decode — the
    /// recovery mode of the "corrupt entry is a recompute" contract: the
    /// first damaged segment and everything after it, or each damaged
    /// `MDECACHE1` entry. Returns the cache and the number of drops (one
    /// for a damaged tail or an unreadable file). The next persist
    /// rewrites a file that lost anything.
    pub fn open_or_recover(path: &Path, max_bytes: u64) -> Result<(Self, usize)> {
        Self::open_inner(path, max_bytes, false)
    }

    fn open_inner(path: &Path, max_bytes: u64, strict: bool) -> Result<(Self, usize)> {
        let mut cache = ResultCache {
            path: Some(path.to_path_buf()),
            max_bytes,
            ..ResultCache::in_memory()
        };
        let image = match std::fs::read(path) {
            Ok(b) => Arc::new(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((cache, 0)),
            Err(e) => {
                return Err(CacheError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let dropped = match cache.load_from(&image) {
            Ok(d) => d,
            Err(e) if strict => return Err(e),
            // A bad magic, or a damaged segment: keep what the segments
            // before it left.
            Err(_) => 1,
        };
        if strict && dropped > 0 {
            return Err(CacheError::Corrupt {
                reason: format!("{dropped} undecodable entries"),
            });
        }
        cache.persisted_tick = cache.tick;
        Ok((cache, dropped))
    }

    /// Index a cache file's entries, whose slots hold ranges of `image`. A
    /// returned error leaves the state the file held before the damage,
    /// which the recovery mode keeps; `MDECACHE1` per-entry damage is
    /// counted and skipped instead. Only an undamaged `MDECACHE2` file is
    /// one the next persist appends to.
    fn load_from(&mut self, image: &Arc<Vec<u8>>) -> Result<usize> {
        let version = Version::of(image).ok_or_else(|| CacheError::Corrupt {
            reason: "bad magic: not an MDECACHE file".into(),
        })?;
        let cur = Cursor::new(&image[MAGIC.len()..], &corrupt);
        match version {
            Version::V1 => self.load_v1(image, cur),
            Version::V2 => {
                self.replay(image, cur)?;
                self.file_len = Some(image.len() as u64);
                Ok(0)
            }
        }
    }

    /// A slot for `body`, a walked entry body inside `image`, made at the
    /// next tick.
    fn slot_in(&mut self, image: &Arc<Vec<u8>>, body: &[u8], hash: u64) -> (u64, Slot) {
        let start = body.as_ptr() as usize - image.as_ptr() as usize;
        self.tick += 1;
        let slot = Slot {
            buf: Arc::clone(image),
            body: start..start + body.len(),
            hash,
            last_used: self.tick,
            born: self.tick,
        };
        (key_digest(le_words(key_bytes(body))), slot)
    }

    /// Replay `MDECACHE2` segments in file order, each whole or not at
    /// all; the first that does not read or verify ends the replay with
    /// its error.
    fn replay(&mut self, image: &Arc<Vec<u8>>, mut cur: Cursor<'_, CacheError>) -> Result<()> {
        // Content hash → key digest of every live slot, for the segments'
        // dead and recency lists.
        let mut digests: HashMap<u64, u64> = HashMap::new();
        let mut records = Vec::new();
        while cur.remaining() > 0 {
            let body =
                cur.sealed(|expected, found| CacheError::ChecksumMismatch { expected, found })?;
            let (dead, recency) = walk_segment(body, &mut records)?;
            for hash in le_words(dead) {
                if let Some(digest) = digests.remove(&hash) {
                    self.remove(digest, |s| s.hash == hash);
                }
            }
            for &(hash, body) in &records {
                let (digest, slot) = self.slot_in(image, body, hash);
                if let Some(old) = self.put(digest, slot) {
                    digests.remove(&old.hash);
                }
                digests.insert(hash, digest);
            }
            for hash in le_words(recency) {
                let slot = digests
                    .get(&hash)
                    .and_then(|d| self.index.get_mut(d))
                    .and_then(|b| b.iter_mut().find(|s| s.hash == hash));
                if let Some(slot) = slot {
                    self.tick += 1;
                    slot.last_used = self.tick;
                }
            }
        }
        Ok(())
    }

    /// Read an `MDECACHE1` image. Framing damage is an error; an entry that
    /// fails its checksum or walk is counted and skipped.
    fn load_v1(&mut self, image: &Arc<Vec<u8>>, mut cur: Cursor<'_, CacheError>) -> Result<usize> {
        let n_entries = cur.u64()?;
        let mut dropped = 0usize;
        for _ in 0..n_entries {
            // Framing reads are strict: a torn length prefix ends the
            // file, and the remaining entries are unrecoverable.
            let stored = cur.u64()?;
            let len = cur.count()?;
            let body = cur.bytes(len)?;
            let found = fnv1a(FNV_OFFSET, body);
            if found != stored || walk_entry_body(body).is_err() {
                dropped += 1;
                continue;
            }
            // File order is ascending last-used; re-assigning ticks in
            // file order preserves eviction order across a save/load
            // cycle.
            let (digest, slot) = self.slot_in(image, body, found);
            self.put(digest, slot);
        }
        Ok(dropped)
    }

    /// Look up `probe`, counting a hit or miss and bumping recency; a hit
    /// returns what `read` takes from its body, and its content hash.
    fn lookup_with<T>(
        &mut self,
        probe: Probe<'_>,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Option<(T, u64)> {
        let t0 = Instant::now();
        let slot = self
            .index
            .get_mut(&key_digest(probe.words()))
            .and_then(|b| b.iter_mut().find(|s| probe.is_key_of(s.body())));
        let found = match slot {
            Some(slot) => {
                self.tick += 1;
                slot.last_used = self.tick;
                self.hits += 1;
                Some((read(slot.body()), slot.hash))
            }
            None => {
                self.misses += 1;
                None
            }
        };
        self.lookup_nanos += t0.elapsed().as_nanos() as u64;
        found
    }

    /// Look up `key`, counting a hit or miss and bumping recency. Returns
    /// the entry and its content hash.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<(CacheEntry, u64)> {
        self.lookup_with(Probe::of(key), held_entry)
    }

    /// Insert `entry`, evicting least-recently-used entries while the
    /// encoded size exceeds the bound (the fresh entry itself is never
    /// evicted). Returns the entry's content hash.
    pub fn insert(&mut self, entry: CacheEntry) -> u64 {
        let body = encode_entry_body(&entry);
        let hash = fnv1a(FNV_OFFSET, &body);
        let image = Arc::new(body);
        let (digest, slot) = self.slot_in(&image, &image, hash);
        if let Some(old) = self.put(digest, slot) {
            self.bury(&old);
        }
        while self.bytes > self.max_bytes && self.entries > 1 {
            // The fresh slot holds the newest tick, so with another slot
            // held it is never the least recently used.
            let victim = self
                .index
                .iter()
                .flat_map(|(&digest, b)| b.iter().map(move |s| (s.last_used, digest)))
                .min();
            let Some((last_used, digest)) = victim else {
                break;
            };
            let evicted = self
                .remove(digest, |s| s.last_used == last_used)
                .expect("victim is held");
            self.evictions += 1;
            self.bury(&evicted);
        }
        hash
    }

    /// Provenance of the entry at `key`, if cached.
    pub fn provenance_of(&self, key: &CacheKey) -> Option<Provenance> {
        let probe = Probe::of(key);
        let slot = self
            .index
            .get(&key_digest(probe.words()))?
            .iter()
            .find(|s| probe.is_key_of(s.body()))?;
        Some(held_provenance(slot.body()))
    }

    /// Hold `slot` under `digest`, its key's, returning the slot of the
    /// same key it replaced.
    fn put(&mut self, digest: u64, slot: Slot) -> Option<Slot> {
        self.bytes += slot.bytes();
        let old = match self.index.entry(digest) {
            Entry::Vacant(v) => {
                v.insert(Bucket {
                    slot,
                    more: Vec::new(),
                });
                None
            }
            Entry::Occupied(o) => o.into_mut().put(slot),
        };
        match &old {
            Some(old) => self.bytes -= old.bytes(),
            None => self.entries += 1,
        }
        old
    }

    /// Take out the slot under `digest` that `pick` selects, if any.
    fn remove(&mut self, digest: u64, pick: impl Fn(&Slot) -> bool) -> Option<Slot> {
        let Entry::Occupied(mut o) = self.index.entry(digest) else {
            return None;
        };
        let bucket = o.get_mut();
        let slot = if pick(&bucket.slot) {
            match bucket.more.pop() {
                Some(next) => std::mem::replace(&mut bucket.slot, next),
                None => o.remove().slot,
            }
        } else {
            let i = bucket.more.iter().position(pick)?;
            bucket.more.swap_remove(i)
        };
        self.bytes -= slot.bytes();
        self.entries -= 1;
        Some(slot)
    }

    /// Every held slot, in no particular order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.index.values().flat_map(Bucket::iter)
    }

    /// Note that `slot` left the cache: if the file holds it, the next
    /// segment lists it as dead.
    fn bury(&mut self, slot: &Slot) {
        if slot.born <= self.persisted_tick {
            self.dead.push(slot.hash);
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
            entries: self.entries as u64,
            bytes: self.bytes,
            persist_failures: self.persist_failures,
        }
    }

    /// Nanoseconds spent in lookups so far (out-of-band measurement).
    fn lookup_nanos(&self) -> u64 {
        self.lookup_nanos
    }

    /// The sealed segment that brings a file holding this cache as of
    /// tick `since` up to date: `dead`, then each entry born after `since`
    /// (its content hash, length and body), then the content hashes of
    /// every slot used after `since` in ascending recency. Replay ticks
    /// the entries in the order written, and they are written in recency
    /// order, so the recency list is left empty when it would name only
    /// them.
    fn segment(&self, since: u64, dead: &[u64]) -> Vec<u8> {
        let mut used: Vec<&Slot> = self.slots().filter(|s| s.last_used > since).collect();
        used.sort_unstable_by_key(|s| s.last_used);
        let born: Vec<&Slot> = used.iter().copied().filter(|s| s.born > since).collect();
        let mut body = Vec::new();
        put_u64s(&mut body, dead);
        put_u64(&mut body, born.len() as u64);
        for slot in &born {
            put_u64(&mut body, slot.hash);
            put_u64(&mut body, slot.body.len() as u64);
            body.extend_from_slice(slot.body());
        }
        let recency: Vec<u64> = if born.len() == used.len() {
            Vec::new()
        } else {
            used.iter().map(|s| s.hash).collect()
        };
        put_u64s(&mut body, &recency);
        let mut out = Vec::with_capacity(body.len() + 16);
        put_sealed(&mut out, &body);
        out
    }

    /// The whole file for this cache: the magic and one segment holding
    /// every live entry in ascending recency.
    fn image(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&self.segment(0, &[]));
        out
    }

    /// Persist the cache crash-consistently to its path, if it has one:
    /// append a segment of what changed since the last persist, or
    /// rewrite the file whole (see the module docs for when). Returns
    /// `None` for in-memory caches and when nothing changed. A failed
    /// persist leaves the next one to rewrite the file.
    pub fn persist(&mut self) -> Result<Option<SaveStats>> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        if self.file_len.is_some() && self.dead.is_empty() && self.tick == self.persisted_tick {
            return Ok(None);
        }
        match self.write(path) {
            Ok((stats, len)) => {
                self.file_len = Some(len);
                self.persisted_tick = self.tick;
                self.dead.clear();
                Ok(Some(stats))
            }
            Err(e) => {
                self.file_len = None;
                Err(e.into())
            }
        }
    }

    /// Write what [`persist`](ResultCache::persist) writes; returns its
    /// cost and the file's new length.
    fn write(&self, path: &Path) -> std::result::Result<(SaveStats, u64), CheckpointError> {
        if let Some(len) = self.file_len {
            let segment = self.segment(self.persisted_tick, &self.dead);
            let grown = len + segment.len() as u64;
            // Every byte after the magic that is not a live entry's record
            // is dead.
            if grown - MAGIC.len() as u64 <= 2 * self.bytes {
                if let Some(stats) = append_durable(path, len, &segment)? {
                    return Ok((stats, grown));
                }
            }
        }
        let image = self.image();
        Ok((write_atomic(path, &image)?, image.len() as u64))
    }
}

/// Walk one `MDECACHE2` segment body (see [`ResultCache::segment`]) whole,
/// every entry body included, before any of it is applied. Its entries go
/// to `records` as `(content hash, body)` in the order written; its dead
/// and recency lists are returned as raw words.
fn walk_segment<'a>(
    body: &'a [u8],
    records: &mut Vec<(u64, &'a [u8])>,
) -> Result<(&'a [u8], &'a [u8])> {
    records.clear();
    let mut cur = Cursor::new(body, &corrupt);
    let dead = words(&mut cur)?;
    for _ in 0..cur.count()? {
        let hash = cur.u64()?;
        let len = cur.count()?;
        let entry = cur.bytes(len)?;
        walk_entry_body(entry)?;
        records.push((hash, entry));
    }
    let recency = words(&mut cur)?;
    if cur.remaining() != 0 {
        return Err(cur.corrupt(format!("{} trailing bytes after segment", cur.remaining())));
    }
    Ok((dead, recency))
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

    /// Persist crash-consistently (no-op `Ok(None)` for in-memory caches
    /// and when nothing changed since the last persist).
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
        let probe = Probe {
            spec_fingerprint: self.spec_fingerprint,
            point: Point::Floats(x),
            replicates: self.replicates,
            master_seed: self.master_seed,
        };
        let (values, hash) = self.handle.lock().lookup_with(probe, held_values)?;
        self.upstream.push(hash);
        Some(values)
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

    thread_local! {
        /// When set, the digest every key gets on this thread, so that
        /// every key collides with every other.
        pub(super) static FORCED_DIGEST: std::cell::Cell<Option<u64>> =
            const { std::cell::Cell::new(None) };
    }

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
            let held = |c: &ResultCache| c.slots().map(Slot::bytes).sum::<u64>();
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
            assert_eq!(
                reloaded
                    .load_from(&Arc::new(cache.image()))
                    .expect("replay"),
                0
            );
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

    /// A key from a small pool, so inserts replace and lookups hit.
    fn pooled_key(rng: &mut crate::rng::Rng) -> CacheKey {
        let point: Vec<f64> = (0..rng.gen_range(0..3usize))
            .map(|_| [0.5, -0.0, 2.0][rng.gen_range(0..3usize)])
            .collect();
        CacheKey::for_point(
            [0xA1, 0xB2][rng.gen_range(0..2usize)],
            &point,
            4,
            rng.gen_range(0..3u64),
        )
    }

    fn pooled_entry(rng: &mut crate::rng::Rng) -> CacheEntry {
        let key = pooled_key(rng);
        let values = (0..rng.gen_range(0..6usize))
            .map(|_| rng.gen::<f64>())
            .collect();
        let mut e = CacheEntry::leaf(key, "golden.insert", values);
        e.ints = (0..rng.gen_range(0..3u64)).collect();
        e.provenance.upstream = (0..rng.gen_range(0..3usize)).map(|_| rng.gen()).collect();
        if rng.gen::<f64>() < 0.4 {
            let mut report = RunReport::new();
            report.attempted = rng.gen_range(1..9usize);
            report.succeeded = report.attempted - 1;
            report.failures.push(crate::resilience::FailureRecord {
                replicate: rng.gen_range(0..8u64),
                attempt: 0,
                kind: crate::resilience::FailureKind::NonFinite,
                message: "nan — at replicate".into(),
            });
            report.metrics.add("mc.completed", report.succeeded as u64);
            report.metrics.observe("mc.sample", rng.gen::<f64>());
            e.report = Some(report);
        }
        e
    }

    /// Digest of everything a caller can observe of the cache over a seeded
    /// sequence of inserts (with and without reports), lookups through
    /// `get`, an `ObjectiveScope` and `provenance_of`, replacements,
    /// evictions under a small bound, persists (appends and rewrites) and
    /// reopens: the stats after each step, every returned entry's encoding,
    /// and the file after each persist.
    fn observable_digest(name: &str) -> u64 {
        let dir = std::env::temp_dir().join(format!("mde_cache_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{name}.mdecache"));
        let _ = std::fs::remove_file(&path);
        let mut rng = crate::rng::rng_from_seed(0x60_1D);
        let max_bytes = 2_400;
        let mut handle = CacheHandle::new(ResultCache::open(&path, max_bytes).expect("open"));
        let mut digest = FNV_OFFSET;
        let fold = |digest: &mut u64, bytes: &[u8]| *digest = fnv1a(*digest, bytes);
        let (mut rewrites, mut last_len) = (0, 0);
        for step in 0..400 {
            let op = rng.gen_range(0..100u32);
            match op {
                0..=34 => {
                    let e = pooled_entry(&mut rng);
                    let hash = if op < 5 {
                        handle.insert_durable(e)
                    } else {
                        handle.insert(e)
                    };
                    fold(&mut digest, &hash.to_le_bytes());
                }
                35..=54 => {
                    let found = handle.get(&pooled_key(&mut rng));
                    fold(
                        &mut digest,
                        &found.map_or(vec![2], |e| encode_entry_body(&e)),
                    );
                }
                55..=74 => {
                    let key = pooled_key(&mut rng);
                    let x: Vec<f64> = key
                        .param_point_bits
                        .iter()
                        .map(|&b| f64::from_bits(b))
                        .collect();
                    let mut scope = ObjectiveScope::new(
                        handle.clone(),
                        "golden.scope",
                        key.spec_fingerprint,
                        key.replicates,
                        key.master_seed,
                    );
                    let v = scope.memoize(&x, || vec![step as f64, 0.25]);
                    fold(&mut digest, &f64s_bytes(&v));
                    fold(
                        &mut digest,
                        &f64s_bytes(&scope.lookup(&x).unwrap_or_default()),
                    );
                    let trace = scope.store_trace(vec![step as f64]);
                    fold(&mut digest, &trace.to_le_bytes());
                    let prov = handle.provenance_of(&scope.trace_key());
                    fold(&mut digest, format!("{prov:?}").as_bytes());
                }
                75..=84 => {
                    let prov = handle.provenance_of(&pooled_key(&mut rng));
                    fold(&mut digest, format!("{prov:?}").as_bytes());
                }
                85..=94 => {
                    let saved = handle.persist().expect("persist").is_some();
                    let file = std::fs::read(&path).unwrap_or_default();
                    if saved && file.len() < last_len {
                        rewrites += 1;
                    }
                    last_len = file.len();
                    fold(&mut digest, &file);
                }
                _ => {
                    drop(handle);
                    let (cache, dropped) =
                        ResultCache::open_or_recover(&path, max_bytes).expect("reopen");
                    assert_eq!(dropped, 0, "step {step}");
                    handle = CacheHandle::new(cache);
                }
            }
            fold(&mut digest, format!("{:?}", handle.stats()).as_bytes());
        }
        let stats = handle.stats();
        assert!(stats.evictions > 0 && stats.hits > 0 && stats.misses > 0);
        assert!(rewrites > 0, "no persist rewrote the file");
        let _ = std::fs::remove_file(&path);
        digest
    }

    fn f64s_bytes(v: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        put_f64s(&mut out, v);
        out
    }

    /// The digest of [`observable_digest`] as the cache computed it when it
    /// decoded every entry at open and held decoded entries. Never
    /// regenerate it: a change must reproduce it.
    const OBSERVABLE_GOLDEN: u64 = 0x503c_912c_4034_b5ed;

    #[test]
    fn observable_behaviour_matches_its_golden_digest() {
        assert_eq!(observable_digest("plain"), OBSERVABLE_GOLDEN);
    }

    /// With every key's digest the same, the index holds each key apart
    /// by its words: the same sequence gives the same golden.
    #[test]
    fn observable_behaviour_is_the_same_when_every_key_collides() {
        FORCED_DIGEST.with(|d| d.set(Some(0x5EED)));
        let digest = observable_digest("collide");
        FORCED_DIGEST.with(|d| d.set(None));
        assert_eq!(digest, OBSERVABLE_GOLDEN);
    }

    /// The walk at open refuses exactly the bodies a whole decode refuses,
    /// with the same error: every cut and random byte changes of bodies
    /// with and without reports.
    #[test]
    fn the_walk_fails_exactly_where_the_decode_fails() {
        let bodies = [
            encode_entry_body(&entry_with_report(3)),
            encode_entry_body(&entry(4, &[], vec![])),
        ];
        let agree = |bytes: &[u8]| {
            assert_eq!(
                walk_entry_body(bytes).err(),
                decode_entry_body(bytes).err(),
                "{bytes:?}"
            );
        };
        for body in &bodies {
            for keep in 0..=body.len() {
                agree(&body[..keep]);
            }
        }
        crate::rng::for_cases(2_000, |rng| {
            let mut bad = bodies[rng.gen_range(0..2usize)].clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bad.len());
                bad[at] = [0, 1, 2, 3, 7, 9, 0x80, 0xFF, rng.gen::<u64>() as u8]
                    [rng.gen_range(0..9usize)];
            }
            agree(&bad);
        });
    }

    /// An entry body laid out by hand, field by field, so a test can put a
    /// bad value where the encoder never would: `report` is appended after
    /// the marker byte as given, and `values_count` overrides the values'
    /// count word.
    fn hand_body(marker: u8, report: &[u8], values_count: Option<u64>) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, 0xABCD);
        put_u64s(&mut body, &[1.0f64.to_bits()]);
        put_u64(&mut body, 8);
        put_u64(&mut body, 5);
        put_str(&mut body, LenPrefix::U64, "test.campaign");
        put_u64(&mut body, 0xABCD);
        put_u64s(&mut body, &[]);
        put_u64(&mut body, values_count.unwrap_or(2));
        put_u64(&mut body, 1.5f64.to_bits());
        put_u64(&mut body, 2.5f64.to_bits());
        put_u64s(&mut body, &[]);
        body.push(marker);
        body.extend_from_slice(report);
        body
    }

    /// Entry bodies that no encoder writes, each with the error the cache
    /// has always refused it with.
    fn malformed_bodies() -> Vec<(&'static str, Vec<u8>, CacheError)> {
        let corrupt = |reason: &str| CacheError::Corrupt {
            reason: reason.into(),
        };
        let mut bad_tag = Vec::new();
        for count in [1, 1, 0, 0, 0] {
            put_u64(&mut bad_tag, count);
        }
        bad_tag.push(0);
        put_u64(&mut bad_tag, 1);
        put_u64(&mut bad_tag, 0);
        put_u64(&mut bad_tag, 0);
        bad_tag.push(9);
        put_str(&mut bad_tag, LenPrefix::U64, "boom");
        put_u64(&mut bad_tag, 0);
        put_u64(&mut bad_tag, 0);
        let mut trailing = hand_body(0, &[], None);
        trailing.extend_from_slice(&[1, 2, 3]);
        vec![
            (
                "report marker 7",
                hand_body(7, &[], None),
                corrupt("invalid report marker 7"),
            ),
            (
                "failure-kind tag 9",
                hand_body(1, &bad_tag, None),
                corrupt("unknown failure kind tag 9"),
            ),
            (
                "count past the end",
                hand_body(0, &[], Some(1 << 20)),
                corrupt("length 1048576 exceeds 25 remaining bytes"),
            ),
            (
                "trailing bytes",
                trailing,
                corrupt("3 trailing bytes after entry"),
            ),
        ]
    }

    /// One `MDECACHE2` segment holding `bodies` as new entries.
    fn segment_of(bodies: &[&[u8]]) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64s(&mut body, &[]);
        put_u64(&mut body, bodies.len() as u64);
        for b in bodies {
            put_u64(&mut body, fnv1a(FNV_OFFSET, b));
            put_u64(&mut body, b.len() as u64);
            body.extend_from_slice(b);
        }
        put_u64s(&mut body, &[]);
        let mut out = Vec::new();
        put_sealed(&mut out, &body);
        out
    }

    /// A sealed segment whose checksum verifies but which holds a malformed
    /// entry is refused at open, with the entry's typed error: strict open
    /// returns it, and recovery drops that segment and keeps the ones
    /// before it. An `MDECACHE1` file drops just the entry.
    #[test]
    fn a_sealed_but_malformed_entry_is_refused_at_open() {
        let dir = std::env::temp_dir().join(format!("mde_cache_malformed_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("malformed.mdecache");
        let good = encode_entry_body(&entry_with_report(1));
        let later = encode_entry_body(&entry(2, &[2.0], vec![2.0]));
        let good_key = CacheKey::for_point(0xABCD, &[1.5, -0.0], 8, 1);
        for (what, bad, expected) in malformed_bodies() {
            let mut file = MAGIC.to_vec();
            file.extend_from_slice(&segment_of(&[&good]));
            file.extend_from_slice(&segment_of(&[&later, &bad]));
            std::fs::write(&path, &file).expect("write");
            let err = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect_err(what);
            assert_eq!(err, expected, "{what}");
            let (mut cache, dropped) =
                ResultCache::open_or_recover(&path, DEFAULT_MAX_BYTES).expect(what);
            assert_eq!((dropped, cache.stats().entries), (1, 1), "{what}");
            let (hit, _) = cache.lookup(&good_key).expect(what);
            assert_eq!(hit, entry_with_report(1), "{what}");

            let mut v1 = MAGIC_V1.to_vec();
            put_u64(&mut v1, 3);
            for body in [&good, &bad, &later] {
                put_u64(&mut v1, fnv1a(FNV_OFFSET, body));
                put_u64(&mut v1, body.len() as u64);
                v1.extend_from_slice(body);
            }
            std::fs::write(&path, &v1).expect("write");
            let err = ResultCache::open(&path, DEFAULT_MAX_BYTES).expect_err(what);
            assert_eq!(
                err,
                CacheError::Corrupt {
                    reason: "1 undecodable entries".into()
                },
                "{what}"
            );
            let (mut cache, dropped) =
                ResultCache::open_or_recover(&path, DEFAULT_MAX_BYTES).expect(what);
            assert_eq!((dropped, cache.stats().entries), (1, 2), "{what}");
            assert!(cache.lookup(&good_key).is_some(), "{what}");
            assert!(
                cache
                    .lookup(&CacheKey::for_point(0xABCD, &[2.0], 8, 2))
                    .is_some(),
                "{what}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
