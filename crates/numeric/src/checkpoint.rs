//! Durable campaign checkpoints: crash-consistent persistence of
//! long-running simulation campaigns.
//!
//! The paper's workloads are *campaigns*, not calls: thousands of Monte
//! Carlo replicates (§2), iterative calibration loops (§3), sequential
//! screening experiments (§4). A killed process must not lose the
//! campaign, and a wall-clock budget must be able to stop one early with
//! its progress intact. This module provides the shared persistence layer
//! every execution surface builds on:
//!
//! * [`CampaignState`] — the serializable snapshot of a supervised
//!   campaign: campaign tag, seed/spec [`fingerprint`](Fingerprint),
//!   master seed, progress cursor, the completed-replicate ledger, the
//!   accumulated [`RunReport`], and two surface-specific payload slots.
//! * A versioned binary layout (magic `MDECKPT2`, FNV-1a checksum
//!   header) written and read with [`crate::codec`] — no external
//!   serialization dependency, and every decode failure is a typed
//!   [`CheckpointError`], never a panic.
//! * Crash-consistent [`CampaignState::save_ledgered`]: write to a temporary
//!   sibling, `fsync` the file, atomically rename over the destination,
//!   then `fsync` the directory — a reader observes either the old or the
//!   new checkpoint, never a torn one.
//! * [`CampaignState::start_or_resume`] — the one way every surface
//!   begins a run: fresh at boundary 0, or from
//!   [`RunOptions::resume`](crate::resilience::RunOptions::resume) after
//!   [`CampaignState::validate`] has rejected a state whose campaign tag or
//!   seed/spec fingerprint does not match, so a checkpoint can never
//!   silently resume the wrong campaign.
//!
//! Because every adopting surface derives its random streams as a pure
//! function of `(master_seed, boundary_index)`, resuming from a checkpoint
//! reproduces the uninterrupted run bit for bit: same estimates, same RNG
//! draw order, same failure ledger.

use crate::codec::{fnv1a, put_f64s, put_str, put_u64, put_u64s, Cursor, LenPrefix, FNV_OFFSET};
use crate::resilience::{FailureKind, FailureRecord, RunReport};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one crash-consistent [`write_atomic`] or [`append_durable`]
/// cost: the encoded size and the latency of the durability syscalls.
/// These are out-of-band measurements — callers record them via
/// [`RunMetrics::add_io`](crate::obs::RunMetrics::add_io) /
/// [`observe_duration`](crate::obs::RunMetrics::observe_duration), never
/// in deterministic state.
#[derive(Debug, Clone, Copy)]
pub struct SaveStats {
    /// Bytes written (header + body).
    pub bytes: u64,
    /// Wall-clock time of the temp-file `fsync` (of the `fdatasync`, for
    /// an append).
    pub fsync: Duration,
    /// Wall-clock time of the atomic rename plus the parent-directory
    /// sync (zero for an append).
    pub rename: Duration,
}

impl SaveStats {
    /// Fold this save into a ledger's out-of-band section: `ckpt.bytes`
    /// and `ckpt.saves` I/O counters, `ckpt.fsync` and `ckpt.rename`
    /// duration histograms. Out-of-band by construction — none of it
    /// enters equality, fingerprints, or resumed state.
    pub fn record_into(&self, metrics: &mut crate::obs::RunMetrics) {
        metrics.add_io("ckpt.bytes", self.bytes);
        metrics.add_io("ckpt.saves", 1);
        metrics.observe_duration("ckpt.fsync", self.fsync);
        metrics.observe_duration("ckpt.rename", self.rename);
    }
}

/// Write `bytes` to `path` crash-consistently: write to a temp sibling,
/// `fsync` it, atomically rename over the destination, then best-effort
/// sync the parent directory so the rename itself is durable. Readers
/// observe either the old file or the complete new one, never a torn
/// intermediate. This is the durability discipline shared by campaign
/// checkpoints and the paged table store in `mde-mcdb`.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<SaveStats> {
    let io_err = |e: std::io::Error, p: &Path| CheckpointError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let fsync;
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(e, &tmp))?;
        f.write_all(bytes).map_err(|e| io_err(e, &tmp))?;
        let t0 = Instant::now();
        f.sync_all().map_err(|e| io_err(e, &tmp))?;
        fsync = t0.elapsed();
    }
    let t0 = Instant::now();
    fs::rename(&tmp, path).map_err(|e| io_err(e, path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Durability of the rename requires the directory entry to hit
        // disk too; best-effort on platforms where directories cannot
        // be opened for sync.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(SaveStats {
        bytes: bytes.len() as u64,
        fsync,
        rename: t0.elapsed(),
    })
}

/// Append `bytes` to `path` durably if the file is `expected_len` bytes
/// long: open it for append, check its length, write, then `fdatasync`
/// (the data and the new length). `Ok(None)` when the file is missing or
/// of another length: nothing is written, and the caller rewrites the
/// whole file with [`write_atomic`] instead. A crash mid-append leaves the
/// old bytes followed by a prefix of `bytes`, so what is appended must be
/// recognisable when cut short (the cache's sealed segments are).
pub fn append_durable(path: &Path, expected_len: u64, bytes: &[u8]) -> Result<Option<SaveStats>> {
    let io_err = |e: std::io::Error| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut f = match fs::OpenOptions::new().append(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    if f.metadata().map_err(io_err)?.len() != expected_len {
        return Ok(None);
    }
    f.write_all(bytes).map_err(io_err)?;
    let t0 = Instant::now();
    f.sync_data().map_err(io_err)?;
    Ok(Some(SaveStats {
        bytes: bytes.len() as u64,
        fsync: t0.elapsed(),
        rename: Duration::ZERO,
    }))
}

/// File magic: `MDECKPT` + format version `2`.
///
/// Version history: `1` — original layout; `2` — adds the report's
/// `shed` counter after `dropped`. Version-1 checkpoints fail decoding
/// with a bad-magic error, which surfaces as the fatal
/// [`CheckpointError::Corrupt`] — the safe behavior, since a pre-shed
/// ledger cannot be distinguished from one that shed zero replicates.
pub const MAGIC: [u8; 8] = *b"MDECKPT2";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed failures of checkpoint persistence, decoding, and validation.
///
/// All checkpoint errors are [`Severity::Fatal`](crate::Severity::Fatal):
/// a corrupt or mismatched checkpoint will not repair itself on retry —
/// the caller must fall back to a fresh run (or an older checkpoint).
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io {
        /// Path involved.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// The file is not a decodable checkpoint (bad magic, truncation,
    /// or a structurally impossible field).
    Corrupt {
        /// What the decoder tripped over.
        reason: String,
    },
    /// The body does not hash to the stored checksum — the file was
    /// altered or torn after it was written.
    ChecksumMismatch {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum of the body as found.
        found: u64,
    },
    /// The checkpoint belongs to a different campaign (wrong tag, or a
    /// seed/spec fingerprint that does not match the resuming campaign).
    Mismatch {
        /// Which identity field disagreed (`"campaign"`, `"fingerprint"`).
        field: &'static str,
        /// Value the resuming campaign expected.
        expected: String,
        /// Value found in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error at {path}: {message}")
            }
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#018x}, body hashes to \
                 {found:#018x}"
            ),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {field} mismatch: campaign expects {expected}, checkpoint has {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl crate::resilience::ErrorClass for CheckpointError {
    /// Checkpoint failures are never draw-dependent: re-reading a corrupt
    /// or foreign checkpoint fails identically every time.
    fn severity(&self) -> crate::resilience::Severity {
        crate::resilience::Severity::Fatal
    }
}

/// Result alias for checkpoint operations.
pub type Result<T> = std::result::Result<T, CheckpointError>;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a accumulator for campaign fingerprints: a stable 64-bit digest of
/// a campaign's identity (tag, seed, replicate count, spec shape) that a
/// checkpoint must match before a resume is allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Start a fingerprint from a campaign tag.
    pub fn new(tag: &str) -> Self {
        Fingerprint(fnv1a(FNV_OFFSET, tag.as_bytes()))
    }

    /// Absorb a 64-bit integer.
    pub fn push_u64(self, v: u64) -> Self {
        Fingerprint(fnv1a(self.0, &v.to_le_bytes()))
    }

    /// Absorb a float (by bit pattern, so `-0.0` and `0.0` differ and NaN
    /// payloads are covered).
    pub fn push_f64(self, v: f64) -> Self {
        self.push_u64(v.to_bits())
    }

    /// Absorb a string (length-prefixed, so concatenations cannot
    /// collide).
    pub fn push_str(self, s: &str) -> Self {
        Fingerprint(fnv1a(
            fnv1a(self.0, &(s.len() as u64).to_le_bytes()),
            s.as_bytes(),
        ))
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Campaign state
// ---------------------------------------------------------------------------

/// The serializable snapshot of a durable campaign, written at replicate /
/// step / generation boundaries and handed back to the same surface through
/// [`RunOptions::resuming`](crate::resilience::RunOptions::resuming).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignState {
    /// Which execution surface wrote this checkpoint (e.g.
    /// `"mcdb.monte-carlo"`); resume refuses a foreign tag.
    pub campaign: String,
    /// Digest of the campaign identity (seed, replicate count, spec
    /// shape); resume refuses a mismatch.
    pub fingerprint: u64,
    /// The campaign's master seed.
    pub master_seed: u64,
    /// Boundaries planned in total (`0` for open-ended campaigns such as
    /// sequential bifurcation, whose round count is data-dependent).
    pub total: u64,
    /// Boundaries completed: the resumed run continues at this index.
    pub cursor: u64,
    /// Completed-replicate ledger: `(boundary index, payload)` for every
    /// boundary whose result must survive the crash (samples, filter
    /// steps). Surfaces that only need a running aggregate leave it empty
    /// and use [`CampaignState::floats`] / [`CampaignState::ints`].
    pub completed: Vec<(u64, Vec<f64>)>,
    /// The failure ledger accumulated over `[0, cursor)`.
    pub report: RunReport,
    /// Surface-specific float payload (GA population, incumbent best,
    /// probe cache values, …).
    pub floats: Vec<f64>,
    /// Surface-specific integer payload (evaluation counters, work
    /// queues, cache keys, …).
    pub ints: Vec<u64>,
}

impl CampaignState {
    /// A fresh state at cursor 0.
    pub fn new(
        campaign: impl Into<String>,
        fingerprint: u64,
        master_seed: u64,
        total: u64,
    ) -> Self {
        CampaignState {
            campaign: campaign.into(),
            fingerprint,
            master_seed,
            total,
            ..CampaignState::default()
        }
    }

    /// The state a run of the campaign identified by `(campaign,
    /// fingerprint)` continues from: `resume` once it
    /// [`validate`](CampaignState::validate)s, else a fresh state at cursor
    /// 0. Every durable surface starts here.
    pub fn start_or_resume(
        resume: Option<&CampaignState>,
        campaign: &str,
        fingerprint: u64,
        master_seed: u64,
        total: u64,
    ) -> Result<Self> {
        match resume {
            Some(state) => {
                state.validate(campaign, fingerprint)?;
                Ok(state.clone())
            }
            None => Ok(CampaignState::new(
                campaign,
                fingerprint,
                master_seed,
                total,
            )),
        }
    }

    /// Check that this checkpoint belongs to the campaign identified by
    /// `(campaign, fingerprint)`; a mismatch is a typed error, so a
    /// checkpoint can never silently resume the wrong campaign.
    pub fn validate(&self, campaign: &str, fingerprint: u64) -> Result<()> {
        if self.campaign != campaign {
            return Err(CheckpointError::Mismatch {
                field: "campaign",
                expected: campaign.to_string(),
                found: self.campaign.clone(),
            });
        }
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::Mismatch {
                field: "fingerprint",
                expected: format!("{fingerprint:#018x}"),
                found: format!("{:#018x}", self.fingerprint),
            });
        }
        Ok(())
    }

    // -- binary codec -------------------------------------------------------

    /// Encode to the on-disk byte layout: magic, FNV-1a checksum of the
    /// body, then the length-prefixed body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(128 + 8 * self.completed.len());
        put_str(&mut body, LenPrefix::U64, &self.campaign);
        put_u64(&mut body, self.fingerprint);
        put_u64(&mut body, self.master_seed);
        put_u64(&mut body, self.total);
        put_u64(&mut body, self.cursor);
        encode_report(&self.report, &mut body);
        // Completed ledger.
        put_u64(&mut body, self.completed.len() as u64);
        for (idx, payload) in &self.completed {
            put_u64(&mut body, *idx);
            put_f64s(&mut body, payload);
        }
        put_f64s(&mut body, &self.floats);
        put_u64s(&mut body, &self.ints);

        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&fnv1a(FNV_OFFSET, &body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode from the on-disk byte layout, verifying magic and checksum.
    pub fn decode(bytes: &[u8]) -> Result<CampaignState> {
        if bytes.len() < 16 {
            return Err(CheckpointError::Corrupt {
                reason: format!("file is {} bytes, header needs 16", bytes.len()),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::Corrupt {
                reason: "bad magic: not an MDE checkpoint".into(),
            });
        }
        let expected = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let body = &bytes[16..];
        let found = fnv1a(FNV_OFFSET, body);
        if expected != found {
            return Err(CheckpointError::ChecksumMismatch { expected, found });
        }

        let corrupt = |reason| CheckpointError::Corrupt { reason };
        let mut cur = Cursor::new(body, &corrupt);
        let campaign = cur.str(LenPrefix::U64)?.to_string();
        let fingerprint = cur.u64()?;
        let master_seed = cur.u64()?;
        let total = cur.u64()?;
        let cursor = cur.u64()?;
        let report = decode_report(&mut cur)?;
        let n_completed = cur.count()?;
        let mut completed = Vec::with_capacity(n_completed.min(1 << 20));
        for _ in 0..n_completed {
            let idx = cur.u64()?;
            let payload = cur.f64s()?;
            completed.push((idx, payload));
        }
        let floats = cur.f64s()?;
        let ints = cur.u64s()?;
        if cur.remaining() != 0 {
            return Err(cur.corrupt(format!(
                "{} trailing bytes after a well-formed body",
                cur.remaining()
            )));
        }
        Ok(CampaignState {
            campaign,
            fingerprint,
            master_seed,
            total,
            cursor,
            completed,
            report,
            floats,
            ints,
        })
    }

    // -- crash-consistent persistence ---------------------------------------

    /// Persist crash-consistently: encode, write to a temporary sibling,
    /// `fsync` it, atomically rename over `path`, then `fsync` the parent
    /// directory so the rename itself is durable. A crash at any point
    /// leaves either the previous checkpoint or this one — never a torn
    /// file.
    ///
    /// How much was written and how long the durability syscalls took go
    /// into this state's own [`RunMetrics`](crate::obs::RunMetrics)
    /// ledger, in its *out-of-band* section: bytes and latencies vary run
    /// to run, so they never enter fingerprints, equality, or resumed
    /// state. What [`CampaignState::commit`]'s cadence and a run's final
    /// seal call.
    pub fn save_ledgered(&mut self, path: &Path) -> Result<()> {
        let stats = write_atomic(path, &self.encode())?;
        stats.record_into(&mut self.report.metrics);
        Ok(())
    }

    /// Load and fully verify a checkpoint from disk (magic, checksum,
    /// structural decode). Identity is checked by the surface it is handed
    /// to, in [`CampaignState::start_or_resume`].
    pub fn load(path: &Path) -> Result<CampaignState> {
        let bytes = fs::read(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        CampaignState::decode(&bytes)
    }
}

/// Serialize a [`RunReport`] into a codec body — counts, failure ledger,
/// and the **deterministic** half of the metrics ledger only. Out-of-band
/// wall-clock/I/O measurements never persist, so a resumed (or
/// cache-replayed) run restarts them from zero without affecting report
/// equality. Shared by the checkpoint and result-cache codecs.
pub(crate) fn encode_report(report: &RunReport, body: &mut Vec<u8>) {
    put_u64(body, report.attempted as u64);
    put_u64(body, report.succeeded as u64);
    put_u64(body, report.retried as u64);
    put_u64(body, report.dropped as u64);
    put_u64(body, report.shed as u64);
    body.push(report.ci_widened as u8);
    put_u64(body, report.failures.len() as u64);
    for fr in &report.failures {
        put_u64(body, fr.replicate);
        put_u64(body, fr.attempt as u64);
        body.push(match fr.kind {
            FailureKind::Panic => 0,
            FailureKind::Error => 1,
            FailureKind::NonFinite => 2,
        });
        put_str(body, LenPrefix::U64, &fr.message);
    }
    let metrics = &report.metrics;
    put_u64(body, metrics.counter_entries().count() as u64);
    for (name, v) in metrics.counter_entries() {
        put_str(body, LenPrefix::U64, name);
        put_u64(body, v);
    }
    put_u64(body, metrics.histogram_entries().count() as u64);
    for (name, h) in metrics.histogram_entries() {
        put_str(body, LenPrefix::U64, name);
        put_u64(body, h.nonfinite());
        // Option<f64> with a NaN sentinel: observed extrema are
        // always finite, so NaN is unambiguous.
        put_u64(body, h.min().unwrap_or(f64::NAN).to_bits());
        put_u64(body, h.max().unwrap_or(f64::NAN).to_bits());
        put_u64(body, h.raw_buckets().count() as u64);
        for (key, count) in h.raw_buckets() {
            put_u64(body, key as u64);
            put_u64(body, count);
        }
    }
}

/// Inverse of [`encode_report`]; every overrun or impossible field is the
/// cursor's error.
pub(crate) fn decode_report<E>(cur: &mut Cursor<'_, E>) -> std::result::Result<RunReport, E> {
    let mut report = RunReport::new();
    report.attempted = cur.count()?;
    report.succeeded = cur.count()?;
    report.retried = cur.count()?;
    report.dropped = cur.count()?;
    report.shed = cur.count()?;
    report.ci_widened = cur.u8()? != 0;
    let n_failures = cur.count()?;
    for _ in 0..n_failures {
        let replicate = cur.u64()?;
        let attempt = cur.u64()? as u32;
        let kind = match cur.u8()? {
            0 => FailureKind::Panic,
            1 => FailureKind::Error,
            2 => FailureKind::NonFinite,
            other => return Err(cur.corrupt(format!("unknown failure kind tag {other}"))),
        };
        let message = cur.str(LenPrefix::U64)?.to_string();
        report.failures.push(FailureRecord {
            replicate,
            attempt,
            kind,
            message,
        });
    }
    let n_counters = cur.count()?;
    for _ in 0..n_counters {
        let name = cur.str(LenPrefix::U64)?;
        let v = cur.u64()?;
        report.metrics.set_counter(name, v);
    }
    let n_hists = cur.count()?;
    for _ in 0..n_hists {
        let name = cur.str(LenPrefix::U64)?;
        let nonfinite = cur.u64()?;
        let min = Some(cur.f64()?).filter(|v| !v.is_nan());
        let max = Some(cur.f64()?).filter(|v| !v.is_nan());
        let n_buckets = cur.count()?;
        let mut buckets = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            let key = cur.u64()? as i64;
            let count = cur.u64()?;
            buckets.push((key, count));
        }
        report.metrics.set_histogram(
            name,
            crate::obs::Histogram::from_raw(buckets, nonfinite, min, max),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{ErrorClass as _, Severity};

    fn sample_state() -> CampaignState {
        let mut s = CampaignState::new("test.campaign", 0xDEAD_BEEF, 42, 100);
        s.cursor = 7;
        s.completed = vec![(0, vec![1.5]), (1, vec![f64::NAN, -0.0]), (6, vec![])];
        s.report.attempted = 7;
        s.report.succeeded = 6;
        s.report.dropped = 1;
        s.report.ci_widened = true;
        s.report.failures.push(FailureRecord {
            replicate: 3,
            attempt: 0,
            kind: FailureKind::Panic,
            message: "boom — unicode too: ∞".into(),
        });
        s.floats = vec![3.25, f64::INFINITY];
        s.ints = vec![9, u64::MAX];
        s.report.metrics.add("replicates.attempted", 7);
        s.report.metrics.observe("mc.sample", 1.5);
        s.report.metrics.observe("mc.sample", -20.0);
        s.report.metrics.observe("mc.sample", f64::NAN);
        // Out-of-band entries must NOT survive the codec.
        s.report.metrics.add_io("ckpt.bytes", 4096);
        s.report
            .metrics
            .observe_duration("mc.replicate", Duration::from_millis(3));
        s
    }

    #[test]
    fn roundtrip_preserves_everything_including_nan_bits() {
        let s = sample_state();
        let decoded = CampaignState::decode(&s.encode()).unwrap();
        // NaN != NaN, so compare bitwise through the encoding.
        assert_eq!(s.encode(), decoded.encode());
        assert_eq!(decoded.campaign, "test.campaign");
        assert_eq!(decoded.cursor, 7);
        assert!(decoded.completed[1].1[0].is_nan());
        assert!(decoded.completed[1].1[1].is_sign_negative());
        assert_eq!(decoded.report.failures[0].message, "boom — unicode too: ∞");
        // Deterministic metrics round-trip; out-of-band entries do not.
        assert_eq!(decoded.report.metrics, sample_state().report.metrics);
        assert_eq!(decoded.report.metrics.counter("replicates.attempted"), 7);
        let h = decoded.report.metrics.histogram("mc.sample").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonfinite(), 1);
        assert_eq!((h.min(), h.max()), (Some(-20.0), Some(1.5)));
        assert_eq!(decoded.report.metrics.io_counter("ckpt.bytes"), 0);
        assert!(decoded.report.metrics.duration("mc.replicate").is_none());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample_state().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let r = CampaignState::decode(&bad);
            assert!(r.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_state().encode();
        for n in 0..bytes.len() {
            let r = CampaignState::decode(&bytes[..n]);
            assert!(r.is_err(), "truncation to {n} bytes went undetected");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample_state().encode();
        bytes.push(0);
        // The appended byte changes the body, so the checksum catches it.
        assert!(CampaignState::decode(&bytes).is_err());
    }

    #[test]
    fn validate_rejects_foreign_checkpoints() {
        let s = sample_state();
        assert!(s.validate("test.campaign", 0xDEAD_BEEF).is_ok());
        match s.validate("other.campaign", 0xDEAD_BEEF) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "campaign"),
            other => panic!("expected campaign mismatch, got {other:?}"),
        }
        match s.validate("test.campaign", 1) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "fingerprint"),
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn save_load_roundtrip_and_atomic_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("mde-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        let mut s = sample_state();
        s.save_ledgered(&path).unwrap();
        // Overwrite with a newer cursor — atomic replacement.
        let mut s2 = s.clone();
        s2.cursor = 8;
        s2.save_ledgered(&path).unwrap();
        let loaded = CampaignState::load(&path).unwrap();
        assert_eq!(loaded.cursor, 8);
        assert!(
            !dir.join("campaign.ckpt.tmp").exists(),
            "tmp file left behind"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_durable_writes_only_after_the_expected_length() {
        let dir = std::env::temp_dir().join(format!("mde-ckpt-append-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log");
        let _ = fs::remove_file(&path);
        // A missing file is not created.
        assert!(append_durable(&path, 0, b"x").unwrap().is_none());
        assert!(!path.exists());
        write_atomic(&path, b"head").unwrap();
        let stats = append_durable(&path, 4, b"-tail")
            .unwrap()
            .expect("appended");
        assert_eq!(stats.bytes, 5);
        assert_eq!(fs::read(&path).unwrap(), b"head-tail");
        // A file of another length is left as it is.
        assert!(append_durable(&path, 4, b"!").unwrap().is_none());
        assert_eq!(fs::read(&path).unwrap(), b"head-tail");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_is_typed_io_error() {
        let r = CampaignState::load(Path::new("/nonexistent/dir/nope.ckpt"));
        assert!(matches!(r, Err(CheckpointError::Io { .. })));
    }

    #[test]
    fn fingerprints_separate_campaigns() {
        let a = Fingerprint::new("mc").push_u64(1).push_f64(0.5).finish();
        let b = Fingerprint::new("mc").push_u64(1).push_f64(0.25).finish();
        let c = Fingerprint::new("pf").push_u64(1).push_f64(0.5).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Length prefixing keeps concatenations apart.
        let d = Fingerprint::new("t").push_str("ab").push_str("c").finish();
        let e = Fingerprint::new("t").push_str("a").push_str("bc").finish();
        assert_ne!(d, e);
        // Pure function.
        assert_eq!(a, Fingerprint::new("mc").push_u64(1).push_f64(0.5).finish());
    }

    #[test]
    fn start_or_resume_is_fresh_or_validated() {
        let fresh = CampaignState::start_or_resume(None, "test.campaign", 0xDEAD_BEEF, 42, 100);
        assert_eq!(
            fresh.unwrap(),
            CampaignState::new("test.campaign", 0xDEAD_BEEF, 42, 100)
        );
        let s = sample_state();
        let resumed =
            CampaignState::start_or_resume(Some(&s), "test.campaign", 0xDEAD_BEEF, 42, 100);
        assert_eq!(resumed.unwrap().cursor, 7);
        assert!(matches!(
            CampaignState::start_or_resume(Some(&s), "test.campaign", 1, 42, 100),
            Err(CheckpointError::Mismatch {
                field: "fingerprint",
                ..
            })
        ));
    }

    #[test]
    fn checkpoint_errors_are_fatal_and_display() {
        let e = CheckpointError::Corrupt {
            reason: "bad".into(),
        };
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("bad"));
        let e = CheckpointError::ChecksumMismatch {
            expected: 1,
            found: 2,
        };
        assert_eq!(e.severity(), Severity::Fatal);
        assert!(e.to_string().contains("checksum"));
    }

    #[test]
    fn absurd_length_fields_do_not_allocate() {
        // Hand-craft a body claiming a gigantic ledger; the checksum is
        // recomputed so the length check itself must catch it.
        let mut body = Vec::new();
        put_str(&mut body, LenPrefix::U64, "c");
        put_u64(&mut body, 0); // fingerprint
        put_u64(&mut body, 0); // seed
        put_u64(&mut body, 0); // total
        put_u64(&mut body, 0); // cursor
        for _ in 0..5 {
            put_u64(&mut body, 0); // report counters (incl. shed)
        }
        body.push(0); // ci_widened
        put_u64(&mut body, u64::MAX); // failure count — absurd
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&fnv1a(FNV_OFFSET, &body).to_le_bytes());
        bytes.extend_from_slice(&body);
        match CampaignState::decode(&bytes) {
            Err(CheckpointError::Corrupt { reason }) => assert!(reason.contains("exceeds")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
