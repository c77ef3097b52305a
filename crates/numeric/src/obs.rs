//! Observability: structured tracing, lock-free counters, mergeable
//! histograms, and the per-run [`RunMetrics`] ledger.
//!
//! The paper's ecosystem vision (§2–§4) is about *steering* long
//! simulation campaigns — GenIE-style iterative exploration and Υ-DB
//! hypothesis management both decide what to simulate next from run-level
//! telemetry. This module is that telemetry substrate, sitting at the
//! bottom of the workspace dependency graph so every execution layer (the
//! vectorized query executor, the Monte Carlo runners, the particle
//! filter, the optimizers, the checkpoint codec) can speak it.
//!
//! # The determinism contract
//!
//! Campaigns here are reproducible by construction (sequential ≡ parallel
//! at any thread count, resumed ≡ uninterrupted), and telemetry must not
//! weaken that. [`RunMetrics`] therefore keeps two ledgers:
//!
//! * **Deterministic values** — counters and value histograms (replicate
//!   counts, rows, evaluations, sample values, ESS trajectories). These
//!   are bit-identical across thread counts and across checkpoint/resume;
//!   they participate in `PartialEq` and are persisted by the checkpoint
//!   codec.
//! * **Out-of-band measurements** — wall-clock duration histograms and
//!   I/O volume counters. These necessarily differ run to run; they are
//!   excluded from equality, never enter campaign fingerprints, and are
//!   never written to (or resumed from) checkpoints.
//!
//! [`RunMetrics::merge`] is associative and order-insensitive (every
//! operation is a commutative monoid: counter addition, bucket-wise
//! histogram addition, min/max), so parallel shards aggregate to the same
//! ledger the sequential loop produces.
//!
//! # Tracing
//!
//! [`Span`]s form a tree ([`Span::child`]) and carry typed key/value
//! fields ([`Span::record`]). A [`Tracer`] routes finished spans to a
//! pluggable [`TraceSink`]: the disabled tracer (the default everywhere)
//! costs one branch and no allocation per span, [`MemorySink`] buffers
//! records for golden-trace tests, and [`JsonlSink`] streams one JSON
//! object per span to any writer. Span durations are reported in the
//! records but — per the contract above — only there.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Lock-free primitives
// ---------------------------------------------------------------------------

/// A lock-free monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    /// Clones snapshot the current value.
    fn clone(&self) -> Counter {
        Counter(AtomicU64::new(self.get()))
    }
}

/// A lock-free last-write-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Clone for Gauge {
    /// Clones snapshot the current value.
    fn clone(&self) -> Gauge {
        let g = Gauge::new();
        g.set(self.get());
        g
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Mantissa bits used for the linear subdivision of each octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave (`2^SUB_BITS`).
const SUBS: i64 = 1 << SUB_BITS;
/// Key offset separating the positive, zero, and negative key ranges.
const KEY_OFFSET: i64 = 1 << 20;

/// A mergeable log-linear histogram over `f64` observations.
///
/// Buckets subdivide each power-of-two octave into 8 (`SUBS`) linear
/// sub-buckets (taken straight from the float's exponent and top mantissa
/// bits), so bucketing is a pure function of the value: two histograms
/// over the same multiset of observations are identical however the
/// observations were ordered or sharded. Relative quantile error is
/// bounded by half a sub-bucket (< 1/16). Negative values mirror the
/// positive grid, zero has its own bucket, and non-finite observations
/// are counted separately without entering the quantile mass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Bucket key → observation count, ordered by the value the bucket
    /// covers (negatives ascending, zero, positives ascending).
    buckets: BTreeMap<i64, u64>,
    /// NaN / infinite observations (excluded from quantiles and min/max).
    nonfinite: u64,
    /// Smallest finite observation.
    min: Option<f64>,
    /// Largest finite observation.
    max: Option<f64>,
}

/// The bucket key covering finite value `v`.
fn key_of(v: f64) -> i64 {
    if v == 0.0 {
        return 0;
    }
    let bits = v.abs().to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as i64;
    let b = e * SUBS + sub;
    if v > 0.0 {
        KEY_OFFSET + b
    } else {
        -(KEY_OFFSET + b)
    }
}

/// The `[lo, hi]` value range bucket `key` covers.
fn bucket_bounds(key: i64) -> (f64, f64) {
    if key == 0 {
        return (0.0, 0.0);
    }
    let b = key.abs() - KEY_OFFSET;
    let e = b.div_euclid(SUBS);
    let sub = b.rem_euclid(SUBS);
    let base = (2.0f64).powi(e as i32);
    let lo = base * (1.0 + sub as f64 / SUBS as f64);
    let hi = base * (1.0 + (sub + 1) as f64 / SUBS as f64);
    if key > 0 {
        (lo, hi)
    } else {
        (-hi, -lo)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            self.nonfinite += 1;
            return;
        }
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        *self.buckets.entry(key_of(v)).or_insert(0) += 1;
    }

    /// Number of finite observations.
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Number of non-finite observations.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Smallest finite observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest finite observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Whether nothing (finite or not) has been observed.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.nonfinite == 0
    }

    /// Fold another histogram into this one. Addition bucket-by-bucket
    /// plus min/min and max/max — a commutative monoid, so merging is
    /// associative and order-insensitive.
    pub fn merge(&mut self, other: &Histogram) {
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        self.nonfinite += other.nonfinite;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The `q`-quantile (clamped to `[0, 1]`) of the finite observations:
    /// the midpoint of the bucket containing the target rank, clamped to
    /// the observed `[min, max]`. `None` when no finite value was
    /// observed. Error relative to the true empirical quantile is bounded
    /// by half a sub-bucket width (< 1/16 of the value).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut acc = 0u64;
        for (&k, &c) in &self.buckets {
            acc += c;
            if acc >= target {
                let (lo, hi) = bucket_bounds(k);
                let mid = 0.5 * (lo + hi);
                // Clamping can only tighten toward a value this bucket
                // actually holds.
                return Some(mid.clamp(self.min?, self.max?));
            }
        }
        None
    }

    /// The `(lo, hi)` value ranges of the occupied buckets, in value
    /// order, with their counts. Exposed for the codec and for
    /// monotonicity property tests.
    pub fn bucket_ranges(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .map(|(&k, &c)| {
                let (lo, hi) = bucket_bounds(k);
                (lo, hi, c)
            })
            .collect()
    }

    /// Raw `(bucket key, count)` pairs in key order — the codec's wire
    /// representation, paired with [`Histogram::from_raw`].
    pub fn raw_buckets(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.buckets.iter().map(|(&k, &c)| (k, c))
    }

    /// Rebuild a histogram from its codec representation.
    pub fn from_raw(
        buckets: impl IntoIterator<Item = (i64, u64)>,
        nonfinite: u64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Histogram {
        Histogram {
            buckets: buckets.into_iter().filter(|&(_, c)| c > 0).collect(),
            nonfinite,
            min,
            max,
        }
    }

    /// One-line summary (`n`, `min`, `p50`, `p95`, `max`) for ledger
    /// dumps.
    fn summary(&self) -> String {
        match (self.min, self.max) {
            (Some(mn), Some(mx)) => format!(
                "n={} min={:.6} p50={:.6} p95={:.6} max={:.6}{}",
                self.count(),
                mn,
                self.quantile(0.5).unwrap_or(f64::NAN),
                self.quantile(0.95).unwrap_or(f64::NAN),
                mx,
                if self.nonfinite > 0 {
                    format!(" nonfinite={}", self.nonfinite)
                } else {
                    String::new()
                }
            ),
            _ => format!("n=0 nonfinite={}", self.nonfinite),
        }
    }
}

// ---------------------------------------------------------------------------
// RunMetrics
// ---------------------------------------------------------------------------

/// The per-run metrics ledger carried by every
/// [`RunReport`](crate::resilience::RunReport).
///
/// Two classes of entries (see the [module docs](self) for the
/// determinism contract):
///
/// * deterministic **counters** and value **histograms** — compared by
///   `PartialEq`, persisted in checkpoints, bit-identical across thread
///   counts and resume;
/// * out-of-band **I/O counters** and wall-clock **duration histograms**
///   — excluded from equality and persistence.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    io: BTreeMap<String, u64>,
    durations: BTreeMap<String, Histogram>,
}

impl PartialEq for RunMetrics {
    /// Only the deterministic ledgers participate: two runs of the same
    /// campaign are equal however long their replicates took and however
    /// many checkpoint bytes they happened to write.
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters && self.hists == other.hists
    }
}

impl RunMetrics {
    /// An empty ledger.
    pub fn new() -> RunMetrics {
        RunMetrics::default()
    }

    /// Increment deterministic counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment deterministic counter `name` by `n`. Adding zero to an
    /// absent counter is a no-op (ledgers only hold observed activity).
    pub fn add(&mut self, name: &str, n: u64) {
        if n == 0 && !self.counters.contains_key(name) {
            return;
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Deterministic counter `name` (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a deterministic value observation into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.hists.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Deterministic value histogram `name`, if any observation exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Increment out-of-band I/O counter `name` by `n` (bytes written,
    /// files synced, …). Excluded from equality and persistence.
    pub fn add_io(&mut self, name: &str, n: u64) {
        if n == 0 && !self.io.contains_key(name) {
            return;
        }
        match self.io.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.io.insert(name.to_string(), n);
            }
        }
    }

    /// Out-of-band I/O counter `name`.
    pub fn io_counter(&self, name: &str) -> u64 {
        self.io.get(name).copied().unwrap_or(0)
    }

    /// Record an out-of-band wall-clock duration (seconds) into histogram
    /// `name`. Excluded from equality and persistence.
    pub fn observe_duration(&mut self, name: &str, d: Duration) {
        let secs = d.as_secs_f64();
        match self.durations.get_mut(name) {
            Some(h) => h.observe(secs),
            None => {
                let mut h = Histogram::new();
                h.observe(secs);
                self.durations.insert(name.to_string(), h);
            }
        }
    }

    /// Out-of-band duration histogram `name` (seconds), if any.
    pub fn duration(&self, name: &str) -> Option<&Histogram> {
        self.durations.get(name)
    }

    /// Fold another ledger into this one. Every underlying operation is a
    /// commutative monoid, so merging is associative and
    /// order-insensitive — parallel shards aggregate deterministically.
    pub fn merge(&mut self, other: &RunMetrics) {
        for (k, &v) in &other.counters {
            self.add(k, v);
        }
        for (k, h) in &other.hists {
            match self.hists.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.hists.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, &v) in &other.io {
            self.add_io(k, v);
        }
        for (k, h) in &other.durations {
            match self.durations.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.durations.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Whether nothing has been recorded in any ledger.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.hists.is_empty()
            && self.io.is_empty()
            && self.durations.is_empty()
    }

    /// Deterministic counters, in name order (codec + dump surface).
    pub fn counter_entries(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Deterministic histograms, in name order (codec + dump surface).
    pub fn histogram_entries(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Install a decoded deterministic counter (codec use).
    pub fn set_counter(&mut self, name: impl Into<String>, v: u64) {
        self.counters.insert(name.into(), v);
    }

    /// Install a decoded deterministic histogram (codec use).
    pub fn set_histogram(&mut self, name: impl Into<String>, h: Histogram) {
        self.hists.insert(name.into(), h);
    }

    /// Human-readable multi-line dump of every ledger, deterministic
    /// sections first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &self.hists {
                out.push_str(&format!("  {k}: {}\n", h.summary()));
            }
        }
        if !self.io.is_empty() {
            out.push_str("io (out-of-band):\n");
            for (k, v) in &self.io {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        if !self.durations.is_empty() {
            out.push_str("durations (out-of-band, seconds):\n");
            for (k, h) in &self.durations {
                out.push_str(&format!("  {k}: {}\n", h.summary()));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (row counts, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean (cache hits, flags).
    Bool(bool),
    /// String (table names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

/// A finished span, as delivered to a [`TraceSink`].
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span id, unique within its [`Tracer`] (ids start at 1).
    pub id: u64,
    /// Parent span id; `0` for root spans.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Recorded fields, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Wall-clock duration. Out-of-band: reported here and nowhere else.
    pub duration_nanos: u64,
}

/// Where finished spans go.
pub trait TraceSink: Send + Sync {
    /// Deliver one finished span.
    fn emit(&self, rec: SpanRecord);
}

/// Buffers span records in memory — the golden-trace test sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<SpanRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Snapshot of every record emitted so far, in emission order
    /// (children complete before their parents).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Render the span forest as an indented tree, excluding durations —
    /// the deterministic shape golden tests pin down. Children are
    /// ordered by span id (creation order).
    pub fn tree(&self) -> String {
        let records = self.records();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        for r in &records {
            children.entry(r.parent).or_default().push(r);
        }
        for v in children.values_mut() {
            v.sort_by_key(|r| r.id);
        }
        fn render(
            out: &mut String,
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            id: u64,
            depth: usize,
        ) {
            for r in children.get(&id).map_or(&[][..], |v| v.as_slice()) {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&r.name);
                if !r.fields.is_empty() {
                    let fields: Vec<String> =
                        r.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    out.push_str(&format!("{{{}}}", fields.join(", ")));
                }
                out.push('\n');
                render(out, children, r.id, depth + 1);
            }
        }
        let mut out = String::new();
        render(&mut out, &children, 0, 0);
        out
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, rec: SpanRecord) {
        self.records.lock().expect("memory sink poisoned").push(rec);
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Format a span record as one JSON object (no trailing newline).
///
/// Schema: `{"span": id, "parent": id, "name": "...", "fields": {...},
/// "duration_ns": n}` — every line a JSON-lint–clean object, which is
/// what the CI schema check greps for.
pub fn span_record_json(rec: &SpanRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(&format!(
        "{{\"span\":{},\"parent\":{},\"name\":\"",
        rec.id, rec.parent
    ));
    json_escape(&rec.name, &mut out);
    out.push_str("\",\"fields\":{");
    for (i, (k, v)) in rec.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape(k, &mut out);
        out.push_str("\":");
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
            // JSON has no NaN/Infinity; carry them as strings.
            FieldValue::F64(x) => out.push_str(&format!("\"{x}\"")),
            FieldValue::Str(s) => {
                out.push('"');
                json_escape(s, &mut out);
                out.push('"');
            }
        }
    }
    out.push_str(&format!("}},\"duration_ns\":{}}}", rec.duration_nanos));
    out
}

/// Streams one JSON object per finished span to a writer (JSONL).
///
/// Write failures are swallowed: telemetry must never abort the campaign
/// it observes.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { out: Mutex::new(w) }
    }

    /// Unwrap the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.out.into_inner().expect("jsonl sink poisoned")
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, rec: SpanRecord) {
        let line = span_record_json(&rec);
        if let Ok(mut w) = self.out.lock() {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Shared state behind an enabled [`Tracer`].
#[derive(Debug)]
struct TracerShared {
    sink: Arc<dyn TraceSink>,
    next_id: AtomicU64,
}

impl fmt::Debug for dyn TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceSink")
    }
}

/// Hands out span ids and routes finished spans to a sink. Cheap to
/// clone; the default tracer is disabled and costs one branch per span.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<TracerShared>>,
}

impl Tracer {
    /// The disabled tracer: spans are inert, nothing allocates, nothing
    /// is emitted. This is the default everywhere tracing is threaded
    /// through.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer emitting to `sink`. Span ids start at 1 and are assigned
    /// in creation order, so single-threaded traces are deterministic.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer {
            shared: Some(Arc::new(TracerShared {
                sink,
                next_id: AtomicU64::new(1),
            })),
        }
    }

    /// Whether spans created from this tracer record and emit.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Open a root span (parent id 0).
    pub fn root(&self, name: &str) -> Span {
        Span::open(self.shared.clone(), 0, name)
    }
}

/// An in-flight span: named, parented, carrying typed fields; emits its
/// [`SpanRecord`] to the tracer's sink when dropped (so children complete
/// before their parents in the record stream).
#[derive(Debug)]
pub struct Span {
    shared: Option<Arc<TracerShared>>,
    id: u64,
    parent: u64,
    name: String,
    fields: Vec<(&'static str, FieldValue)>,
    start: Option<Instant>,
}

impl Span {
    fn open(shared: Option<Arc<TracerShared>>, parent: u64, name: &str) -> Span {
        match shared {
            None => Span {
                shared: None,
                id: 0,
                parent: 0,
                name: String::new(),
                fields: Vec::new(),
                start: None,
            },
            Some(s) => {
                let id = s.next_id.fetch_add(1, Ordering::Relaxed);
                Span {
                    shared: Some(s),
                    id,
                    parent,
                    name: name.to_string(),
                    fields: Vec::new(),
                    start: Some(Instant::now()),
                }
            }
        }
    }

    /// Open a child span.
    pub fn child(&self, name: &str) -> Span {
        Span::open(self.shared.clone(), self.id, name)
    }

    /// Attach a field. No-op on a disabled span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.shared.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Whether this span records and emits.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            shared.sink.emit(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: std::mem::take(&mut self.name),
                fields: std::mem::take(&mut self.fields),
                duration_nanos: self
                    .start
                    .map_or(0, |s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.clone().get(), 5);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
        assert_eq!(g.clone().get(), -2.5);
    }

    #[test]
    fn histogram_buckets_are_value_pure() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let values = [0.1, 3.7, 3.7, -12.0, 0.0, 1e9, 1e-9];
        for v in values {
            a.observe(v);
        }
        for v in values.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b, "bucketing must not depend on observation order");
        assert_eq!(a.count(), 7);
        assert_eq!(a.min(), Some(-12.0));
        assert_eq!(a.max(), Some(1e9));
    }

    #[test]
    fn histogram_quantiles_bounded_by_min_max() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        for q in [0.0, 0.01, 0.5, 0.95, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((1.0..=1000.0).contains(&v), "q={q} -> {v}");
        }
        // Median of 1..=1000 within one sub-bucket of 500.
        let med = h.quantile(0.5).unwrap();
        assert!((med - 500.0).abs() <= 500.0 / 8.0, "median {med}");
    }

    #[test]
    fn histogram_handles_zero_negative_nonfinite() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-4.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.nonfinite(), 2);
        assert_eq!(h.quantile(0.0), Some(-4.0));
        assert_eq!(h.quantile(1.0), Some(0.0));
    }

    #[test]
    fn histogram_merge_is_commutative_and_associative() {
        let mk = |vals: &[f64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (
            mk(&[1.0, 2.0, f64::NAN]),
            mk(&[-3.0, 0.5]),
            mk(&[100.0, 0.0]),
        );
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut a_bc = b.clone();
        a_bc.merge(&c);
        let mut lhs = a.clone();
        lhs.merge(&a_bc);
        assert_eq!(ab_c, lhs);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_codec_roundtrip() {
        let mut h = Histogram::new();
        for v in [0.25, -17.0, 0.0, 9000.0, f64::NAN] {
            h.observe(v);
        }
        let raw: Vec<(i64, u64)> = h.raw_buckets().collect();
        let back = Histogram::from_raw(raw, h.nonfinite(), h.min(), h.max());
        assert_eq!(h, back);
    }

    #[test]
    fn run_metrics_equality_ignores_out_of_band() {
        let mut a = RunMetrics::new();
        let mut b = RunMetrics::new();
        for m in [&mut a, &mut b] {
            m.add("replicates", 10);
            m.observe("sample", 1.5);
        }
        a.observe_duration("latency", Duration::from_millis(5));
        a.add_io("ckpt.bytes", 4096);
        assert_eq!(a, b, "durations and io must not break equality");
        b.add("replicates", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn run_metrics_merge_is_order_insensitive() {
        let mut shard1 = RunMetrics::new();
        shard1.add("n", 3);
        shard1.observe("v", 1.0);
        let mut shard2 = RunMetrics::new();
        shard2.add("n", 4);
        shard2.observe("v", 64.0);
        shard2.observe("v", -1.0);

        let mut ab = RunMetrics::new();
        ab.merge(&shard1);
        ab.merge(&shard2);
        let mut ba = RunMetrics::new();
        ba.merge(&shard2);
        ba.merge(&shard1);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("n"), 7);
        assert_eq!(ab.histogram("v").unwrap().count(), 3);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let mut root = t.root("query");
        root.record("rows", 5u64);
        let child = root.child("scan");
        assert!(!child.enabled());
        drop(child);
        drop(root);
        // Nothing to assert against — the point is that no sink exists
        // and nothing panics or allocates a record stream.
    }

    #[test]
    fn memory_sink_builds_deterministic_tree() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let mut root = tracer.root("query");
            root.record("rows_out", 2u64);
            {
                let mut scan = root.child("scan");
                scan.record("table", "T");
                scan.record("rows", 4u64);
            }
            let mut filter = root.child("filter");
            filter.record("rows_in", 4u64);
            filter.record("rows_out", 2u64);
        }
        assert_eq!(
            sink.tree(),
            "query{rows_out=2}\n  scan{table=\"T\", rows=4}\n  filter{rows_in=4, rows_out=2}\n"
        );
        // Children complete before parents in the raw record stream.
        let names: Vec<String> = sink.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["scan", "filter", "query"]);
    }

    #[test]
    fn jsonl_sink_emits_schema_complete_lines() {
        let sink = Arc::new(JsonlSink::new(Vec::<u8>::new()));
        let tracer = Tracer::new(sink.clone());
        {
            let mut s = tracer.root("q\"uote");
            s.record("n", 3u64);
            s.record("ok", true);
            s.record("x", 1.5);
            s.record("label", "a\nb");
        }
        drop(tracer);
        let sink = Arc::into_inner(sink).expect("sole owner");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let line = lines[0];
        for key in [
            "\"span\":",
            "\"parent\":",
            "\"name\":",
            "\"fields\":",
            "\"duration_ns\":",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.contains("q\\\"uote"));
        assert!(line.contains("a\\nb"));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}
