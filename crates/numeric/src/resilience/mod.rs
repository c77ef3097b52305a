//! The resilience runtime: typed failure classification, run policies,
//! supervised replicate execution, and deterministic fault injection.
//!
//! Long-running, budget-constrained simulation campaigns (§2.3 result
//! caching, §3 calibration loops, §4 metamodel fitting) execute thousands
//! of replicates, and individual replicates can and do fail — a poisoned
//! parameter row, a singular covariance draw, a panic deep inside a model.
//! Failures must surface as *typed, classified* errors with policy-driven
//! recovery, never as panics or silently biased estimates.
//!
//! This module is the shared vocabulary every execution layer builds on:
//!
//! * [`Severity`] / [`ErrorClass`] — is a failure worth retrying with a
//!   fresh random stream ([`Severity::Retryable`]) or a configuration bug
//!   that will fail identically forever ([`Severity::Fatal`])?
//! * [`RunPolicy`] — what the campaign driver does with a retryable
//!   failure: abort ([`RunPolicy::FailFast`]), re-execute the replicate on
//!   a fresh deterministic sub-seed ([`RunPolicy::Retry`]), or drop it and
//!   degrade gracefully ([`RunPolicy::BestEffort`]).
//! * [`retry_seed`] — the splitmix-style derivation of that fresh sub-seed
//!   from `(master_seed, replicate, attempt)`, a pure function so that a
//!   resumed or cached run stays bit-identical even when replicates are
//!   retried.
//! * `supervise_replicate` — the generic attempt loop under a policy.
//! * [`boundary`] — the boundary protocol every campaign surface runs
//!   through: one supervised attempt ([`Attempt::run`]), one commit and
//!   seal on [`CampaignState`], and one sequential driver ([`drive`]) over
//!   a [`Surface`], with typed errors made through [`BoundaryError`].
//! * [`RunReport`] — the per-campaign failure ledger (attempted /
//!   succeeded / retried / dropped plus one [`FailureRecord`] per failed
//!   attempt) returned alongside results so degraded estimates are never
//!   silent.
//! * [`FaultPlan`] — a deterministic fault injector ("fail replicate 3 on
//!   attempt 0 with a panic") used by the workspace test suites to prove
//!   every policy end-to-end.

pub mod backoff;
pub mod boundary;
pub mod breaker;
pub mod sched;

pub use boundary::{drive, drive_in_memory, Attempt, BoundaryError, Surface};

use crate::checkpoint::CampaignState;
use crate::rng::splitmix64;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// How a failure should be treated by a supervised campaign driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Data- or draw-dependent: a fresh random stream may succeed
    /// (singular matrix from a random draw, non-convergence, a model panic
    /// on one unlucky realization).
    Retryable,
    /// Configuration- or structure-dependent: every attempt will fail the
    /// same way (unknown column, arity mismatch, invalid plan). Retrying
    /// wastes budget; the error must surface immediately under every
    /// policy.
    Fatal,
}

/// Error classification: every workspace error type reports whether a
/// supervised runtime may retry the failing replicate.
pub trait ErrorClass {
    /// Classify this error.
    fn severity(&self) -> Severity;

    /// Convenience: `severity() == Severity::Retryable`.
    fn is_retryable(&self) -> bool {
        self.severity() == Severity::Retryable
    }
}

impl ErrorClass for crate::NumericError {
    /// Draw-dependent numeric failures (singular factorization,
    /// non-convergence, empty stochastic input) are retryable; parameter
    /// and dimension errors are configuration bugs and fatal.
    fn severity(&self) -> Severity {
        use crate::NumericError::*;
        match self {
            SingularMatrix { .. }
            | IllConditioned { .. }
            | NoConvergence { .. }
            | EmptyInput { .. } => Severity::Retryable,
            InvalidParameter { .. } | DimensionMismatch { .. } => Severity::Fatal,
        }
    }
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// What a campaign driver does when a replicate fails retryably.
///
/// Fatal failures abort the run under *every* policy: they are
/// configuration errors that would fail identically on all replicates, so
/// neither retrying nor dropping can produce a meaningful estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RunPolicy {
    /// Abort the whole run on the first failure (the pre-resilience
    /// behavior, minus the panics).
    #[default]
    FailFast,
    /// Re-execute a failed replicate up to `max_attempts` total attempts.
    /// With `reseed` the retry draws from a fresh deterministic sub-seed
    /// derived by [`retry_seed`] — never the failing stream, so the
    /// estimator stays unbiased; without it the original stream is reused
    /// (only useful when the failure source is external to the RNG).
    Retry {
        /// Total attempts per replicate (≥ 1; a value of 1 degenerates to
        /// [`RunPolicy::FailFast`]).
        max_attempts: u32,
        /// Derive a fresh sub-seed per retry (recommended).
        reseed: bool,
    },
    /// Drop failed replicates and estimate from the survivors, as long as
    /// at least `min_fraction` of the replicates succeed; the returned
    /// [`RunReport`] carries the failure ledger and sets
    /// [`RunReport::ci_widened`] so the degradation is visible.
    BestEffort {
        /// Minimum fraction (in `[0, 1]`) of replicates that must succeed.
        min_fraction: f64,
    },
}

impl RunPolicy {
    /// Total attempts allowed per replicate under this policy.
    pub(crate) fn max_attempts(&self) -> u32 {
        match self {
            RunPolicy::Retry { max_attempts, .. } => (*max_attempts).max(1),
            _ => 1,
        }
    }

    /// Whether retries re-derive the random stream.
    pub(crate) fn reseeds(&self) -> bool {
        match self {
            RunPolicy::Retry { reseed, .. } => *reseed,
            _ => true,
        }
    }

    /// Number of successful replicates required out of `n` for the run to
    /// be reported as a success.
    pub(crate) fn required_successes(&self, n: usize) -> usize {
        match self {
            RunPolicy::BestEffort { min_fraction } => {
                ((min_fraction.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
            }
            _ => n,
        }
    }

    /// Whether failed replicates are dropped rather than aborting the run.
    fn drops_failures(&self) -> bool {
        matches!(self, RunPolicy::BestEffort { .. })
    }
}

/// Derive the deterministic sub-seed for retry `attempt` of `replicate`.
///
/// SplitMix-style chained finalization of `(master_seed, replicate,
/// attempt)`: a pure function, so a retried replicate produces the same
/// sample in a resumed or replayed run as in the original — the
/// determinism guarantee survives every policy. The salt keeps retry
/// streams disjoint from the attempt-0 stream family derived by
/// [`crate::rng::StreamFactory`].
pub fn retry_seed(master_seed: u64, replicate: u64, attempt: u32) -> u64 {
    splitmix64(
        splitmix64(splitmix64(master_seed ^ 0xC0DE_D15E_A5ED_5EED).wrapping_add(replicate))
            .wrapping_add(attempt as u64),
    )
}

// ---------------------------------------------------------------------------
// Failure ledger
// ---------------------------------------------------------------------------

/// What kind of failure a supervised attempt produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The replicate panicked and was caught by the supervisor.
    Panic,
    /// The replicate returned a typed error.
    Error,
    /// The replicate completed but produced a non-finite sample (NaN/±inf),
    /// which would silently poison the estimator if admitted.
    NonFinite,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Error => write!(f, "error"),
            FailureKind::NonFinite => write!(f, "non-finite sample"),
        }
    }
}

/// One failed attempt in a [`RunReport`] ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Zero-based replicate (iteration / repetition / step) index.
    pub replicate: u64,
    /// Zero-based attempt number within the replicate.
    pub attempt: u32,
    /// Failure kind.
    pub kind: FailureKind,
    /// Human-readable cause (error display, panic payload, or the
    /// offending value).
    pub message: String,
}

impl FailureRecord {
    /// The `(replicate, attempt, kind)` identity used to compare a ledger
    /// against an injected [`FaultPlan`].
    pub(crate) fn key(&self) -> (u64, u32, FailureKind) {
        (self.replicate, self.attempt, self.kind)
    }
}

/// The outcome ledger of a supervised campaign, returned alongside the
/// estimate so that degraded runs are never silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Replicates attempted (each counted once, however many attempts it
    /// took).
    pub attempted: usize,
    /// Replicates that produced a sample.
    pub succeeded: usize,
    /// Retry attempts performed beyond each replicate's first attempt.
    pub retried: usize,
    /// Replicates dropped under [`RunPolicy::BestEffort`].
    pub dropped: usize,
    /// Replicates shed by an overloaded scheduler *before* execution (see
    /// `resilience::sched`): counted here so partially-shed best-effort
    /// batches are auditable, but never attempted, so they are excluded
    /// from `attempted`/`succeeded` and from aggregate estimates.
    pub shed: usize,
    /// One record per failed attempt, ordered by `(replicate, attempt)`.
    pub failures: Vec<FailureRecord>,
    /// Set when the estimate is based on fewer samples than requested, so
    /// confidence intervals are wider than the caller asked for.
    pub ci_widened: bool,
    /// The per-run metrics ledger (see [`crate::obs`]): replicate
    /// counters accumulate here automatically on every
    /// `RunReport::absorb`, and execution surfaces add their own
    /// counters, value histograms, and out-of-band latency/I/O
    /// measurements. Deterministic values are bit-identical across
    /// checkpoint/resume; out-of-band entries are excluded from equality
    /// and persistence.
    pub metrics: crate::obs::RunMetrics,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Fold one replicate outcome into the ledger. The metrics ledger
    /// accumulates the same counts, so every supervised surface carries
    /// deterministic `replicates.*` / `attempts.*` metrics for free.
    pub(crate) fn absorb<T, E>(&mut self, outcome: &ReplicateOutcome<T, E>) {
        self.attempted += 1;
        self.metrics.inc("replicates.attempted");
        let failures = match outcome {
            ReplicateOutcome::Success { failures, .. } => {
                self.succeeded += 1;
                self.metrics.inc("replicates.succeeded");
                self.retried += failures.len();
                self.metrics.add("attempts.retried", failures.len() as u64);
                failures
            }
            ReplicateOutcome::Dropped { failures } => {
                self.dropped += 1;
                self.metrics.inc("replicates.dropped");
                let r = failures.len().saturating_sub(1);
                self.retried += r;
                self.metrics.add("attempts.retried", r as u64);
                failures
            }
            ReplicateOutcome::Abort { failures, .. } => {
                let r = failures.len().saturating_sub(1);
                self.retried += r;
                self.metrics.add("attempts.retried", r as u64);
                failures
            }
        };
        self.metrics.add("attempts.failed", failures.len() as u64);
        self.failures.extend(failures.iter().cloned());
        self.ci_widened = self.dropped > 0 || self.shed > 0;
    }

    /// Record `n` replicates shed by the scheduler before execution. The
    /// estimate is now based on fewer samples than requested, so the
    /// report is flagged exactly like a best-effort drop — but the shed
    /// replicates never ran, so `attempted` is untouched and the
    /// deterministic `sched.shed` counter carries the audit trail.
    pub fn record_shed(&mut self, n: u64) {
        self.shed += n as usize;
        self.metrics.add("sched.shed", n);
        self.ci_widened = self.dropped > 0 || self.shed > 0;
    }

    /// Sort the ledger by `(replicate, attempt)`: the order in which
    /// outcomes were absorbed is not part of a report, so two runs over
    /// the same boundaries compare equal however they absorbed them.
    pub(crate) fn normalize(&mut self) {
        self.failures.sort_by_key(|f| (f.replicate, f.attempt));
    }

    /// The `(replicate, attempt, kind)` identities of every failure, in
    /// ledger order — the shape compared against
    /// [`FaultPlan::expected_failure_keys`].
    pub fn failure_keys(&self) -> Vec<(u64, u32, FailureKind)> {
        self.failures.iter().map(FailureRecord::key).collect()
    }
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// A classified failure of one supervised attempt, produced by a layer's
/// attempt closure and consumed by `supervise_replicate`.
#[derive(Debug)]
pub struct AttemptFailure<E> {
    /// Failure kind for the ledger.
    pub kind: FailureKind,
    /// Human-readable cause.
    pub message: String,
    /// Classification driving the policy decision.
    pub severity: Severity,
    /// The original typed error, when one exists (panics and non-finite
    /// samples have none) — preserved so aborts surface the layer's own
    /// error type, not a stringified copy.
    pub error: Option<E>,
}

impl<E: std::error::Error + ErrorClass> AttemptFailure<E> {
    /// Wrap a typed layer error, classifying it via [`ErrorClass`].
    pub(crate) fn from_error(error: E) -> Self {
        AttemptFailure {
            kind: FailureKind::Error,
            message: error.to_string(),
            severity: error.severity(),
            error: Some(error),
        }
    }
}

impl<E> AttemptFailure<E> {
    /// A caught panic (always retryable: the panic was raised by one
    /// replicate's data/draws; a fresh stream may avoid it, and if it does
    /// not, the retry budget bounds the damage).
    pub(crate) fn from_panic(message: impl Into<String>) -> Self {
        AttemptFailure {
            kind: FailureKind::Panic,
            message: message.into(),
            severity: Severity::Retryable,
            error: None,
        }
    }

    /// A non-finite sample (retryable: the offending value came from this
    /// replicate's draws).
    pub(crate) fn non_finite(value: f64) -> Self {
        AttemptFailure {
            kind: FailureKind::NonFinite,
            message: format!("replicate produced non-finite sample {value}"),
            severity: Severity::Retryable,
            error: None,
        }
    }
}

/// The outcome of supervising one replicate to completion under a policy.
#[derive(Debug)]
pub(crate) enum ReplicateOutcome<T, E> {
    /// The replicate produced a value (possibly after retries — the failed
    /// attempts are recorded).
    Success {
        /// The replicate's sample.
        value: T,
        /// Failed attempts that preceded the success.
        failures: Vec<FailureRecord>,
    },
    /// The replicate was dropped under [`RunPolicy::BestEffort`].
    Dropped {
        /// The attempts that failed.
        failures: Vec<FailureRecord>,
    },
    /// The run must abort: a fatal failure, or retryable failures under a
    /// policy with no recovery left.
    Abort {
        /// The typed error of the aborting attempt, when one exists; the
        /// caller falls back to synthesizing an error from the last
        /// failure record otherwise.
        error: Option<E>,
        /// All failed attempts, the aborting one last.
        failures: Vec<FailureRecord>,
    },
}

/// Run one replicate's attempt loop under `policy`.
///
/// `attempt(a)` executes attempt `a` (zero-based) and returns either the
/// replicate's value or a classified [`AttemptFailure`]. The loop retries
/// retryable failures while the policy allows, aborts immediately on fatal
/// ones, and converts terminal retryable failures into
/// [`ReplicateOutcome::Dropped`] under a dropping policy.
pub(crate) fn supervise_replicate<T, E>(
    replicate: u64,
    policy: &RunPolicy,
    mut attempt: impl FnMut(u32) -> Result<T, AttemptFailure<E>>,
) -> ReplicateOutcome<T, E> {
    let max_attempts = policy.max_attempts();
    let mut failures: Vec<FailureRecord> = Vec::new();
    for a in 0..max_attempts {
        match attempt(a) {
            Ok(value) => return ReplicateOutcome::Success { value, failures },
            Err(f) => {
                failures.push(FailureRecord {
                    replicate,
                    attempt: a,
                    kind: f.kind,
                    message: f.message,
                });
                if f.severity == Severity::Fatal {
                    return ReplicateOutcome::Abort {
                        error: f.error,
                        failures,
                    };
                }
                if a + 1 == max_attempts {
                    // Retry budget exhausted (or a single-attempt policy).
                    if policy.drops_failures() {
                        return ReplicateOutcome::Dropped { failures };
                    }
                    return ReplicateOutcome::Abort {
                        error: f.error,
                        failures,
                    };
                }
            }
        }
    }
    unreachable!("attempt loop always returns");
}

/// Run a closure, converting a panic into an `Err` with the panic message.
///
/// The workhorse of supervised workers: per-replicate execution is wrapped
/// so that a panicking model poisons only its own replicate, which the
/// policy then retries, drops, or surfaces as a typed error — the panic
/// never crosses a thread boundary or unwinds into the caller.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// The fault a [`FaultPlan`] injects into one `(replicate, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic inside the supervised region (proves `catch_unwind`
    /// containment).
    Panic,
    /// Return a typed, retryable error.
    Error,
    /// Produce a NaN sample (proves the non-finite guard).
    Nan,
    /// Preempt the campaign: stop gracefully at the scheduled boundary
    /// (and any later one), as a spot-instance preemption notice would.
    /// Unlike the other kinds it fails no replicate; it forces a
    /// partial run + final checkpoint, which the chaos harness then
    /// resumes and compares bit-for-bit against an uninterrupted run.
    Preempt,
    /// Stall the worker executing the keyed campaign: the worker blocks
    /// for the scheduler's stall budget before making progress, modelling
    /// a hung simulator process. Fails no replicate; the overload harness
    /// uses it to prove dispatch never deadlocks behind a stuck worker.
    StalledWorker,
    /// Slow the worker executing the keyed campaign by the given number
    /// of milliseconds per dispatch — a degraded-but-alive straggler.
    /// Fails no replicate.
    SlowWorker(u32),
    /// Report the keyed submission's tenant queue as full at admission,
    /// forcing a typed `Overloaded` rejection regardless of actual depth.
    /// Fails no replicate.
    QueueFull,
    /// Shed the keyed campaign mid-run: the scheduler triggers a
    /// [`CancelReason::Shed`] cancellation before the keyed dispatch
    /// slice, so best-effort campaigns absorb the cut into a partial
    /// result and strict campaigns stop at a resumable boundary. Fails no
    /// replicate.
    Shed,
    /// Panic inside the supervised region of one wire request, keyed on
    /// the session's ordinal and the request's ordinal within it: the
    /// server answers `ERR PANIC` and closes that session only. Fails no
    /// replicate.
    SessionPanic,
}

impl FaultKind {
    /// The [`FailureKind`] this fault surfaces as in a [`RunReport`] —
    /// `None` for the scheduling faults ([`FaultKind::Preempt`],
    /// [`FaultKind::StalledWorker`], [`FaultKind::SlowWorker`],
    /// [`FaultKind::QueueFull`], [`FaultKind::Shed`]) and the wire one
    /// ([`FaultKind::SessionPanic`]), which fail no replicate.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        match self {
            FaultKind::Panic => Some(FailureKind::Panic),
            FaultKind::Error => Some(FailureKind::Error),
            FaultKind::Nan => Some(FailureKind::NonFinite),
            FaultKind::Preempt
            | FaultKind::StalledWorker
            | FaultKind::SlowWorker(_)
            | FaultKind::QueueFull
            | FaultKind::Shed
            | FaultKind::SessionPanic => None,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fault {
    /// Replicate to poison.
    pub replicate: u64,
    /// Attempt (zero-based) on which the fault fires; retries with higher
    /// attempt numbers run clean unless separately scheduled.
    pub attempt: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault injector: a schedule of faults keyed on
/// `(replicate, attempt)`, consulted by supervised executors. Pure data —
/// the same plan produces the same failures on every run, which is
/// what lets tests assert that a [`RunReport`] ledger *exactly* matches
/// the injected plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `kind` to fire on `attempt` of `replicate`.
    pub fn fail_on(mut self, replicate: u64, attempt: u32, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            replicate,
            attempt,
            kind,
        });
        self
    }

    /// Schedule a preemption notice at boundary `at`: the campaign stops
    /// gracefully before executing boundary `at` and writes its final
    /// checkpoint.
    pub fn preempt_at(mut self, at: u64) -> Self {
        self.faults.push(Fault {
            replicate: at,
            attempt: 0,
            kind: FaultKind::Preempt,
        });
        self
    }

    /// The fault scheduled for `(replicate, attempt)`, if any. Scheduling
    /// faults (preemption notices, stalls, slowdowns, queue-full
    /// injections) are not per-replicate failures and are never returned
    /// here; see `FaultPlan::preempts`, [`FaultPlan::stalls_worker`],
    /// [`FaultPlan::slow_worker_ms`], and [`FaultPlan::queue_full`].
    pub(crate) fn lookup(&self, replicate: u64, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| {
                f.kind.failure_kind().is_some() && f.replicate == replicate && f.attempt == attempt
            })
            .map(|f| f.kind)
    }

    /// Whether a preemption notice has fired by `boundary`: true when any
    /// scheduled preempt has `at <= boundary`, mirroring how a real
    /// preemption notice stays raised once delivered.
    fn preempts(&self, boundary: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::Preempt && f.replicate <= boundary)
    }

    /// Schedule a worker stall while executing campaign `campaign` (keyed
    /// on the scheduler's campaign id).
    pub fn stall_worker(mut self, campaign: u64) -> Self {
        self.faults.push(Fault {
            replicate: campaign,
            attempt: 0,
            kind: FaultKind::StalledWorker,
        });
        self
    }

    /// Schedule a `ms`-millisecond slowdown for every dispatch of campaign
    /// `campaign`.
    pub fn slow_worker(mut self, campaign: u64, ms: u32) -> Self {
        self.faults.push(Fault {
            replicate: campaign,
            attempt: 0,
            kind: FaultKind::SlowWorker(ms),
        });
        self
    }

    /// Schedule a queue-full rejection for submission sequence `submission`
    /// (zero-based order of `Scheduler::submit` calls).
    pub fn queue_full_at(mut self, submission: u64) -> Self {
        self.faults.push(Fault {
            replicate: submission,
            attempt: 0,
            kind: FaultKind::QueueFull,
        });
        self
    }

    /// Whether campaign `campaign` is scheduled to stall its worker.
    pub fn stalls_worker(&self, campaign: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::StalledWorker && f.replicate == campaign)
    }

    /// The scheduled per-dispatch slowdown for campaign `campaign`, if any.
    pub fn slow_worker_ms(&self, campaign: u64) -> Option<u32> {
        self.faults.iter().find_map(|f| match f.kind {
            FaultKind::SlowWorker(ms) if f.replicate == campaign => Some(ms),
            _ => None,
        })
    }

    /// Whether submission sequence `submission` is scheduled to see its
    /// tenant queue as full.
    pub fn queue_full(&self, submission: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::QueueFull && f.replicate == submission)
    }

    /// Schedule a mid-run shed of campaign `campaign` before its dispatch
    /// slice `slice` (zero-based count of times the campaign has been
    /// dispatched).
    pub fn shed_campaign_at(mut self, campaign: u64, slice: u32) -> Self {
        self.faults.push(Fault {
            replicate: campaign,
            attempt: slice,
            kind: FaultKind::Shed,
        });
        self
    }

    /// Whether campaign `campaign` is scheduled to be shed before its
    /// dispatch slice `slice`.
    pub fn sheds_campaign(&self, campaign: u64, slice: u32) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::Shed && f.replicate == campaign && f.attempt == slice)
    }

    /// Schedule a preemption of campaign `campaign` before its dispatch
    /// slice `slice` — the scheduler-level analogue of
    /// [`FaultPlan::preempt_at`], keyed on campaign id instead of
    /// replicate boundary.
    pub fn preempt_campaign_at(mut self, campaign: u64, slice: u32) -> Self {
        self.faults.push(Fault {
            replicate: campaign,
            attempt: slice,
            kind: FaultKind::Preempt,
        });
        self
    }

    /// Whether campaign `campaign` is scheduled for preemption before its
    /// dispatch slice `slice`.
    pub fn preempts_campaign(&self, campaign: u64, slice: u32) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == FaultKind::Preempt && f.replicate == campaign && f.attempt == slice)
    }

    /// Schedule a panic inside the supervised region of request `request`
    /// (zero-based, counted per session) of wire session `session`
    /// (zero-based accept order).
    pub fn panic_session_at(mut self, session: u64, request: u32) -> Self {
        self.faults.push(Fault {
            replicate: session,
            attempt: request,
            kind: FaultKind::SessionPanic,
        });
        self
    }

    /// Whether request `request` of wire session `session` is scheduled
    /// to panic. A session numbers its requests as they arrive, so a site
    /// fires at most once.
    pub fn panics_session(&self, session: u64, request: u64) -> bool {
        self.faults.iter().any(|f| {
            f.kind == FaultKind::SessionPanic
                && f.replicate == session
                && u64::from(f.attempt) == request
        })
    }

    /// The failure ledger this plan predicts, as `(replicate, attempt,
    /// kind)` keys ordered like a normalized [`RunReport`] — for exact
    /// comparison with [`RunReport::failure_keys`]. Only faults whose
    /// attempt number is reachable under `policy` are included.
    pub fn expected_failure_keys(&self, policy: &RunPolicy) -> Vec<(u64, u32, FailureKind)> {
        let max_attempts = policy.max_attempts();
        let mut keys: Vec<(u64, u32, FailureKind)> = self
            .faults
            .iter()
            .filter(|f| f.attempt < max_attempts)
            .filter_map(|f| Some((f.replicate, f.attempt, f.kind.failure_kind()?)))
            .collect();
        keys.sort_by_key(|&(r, a, _)| (r, a));
        keys
    }
}

// ---------------------------------------------------------------------------
// Durable campaign control: deadlines, cancellation, checkpoints
// ---------------------------------------------------------------------------

/// Why a durable campaign stopped before completing every boundary.
///
/// A stopped run is *not* an error: the surface returns whatever partial
/// estimate the completed boundaries support, the partial [`RunReport`],
/// and a final checkpoint the campaign can resume from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopCause {
    /// The wall-clock [`Deadline`] expired.
    Deadline,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A [`FaultKind::Preempt`] notice fired (chaos testing).
    Preempted,
    /// An overloaded scheduler shed the campaign's remaining work
    /// (see `resilience::sched`): best-effort campaigns absorb the cut
    /// into their partial-result semantics, checkpointable ones stop
    /// resumable.
    Shed,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Deadline => write!(f, "deadline expired"),
            StopCause::Cancelled => write!(f, "cancelled"),
            StopCause::Preempted => write!(f, "preempted"),
            StopCause::Shed => write!(f, "shed by scheduler"),
        }
    }
}

/// A wall-clock budget for a campaign, checked at replicate / step /
/// generation boundaries. Expiry stops the run at the next boundary with
/// a partial report and a final checkpoint — never an error, and never
/// mid-replicate (a boundary either fully commits or does not run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    /// `None` means the deadline never expires — the saturating result of
    /// a budget too large to represent as an `Instant`.
    deadline: Option<Instant>,
}

impl Deadline {
    /// A deadline `budget` from now. Saturating: a budget that overflows
    /// the `Instant` range yields a deadline that never expires, rather
    /// than panicking.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            deadline: Instant::now().checked_add(budget),
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(deadline: Instant) -> Self {
        Deadline {
            deadline: Some(deadline),
        }
    }

    /// The absolute expiry instant, or `None` for a never-expiring
    /// deadline. Earliest-deadline-first dispatch orders `Some` before
    /// `None`.
    pub fn expires_at(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the budget is spent (never true for a saturated deadline).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left before expiry (zero once expired, `Duration::MAX` for a
    /// never-expiring deadline).
    pub fn remaining(&self) -> Duration {
        match self.deadline {
            Some(d) => d.saturating_duration_since(Instant::now()),
            None => Duration::MAX,
        }
    }
}

/// Who asked a [`CancelToken`] to stop — so a campaign's [`StopCause`]
/// distinguishes a user's ctrl-C from a scheduler's shed or preempt
/// decision, and downstream policy (re-queue resumable vs. discard) can
/// differ per reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CancelReason {
    /// A human or supervisor explicitly cancelled the campaign.
    User,
    /// An overloaded scheduler shed the campaign's remaining work.
    Shed,
    /// The scheduler preempted the campaign to free capacity; it will be
    /// re-queued resumable.
    Preempt,
}

/// A cooperative cancellation handle: clone it, hand one clone to the
/// campaign, trigger the other from anywhere (signal handler, UI thread,
/// supervisor). Campaigns poll it at boundaries; cancellation stops the
/// run exactly like a deadline — partial report plus final checkpoint.
///
/// Tokens can be linked: [`CancelToken::child_of`] creates a token that
/// also observes its parent's cancellation, so one master token (a
/// server drain signal, a session disconnect) fans out to every
/// in-flight unit of work, while cancelling an individual child never
/// propagates upward or sideways. [`CancelToken::child_while`] also
/// watches a liveness probe, so a consumer that goes away (a client that
/// hangs up) cancels the work at the next boundary it polls.
#[derive(Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// 0 = none, 1 = user, 2 = shed, 3 = preempt. Written once by the
    /// first cancel; later cancels keep the original reason.
    reason: Arc<AtomicU8>,
    /// Upstream tokens, observed (never written) by this one.
    parents: Arc<[CancelToken]>,
    /// Asked after the flag and the parents; `false` cancels this token.
    alive: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CancelToken")
            .field("flag", &self.flag)
            .field("reason", &self.reason)
            .field("parents", &self.parents)
            .field("probed", &self.alive.is_some())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A fresh token linked under `parent`: it reports cancelled when
    /// either itself or (transitively) its parent is cancelled, and
    /// cancelling it leaves the parent — and the parent's other children
    /// — untouched.
    pub fn child_of(parent: &CancelToken) -> Self {
        CancelToken::child_of_all(std::slice::from_ref(parent))
    }

    /// A fresh token linked under several parents at once — cancelled
    /// when itself or any ancestor is. A campaign running under both a
    /// scheduler control token and a session disconnect token is the
    /// canonical use.
    pub fn child_of_all(parents: &[CancelToken]) -> Self {
        CancelToken {
            parents: parents.to_vec().into(),
            ..CancelToken::default()
        }
    }

    /// A fresh token linked under `parent` that also cancels itself, with
    /// [`CancelReason::User`], the first time `alive` returns `false` — a
    /// request whose client hung up is the canonical use.
    /// [`is_cancelled`](Self::is_cancelled) asks the probe only after the
    /// token's own flag and its parents, so a parent's cancel keeps its
    /// reason and costs no probe call, and a cancelled token never asks
    /// again. The probe runs on whichever thread polls the token.
    pub fn child_while(parent: &CancelToken, alive: Arc<dyn Fn() -> bool + Send + Sync>) -> Self {
        CancelToken {
            alive: Some(alive),
            ..CancelToken::child_of(parent)
        }
    }

    /// Request cancellation on behalf of a user. Idempotent; visible to
    /// all clones.
    pub fn cancel(&self) {
        self.cancel_for(CancelReason::User);
    }

    /// Request cancellation with an explicit reason. The first cancel
    /// wins: a later cancel (any reason) never overwrites the recorded
    /// reason, so the eventual [`StopCause`] reflects who stopped the
    /// campaign first.
    pub fn cancel_for(&self, reason: CancelReason) {
        let code = match reason {
            CancelReason::User => 1,
            CancelReason::Shed => 2,
            CancelReason::Preempt => 3,
        };
        let _ = self
            .reason
            .compare_exchange(0, code, Ordering::AcqRel, Ordering::Acquire);
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on this token or any of
    /// its ancestors, or a liveness probe on the chain reports its
    /// consumer gone (see [`CancelToken::child_while`]).
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) || self.parents.iter().any(|p| p.is_cancelled()) {
            return true;
        }
        let gone = self.alive.as_ref().is_some_and(|alive| !alive());
        if gone {
            self.cancel_for(CancelReason::User);
        }
        gone
    }

    /// Why the token was cancelled (`None` while untriggered). When both
    /// this token and an ancestor are cancelled, the nearest cancel wins:
    /// this token's own reason is reported; among parents, the first
    /// cancelled one (in linking order) is.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        if self.flag.load(Ordering::Acquire) {
            return Some(match self.reason.load(Ordering::Acquire) {
                2 => CancelReason::Shed,
                3 => CancelReason::Preempt,
                _ => CancelReason::User,
            });
        }
        self.parents.iter().find_map(|p| p.cancel_reason())
    }
}

impl PartialEq for CancelToken {
    /// Tokens compare by identity: two tokens are equal when they share
    /// the underlying flag (i.e. one is a clone of the other).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Where and how often a campaign persists its [`CampaignState`]
/// (crate::checkpoint::CampaignState): the checkpoint file path plus the
/// boundary interval. A final checkpoint is always written when a run
/// stops early or completes, independent of the interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Destination file (written crash-consistently; see
    /// `CampaignState::save_ledgered`).
    pub path: PathBuf,
    /// Write a checkpoint every `every` completed boundaries (≥ 1).
    /// Parallel surfaces may commit only at stop/completion — the
    /// interval is a sequential-surface cadence, not a durability
    /// guarantee between boundaries.
    pub every: u64,
}

impl CheckpointSpec {
    /// Checkpoint to `path` at every boundary.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            every: 1,
        }
    }

    /// Set the boundary interval (values of 0 are treated as 1).
    pub fn every(mut self, every: u64) -> Self {
        self.every = every;
        self
    }

    /// Whether a periodic checkpoint is due after `completed` boundaries.
    pub(crate) fn due(&self, completed: u64) -> bool {
        completed > 0 && completed.is_multiple_of(self.every.max(1))
    }
}

/// Options threaded through a supervised run: the recovery policy, an
/// optional fault-injection plan (testing only; `None` in production),
/// and the durable-campaign controls — wall-clock deadline, cooperative
/// cancellation, checkpoint persistence, result cache, and the state to
/// resume from. Every durable surface has exactly one entry
/// point taking these options; how a campaign runs is an option, never a
/// different function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Recovery policy.
    pub policy: RunPolicy,
    /// Deterministic fault injection, for tests.
    pub faults: Option<FaultPlan>,
    /// Wall-clock budget, checked at boundaries.
    pub deadline: Option<Deadline>,
    /// Cooperative cancellation, checked at boundaries.
    pub cancel: Option<CancelToken>,
    /// Checkpoint persistence (path + interval).
    pub checkpoint: Option<CheckpointSpec>,
    /// Cross-campaign result cache: a completed run whose content
    /// address (spec fingerprint, replicates, seed, policy/fault shape)
    /// is already cached replays the stored result bit-identically
    /// instead of recomputing. Equality on the handle is identity, so
    /// `RunOptions` equality stays meaningful.
    pub cache: Option<crate::cache::CacheHandle>,
    /// Continue from this state (a stopped run's final checkpoint, or
    /// `CampaignState::load(path)?`) instead of starting at boundary 0.
    /// The surface validates tag and fingerprint first: a foreign state is
    /// a typed checkpoint error, never a silently wrong resume.
    pub resume: Option<CampaignState>,
}

impl RunOptions {
    /// Options with the given policy and no fault injection.
    pub fn policy(policy: RunPolicy) -> Self {
        RunOptions {
            policy,
            ..RunOptions::default()
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attach a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token (keep a clone to trigger it).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Attach checkpoint persistence.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointSpec) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Attach a result cache (keep a clone to inspect hit/miss stats).
    ///
    /// A surface keys its entries by everything in the campaign's
    /// description that could change the answer's bits. The data the
    /// campaign *reads* — a Monte Carlo query's catalog tables, a particle
    /// filter's observation values — is not in the key: hold it fixed for
    /// as long as one cache (or cache file) is in use.
    pub fn with_cache(mut self, cache: crate::cache::CacheHandle) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Resume from `state` instead of starting fresh (see
    /// [`RunOptions::resume`]).
    pub fn resuming(mut self, state: CampaignState) -> Self {
        self.resume = Some(state);
        self
    }

    /// The fault scheduled for `(replicate, attempt)`, if a plan is
    /// attached.
    pub(crate) fn fault(&self, replicate: u64, attempt: u32) -> Option<FaultKind> {
        self.faults
            .as_ref()
            .and_then(|p| p.lookup(replicate, attempt))
    }

    /// Should the campaign stop before executing `boundary`? Checked by
    /// every durable surface at each replicate / step / generation
    /// boundary. Deterministic preemption notices are checked first so
    /// chaos tests stop at an exact, reproducible boundary regardless of
    /// wall-clock state.
    pub fn stop_cause(&self, boundary: u64) -> Option<StopCause> {
        if let Some(plan) = &self.faults {
            if plan.preempts(boundary) {
                return Some(StopCause::Preempted);
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(match token.cancel_reason() {
                    Some(CancelReason::Shed) => StopCause::Shed,
                    Some(CancelReason::Preempt) => StopCause::Preempted,
                    _ => StopCause::Cancelled,
                });
            }
        }
        if let Some(deadline) = &self.deadline {
            if deadline.expired() {
                return Some(StopCause::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NumericError;

    #[test]
    fn numeric_error_classification() {
        assert!(NumericError::SingularMatrix { context: "chol" }.is_retryable());
        assert!(NumericError::NoConvergence {
            context: "nm",
            iterations: 9
        }
        .is_retryable());
        assert!(NumericError::EmptyInput { context: "q" }.is_retryable());
        assert_eq!(
            NumericError::invalid("sigma", "negative").severity(),
            Severity::Fatal
        );
        assert_eq!(
            NumericError::dim("matmul", "2x2", "3x3").severity(),
            Severity::Fatal
        );
    }

    #[test]
    fn retry_seed_is_pure_and_well_mixed() {
        assert_eq!(retry_seed(7, 3, 1), retry_seed(7, 3, 1));
        // Distinct (replicate, attempt) pairs give distinct seeds.
        let mut seeds = Vec::new();
        for r in 0..50u64 {
            for a in 0..4u32 {
                seeds.push(retry_seed(42, r, a));
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "retry seeds collided");
        // And differ from the plain stream family.
        let f = crate::rng::StreamFactory::new(42);
        assert_ne!(retry_seed(42, 0, 0), f.seed_of(0));
    }

    #[test]
    fn policy_accessors() {
        assert_eq!(RunPolicy::FailFast.max_attempts(), 1);
        assert_eq!(
            RunPolicy::Retry {
                max_attempts: 3,
                reseed: true
            }
            .max_attempts(),
            3
        );
        assert_eq!(
            RunPolicy::Retry {
                max_attempts: 0,
                reseed: true
            }
            .max_attempts(),
            1
        );
        assert_eq!(RunPolicy::FailFast.required_successes(10), 10);
        assert_eq!(
            RunPolicy::BestEffort { min_fraction: 0.5 }.required_successes(10),
            5
        );
        assert_eq!(
            RunPolicy::BestEffort { min_fraction: 0.41 }.required_successes(10),
            5
        );
        assert_eq!(
            RunPolicy::BestEffort { min_fraction: 2.0 }.required_successes(10),
            10
        );
        assert!(RunPolicy::BestEffort { min_fraction: 0.5 }.drops_failures());
        assert!(!RunPolicy::FailFast.drops_failures());
    }

    #[test]
    fn supervisor_retries_then_succeeds() {
        let policy = RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        };
        let outcome = supervise_replicate::<f64, NumericError>(5, &policy, |a| {
            if a < 2 {
                Err(AttemptFailure::from_panic(format!("boom {a}")))
            } else {
                Ok(1.5)
            }
        });
        match outcome {
            ReplicateOutcome::Success { value, failures } => {
                assert_eq!(value, 1.5);
                assert_eq!(failures.len(), 2);
                assert_eq!(failures[0].key(), (5, 0, FailureKind::Panic));
                assert_eq!(failures[1].key(), (5, 1, FailureKind::Panic));
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn supervisor_aborts_on_fatal_even_with_retries_left() {
        let policy = RunPolicy::Retry {
            max_attempts: 5,
            reseed: true,
        };
        let outcome = supervise_replicate::<f64, NumericError>(0, &policy, |_| {
            Err(AttemptFailure::from_error(NumericError::invalid(
                "sigma", "negative",
            )))
        });
        match outcome {
            ReplicateOutcome::Abort { error, failures } => {
                assert!(matches!(error, Some(NumericError::InvalidParameter { .. })));
                assert_eq!(failures.len(), 1, "fatal failures are not retried");
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn supervisor_drops_under_best_effort() {
        let policy = RunPolicy::BestEffort { min_fraction: 0.5 };
        let outcome = supervise_replicate::<f64, NumericError>(2, &policy, |_| {
            Err(AttemptFailure::non_finite(f64::NAN))
        });
        match outcome {
            ReplicateOutcome::Dropped { failures } => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].key(), (2, 0, FailureKind::NonFinite));
            }
            other => panic!("expected dropped, got {other:?}"),
        }
    }

    #[test]
    fn supervisor_exhausts_retries_into_abort() {
        let policy = RunPolicy::Retry {
            max_attempts: 2,
            reseed: false,
        };
        let outcome = supervise_replicate::<f64, NumericError>(1, &policy, |a| {
            Err(AttemptFailure::from_panic(format!("always fails ({a})")))
        });
        match outcome {
            ReplicateOutcome::Abort { error, failures } => {
                assert!(error.is_none(), "panics carry no typed error");
                assert_eq!(failures.len(), 2);
            }
            other => panic!("expected abort, got {other:?}"),
        }
    }

    #[test]
    fn report_absorbs_outcomes_and_normalizes() {
        let mut report = RunReport::new();
        report.absorb(&ReplicateOutcome::<f64, NumericError>::Success {
            value: 1.0,
            failures: vec![FailureRecord {
                replicate: 3,
                attempt: 0,
                kind: FailureKind::Panic,
                message: "boom".into(),
            }],
        });
        report.absorb(&ReplicateOutcome::<f64, NumericError>::Dropped {
            failures: vec![FailureRecord {
                replicate: 1,
                attempt: 0,
                kind: FailureKind::Error,
                message: "bad".into(),
            }],
        });
        report.absorb(&ReplicateOutcome::<f64, NumericError>::Success {
            value: 2.0,
            failures: vec![],
        });
        report.normalize();
        assert_eq!(report.attempted, 3);
        assert_eq!(report.succeeded, 2);
        assert_eq!(report.retried, 1);
        assert_eq!(report.dropped, 1);
        assert!(report.ci_widened);
        assert_eq!(
            report.failure_keys(),
            vec![(1, 0, FailureKind::Error), (3, 0, FailureKind::Panic)]
        );
    }

    #[test]
    fn catch_panic_preserves_messages() {
        assert_eq!(catch_panic(|| 7).unwrap(), 7);
        let msg = catch_panic(|| panic!("static message")).unwrap_err();
        assert!(msg.contains("static message"));
        let msg = catch_panic(|| panic!("formatted {}", 42)).unwrap_err();
        assert!(msg.contains("formatted 42"));
    }

    #[test]
    fn fault_plan_lookup_and_expected_keys() {
        let plan = FaultPlan::new()
            .fail_on(3, 0, FaultKind::Panic)
            .fail_on(1, 0, FaultKind::Nan)
            .fail_on(1, 1, FaultKind::Error);
        assert_eq!(plan.lookup(3, 0), Some(FaultKind::Panic));
        assert_eq!(plan.lookup(3, 1), None);
        assert_eq!(plan.lookup(0, 0), None);
        let retry = RunPolicy::Retry {
            max_attempts: 3,
            reseed: true,
        };
        assert_eq!(
            plan.expected_failure_keys(&retry),
            vec![
                (1, 0, FailureKind::NonFinite),
                (1, 1, FailureKind::Error),
                (3, 0, FailureKind::Panic),
            ]
        );
        // Single-attempt policies never reach attempt 1.
        assert_eq!(plan.expected_failure_keys(&RunPolicy::FailFast).len(), 2);
    }

    #[test]
    fn run_options_defaults() {
        let opts = RunOptions::default();
        assert_eq!(opts.policy, RunPolicy::FailFast);
        assert!(opts.faults.is_none());
        assert!(opts.deadline.is_none());
        assert!(opts.cancel.is_none());
        assert!(opts.checkpoint.is_none());
        assert!(opts.cache.is_none());
        assert!(opts.resume.is_none());
        assert_eq!(opts.fault(0, 0), None);
        assert_eq!(opts.stop_cause(0), None);
        let opts = RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.9 })
            .with_faults(FaultPlan::new().fail_on(2, 0, FaultKind::Error));
        assert_eq!(opts.fault(2, 0), Some(FaultKind::Error));
    }

    #[test]
    fn preempt_notices_stay_raised_and_never_fail_replicates() {
        let plan = FaultPlan::new()
            .preempt_at(3)
            .fail_on(1, 0, FaultKind::Error);
        assert!(!plan.preempts(0));
        assert!(!plan.preempts(2));
        assert!(plan.preempts(3));
        assert!(plan.preempts(100), "notice stays raised past the boundary");
        // Preempts are invisible to per-replicate fault lookup and to the
        // expected failure ledger.
        assert_eq!(plan.lookup(3, 0), None);
        assert_eq!(
            plan.expected_failure_keys(&RunPolicy::FailFast),
            vec![(1, 0, FailureKind::Error)]
        );
        assert_eq!(FaultKind::Preempt.failure_kind(), None);
        let opts = RunOptions::default().with_faults(plan);
        assert_eq!(opts.stop_cause(2), None);
        assert_eq!(opts.stop_cause(3), Some(StopCause::Preempted));
    }

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
        let opts = RunOptions::default().with_deadline(past);
        assert_eq!(opts.stop_cause(0), Some(StopCause::Deadline));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        let opts = RunOptions::default().with_cancel(clone);
        assert_eq!(opts.stop_cause(5), None);
        token.cancel();
        assert_eq!(opts.stop_cause(5), Some(StopCause::Cancelled));
        assert_eq!(token, opts.cancel.clone().unwrap());
        assert_ne!(token, CancelToken::new(), "identity equality");
    }

    #[test]
    fn child_token_observes_parent_but_not_vice_versa() {
        let master = CancelToken::new();
        let a = CancelToken::child_of(&master);
        let b = CancelToken::child_of(&master);

        // Cancelling one child is invisible to its parent and siblings.
        a.cancel_for(CancelReason::User);
        assert!(a.is_cancelled());
        assert_eq!(a.cancel_reason(), Some(CancelReason::User));
        assert!(!master.is_cancelled());
        assert!(!b.is_cancelled());

        // Cancelling the master fans out to every child; an already
        // cancelled child keeps its own (nearest) reason.
        master.cancel_for(CancelReason::Preempt);
        assert!(b.is_cancelled());
        assert_eq!(b.cancel_reason(), Some(CancelReason::Preempt));
        assert_eq!(a.cancel_reason(), Some(CancelReason::User));

        // Grandchildren observe the chain transitively.
        let c = CancelToken::child_of(&b);
        assert!(c.is_cancelled());
        assert_eq!(c.cancel_reason(), Some(CancelReason::Preempt));
    }

    #[test]
    fn a_liveness_probe_cancels_as_user_and_is_asked_last() {
        use std::sync::atomic::AtomicUsize;
        let calls = Arc::new(AtomicUsize::new(0));
        let probe = |alive: bool| -> Arc<dyn Fn() -> bool + Send + Sync> {
            let calls = Arc::clone(&calls);
            Arc::new(move || {
                calls.fetch_add(1, Ordering::SeqCst);
                alive
            })
        };
        let asked = || calls.load(Ordering::SeqCst);

        // A live consumer is asked at every poll and never cancels.
        let live = CancelToken::child_while(&CancelToken::new(), probe(true));
        assert!(!live.is_cancelled());
        assert!(!live.is_cancelled());
        assert_eq!(asked(), 2);

        // A gone one cancels the token with `User`, visible through a
        // slice token linked under it, and is never asked again.
        let gone = CancelToken::child_while(&CancelToken::new(), probe(false));
        let slice = CancelToken::child_of_all(&[CancelToken::new(), gone.clone()]);
        let opts = RunOptions::default().with_cancel(slice);
        assert_eq!(opts.stop_cause(0), Some(StopCause::Cancelled));
        assert_eq!(gone.cancel_reason(), Some(CancelReason::User));
        assert_eq!(asked(), 3);
        assert!(gone.is_cancelled());
        assert_eq!(asked(), 3);

        // A cancelled parent wins as `Preempt`; the probe is not called.
        let master = CancelToken::new();
        let drained = CancelToken::child_while(&master, probe(false));
        master.cancel_for(CancelReason::Preempt);
        assert!(drained.is_cancelled());
        assert_eq!(drained.cancel_reason(), Some(CancelReason::Preempt));
        assert_eq!(asked(), 3);

        // So does the token's own earlier cancel.
        let shed = CancelToken::child_while(&CancelToken::new(), probe(false));
        shed.cancel_for(CancelReason::Shed);
        assert!(shed.is_cancelled());
        assert_eq!(shed.cancel_reason(), Some(CancelReason::Shed));
        assert_eq!(asked(), 3);
    }

    #[test]
    fn preempt_outranks_wallclock_stops() {
        // Deterministic chaos stops must win over wall-clock ones so the
        // harness stops at an exact boundary.
        let opts = RunOptions::default()
            .with_faults(FaultPlan::new().preempt_at(0))
            .with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
        assert_eq!(opts.stop_cause(0), Some(StopCause::Preempted));
    }

    #[test]
    fn checkpoint_spec_cadence() {
        let spec = CheckpointSpec::new("/tmp/c.ckpt");
        assert_eq!(spec.every, 1);
        assert!(!spec.due(0));
        assert!(spec.due(1));
        let spec = spec.every(5);
        assert!(!spec.due(4));
        assert!(spec.due(5));
        assert!(!spec.due(6));
        assert!(spec.due(10));
        // A zero interval behaves as 1 rather than dividing by zero.
        assert!(CheckpointSpec::new("x").every(0).due(1));
        assert_eq!(StopCause::Deadline.to_string(), "deadline expired");
        assert_eq!(StopCause::Cancelled.to_string(), "cancelled");
        assert_eq!(StopCause::Preempted.to_string(), "preempted");
    }
}
