//! The resilience runtime, re-exported as the platform's public API.
//!
//! The vocabulary — [`Severity`]/[`ErrorClass`] classification,
//! [`RunPolicy`], deterministic [`retry_seed`] derivation, [`RunReport`]
//! ledgers, and the [`FaultPlan`] injector — lives in
//! [`mde_numeric::resilience`], at the bottom of the workspace dependency
//! graph, so that every execution layer can speak it. So does the one loop
//! they all run: [`mde_numeric::resilience::boundary`] holds the boundary
//! protocol (stop check → supervised [`Attempt`]s → commit → checkpoint
//! cadence → seal; DESIGN.md §6 states it once) and the [`drive`] /
//! [`drive_in_memory`] drivers over a [`Surface`]. Monte Carlo queries,
//! [`crate::composite::ExecutablePlan::run_monte_carlo_supervised`], the
//! particle filter, the durable optimizers and sequential bifurcation each
//! supply an attempt body, the value that must be finite, and what a drop
//! means — nothing else.
//!
//! This module is the front door: downstream code uses
//! `mde_core::resilience::{RunPolicy, RunOptions, ...}` without caring
//! where the types physically live.
//!
//! # Semantics in brief
//!
//! Every failure is classified [`Severity::Retryable`] (data- or
//! draw-dependent: a fresh stream may succeed) or [`Severity::Fatal`]
//! (structural: every attempt fails identically). Fatal failures abort
//! under every policy. Retryable failures are handled per [`RunPolicy`]:
//! abort (`FailFast`), re-execute on a fresh sub-seed derived purely from
//! `(seed, replicate, attempt)` (`Retry`), or drop and degrade gracefully
//! with a [`RunReport`] ledger (`BestEffort`). Because retry sub-seeds are
//! pure functions, resumed and cached runs stay bit-identical to
//! uninterrupted ones under every policy.
//!
//! # Durable campaigns
//!
//! Long campaigns additionally speak the checkpoint/resume vocabulary:
//! a [`CampaignState`] (seed, spec [`Fingerprint`], completed-boundary
//! ledger, [`RunReport`], progress cursor) written crash-consistently by
//! [`CampaignState::save`], plus [`Deadline`] wall-clock budgets,
//! [`CancelToken`] cooperative cancellation, and the
//! [`FaultKind::Preempt`] chaos fault. A stopped run is *not* an error:
//! every durable surface returns its partial result, the partial report,
//! a [`StopCause`], and a final checkpoint; handing that state back to the
//! same entry point through [`RunOptions::resuming`] continues the run
//! bit-identically to an uninterrupted one.

pub use mde_numeric::checkpoint::{CampaignState, CheckpointError, Fingerprint, SaveStats};
pub use mde_numeric::resilience::backoff::{Backoff, BackoffConfig};
pub use mde_numeric::resilience::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use mde_numeric::resilience::sched::{
    Campaign, CampaignCtl, CampaignError, CampaignOutput, CampaignStep, DurableSurface, Overloaded,
    Priority, SliceRun,
};
pub use mde_numeric::resilience::{
    catch_panic, drive, drive_in_memory, retry_seed, supervise_replicate, Attempt, AttemptFailure,
    BoundaryError, CancelReason, CancelToken, CheckpointSpec, Deadline, ErrorClass, FailureKind,
    FailureRecord, Fault, FaultKind, FaultPlan, ReplicateOutcome, RunOptions, RunPolicy, RunReport,
    Severity, StopCause, Surface,
};
