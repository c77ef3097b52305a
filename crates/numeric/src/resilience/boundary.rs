//! The boundary protocol: how every supervised campaign runs one boundary
//! (a Monte Carlo replicate, a filter step, a GA generation, a bisection
//! round), keeps or drops it, and goes on — written once.
//!
//! A boundary goes through these steps, in this order:
//!
//! 1. **stop check** — [`RunOptions::stop_cause`] (preempt notice, then
//!    cancel token, then deadline); a stop leaves the boundary un-run;
//! 2. **supervision** — `supervise_boundary` runs attempts under the
//!    [`RunPolicy`](super::RunPolicy); each attempt ([`Attempt::run`]) picks
//!    its streams from `(seed, stream key, attempt)`, injects any scheduled
//!    fault, contains panics, and classifies the result;
//! 3. **commit** — [`CampaignState::commit`] absorbs the outcome into the
//!    ledger, lets the surface fold the value (or the drop) into its own
//!    state, and advances the cursor; an abort surfaces as the surface's
//!    typed error instead;
//! 4. **cadence** — still inside `commit`, a checkpoint is written when
//!    [`CheckpointSpec::due`] says so;
//!
//! and, once no boundary is left or a stop fired, **seal** —
//! `CampaignState::seal` normalises the ledger, enforces the best-effort
//! floor on unstopped runs, and writes the final checkpoint.
//!
//! [`drive`] loops these for a [`Surface`]; a surface supplies only what is
//! its own: the attempt body, the value that must be finite, its unit noun,
//! and what a committed or dropped boundary means for its working set.
//! [`drive_in_memory`] is the same loop for the entry points that return no
//! stop cause and no checkpoint.

use super::{
    catch_panic, retry_seed, supervise_replicate, AttemptFailure, CheckpointSpec, ErrorClass,
    FaultKind, FaultPlan, ReplicateOutcome, RunOptions, RunReport, StopCause,
};
use crate::checkpoint::{CampaignState, CheckpointError};
use crate::rng::StreamFactory;

/// The typed errors the protocol raises on a surface's behalf. Implemented
/// by each surface's error enum, so an abort or an exhausted floor is the
/// layer's own `ReplicateFailed` / `StepFailed` / `TooManyFailures`, not a
/// stringly wrapper.
pub trait BoundaryError: std::error::Error + ErrorClass + From<CheckpointError> {
    /// A best-effort run kept fewer boundaries than its policy requires.
    fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self;

    /// `boundary` failed terminally on `attempt` with no typed error of its
    /// own (a caught panic, a non-finite value).
    fn boundary_failed(boundary: u64, attempt: u32, message: String) -> Self;

    /// The retryable error a scheduled [`FaultKind::Error`] injects.
    fn injected_fault(boundary: u64, attempt: u32) -> Self {
        Self::boundary_failed(boundary, attempt, "injected fault".into())
    }
}

/// One attempt of one boundary, as a surface's attempt body sees it.
#[derive(Debug, Clone, Copy)]
pub struct Attempt<'a> {
    /// The boundary being run.
    pub boundary: u64,
    /// Zero-based attempt number within the boundary.
    pub attempt: u32,
    seed: u64,
    opts: &'a RunOptions,
}

impl Attempt<'_> {
    /// The stream family this attempt draws from for `key` — the boundary,
    /// or whatever finer unit the surface caches results under. Attempt 0
    /// (and every attempt of a non-reseeding policy) keeps the
    /// `(seed, key)` layout of an unsupervised run; a reseeding retry
    /// derives a fresh family from `(seed, key, attempt)`, so it never
    /// replays the failing stream.
    pub fn streams(&self, key: u64) -> StreamFactory {
        if self.attempt == 0 || !self.opts.policy.reseeds() {
            StreamFactory::new(self.seed).child(key)
        } else {
            StreamFactory::new(retry_seed(self.seed, key, self.attempt))
        }
    }

    /// Run `body` as this attempt: inject the fault scheduled for it, if
    /// any, contain a panic, and classify the result. `finite` names the
    /// part of the value that must be finite for the attempt to count;
    /// `unit` is the surface's noun for a boundary, as it appears in the
    /// injected panic's message.
    pub fn run<T, E: BoundaryError>(
        &self,
        unit: &str,
        body: impl FnOnce() -> Result<T, E>,
        finite: impl FnOnce(&T) -> f64,
    ) -> Result<T, AttemptFailure<E>> {
        let (boundary, attempt) = (self.boundary, self.attempt);
        let injected = self.opts.fault(boundary, attempt);
        if injected == Some(FaultKind::Error) {
            return Err(AttemptFailure::from_error(E::injected_fault(
                boundary, attempt,
            )));
        }
        let run = catch_panic(|| {
            if injected == Some(FaultKind::Panic) {
                panic!("injected fault: panic in {unit} {boundary} attempt {attempt}");
            }
            body()
        });
        match run {
            Err(panic_msg) => Err(AttemptFailure::from_panic(panic_msg)),
            Ok(Err(e)) => Err(AttemptFailure::from_error(e)),
            Ok(Ok(value)) => {
                let checked = if injected == Some(FaultKind::Nan) {
                    f64::NAN
                } else {
                    finite(&value)
                };
                if checked.is_finite() {
                    Ok(value)
                } else {
                    Err(AttemptFailure::non_finite(checked))
                }
            }
        }
    }
}

/// Supervise `boundary` to an outcome under `opts.policy`: `attempt` is
/// called once per attempt and normally ends in [`Attempt::run`].
fn supervise_boundary<T, E>(
    seed: u64,
    boundary: u64,
    opts: &RunOptions,
    mut attempt: impl FnMut(&Attempt<'_>) -> Result<T, AttemptFailure<E>>,
) -> ReplicateOutcome<T, E> {
    supervise_replicate(boundary, &opts.policy, |a| {
        attempt(&Attempt {
            boundary,
            attempt: a,
            seed,
            opts,
        })
    })
}

impl CampaignState {
    /// Commit `boundary`'s outcome: absorb it into the ledger, hand the
    /// value (`None` for a drop) to `fold` so the surface updates its
    /// payload, advance the cursor, and write a checkpoint when `cadence`
    /// says one is due. An abort is returned as the aborting attempt's own
    /// typed error, or synthesised from its failure record.
    pub fn commit<T, E: BoundaryError>(
        &mut self,
        boundary: u64,
        outcome: ReplicateOutcome<T, E>,
        cadence: Option<&CheckpointSpec>,
        fold: impl FnOnce(&mut CampaignState, Option<T>),
    ) -> Result<(), E> {
        self.report.absorb(&outcome);
        match outcome {
            ReplicateOutcome::Success { value, .. } => fold(self, Some(value)),
            ReplicateOutcome::Dropped { .. } => fold(self, None),
            ReplicateOutcome::Abort { error, failures } => {
                return Err(error.unwrap_or_else(|| match failures.last() {
                    Some(f) => E::boundary_failed(f.replicate, f.attempt, f.message.clone()),
                    None => {
                        E::boundary_failed(boundary, 0, "aborted without a failure record".into())
                    }
                }));
            }
        }
        self.cursor = boundary + 1;
        if let Some(spec) = cadence {
            if spec.due(self.cursor) {
                self.save_ledgered(&spec.path)?;
            }
        }
        Ok(())
    }

    /// Seal a run: normalise the ledger, enforce the best-effort floor —
    /// on runs that were not stopped only, over the planned boundaries or,
    /// for an open-ended campaign, the attempted ones — and write the
    /// final checkpoint. A stopped run is partial by design and is sealed
    /// with whatever it has.
    pub(crate) fn seal<E: BoundaryError>(
        &mut self,
        opts: &RunOptions,
        stopped: Option<StopCause>,
    ) -> Result<(), E> {
        self.report.normalize();
        if stopped.is_none() {
            let planned = match self.total {
                0 => self.report.attempted,
                total => total as usize,
            };
            let required = opts.policy.required_successes(planned);
            if self.report.succeeded < required {
                return Err(E::too_many_failures(
                    self.report.succeeded,
                    self.report.attempted,
                    required,
                ));
            }
        }
        if let Some(spec) = &opts.checkpoint {
            self.save_ledgered(&spec.path)?;
        }
        Ok(())
    }
}

/// What a surface supplies to [`drive`].
pub trait Surface {
    /// What one successful boundary produces.
    type Value;
    /// The surface's error type.
    type Error: BoundaryError;

    /// One attempt of boundary `att.boundary`; normally a call to
    /// [`Attempt::run`] around the surface's body.
    fn attempt(&mut self, att: &Attempt<'_>) -> Result<Self::Value, AttemptFailure<Self::Error>>;

    /// Fold a committed boundary into the surface's working set and into
    /// `state`'s payload: `Some(value)` for a success, `None` for a drop.
    fn commit(&mut self, state: &mut CampaignState, boundary: u64, value: Option<Self::Value>);

    /// Whether a boundary is left to run. A closed campaign runs
    /// `cursor < total`; an open-ended one overrides this with its own
    /// work queue.
    fn pending(&self, state: &CampaignState) -> bool {
        state.cursor < state.total
    }
}

/// Run `surface` from `state.cursor` until no boundary is pending or a stop
/// fires, then seal. Returns why the run stopped early, if it did; the
/// result itself is in `surface` and `state`.
pub fn drive<S: Surface>(
    surface: &mut S,
    state: &mut CampaignState,
    opts: &RunOptions,
) -> Result<Option<StopCause>, S::Error> {
    let mut stopped = None;
    while surface.pending(state) {
        let boundary = state.cursor;
        stopped = opts.stop_cause(boundary);
        if stopped.is_some() {
            break;
        }
        let outcome = supervise_boundary(state.master_seed, boundary, opts, |att| {
            surface.attempt(att)
        });
        state.commit(
            boundary,
            outcome,
            opts.checkpoint.as_ref(),
            |state, value| surface.commit(state, boundary, value),
        )?;
    }
    state.seal::<S::Error>(opts, stopped)?;
    Ok(stopped)
}

/// [`drive`] over a fresh in-memory state, for entry points whose return
/// type carries neither a stop cause nor a checkpoint: the policy and the
/// plan's replicate faults apply; deadline, cancellation, preemption,
/// checkpointing and resumption do not.
pub fn drive_in_memory<S: Surface>(
    surface: &mut S,
    seed: u64,
    total: u64,
    opts: &RunOptions,
) -> Result<RunReport, S::Error> {
    let opts = RunOptions {
        policy: opts.policy,
        faults: opts.faults.as_ref().map(|plan| FaultPlan {
            faults: plan
                .faults
                .iter()
                .filter(|f| f.kind.failure_kind().is_some())
                .copied()
                .collect(),
        }),
        ..RunOptions::default()
    };
    let mut state = CampaignState::new("", 0, seed, total);
    drive(surface, &mut state, &opts)?;
    Ok(state.report)
}

#[cfg(test)]
mod tests {
    //! The protocol driven through two toy surfaces — a closed one (eight
    //! boundaries, one draw each) and an open-ended one (a bisection-style
    //! work queue) — under every policy, every fault kind, a preemption at
    //! every boundary and both checkpoint cadences. The five real surfaces
    //! repeat the resumed ≡ uninterrupted half of this in
    //! `tests/durability.rs`; a protocol break shows up here first.

    use super::*;
    use crate::resilience::{FailureKind, RunPolicy, Severity};
    use crate::rng::chaos_seed;
    use std::fmt;
    use std::path::PathBuf;

    #[derive(Debug, PartialEq)]
    enum ToyError {
        TooManyFailures(usize, usize, usize),
        Failed(u64, u32, String),
        Fatal,
        Checkpoint(CheckpointError),
    }

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self:?}")
        }
    }

    impl std::error::Error for ToyError {}

    impl ErrorClass for ToyError {
        fn severity(&self) -> Severity {
            match self {
                ToyError::Failed(..) => Severity::Retryable,
                _ => Severity::Fatal,
            }
        }
    }

    impl From<CheckpointError> for ToyError {
        fn from(e: CheckpointError) -> Self {
            ToyError::Checkpoint(e)
        }
    }

    impl BoundaryError for ToyError {
        fn too_many_failures(succeeded: usize, attempted: usize, required: usize) -> Self {
            ToyError::TooManyFailures(succeeded, attempted, required)
        }

        fn boundary_failed(boundary: u64, attempt: u32, message: String) -> Self {
            ToyError::Failed(boundary, attempt, message)
        }
    }

    /// Closed: `CLOSED_TOTAL` boundaries, boundary `b` keeps one uniform
    /// draw from its own stream; `fatal_at` fails that boundary fatally.
    struct Draws {
        fatal_at: Option<u64>,
    }

    const CLOSED_TOTAL: u64 = 8;

    impl Surface for Draws {
        type Value = f64;
        type Error = ToyError;

        fn attempt(&mut self, att: &Attempt<'_>) -> Result<f64, AttemptFailure<ToyError>> {
            att.run(
                "toy",
                || {
                    if self.fatal_at == Some(att.boundary) {
                        return Err(ToyError::Fatal);
                    }
                    Ok(att.streams(att.boundary).stream(0).gen::<f64>())
                },
                |v| *v,
            )
        }

        fn commit(&mut self, state: &mut CampaignState, b: u64, value: Option<f64>) {
            if let Some(v) = value {
                state.completed.push((b, vec![v]));
            }
        }
    }

    /// Open-ended: a queue of half-open ranges, the whole of `0..8` at
    /// first. A round draws once on the stream keyed by its range; wide
    /// ranges always split, a pair splits on a low draw, a dropped round
    /// abandons its range — so the round count depends on draws and drops.
    struct Splits {
        queue: Vec<(u64, u64)>,
    }

    impl Splits {
        fn encode_into(&self, state: &mut CampaignState) {
            state.ints = self.queue.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();
        }
    }

    impl Surface for Splits {
        type Value = f64;
        type Error = ToyError;

        fn pending(&self, _: &CampaignState) -> bool {
            !self.queue.is_empty()
        }

        fn attempt(&mut self, att: &Attempt<'_>) -> Result<f64, AttemptFailure<ToyError>> {
            let &(lo, hi) = self.queue.last().unwrap();
            att.run(
                "toy",
                || Ok(att.streams(lo * 64 + hi).stream(0).gen::<f64>()),
                |v| *v,
            )
        }

        fn commit(&mut self, state: &mut CampaignState, b: u64, value: Option<f64>) {
            let (lo, hi) = self.queue.pop().unwrap();
            if let Some(v) = value {
                state.completed.push((b, vec![v]));
                if hi - lo > 2 || (hi - lo == 2 && v < 0.5) {
                    let mid = lo + (hi - lo) / 2;
                    self.queue.push((lo, mid));
                    self.queue.push((mid, hi));
                }
            }
            self.encode_into(state);
        }
    }

    type Run = Result<(Option<StopCause>, CampaignState), ToyError>;
    type Toy = fn(u64, &RunOptions) -> Run;

    fn run_closed(seed: u64, opts: &RunOptions) -> Run {
        let mut state = CampaignState::start_or_resume(
            opts.resume.as_ref(),
            "toy.closed",
            1,
            seed,
            CLOSED_TOTAL,
        )?;
        let stopped = drive(&mut Draws { fatal_at: None }, &mut state, opts)?;
        Ok((stopped, state))
    }

    fn run_open(seed: u64, opts: &RunOptions) -> Run {
        let mut state =
            CampaignState::start_or_resume(opts.resume.as_ref(), "toy.open", 2, seed, 0)?;
        let mut splits = Splits {
            queue: if state.cursor == 0 && state.ints.is_empty() {
                vec![(0, 8)]
            } else {
                state.ints.chunks_exact(2).map(|p| (p[0], p[1])).collect()
            },
        };
        splits.encode_into(&mut state);
        let stopped = drive(&mut splits, &mut state, opts)?;
        Ok((stopped, state))
    }

    const TOYS: [(&str, Toy); 2] = [("closed", run_closed), ("open", run_open)];
    const FAULTS: [FaultKind; 3] = [FaultKind::Error, FaultKind::Panic, FaultKind::Nan];

    fn retry(reseed: bool) -> RunPolicy {
        RunPolicy::Retry {
            max_attempts: 3,
            reseed,
        }
    }

    /// Boundary 1 fails once, boundary 3 twice: both recover under
    /// `Retry{3}`, both are dropped under `BestEffort` (one attempt each).
    fn plan(kind: FaultKind) -> FaultPlan {
        FaultPlan::new()
            .fail_on(1, 0, kind)
            .fail_on(3, 0, kind)
            .fail_on(3, 1, kind)
    }

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            Scratch(std::env::temp_dir().join(format!(
                "mde-boundary-{}-{}-{name}.ckpt",
                std::process::id(),
                chaos_seed()
            )))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn resumed_equals_uninterrupted_under_every_recovering_policy_fault_cut_and_cadence() {
        let seed = chaos_seed();
        let policies = [
            retry(true),
            retry(false),
            RunPolicy::BestEffort { min_fraction: 0.5 },
        ];
        for (name, toy) in TOYS {
            let (_, clean) = toy(seed, &RunOptions::default()).unwrap();
            for policy in policies {
                for kind in FAULTS {
                    let context = format!("{name} {policy:?} {kind:?}");
                    let faulted = RunOptions::policy(policy).with_faults(plan(kind));
                    let (stopped, whole) = toy(seed, &faulted).unwrap();
                    assert_eq!(stopped, None, "{context}");
                    assert_eq!(
                        whole.report.failure_keys(),
                        plan(kind).expected_failure_keys(&policy),
                        "{context}: ledger is not the injected plan"
                    );
                    assert_eq!(
                        whole.report.metrics.io_counter("ckpt.saves"),
                        0,
                        "{context}"
                    );
                    // Stream choice: a reseeding retry draws afresh, a
                    // non-reseeding one replays the boundary's own stream.
                    // (Round 1 of the open toy is the same range faulted or not.)
                    let kept =
                        |s: &CampaignState| s.completed.iter().find(|(b, _)| *b == 1).cloned();
                    match policy {
                        RunPolicy::Retry { reseed: true, .. } => {
                            assert_ne!(kept(&whole), kept(&clean), "{context}")
                        }
                        RunPolicy::Retry { reseed: false, .. } => {
                            assert_eq!(kept(&whole), kept(&clean), "{context}")
                        }
                        _ => assert_eq!(kept(&whole), None, "{context}: dropped"),
                    }

                    for cut in 0..whole.cursor {
                        for every in [None, Some(1), Some(3)] {
                            let context = format!("{context} cut {cut} every {every:?}");
                            let scratch = Scratch::new(&format!("{name}-{cut}"));
                            let mut opts =
                                RunOptions::policy(policy).with_faults(plan(kind).preempt_at(cut));
                            if let Some(every) = every {
                                opts = opts
                                    .with_checkpoint(CheckpointSpec::new(&scratch.0).every(every));
                            }
                            let (stopped, partial) = toy(seed, &opts).unwrap();
                            assert_eq!(stopped, Some(StopCause::Preempted), "{context}");
                            assert_eq!(partial.cursor, cut, "{context}");
                            // Cadence saves plus the final one.
                            assert_eq!(
                                partial.report.metrics.io_counter("ckpt.saves"),
                                every.map_or(0, |every| cut / every + 1),
                                "{context}"
                            );
                            let state = match every {
                                None => partial,
                                Some(_) => {
                                    let loaded = CampaignState::load(&scratch.0).unwrap();
                                    assert_eq!(loaded.encode(), partial.encode(), "{context}");
                                    loaded
                                }
                            };
                            let (stopped, resumed) =
                                toy(seed, &faulted.clone().resuming(state)).unwrap();
                            assert_eq!(stopped, None, "{context}");
                            assert_eq!(resumed.completed, whole.completed, "{context}: values");
                            assert_eq!(resumed.report, whole.report, "{context}: report");
                            assert_eq!(resumed.encode(), whole.encode(), "{context}: state bytes");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fail_fast_surfaces_the_first_fault_as_the_typed_error() {
        let seed = chaos_seed();
        for (name, toy) in TOYS {
            for kind in FAULTS {
                let opts = RunOptions::default().with_faults(plan(kind));
                match (kind, toy(seed, &opts).unwrap_err()) {
                    (FaultKind::Error, ToyError::Failed(1, 0, message)) => {
                        assert_eq!(message, "injected fault", "{name}")
                    }
                    (FaultKind::Panic, ToyError::Failed(1, 0, message)) => {
                        assert_eq!(
                            message, "injected fault: panic in toy 1 attempt 0",
                            "{name}"
                        )
                    }
                    (FaultKind::Nan, ToyError::Failed(1, 0, message)) => assert_eq!(
                        message, "replicate produced non-finite sample NaN",
                        "{name}"
                    ),
                    (kind, other) => panic!("{name} {kind:?}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn exhausted_retries_abort_with_the_last_attempt() {
        let policy = RunPolicy::Retry {
            max_attempts: 2,
            reseed: true,
        };
        let opts = RunOptions::policy(policy).with_faults(plan(FaultKind::Panic));
        match run_closed(chaos_seed(), &opts).unwrap_err() {
            ToyError::Failed(3, 1, message) => assert!(message.contains("toy 3 attempt 1")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn best_effort_floor_is_enforced_on_unstopped_runs_only() {
        let seed = chaos_seed();
        let policy = RunPolicy::BestEffort { min_fraction: 0.5 };
        let heavy = (0..5).fold(FaultPlan::new(), |p, b| p.fail_on(b, 0, FaultKind::Error));
        let floor = ToyError::TooManyFailures(3, 8, 4);
        let opts = RunOptions::policy(policy).with_faults(heavy.clone());
        assert_eq!(run_closed(seed, &opts).unwrap_err(), floor);
        for cut in 0..CLOSED_TOTAL {
            // A stopped run is partial by design: no floor, whatever it kept.
            let stopping = RunOptions::policy(policy).with_faults(heavy.clone().preempt_at(cut));
            let (stopped, partial) = run_closed(seed, &stopping).unwrap();
            assert_eq!(stopped, Some(StopCause::Preempted));
            assert_eq!(partial.report.attempted as u64, cut);
            // Running it out meets the floor it would have met uninterrupted.
            assert_eq!(
                run_closed(seed, &opts.clone().resuming(partial)).unwrap_err(),
                floor
            );
        }
        // An open-ended campaign is held to the rounds it attempted.
        let all = (0..32).fold(FaultPlan::new(), |p, b| p.fail_on(b, 0, FaultKind::Nan));
        let opts = RunOptions::policy(policy).with_faults(all);
        assert_eq!(
            run_open(seed, &opts).unwrap_err(),
            ToyError::TooManyFailures(0, 1, 1)
        );
    }

    #[test]
    fn fatal_errors_abort_under_every_policy() {
        for policy in [
            RunPolicy::FailFast,
            retry(true),
            retry(false),
            RunPolicy::BestEffort { min_fraction: 0.0 },
        ] {
            let mut state = CampaignState::new("toy.closed", 1, chaos_seed(), CLOSED_TOTAL);
            let mut toy = Draws { fatal_at: Some(2) };
            let err = drive(&mut toy, &mut state, &RunOptions::policy(policy)).unwrap_err();
            assert_eq!(err, ToyError::Fatal, "{policy:?}");
            assert_eq!(
                state.cursor, 2,
                "{policy:?}: the aborting boundary is not committed"
            );
            assert_eq!(
                state.report.failure_keys(),
                vec![(2, 0, FailureKind::Error)],
                "{policy:?}: fatal failures are not retried"
            );
        }
    }

    #[test]
    fn in_memory_runs_honour_policy_and_faults_but_no_durable_control() {
        let seed = chaos_seed();
        let (_, whole) = run_closed(
            seed,
            &RunOptions::policy(retry(true)).with_faults(plan(FaultKind::Panic)),
        )
        .unwrap();
        let token = crate::resilience::CancelToken::new();
        token.cancel();
        let scratch = Scratch::new("in-memory");
        let opts = RunOptions::policy(retry(true))
            .with_faults(plan(FaultKind::Panic).preempt_at(2))
            .with_cancel(token)
            .with_checkpoint(CheckpointSpec::new(&scratch.0));
        let report =
            drive_in_memory(&mut Draws { fatal_at: None }, seed, CLOSED_TOTAL, &opts).unwrap();
        assert_eq!(report, whole.report);
        assert!(!scratch.0.exists(), "an in-memory run writes no checkpoint");
    }
}
