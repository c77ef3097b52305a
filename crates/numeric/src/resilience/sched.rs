//! Scheduling primitives: priorities, typed overload rejections, and the
//! `Campaign` abstraction an admission-controlled scheduler multiplexes.
//!
//! The scheduler itself lives in `mde-core` (it coordinates surfaces from
//! every crate); what lives here, at the bottom of the dependency graph,
//! is the *vocabulary*: [`Priority`] ordering, the [`Overloaded`] error
//! family admission control rejects with, and the [`Campaign`] trait the
//! scheduler multiplexes. A campaign runs in slices: each
//! [`Campaign::run`] call executes until completion or until the
//! campaign's control block ([`CampaignCtl`]) tells it to stop at a
//! boundary, in which case it reports whether it can resume.
//!
//! Every durable execution surface (Monte Carlo query, particle filter,
//! optimizer, screening design) becomes a [`Campaign`] the same way: it
//! implements [`DurableSurface`] — how to run one slice under a
//! [`RunOptions`] — and the slice protocol (control-block wiring, parking
//! the checkpoint between slices, mapping the stop cause to a
//! [`CampaignStep`]) is written once, in the blanket impl below.

use super::{
    CancelToken, Deadline, ErrorClass, RunOptions, RunPolicy, RunReport, Severity, StopCause,
};
use crate::checkpoint::CampaignState;
use std::fmt;

/// Dispatch priority class, lowest first: under pressure the scheduler
/// sheds [`Priority::BestEffort`] work before [`Priority::Batch`], and
/// [`Priority::Interactive`] last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Opportunistic work: first to shed, absorbs cuts into partial
    /// results.
    BestEffort,
    /// Normal long-running campaigns.
    Batch,
    /// Latency-sensitive exploration (the GenIE-style iterative loop):
    /// shed last, dispatched first among equal deadlines.
    Interactive,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::BestEffort => write!(f, "best-effort"),
            Priority::Batch => write!(f, "batch"),
            Priority::Interactive => write!(f, "interactive"),
        }
    }
}

/// Typed admission-control rejection: why the scheduler refused or shed
/// work. Every variant is [`Severity::Retryable`] — overload is a state
/// of the system, not of the request, and the same submission can succeed
/// once pressure drains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Overloaded {
    /// The tenant's bounded submission queue is at capacity.
    QueueFull {
        /// Tenant whose queue overflowed.
        tenant: String,
        /// Queued campaigns at rejection time.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// Admitting the campaign would exceed the scheduler's in-flight cost
    /// budget.
    CostBudget {
        /// Cost of the rejected campaign.
        cost: u64,
        /// Cost already admitted and not yet completed.
        in_flight: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The campaign's resource has a tripped circuit breaker.
    BreakerOpen {
        /// The resource whose breaker is open.
        resource: String,
    },
    /// The campaign was admitted but shed before completion to relieve
    /// pressure.
    Shed {
        /// Tenant owning the shed campaign.
        tenant: String,
        /// Campaign name.
        campaign: String,
    },
    /// The campaign's deadline expired before it could be dispatched.
    DeadlineExpired {
        /// Campaign name.
        campaign: String,
    },
    /// A storage pressure probe reported the shared buffer pool too
    /// close to its frame budget to admit more work.
    PoolPressure {
        /// Observed pool occupancy, in percent of the frame budget.
        pressure_pct: u32,
        /// The configured admission ceiling, in percent.
        limit_pct: u32,
    },
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overloaded::QueueFull {
                tenant,
                depth,
                capacity,
            } => write!(
                f,
                "tenant `{tenant}` submission queue full ({depth}/{capacity})"
            ),
            Overloaded::CostBudget {
                cost,
                in_flight,
                budget,
            } => write!(
                f,
                "cost budget exceeded: admitting cost {cost} onto {in_flight} in flight would pass budget {budget}"
            ),
            Overloaded::BreakerOpen { resource } => {
                write!(f, "circuit breaker open for resource `{resource}`")
            }
            Overloaded::Shed { tenant, campaign } => {
                write!(f, "campaign `{campaign}` (tenant `{tenant}`) shed under pressure")
            }
            Overloaded::DeadlineExpired { campaign } => {
                write!(f, "campaign `{campaign}` deadline expired before dispatch")
            }
            Overloaded::PoolPressure {
                pressure_pct,
                limit_pct,
            } => write!(
                f,
                "buffer pool pressure {pressure_pct}% exceeds admission limit {limit_pct}%"
            ),
        }
    }
}

impl std::error::Error for Overloaded {}

impl ErrorClass for Overloaded {
    fn severity(&self) -> Severity {
        Severity::Retryable
    }
}

/// The control block a scheduler hands each campaign slice: a shed/preempt
/// token the scheduler can trigger mid-slice, plus the campaign's
/// wall-clock deadline. Adapters thread both into their surface's
/// `RunOptions` so existing boundary checks do the polling.
#[derive(Debug, Clone, Default)]
pub struct CampaignCtl {
    /// Cancellation handle; the scheduler triggers it with
    /// [`super::CancelReason::Shed`] or [`super::CancelReason::Preempt`].
    pub cancel: CancelToken,
    /// Wall-clock deadline, if the campaign has one.
    pub deadline: Option<Deadline>,
}

impl CampaignCtl {
    /// A control block with a fresh token and no deadline.
    pub fn new() -> Self {
        CampaignCtl::default()
    }
}

/// What one [`Campaign::run`] slice produced.
#[derive(Debug)]
pub enum CampaignStep {
    /// The campaign finished (possibly with a degraded partial estimate —
    /// the report says so).
    Done(CampaignOutput),
    /// The campaign stopped at a boundary in response to its control
    /// block and can be re-queued.
    Boundary {
        /// Whether the campaign checkpointed and can resume where it
        /// stopped; non-resumable campaigns restart from scratch.
        resumable: bool,
    },
}

/// A finished campaign's result: a scalar summary value (estimate,
/// evidence, best objective — surface-specific) plus the full run ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput {
    /// Surface-specific scalar summary (`None` when the campaign finished
    /// without producing an estimate, e.g. all replicates shed).
    pub value: Option<f64>,
    /// The campaign's failure/metrics ledger.
    pub report: RunReport,
}

/// A typed campaign failure surfaced to the scheduler's retry ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Human-readable cause.
    pub message: String,
    /// Drives the retry decision: retryable errors climb the backoff
    /// ladder, fatal ones fail the campaign immediately.
    pub severity: Severity,
}

impl CampaignError {
    /// A retryable failure.
    pub fn retryable(message: impl Into<String>) -> Self {
        CampaignError {
            message: message.into(),
            severity: Severity::Retryable,
        }
    }

    /// A fatal failure (configuration bug — retrying cannot help).
    pub fn fatal(message: impl Into<String>) -> Self {
        CampaignError {
            message: message.into(),
            severity: Severity::Fatal,
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CampaignError {}

impl ErrorClass for CampaignError {
    fn severity(&self) -> Severity {
        self.severity
    }
}

/// A schedulable unit of work. Implementations wrap an execution surface
/// (a Monte Carlo query, a particle filter, an optimizer run) and carry
/// whatever state they need to resume across slices.
pub trait Campaign: Send {
    /// Execute one slice: run until completion or until `ctl` requests a
    /// stop at a boundary. Called again (same instance) after a
    /// [`CampaignStep::Boundary`] re-queue, with a fresh token in `ctl`.
    fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError>;
}

/// What one slice of a durable surface produced, reduced to what the slice
/// protocol needs (each surface's own run type — `McRun`, `PfRun`, … — has
/// these four parts).
#[derive(Debug, Clone)]
pub struct SliceRun {
    /// The surface's scalar summary over the completed boundaries
    /// (estimate, evidence, best objective, important-factor count).
    pub value: Option<f64>,
    /// The ledger over the completed boundaries.
    pub report: RunReport,
    /// Why the slice stopped early, if it did.
    pub stopped: Option<StopCause>,
    /// The state the next slice resumes from.
    pub checkpoint: Option<CampaignState>,
}

/// A durable execution surface packaged for the scheduler. Implementors are
/// [`Campaign`]s through the blanket impl; all they say is how one slice
/// runs.
pub trait DurableSurface: Send {
    /// The surface's error type.
    type Error: std::error::Error + ErrorClass;

    /// The submitter's options. Between slices the parked checkpoint lives
    /// in their [`resume`](RunOptions::resume) field, so a campaign that
    /// should start from a saved state is simply constructed with
    /// `opts.resuming(state)`.
    fn opts_mut(&mut self) -> &mut RunOptions;

    /// Run the surface's one options-taking entry point under `opts` (the
    /// submitter's options with this slice's cancel token, deadline, and
    /// resume state filled in).
    fn run_slice(&mut self, opts: &RunOptions) -> Result<SliceRun, Self::Error>;

    /// Boundaries planned in total, or `None` for an open-ended campaign —
    /// which therefore can never absorb shedding: there is no count of
    /// boundaries that did not run, and an incomplete screen answers a
    /// different question than a degraded estimate.
    fn boundaries(&self) -> Option<u64>;
}

impl<S: DurableSurface> Campaign for S {
    fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
        let own = self.opts_mut();
        let resume = own.resume.take();
        let mut opts = RunOptions {
            resume,
            ..own.clone()
        };
        // Observe both the scheduler's control token and any cancel handle
        // the submitter attached (a session disconnect signal, a client
        // abort): whichever fires first stops the slice.
        opts.cancel = Some(match &opts.cancel {
            Some(own) => CancelToken::child_of_all(&[ctl.cancel.clone(), own.clone()]),
            None => ctl.cancel.clone(),
        });
        if ctl.deadline.is_some() {
            opts.deadline = ctl.deadline;
        }
        let mut run = self.run_slice(&opts).map_err(|e| CampaignError {
            message: e.to_string(),
            severity: e.severity(),
        })?;
        // Only best-effort work with a known boundary count can absorb a
        // shed into its partial result.
        let absorbable = match opts.policy {
            RunPolicy::BestEffort { .. } => self.boundaries(),
            _ => None,
        };
        match (run.stopped, absorbable) {
            // A user/session cancel (the scheduler itself only ever signals
            // shed or preempt) is terminal: re-queueing would spin against
            // the still-cancelled external token. The partial result is
            // returned and any configured checkpoint was already persisted
            // for a later resume.
            (None | Some(StopCause::Cancelled), _) => {}
            (Some(StopCause::Shed), Some(total)) => {
                // Count the boundaries that never ran as shed, not failed:
                // they are excluded from the estimate but visible in the
                // deterministic ledger, and the CI is flagged as widened.
                let cursor = run.checkpoint.as_ref().map_or(total, |s| s.cursor);
                run.report.record_shed(total.saturating_sub(cursor));
            }
            // Preempted / deadline / shed under a strict policy: park the
            // checkpoint so the next slice resumes at the cursor.
            (Some(_), _) => {
                let resumable = run.checkpoint.is_some();
                self.opts_mut().resume = run.checkpoint;
                return Ok(CampaignStep::Boundary { resumable });
            }
        }
        Ok(CampaignStep::Done(CampaignOutput {
            value: run.value,
            report: run.report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_lowest_first() {
        assert!(Priority::BestEffort < Priority::Batch);
        assert!(Priority::Batch < Priority::Interactive);
        let mut v = vec![Priority::Interactive, Priority::BestEffort, Priority::Batch];
        v.sort();
        assert_eq!(
            v,
            vec![Priority::BestEffort, Priority::Batch, Priority::Interactive]
        );
    }

    #[test]
    fn overloaded_is_always_retryable() {
        let variants: Vec<Overloaded> = vec![
            Overloaded::QueueFull {
                tenant: "t".into(),
                depth: 4,
                capacity: 4,
            },
            Overloaded::CostBudget {
                cost: 10,
                in_flight: 95,
                budget: 100,
            },
            Overloaded::BreakerOpen {
                resource: "sim".into(),
            },
            Overloaded::Shed {
                tenant: "t".into(),
                campaign: "c".into(),
            },
            Overloaded::DeadlineExpired {
                campaign: "c".into(),
            },
        ];
        for v in &variants {
            assert!(v.is_retryable(), "{v} must be retryable");
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn campaign_error_severity_drives_classification() {
        assert!(CampaignError::retryable("x").is_retryable());
        assert!(!CampaignError::fatal("y").is_retryable());
        assert_eq!(CampaignError::fatal("y").to_string(), "y");
    }
}
