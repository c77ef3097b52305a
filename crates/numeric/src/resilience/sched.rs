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
//! The campaign that ships is the Monte Carlo query's
//! (`mde_mcdb::sched::McCampaign`); its `run` is where the slice protocol
//! — control-block wiring, parking the checkpoint between slices, mapping
//! the stop cause to a [`CampaignStep`] — is written.

use super::{CancelToken, Deadline, ErrorClass, RunReport, Severity};
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
/// wall-clock deadline. A campaign threads both into its surface's
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

/// A finished campaign's result: a scalar summary value (for a Monte Carlo
/// campaign, the sample mean) plus the full run ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput {
    /// The campaign's scalar summary (`None` when the campaign finished
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
/// (a Monte Carlo query) and carry whatever state they need to resume
/// across slices.
pub trait Campaign: Send {
    /// Execute one slice: run until completion or until `ctl` requests a
    /// stop at a boundary. Called again (same instance) after a
    /// [`CampaignStep::Boundary`] re-queue, with a fresh token in `ctl`.
    fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError>;
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
