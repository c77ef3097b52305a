//! Scheduler campaign: runs a [`MonteCarloQuery`] as a schedulable
//! [`Campaign`].
//!
//! The campaign owns everything the query needs (catalog, replicate count,
//! seed, run options), and its [`Campaign::run`] is the slice protocol:
//! each slice is one [`MonteCarloQuery::run_with_options`] call under the
//! submitter's options with the scheduler's control block folded in. A
//! slice the scheduler stops at a replicate boundary parks its checkpoint
//! so the next slice resumes from its cursor bit-identically; a shed under
//! [`RunPolicy::BestEffort`] becomes a partial estimate with the unexecuted
//! replicates counted in `sched.shed`; a submitter's own cancel is
//! terminal.

use crate::mc::MonteCarloQuery;
use crate::query::Catalog;
use mde_numeric::resilience::{CancelToken, RunOptions, RunPolicy, StopCause};
use mde_numeric::{Campaign, CampaignCtl, CampaignError, CampaignOutput, CampaignStep, ErrorClass};

/// A Monte Carlo estimation query packaged as a schedulable campaign. The
/// scalar summary is the sample mean over the completed replicates.
///
/// Each slice runs on the scheduler worker that picked it up, and a
/// campaign constructed with
/// [`RunOptions::resuming`] starts its first slice from that state's cursor
/// — a state from a different query, seed, or replicate count surfaces as a
/// typed checkpoint error when the slice runs, not a wrong answer.
pub struct McCampaign {
    query: MonteCarloQuery,
    catalog: Catalog,
    n: usize,
    seed: u64,
    opts: RunOptions,
}

impl McCampaign {
    /// Package a query as a campaign over `n` replicates.
    pub fn new(
        query: MonteCarloQuery,
        catalog: Catalog,
        n: usize,
        seed: u64,
        opts: RunOptions,
    ) -> Self {
        McCampaign {
            query,
            catalog,
            n,
            seed,
            opts,
        }
    }
}

impl Campaign for McCampaign {
    fn run(&mut self, ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
        // The parked state stays in `self.opts.resume` until a later slice
        // replaces it: a slice that fails or panics leaves it in place, so
        // the scheduler's retry resumes at the cursor instead of replaying
        // every completed replicate.
        let mut opts = self.opts.clone();
        // Observe both the scheduler's control token and any cancel handle
        // the submitter attached (a session disconnect signal, a client
        // abort): whichever fires first stops the slice.
        opts.cancel = Some(match &self.opts.cancel {
            Some(own) => CancelToken::child_of_all(&[ctl.cancel.clone(), own.clone()]),
            None => ctl.cancel.clone(),
        });
        if ctl.deadline.is_some() {
            opts.deadline = ctl.deadline;
        }
        let mut run = self
            .query
            .run_with_options(&self.catalog, self.n, self.seed, &opts)
            .map_err(|e| CampaignError {
                message: e.to_string(),
                severity: e.severity(),
            })?;
        match run.stopped {
            // A user/session cancel (the scheduler itself only ever signals
            // shed or preempt) is terminal: re-queueing would spin against
            // the still-cancelled external token. The partial result is
            // returned and any configured checkpoint was already persisted
            // for a later resume.
            None | Some(StopCause::Cancelled) => {}
            Some(StopCause::Shed) if matches!(opts.policy, RunPolicy::BestEffort { .. }) => {
                // Count the replicates that never ran as shed, not failed:
                // they are excluded from the estimate but visible in the
                // deterministic ledger, and the CI is flagged as widened.
                let n = self.n as u64;
                let cursor = run.checkpoint.as_ref().map_or(n, |s| s.cursor);
                run.report.record_shed(n.saturating_sub(cursor));
            }
            // Preempted / deadline / shed under a strict policy: park the
            // checkpoint so the next slice resumes at the cursor.
            Some(_) => {
                let resumable = run.checkpoint.is_some();
                self.opts.resume = run.checkpoint;
                return Ok(CampaignStep::Boundary { resumable });
            }
        }
        Ok(CampaignStep::Done(CampaignOutput {
            value: (run.result.n() > 0).then(|| run.result.mean()),
            report: run.report,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggSpec, Plan};
    use crate::random_table::RandomTableSpec;
    use crate::schema::DataType;
    use crate::table::Table;
    use crate::value::Value;
    use crate::vg::NormalVg;
    use mde_numeric::resilience::{CancelReason, Deadline, FaultKind, FaultPlan};
    use std::sync::Arc;
    use std::time::Duration;

    fn demand_campaign(n: usize, policy: RunPolicy) -> McCampaign {
        let mut db = Catalog::new();
        db.insert(
            Table::build("ITEMS", &[("IID", DataType::Int)])
                .rows((0..8).map(|i| vec![Value::from(i)]))
                .finish()
                .unwrap(),
        );
        db.insert(
            Table::build(
                "PARAMS",
                &[("MEAN", DataType::Float), ("STD", DataType::Float)],
            )
            .row(vec![Value::from(10.0), Value::from(2.0)])
            .finish()
            .unwrap(),
        );
        let spec = RandomTableSpec::builder("SALES")
            .for_each(Plan::scan("ITEMS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("PARAMS"))
            .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let plan = Plan::scan("SALES").aggregate(
            &[],
            vec![AggSpec::new(
                "TOTAL",
                crate::query::AggFunc::Sum,
                Expr::col("AMT"),
            )],
        );
        McCampaign::new(
            MonteCarloQuery::new(vec![spec], plan),
            db,
            n,
            7,
            RunOptions::policy(policy),
        )
    }

    #[test]
    fn completes_in_one_slice() {
        let mut c = demand_campaign(16, RunPolicy::FailFast);
        let step = c.run(&CampaignCtl::new()).expect("campaign runs");
        match step {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.succeeded, 16);
                let v = out.value.expect("estimate present");
                assert!(v.is_finite() && v > 0.0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn preempt_then_resume_matches_uninterrupted() {
        // Uninterrupted baseline.
        let mut base = demand_campaign(24, RunPolicy::FailFast);
        let baseline = match base.run(&CampaignCtl::new()).expect("baseline") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };

        // Preempt immediately: the first slice stops at replicate 0 and
        // reports a resumable boundary.
        let mut c = demand_campaign(24, RunPolicy::FailFast);
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Preempt);
        match c.run(&ctl).expect("preempted slice") {
            CampaignStep::Boundary { resumable } => assert!(resumable),
            other => panic!("expected Boundary, got {other:?}"),
        }

        // Second slice with a fresh token finishes and matches bit-for-bit.
        let resumed = match c.run(&CampaignCtl::new()).expect("resumed slice") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };
        assert_eq!(resumed.value, baseline.value);
        assert_eq!(resumed.report.succeeded, baseline.report.succeeded);
    }

    #[test]
    fn best_effort_absorbs_shedding_with_partial_estimate() {
        let mut c = demand_campaign(12, RunPolicy::BestEffort { min_fraction: 0.0 });
        // Run a prefix, preempt, then shed the rest.
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Preempt);
        match c.run(&ctl).expect("preempted slice") {
            CampaignStep::Boundary { resumable } => assert!(resumable),
            other => panic!("expected Boundary, got {other:?}"),
        }
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Shed);
        match c.run(&ctl).expect("shed slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.shed, 12, "all replicates shed before running");
                assert!(out.report.ci_widened, "shedding widens the CI");
                assert_eq!(out.value, None, "no replicates ran, no estimate");
                assert_eq!(out.report.metrics.counter("sched.shed"), 12);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn strict_policy_treats_shed_as_resumable_boundary() {
        let mut c = demand_campaign(12, RunPolicy::FailFast);
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Shed);
        match c.run(&ctl).expect("shed slice") {
            CampaignStep::Boundary { resumable } => assert!(resumable),
            other => panic!("expected Boundary, got {other:?}"),
        }
        let resumed = c.run(&CampaignCtl::new()).expect("resumed");
        match resumed {
            CampaignStep::Done(out) => assert_eq!(out.report.succeeded, 12),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    fn done(step: Result<CampaignStep, CampaignError>) -> CampaignOutput {
        match step.expect("slice runs") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    fn boundary(step: Result<CampaignStep, CampaignError>) -> bool {
        match step.expect("slice runs") {
            CampaignStep::Boundary { resumable } => resumable,
            other => panic!("expected Boundary, got {other:?}"),
        }
    }

    #[test]
    fn submitter_cancel_token_is_honoured_and_terminal() {
        // The submitter's own token, cancelled before the first slice: the
        // campaign must finish with a partial result — not run every
        // replicate (token ignored) and not report a boundary (re-queue
        // would spin against the still-cancelled token).
        let own = CancelToken::new();
        own.cancel();
        let mut c = demand_campaign(16, RunPolicy::FailFast);
        c.opts = RunOptions::policy(RunPolicy::FailFast).with_cancel(own);
        let out = done(c.run(&CampaignCtl::new()));
        assert_eq!(out.report.attempted, 0, "no replicate may run");
        assert_eq!(out.value, None);
    }

    #[test]
    fn an_expired_control_deadline_parks_a_resumable_boundary() {
        let baseline = done(demand_campaign(16, RunPolicy::FailFast).run(&CampaignCtl::new()));

        // The control block's deadline overrides the submitter's (none);
        // already past, it stops the slice before replicate 0.
        let mut c = demand_campaign(16, RunPolicy::FailFast);
        let expired = CampaignCtl {
            deadline: Some(Deadline::after(Duration::ZERO)),
            ..CampaignCtl::new()
        };
        assert!(boundary(c.run(&expired)));
        let resumed = done(c.run(&CampaignCtl::new()));
        assert_eq!(
            resumed.value.map(f64::to_bits),
            baseline.value.map(f64::to_bits)
        );
        assert_eq!(resumed.report, baseline.report);
    }

    #[test]
    fn a_failed_slice_keeps_the_parked_checkpoint() {
        let baseline = done(demand_campaign(24, RunPolicy::FailFast).run(&CampaignCtl::new()));

        // Slice 1 is preempted at replicate 9 and parks its state there.
        let mut c = demand_campaign(24, RunPolicy::FailFast);
        c.opts.faults = Some(FaultPlan::new().preempt_at(9));
        assert!(boundary(c.run(&CampaignCtl::new())));
        assert_eq!(c.opts.resume.as_ref().map(|s| s.cursor), Some(9));

        // Slice 2 fails on the first replicate it runs. The scheduler
        // retries a failed slice, so the parked state must survive it.
        c.opts.faults = Some(FaultPlan::new().fail_on(9, 0, FaultKind::Error));
        let err = c.run(&CampaignCtl::new()).expect_err("failed slice");
        assert!(err.is_retryable(), "{err}");
        assert_eq!(
            c.opts.resume.as_ref().map(|s| s.cursor),
            Some(9),
            "a failed slice must not drop the parked checkpoint"
        );

        // Slice 3 resumes at replicate 9 and matches the uninterrupted run.
        c.opts.faults = None;
        let resumed = done(c.run(&CampaignCtl::new()));
        assert_eq!(
            resumed.value.map(f64::to_bits),
            baseline.value.map(f64::to_bits)
        );
        assert_eq!(resumed.report, baseline.report);
    }
}
