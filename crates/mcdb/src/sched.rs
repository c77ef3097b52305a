//! Scheduler adapter: runs a [`MonteCarloQuery`] as a schedulable
//! [`Campaign`](mde_numeric::Campaign).
//!
//! The adapter owns everything the query needs (catalog, replicate count,
//! seed, run options); the slice protocol — parking the checkpoint when the
//! scheduler stops a slice at a replicate boundary so the next slice resumes
//! from its cursor bit-identically, absorbing a shed under
//! [`RunPolicy::BestEffort`](mde_numeric::RunPolicy) into a partial estimate
//! with the unexecuted replicates counted in `sched.shed`, treating a
//! submitter's own cancel as terminal — is the shared
//! [`DurableSurface`] implementation in `mde_numeric::resilience::sched`.

use crate::mc::MonteCarloQuery;
use crate::query::Catalog;
use mde_numeric::resilience::RunOptions;
use mde_numeric::{DurableSurface, SliceRun};

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

impl DurableSurface for McCampaign {
    type Error = crate::McdbError;

    fn opts_mut(&mut self) -> &mut RunOptions {
        &mut self.opts
    }

    fn run_slice(&mut self, opts: &RunOptions) -> crate::Result<SliceRun> {
        let run = self
            .query
            .run_with_options(&self.catalog, self.n, self.seed, opts)?;
        Ok(SliceRun {
            value: (run.result.n() > 0).then(|| run.result.mean()),
            report: run.report,
            stopped: run.stopped,
            checkpoint: run.checkpoint,
        })
    }

    fn boundaries(&self) -> Option<u64> {
        Some(self.n as u64)
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
    use mde_numeric::resilience::{CancelReason, RunPolicy};
    use mde_numeric::{Campaign, CampaignCtl, CampaignStep};
    use std::sync::Arc;

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
}
