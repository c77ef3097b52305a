//! Scheduler adapter: runs a durable random-search calibration as a
//! schedulable [`Campaign`](mde_numeric::Campaign).
//!
//! Each slice continues the search from the last checkpointed evaluation;
//! the shared slice protocol ([`DurableSurface`]) threads the scheduler's
//! cancel token and deadline through the search's per-evaluation boundary
//! checks. The campaign's scalar summary is the best objective value found
//! over the completed evaluations.

use crate::optim::{random_search_durable, Bounds};
use mde_numeric::resilience::RunOptions;
use mde_numeric::{DurableSurface, SliceRun};

/// A boxed objective function the scheduler can own and move across
/// worker threads.
pub type BoxedObjective = Box<dyn FnMut(&[f64]) -> f64 + Send>;

/// A durable random-search calibration packaged as a schedulable
/// campaign. The objective is boxed so the campaign is an object-safe
/// unit the scheduler can own.
pub struct SearchCampaign {
    objective: BoxedObjective,
    bounds: Bounds,
    evals: usize,
    seed: u64,
    opts: RunOptions,
}

impl SearchCampaign {
    /// Package a random search over `bounds` as a campaign of `evals`
    /// objective evaluations.
    pub fn new(
        objective: impl FnMut(&[f64]) -> f64 + Send + 'static,
        bounds: Bounds,
        evals: usize,
        seed: u64,
        opts: RunOptions,
    ) -> Self {
        SearchCampaign {
            objective: Box::new(objective),
            bounds,
            evals,
            seed,
            opts,
        }
    }
}

impl DurableSurface for SearchCampaign {
    type Error = crate::CalibrateError;

    fn opts_mut(&mut self) -> &mut RunOptions {
        &mut self.opts
    }

    fn run_slice(&mut self, opts: &RunOptions) -> crate::Result<SliceRun> {
        let run = random_search_durable(
            &mut self.objective,
            &self.bounds,
            self.evals,
            self.seed,
            opts,
        )?;
        Ok(SliceRun {
            value: run.best.as_ref().map(|b| b.fx),
            report: run.report,
            stopped: run.stopped,
            checkpoint: run.checkpoint,
        })
    }

    fn boundaries(&self) -> Option<u64> {
        Some(self.evals as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::resilience::{CancelReason, CancelToken, RunPolicy};
    use mde_numeric::{Campaign, CampaignCtl, CampaignStep};

    fn sphere_campaign(policy: RunPolicy) -> SearchCampaign {
        sphere_campaign_with(RunOptions::policy(policy))
    }

    fn sphere_campaign_with(opts: RunOptions) -> SearchCampaign {
        SearchCampaign::new(
            |x: &[f64]| x.iter().map(|v| v * v).sum(),
            Bounds::new(vec![(-2.0, 2.0), (-2.0, 2.0)]).unwrap(),
            24,
            5,
            opts,
        )
    }

    #[test]
    fn submitter_cancel_token_is_honoured_and_terminal() {
        // The submitter's own token, cancelled before the first slice: the
        // campaign must finish with a partial result — not evaluate
        // everything (token ignored) and not report a boundary (re-queue
        // would spin against the still-cancelled token).
        let own = CancelToken::new();
        own.cancel();
        let mut c = sphere_campaign_with(RunOptions::default().with_cancel(own));
        match c.run(&CampaignCtl::new()).expect("cancelled slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.attempted, 0, "no evaluation may run");
                assert_eq!(out.value, None);
            }
            other => panic!("expected partial Done, got {other:?}"),
        }
    }

    #[test]
    fn preempt_then_resume_matches_uninterrupted() {
        let mut base = sphere_campaign(RunPolicy::FailFast);
        let baseline = match base.run(&CampaignCtl::new()).expect("baseline") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };

        let mut c = sphere_campaign(RunPolicy::FailFast);
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Preempt);
        match c.run(&ctl).expect("preempted slice") {
            CampaignStep::Boundary { resumable } => assert!(resumable),
            other => panic!("expected Boundary, got {other:?}"),
        }
        let resumed = match c.run(&CampaignCtl::new()).expect("resumed") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };
        assert_eq!(resumed.value, baseline.value);
        assert_eq!(resumed.report.succeeded, baseline.report.succeeded);
    }

    #[test]
    fn best_effort_absorbs_shedding_with_partial_best() {
        let mut c = sphere_campaign(RunPolicy::BestEffort { min_fraction: 0.0 });
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Shed);
        match c.run(&ctl).expect("shed slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.shed, 24);
                assert!(out.report.ci_widened);
                assert_eq!(out.value, None, "nothing evaluated before the shed");
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
}
