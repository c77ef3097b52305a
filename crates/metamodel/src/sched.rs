//! Scheduler adapter: runs a durable sequential-bifurcation screening as
//! a schedulable [`Campaign`](mde_numeric::Campaign).
//!
//! Each slice continues the bisection from the last checkpointed round
//! under the shared slice protocol ([`DurableSurface`]). The screening
//! queue is open-ended (groups split as they resolve), so shedding cannot
//! "absorb" unexecuted rounds the way a fixed replicate budget can: an
//! incomplete screen answers a different question than a degraded estimate.
//! A shed or preempted screen therefore always reports a resumable
//! boundary, and only a drained queue (or the submitter's own cancel)
//! finishes the campaign. The scalar summary is the number of factors
//! declared important.

use crate::response::ResponseSurface;
use crate::screening::{sequential_bifurcation_durable, BifurcationConfig};
use mde_numeric::resilience::RunOptions;
use mde_numeric::{DurableSurface, SliceRun};

/// A durable factor-screening run packaged as a schedulable campaign.
pub struct ScreeningCampaign<R: ResponseSurface> {
    response: R,
    cfg: BifurcationConfig,
    seed: u64,
    opts: RunOptions,
}

impl<R: ResponseSurface> ScreeningCampaign<R> {
    /// Package a sequential-bifurcation screen as a campaign.
    pub fn new(response: R, cfg: BifurcationConfig, seed: u64, opts: RunOptions) -> Self {
        ScreeningCampaign {
            response,
            cfg,
            seed,
            opts,
        }
    }
}

impl<R: ResponseSurface + Send> DurableSurface for ScreeningCampaign<R> {
    type Error = crate::MetamodelError;

    fn opts_mut(&mut self) -> &mut RunOptions {
        &mut self.opts
    }

    fn run_slice(&mut self, opts: &RunOptions) -> crate::Result<SliceRun> {
        let run = sequential_bifurcation_durable(&self.response, &self.cfg, self.seed, opts)?;
        Ok(SliceRun {
            value: run.result.as_ref().map(|r| r.important.len() as f64),
            report: run.report,
            stopped: run.stopped,
            checkpoint: run.checkpoint,
        })
    }

    fn boundaries(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::FnResponse;
    use mde_numeric::resilience::{CancelReason, CancelToken};
    use mde_numeric::{Campaign, CampaignCtl, CampaignStep};

    fn screen_campaign(
    ) -> ScreeningCampaign<FnResponse<impl Fn(&[f64], &mut mde_numeric::rng::Rng) -> f64>> {
        screen_campaign_with(RunOptions::default())
    }

    fn screen_campaign_with(
        opts: RunOptions,
    ) -> ScreeningCampaign<FnResponse<impl Fn(&[f64], &mut mde_numeric::rng::Rng) -> f64>> {
        // 8 factors, two important (indices 2 and 5).
        let response = FnResponse::new(8, |x: &[f64], _rng: &mut mde_numeric::rng::Rng| {
            3.0 * x[2] + 2.0 * x[5]
        });
        ScreeningCampaign::new(response, BifurcationConfig::default(), 13, opts)
    }

    #[test]
    fn submitter_cancel_token_is_honoured_and_terminal() {
        // The submitter's own token, cancelled before the first slice: the
        // campaign must finish without a screening result — not run every
        // round (token ignored) and not report a boundary (re-queue would
        // spin against the still-cancelled token).
        let own = CancelToken::new();
        own.cancel();
        let mut c = screen_campaign_with(RunOptions::default().with_cancel(own));
        match c.run(&CampaignCtl::new()).expect("cancelled slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.attempted, 0, "no round may run");
                assert_eq!(out.value, None);
            }
            other => panic!("expected partial Done, got {other:?}"),
        }
    }

    #[test]
    fn preempt_then_resume_matches_uninterrupted() {
        let mut base = screen_campaign();
        let baseline = match base.run(&CampaignCtl::new()).expect("baseline") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };
        assert_eq!(baseline.value, Some(2.0), "two important factors");

        let mut c = screen_campaign();
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
    }

    #[test]
    fn shed_screen_is_resumable_not_partial() {
        let mut c = screen_campaign();
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Shed);
        match c.run(&ctl).expect("shed slice") {
            CampaignStep::Boundary { resumable } => assert!(resumable),
            other => panic!("expected Boundary, got {other:?}"),
        }
    }
}
