//! Scheduler adapter: runs a durable [`ParticleFilter`] campaign as a
//! schedulable [`Campaign`](mde_numeric::Campaign).
//!
//! Each slice continues the filter from the last checkpointed observation
//! step; the shared slice protocol ([`DurableSurface`]) threads the
//! scheduler's control block (cancel token + deadline) into the filter's
//! per-step boundary checks, so preemption and shedding land exactly
//! between observation updates. The campaign's scalar summary is the
//! filter's total log evidence over the completed steps — the
//! model-comparison quantity an overload-aware analyst would track across
//! degraded runs.

use crate::pf::{ParticleFilter, ParticleState, Proposal, StateSpaceModel};
use mde_numeric::resilience::RunOptions;
use mde_numeric::{DurableSurface, SliceRun};

/// A durable particle-filter run packaged as a schedulable campaign.
pub struct PfCampaign<M, Q>
where
    M: StateSpaceModel,
    M::State: ParticleState,
    Q: Proposal<M>,
{
    filter: ParticleFilter,
    model: M,
    proposal: Q,
    observations: Vec<M::Obs>,
    opts: RunOptions,
}

impl<M, Q> PfCampaign<M, Q>
where
    M: StateSpaceModel,
    M::State: ParticleState,
    Q: Proposal<M>,
{
    /// Package a filter run over an observation sequence as a campaign.
    pub fn new(
        filter: ParticleFilter,
        model: M,
        proposal: Q,
        observations: Vec<M::Obs>,
        opts: RunOptions,
    ) -> Self {
        PfCampaign {
            filter,
            model,
            proposal,
            observations,
            opts,
        }
    }
}

impl<M, Q> DurableSurface for PfCampaign<M, Q>
where
    M: StateSpaceModel + Send,
    M::State: ParticleState + Send,
    M::Obs: Send,
    Q: Proposal<M> + Send,
{
    type Error = crate::AssimError;

    fn opts_mut(&mut self) -> &mut RunOptions {
        &mut self.opts
    }

    fn run_slice(&mut self, opts: &RunOptions) -> crate::Result<SliceRun> {
        let run = self
            .filter
            .run_durable(&self.model, &self.proposal, &self.observations, opts)?;
        let evidence: f64 = run
            .steps
            .iter()
            .map(|s| s.ln_evidence_increment)
            .filter(|v| v.is_finite())
            .sum();
        Ok(SliceRun {
            value: (!run.steps.is_empty()).then_some(evidence),
            report: run.report,
            stopped: run.stopped,
            checkpoint: run.checkpoint,
        })
    }

    fn boundaries(&self) -> Option<u64> {
        Some(self.observations.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pf::BootstrapProposal;
    use mde_numeric::dist::Continuous;
    use mde_numeric::resilience::{CancelReason, CancelToken, RunPolicy};
    use mde_numeric::rng::Rng;
    use mde_numeric::{Campaign, CampaignCtl, CampaignStep};

    /// Scalar random-walk model with Gaussian observations.
    struct Walk;

    impl StateSpaceModel for Walk {
        type State = f64;
        type Obs = f64;

        fn sample_initial(&self, rng: &mut Rng) -> f64 {
            mde_numeric::dist::Normal::sample_standard(rng)
        }

        fn sample_transition(&self, prev: &f64, rng: &mut Rng) -> f64 {
            prev + 0.3 * mde_numeric::dist::Normal::sample_standard(rng)
        }

        fn ln_likelihood(&self, state: &f64, obs: &f64) -> f64 {
            mde_numeric::dist::Normal::new(*state, 0.5)
                .unwrap()
                .ln_pdf(*obs)
        }
    }

    fn walk_campaign(policy: RunPolicy) -> PfCampaign<Walk, BootstrapProposal> {
        walk_campaign_with(RunOptions::policy(policy))
    }

    fn walk_campaign_with(opts: RunOptions) -> PfCampaign<Walk, BootstrapProposal> {
        let obs: Vec<f64> = (0..6).map(|t| (t as f64) * 0.1).collect();
        PfCampaign::new(
            ParticleFilter::new(64, 11),
            Walk,
            BootstrapProposal,
            obs,
            opts,
        )
    }

    #[test]
    fn submitter_cancel_token_is_honoured_and_terminal() {
        // The submitter's own token, cancelled before the first slice: the
        // campaign must finish with a partial result — not run every step
        // (token ignored) and not report a boundary (re-queue would spin
        // against the still-cancelled token).
        let own = CancelToken::new();
        own.cancel();
        let mut c = walk_campaign_with(RunOptions::default().with_cancel(own));
        match c.run(&CampaignCtl::new()).expect("cancelled slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.attempted, 0, "no step may run");
                assert_eq!(out.value, None);
            }
            other => panic!("expected partial Done, got {other:?}"),
        }
    }

    #[test]
    fn preempt_then_resume_matches_uninterrupted() {
        let mut base = walk_campaign(RunPolicy::FailFast);
        let baseline = match base.run(&CampaignCtl::new()).expect("baseline") {
            CampaignStep::Done(out) => out,
            other => panic!("expected Done, got {other:?}"),
        };

        let mut c = walk_campaign(RunPolicy::FailFast);
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
    fn best_effort_absorbs_shedding() {
        let mut c = walk_campaign(RunPolicy::BestEffort { min_fraction: 0.0 });
        let ctl = CampaignCtl::new();
        ctl.cancel.cancel_for(CancelReason::Shed);
        match c.run(&ctl).expect("shed slice") {
            CampaignStep::Done(out) => {
                assert_eq!(out.report.shed, 6);
                assert!(out.report.ci_widened);
                assert_eq!(out.value, None);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
}
