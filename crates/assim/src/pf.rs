//! The particle filter — Algorithm 2 of the paper, over a generic hidden
//! Markov (state-space) model.
//!
//! The algorithm, verbatim from §3.2:
//!
//! ```text
//! 1:  Sample {X₁ⁱ} from q₁(x₁ | y₁)
//! 2:  Compute weights w₁(X₁ⁱ) = p₁(X₁ⁱ)·p(y₁|X₁ⁱ) / q₁(X₁ⁱ|y₁)
//! 3:  Compute normalized weights {W₁ⁱ}
//! 4:  Resample {(W₁ⁱ, X₁ⁱ)} to obtain {(1/N, X̄₁ⁱ)}
//! 5:  for n ≥ 2 do
//! 6:    Sample {Xₙⁱ} from qₙ(xₙ | yₙ, X̄ₙ₋₁ⁱ)
//! 7-9:  αₙⁱ = p(yₙ|Xₙⁱ)·p(Xₙⁱ|X̄ₙ₋₁ⁱ) / qₙ(Xₙⁱ|yₙ, X̄ₙ₋₁ⁱ)
//! 10:   Normalize Wₙⁱ
//! 11:   Resample to {(1/N, X̄ₙⁱ)}
//! ```
//!
//! Weight arithmetic is done in log space. The [`Proposal`] abstraction
//! covers both proposals of the wildfire papers: for the bootstrap choice
//! `qₙ = pₙ(xₙ|xₙ₋₁)` "the formulas for the weights reduce to an
//! evaluation of the observation function", and the sensor-aware proposal
//! of \[57\] supplies its own KDE-estimated weight correction.
//!
//! A filter has one entry point, [`ParticleFilter::run`]: a supervised,
//! durable campaign with one boundary per observation, under the
//! [`RunOptions`] every campaign surface takes.

use crate::resample::{effective_sample_size, systematic_resample};
use crate::AssimError;
use mde_numeric::checkpoint::{CampaignState, CheckpointError, Fingerprint};
use mde_numeric::resilience::{
    drive, Attempt, AttemptFailure, RunOptions, RunReport, StopCause, Surface,
};
use mde_numeric::rng::{Rng, StreamFactory};

/// Campaign tag written into every particle-filter checkpoint.
const CAMPAIGN_PF: &str = "assim.particle-filter";

/// A hidden Markov model: prior, transition kernel, and observation
/// likelihood.
pub trait StateSpaceModel {
    /// Hidden-state type; a run ledgers it through its [`ParticleState`]
    /// codec.
    type State: ParticleState;
    /// Observation type.
    type Obs;

    /// Draw from the initial distribution `p₁(x₁)`.
    fn sample_initial(&self, rng: &mut Rng) -> Self::State;

    /// Draw from the transition kernel `pₙ(xₙ | xₙ₋₁)`.
    fn sample_transition(&self, prev: &Self::State, rng: &mut Rng) -> Self::State;

    /// Log observation likelihood `ln pₙ(yₙ | xₙ)`.
    fn ln_likelihood(&self, state: &Self::State, obs: &Self::Obs) -> f64;

    /// Floats per particle in a run's ledger: how many
    /// [`ParticleState::encode`] appends for every state of this model. A
    /// run knows it before step 0, and its checkpoint fingerprint holds it.
    fn state_width(&self) -> usize;
}

/// A proposal distribution `qₙ(xₙ | yₙ, xₙ₋₁)` with its importance-weight
/// correction.
pub trait Proposal<M: StateSpaceModel> {
    /// Draw a proposed state. `prev` is `None` at the first step
    /// (`q₁(x₁|y₁)`).
    fn sample(&self, model: &M, prev: Option<&M::State>, obs: &M::Obs, rng: &mut Rng) -> M::State;

    /// Log unnormalized weight
    /// `ln [ p(y|x)·p(x|prev) / q(x|prev, y) ]`.
    fn ln_weight(
        &self,
        model: &M,
        prev: Option<&M::State>,
        state: &M::State,
        obs: &M::Obs,
        rng: &mut Rng,
    ) -> f64;
}

/// The bootstrap proposal `qₙ = pₙ(xₙ|xₙ₋₁)`: weights collapse to the
/// observation likelihood (the original wildfire formulation \[56\]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapProposal;

impl<M: StateSpaceModel> Proposal<M> for BootstrapProposal {
    fn sample(&self, model: &M, prev: Option<&M::State>, _obs: &M::Obs, rng: &mut Rng) -> M::State {
        match prev {
            None => model.sample_initial(rng),
            Some(p) => model.sample_transition(p, rng),
        }
    }

    fn ln_weight(
        &self,
        model: &M,
        _prev: Option<&M::State>,
        state: &M::State,
        obs: &M::Obs,
        _rng: &mut Rng,
    ) -> f64 {
        model.ln_likelihood(state, obs)
    }
}

/// One filtering step's output.
#[derive(Debug, Clone)]
pub struct FilterStep<S> {
    /// Particles after resampling (equally weighted).
    pub particles: Vec<S>,
    /// Effective sample size *before* resampling — the degeneracy
    /// diagnostic.
    pub ess: f64,
    /// Log-evidence increment `ln p̂(yₙ | y₁:ₙ₋₁)`.
    pub ln_evidence_increment: f64,
}

impl<S> FilterStep<S> {
    /// Posterior-mean estimate of a state statistic.
    pub fn estimate(&self, g: impl Fn(&S) -> f64) -> f64 {
        self.particles.iter().map(&g).sum::<f64>() / self.particles.len() as f64
    }
}

/// The particle filter driver.
#[derive(Debug, Clone, Copy)]
pub struct ParticleFilter {
    /// Number of particles `N`.
    pub n_particles: usize,
    /// Master seed.
    pub seed: u64,
}

impl ParticleFilter {
    /// Create a filter.
    pub fn new(n_particles: usize, seed: u64) -> Self {
        assert!(n_particles >= 2, "need at least 2 particles");
        ParticleFilter { n_particles, seed }
    }

    /// Run Algorithm 2 over an observation sequence as a supervised,
    /// durable campaign, producing one [`FilterStep`] per completed
    /// observation.
    ///
    /// The boundary is the filtering step: propose, weight, normalise and
    /// resample for one observation, executed inside `catch_unwind`.
    /// Attempt 0 of step `t` draws its proposals from stream 0 of
    /// `StreamFactory::new(seed).child(t)` and its resampling offset from
    /// stream 1. A failed attempt — a panicking model or proposal, total
    /// weight collapse (every particle impossible under the observation,
    /// or an infinite weight), or a non-finite evidence increment — is
    /// handled per the options' [`mde_numeric::RunPolicy`]:
    ///
    /// * `FailFast` (the default) aborts with a typed [`AssimError`];
    /// * `Retry` re-runs the step on a fresh deterministic sub-seed
    ///   derived from `(seed, step, attempt)`;
    /// * `BestEffort` *degrades gracefully*: the failed step's posterior
    ///   is the previous step's particles carried forward unchanged (a
    ///   prior draw at `t = 0`), flagged with `ess = 0.0` and a NaN
    ///   evidence increment so the degradation is visible, and recorded
    ///   in the returned [`RunReport`].
    ///
    /// Deadline, cancellation and preemption are checked before each step.
    /// The filter is inherently sequential — each step conditions on the
    /// previous posterior — so the checkpoint ledger carries the full
    /// particle set of every completed step (through the
    /// [`ParticleState`] codec, [`StateSpaceModel::state_width`] floats a
    /// particle), and a resumed run replays nothing: estimates, RNG draw
    /// order and the [`RunReport`] ledger are bit-identical to an
    /// uninterrupted run.
    ///
    /// With [`RunOptions::resume`] set (a [`PfRun::checkpoint`], or
    /// [`CampaignState::load`]) the run continues from that state's step; a
    /// state whose campaign tag or fingerprint (particle count, seed,
    /// observation count, state width) does not match is refused with a
    /// typed [`AssimError::Checkpoint`], and a ledger the model's states
    /// cannot decode from with a typed [`CheckpointError::Corrupt`].
    pub fn run<M, Q>(
        &self,
        model: &M,
        proposal: &Q,
        observations: &[M::Obs],
        opts: &RunOptions,
    ) -> crate::Result<PfRun<M::State>>
    where
        M: StateSpaceModel,
        Q: Proposal<M>,
    {
        let width = model.state_width();
        let mut state = CampaignState::start_or_resume(
            opts.resume.as_ref(),
            CAMPAIGN_PF,
            self.fingerprint(observations.len(), width),
            self.seed,
            observations.len() as u64,
        )?;
        // Reconstruct completed steps (and with them the running
        // posterior) from the ledger; a fresh state reconstructs nothing.
        let mut steps: Vec<FilterStep<M::State>> = Vec::with_capacity(observations.len());
        for (t, payload) in &state.completed {
            if *t != steps.len() as u64 {
                return Err(AssimError::Checkpoint(CheckpointError::Corrupt {
                    reason: format!("ledger entry {t} out of order at position {}", steps.len()),
                }));
            }
            steps.push(decode_step(payload, self.n_particles, width)?);
        }
        if steps.len() as u64 != state.cursor {
            return Err(AssimError::Checkpoint(CheckpointError::Corrupt {
                reason: format!(
                    "cursor {} disagrees with {} ledger entries",
                    state.cursor,
                    steps.len()
                ),
            }));
        }
        let mut filter = FilterSurface {
            pf: self,
            model,
            proposal,
            observations,
            width,
            steps,
        };
        let stopped = drive(&mut filter, &mut state, opts)?;
        Ok(PfRun {
            steps: filter.steps,
            report: state.report.clone(),
            stopped,
            checkpoint: state,
        })
    }

    /// Campaign identity: tag, particle count, seed, observation count,
    /// and state width. (Observation *values* are not hashed — the caller
    /// owns keeping the observation sequence stable across resumption, as
    /// with any externally stored input.)
    fn fingerprint(&self, n_obs: usize, width: usize) -> u64 {
        Fingerprint::new(CAMPAIGN_PF)
            .push_u64(self.n_particles as u64)
            .push_u64(self.seed)
            .push_u64(n_obs as u64)
            .push_u64(width as u64)
            .finish()
    }
}

/// The filter as a supervised campaign surface: one boundary per
/// observation, the running posterior being the last completed step.
struct FilterSurface<'a, M: StateSpaceModel, Q> {
    pf: &'a ParticleFilter,
    model: &'a M,
    proposal: &'a Q,
    observations: &'a [M::Obs],
    /// Floats per particle in a ledger payload.
    width: usize,
    steps: Vec<FilterStep<M::State>>,
}

impl<M: StateSpaceModel, Q: Proposal<M>> FilterSurface<'_, M, Q> {
    /// One step of Algorithm 2 — propose, weight, normalise, resample — for
    /// the attempt's observation, drawing proposals from stream 0 of the
    /// attempt's streams and the resampling offset from stream 1. An
    /// unusable weight vector fails the attempt: every particle impossible
    /// or an infinite weight as a typed [`AssimError::StepFailed`], a NaN
    /// weight as a NaN evidence increment, which the supervisor records as
    /// a non-finite step.
    fn step(&self, att: &Attempt<'_>) -> crate::Result<FilterStep<M::State>> {
        let (t, n) = (att.boundary, self.pf.n_particles);
        let obs = &self.observations[t as usize];
        let prev = self.steps.last().map(|s| &s.particles[..]);
        let streams = att.streams(t);
        // Steps 1/6: propose; steps 2/7-9: weight (in log space).
        let mut rng = streams.stream(0);
        let mut particles = Vec::with_capacity(n);
        let mut ln_w = Vec::with_capacity(n);
        for i in 0..n {
            let parent = prev.map(|p| &p[i]);
            let x = self.proposal.sample(self.model, parent, obs, &mut rng);
            let lw = self
                .proposal
                .ln_weight(self.model, parent, &x, obs, &mut rng);
            particles.push(x);
            ln_w.push(lw);
        }

        // Step 3/10: normalize with a max shift. NaNs are looked for first,
        // because `f64::max` skips them.
        if ln_w.iter().any(|lw| lw.is_nan()) {
            return Ok(FilterStep {
                particles,
                ess: 0.0,
                ln_evidence_increment: f64::NAN,
            });
        }
        let max = ln_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return Err(AssimError::StepFailed {
                step: t,
                attempt: att.attempt,
                message: "all particle weights collapsed to zero".into(),
            });
        }
        let shifted: Vec<f64> = ln_w.iter().map(|lw| (lw - max).exp()).collect();
        let total: f64 = shifted.iter().sum();
        let weights: Vec<f64> = shifted.iter().map(|w| w / total).collect();
        let ess = effective_sample_size(&weights);

        // Step 4/11: resample to equal weights.
        let mut rng_rs = streams.stream(1);
        let idx = systematic_resample(&weights, n, &mut rng_rs)?;
        Ok(FilterStep {
            particles: idx.into_iter().map(|i| particles[i].clone()).collect(),
            ess,
            ln_evidence_increment: max + (total / n as f64).ln(),
        })
    }

    /// The graceful-degradation posterior for a dropped step: the
    /// previous step's particles carried forward unchanged (a prior draw
    /// at `t = 0` on a stream untouched by the failed attempts — streams
    /// 0/1 are propose/resample), flagged with `ess = 0` and a NaN
    /// evidence increment.
    fn degraded_step(&self, t: u64) -> FilterStep<M::State> {
        let particles: Vec<M::State> = match self.steps.last() {
            Some(prev) => prev.particles.clone(),
            None => {
                let mut rng = StreamFactory::new(self.pf.seed).child(t).stream(2);
                (0..self.pf.n_particles)
                    .map(|_| self.model.sample_initial(&mut rng))
                    .collect()
            }
        };
        FilterStep {
            particles,
            ess: 0.0,
            ln_evidence_increment: f64::NAN,
        }
    }
}

impl<M: StateSpaceModel, Q: Proposal<M>> Surface for FilterSurface<'_, M, Q> {
    type Value = FilterStep<M::State>;
    type Error = AssimError;

    fn attempt(&mut self, att: &Attempt<'_>) -> Result<Self::Value, AttemptFailure<AssimError>> {
        att.run(
            "filter step",
            || self.step(att),
            |step| step.ln_evidence_increment,
        )
    }

    fn commit(&mut self, state: &mut CampaignState, t: u64, value: Option<Self::Value>) {
        let step = match value {
            Some(step) => {
                state.report.metrics.inc("pf.resamples");
                step
            }
            None => self.degraded_step(t),
        };
        state.report.metrics.observe("pf.ess", step.ess);
        state.completed.push((t, encode_step(&step, self.width)));
        self.steps.push(step);
    }
}

/// A filter run: the per-observation steps, the failure ledger, and —
/// when the run stopped early — why, plus the final campaign state to
/// resume from.
#[derive(Debug, Clone)]
pub struct PfRun<S> {
    /// One [`FilterStep`] per *completed* observation (all of them for a
    /// run that finished; a prefix for a stopped run).
    pub steps: Vec<FilterStep<S>>,
    /// The failure ledger over the completed steps.
    pub report: RunReport,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopCause>,
    /// The final campaign state; hand it back through
    /// [`RunOptions::resuming`] to continue.
    pub checkpoint: CampaignState,
}

/// The checkpoint codec of a particle state: the floats a run's ledger
/// holds for one particle, [`StateSpaceModel::state_width`] of them.
/// Implemented for `f64` (width 1), `[f64; N]` (width `N`) and the
/// wildfire model's [`FireState`](crate::wildfire::FireState); user state
/// types implement it in one obvious way.
pub trait ParticleState: Clone {
    /// Append this state's floats.
    fn encode(&self, out: &mut Vec<f64>);

    /// Rebuild a state from the floats [`ParticleState::encode`] wrote.
    /// Floats that no state encodes to are a typed
    /// [`CheckpointError::Corrupt`], never a panic.
    fn decode(floats: &[f64]) -> Result<Self, CheckpointError>;
}

impl ParticleState for f64 {
    fn encode(&self, out: &mut Vec<f64>) {
        out.push(*self);
    }

    fn decode(floats: &[f64]) -> Result<Self, CheckpointError> {
        <[f64; 1]>::decode(floats).map(|[x]| x)
    }
}

impl<const N: usize> ParticleState for [f64; N] {
    fn encode(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self);
    }

    fn decode(floats: &[f64]) -> Result<Self, CheckpointError> {
        floats.try_into().map_err(|_| CheckpointError::Corrupt {
            reason: format!("a particle of {} floats, expected {N}", floats.len()),
        })
    }
}

/// Ledger payload of one completed step: `[ess, ln_evidence_increment,
/// particle₀…, particle₁…, …]`, `width` floats a particle.
fn encode_step<S: ParticleState>(step: &FilterStep<S>, width: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 + step.particles.len() * width);
    out.push(step.ess);
    out.push(step.ln_evidence_increment);
    for p in &step.particles {
        p.encode(&mut out);
    }
    debug_assert_eq!(out.len(), 2 + step.particles.len() * width);
    out
}

/// Decode a ledger payload, surfacing shape mismatches and undecodable
/// particles as typed checkpoint corruption.
fn decode_step<S: ParticleState>(
    payload: &[f64],
    n_particles: usize,
    width: usize,
) -> crate::Result<FilterStep<S>> {
    let expected = 2 + n_particles * width;
    if payload.len() != expected {
        return Err(AssimError::Checkpoint(CheckpointError::Corrupt {
            reason: format!(
                "step payload has {} floats, expected {expected}",
                payload.len()
            ),
        }));
    }
    let particles = payload[2..]
        .chunks_exact(width)
        .map(S::decode)
        .collect::<Result<Vec<S>, _>>()?;
    Ok(FilterStep {
        particles,
        ess: payload[0],
        ln_evidence_increment: payload[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::dist::{Continuous, Normal};
    use mde_numeric::resilience::FaultKind;
    use mde_numeric::rng::rng_from_seed;

    /// Linear-Gaussian model: x ~ N(a·x', q), y ~ N(x, r) — the Kalman
    /// filter gives the exact posterior to compare against.
    struct LinGauss {
        a: f64,
        q: f64,
        r: f64,
        x0_mean: f64,
        x0_std: f64,
    }

    impl StateSpaceModel for LinGauss {
        type State = f64;
        type Obs = f64;

        fn sample_initial(&self, rng: &mut Rng) -> f64 {
            self.x0_mean + self.x0_std * Normal::sample_standard(rng)
        }

        fn sample_transition(&self, prev: &f64, rng: &mut Rng) -> f64 {
            self.a * prev + self.q * Normal::sample_standard(rng)
        }

        fn ln_likelihood(&self, state: &f64, obs: &f64) -> f64 {
            Normal::new(*state, self.r).unwrap().ln_pdf(*obs)
        }

        fn state_width(&self) -> usize {
            1
        }
    }

    fn kalman_means(m: &LinGauss, ys: &[f64]) -> Vec<f64> {
        // Standard scalar Kalman recursion.
        let mut mean = m.x0_mean;
        let mut var = m.x0_std * m.x0_std;
        let mut out = Vec::new();
        for &y in ys {
            // Predict (the first observation updates the prior directly in
            // our PF formulation, so predict from the second step onward).
            if !out.is_empty() {
                mean *= m.a;
                var = m.a * m.a * var + m.q * m.q;
            }
            // Update.
            let k = var / (var + m.r * m.r);
            mean += k * (y - mean);
            var *= 1.0 - k;
            out.push(mean);
        }
        out
    }

    fn simulate(m: &LinGauss, t: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = rng_from_seed(seed);
        let mut xs = vec![m.sample_initial(&mut rng)];
        for _ in 1..t {
            let prev = *xs.last().unwrap();
            xs.push(m.sample_transition(&prev, &mut rng));
        }
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| x + m.r * Normal::sample_standard(&mut rng))
            .collect();
        (xs, ys)
    }

    /// The steps of a run under the default options.
    fn run_steps(pf: &ParticleFilter, m: &LinGauss, ys: &[f64]) -> Vec<FilterStep<f64>> {
        pf.run(m, &BootstrapProposal, ys, &RunOptions::default())
            .unwrap()
            .steps
    }

    fn model() -> LinGauss {
        LinGauss {
            a: 0.9,
            q: 0.5,
            r: 0.7,
            x0_mean: 0.0,
            x0_std: 2.0,
        }
    }

    #[test]
    fn tracks_kalman_posterior_mean() {
        let m = model();
        let (_, ys) = simulate(&m, 30, 1);
        let pf = ParticleFilter::new(2000, 2);
        let steps = run_steps(&pf, &m, &ys);
        let kalman = kalman_means(&m, &ys);
        for (t, (step, km)) in steps.iter().zip(&kalman).enumerate() {
            let est = step.estimate(|&x| x);
            assert!((est - km).abs() < 0.15, "t={t}: PF {est} vs Kalman {km}");
        }
    }

    #[test]
    fn filtering_beats_open_loop_prediction() {
        let m = model();
        let (xs, ys) = simulate(&m, 40, 3);
        let pf = ParticleFilter::new(500, 4);
        let steps = run_steps(&pf, &m, &ys);
        // Open loop: propagate particles with NO observations.
        let mut rng = rng_from_seed(5);
        let mut open: Vec<f64> = (0..500).map(|_| m.sample_initial(&mut rng)).collect();
        let mut err_pf = 0.0;
        let mut err_open = 0.0;
        for (t, step) in steps.iter().enumerate() {
            if t > 0 {
                open = open
                    .iter()
                    .map(|x| m.sample_transition(x, &mut rng))
                    .collect();
            }
            let open_mean = open.iter().sum::<f64>() / open.len() as f64;
            err_pf += (step.estimate(|&x| x) - xs[t]).abs();
            err_open += (open_mean - xs[t]).abs();
        }
        assert!(
            err_pf < err_open * 0.6,
            "assimilation gain missing: PF {err_pf} vs open {err_open}"
        );
    }

    #[test]
    fn ess_reported_and_reasonable() {
        let m = model();
        let (_, ys) = simulate(&m, 10, 6);
        let pf = ParticleFilter::new(300, 7);
        let steps = run_steps(&pf, &m, &ys);
        for s in &steps {
            assert!(s.ess >= 1.0 && s.ess <= 300.0);
        }
        // Bootstrap ESS is typically well below N but far above 1.
        let mean_ess = steps.iter().map(|s| s.ess).sum::<f64>() / steps.len() as f64;
        assert!(mean_ess > 30.0, "mean ESS {mean_ess}");
    }

    #[test]
    fn evidence_increments_are_finite_and_scale_with_fit() {
        let m = model();
        let (_, ys) = simulate(&m, 20, 8);
        let pf = ParticleFilter::new(500, 9);
        let good = run_steps(&pf, &m, &ys);
        let ln_ev_good: f64 = good.iter().map(|s| s.ln_evidence_increment).sum();
        assert!(ln_ev_good.is_finite());
        // Shifted observations fit worse: evidence drops.
        let ys_bad: Vec<f64> = ys.iter().map(|y| y + 10.0).collect();
        let bad = run_steps(&pf, &m, &ys_bad);
        let ln_ev_bad: f64 = bad.iter().map(|s| s.ln_evidence_increment).sum();
        assert!(ln_ev_bad < ln_ev_good - 10.0);
    }

    #[test]
    fn reproducible_given_seed() {
        let m = model();
        let (_, ys) = simulate(&m, 10, 10);
        let run = || {
            run_steps(&ParticleFilter::new(100, 11), &m, &ys)
                .iter()
                .map(|s| s.estimate(|&x| x))
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_particle_count() {
        ParticleFilter::new(1, 1);
    }

    /// Attempt 0 of every step draws the streams the filter always drew:
    /// a digest of every particle's, ESS's and evidence increment's bits
    /// over a 15-step, 200-particle run, captured from the filter before
    /// it had one entry point. Never regenerate it to make a change pass.
    #[test]
    fn default_run_matches_its_golden_digest() {
        use mde_numeric::codec::{fnv1a, FNV_OFFSET};
        let m = model();
        let (_, ys) = simulate(&m, 15, 20);
        let run = ParticleFilter::new(200, 21)
            .run(&m, &BootstrapProposal, &ys, &RunOptions::default())
            .unwrap();
        let bits = |h, x: f64| fnv1a(h, &x.to_bits().to_le_bytes());
        let digest = run.steps.iter().fold(FNV_OFFSET, |h, s| {
            let h = s.particles.iter().fold(h, |h, &p| bits(h, p));
            bits(bits(h, s.ess), s.ln_evidence_increment)
        });
        assert_eq!(run.steps.len(), 15);
        assert_eq!(digest, 0x638b_3abc_fe95_a8ec);
        assert_eq!(run.report.succeeded, 15);
        assert!(run.report.failures.is_empty());
    }

    #[test]
    fn supervised_step_retries_on_fresh_seed() {
        use mde_numeric::resilience::{FailureKind, FaultPlan};
        let m = model();
        let (_, ys) = simulate(&m, 12, 22);
        let pf = ParticleFilter::new(150, 23);
        let opts = RunOptions::policy(mde_numeric::RunPolicy::Retry {
            max_attempts: 2,
            reseed: true,
        })
        .with_faults(FaultPlan::new().fail_on(5, 0, FaultKind::Panic));
        let PfRun { steps, report, .. } = pf.run(&m, &BootstrapProposal, &ys, &opts).unwrap();
        assert_eq!(steps.len(), 12);
        assert_eq!(report.retried, 1);
        assert_eq!(report.failure_keys(), vec![(5, 0, FailureKind::Panic)]);
        // Step 5 recovered on a different stream; later steps still track.
        let clean = run_steps(&pf, &m, &ys);
        assert_ne!(steps[5].particles, clean[5].particles);
        assert!(steps[5].ln_evidence_increment.is_finite());
    }

    #[test]
    fn best_effort_carries_particles_through_dropped_steps() {
        use mde_numeric::resilience::FaultPlan;
        let m = model();
        let (_, ys) = simulate(&m, 10, 24);
        let pf = ParticleFilter::new(100, 25);
        let policy = mde_numeric::RunPolicy::BestEffort { min_fraction: 0.5 };
        let fault_plan = FaultPlan::new().fail_on(3, 0, FaultKind::Nan);
        let opts = RunOptions::policy(policy).with_faults(fault_plan.clone());
        let PfRun { steps, report, .. } = pf.run(&m, &BootstrapProposal, &ys, &opts).unwrap();
        assert_eq!(steps.len(), 10, "one FilterStep per observation");
        assert_eq!(report.dropped, 1);
        assert!(report.ci_widened);
        assert_eq!(
            report.failure_keys(),
            fault_plan.expected_failure_keys(&policy)
        );
        // The dropped step carries step 2's posterior forward, visibly
        // degraded.
        assert_eq!(steps[3].particles, steps[2].particles);
        assert_eq!(steps[3].ess, 0.0);
        assert!(steps[3].ln_evidence_increment.is_nan());
        // Filtering resumes normally afterwards.
        assert!(steps[4].ln_evidence_increment.is_finite());
        // A floor the drop violates turns into a typed error.
        let strict = RunOptions::policy(mde_numeric::RunPolicy::BestEffort { min_fraction: 1.0 })
            .with_faults(fault_plan);
        assert!(matches!(
            pf.run(&m, &BootstrapProposal, &ys, &strict),
            Err(AssimError::TooManyFailures { .. })
        ));
    }

    /// Bootstrap proposal whose log-weight is NaN whenever the observation
    /// is (a sensor model evaluated outside its domain).
    struct NanOnNanObs;

    impl Proposal<LinGauss> for NanOnNanObs {
        fn sample(&self, m: &LinGauss, prev: Option<&f64>, obs: &f64, rng: &mut Rng) -> f64 {
            BootstrapProposal.sample(m, prev, obs, rng)
        }

        fn ln_weight(
            &self,
            m: &LinGauss,
            _prev: Option<&f64>,
            state: &f64,
            obs: &f64,
            _rng: &mut Rng,
        ) -> f64 {
            m.ln_likelihood(state, obs)
        }
    }

    #[test]
    fn nan_log_weights_are_a_collapse_not_a_silent_particle_zero() {
        use mde_numeric::resilience::FailureKind;
        let m = model();
        let (_, mut ys) = simulate(&m, 6, 40);
        ys[3] = f64::NAN;
        let pf = ParticleFilter::new(50, 41);
        // Recorded as a non-finite step, under every policy.
        match pf.run(&m, &NanOnNanObs, &ys, &RunOptions::default()) {
            Err(AssimError::StepFailed {
                step: 3, message, ..
            }) => {
                assert!(message.contains("non-finite"), "{message}")
            }
            other => panic!("expected StepFailed at step 3, got {other:?}"),
        }
        let best_effort =
            RunOptions::policy(mde_numeric::RunPolicy::BestEffort { min_fraction: 0.5 });
        let PfRun { steps, report, .. } = pf.run(&m, &NanOnNanObs, &ys, &best_effort).unwrap();
        assert_eq!(report.failure_keys(), vec![(3, 0, FailureKind::NonFinite)]);
        assert_eq!(steps[3].particles, steps[2].particles);
    }

    /// Bootstrap proposal under which every particle is impossible at an
    /// observation of exactly zero.
    struct ImpossibleAtZero;

    impl Proposal<LinGauss> for ImpossibleAtZero {
        fn sample(&self, m: &LinGauss, prev: Option<&f64>, obs: &f64, rng: &mut Rng) -> f64 {
            BootstrapProposal.sample(m, prev, obs, rng)
        }

        fn ln_weight(
            &self,
            m: &LinGauss,
            _prev: Option<&f64>,
            state: &f64,
            obs: &f64,
            _rng: &mut Rng,
        ) -> f64 {
            if *obs == 0.0 {
                f64::NEG_INFINITY
            } else {
                m.ln_likelihood(state, obs)
            }
        }
    }

    #[test]
    fn a_collapsed_step_is_a_typed_failure_under_the_default_policy() {
        let m = model();
        let (_, mut ys) = simulate(&m, 6, 42);
        ys[2] = 0.0;
        let pf = ParticleFilter::new(50, 43);
        match pf.run(&m, &ImpossibleAtZero, &ys, &RunOptions::default()) {
            Err(AssimError::StepFailed {
                step: 2,
                attempt: 0,
                message,
            }) => assert!(message.contains("collapsed"), "{message}"),
            other => panic!("expected StepFailed at step 2, got {other:?}"),
        }
    }

    #[test]
    fn preempted_run_resumes_bit_identically_and_refuses_a_foreign_state() {
        use mde_numeric::resilience::FaultPlan;
        let m = model();
        let (_, ys) = simulate(&m, 12, 30);
        let pf = ParticleFilter::new(80, 31);
        let clean = pf
            .run(&m, &BootstrapProposal, &ys, &RunOptions::default())
            .unwrap();
        assert!(clean.stopped.is_none());
        // Preempt mid-run, resume, compare.
        let opts = RunOptions::default().with_faults(FaultPlan::new().preempt_at(5));
        let partial = pf.run(&m, &BootstrapProposal, &ys, &opts).unwrap();
        assert_eq!(partial.stopped, Some(StopCause::Preempted));
        assert_eq!(partial.steps.len(), 5);
        let state = partial.checkpoint;
        // The checkpoint round-trips through the binary codec losslessly.
        let state = CampaignState::decode(&state.encode()).unwrap();
        let resume = RunOptions::default().resuming(state);
        let resumed = pf.run(&m, &BootstrapProposal, &ys, &resume).unwrap();
        assert!(resumed.stopped.is_none());
        assert_eq!(resumed.steps.len(), 12);
        for (a, b) in clean.steps.iter().zip(&resumed.steps) {
            assert_eq!(a.particles, b.particles);
            assert_eq!(a.ess, b.ess);
            assert_eq!(
                a.ln_evidence_increment.to_bits(),
                b.ln_evidence_increment.to_bits()
            );
        }
        assert_eq!(resumed.report, clean.report);
        // A foreign checkpoint (different particle count) is refused.
        let other = ParticleFilter::new(81, 31);
        let foreign = other
            .run(&m, &BootstrapProposal, &ys, &opts)
            .unwrap()
            .checkpoint;
        let foreign = RunOptions::default().resuming(foreign);
        assert!(matches!(
            pf.run(&m, &BootstrapProposal, &ys, &foreign),
            Err(AssimError::Checkpoint(CheckpointError::Mismatch { .. }))
        ));
    }
}
