//! Sequential importance sampling (SIS) — and why it collapses.
//!
//! §3.2 presents SIS as the recursive form of importance sampling
//! (`w_n = w_{n−1}·α_n`, O(1) per step) and then its "severe drawback":
//! "As n increases the IS estimate involves the product of more and more
//! random weights, which can cause the variance of the estimate to grow
//! exponentially or can cause π̂ₙ to 'collapse', in that one weight will
//! tend to 1 while the rest tend to 0."
//!
//! [`run_sis`] is that algorithm *without* the resampling fix, tracking the
//! effective sample size per step so the collapse is measurable; the
//! comparison against the SIR/particle filter (which resamples) is both a
//! unit test here and part of the E10 story.

use crate::pf::{Proposal, StateSpaceModel};
use crate::resample::effective_sample_size;
use mde_numeric::rng::{Rng, StreamFactory};

/// One SIS step's output: weighted particles (no resampling).
#[derive(Debug, Clone)]
pub struct SisStep<S> {
    /// Particle states.
    pub particles: Vec<S>,
    /// Normalized weights (carry over multiplicatively across steps).
    pub weights: Vec<f64>,
    /// Effective sample size — the §3.2 collapse diagnostic.
    pub ess: f64,
}

impl<S> SisStep<S> {
    /// Weighted posterior-mean estimate of a state statistic.
    pub fn estimate(&self, g: impl Fn(&S) -> f64) -> f64 {
        self.particles
            .iter()
            .zip(&self.weights)
            .map(|(s, &w)| w * g(s))
            .sum()
    }
}

/// Run sequential importance sampling (no resampling) for the observation
/// sequence, propagating multiplicative log-weights.
pub fn run_sis<M, Q>(
    model: &M,
    proposal: &Q,
    observations: &[M::Obs],
    n_particles: usize,
    seed: u64,
) -> Vec<SisStep<M::State>>
where
    M: StateSpaceModel,
    Q: Proposal<M>,
{
    assert!(n_particles >= 2, "need at least 2 particles");
    let factory = StreamFactory::new(seed);
    let mut steps: Vec<SisStep<M::State>> = Vec::with_capacity(observations.len());
    let mut ln_w = vec![0.0f64; n_particles];
    let mut states: Option<Vec<M::State>> = None;

    for (t, obs) in observations.iter().enumerate() {
        let step_factory = factory.child(t as u64);
        let mut rng: Rng = step_factory.stream(0);
        let mut new_states = Vec::with_capacity(n_particles);
        for i in 0..n_particles {
            let parent = states.as_ref().map(|s| &s[i]);
            let x = proposal.sample(model, parent, obs, &mut rng);
            // The recursion w_n = w_{n-1} · α_n, in log space.
            ln_w[i] += proposal.ln_weight(model, parent, &x, obs, &mut rng);
            new_states.push(x);
        }
        let max = ln_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = if max.is_finite() {
            let shifted: Vec<f64> = ln_w.iter().map(|lw| (lw - max).exp()).collect();
            let total: f64 = shifted.iter().sum();
            shifted.iter().map(|w| w / total).collect()
        } else {
            vec![1.0 / n_particles as f64; n_particles]
        };
        let ess = effective_sample_size(&weights);
        steps.push(SisStep {
            particles: new_states.clone(),
            weights,
            ess,
        });
        states = Some(new_states);
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pf::{BootstrapProposal, ParticleFilter};
    use mde_numeric::dist::{Continuous, Normal};
    use mde_numeric::resilience::RunOptions;
    use mde_numeric::rng::rng_from_seed;

    struct LinGauss;

    impl StateSpaceModel for LinGauss {
        type State = f64;
        type Obs = f64;

        fn sample_initial(&self, rng: &mut Rng) -> f64 {
            2.0 * Normal::sample_standard(rng)
        }

        fn sample_transition(&self, prev: &f64, rng: &mut Rng) -> f64 {
            0.9 * prev + 0.5 * Normal::sample_standard(rng)
        }

        fn ln_likelihood(&self, state: &f64, obs: &f64) -> f64 {
            Normal::new(*state, 0.7).unwrap().ln_pdf(*obs)
        }

        fn state_width(&self) -> usize {
            1
        }
    }

    fn simulate(t: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let m = LinGauss;
        let mut rng = rng_from_seed(seed);
        let mut xs = vec![m.sample_initial(&mut rng)];
        for _ in 1..t {
            let prev = *xs.last().unwrap();
            xs.push(m.sample_transition(&prev, &mut rng));
        }
        let ys = xs
            .iter()
            .map(|&x| x + 0.7 * Normal::sample_standard(&mut rng))
            .collect();
        (xs, ys)
    }

    #[test]
    fn sis_weights_collapse_over_time() {
        // The §3.2 drawback, measured: ESS decays toward 1 without
        // resampling.
        let (_, ys) = simulate(40, 1);
        let steps = run_sis(&LinGauss, &BootstrapProposal, &ys, 200, 2);
        let early = steps[1].ess;
        let late = steps.last().unwrap().ess;
        assert!(early > 20.0, "early ESS {early}");
        assert!(
            late < early * 0.25,
            "ESS did not collapse: {early} -> {late}"
        );
        assert!(late < 15.0, "late ESS {late}");
    }

    #[test]
    fn resampling_prevents_the_collapse() {
        // The same filter *with* resampling (Algorithm 2) keeps ESS healthy
        // and tracks better at late times.
        let (xs, ys) = simulate(40, 3);
        let sis = run_sis(&LinGauss, &BootstrapProposal, &ys, 200, 4);
        let sir = ParticleFilter::new(200, 4)
            .run(&LinGauss, &BootstrapProposal, &ys, &RunOptions::default())
            .unwrap()
            .steps;
        // ESS after resampling (measured pre-resample each step) stays far
        // above SIS's collapsed tail.
        let sis_tail_ess = sis[35..].iter().map(|s| s.ess).sum::<f64>() / 5.0;
        let sir_tail_ess = sir[35..].iter().map(|s| s.ess).sum::<f64>() / 5.0;
        assert!(
            sir_tail_ess > 3.0 * sis_tail_ess,
            "SIR ESS {sir_tail_ess} vs SIS ESS {sis_tail_ess}"
        );
        // Late-time tracking error: SIR <= SIS on average.
        let err = |est: &dyn Fn(usize) -> f64| {
            (30..40).map(|t| (est(t) - xs[t]).abs()).sum::<f64>() / 10.0
        };
        let sis_err = err(&|t| sis[t].estimate(|&x| x));
        let sir_err = err(&|t| sir[t].estimate(|&x| x));
        assert!(
            sir_err <= sis_err * 1.1,
            "SIR err {sir_err} vs SIS err {sis_err}"
        );
    }

    #[test]
    fn sis_estimates_are_weighted_means() {
        let step = SisStep {
            particles: vec![1.0, 3.0],
            weights: vec![0.25, 0.75],
            ess: 1.6,
        };
        assert!((step.estimate(|&x| x) - 2.5).abs() < 1e-12);
    }
}
