//! Result caching for longer chains — the paper's stated open question.
//!
//! §2.3 closes its setup with: "The general question, then, is how to
//! optimally reuse results for a general composite model in which each
//! component model might be stochastic." This module takes the first step
//! past the two-model theory: a three-stage chain `M₃ ∘ M₂ ∘ M₁` with
//! *nested* result caching —
//!
//! * `m₁ = ⌈α₁·n⌉` cached `M₁` outputs,
//! * `m₂ = ⌈α₂·n⌉` cached `M₂` outputs, each computed from a cached `M₁`
//!   output by deterministic cycling,
//! * `n` runs of `M₃`, cycling through the `M₂` cache.
//!
//! The estimator stays strongly consistent for any `(α₁, α₂)` (it is an
//! average of identically distributed `Y₃`s); what changes is variance per
//! unit cost. [`ChainComposite::sweep_alphas`] measures exactly that, so experiments can
//! locate the empirical optimum the two-model closed form no longer gives.

use crate::component::StochModel;
use crate::rc::{rc_loop, replications, RcEstimate, Stage};
use mde_numeric::rng::Rng;
use mde_numeric::stats::Summary;
use std::sync::Arc;

/// A three-stage series composite.
pub struct ChainComposite {
    /// Source model (no input).
    pub m1: Arc<dyn StochModel>,
    /// Middle model.
    pub m2: Arc<dyn StochModel>,
    /// Sink model (first output coordinate is the scalar `Y₃`).
    pub m3: Arc<dyn StochModel>,
}

/// Configuration of a nested-RC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainRcConfig {
    /// Number of `M₃` replications.
    pub n: usize,
    /// Replication fraction of `M₁` (relative to `n`).
    pub alpha1: f64,
    /// Replication fraction of `M₂` (relative to `n`).
    pub alpha2: f64,
    /// Master seed.
    pub seed: u64,
}

impl ChainComposite {
    /// Execute nested result caching and estimate `θ = E[Y₃]`.
    pub fn run_rc(&self, cfg: &ChainRcConfig) -> RcEstimate {
        let m1_count = replications("alpha1", cfg.alpha1, cfg.n);
        let m2_count = replications("alpha2", cfg.alpha2, cfg.n);
        let m1 = |x: &[f64], rng: &mut Rng| self.m1.run(x, rng);
        let m2 = |x: &[f64], rng: &mut Rng| self.m2.run(x, rng);
        let m3 = |x: &[f64], rng: &mut Rng| self.m3.run(x, rng);
        let stages: [Stage; 3] = [
            (m1_count, self.m1.cost(), &m1),
            (m2_count, self.m2.cost(), &m2),
            (cfg.n, self.m3.cost(), &m3),
        ];
        // `m` counts level-1 runs; level-2 runs are recoverable from cost.
        rc_loop(cfg.seed, &stages, |_, fresh| fresh(), |i, m| i % m)
    }

    /// Measure empirical `cost × Var(θ̂)` (the Hammersley–Handscomb
    /// inefficiency, lower is better) over a grid of `(α₁, α₂)` at fixed
    /// `n`, with `reps` independent estimates per grid point. Returns
    /// `(α₁, α₂, cost·variance)` rows.
    pub fn sweep_alphas(
        &self,
        n: usize,
        alphas: &[f64],
        reps: u64,
        seed: u64,
    ) -> Vec<(f64, f64, f64)> {
        let mut rows = Vec::new();
        for &a1 in alphas {
            for &a2 in alphas {
                let mut acc = Summary::new();
                let mut cost = 0.0;
                for r in 0..reps {
                    let est = self.run_rc(&ChainRcConfig {
                        n,
                        alpha1: a1,
                        alpha2: a2,
                        seed: seed ^ (r.wrapping_mul(0x9E37_79B9)),
                    });
                    acc.push(est.theta_hat);
                    cost = est.cost;
                }
                rows.push((a1, a2, cost * acc.sample_variance()));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnModel;
    use mde_numeric::dist::Normal;
    use mde_numeric::rng::Rng;

    /// M1 ~ N(5,1) (cost 50), M2 = in + N(0,0.5) (cost 5),
    /// M3 = in + N(0,1) (cost 1). θ = 5.
    fn chain() -> ChainComposite {
        ChainComposite {
            m1: Arc::new(FnModel::new("src", 50.0, |_: &[f64], rng: &mut Rng| {
                vec![5.0 + Normal::sample_standard(rng)]
            })),
            m2: Arc::new(FnModel::new("mid", 5.0, |x: &[f64], rng: &mut Rng| {
                vec![x[0] + 0.5 * Normal::sample_standard(rng)]
            })),
            m3: Arc::new(FnModel::new("sink", 1.0, |x: &[f64], rng: &mut Rng| {
                vec![x[0] + Normal::sample_standard(rng)]
            })),
        }
    }

    #[test]
    fn cost_accounting() {
        let est = chain().run_rc(&ChainRcConfig {
            n: 100,
            alpha1: 0.1,
            alpha2: 0.5,
            seed: 1,
        });
        assert_eq!(est.n, 100);
        assert_eq!(est.m, 10);
        assert_eq!(est.cost, 10.0 * 50.0 + 50.0 * 5.0 + 100.0);
        assert_eq!(est.samples.len(), 100);
    }

    #[test]
    fn estimator_unbiased_across_fractions() {
        for &(a1, a2) in &[(0.1, 0.3), (0.5, 0.5), (1.0, 1.0)] {
            let mut acc = Summary::new();
            for seed in 0..300 {
                let est = chain().run_rc(&ChainRcConfig {
                    n: 30,
                    alpha1: a1,
                    alpha2: a2,
                    seed,
                });
                acc.push(est.theta_hat);
            }
            let se = acc.sample_std_dev() / (acc.count() as f64).sqrt();
            assert!(
                (acc.mean() - 5.0).abs() < 5.0 * se,
                "({a1},{a2}): mean {} se {se}",
                acc.mean()
            );
        }
    }

    /// With equal use of every cached output (`m₁ | m₂ | n`, true of the
    /// whole grid at n = 40) the estimator's variance is
    /// `σ₁²/m₁ + σ₂²/m₂ + σ₃²/n`, so `cost × Var(θ̂)` has a closed form at
    /// every grid point with `m₁ ≤ m₂`. `θ̂` is exactly normal here, so a
    /// sample variance over `reps` estimates has relative s.e.
    /// `√(2/(reps−1))`, 2.4 % at 3 600 reps, and each point is held to its
    /// closed form within 5 s.e. The caching claim: `(0.1, 0.1)` costs 87.75
    /// against the no-caching corner's 126, a ratio of 0.70; the asserted
    /// threshold 0.8 leaves the expected gap `0.8·126 − 87.75 = 13.05` at
    /// 4.1 s.e. of `0.8·naive − best` (3.15 if the two were independent;
    /// the sweep's common random numbers make it less).
    #[test]
    fn caching_beats_naive_per_unit_cost() {
        let (n, reps) = (40usize, 3_600u64);
        let rows = chain().sweep_alphas(n, &[0.1, 0.5, 1.0], reps, mde_numeric::rng::chaos_seed());
        let rel_se = (2.0 / (reps - 1) as f64).sqrt();
        for &(a1, a2, measured) in rows.iter().filter(|(a1, a2, _)| a1 <= a2) {
            let (m1, m2) = ((a1 * n as f64).ceil(), (a2 * n as f64).ceil());
            let cost = 50.0 * m1 + 5.0 * m2 + n as f64;
            let closed = cost * (1.0 / m1 + 0.25 / m2 + 1.0 / n as f64);
            assert!(
                (measured - closed).abs() < 5.0 * rel_se * closed,
                "({a1}, {a2}): measured {measured} vs closed form {closed}"
            );
        }
        let at = |a1: f64, a2: f64| {
            rows.iter()
                .find(|(x, y, _)| (*x - a1).abs() < 1e-12 && (*y - a2).abs() < 1e-12)
                .expect("grid point")
                .2
        };
        let (best, naive) = (at(0.1, 0.1), at(1.0, 1.0));
        assert!(
            best < naive * 0.8,
            "nested caching gains missing: best {best} vs naive {naive}"
        );
    }

    #[test]
    fn reproducible_given_seed() {
        let cfg = ChainRcConfig {
            n: 20,
            alpha1: 0.3,
            alpha2: 0.6,
            seed: 4,
        };
        assert_eq!(chain().run_rc(&cfg).samples, chain().run_rc(&cfg).samples);
    }

    #[test]
    #[should_panic(expected = "alpha2 must be in")]
    fn rejects_bad_fractions() {
        chain().run_rc(&ChainRcConfig {
            n: 10,
            alpha1: 0.5,
            alpha2: 0.0,
            seed: 1,
        });
    }
}
