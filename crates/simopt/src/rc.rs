//! The result-caching (RC) execution strategy.
//!
//! §2.3: "For n simulation replications of M₂, only m_n = ⌈αn⌉
//! replications of M₁ are executed … We write the output of M₁ to disk
//! after each of the first m_n simulation replications and then repeatedly
//! cycle through these outputs in a fixed order to obtain inputs to M₂.
//! Thus each M₁ output is used in approximately n/m_n executions of M₂.
//! The deterministic cycling scheme produces a stratified sample of the
//! outputs of M₁ and helps minimize estimator variance. Finally, θ is
//! estimated as θ_n = (1/n) Σ Y₂ᵢ."

use crate::component::SeriesComposite;
use mde_numeric::cache::{CacheHandle, ObjectiveScope};
use mde_numeric::rng::StreamFactory;
use mde_numeric::stats::Summary;

/// Provenance campaign tag for RC cache entries.
pub const CAMPAIGN_RC: &str = "simopt.rc";

/// Configuration of an RC run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcConfig {
    /// Number of `M₂` replications `n`.
    pub n: usize,
    /// Replication fraction `α ∈ (0, 1]`.
    pub alpha: f64,
    /// Master seed.
    pub seed: u64,
}

/// The outcome of an RC run.
#[derive(Debug, Clone, PartialEq)]
pub struct RcEstimate {
    /// `θ_n = (1/n) Σ Y₂ᵢ`.
    pub theta_hat: f64,
    /// Sample variance of the `Y₂` outputs (descriptive; the estimator's
    /// own variance follows `g(α)`, not this, because outputs sharing an
    /// `M₁` input are correlated).
    pub sample_variance: f64,
    /// Number of `M₂` runs executed.
    pub n: usize,
    /// Number of `M₁` runs executed (`⌈αn⌉`).
    pub m: usize,
    /// Total nominal cost `C_n = m·c₁ + n·c₂`.
    pub cost: f64,
    /// The raw `Y₂` samples in execution order.
    pub samples: Vec<f64>,
}

/// Execute the RC strategy on a two-model series composite.
///
/// RNG discipline: `M₁` run `j` uses stream `(0, j)`; `M₂` run `i` uses
/// stream `(1, i)` — so estimates with different `α` but the same seed
/// share `M₁` randomness where possible (common random numbers, which
/// sharpens the α-sweep experiments).
pub fn run_rc(composite: &SeriesComposite, cfg: &RcConfig) -> RcEstimate {
    rc_loop(composite, cfg, |_, fresh| fresh(), |i, m| i % m)
}

/// [`run_rc`] with phase 1 backed by the production content-addressed
/// [`ResultCache`](mde_numeric::cache::ResultCache) instead of a transient
/// in-run vector.
///
/// Each `M₁` replication `j` is keyed by
/// `(spec_fingerprint, [j], replicates = 1, cfg.seed)` and memoized
/// through an [`ObjectiveScope`], so runs that share a seed — e.g. the
/// §2.3 α-sweep, which uses common random numbers across α — pay for each
/// `M₁` output exactly once per cache, however many campaigns revisit it.
/// Because `M₁` run `j` draws from its own stream `(0, j)`, a cache hit
/// consumes no randomness and the estimate is bit-identical to
/// [`run_rc`]'s at every `(n, α, seed)`, cold or warm.
///
/// `spec_fingerprint` must identify the composite (the cache cannot hash
/// closures); distinct composites sharing a fingerprint would cross-hit.
pub fn run_rc_cached(
    composite: &SeriesComposite,
    cfg: &RcConfig,
    spec_fingerprint: u64,
    cache: &CacheHandle,
) -> RcEstimate {
    let mut scope = ObjectiveScope::new(cache.clone(), CAMPAIGN_RC, spec_fingerprint, 1, cfg.seed);
    rc_loop(
        composite,
        cfg,
        |j, fresh| scope.memoize(&[j as f64], fresh),
        |i, m| i % m,
    )
}

/// Ablation of the deterministic cycling scheme: reuse cached `M₁` outputs
/// by *uniform random* selection instead of cycling.
///
/// The paper: "The deterministic cycling scheme produces a stratified
/// sample of the outputs of M₁ and helps minimize estimator variance."
/// Random reuse gives each cached output a binomial (rather than fixed)
/// usage count, adding between-cache-entry variance; this function exists
/// so experiments can measure that penalty directly. The picks draw from
/// stream `(2, 0)`.
pub fn run_rc_random_reuse(composite: &SeriesComposite, cfg: &RcConfig) -> RcEstimate {
    let mut pick_rng = StreamFactory::new(cfg.seed).child(2).stream(0);
    rc_loop(
        composite,
        cfg,
        |_, fresh| fresh(),
        |_, m| pick_rng.gen_range(0..m),
    )
}

/// The RC loop every runner shares. Phase 1 obtains the `m = ⌈αn⌉` `M₁`
/// outputs, output `j` from `m1_output(j, fresh)`, where `fresh` runs
/// `M₁` on stream `(0, j)`; phase 2 runs `M₂` `n` times, run `i` on stream
/// `(1, i)` and fed the output `reuse(i, m)` picks.
fn rc_loop(
    composite: &SeriesComposite,
    cfg: &RcConfig,
    mut m1_output: impl FnMut(usize, &dyn Fn() -> Vec<f64>) -> Vec<f64>,
    mut reuse: impl FnMut(usize, usize) -> usize,
) -> RcEstimate {
    assert!(cfg.n > 0, "need at least one replication");
    assert!(
        cfg.alpha > 0.0 && cfg.alpha <= 1.0,
        "alpha must be in (0, 1], got {}",
        cfg.alpha
    );
    let m = ((cfg.alpha * cfg.n as f64).ceil() as usize).clamp(1, cfg.n);
    let factory = StreamFactory::new(cfg.seed);
    let m1_streams = factory.child(0);
    let m2_streams = factory.child(1);

    // Phase 1: run and "cache to disk" the m M₁ outputs.
    let outputs: Vec<Vec<f64>> = (0..m)
        .map(|j| m1_output(j, &|| composite.run_m1(&mut m1_streams.stream(j as u64))))
        .collect();

    // Phase 2: n M₂ runs, each fed the M₁ output the reuse scheme picks.
    let mut samples = Vec::with_capacity(cfg.n);
    let mut summary = Summary::new();
    for i in 0..cfg.n {
        let y1 = &outputs[reuse(i, m)];
        let y2 = composite.run_m2(y1, &mut m2_streams.stream(i as u64));
        summary.push(y2);
        samples.push(y2);
    }

    RcEstimate {
        theta_hat: summary.mean(),
        sample_variance: summary.sample_variance(),
        n: cfg.n,
        m,
        cost: m as f64 * composite.m1.cost() + cfg.n as f64 * composite.m2.cost(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnModel;
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::Rng;
    use std::sync::Arc;

    /// M1 ~ N(5, 1) (cost 10); M2 = input + N(0, 1) (cost 1).
    /// θ = 5, V1 = 2, V2 = 1.
    fn composite() -> SeriesComposite {
        let m1 = Arc::new(FnModel::new("demand", 10.0, |_: &[f64], rng: &mut Rng| {
            vec![5.0 + Normal::standard().sample(rng)]
        }));
        let m2 = Arc::new(FnModel::new("queue", 1.0, |x: &[f64], rng: &mut Rng| {
            vec![x[0] + Normal::standard().sample(rng)]
        }));
        SeriesComposite::new(m1, m2)
    }

    #[test]
    fn replication_counts_and_cost() {
        let c = composite();
        let est = run_rc(
            &c,
            &RcConfig {
                n: 100,
                alpha: 0.25,
                seed: 1,
            },
        );
        assert_eq!(est.n, 100);
        assert_eq!(est.m, 25);
        assert_eq!(est.cost, 25.0 * 10.0 + 100.0 * 1.0);
        assert_eq!(est.samples.len(), 100);
    }

    #[test]
    fn alpha_one_runs_m1_every_time() {
        let est = run_rc(
            &composite(),
            &RcConfig {
                n: 40,
                alpha: 1.0,
                seed: 2,
            },
        );
        assert_eq!(est.m, 40);
    }

    #[test]
    fn tiny_alpha_floors_at_one_m1_run() {
        let est = run_rc(
            &composite(),
            &RcConfig {
                n: 40,
                alpha: 1e-9,
                seed: 2,
            },
        );
        assert_eq!(est.m, 1);
    }

    #[test]
    fn estimator_is_unbiased_across_alphas() {
        // θ = 5 regardless of α (the paper: "estimates are asymptotically
        // valid for any value of α").
        for &alpha in &[0.1, 0.3162, 1.0] {
            let mut acc = Summary::new();
            for seed in 0..300 {
                let est = run_rc(&composite(), &RcConfig { n: 50, alpha, seed });
                acc.push(est.theta_hat);
            }
            let se = acc.sample_std_dev() / (acc.count() as f64).sqrt();
            assert!(
                (acc.mean() - 5.0).abs() < 5.0 * se,
                "α={alpha}: mean {} (se {se})",
                acc.mean()
            );
        }
    }

    #[test]
    fn estimator_variance_scales_with_g() {
        // For fixed n, Var(θ_n) = (1/n)(V1 + [2r − αr(r+1)]V2) — the
        // variance factor of g(α). Compare α = 1 (factor V1 = 2) with
        // α = 0.5 (r = 2, factor V1 + (4 − 3)V2 = 3).
        let var_at = |alpha: f64| {
            let mut acc = Summary::new();
            for seed in 1000..2200 {
                let est = run_rc(&composite(), &RcConfig { n: 40, alpha, seed });
                acc.push(est.theta_hat);
            }
            acc.sample_variance()
        };
        let v_full = var_at(1.0);
        let v_half = var_at(0.5);
        let ratio = v_half / v_full;
        // Expected ratio 3/2 = 1.5; allow Monte Carlo slack.
        assert!(
            (ratio - 1.5).abs() < 0.35,
            "variance ratio {ratio}, expected ≈ 1.5"
        );
    }

    #[test]
    fn caching_actually_reuses_outputs() {
        // With a *deterministic* M2 (pure pass-through), samples must repeat
        // with period m.
        let m1 = Arc::new(FnModel::new("src", 1.0, |_: &[f64], rng: &mut Rng| {
            vec![Normal::standard().sample(rng)]
        }));
        let m2 = Arc::new(FnModel::new("id", 1.0, |x: &[f64], _: &mut Rng| vec![x[0]]));
        let c = SeriesComposite::new(m1, m2);
        let est = run_rc(
            &c,
            &RcConfig {
                n: 9,
                alpha: 1.0 / 3.0,
                seed: 7,
            },
        );
        assert_eq!(est.m, 3);
        for i in 0..9 {
            assert_eq!(est.samples[i], est.samples[i % 3], "cycling broken at {i}");
        }
    }

    #[test]
    fn common_random_numbers_across_alphas() {
        // Same seed ⇒ the first cached M1 outputs coincide across α values.
        let c = composite();
        let a = run_rc(
            &c,
            &RcConfig {
                n: 12,
                alpha: 0.5,
                seed: 3,
            },
        );
        let b = run_rc(
            &c,
            &RcConfig {
                n: 12,
                alpha: 1.0,
                seed: 3,
            },
        );
        // M2 run 0 consumes M1 output 0 in both cases with the same M2
        // stream, so the first samples agree exactly.
        assert_eq!(a.samples[0], b.samples[0]);
    }

    #[test]
    fn deterministic_cycling_beats_random_reuse() {
        // The paper's variance claim, ablated: at a mid-range alpha, the
        // cycling estimator's variance is at most the random-reuse one's
        // (strictly lower in expectation; allow MC slack via many seeds).
        let c = composite();
        let var_of = |random: bool| {
            let mut acc = Summary::new();
            for seed in 0..800 {
                let cfg = RcConfig {
                    n: 30,
                    alpha: 0.2,
                    seed,
                };
                let est = if random {
                    run_rc_random_reuse(&c, &cfg)
                } else {
                    run_rc(&c, &cfg)
                };
                acc.push(est.theta_hat);
            }
            acc.sample_variance()
        };
        let cycling = var_of(false);
        let random = var_of(true);
        assert!(
            cycling < random,
            "cycling variance {cycling} should beat random reuse {random}"
        );
    }

    #[test]
    fn random_reuse_same_cost_model() {
        let est = run_rc_random_reuse(
            &composite(),
            &RcConfig {
                n: 100,
                alpha: 0.25,
                seed: 1,
            },
        );
        assert_eq!(est.m, 25);
        assert_eq!(est.cost, 25.0 * 10.0 + 100.0);
    }

    #[test]
    fn cached_rc_is_bit_identical_and_shares_m1_across_alphas() {
        let c = composite();
        let handle = CacheHandle::in_memory();
        let fp = 0xFEED_F00D;
        // Cold pass at α = 0.5 must equal the uncached runner exactly.
        let cfg_half = RcConfig {
            n: 12,
            alpha: 0.5,
            seed: 3,
        };
        let plain = run_rc(&c, &cfg_half);
        let cold = run_rc_cached(&c, &cfg_half, fp, &handle);
        assert_eq!(plain, cold);
        let after_cold = handle.stats();
        assert_eq!(after_cold.misses, 6);
        assert_eq!(after_cold.hits, 0);

        // Same seed at α = 1 shares the first 6 M₁ outputs (CRN → real
        // cross-campaign hits) and still matches the uncached runner.
        let cfg_full = RcConfig {
            n: 12,
            alpha: 1.0,
            seed: 3,
        };
        let warm = run_rc_cached(&c, &cfg_full, fp, &handle);
        assert_eq!(run_rc(&c, &cfg_full), warm);
        let after_warm = handle.stats();
        assert_eq!(after_warm.hits, 6);
        assert_eq!(after_warm.misses, 12);

        // A foreign fingerprint or a stale seed never hits.
        run_rc_cached(&c, &cfg_half, fp ^ 1, &handle);
        let foreign = handle.stats();
        assert_eq!(foreign.hits, 6, "foreign fingerprint must miss");
        run_rc_cached(
            &c,
            &RcConfig {
                seed: 4,
                ..cfg_half
            },
            fp,
            &handle,
        );
        assert_eq!(handle.stats().hits, 6, "stale seed must miss");
    }

    #[test]
    fn cached_budget_runner_matches_uncached() {
        use crate::budget::{run_under_budget, run_under_budget_cached};
        let c = composite();
        let handle = CacheHandle::in_memory();
        for seed in 0..5 {
            let plain = run_under_budget(&c, 400.0, 0.3162, seed).unwrap();
            let cached = run_under_budget_cached(&c, 400.0, 0.3162, seed, 7, &handle).unwrap();
            assert_eq!(plain, cached);
            // Rerun warm: every M₁ output is a hit, result unchanged.
            let warm = run_under_budget_cached(&c, 400.0, 0.3162, seed, 7, &handle).unwrap();
            assert_eq!(plain, warm);
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        run_rc(
            &composite(),
            &RcConfig {
                n: 10,
                alpha: 1.5,
                seed: 1,
            },
        );
    }
}
