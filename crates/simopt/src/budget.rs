//! Budget-constrained execution.
//!
//! §2.3: "suppose that we are given a large but finite computing budget c.
//! … Under a budget c, the number of M₂ outputs that can be generated is
//! N(c) = sup{n ≥ 0 : C_n ≤ c}, resulting in the estimate U(c) = θ_{N(c)}.
//! … U(c) → θ with probability 1 and c^{1/2}[U(c) − θ] ⇒ √g(α)·N(0,1)."
//!
//! `C_n = ⌈αn⌉·c₁ + n·c₂` under RC; `n_max(c, α)` inverts it.

use crate::component::SeriesComposite;
use crate::efficiency::Statistics;
use crate::rc::{run_rc, RcConfig, RcEstimate};
use crate::SimoptError;

/// The RC cost of `n` replications: `C_n = ⌈αn⌉·c₁ + n·c₂`.
fn cost_of(n: usize, alpha: f64, c1: f64, c2: f64) -> f64 {
    (alpha * n as f64).ceil().max(1.0) * c1 + n as f64 * c2
}

/// Validate the `(alpha, c1, c2)` preconditions shared by the budget
/// functions. Bad inputs are a caller's configuration error, surfaced as
/// [`SimoptError::InvalidBudget`] so that budget planning degrades into a
/// typed failure instead of aborting the process.
fn check_budget_inputs(alpha: f64, c1: f64, c2: f64) -> Result<(), SimoptError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(SimoptError::budget(format!(
            "alpha must be in (0, 1], got {alpha}"
        )));
    }
    if !(c1 > 0.0 && c2 > 0.0) {
        return Err(SimoptError::budget(format!(
            "costs must be positive, got c1 = {c1}, c2 = {c2}"
        )));
    }
    Ok(())
}

/// `N(c) = sup{n ≥ 0 : C_n ≤ c}` — the replication count affordable under
/// budget `c` at replication fraction `α`. Returns `Ok(0)` when even
/// `n = 1` is unaffordable, and [`SimoptError::InvalidBudget`] when `α`
/// or the costs are out of range.
pub fn n_max(budget: f64, alpha: f64, c1: f64, c2: f64) -> Result<usize, SimoptError> {
    check_budget_inputs(alpha, c1, c2)?;
    if cost_of(1, alpha, c1, c2) > budget {
        return Ok(0);
    }
    // C_n is nondecreasing in n: binary search the boundary.
    let mut lo = 1usize;
    let mut hi = 2usize;
    while cost_of(hi, alpha, c1, c2) <= budget {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if cost_of(mid, alpha, c1, c2) <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Run the budget-constrained RC estimator `U(c)`.
///
/// Returns `Ok(None)` when the budget cannot afford a single replication,
/// and [`SimoptError::InvalidBudget`] when the configuration is invalid.
pub fn run_under_budget(
    composite: &SeriesComposite,
    budget: f64,
    alpha: f64,
    seed: u64,
) -> Result<Option<RcEstimate>, SimoptError> {
    let n = n_max(budget, alpha, composite.m1.cost(), composite.m2.cost())?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(run_rc(composite, &RcConfig { n, alpha, seed })))
}

/// [`run_under_budget`] through the production result cache
/// ([`run_rc_cached`](crate::rc::run_rc_cached)): bit-identical estimates,
/// but `M₁` outputs shared with every other campaign using the same
/// `(spec_fingerprint, seed)` — the α-sweep's common-random-numbers
/// discipline becomes actual cross-campaign reuse.
pub fn run_under_budget_cached(
    composite: &SeriesComposite,
    budget: f64,
    alpha: f64,
    seed: u64,
    spec_fingerprint: u64,
    cache: &mde_numeric::cache::CacheHandle,
) -> Result<Option<RcEstimate>, SimoptError> {
    let n = n_max(budget, alpha, composite.m1.cost(), composite.m2.cost())?;
    if n == 0 {
        return Ok(None);
    }
    Ok(Some(crate::rc::run_rc_cached(
        composite,
        &RcConfig { n, alpha, seed },
        spec_fingerprint,
        cache,
    )))
}

/// Plan the asymptotically optimal budget-constrained run: pick
/// `α* = optimal_alpha(𝒮, n_max)` (the paper's truncation "at 1/n or 1"),
/// then size `n` to the budget.
pub fn plan_optimal(budget: f64, stats: &Statistics) -> Result<(f64, usize), SimoptError> {
    // The 1/n truncation is self-referential (α depends on n, n on α);
    // resolve with the untruncated α to size n, then truncate.
    let a_raw = crate::efficiency::optimal_alpha(stats, usize::MAX);
    let n = n_max(budget, a_raw.clamp(1e-12, 1.0), stats.c1, stats.c2)?.max(1);
    let alpha = crate::efficiency::optimal_alpha(stats, n);
    let n = n_max(budget, alpha, stats.c1, stats.c2)?;
    Ok((alpha, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnModel;
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::Rng;
    use mde_numeric::stats::Summary;
    use std::sync::Arc;

    fn composite() -> SeriesComposite {
        let m1 = Arc::new(FnModel::new("m1", 10.0, |_: &[f64], rng: &mut Rng| {
            vec![5.0 + Normal::standard().sample(rng)]
        }));
        let m2 = Arc::new(FnModel::new("m2", 1.0, |x: &[f64], rng: &mut Rng| {
            vec![x[0] + Normal::standard().sample(rng)]
        }));
        SeriesComposite::new(m1, m2)
    }

    fn stats() -> Statistics {
        Statistics {
            c1: 10.0,
            c2: 1.0,
            v1: 2.0,
            v2: 1.0,
        }
    }

    #[test]
    fn cost_and_nmax_are_consistent() {
        for &alpha in &[0.1, 0.3, 0.5, 1.0] {
            for &budget in &[15.0, 100.0, 1234.0] {
                let n = n_max(budget, alpha, 10.0, 1.0).unwrap();
                if n > 0 {
                    assert!(cost_of(n, alpha, 10.0, 1.0) <= budget, "n affordable");
                }
                assert!(
                    cost_of(n + 1, alpha, 10.0, 1.0) > budget,
                    "n+1 unaffordable (α={alpha}, c={budget}, n={n})"
                );
            }
        }
    }

    #[test]
    fn nmax_zero_when_budget_too_small() {
        assert_eq!(n_max(5.0, 1.0, 10.0, 1.0).unwrap(), 0);
        assert!(run_under_budget(&composite(), 5.0, 1.0, 1)
            .unwrap()
            .is_none());
    }

    #[test]
    fn bad_budget_inputs_are_typed_errors() {
        // The former `assert!` preconditions, now recoverable.
        for (alpha, c1, c2) in [
            (0.0, 10.0, 1.0),
            (-0.5, 10.0, 1.0),
            (1.5, 10.0, 1.0),
            (f64::NAN, 10.0, 1.0),
            (0.5, 0.0, 1.0),
            (0.5, 10.0, -1.0),
        ] {
            match n_max(1000.0, alpha, c1, c2) {
                Err(SimoptError::InvalidBudget { .. }) => {}
                other => panic!("expected InvalidBudget for α={alpha}, got {other:?}"),
            }
        }
        assert!(matches!(
            run_under_budget(&composite(), 500.0, 2.0, 1),
            Err(SimoptError::InvalidBudget { .. })
        ));
        assert!(n_max(1000.0, 2.0, 10.0, 1.0)
            .unwrap_err()
            .to_string()
            .contains("(0, 1]"));
    }

    #[test]
    fn budgeted_run_respects_budget() {
        let est = run_under_budget(&composite(), 500.0, 0.3162, 1)
            .unwrap()
            .unwrap();
        assert!(est.cost <= 500.0);
        // And it shouldn't leave more than one replication of slack.
        assert!(est.cost + 10.0 + 1.0 + 1.0 > 500.0 * 0.9);
    }

    #[test]
    fn optimal_alpha_beats_naive_under_equal_budget() {
        // The headline claim: at α*, the budget-constrained estimator has
        // lower variance than at α = 1.
        let c = composite();
        let budget = 600.0;
        let (a_star, _) = plan_optimal(budget, &stats()).unwrap();
        let var_at = |alpha: f64| {
            let mut acc = Summary::new();
            for seed in 0..400 {
                if let Some(est) = run_under_budget(&c, budget, alpha, seed).unwrap() {
                    acc.push(est.theta_hat);
                }
            }
            acc.sample_variance()
        };
        let v_opt = var_at(a_star);
        let v_naive = var_at(1.0);
        // g predicts g(1)/g(α*) ≈ 22/ (α*c1+c2)(V1+..): with α*=0.3162,
        // r=3: bracket = 2 + (6 − 0.3162*12)*1 = 4.2056; cost = 4.162;
        // g(α*) ≈ 17.5 vs g(1) = 22 → ~20% variance reduction.
        assert!(
            v_opt < v_naive,
            "α* variance {v_opt} not below naive {v_naive}"
        );
    }

    #[test]
    fn clt_scale_matches_g() {
        // c·Var(U(c)) ≈ g(α): check at α = 1 where g = (c1+c2)V1 = 22.
        let c = composite();
        let budget = 2000.0;
        let mut acc = Summary::new();
        for seed in 0..500 {
            let est = run_under_budget(&c, budget, 1.0, seed).unwrap().unwrap();
            acc.push(est.theta_hat);
        }
        let scaled = budget * acc.sample_variance();
        assert!(
            (scaled - 22.0).abs() < 6.0,
            "c·Var(U(c)) = {scaled}, expected ≈ 22"
        );
    }

    #[test]
    fn plan_optimal_produces_feasible_plan() {
        let (alpha, n) = plan_optimal(1000.0, &stats()).unwrap();
        assert!((alpha - (0.1f64).sqrt()).abs() < 0.05);
        assert!(n > 0);
        assert!(cost_of(n, alpha, 10.0, 1.0) <= 1000.0);
    }
}
