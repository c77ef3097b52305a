//! E2 — Figure 2 / §2.3: result caching for the two-model composite.
//!
//! Reproduces the section's quantitative content:
//! * the α-sweep of the asymptotic variance constant `g(α)` against the
//!   *empirically measured* `c·Var(U(c))` of budget-constrained runs;
//! * the closed-form `α*` against the empirical best α;
//! * the efficiency-gain table over the `(c₁/c₂, V₂/V₁)` grid, showing the
//!   paper's "arbitrarily large efficiency improvements".

use mde_numeric::cache::CacheHandle;
use mde_numeric::dist::Normal;
use mde_numeric::rng::Rng;
use mde_numeric::stats::Summary;
use mde_numeric::Fingerprint;
use mde_simopt::budget::run_under_budget_cached;
use mde_simopt::{
    asymptotic_efficiency, g_exact, optimal_alpha, FnModel, SeriesComposite, Statistics,
};
use std::ops::Range;
use std::sync::Arc;

/// Content-address fingerprint of the Figure 2 composite: the cache cannot
/// hash model closures, so the spec parameters stand in for them.
fn composite_fingerprint(c1: f64, c2: f64, s1: f64, s2: f64) -> u64 {
    Fingerprint::new("fig2.series-composite")
        .push_f64(c1)
        .push_f64(c2)
        .push_f64(s1)
        .push_f64(s2)
        .finish()
}

/// The Figure 2 composite: M1 = demand (slow), M2 = queue (fast).
/// V1 = s1² + s2², V2 = s1².
fn composite(c1: f64, c2: f64, s1: f64, s2: f64) -> SeriesComposite {
    let m1 = Arc::new(FnModel::new(
        "demand",
        c1,
        move |_: &[f64], rng: &mut Rng| vec![5.0 + s1 * Normal::sample_standard(rng)],
    ));
    let m2 = Arc::new(FnModel::new(
        "queue",
        c2,
        move |x: &[f64], rng: &mut Rng| vec![x[0] + s2 * Normal::sample_standard(rng)],
    ));
    SeriesComposite::new(m1, m2)
}

/// `c·Var(U(c))` measured through the production result cache: every `M₁`
/// output is a content-addressed cache entry, so the α-sweep's
/// common-random-numbers discipline (same seed across α) becomes real
/// cross-campaign reuse — later α values hit the `M₁` entries earlier ones
/// stored. Estimates are bit-identical to the uncached runner. One run per
/// seed in `seeds`.
fn empirical_scaled_variance(
    comp: &SeriesComposite,
    budget: f64,
    alpha: f64,
    seeds: Range<u64>,
    spec_fingerprint: u64,
    cache: &CacheHandle,
) -> f64 {
    let mut acc = Summary::new();
    for seed in seeds {
        if let Ok(Some(est)) =
            run_under_budget_cached(comp, budget, alpha, seed, spec_fingerprint, cache)
        {
            acc.push(est.theta_hat);
        }
    }
    budget * acc.sample_variance()
}

/// Regenerate the §2.3 tables.
pub fn fig2_report() -> String {
    let (c1, c2, s1, s2) = (10.0, 1.0, 1.0, 1.0);
    let stats = Statistics {
        c1,
        c2,
        v1: s1 * s1 + s2 * s2,
        v2: s1 * s1,
    };
    let comp = composite(c1, c2, s1, s2);
    let budget = 1500.0;
    let reps = 300;

    let mut out = String::new();
    out.push_str("E2 | Figure 2 / §2.3: result caching for M = M2 ∘ M1\n");
    out.push_str(&format!(
        "setup: c1={c1}, c2={c2}, V1={}, V2={} -> theory alpha* = {:.4}\n\n",
        stats.v1,
        stats.v2,
        optimal_alpha(&stats, usize::MAX),
    ));

    // α sweep: theory vs measurement, with every run's M₁ outputs flowing
    // through the production content-addressed result cache (one handle
    // shared across the whole sweep — common random numbers across α turn
    // into genuine cross-campaign cache hits).
    let spec_fp = composite_fingerprint(c1, c2, s1, s2);
    let cache = CacheHandle::in_memory();
    let alphas = [0.05, 0.1, 0.2, 0.3162, 0.5, 0.75, 1.0];
    let mut rows = Vec::new();
    let mut best_emp = (f64::INFINITY, 0.0);
    for &a in &alphas {
        let theory = g_exact(a, &stats);
        let measured = empirical_scaled_variance(&comp, budget, a, 0..reps, spec_fp, &cache);
        if measured < best_emp.0 {
            best_emp = (measured, a);
        }
        rows.push(vec![
            crate::f(a),
            crate::f(theory),
            crate::f(measured),
            crate::f(measured / theory),
        ]);
    }
    out.push_str(&crate::render_table(
        &["alpha", "g(alpha) theory", "c*Var(U(c)) measured", "ratio"],
        &rows,
    ));
    let a_star = optimal_alpha(&stats, usize::MAX);
    out.push_str(&format!(
        "\nempirical best alpha = {} (theory alpha* = {:.4}) | ratio column near 1 validates the CLT\n",
        best_emp.1, a_star
    ));
    let cs = cache.stats();
    let requested = cs.hits + cs.misses;
    out.push_str(&format!(
        "result cache: {} M1 lookups -> {} hits / {} misses (hit rate {:.1}%), \
         {} entries resident; every hit is an M1 execution the sweep skipped\n",
        requested,
        cs.hits,
        cs.misses,
        100.0 * cs.hits as f64 / requested.max(1) as f64,
        cs.entries,
    ));

    // Ablation: deterministic cycling vs uniform random cache reuse ("the
    // deterministic cycling scheme produces a stratified sample … and helps
    // minimize estimator variance").
    let var_of = |random: bool| {
        use mde_simopt::rc::{run_rc_cached, run_rc_random_reuse, RcConfig};
        let ablation_cache = CacheHandle::in_memory();
        let mut acc = Summary::new();
        for seed in 0..400 {
            let cfg = RcConfig {
                n: 50,
                alpha: 0.2,
                seed,
            };
            let est = if random {
                run_rc_random_reuse(&comp, &cfg)
            } else {
                run_rc_cached(&comp, &cfg, spec_fp, &ablation_cache)
            };
            acc.push(est.theta_hat);
        }
        acc.sample_variance()
    };
    let (v_cycle, v_random) = (var_of(false), var_of(true));
    out.push_str(&format!(
        "\nAblation (alpha = 0.2, n = 50): Var(theta) with deterministic cycling = {} vs \
         random reuse = {} -> cycling cuts variance by {:.0}%\n",
        crate::f(v_cycle),
        crate::f(v_random),
        100.0 * (1.0 - v_cycle / v_random)
    ));

    // Efficiency-gain grid.
    out.push_str("\nEfficiency gain 1/g(alpha*) over 1/g(1) across the (c1/c2, V2/V1) grid:\n");
    let mut grid_rows = Vec::new();
    for &cost_ratio in &[1.0, 10.0, 100.0, 1000.0] {
        let mut row = vec![format!("c1/c2 = {cost_ratio}")];
        for &cov_ratio in &[0.9, 0.5, 0.1, 0.01] {
            let s = Statistics {
                c1: cost_ratio,
                c2: 1.0,
                v1: 1.0,
                v2: cov_ratio,
            };
            let a = optimal_alpha(&s, 1_000_000);
            let gain = asymptotic_efficiency(a, &s) / asymptotic_efficiency(1.0, &s);
            row.push(format!("{gain:.1}x"));
        }
        grid_rows.push(row);
    }
    out.push_str(&crate::render_table(
        &["", "V2/V1=0.9", "V2/V1=0.5", "V2/V1=0.1", "V2/V1=0.01"],
        &grid_rows,
    ));
    out.push_str(
        "\nPaper's claims: (i) U(c) ~ N(theta, g(alpha)/c); (ii) alpha* at the closed form;\n\
         (iii) 'arbitrarily large efficiency improvements are possible' as c1/c2 grows\n\
         and V2/V1 shrinks — visible in the bottom-right of the grid.\n",
    );

    // Beyond the paper's two-model theory: the "general composite model"
    // question, answered empirically for a 3-stage chain with nested
    // caching.
    out.push_str(
        "\nExtension (the paper's open question): 3-stage chain M3∘M2∘M1 with nested\n\
         caching (c = 50/5/1, sigma = 1/0.5/1). cost x Var over (alpha1, alpha2):\n",
    );
    let chain = mde_simopt::chain::ChainComposite {
        m1: Arc::new(FnModel::new("src", 50.0, |_: &[f64], rng: &mut Rng| {
            vec![5.0 + Normal::sample_standard(rng)]
        })),
        m2: Arc::new(FnModel::new("mid", 5.0, |x: &[f64], rng: &mut Rng| {
            vec![x[0] + 0.5 * Normal::sample_standard(rng)]
        })),
        m3: Arc::new(FnModel::new("sink", 1.0, |x: &[f64], rng: &mut Rng| {
            vec![x[0] + Normal::sample_standard(rng)]
        })),
    };
    let grid = [0.1, 0.5, 1.0];
    let rows_cv = chain.sweep_alphas(40, &grid, 300, 21);
    let mut trows = Vec::new();
    for &a1 in &grid {
        let mut row = vec![format!("alpha1 = {a1}")];
        for &a2 in &grid {
            let v = rows_cv
                .iter()
                .find(|(x, y, _)| (*x - a1).abs() < 1e-12 && (*y - a2).abs() < 1e-12)
                .expect("grid point")
                .2;
            row.push(crate::f(v));
        }
        trows.push(row);
    }
    out.push_str(&crate::render_table(
        &["", "alpha2=0.1", "alpha2=0.5", "alpha2=1.0"],
        &trows,
    ));
    let best = rows_cv
        .iter()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"))
        .expect("non-empty");
    out.push_str(&format!(
        "empirical optimum at (alpha1, alpha2) = ({}, {}) — caching pays at every level\n",
        best.0, best.1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{chaos_seed, splitmix64};

    #[test]
    fn empirical_variance_tracks_theory_at_endpoints() {
        let stats = Statistics {
            c1: 10.0,
            c2: 1.0,
            v1: 2.0,
            v2: 1.0,
        };
        let comp = composite(10.0, 1.0, 1.0, 1.0);
        let fp = composite_fingerprint(10.0, 1.0, 1.0, 1.0);
        let cache = CacheHandle::in_memory();
        for &a in &[0.3162, 1.0] {
            let theory = g_exact(a, &stats);
            let measured = empirical_scaled_variance(&comp, 2000.0, a, 0..400, fp, &cache);
            let ratio = measured / theory;
            assert!(
                (0.7..1.4).contains(&ratio),
                "alpha {a}: measured/theory = {ratio}"
            );
        }
        // The second α shares M₁ randomness with the first: real hits.
        assert!(cache.stats().hits > 0, "CRN sweep must hit the cache");
    }

    #[test]
    fn optimal_alpha_empirically_beats_naive() {
        // E2's claim over 13 master seeds: on 13 disjoint ranges of 100
        // budget-constrained runs, ln(c·Var(U(c))) at α* minus that at
        // α = 1 (common random numbers within a range) sits at least three
        // standard errors below zero.
        const REPS: u64 = 100;
        let comp = composite(10.0, 1.0, 1.0, 1.0);
        let fp = composite_fingerprint(10.0, 1.0, 1.0, 1.0);
        let base = splitmix64(chaos_seed() ^ 0xE2) >> 32;
        let logs: Vec<f64> = (0..13)
            .map(|i| {
                let seeds = base + i * REPS..base + (i + 1) * REPS;
                let cache = CacheHandle::in_memory();
                let v_star =
                    empirical_scaled_variance(&comp, 1500.0, 0.3162, seeds.clone(), fp, &cache);
                let v_one = empirical_scaled_variance(&comp, 1500.0, 1.0, seeds, fp, &cache);
                (v_star / v_one).ln()
            })
            .collect();
        let k = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / k;
        let var = logs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (k - 1.0);
        let se = (var / k).sqrt();
        assert!(
            mean + 3.0 * se < 0.0,
            "ln(v(alpha*) / v(1)) = {mean} ± {se} (s.e.): {logs:?}"
        );
    }
}
