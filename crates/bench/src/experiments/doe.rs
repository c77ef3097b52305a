//! E11/E12/E13 — §4.2: the design-of-experiments figures.

use mde_metamodel::design::{
    best_32_run_7, full_factorial, is_latin, nolh, orthogonal_lh_2x9, randomized_lh,
    resolution_iii_7, resolution_iv_7,
};
use mde_metamodel::poly::{main_effects, PolyModel};
use mde_numeric::dist::{Distribution, Normal};
use mde_numeric::rng::rng_from_seed;

/// E11 — Figure 3: the resolution III 2^{7−4} design, plus the run-count /
/// resolution table of §4.2.
pub(crate) fn fig3_report() -> String {
    let mut out = String::new();
    out.push_str("E11 | Figure 3: resolution III design for seven parameters (8 runs)\n\n");
    let ff = resolution_iii_7();
    let d = ff.design();
    out.push_str(&d.render_ascii());
    out.push_str(&format!(
        "\nbalanced: {} | max |column correlation|: {} | computed resolution: {:?}\n",
        d.is_balanced(),
        crate::f(d.max_abs_correlation()),
        ff.resolution()
    ));

    out.push_str("\nRun-count / resolution trade-off for 7 factors (paper §4.2):\n");
    let full = full_factorial(7);
    let r4 = resolution_iv_7();
    let r32 = best_32_run_7();
    let rows = vec![
        vec![
            "full factorial 2^7".into(),
            full.runs().to_string(),
            "VII (none aliased)".into(),
        ],
        vec![
            "2^{7-4} (Fig 3)".into(),
            ff.design().runs().to_string(),
            format!("{:?} (paper: III)", ff.resolution().expect("fractional")),
        ],
        vec![
            "2^{7-3}".into(),
            r4.design().runs().to_string(),
            format!("{:?} (paper: IV)", r4.resolution().expect("fractional")),
        ],
        vec![
            "2^{7-2}".into(),
            r32.design().runs().to_string(),
            format!(
                "{:?} (paper says V; best regular 32-run design is IV — see EXPERIMENTS.md)",
                r32.resolution().expect("fractional")
            ),
        ],
    ];
    out.push_str(&crate::render_table(
        &["design", "runs", "resolution"],
        &rows,
    ));
    out
}

/// The 7-factor test response of the Figure 4 experiment: sparse linear
/// truth plus noise.
fn response(x: &[f64], rng: &mut mde_numeric::rng::Rng) -> f64 {
    let noise = Normal::new(0.0, 0.5).expect("static");
    12.0 + 4.0 * x[0] - 2.5 * x[2] + 1.0 * x[4] + 0.3 * x[6] + noise.sample(rng)
}

/// E12 — Figure 4: the main-effects plot from the Figure 3 design.
pub(crate) fn fig4_report() -> String {
    let d = resolution_iii_7().design();
    let mut rng = rng_from_seed(12);
    // 4 replications per run, as a practitioner would.
    let ys: Vec<f64> = d
        .matrix
        .iter()
        .map(|x| (0..4).map(|_| response(x, &mut rng)).sum::<f64>() / 4.0)
        .collect();
    let me = main_effects(&d, &ys);
    let pm = PolyModel::fit(&d.matrix, &ys, 1).expect("linear fit");

    let mut out = String::new();
    out.push_str("E12 | Figure 4: main-effects plot for seven parameters\n");
    out.push_str("truth: y = 12 + 4*x1 - 2.5*x3 + 1*x5 + 0.3*x7 + N(0, 0.5)\n\n");
    out.push_str(&me.render_ascii(&["x1", "x2", "x3", "x4", "x5", "x6", "x7"]));

    out.push_str("\nestimated vs true effects (effect = 2*beta on +/-1 codes):\n");
    let truth = [8.0, 0.0, -5.0, 0.0, 2.0, 0.0, 0.6];
    let mut rows = Vec::new();
    for (j, &truth_j) in truth.iter().enumerate() {
        rows.push(vec![
            format!("x{}", j + 1),
            crate::f(me.effects[j]),
            crate::f(truth_j),
            crate::f(pm.main_effect_coefficient(j)),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "factor",
            "classical effect",
            "true effect",
            "regression beta",
        ],
        &rows,
    ));

    out.push_str("\nhalf-normal (Daniel) diagnostic, ascending |effect|:\n");
    let mut rows = Vec::new();
    for (j, e, q) in me.half_normal_scores() {
        rows.push(vec![format!("x{}", j + 1), crate::f(e), crate::f(q)]);
    }
    out.push_str(&crate::render_table(
        &["factor", "|effect|", "half-normal quantile"],
        &rows,
    ));
    out.push_str(
        "\n8 runs suffice to rank all 7 main effects (vs 128 for the full factorial) —\n\
         the §4.2 data-reduction claim.\n",
    );
    out
}

/// E13 — Figure 5: Latin hypercube designs.
pub(crate) fn fig5_report() -> String {
    let mut out = String::new();
    out.push_str("E13 | Figure 5: Latin hypercube design for two factors, nine runs\n\n");
    let d = orthogonal_lh_2x9();
    out.push_str("Run   x1   x2\n");
    for (i, row) in d.matrix.iter().enumerate() {
        out.push_str(&format!("{:>3}  {:>3}  {:>3}\n", i + 1, row[0], row[1]));
    }
    // Scatter plot, Figure 5 style.
    out.push_str("\n         x2\n");
    for y in (-4..=4).rev() {
        let mut line = String::from(if y == 0 { "  0 +" } else { "    |" });
        for x in -4..=4 {
            let hit = d
                .matrix
                .iter()
                .any(|r| r[0] as i64 == x && r[1] as i64 == y);
            line.push_str(if hit { " *" } else { " ." });
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("    +------------------ x1\n");
    out.push_str(&format!(
        "\nLatin: {} | column correlation: {} (orthogonal)\n",
        is_latin(&d),
        crate::f(d.column_correlation(0, 1)),
    ));

    out.push_str("\nRandomized LH vs NOLH search (max |column correlation|, min distance):\n");
    let mut rows = Vec::new();
    let mut rng = rng_from_seed(5);
    for &(n, r) in &[(2usize, 9usize), (5, 17), (8, 33), (11, 33)] {
        let rand_lh = randomized_lh(n, r, &mut rng);
        let searched = nolh(n, r, 300, &mut rng);
        rows.push(vec![
            format!("{n} factors, {r} runs"),
            crate::f(rand_lh.max_abs_correlation()),
            crate::f(searched.max_abs_correlation()),
            crate::f(rand_lh.min_pairwise_distance()),
            crate::f(searched.min_pairwise_distance()),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "size",
            "rand LH corr",
            "NOLH corr",
            "rand LH min-dist",
            "NOLH min-dist",
        ],
        &rows,
    ));
    out.push_str(
        "\n'randomized LH designs may not work well unless r >> n' — visible in the corr\n\
         column as n approaches r; the NOLH search restores near-orthogonality.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{chaos_seed, splitmix64};

    #[test]
    fn nolh_search_lowers_max_correlation_at_13_seeds() {
        // E13's claim as a paired difference over 13 master seeds: at 8
        // factors in 33 runs and 5 in 17, max |corr| of one randomized LH
        // minus that of the best of 300 sits at least three standard
        // errors above zero.
        for (n, r) in [(8, 33), (5, 17)] {
            let diffs: Vec<f64> = (0..13)
                .map(|i| {
                    let mut rng = rng_from_seed(splitmix64(chaos_seed() ^ (0xE13 + i)));
                    let single = randomized_lh(n, r, &mut rng).max_abs_correlation();
                    single - nolh(n, r, 300, &mut rng).max_abs_correlation()
                })
                .collect();
            let k = diffs.len() as f64;
            let mean = diffs.iter().sum::<f64>() / k;
            let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (k - 1.0);
            let se = (var / k).sqrt();
            assert!(
                mean - 3.0 * se > 0.0,
                "{n} factors, {r} runs: paired max |corr| difference {mean} ± {se} (s.e.): {diffs:?}"
            );
        }
    }

    #[test]
    fn fig4_effect_estimates_near_truth() {
        let d = resolution_iii_7().design();
        let mut rng = rng_from_seed(12);
        let ys: Vec<f64> = d
            .matrix
            .iter()
            .map(|x| (0..8).map(|_| response(x, &mut rng)).sum::<f64>() / 8.0)
            .collect();
        let me = main_effects(&d, &ys);
        assert!(
            (me.effects[0] - 8.0).abs() < 0.6,
            "x1 effect {}",
            me.effects[0]
        );
        assert!(
            (me.effects[2] + 5.0).abs() < 0.6,
            "x3 effect {}",
            me.effects[2]
        );
        assert!(me.effects[1].abs() < 0.6, "x2 should be inert");
    }
}
