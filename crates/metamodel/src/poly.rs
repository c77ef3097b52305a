//! Polynomial metamodels — equation (3) of the paper — plus classical
//! main-effects analysis (Figure 4) and half-normal (Daniel) diagnostics.
//!
//! "The classic polynomial model relates the model response Y(x) to the
//! input parameters via Y(x) = β₀ + β₁x₁ + … + β₁₂x₁x₂ + … + ε … The terms
//! βᵢxᵢ represent 'main effects', whereas the remaining terms model
//! second-order interaction effects, third-order effects, and so on."

use crate::design::Design;
use mde_numeric::dist::special::std_normal_quantile;
use mde_numeric::linalg::{ols, Matrix, OlsFit};

/// A fitted polynomial metamodel over coded factors.
#[derive(Debug, Clone, PartialEq)]
pub struct PolyModel {
    /// Interaction order (1 = linear/main effects only).
    pub order: usize,
    /// Number of factors.
    pub n_factors: usize,
    /// Term structure: each term is the set of factor indices multiplied
    /// together (empty set = intercept), aligned with `fit.coefficients`.
    pub terms: Vec<Vec<usize>>,
    /// The least-squares fit.
    pub fit: OlsFit,
}

impl PolyModel {
    /// Fit a polynomial metamodel of the given interaction order to design
    /// runs `xs` and responses `ys`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], order: usize) -> mde_numeric::Result<PolyModel> {
        assert!(!xs.is_empty(), "need at least one run");
        let n_factors = xs[0].len();
        assert!(order >= 1, "order must be >= 1");
        let terms = build_terms(n_factors, order.min(n_factors));
        let rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                terms
                    .iter()
                    .map(|t| t.iter().map(|&j| x[j]).product())
                    .collect()
            })
            .collect();
        let fit = ols(&Matrix::from_rows(&rows)?, ys)?;
        Ok(PolyModel {
            order,
            n_factors,
            terms,
            fit,
        })
    }

    /// Predict the (mean) response at `x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.terms
            .iter()
            .zip(&self.fit.coefficients)
            .map(|(t, b)| b * t.iter().map(|&j| x[j]).product::<f64>())
            .sum()
    }

    /// The regression main-effect coefficient `βⱼ` of factor `j`.
    pub fn main_effect_coefficient(&self, j: usize) -> f64 {
        let idx = self
            .terms
            .iter()
            .position(|t| t.len() == 1 && t[0] == j)
            .expect("main-effect term always present");
        self.fit.coefficients[idx]
    }

    /// The interaction coefficient for a factor set, if the model includes
    /// that term.
    #[cfg(test)]
    fn interaction_coefficient(&self, factors: &[usize]) -> Option<f64> {
        let mut key = factors.to_vec();
        key.sort_unstable();
        self.terms
            .iter()
            .position(|t| *t == key)
            .map(|i| self.fit.coefficients[i])
    }
}

fn build_terms(n: usize, order: usize) -> Vec<Vec<usize>> {
    // Intercept, then all factor subsets of size 1..=order, in size-major
    // lexicographic order.
    let mut terms = vec![vec![]];
    for size in 1..=order {
        let mut combo: Vec<usize> = (0..size).collect();
        loop {
            terms.push(combo.clone());
            // Next combination.
            let mut i = size;
            loop {
                if i == 0 {
                    return terms;
                }
                i -= 1;
                if combo[i] != i + n - size {
                    break;
                }
                if i == 0 && combo[0] == n - size {
                    // Exhausted this size.
                    i = usize::MAX;
                    break;
                }
            }
            if i == usize::MAX {
                break;
            }
            combo[i] += 1;
            for k in i + 1..size {
                combo[k] = combo[k - 1] + 1;
            }
        }
    }
    terms
}

/// Classical two-level main effects: for each factor, the mean response at
/// its high level minus the mean at its low level (the two points of a
/// Figure 4 main-effects plot are those means).
#[derive(Debug, Clone, PartialEq)]
pub struct MainEffects {
    /// Per-factor `(mean at low, mean at high)`.
    pub level_means: Vec<(f64, f64)>,
    /// Per-factor effect `high − low`.
    pub effects: Vec<f64>,
}

/// Compute classical main effects from a ±1 coded design and responses.
pub fn main_effects(design: &Design, ys: &[f64]) -> MainEffects {
    assert_eq!(design.runs(), ys.len(), "one response per run");
    let k = design.factors();
    let mut level_means = Vec::with_capacity(k);
    let mut effects = Vec::with_capacity(k);
    for j in 0..k {
        let (mut lo_sum, mut lo_n, mut hi_sum, mut hi_n) = (0.0, 0usize, 0.0, 0usize);
        for (run, &y) in design.matrix.iter().zip(ys) {
            if run[j] < 0.0 {
                lo_sum += y;
                lo_n += 1;
            } else {
                hi_sum += y;
                hi_n += 1;
            }
        }
        let lo = lo_sum / lo_n.max(1) as f64;
        let hi = hi_sum / hi_n.max(1) as f64;
        level_means.push((lo, hi));
        effects.push(hi - lo);
    }
    MainEffects {
        level_means,
        effects,
    }
}

impl MainEffects {
    /// Render a text Figure 4: one panel per factor showing the low and
    /// high response means.
    pub fn render_ascii(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.effects.len(), "one name per factor");
        let mut out = String::new();
        let all: Vec<f64> = self.level_means.iter().flat_map(|&(a, b)| [a, b]).collect();
        let min = all.iter().copied().fold(f64::INFINITY, f64::min);
        let max = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-9);
        let width = 40usize;
        let pos = |v: f64| ((v - min) / span * (width - 1) as f64).round() as usize;
        for ((name, &(lo, hi)), &eff) in names.iter().zip(&self.level_means).zip(&self.effects) {
            let mut line = vec![b'.'; width];
            line[pos(lo)] = b'L';
            line[pos(hi)] = b'H';
            out.push_str(&format!(
                "{name:>6} |{}| lo={lo:8.3} hi={hi:8.3} effect={eff:8.3}\n",
                String::from_utf8(line).expect("ascii")
            ));
        }
        out
    }

    /// Half-normal (Daniel) plot data: `(factor index, |effect|,
    /// half-normal quantile)` sorted by |effect| ascending. Effects that
    /// stand far above the line through the small ones are significant.
    pub fn half_normal_scores(&self) -> Vec<(usize, f64, f64)> {
        let m = self.effects.len();
        let mut idx: Vec<usize> = (0..m).collect();
        idx.sort_by(|&a, &b| {
            self.effects[a]
                .abs()
                .partial_cmp(&self.effects[b].abs())
                .expect("finite effects")
        });
        idx.into_iter()
            .enumerate()
            .map(|(rank, j)| {
                let p = (rank as f64 + 0.5) / m as f64;
                // Half-normal quantile: Φ⁻¹((1 + p)/2).
                (
                    j,
                    self.effects[j].abs(),
                    std_normal_quantile((1.0 + p) / 2.0),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{full_factorial, resolution_iii_7};
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::rng_from_seed;

    fn linear_truth(x: &[f64]) -> f64 {
        // β0=10, main effects (4, 0, -3, 0, 1, 0, 0) — the kind of sparse
        // truth factor screening assumes.
        10.0 + 4.0 * x[0] - 3.0 * x[2] + 1.0 * x[4]
    }

    #[test]
    fn term_construction_counts() {
        assert_eq!(build_terms(3, 1).len(), 4); // 1 + 3
        assert_eq!(build_terms(3, 2).len(), 7); // + 3 pairwise
        assert_eq!(build_terms(3, 3).len(), 8); // + x1x2x3
        assert_eq!(build_terms(7, 1).len(), 8);
        assert_eq!(build_terms(4, 2).len(), 11); // 1 + 4 + 6
    }

    #[test]
    fn fits_linear_truth_exactly_on_fig3_design() {
        let d = resolution_iii_7().design();
        let ys: Vec<f64> = d.matrix.iter().map(|x| linear_truth(x)).collect();
        let m = PolyModel::fit(&d.matrix, &ys, 1).unwrap();
        assert!((m.fit.coefficients[0] - 10.0).abs() < 1e-10);
        assert!((m.main_effect_coefficient(0) - 4.0).abs() < 1e-10);
        assert!((m.main_effect_coefficient(1)).abs() < 1e-10);
        assert!((m.main_effect_coefficient(2) + 3.0).abs() < 1e-10);
        assert!((m.main_effect_coefficient(4) - 1.0).abs() < 1e-10);
        // Prediction at a new point.
        let x = vec![0.5; 7];
        assert!((m.predict(&x) - linear_truth(&x)).abs() < 1e-9);
    }

    #[test]
    fn second_order_model_recovers_interactions() {
        // y = 2 + x0 x1 on a full factorial.
        let d = full_factorial(3);
        let ys: Vec<f64> = d.matrix.iter().map(|x| 2.0 + x[0] * x[1]).collect();
        let m = PolyModel::fit(&d.matrix, &ys, 2).unwrap();
        assert!((m.interaction_coefficient(&[0, 1]).unwrap() - 1.0).abs() < 1e-10);
        assert!(m.interaction_coefficient(&[0, 2]).unwrap().abs() < 1e-10);
        assert!(m.interaction_coefficient(&[0, 1, 2]).is_none()); // order 2 model
        assert!(m.main_effect_coefficient(0).abs() < 1e-10);
    }

    #[test]
    fn classical_effects_equal_twice_regression_betas() {
        // On orthogonal ±1 designs, effect = 2β.
        let d = resolution_iii_7().design();
        let ys: Vec<f64> = d.matrix.iter().map(|x| linear_truth(x)).collect();
        let me = main_effects(&d, &ys);
        let pm = PolyModel::fit(&d.matrix, &ys, 1).unwrap();
        for j in 0..7 {
            assert!(
                (me.effects[j] - 2.0 * pm.main_effect_coefficient(j)).abs() < 1e-9,
                "factor {j}"
            );
        }
    }

    #[test]
    fn main_effects_with_noise_are_near_truth() {
        let d = resolution_iii_7().design();
        let mut rng = rng_from_seed(1);
        let noise = Normal::new(0.0, 0.1).unwrap();
        // Average over replicated designs to stay within tolerance.
        let mut eff = [0.0; 7];
        let reps = 50;
        for _ in 0..reps {
            let ys: Vec<f64> = d
                .matrix
                .iter()
                .map(|x| linear_truth(x) + noise.sample(&mut rng))
                .collect();
            for (e, v) in eff.iter_mut().zip(main_effects(&d, &ys).effects) {
                *e += v / reps as f64;
            }
        }
        assert!((eff[0] - 8.0).abs() < 0.1);
        assert!((eff[2] + 6.0).abs() < 0.1);
        assert!(eff[1].abs() < 0.1);
    }

    #[test]
    fn half_normal_scores_flag_large_effects() {
        let d = resolution_iii_7().design();
        let ys: Vec<f64> = d.matrix.iter().map(|x| linear_truth(x)).collect();
        let me = main_effects(&d, &ys);
        let scores = me.half_normal_scores();
        assert_eq!(scores.len(), 7);
        // Sorted ascending by |effect|; the largest is factor 0.
        assert_eq!(scores.last().unwrap().0, 0);
        assert_eq!(scores[scores.len() - 2].0, 2);
        // Quantiles are increasing.
        for w in scores.windows(2) {
            assert!(w[1].2 >= w[0].2);
        }
    }

    #[test]
    fn figure4_render_contains_all_factors() {
        let d = resolution_iii_7().design();
        let ys: Vec<f64> = d.matrix.iter().map(|x| linear_truth(x)).collect();
        let me = main_effects(&d, &ys);
        let names = ["x1", "x2", "x3", "x4", "x5", "x6", "x7"];
        let plot = me.render_ascii(&names);
        assert_eq!(plot.lines().count(), 7);
        assert!(plot.contains("x7"));
        assert!(plot.contains('L') && plot.contains('H'));
    }
}
