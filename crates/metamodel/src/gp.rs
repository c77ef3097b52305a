//! Gaussian-process metamodels: kriging and stochastic kriging — §4.1,
//! equations (4)–(6) of the paper.
//!
//! The model is `Y(x) = β₀ + M(x)` with `M` a stationary Gaussian process
//! whose covariance is the paper's equation (5):
//! `Σ_M(xᵢ, xⱼ) = τ² Π_k exp(−θ_k (x_{i,k} − x_{j,k})²)`.
//! Given design-point outputs, the optimal (minimum-MSE) predictor is
//! equation (6): `Ŷ(x₀) = β₀ + Σ_M(x₀,·)ᵀ Σ_M⁻¹ (Ȳ − β₀·1)` — which
//! interpolates the design points exactly for deterministic simulations.
//!
//! **Stochastic kriging** (Ankenman–Nelson–Staum) adds per-design-point
//! replication noise: `Σ_M⁻¹` becomes `[Σ_M + Σ_ε]⁻¹` where `Σ_ε` is the
//! diagonal of `V(xᵢ)/nᵢ` — so the predictor smooths rather than
//! interpolates noisy observations.
//!
//! "In practice the various parameters … are estimated from the data":
//! `(τ², θ)` by Nelder–Mead on the negative log marginal likelihood with
//! `β₀` profiled out by GLS. The likelihood search runs on a cached
//! [`KernelWorkspace`] (squared pairwise differences computed once, zero
//! allocation per candidate) with a blocked in-place factorization;
//! [`GpModel::fit_unoptimized`] keeps the original rebuild-everything
//! path as a differential oracle. [`GpModel::append_point`] grows a
//! fitted surrogate by one design point via a rank-1 Cholesky border
//! instead of a refit — the workhorse of kriging-assisted infill loops.

use crate::kernel::KernelWorkspace;
use mde_numeric::linalg::Cholesky;
use mde_numeric::obs::RunMetrics;
use mde_numeric::optim::{nelder_mead, NelderMeadConfig};
use mde_numeric::NumericError;

/// Configuration for GP fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Diagonal jitter added to keep Cholesky stable (deterministic
    /// kriging's "numerical nugget").
    pub jitter: f64,
    /// Likelihood-evaluation budget for the hyperparameter search.
    pub max_evals: usize,
    /// Worker threads for kernel-matrix assembly and batch prediction.
    /// Assembly is row-partitioned into disjoint bands and every entry is
    /// a pure function of the inputs, so results are bit-identical at any
    /// thread count. `0` and `1` both mean sequential.
    pub threads: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            jitter: 1e-10,
            max_evals: 400,
            threads: 1,
        }
    }
}

/// A fitted Gaussian-process metamodel.
#[derive(Debug, Clone)]
pub struct GpModel {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    beta0: f64,
    tau2: f64,
    thetas: Vec<f64>,
    /// Per-design-point observation noise variance (all zero for
    /// deterministic kriging).
    noise_var: Vec<f64>,
    /// Jitter the model was fitted with — reused when extending.
    jitter: f64,
    /// `Σ⁻¹ (y − β₀·1)` precomputed for prediction.
    alpha: Vec<f64>,
    chol: Cholesky,
}

impl GpModel {
    /// Fit deterministic kriging to design points and outputs.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &GpConfig) -> mde_numeric::Result<GpModel> {
        Self::fit_with(xs, ys, &vec![0.0; ys.len()], cfg, None)
    }

    /// Fit stochastic kriging: `ys[i]` is the average of `n_i` replications
    /// at `xs[i]` and `noise_var[i] = V(xᵢ)/nᵢ` is its variance.
    pub fn fit_stochastic(
        xs: &[Vec<f64>],
        ys: &[f64],
        noise_var: &[f64],
        cfg: &GpConfig,
    ) -> mde_numeric::Result<GpModel> {
        Self::fit_with(xs, ys, noise_var, cfg, None)
    }

    /// Fit with explicit noise variances and an optional deterministic
    /// metrics ledger. Increments `gp.assembles` and `gp.factorizations`
    /// once per likelihood evaluation (plus the final refit at the
    /// accepted hyperparameters), making the cost of a fit auditable and
    /// replicable in the obs ledger.
    pub fn fit_with(
        xs: &[Vec<f64>],
        ys: &[f64],
        noise_var: &[f64],
        cfg: &GpConfig,
        metrics: Option<&mut RunMetrics>,
    ) -> mde_numeric::Result<GpModel> {
        let mut ws = KernelWorkspace::new(xs)?;
        Self::fit_workspace(&mut ws, ys, noise_var, cfg, metrics)
    }

    /// Fit on an existing [`KernelWorkspace`], reusing its cached squared
    /// pairwise differences. This is the infill-loop entry point: push
    /// new design points into the workspace and refit without recomputing
    /// the geometry of the points already present.
    pub fn fit_workspace(
        ws: &mut KernelWorkspace,
        ys: &[f64],
        noise_var: &[f64],
        cfg: &GpConfig,
        mut metrics: Option<&mut RunMetrics>,
    ) -> mde_numeric::Result<GpModel> {
        let n = ws.n();
        if n < 2 {
            return Err(NumericError::EmptyInput {
                context: "GpModel::fit (need >= 2 design points)",
            });
        }
        if ys.len() != n {
            return Err(NumericError::dim(
                "GpModel::fit",
                format!("{n} responses"),
                format!("{}", ys.len()),
            ));
        }
        validate_noise(noise_var, n)?;
        let log_params = initial_log_params(ws.xs(), ys)?;

        // Negative log marginal likelihood with GLS β₀ (profiled). Each
        // evaluation is a cached fill + in-place factor on the workspace:
        // no allocation, no recomputed pairwise differences.
        let threads = cfg.threads;
        let jitter = cfg.jitter;
        let nll = |lp: &[f64]| -> f64 {
            let tau2 = lp[0].exp();
            let thetas: Vec<f64> = lp[1..].iter().map(|l| l.exp()).collect();
            if let Some(m) = metrics.as_deref_mut() {
                m.inc("gp.assembles");
                m.inc("gp.factorizations");
            }
            match ws.assemble(tau2, &thetas, noise_var, ys, jitter, threads) {
                Ok((_, value)) => value,
                Err(_) => f64::INFINITY,
            }
        };
        let result = nelder_mead(
            nll,
            &log_params,
            &NelderMeadConfig {
                max_evals: cfg.max_evals,
                initial_step: 0.5,
                ..NelderMeadConfig::default()
            },
        )?;

        let tau2 = result.x[0].exp();
        let thetas: Vec<f64> = result.x[1..].iter().map(|l| l.exp()).collect();
        if let Some(m) = metrics {
            m.inc("gp.assembles");
            m.inc("gp.factorizations");
        }
        let (beta0, _) = ws.assemble(tau2, &thetas, noise_var, ys, jitter, threads)?;
        let (l, alpha) = ws.take_factored();
        Ok(GpModel {
            xs: ws.xs().to_vec(),
            ys: ys.to_vec(),
            beta0,
            tau2,
            thetas,
            noise_var: noise_var.to_vec(),
            jitter: cfg.jitter,
            alpha,
            chol: Cholesky::from_factor(l),
        })
    }

    /// The original fit path — full kernel-matrix rebuild and scalar
    /// (unblocked) factorization per likelihood evaluation — kept as a
    /// differential oracle for the workspace/blocked implementation, in
    /// the same spirit as the query engine's `query_unoptimized`.
    pub fn fit_unoptimized(
        xs: &[Vec<f64>],
        ys: &[f64],
        noise_var: &[f64],
        cfg: &GpConfig,
    ) -> mde_numeric::Result<GpModel> {
        let n = xs.len();
        if n < 2 {
            return Err(NumericError::EmptyInput {
                context: "GpModel::fit (need >= 2 design points)",
            });
        }
        if ys.len() != n {
            return Err(NumericError::dim(
                "GpModel::fit",
                format!("{n} responses"),
                format!("{}", ys.len()),
            ));
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(NumericError::invalid(
                "xs",
                "design points must share a positive dimension".to_string(),
            ));
        }
        validate_noise(noise_var, n)?;
        let log_params = initial_log_params(xs, ys)?;

        let nll = |lp: &[f64]| -> f64 {
            let tau2 = lp[0].exp();
            let thetas: Vec<f64> = lp[1..].iter().map(|l| l.exp()).collect();
            match assemble_unoptimized(xs, ys, noise_var, tau2, &thetas, cfg.jitter) {
                Ok((_, _, _, value)) => value,
                Err(_) => f64::INFINITY,
            }
        };
        let result = nelder_mead(
            nll,
            &log_params,
            &NelderMeadConfig {
                max_evals: cfg.max_evals,
                initial_step: 0.5,
                ..NelderMeadConfig::default()
            },
        )?;

        let tau2 = result.x[0].exp();
        let thetas: Vec<f64> = result.x[1..].iter().map(|l| l.exp()).collect();
        let (chol, beta0, alpha, _) =
            assemble_unoptimized(xs, ys, noise_var, tau2, &thetas, cfg.jitter)?;
        Ok(GpModel {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            beta0,
            tau2,
            thetas,
            noise_var: noise_var.to_vec(),
            jitter: cfg.jitter,
            alpha,
            chol,
        })
    }

    /// Absorb one new design point into the fitted surrogate **without
    /// refitting**: the covariance factor grows by a rank-1 Cholesky
    /// border (`O(n²)` instead of `O(n³)`), hyperparameters `(τ², θ)` are
    /// kept, and `β₀`/`α` are recomputed exactly under the extended
    /// factor. Increments `gp.extends` in the ledger.
    ///
    /// Hyperparameters drift as data accumulates, so infill loops should
    /// periodically do a full [`GpModel::fit_workspace`] refit as an
    /// accuracy anchor (see `KrigingCalConfig::refit_every`). On error
    /// the model is left unchanged.
    pub fn append_point(
        &mut self,
        x: &[f64],
        y: f64,
        noise_var: f64,
        metrics: Option<&mut RunMetrics>,
    ) -> mde_numeric::Result<()> {
        let d = self.xs[0].len();
        if x.len() != d {
            return Err(NumericError::dim(
                "GpModel::append_point",
                format!("point of dimension {d}"),
                format!("dimension {}", x.len()),
            ));
        }
        if noise_var < 0.0 || noise_var.is_nan() {
            return Err(NumericError::invalid(
                "noise_var",
                "variances must be non-negative".to_string(),
            ));
        }
        let col: Vec<f64> = self
            .xs
            .iter()
            .map(|xi| self.tau2 * correlation(x, xi, &self.thetas))
            .collect();
        let diag = self.tau2 + noise_var + self.jitter * (1.0 + self.tau2);
        // Border the factor first: on failure (non-SPD border) the factor
        // — and hence the model — is untouched.
        self.chol.extend(&col, diag)?;
        self.xs.push(x.to_vec());
        self.ys.push(y);
        self.noise_var.push(noise_var);
        // β₀ and α re-profiled exactly under the extended covariance.
        let n = self.ys.len();
        let si_y = self.chol.solve(&self.ys)?;
        let si_1 = self.chol.solve(&vec![1.0; n])?;
        let denom: f64 = si_1.iter().sum();
        self.beta0 = si_y.iter().sum::<f64>() / denom;
        let resid: Vec<f64> = self.ys.iter().map(|y| y - self.beta0).collect();
        self.alpha = self.chol.solve(&resid)?;
        if let Some(m) = metrics {
            m.inc("gp.extends");
        }
        Ok(())
    }

    /// The fitted mean `β₀`.
    pub fn beta0(&self) -> f64 {
        self.beta0
    }

    /// The fitted process variance `τ²`.
    pub fn tau2(&self) -> f64 {
        self.tau2
    }

    /// The fitted correlation decay parameters `θ` — the §4.3 screening
    /// statistic ("a very low value for θⱼ implies … no variability in
    /// model response as the value of the jth parameter changes").
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// Number of design points currently absorbed (fit + appended).
    pub fn n_points(&self) -> usize {
        self.xs.len()
    }

    /// The predictor of equation (6) at `x0`.
    pub fn predict(&self, x0: &[f64]) -> f64 {
        let k: Vec<f64> = self
            .xs
            .iter()
            .map(|xi| self.tau2 * correlation(x0, xi, &self.thetas))
            .collect();
        self.beta0 + k.iter().zip(&self.alpha).map(|(a, b)| a * b).sum::<f64>()
    }

    /// Predict at many points, partitioned across `threads` scoped
    /// workers. Each prediction is an independent pure function written
    /// to a disjoint output slot, so the result is bit-identical to the
    /// sequential [`GpModel::predict`] loop at any thread count.
    pub fn predict_batch(&self, points: &[Vec<f64>], threads: usize) -> Vec<f64> {
        let m = points.len();
        let mut out = vec![0.0; m];
        let threads = threads.clamp(1, m.max(1));
        if threads == 1 {
            for (o, p) in out.iter_mut().zip(points) {
                *o = self.predict(p);
            }
            return out;
        }
        let chunk = m.div_ceil(threads);
        std::thread::scope(|scope| {
            for (pts, band) in points.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (o, p) in band.iter_mut().zip(pts) {
                        *o = self.predict(p);
                    }
                });
            }
        });
        out
    }

    /// The kriging variance (predictive MSE, ignoring β₀-estimation
    /// inflation) at `x0`.
    pub fn predict_variance(&self, x0: &[f64]) -> f64 {
        let k: Vec<f64> = self
            .xs
            .iter()
            .map(|xi| self.tau2 * correlation(x0, xi, &self.thetas))
            .collect();
        let si_k = self.chol.solve(&k).expect("factorized covariance");
        (self.tau2 - k.iter().zip(&si_k).map(|(a, b)| a * b).sum::<f64>()).max(0.0)
    }

    /// Whether the model was fit with observation noise (stochastic
    /// kriging).
    pub fn is_stochastic(&self) -> bool {
        self.noise_var.iter().any(|v| *v > 0.0)
    }
}

fn validate_noise(noise_var: &[f64], n: usize) -> mde_numeric::Result<()> {
    if noise_var.len() != n {
        return Err(NumericError::dim(
            "GpModel::fit_stochastic",
            format!("{n} noise variances"),
            format!("{}", noise_var.len()),
        ));
    }
    if noise_var.iter().any(|v| *v < 0.0) {
        return Err(NumericError::invalid(
            "noise_var",
            "variances must be non-negative".to_string(),
        ));
    }
    Ok(())
}

/// Initial Nelder–Mead point: `ln τ² ≈ ln var(y)`, `ln θ_k ≈ −2·ln range_k`
/// — all per-dimension ranges gathered in a **single pass** over the
/// design. A constant column makes the correlation scale undefined (the
/// likelihood is flat in that θ), so it is a typed error rather than a
/// silent clamp.
fn initial_log_params(xs: &[Vec<f64>], ys: &[f64]) -> mde_numeric::Result<Vec<f64>> {
    let n = xs.len();
    let d = xs[0].len();
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let var_y = (ys.iter().map(|y| (y - mean_y).powi(2)).sum::<f64>() / n as f64).max(1e-8);
    let mut lo = xs[0].clone();
    let mut hi = xs[0].clone();
    for x in &xs[1..] {
        for k in 0..d {
            lo[k] = lo[k].min(x[k]);
            hi[k] = hi[k].max(x[k]);
        }
    }
    let mut log_params = Vec::with_capacity(1 + d);
    log_params.push(var_y.ln());
    for k in 0..d {
        let range = hi[k] - lo[k];
        if !range.is_finite() || range <= 0.0 {
            return Err(NumericError::invalid(
                "xs",
                format!(
                    "design column {k} is degenerate (range {range:e}): the GP \
                     correlation scale θ_{k} is unidentifiable; drop the column \
                     or vary the factor"
                ),
            ));
        }
        log_params.push((1.0 / (range * range)).ln());
    }
    Ok(log_params)
}

/// Build Σ = τ²R + Σ_ε + jitter·I from scratch, factor it with the scalar
/// oracle, compute the GLS β₀ and the weight vector α, and return the
/// negative log likelihood. Differential baseline for
/// [`KernelWorkspace::fill`]-based assembly.
#[allow(clippy::type_complexity)]
fn assemble_unoptimized(
    xs: &[Vec<f64>],
    ys: &[f64],
    noise_var: &[f64],
    tau2: f64,
    thetas: &[f64],
    jitter: f64,
) -> mde_numeric::Result<(Cholesky, f64, Vec<f64>, f64)> {
    let n = xs.len();
    let mut sigma = mde_numeric::linalg::Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut v = tau2 * correlation(&xs[i], &xs[j], thetas);
            if i == j {
                v += noise_var[i] + jitter * (1.0 + tau2);
            }
            sigma[(i, j)] = v;
        }
    }
    let chol = Cholesky::new_unblocked(&sigma)?;
    let ones = vec![1.0; n];
    let si_y = chol.solve_unblocked(ys)?;
    let si_1 = chol.solve_unblocked(&ones)?;
    let denom: f64 = si_1.iter().sum();
    let beta0 = si_y.iter().sum::<f64>() / denom;
    let r: Vec<f64> = ys.iter().map(|y| y - beta0).collect();
    let alpha = chol.solve_unblocked(&r)?;
    let quad: f64 = r.iter().zip(&alpha).map(|(a, b)| a * b).sum();
    let nll = 0.5 * (chol.ln_det() + quad);
    Ok((chol, beta0, alpha, nll))
}

/// The Gaussian correlation of equation (5), with τ² factored out.
pub(crate) fn correlation(a: &[f64], b: &[f64], thetas: &[f64]) -> f64 {
    let s: f64 = a
        .iter()
        .zip(b)
        .zip(thetas)
        .map(|((x, y), t)| t * (x - y) * (x - y))
        .sum();
    (-s).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::rng_from_seed;

    fn grid_1d(n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![lo + (hi - lo) * i as f64 / (n - 1) as f64])
            .collect()
    }

    #[test]
    fn interpolates_design_points_exactly() {
        // The paper: "Ŷ(xᵢ) coincides with the observed value Y(xᵢ) at each
        // design point".
        let xs = grid_1d(8, 0.0, 3.0);
        let ys: Vec<f64> = xs.iter().map(|x| (2.0 * x[0]).sin() + x[0]).collect();
        let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p - y).abs() < 1e-4, "at {x:?}: {p} vs {y}");
            assert!(gp.predict_variance(x) < 1e-4);
        }
    }

    #[test]
    fn predicts_smooth_function_between_design_points() {
        let xs = grid_1d(12, 0.0, 3.0);
        let f = |x: f64| (2.0 * x).sin() + 0.5 * x;
        let ys: Vec<f64> = xs.iter().map(|x| f(x[0])).collect();
        let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        for i in 0..30 {
            let x = 0.05 + i as f64 * 0.1;
            assert!(
                (gp.predict(&[x]) - f(x)).abs() < 0.05,
                "at {x}: {} vs {}",
                gp.predict(&[x]),
                f(x)
            );
        }
    }

    #[test]
    fn predictive_variance_grows_away_from_data() {
        let xs = grid_1d(6, 0.0, 1.0);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        let near = gp.predict_variance(&[0.5]);
        let far = gp.predict_variance(&[3.0]);
        assert!(far > near, "variance near {near}, far {far}");
        assert!(far <= gp.tau2() + 1e-9);
    }

    #[test]
    fn stochastic_kriging_smooths_noisy_observations() {
        // True function linear; observations perturbed. Interpolating
        // kriging chases the noise; SK with the correct noise variance
        // stays closer to the truth at the design points.
        let xs = grid_1d(15, 0.0, 2.0);
        let truth = |x: f64| 3.0 * x;
        let mut rng = rng_from_seed(1);
        let noise = Normal::new(0.0, 0.4).unwrap();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| truth(x[0]) + noise.sample(&mut rng))
            .collect();
        let nv = vec![0.16; xs.len()];
        let sk = GpModel::fit_stochastic(&xs, &ys, &nv, &GpConfig::default()).unwrap();
        let krig = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        assert!(sk.is_stochastic());
        assert!(!krig.is_stochastic());
        let rmse = |m: &GpModel| {
            (xs.iter()
                .map(|x| (m.predict(x) - truth(x[0])).powi(2))
                .sum::<f64>()
                / xs.len() as f64)
                .sqrt()
        };
        let (e_sk, e_k) = (rmse(&sk), rmse(&krig));
        assert!(
            e_sk < e_k,
            "stochastic kriging ({e_sk}) should beat interpolation ({e_k}) on noisy data"
        );
    }

    #[test]
    fn thetas_reflect_factor_importance() {
        // y depends strongly on x0, not at all on x1: θ₀ ≫ θ₁.
        let mut xs = Vec::new();
        let mut rng = rng_from_seed(2);
        for _ in 0..30 {
            xs.push(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
        }
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        let gp = GpModel::fit(
            &xs,
            &ys,
            &GpConfig {
                max_evals: 800,
                ..GpConfig::default()
            },
        )
        .unwrap();
        assert!(
            gp.thetas()[0] > 10.0 * gp.thetas()[1],
            "thetas {:?} fail to separate important from inert factor",
            gp.thetas()
        );
    }

    #[test]
    fn validation_errors() {
        assert!(GpModel::fit(&[vec![0.0]], &[1.0], &GpConfig::default()).is_err());
        assert!(GpModel::fit(&grid_1d(3, 0.0, 1.0), &[1.0, 2.0], &GpConfig::default()).is_err());
        assert!(GpModel::fit_stochastic(
            &grid_1d(3, 0.0, 1.0),
            &[1.0, 2.0, 3.0],
            &[0.1, 0.1],
            &GpConfig::default()
        )
        .is_err());
        assert!(GpModel::fit_stochastic(
            &grid_1d(3, 0.0, 1.0),
            &[1.0, 2.0, 3.0],
            &[0.1, -0.1, 0.1],
            &GpConfig::default()
        )
        .is_err());
    }

    #[test]
    fn degenerate_design_column_is_a_typed_error() {
        // Second coordinate never varies: the θ₁ scale is unidentifiable
        // and the fit must say so instead of silently clamping.
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, 4.0]).collect();
        let ys: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let err = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap_err();
        match err {
            NumericError::InvalidParameter { name, reason } => {
                assert_eq!(name, "xs");
                assert!(reason.contains("column 1"), "reason: {reason}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn assemble_matches_unoptimized_oracle() {
        // The true differential test: at identical hyperparameters the
        // workspace assembly and the rebuild-everything oracle evaluate
        // the same likelihood (up to multi-accumulator dot rounding).
        let xs = grid_1d(14, 0.0, 3.0);
        let ys: Vec<f64> = xs.iter().map(|x| (1.5 * x[0]).cos() + 0.3 * x[0]).collect();
        let nv = vec![0.05; xs.len()];
        let mut ws = KernelWorkspace::new(&xs).unwrap();
        for &(tau2, theta) in &[(1.0, 1.0), (0.3, 4.0), (2.5, 0.2)] {
            let (beta0_fast, nll_fast) = ws.assemble(tau2, &[theta], &nv, &ys, 1e-10, 1).unwrap();
            let (_, beta0_slow, _, nll_slow) =
                assemble_unoptimized(&xs, &ys, &nv, tau2, &[theta], 1e-10).unwrap();
            assert!(
                (beta0_fast - beta0_slow).abs() < 1e-9,
                "beta0 at ({tau2},{theta}): {beta0_fast} vs {beta0_slow}"
            );
            assert!(
                (nll_fast - nll_slow).abs() < 1e-9 * (1.0 + nll_slow.abs()),
                "nll at ({tau2},{theta}): {nll_fast} vs {nll_slow}"
            );
        }
    }

    #[test]
    fn fit_matches_unoptimized_oracle() {
        // End-to-end: rounding differences can nudge the Nelder–Mead
        // trajectory, so the fits agree loosely, not bitwise.
        let xs = grid_1d(14, 0.0, 3.0);
        let ys: Vec<f64> = xs.iter().map(|x| (1.5 * x[0]).cos() + 0.3 * x[0]).collect();
        let nv = vec![0.0; xs.len()];
        let cfg = GpConfig::default();
        let fast = GpModel::fit(&xs, &ys, &cfg).unwrap();
        let slow = GpModel::fit_unoptimized(&xs, &ys, &nv, &cfg).unwrap();
        assert!(
            (fast.beta0() - slow.beta0()).abs() < 1e-2 * (1.0 + slow.beta0().abs()),
            "beta0: {} vs {}",
            fast.beta0(),
            slow.beta0()
        );
        for x in [0.4, 1.3, 2.7] {
            let (pf, ps) = (fast.predict(&[x]), slow.predict(&[x]));
            assert!((pf - ps).abs() < 1e-3, "at {x}: {pf} vs {ps}");
        }
    }

    #[test]
    fn append_point_tracks_refit() {
        // Appending interpolates the new point (deterministic kriging) and
        // stays close to a from-scratch refit at the same hyperparameters.
        let xs = grid_1d(10, 0.0, 3.0);
        let f = |x: f64| (2.0 * x).sin() + 0.5 * x;
        let ys: Vec<f64> = xs.iter().map(|x| f(x[0])).collect();
        let mut gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        let mut metrics = RunMetrics::new();
        for &x in &[0.17, 1.44, 2.81] {
            gp.append_point(&[x], f(x), 0.0, Some(&mut metrics))
                .unwrap();
            assert!(
                (gp.predict(&[x]) - f(x)).abs() < 1e-5,
                "appended point not interpolated at {x}"
            );
        }
        assert_eq!(metrics.counter("gp.extends"), 3);
        assert_eq!(gp.n_points(), 13);
        // Predictions between design points stay accurate after appends.
        for i in 0..25 {
            let x = 0.1 + i as f64 * 0.11;
            assert!(
                (gp.predict(&[x]) - f(x)).abs() < 0.05,
                "post-append prediction off at {x}"
            );
        }
    }

    #[test]
    fn append_point_validates_and_preserves_model() {
        let xs = grid_1d(5, 0.0, 1.0);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let mut gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        let before = gp.predict(&[0.4]);
        assert!(gp.append_point(&[0.1, 0.2], 0.0, 0.0, None).is_err());
        assert!(gp.append_point(&[0.5], 0.5, -1.0, None).is_err());
        assert_eq!(gp.n_points(), 5);
        assert_eq!(gp.predict(&[0.4]), before);
    }

    #[test]
    fn predict_batch_is_bit_identical_across_thread_counts() {
        let xs = grid_1d(20, 0.0, 2.0);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        let queries: Vec<Vec<f64>> = (0..97).map(|i| vec![i as f64 * 0.021]).collect();
        let seq = gp.predict_batch(&queries, 1);
        let expect: Vec<f64> = queries.iter().map(|q| gp.predict(q)).collect();
        assert_eq!(seq, expect);
        for threads in [2usize, 8] {
            assert_eq!(
                gp.predict_batch(&queries, threads),
                seq,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_fit_is_bit_identical_and_ledgered() {
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let nv = vec![0.0; xs.len()];
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let cfg = GpConfig {
                threads,
                ..GpConfig::default()
            };
            let mut metrics = RunMetrics::new();
            let gp = GpModel::fit_with(&xs, &ys, &nv, &cfg, Some(&mut metrics)).unwrap();
            runs.push((gp, metrics));
        }
        let (gp1, m1) = &runs[0];
        for (gp, m) in &runs[1..] {
            assert_eq!(gp.beta0().to_bits(), gp1.beta0().to_bits());
            assert_eq!(gp.tau2().to_bits(), gp1.tau2().to_bits());
            assert_eq!(
                m.counter("gp.factorizations"),
                m1.counter("gp.factorizations")
            );
            assert_eq!(m.counter("gp.assembles"), m1.counter("gp.assembles"));
        }
        assert!(m1.counter("gp.assembles") > 0);
    }

    #[test]
    fn two_dimensional_prediction() {
        let mut xs = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                xs.push(vec![i as f64 / 4.0, j as f64 / 4.0]);
            }
        }
        let f = |x: &[f64]| x[0] * x[0] + 2.0 * x[1];
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        for &(a, b) in &[(0.3, 0.3), (0.6, 0.1), (0.15, 0.85)] {
            let p = gp.predict(&[a, b]);
            let t = f(&[a, b]);
            assert!((p - t).abs() < 0.05, "at ({a},{b}): {p} vs {t}");
        }
    }
}
