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
//! `(τ², θ)` minimize the negative log marginal likelihood with `β₀`
//! profiled out by GLS. **The search** is one dense BFGS
//! ([`mde_numeric::optim::bfgs`]) over `φ = (ln τ², ln θ)` from a
//! data-derived start, following the analytic gradient the cached
//! [`KernelWorkspace`] returns next to each likelihood value (formula and
//! cost in the `kernel` module doc); steps are capped in log space, a
//! non-SPD or non-finite trial is `+∞`, and an inert factor's flat `ln θ`
//! direction ends the search instead of being walked to `−∞`. The fit ends
//! with one plain assemble + factorization at the accepted point, which is
//! the model returned.
//!
//! **A fit is remembered.** [`GpModel::fit_remembered`] content-addresses
//! the accepted `[ln τ², ln θ…, nll]` in the result cache under the design,
//! the responses, the noise and the search's identity ([`fit_key`]). A
//! later fit of the same data looks it up and runs only the final
//! evaluation at the stored point — the same call the search would have
//! ended with, hence the same model to the bit — and accepts it only if
//! the arity is right, every value is finite and the likelihood it just
//! recomputed equals the stored one bit for bit. Anything else (a digest
//! collision, an edited file, an entry written by another build) is a miss:
//! the search runs and overwrites the entry. A remembered fit is verified,
//! never trusted.
//!
//! [`GpModel::append_point`] grows a fitted surrogate by one design point
//! via a rank-1 Cholesky border instead of a refit — the workhorse of
//! kriging-assisted infill loops.

use crate::kernel::{require_finite, KernelWorkspace};
use mde_numeric::cache::{CacheEntry, CacheHandle, CacheKey};
use mde_numeric::checkpoint::Fingerprint;
use mde_numeric::linalg::Cholesky;
use mde_numeric::obs::RunMetrics;
use mde_numeric::optim::{bfgs, BfgsConfig};
use mde_numeric::NumericError;

/// Configuration for GP fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpConfig {
    /// Diagonal jitter added to keep Cholesky stable (deterministic
    /// kriging's "numerical nugget").
    pub jitter: f64,
    /// Likelihood-evaluation budget for the hyperparameter search.
    pub max_evals: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            jitter: 1e-10,
            max_evals: 400,
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
        metrics: Option<&mut RunMetrics>,
    ) -> mde_numeric::Result<GpModel> {
        Self::fit_remembered(ws, ys, noise_var, cfg, metrics, None)
    }

    /// [`GpModel::fit_workspace`] through a result cache: the accepted
    /// hyperparameters are stored as a leaf entry (campaign tag `gp.fit`,
    /// key [`fit_key`]), and a later fit of the same data re-verifies the
    /// stored point with one evaluation instead of searching (module doc).
    /// With or without a cache, hit or miss, the model is the same to the
    /// bit; the ledger shows the difference (`gp.factorizations` is 1 on a
    /// hit).
    pub fn fit_remembered(
        ws: &mut KernelWorkspace,
        ys: &[f64],
        noise_var: &[f64],
        cfg: &GpConfig,
        mut metrics: Option<&mut RunMetrics>,
        cache: Option<&CacheHandle>,
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
        require_finite("ys", ys)?;
        validate_noise(noise_var, n)?;
        let start = initial_log_params(ws.xs(), ys)?;
        let d = ws.dim();

        // One likelihood evaluation at log-parameters `lp`: a cached fill +
        // in-place factor on the workspace (no allocation, no recomputed
        // pairwise differences), with the gradient when asked.
        let mut thetas = vec![0.0; d];
        let mut evaluate = |ws: &mut KernelWorkspace, lp: &[f64], grad: Option<&mut [f64]>| {
            if let Some(m) = metrics.as_deref_mut() {
                m.inc("gp.assembles");
                m.inc("gp.factorizations");
            }
            for (t, l) in thetas.iter_mut().zip(&lp[1..]) {
                *t = l.exp();
            }
            let tau2 = lp[0].exp();
            ws.assemble(tau2, &thetas, noise_var, ys, cfg.jitter, grad)
        };

        // A remembered fit is re-verified, never trusted: one evaluation at
        // the stored point must reproduce the stored likelihood exactly.
        let cached = cache.map(|c| (c, fit_key(ws.xs(), ys, noise_var, cfg)));
        let accepted = cached
            .as_ref()
            .and_then(|(c, key)| c.get(key))
            .map(|stored| stored.values)
            .filter(|v| v.len() == d + 2 && v.iter().all(|x| x.is_finite()))
            .and_then(|v| match evaluate(ws, &v[..=d], None) {
                Ok((beta0, nll)) if nll.to_bits() == v[d + 1].to_bits() => {
                    Some((v[..=d].to_vec(), beta0))
                }
                _ => None,
            });
        let (log_params, beta0) = match accepted {
            Some(hit) => hit,
            None => {
                let found = bfgs(
                    |lp, grad| match evaluate(ws, lp, Some(grad)) {
                        Ok((_, nll)) => nll,
                        Err(_) => f64::INFINITY,
                    },
                    &start,
                    &BfgsConfig {
                        max_evals: cfg.max_evals,
                        g_tol: 1e-5,
                        f_tol: SEARCH_F_TOL,
                        max_step: MAX_LOG_STEP,
                    },
                )?;
                let (beta0, nll) = evaluate(ws, &found.x, None)?;
                if let Some((c, key)) = cached {
                    let mut values = found.x.clone();
                    values.push(nll);
                    c.insert(CacheEntry::leaf(key, FIT_CAMPAIGN, values));
                }
                (found.x, beta0)
            }
        };

        let (l, alpha) = ws.take_factored();
        Ok(GpModel {
            xs: ws.xs().to_vec(),
            ys: ys.to_vec(),
            beta0,
            tau2: log_params[0].exp(),
            thetas: log_params[1..].iter().map(|l| l.exp()).collect(),
            noise_var: noise_var.to_vec(),
            jitter: cfg.jitter,
            alpha,
            chol: Cholesky::from_factor(l),
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
        require_finite("x", x)?;
        require_finite("y", &[y])?;
        validate_noise(&[noise_var], 1)?;
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

    /// The kriging variance (predictive MSE, ignoring β₀-estimation
    /// inflation) at `x0`.
    #[cfg(test)]
    fn predict_variance(&self, x0: &[f64]) -> f64 {
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
    require_finite("noise_var", noise_var)?;
    if let Some(i) = noise_var.iter().position(|v| *v < 0.0) {
        return Err(NumericError::invalid(
            "noise_var",
            format!(
                "variances must be non-negative (element {i} is {})",
                noise_var[i]
            ),
        ));
    }
    Ok(())
}

/// Largest change of any log-parameter in one trial step of the search: a
/// factor of `e² ≈ 7.4` in `τ²` or a `θ`.
const MAX_LOG_STEP: f64 = 2.0;

/// The search stops when a step gains less than this fraction of
/// `1 + |nll|`. Deterministic kriging factors a matrix whose condition
/// number the `1e-10` jitter lets reach `1e12`, so the likelihood itself is
/// resolved to about this; a tighter stop only crawls through its rounding
/// (2–3× the evaluations on a noise-free response, same `(τ², θ)` to four
/// digits).
const SEARCH_F_TOL: f64 = 1e-8;

/// Campaign tag of a remembered fit's cache entry.
const FIT_CAMPAIGN: &str = "gp.fit";

/// Identity of the likelihood search inside [`fit_key`]. **Bump it whenever
/// the search path changes** (start point, optimizer, tolerances, step
/// cap): an entry remembered under the old path is then simply never
/// looked up, instead of being verified and served as if the new path had
/// found it.
///
/// 2: the likelihood kernels' rounding changed (`linalg::kernels` lost its
/// FMA path, so `dot`, `dot4` and the correlation fill round every multiply
/// and add separately). A fit remembered under 1 would cost a re-verifying
/// factorization and almost always be refused; if its likelihood bits
/// still matched, it would be served although this search did not find it.
const SEARCH_IDENTITY: u64 = 2;

/// Content address of a fit: a fingerprint over the search identity, the
/// shape `(n, d)`, the jitter and the evaluation budget, with separate
/// digests of the design, response and noise bits as the "parameter point".
/// Everything that can change the bits of the accepted `(τ², θ)`
/// participates; a seed or a replicate count does not — a fit draws
/// nothing.
pub fn fit_key(xs: &[Vec<f64>], ys: &[f64], noise_var: &[f64], cfg: &GpConfig) -> CacheKey {
    fn digest<'a>(tag: &str, values: impl Iterator<Item = &'a f64>) -> u64 {
        values
            .fold(Fingerprint::new(tag), |fp, &v| fp.push_f64(v))
            .finish()
    }
    let spec = Fingerprint::new(FIT_CAMPAIGN)
        .push_u64(SEARCH_IDENTITY)
        .push_u64(xs.len() as u64)
        .push_u64(xs.first().map_or(0, Vec::len) as u64)
        .push_f64(cfg.jitter)
        .push_u64(cfg.max_evals as u64)
        .finish();
    CacheKey {
        spec_fingerprint: spec,
        param_point_bits: vec![
            digest("gp.fit.xs", xs.iter().flatten()),
            digest("gp.fit.ys", ys.iter()),
            digest("gp.fit.noise", noise_var.iter()),
        ],
        replicates: 0,
        master_seed: 0,
    }
}

/// Start point of the likelihood search: `ln τ² ≈ ln var(y)`, `ln θ_k ≈ −2·ln range_k`
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

/// The naive oracle for [`KernelWorkspace::assemble`]: build
/// Σ = τ²R + Σ_ε + jitter·(1+τ²)·I from scratch, factor it with the scalar
/// Cholesky [`scalar_factor`], compute the GLS β₀ and the weight vector α,
/// and return them with the negative log likelihood and its gradient in
/// `(ln τ², ln θ₁…ln θ_d)` — the textbook
/// `½ tr(Σ⁻¹ ∂Σ) − ½ αᵀ ∂Σ α` over dense `∂Σ` matrices, sharing nothing
/// with the workspace's packed pass.
#[cfg(test)]
#[allow(clippy::type_complexity)]
fn assemble_unoptimized(
    xs: &[Vec<f64>],
    ys: &[f64],
    noise_var: &[f64],
    tau2: f64,
    thetas: &[f64],
    jitter: f64,
) -> mde_numeric::Result<(f64, Vec<f64>, f64, Vec<f64>)> {
    use mde_numeric::linalg::Matrix;
    let n = xs.len();
    let mut sigma = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut v = tau2 * correlation(&xs[i], &xs[j], thetas);
            if i == j {
                v += noise_var[i] + jitter * (1.0 + tau2);
            }
            sigma[(i, j)] = v;
        }
    }
    let l = scalar_factor(&sigma)?;
    let ones = vec![1.0; n];
    let si_y = scalar_solve(&l, ys);
    let si_1 = scalar_solve(&l, &ones);
    let denom: f64 = si_1.iter().sum();
    let beta0 = si_y.iter().sum::<f64>() / denom;
    let r: Vec<f64> = ys.iter().map(|y| y - beta0).collect();
    let alpha = scalar_solve(&l, &r);
    let quad: f64 = r.iter().zip(&alpha).map(|(a, b)| a * b).sum();
    let ln_det: f64 = (0..n).map(|i| 2.0 * l[(i, i)].ln()).sum();
    let nll = 0.5 * (ln_det + quad);

    // Column c of Σ⁻¹ by one scalar solve each.
    let inv: Vec<Vec<f64>> = (0..n)
        .map(|c| {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            scalar_solve(&l, &e)
        })
        .collect();
    let along = |dsigma: &dyn Fn(usize, usize) -> f64| -> f64 {
        let mut g = 0.0;
        for i in 0..n {
            for k in 0..n {
                g += 0.5 * (inv[k][i] - alpha[i] * alpha[k]) * dsigma(i, k);
            }
        }
        g
    };
    let mut grad = vec![along(&|i, k| {
        tau2 * correlation(&xs[i], &xs[k], thetas) + if i == k { jitter * tau2 } else { 0.0 }
    })];
    for (j, &theta) in thetas.iter().enumerate() {
        grad.push(along(&|i, k| {
            let diff = xs[i][j] - xs[k][j];
            -theta * diff * diff * tau2 * correlation(&xs[i], &xs[k], thetas)
        }));
    }
    Ok((beta0, alpha, nll, grad))
}

/// The element-indexed Cholesky factor `L` of a symmetric matrix, with the
/// same pivot test as [`Cholesky::new`] but none of its code.
#[cfg(test)]
fn scalar_factor(
    a: &mde_numeric::linalg::Matrix,
) -> mde_numeric::Result<mde_numeric::linalg::Matrix> {
    let n = a.rows();
    let mut l = mde_numeric::linalg::Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i != j {
                l[(i, j)] = sum / l[(j, j)];
            } else if sum > 0.0 && sum.is_finite() {
                l[(i, j)] = sum.sqrt();
            } else {
                return Err(NumericError::SingularMatrix {
                    context: "scalar_factor (non-positive pivot)",
                });
            }
        }
    }
    Ok(l)
}

/// Solve `L·Lᵀ·x = b` by forward then backward substitution into two
/// buffers.
#[cfg(test)]
fn scalar_solve(l: &mde_numeric::linalg::Matrix, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let sum: f64 = b[i] - (0..i).map(|k| l[(i, k)] * y[k]).sum::<f64>();
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let sum: f64 = y[i] - (i + 1..n).map(|k| l[(k, i)] * x[k]).sum::<f64>();
        x[i] = sum / l[(i, i)];
    }
    x
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
    use mde_numeric::rng::{for_cases, rng_from_seed, Rng};

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
        // Non-finite input is refused by name and index, not turned into
        // a NaN model or a failed pivot.
        let (xs, ys, cfg) = (
            grid_1d(4, 0.0, 1.0),
            [1.0, 2.0, 3.0, 4.0],
            GpConfig::default(),
        );
        let named = |err: NumericError, want: &str, index: &str| match err {
            NumericError::InvalidParameter { name, reason } => {
                assert_eq!(name, want);
                assert!(reason.contains(index), "reason: {reason}");
            }
            other => panic!("expected InvalidParameter({want}), got {other:?}"),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_ys = ys;
            bad_ys[2] = bad;
            named(
                GpModel::fit(&xs, &bad_ys, &cfg).unwrap_err(),
                "ys",
                "element 2",
            );
            let mut nv = [0.1; 4];
            nv[3] = bad;
            named(
                GpModel::fit_stochastic(&xs, &ys, &nv, &cfg).unwrap_err(),
                "noise_var",
                "element 3",
            );
            let mut bad_xs = xs.clone();
            bad_xs[1][0] = bad;
            named(
                GpModel::fit(&bad_xs, &ys, &cfg).unwrap_err(),
                "xs",
                "point 1",
            );
        }
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

    /// A random design in `[-1, 1]^d` with smooth-plus-rough responses.
    fn random_problem(
        rng: &mut Rng,
        n: usize,
        d: usize,
        noisy: bool,
    ) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let ys = xs
            .iter()
            .map(|x| (2.0 * x[0]).sin() + x[d - 1] * x[d - 1] + 0.3 * rng.gen::<f64>())
            .collect();
        let noise = (0..n)
            .map(|_| if noisy { rng.gen_range(0.01..0.2) } else { 0.0 })
            .collect();
        (xs, ys, noise)
    }

    /// Log-uniform over `[lo, hi]`.
    fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
        rng.gen_range(lo.ln()..hi.ln()).exp()
    }

    #[test]
    fn fit_matches_unoptimized_oracle() {
        // What an oracle for a kernel can promise: at a given (τ², θ) the
        // workspace and the rebuild-everything path evaluate the same β₀,
        // likelihood **and gradient** — over random designs, d 1–8,
        // n 5–70, with and without noise, θ across nine decades, a jitter
        // large enough that its ∂/∂ln τ² term is visible, and on a
        // workspace grown by `push`.
        for_cases(48, |rng| {
            let d = rng.gen_range(1..=8usize);
            let n = rng.gen_range(5..=70usize);
            let noisy = rng.gen::<f64>() < 0.5;
            let (xs, ys, noise) = random_problem(rng, n, d, noisy);
            let jitter = if rng.gen::<f64>() < 0.5 { 1e-10 } else { 1e-2 };
            // Half the cases reach the design through `push`.
            let mut ws = if rng.gen::<f64>() < 0.5 {
                KernelWorkspace::new(&xs).unwrap()
            } else {
                let keep = n - rng.gen_range(1..=3usize);
                let mut ws = KernelWorkspace::new(&xs[..keep]).unwrap();
                for x in &xs[keep..] {
                    ws.push(x).unwrap();
                }
                ws
            };
            let tau2 = log_uniform(rng, 1e-2, 1e2);
            let thetas: Vec<f64> = (0..d).map(|_| log_uniform(rng, 1e-6, 1e3)).collect();
            let mut grad = vec![0.0; d + 1];
            let fast = ws.assemble(tau2, &thetas, &noise, &ys, jitter, Some(&mut grad));
            let slow = assemble_unoptimized(&xs, &ys, &noise, tau2, &thetas, jitter);
            let ((beta0, nll), (beta0_slow, alpha_slow, nll_slow, grad_slow)) = match (fast, slow) {
                (Ok(f), Ok(s)) => (f, s),
                // Nearly flat θ without noise: Σ is numerically singular
                // for both, or for neither.
                (Err(_), Err(_)) => return,
                (f, s) => panic!("feasibility differs: {f:?} vs {:?}", s.map(|s| s.2)),
            };
            // Conditioning bounds what two summation orders can agree to.
            let cond = alpha_slow.iter().fold(1.0f64, |m, a| m.max(a.abs()));
            let tol = 1e-9 * (1.0 + cond * cond);
            assert!(
                (beta0 - beta0_slow).abs() <= tol * (1.0 + beta0_slow.abs()),
                "beta0 {beta0} vs {beta0_slow}"
            );
            assert!(
                (nll - nll_slow).abs() <= tol * (1.0 + nll_slow.abs()),
                "nll {nll} vs {nll_slow}"
            );
            let scale = grad_slow.iter().fold(1.0f64, |m, g| m.max(g.abs()));
            for (j, (g, gs)) in grad.iter().zip(&grad_slow).enumerate() {
                assert!(
                    (g - gs).abs() <= 1e-6 * scale.max(cond * cond),
                    "n={n} d={d} ∂/∂φ_{j}: {g} vs oracle {gs} (all: {grad:?} vs {grad_slow:?})"
                );
            }
            // Asking for the gradient must not change the value's bits.
            let plain = ws.assemble(tau2, &thetas, &noise, &ys, jitter, None);
            assert_eq!(plain.unwrap().1.to_bits(), nll.to_bits());
        });
    }

    #[test]
    fn gradient_matches_central_differences() {
        // Well-conditioned points (noise on the diagonal, moderate θ) so a
        // central difference of the workspace's own likelihood resolves
        // eight digits; includes a visible jitter term in ∂/∂ln τ².
        for_cases(24, |rng| {
            let d = rng.gen_range(1..=8usize);
            let n = rng.gen_range(5..=70usize);
            let (xs, ys, noise) = random_problem(rng, n, d, true);
            let jitter = if rng.gen::<f64>() < 0.5 { 1e-10 } else { 5e-2 };
            let mut ws = KernelWorkspace::new(&xs).unwrap();
            let lp: Vec<f64> = std::iter::once(log_uniform(rng, 0.1, 10.0).ln())
                .chain((0..d).map(|_| log_uniform(rng, 1e-2, 1e1).ln()))
                .collect();
            let mut nll_at = |lp: &[f64], grad: Option<&mut [f64]>| {
                let thetas: Vec<f64> = lp[1..].iter().map(|l| l.exp()).collect();
                ws.assemble(lp[0].exp(), &thetas, &noise, &ys, jitter, grad)
                    .unwrap()
                    .1
            };
            let mut grad = vec![0.0; d + 1];
            nll_at(&lp, Some(&mut grad));
            let h = 1e-5;
            for j in 0..=d {
                let (mut up, mut down) = (lp.clone(), lp.clone());
                up[j] += h;
                down[j] -= h;
                let fd = (nll_at(&up, None) - nll_at(&down, None)) / (2.0 * h);
                assert!(
                    (grad[j] - fd).abs() <= 1e-6 * (1.0 + fd.abs()),
                    "n={n} d={d} jitter={jitter} ∂/∂φ_{j}: analytic {} vs central {fd}",
                    grad[j]
                );
            }
        });
    }

    /// The simplex the fit used to run: Nelder–Mead over the same
    /// `assemble`, same start, same 400-evaluation budget.
    fn simplex_nll(xs: &[Vec<f64>], ys: &[f64], noise: &[f64], cfg: &GpConfig) -> f64 {
        use mde_numeric::optim::{nelder_mead, NelderMeadConfig};
        let mut ws = KernelWorkspace::new(xs).unwrap();
        let start = initial_log_params(xs, ys).unwrap();
        nelder_mead(
            |lp| {
                let thetas: Vec<f64> = lp[1..].iter().map(|l| l.exp()).collect();
                ws.assemble(lp[0].exp(), &thetas, noise, ys, cfg.jitter, None)
                    .map_or(f64::INFINITY, |(_, nll)| nll)
            },
            &start,
            &NelderMeadConfig {
                max_evals: cfg.max_evals,
                initial_step: 0.5,
                ..NelderMeadConfig::default()
            },
        )
        .unwrap()
        .fx
    }

    /// What a fit reached: the NLL at its hyperparameters, the largest
    /// gradient component there, and the evaluations its search took.
    fn fitted_nll(xs: &[Vec<f64>], ys: &[f64], noise: &[f64], cfg: &GpConfig) -> (f64, f64, u64) {
        let mut metrics = RunMetrics::new();
        let gp = GpModel::fit_with(xs, ys, noise, cfg, Some(&mut metrics)).unwrap();
        let mut ws = KernelWorkspace::new(xs).unwrap();
        let mut grad = vec![0.0; xs[0].len() + 1];
        let (tau2, thetas) = (gp.tau2(), gp.thetas());
        let nll = ws
            .assemble(tau2, thetas, noise, ys, cfg.jitter, Some(&mut grad))
            .unwrap()
            .1;
        let steepest = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
        (nll, steepest, metrics.counter("gp.factorizations"))
    }

    /// The benchmark's simulated total at an eight-factor point: sixteen
    /// items, sixteen replicates, mean and spread as in `explore.rs`.
    fn noisy_total(x: &[f64], rng: &mut Rng) -> f64 {
        let mean = 10.0 + 3.0 * x[0] + 2.0 * x[3] + 0.1 * (x[1] + x[2] + x[4] + x[5] + x[6] + x[7]);
        let std = 2.0 + 0.5 * x[3].abs();
        16.0 * mean + std * Normal::sample_standard(rng)
    }

    /// Tally of search-vs-simplex comparisons on one benchmark shape.
    #[derive(Default)]
    struct Versus {
        fits: u64,
        /// Fits whose NLL is the simplex's or lower (to 1e-6 relative).
        no_worse: u64,
        evals: u64,
    }

    impl Versus {
        fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], noise: &[f64]) {
            let cfg = GpConfig::default();
            let (nll, steepest, evals) = fitted_nll(xs, ys, noise, &cfg);
            let simplex = simplex_nll(xs, ys, noise, &cfg);
            // What a local search can promise on every design: it stops at
            // a stationary point of the likelihood (the simplex, out of
            // budget in nine dimensions, does not).
            assert!(
                steepest < 1e-2,
                "{}x{}: |∇nll|∞ = {steepest} at the accepted point",
                xs.len(),
                xs[0].len()
            );
            self.fits += 1;
            self.no_worse += u64::from(nll <= simplex + 1e-6 * simplex.abs());
            self.evals += evals;
        }
    }

    #[test]
    fn search_reaches_the_simplex_likelihood_on_the_benchmark_shapes() {
        // ROADMAP's third condition for changing fitted θ, on the
        // benchmark's two shapes at 13 seeds: one 65 × 8 deterministic
        // kriging of noisy totals, and the 33…41 × 2 stochastic-kriging
        // anchor fits of one calibration. The likelihood is multimodal
        // (interpolating noise, *some* factor's θ must absorb it), so
        // neither local search dominates design by design; measured over
        // MDE_CHAOS_SEED 7 / 13 / 17 with the plain-Rust kernels, the
        // gradient search ends strictly lower than Nelder–Mead(400) on 32
        // of 39 screening designs and higher on 7, and on the calibration
        // shape ties to 1e-6 on 176 of 195 fits, lower on 16, higher on 3.
        // The bounds below leave room for an unlucky seed.
        let (mut screen, mut krig) = (Versus::default(), Versus::default());
        for_cases(13, |rng| {
            let xs = crate::design::nolh(8, 65, 50, rng).scale_to(&[(-1.0, 1.0); 8]);
            let ys: Vec<f64> = xs.iter().map(|x| noisy_total(x, rng)).collect();
            screen.fit(&xs, &ys, &[0.0; 65]);

            // Calibration shape: squared miss of the total in the two
            // strong factors, two replicates a point, the design grown by
            // two points between anchors.
            let mut xs = crate::design::nolh(2, 33, 50, rng).scale_to(&[(-1.0, 1.0); 2]);
            let observe = |t: &[f64], rng: &mut Rng| {
                let mut x = [0.0; 8];
                (x[0], x[3]) = (t[0], t[1]);
                let j: Vec<f64> = (0..2)
                    .map(|_| (noisy_total(&x, rng) - 172.0).powi(2))
                    .collect();
                let mean = (j[0] + j[1]) / 2.0;
                (mean, (j[0] - mean).powi(2) + (j[1] - mean).powi(2))
            };
            let (mut ys, mut noise): (Vec<f64>, Vec<f64>) =
                xs.iter().map(|t| observe(t, rng)).unzip();
            for _anchor in 0..5 {
                krig.fit(&xs, &ys, &noise);
                for _ in 0..2 {
                    let t = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                    let (m, v) = observe(&t, rng);
                    xs.push(t);
                    ys.push(m);
                    noise.push(v);
                }
            }
        });
        assert!(screen.no_worse >= 8, "65x8: {} of 13", screen.no_worse);
        assert!(krig.no_worse >= 60, "n x 2: {} of 65", krig.no_worse);
        // The point of following the gradient: an order of magnitude fewer
        // factorizations than the simplex's 190–401 a fit.
        let (per_screen, per_krig) = (screen.evals / screen.fits, krig.evals / krig.fits);
        assert!(per_screen <= 80, "65x8: {per_screen} evaluations a fit");
        assert!(per_krig <= 40, "n x 2: {per_krig} evaluations a fit");
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
        let beta0_before = gp.beta0().to_bits();
        assert!(gp.append_point(&[0.1, 0.2], 0.0, 0.0, None).is_err());
        assert!(gp.append_point(&[0.5], 0.5, -1.0, None).is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(gp.append_point(&[bad], 0.5, 0.0, None).is_err());
            assert!(gp.append_point(&[0.55], bad, 0.0, None).is_err());
            assert!(gp.append_point(&[0.55], 0.5, bad, None).is_err());
        }
        assert_eq!(gp.n_points(), 5);
        assert_eq!(gp.predict(&[0.4]), before);
        assert_eq!(gp.beta0().to_bits(), beta0_before);
        assert!(gp.predict(&[0.7]).is_finite());
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
