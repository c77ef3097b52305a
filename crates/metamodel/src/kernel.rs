//! Kernel-matrix workspaces for GP fitting — the memoized half of the
//! §4.1 hot path.
//!
//! Every negative-log-likelihood evaluation inside [`crate::gp::GpModel`]
//! needs the covariance matrix of equation (5),
//! `Σ_M(xᵢ, xⱼ) = τ² Π_k exp(−θ_k (x_{i,k} − x_{j,k})²)`, at a fresh
//! `(τ², θ)`. The design points never change during a fit, so the
//! per-dimension squared differences `(x_{i,k} − x_{j,k})²` are computed
//! **once** here and stored dimension-major over the packed strict lower
//! triangle; each candidate evaluation is then a cached fill —
//! `Σ θ_k·sqd_k` streamed over contiguous slices, one `exp` per pair —
//! followed by an in-place blocked factorization, with zero allocation.
//!
//! **The gradient.** With `β₀` profiled out by GLS the envelope theorem
//! lets the residual be treated as fixed, so for the log-parameters
//! `φ = (ln τ², ln θ₁…ln θ_d)`
//!
//! ```text
//! ∂NLL/∂φⱼ = ½ Σᵢₖ Wᵢₖ (∂Σ/∂φⱼ)ᵢₖ,      W = Σ⁻¹ − ααᵀ,  α = Σ⁻¹(y − β₀·1)
//! ∂Σ/∂ln τ² = τ²R + jitter·τ²·I          (Σ's nugget is jitter·(1 + τ²))
//! ∂Σ/∂ln θⱼ = −θⱼ · (τ²R ∘ Dⱼ)            (Dⱼ = the cached squared differences)
//! ```
//!
//! `assemble` returns it next to the likelihood when asked: the pair
//! values `τ²R` are kept aside before the factorization overwrites them,
//! `Σ⁻¹` comes from the factor already computed
//! ([`kernels::inverse_from_factor`], twice the factorization's work, into
//! scratch the workspace owns), and one sequential pass over the packed
//! pairs forms `Wᵢₖ·τ²Rᵢₖ` and reduces it against each `Dⱼ`. A gradient
//! evaluation costs three to four plain ones.
//!
//! The workspace survives [`KernelWorkspace::push`] (infill appends only
//! the new point's pair row), so kriging-assisted calibration reuses it
//! across *all* hyperparameter candidates *and* all infill rounds.
//!
//! Everything runs on the calling thread with a fixed summation order: a
//! row-banded parallel fill never beat one thread at the sizes a fit sees
//! (EXPERIMENTS.md, E15), so there is none.

use mde_numeric::linalg::{kernels, Matrix};
use mde_numeric::NumericError;

/// Pre-computed pairwise squared differences plus the scratch buffers for
/// allocation-free likelihood evaluations.
#[derive(Debug, Clone)]
pub struct KernelWorkspace {
    xs: Vec<Vec<f64>>,
    d: usize,
    /// Dimension-major packed strict-lower-triangle squared differences:
    /// `sqd[k][p(i, j)] = (x_{i,k} − x_{j,k})²` with `p(i, j) = i(i−1)/2 + j`
    /// for `j < i`. Row-contiguous, so appending a design point appends
    /// `n` entries to each dimension's vector.
    sqd: Vec<Vec<f64>>,
    /// Scratch covariance; refilled (lower triangle) then factored in
    /// place each evaluation. The strict upper triangle is permanently
    /// zero: `fill` writes the lower triangle only, and the blocked
    /// factorization zeroes the upper on success.
    sigma: Matrix,
    /// Right-hand-side scratch for the profile-likelihood solves.
    rhs_y: Vec<f64>,
    rhs_ones: Vec<f64>,
    resid: Vec<f64>,
    alpha: Vec<f64>,
    /// Gradient scratch, packed like `sqd`: the off-diagonal `τ²R` saved
    /// before the factorization overwrites it, then scaled by `W` in place.
    pairs: Vec<f64>,
    /// Gradient scratch: `Σ⁻¹` (lower triangle) from the factor.
    inv: Matrix,
}

impl KernelWorkspace {
    /// Build a workspace for a design. Validates that the points are
    /// finite and share a positive dimension.
    pub fn new(xs: &[Vec<f64>]) -> mde_numeric::Result<Self> {
        if xs.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "KernelWorkspace::new",
            });
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|x| x.len() != d) {
            return Err(NumericError::invalid(
                "xs",
                "design points must share a positive dimension".to_string(),
            ));
        }
        if let Some(p) = xs.iter().flatten().position(|v| !v.is_finite()) {
            return Err(NumericError::invalid(
                "xs",
                format!(
                    "design point {} has a non-finite coordinate {}",
                    p / d,
                    p % d
                ),
            ));
        }
        let n = xs.len();
        let npairs = n * (n - 1) / 2;
        // One dimension at a time, each into a vector sized for its pairs:
        // the pair-major loop wrote the `d` vectors in turn.
        let sqd = (0..d)
            .map(|k| {
                let mut col = Vec::with_capacity(npairs);
                for i in 1..n {
                    col.extend(xs[..i].iter().map(|xj| {
                        let diff = xs[i][k] - xj[k];
                        diff * diff
                    }));
                }
                col
            })
            .collect();
        Ok(KernelWorkspace {
            xs: xs.to_vec(),
            d,
            sqd,
            sigma: Matrix::zeros(n, n),
            rhs_y: vec![0.0; n],
            rhs_ones: vec![0.0; n],
            resid: vec![0.0; n],
            alpha: vec![0.0; n],
            pairs: vec![0.0; npairs],
            inv: Matrix::zeros(n, n),
        })
    }

    /// Number of design points currently held.
    pub fn n(&self) -> usize {
        self.xs.len()
    }

    /// Design-point dimension.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The design points.
    pub fn xs(&self) -> &[Vec<f64>] {
        &self.xs
    }

    /// Append a design point: computes only the new point's `n` squared
    /// differences per dimension (a contiguous append in the packed
    /// layout) and regrows the scratch buffers.
    pub fn push(&mut self, x: &[f64]) -> mde_numeric::Result<()> {
        if x.len() != self.d {
            return Err(NumericError::dim(
                "KernelWorkspace::push",
                format!("point of dimension {}", self.d),
                format!("dimension {}", x.len()),
            ));
        }
        require_finite("x", x)?;
        for xi in &self.xs {
            for (k, col) in self.sqd.iter_mut().enumerate() {
                let diff = x[k] - xi[k];
                col.push(diff * diff);
            }
        }
        self.xs.push(x.to_vec());
        let n = self.xs.len();
        self.sigma = Matrix::zeros(n, n);
        self.rhs_y.resize(n, 0.0);
        self.rhs_ones.resize(n, 0.0);
        self.resid.resize(n, 0.0);
        self.alpha.resize(n, 0.0);
        self.pairs.resize(n * (n - 1) / 2, 0.0);
        self.inv = Matrix::zeros(n, n);
        Ok(())
    }

    /// Fill the lower triangle of the covariance buffer with
    /// `Σ = τ²R(θ) + diag(noise) + jitter·(1+τ²)·I` from the cached
    /// squared differences, in a single fused pass: per row, hand the
    /// dimension-major cached columns to [`kernels::exp_neg_weighted`],
    /// which fuses the `Σ_k θ_k·sqd_k[p]` reduction with a vectorized
    /// `exp(−s)` and writes `τ²·exp(−s)` straight into the strict lower
    /// triangle, then set the nugget-augmented diagonal.
    pub fn fill(&mut self, tau2: f64, thetas: &[f64], noise_var: &[f64], jitter: f64) {
        let n = self.xs.len();
        debug_assert_eq!(thetas.len(), self.d);
        debug_assert_eq!(noise_var.len(), n);
        let nugget = jitter * (1.0 + tau2);
        let mut p = 0;
        for i in 0..n {
            let row = self.sigma.row_mut(i);
            kernels::exp_neg_weighted(&mut row[..i], tau2, thetas, &self.sqd, p);
            p += i;
            row[i] = tau2 + noise_var[i] + nugget;
        }
    }

    /// Assemble and factor `Σ`, profile out `β₀` by GLS, and return
    /// `(β₀, nll)` with the factor left in the internal buffer and the
    /// prediction weights in `alpha`. With `grad` (length `1 + d`), also
    /// writes `∂nll/∂(ln τ², ln θ₁…ln θ_d)` — see the module doc. Zero
    /// allocation per call either way, and the same `(β₀, nll)` bits.
    ///
    /// This is the per-candidate body of the GP likelihood search; the
    /// final accepted candidate's factor/weights are extracted with
    /// [`KernelWorkspace::take_factored`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        &mut self,
        tau2: f64,
        thetas: &[f64],
        noise_var: &[f64],
        ys: &[f64],
        jitter: f64,
        grad: Option<&mut [f64]>,
    ) -> mde_numeric::Result<(f64, f64)> {
        self.fill(tau2, thetas, noise_var, jitter);
        let n = self.xs.len();
        if grad.is_some() {
            let mut p = 0;
            for i in 1..n {
                self.pairs[p..p + i].copy_from_slice(&self.sigma.row(i)[..i]);
                p += i;
            }
        }
        kernels::cholesky_in_place(&mut self.sigma)?;
        // ln|Σ| from the factor diagonal.
        let ln_det: f64 = (0..n).map(|i| self.sigma[(i, i)].ln()).sum::<f64>() * 2.0;
        // GLS β₀: (1ᵀΣ⁻¹y) / (1ᵀΣ⁻¹1).
        self.rhs_y.copy_from_slice(ys);
        kernels::solve_in_place(&self.sigma, &mut self.rhs_y)?;
        self.rhs_ones.fill(1.0);
        kernels::solve_in_place(&self.sigma, &mut self.rhs_ones)?;
        let denom: f64 = self.rhs_ones.iter().sum();
        let beta0 = self.rhs_y.iter().sum::<f64>() / denom;
        // α = Σ⁻¹(y − β₀·1) = Σ⁻¹y − β₀·Σ⁻¹1 by linearity — reuses the
        // two solves above instead of running a third.
        for (r, y) in self.resid.iter_mut().zip(ys) {
            *r = y - beta0;
        }
        for ((a, &sy), &s1) in self.alpha.iter_mut().zip(&self.rhs_y).zip(&self.rhs_ones) {
            *a = sy - beta0 * s1;
        }
        let quad = kernels::dot(&self.resid, &self.alpha);
        let nll = 0.5 * (ln_det + quad);
        if let Some(grad) = grad {
            self.gradient(tau2, thetas, jitter, grad)?;
        }
        Ok((beta0, nll))
    }

    /// `∂nll/∂φ` at the point just assembled: `pairs` holds the
    /// off-diagonal `τ²R`, `sigma` the factor, `alpha` the weights.
    fn gradient(
        &mut self,
        tau2: f64,
        thetas: &[f64],
        jitter: f64,
        grad: &mut [f64],
    ) -> mde_numeric::Result<()> {
        debug_assert_eq!(grad.len(), 1 + self.d);
        kernels::inverse_from_factor(&self.sigma, &mut self.inv)?;
        let KernelWorkspace {
            sqd,
            alpha,
            pairs,
            inv,
            ..
        } = self;
        // One pass over the packed pairs: pairs[p] ← Wᵢₖ·τ²Rᵢₖ.
        let (mut w_diag, mut w_pairs) = (0.0, 0.0);
        let mut p = 0;
        for (i, &ai) in alpha.iter().enumerate() {
            let row = inv.row(i);
            w_diag += row[i] - ai * ai;
            for ((v, &s), &ak) in pairs[p..p + i].iter_mut().zip(row).zip(alpha.iter()) {
                *v *= s - ai * ak;
                w_pairs += *v;
            }
            p += i;
        }
        // The symmetric double sum counts each pair twice, cancelling the ½.
        grad[0] = 0.5 * w_diag * tau2 * (1.0 + jitter) + w_pairs;
        for ((g, &theta), col) in grad[1..].iter_mut().zip(thetas).zip(sqd.iter()) {
            *g = -theta * kernels::dot(pairs, col);
        }
        Ok(())
    }

    /// Clone out the factored covariance and prediction weights left by
    /// the last successful [`KernelWorkspace::assemble`].
    pub(crate) fn take_factored(&self) -> (Matrix, Vec<f64>) {
        (self.sigma.clone(), self.alpha.clone())
    }
}

/// Every element finite, or `InvalidParameter` naming the argument and the
/// first offending index. A `NaN` that got past here would come back as a
/// `NaN` model or a failed pivot with no hint of which input caused it.
pub(crate) fn require_finite(name: &'static str, values: &[f64]) -> mde_numeric::Result<()> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(i) => Err(NumericError::invalid(
            name,
            format!("element {i} is not finite ({})", values[i]),
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_xs() -> Vec<Vec<f64>> {
        (0..12)
            .map(|i| vec![i as f64 * 0.3, (i as f64 * 0.7).sin()])
            .collect()
    }

    #[test]
    fn fill_matches_direct_kernel_evaluation() {
        let xs = toy_xs();
        let (tau2, thetas, jitter) = (1.7, vec![0.9, 2.3], 1e-10);
        let noise = vec![0.05; xs.len()];
        let mut ws = KernelWorkspace::new(&xs).unwrap();
        ws.fill(tau2, &thetas, &noise, jitter);
        for i in 0..xs.len() {
            for j in 0..=i {
                let s: f64 = xs[i]
                    .iter()
                    .zip(&xs[j])
                    .zip(&thetas)
                    .map(|((a, b), t)| t * (a - b) * (a - b))
                    .sum();
                let mut want = tau2 * (-s).exp();
                if i == j {
                    want = tau2 + noise[i] + jitter * (1.0 + tau2);
                }
                assert!(
                    (ws.sigma[(i, j)] - want).abs() < 1e-12,
                    "entry ({i},{j}): {} vs {want}",
                    ws.sigma[(i, j)]
                );
            }
        }
    }

    #[test]
    fn push_matches_fresh_workspace() {
        let mut xs = toy_xs();
        let mut ws = KernelWorkspace::new(&xs).unwrap();
        ws.push(&[9.9, -0.4]).unwrap();
        xs.push(vec![9.9, -0.4]);
        let fresh = KernelWorkspace::new(&xs).unwrap();
        let noise = vec![0.0; xs.len()];
        let mut a = ws.clone();
        let mut b = fresh;
        a.fill(1.0, &[1.0, 1.0], &noise, 1e-10);
        b.fill(1.0, &[1.0, 1.0], &noise, 1e-10);
        assert_eq!(a.sigma.data(), b.sigma.data());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(KernelWorkspace::new(&[]).is_err());
        assert!(KernelWorkspace::new(&[vec![]]).is_err());
        assert!(KernelWorkspace::new(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let mut ws = KernelWorkspace::new(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(ws.push(&[1.0, 2.0]).is_err());
        // Non-finite coordinates are refused where they enter, and a
        // refused push leaves the workspace as it was.
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(KernelWorkspace::new(&[vec![0.0], vec![bad]]).is_err());
            assert!(ws.push(&[bad]).is_err());
        }
        assert_eq!((ws.n(), ws.sqd[0].len()), (2, 1));
    }
}
