//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Kriging (§4.1) repeatedly solves systems against the design-point
//! covariance matrix `Σ_M` (or `Σ_M + Σ_ε` for stochastic kriging); those
//! matrices are SPD by construction, so Cholesky is the right factorization
//! — half the work of LU and a built-in PD check that doubles as a
//! diagnostic for ill-chosen correlation parameters.
//!
//! [`Cholesky::new`] and [`Cholesky::solve`] run on the cache-blocked
//! kernels of [`super::kernels`]; the original element-indexed
//! implementations survive as the test-only oracles `new_unblocked` /
//! `solve_unblocked` that this module's tests hold them to.
//! [`Cholesky::extend`] grows a factorization by one row/column in O(n²) —
//! the incremental-surrogate primitive behind `GpModel::append_point`.

use super::{kernels, Matrix};
use crate::NumericError;

/// The lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix with the blocked
    /// right-looking kernel.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility. Returns
    /// [`NumericError::SingularMatrix`] if a non-positive pivot appears.
    pub fn new(a: &Matrix) -> crate::Result<Self> {
        Self::factor(a.clone())
    }

    /// Factor a matrix in place, consuming it — [`Cholesky::new`] without
    /// the defensive copy, for callers that already own a scratch matrix.
    pub fn factor(mut a: Matrix) -> crate::Result<Self> {
        kernels::cholesky_in_place(&mut a)?;
        Ok(Cholesky { l: a })
    }

    /// Wrap an already-factored lower-triangular matrix (as produced by
    /// [`kernels::cholesky_in_place`]) without refactoring.
    ///
    /// The caller asserts `l` is a valid Cholesky factor: lower triangular
    /// with strictly positive diagonal. No checking is performed.
    pub fn from_factor(l: Matrix) -> Self {
        Cholesky { l }
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A·x = b` with the fused forward/backward kernel.
    pub fn solve(&self, b: &[f64]) -> crate::Result<Vec<f64>> {
        let mut x = b.to_vec();
        kernels::solve_in_place(&self.l, &mut x)?;
        Ok(x)
    }

    /// Solve `A·x = b` in place: `b` enters as the right-hand side and
    /// leaves as the solution. Zero allocation — the NLL-evaluation form.
    pub fn solve_in_place(&self, b: &mut [f64]) -> crate::Result<()> {
        kernels::solve_in_place(&self.l, b)
    }

    /// Extend the factorization by one bordered row/column in O(n²): given
    /// the new covariance column `col = A[0..n, n]` and diagonal entry
    /// `diag = A[n, n]`, computes `l₂₁ = L⁻¹·col` by forward substitution
    /// and `l₂₂ = √(diag − l₂₁ᵀ·l₂₁)`, so the result factors the bordered
    /// matrix `[[A, col], [colᵀ, diag]]`.
    ///
    /// Returns [`NumericError::SingularMatrix`] when the bordered matrix is
    /// not positive definite (Schur complement ≤ 0); the factorization is
    /// unchanged in that case.
    pub fn extend(&mut self, col: &[f64], diag: f64) -> crate::Result<()> {
        let n = self.l.rows();
        if col.len() != n {
            return Err(NumericError::dim(
                "Cholesky::extend",
                format!("column of length {n}"),
                format!("length {}", col.len()),
            ));
        }
        let mut l21 = col.to_vec();
        kernels::forward_solve_in_place(&self.l, &mut l21)?;
        let schur = diag - kernels::dot(&l21, &l21);
        if schur <= 0.0 || !schur.is_finite() {
            return Err(NumericError::SingularMatrix {
                context: "Cholesky::extend (non-positive pivot)",
            });
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            grown.row_mut(i)[..n].copy_from_slice(self.l.row(i));
        }
        grown.row_mut(n)[..n].copy_from_slice(&l21);
        grown[(n, n)] = schur.sqrt();
        self.l = grown;
        Ok(())
    }

    /// Solve against a matrix right-hand side, column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> crate::Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(NumericError::dim(
                "Cholesky::solve_matrix",
                format!("{n} rows"),
                format!("{} rows", b.rows()),
            ));
        }
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            kernels::solve_in_place(&self.l, &mut col)?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// The inverse `A⁻¹` (solve against the identity). Prefer
    /// [`Cholesky::solve`] when only products with the inverse are needed.
    pub fn inverse(&self) -> crate::Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.l.rows()))
    }

    /// Log-determinant of `A`: `2 Σ ln L_ii`. Needed by the GP profile
    /// likelihood.
    pub fn ln_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{for_cases, rng_from_seed};

    /// The original element-indexed implementations, kept as the oracles
    /// the blocked kernels are held to.
    impl Cholesky {
        /// The unblocked scalar factorization — the differential oracle for
        /// [`Cholesky::new`]. Semantics are identical (same pivot test, same
        /// error), only the loop structure differs.
        fn new_unblocked(a: &Matrix) -> crate::Result<Self> {
            if !a.is_square() {
                return Err(NumericError::dim(
                    "Cholesky::new",
                    "square matrix".to_string(),
                    format!("{}x{}", a.rows(), a.cols()),
                ));
            }
            let n = a.rows();
            let mut l = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    let mut sum = a[(i, j)];
                    for k in 0..j {
                        sum -= l[(i, k)] * l[(j, k)];
                    }
                    if i == j {
                        if sum <= 0.0 || !sum.is_finite() {
                            return Err(NumericError::SingularMatrix {
                                context: "Cholesky::new (non-positive pivot)",
                            });
                        }
                        l[(i, j)] = sum.sqrt();
                    } else {
                        l[(i, j)] = sum / l[(j, j)];
                    }
                }
            }
            Ok(Cholesky { l })
        }

        /// The original two-buffer substitution — the differential oracle for
        /// [`Cholesky::solve`].
        fn solve_unblocked(&self, b: &[f64]) -> crate::Result<Vec<f64>> {
            let n = self.l.rows();
            if b.len() != n {
                return Err(NumericError::dim(
                    "Cholesky::solve",
                    format!("rhs of length {n}"),
                    format!("length {}", b.len()),
                ));
            }
            // Forward: L·y = b.
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = b[i];
                for (k, &yk) in y.iter().enumerate().take(i) {
                    sum -= self.l[(i, k)] * yk;
                }
                y[i] = sum / self.l[(i, i)];
            }
            // Backward: Lᵀ·x = y.
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = y[i];
                for (k, &xk) in x.iter().enumerate().take(n).skip(i + 1) {
                    sum -= self.l[(k, i)] * xk;
                }
                x[i] = sum / self.l[(i, i)];
            }
            Ok(x)
        }
    }

    fn spd_test_matrix() -> Matrix {
        // A = Bᵀ·B + I is SPD for any B.
        let b = Matrix::from_vec(3, 3, vec![1.0, 2.0, 0.0, 0.5, 1.0, 3.0, 2.0, 0.0, 1.0]).unwrap();
        &(&b.transpose() * &b) + &Matrix::identity(3)
    }

    #[test]
    fn factor_roundtrip() {
        let a = spd_test_matrix();
        let ch = Cholesky::new(&a).unwrap();
        let recon = &ch.l().clone() * &ch.l().transpose();
        assert!(recon.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn blocked_matches_unblocked_oracle() {
        let a = spd_test_matrix();
        let fast = Cholesky::new(&a).unwrap();
        let oracle = Cholesky::new_unblocked(&a).unwrap();
        assert!(fast.l().max_abs_diff(oracle.l()).unwrap() < 1e-13);
        let b = vec![1.0, -2.0, 0.5];
        let xf = fast.solve(&b).unwrap();
        let xo = oracle.solve_unblocked(&b).unwrap();
        for (f, o) in xf.iter().zip(&xo) {
            assert!((f - o).abs() < 1e-13);
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_test_matrix();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = spd_test_matrix();
        let ch = Cholesky::new(&a).unwrap();
        let b = vec![0.3, 1.0, -4.0];
        let x = ch.solve(&b).unwrap();
        let mut y = b;
        ch.solve_in_place(&mut y).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn extend_matches_from_scratch() {
        // Factor the 3x3 leading principal block of a 4x4 SPD matrix, then
        // border it with the fourth row/column.
        let b = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, 2.0, 0.0, 1.0, 0.5, 1.0, 3.0, -1.0, 2.0, 0.0, 1.0, 0.5, 0.0, 1.0, 1.0, 2.0,
            ],
        )
        .unwrap();
        let a = &(&b.transpose() * &b) + &Matrix::identity(4);
        let mut lead = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                lead[(i, j)] = a[(i, j)];
            }
        }
        let mut ch = Cholesky::new(&lead).unwrap();
        ch.extend(&[a[(0, 3)], a[(1, 3)], a[(2, 3)]], a[(3, 3)])
            .unwrap();
        let full = Cholesky::new(&a).unwrap();
        assert!(ch.l().max_abs_diff(full.l()).unwrap() < 1e-12);
        assert!((ch.ln_det() - full.ln_det()).abs() < 1e-12);
    }

    #[test]
    fn extend_rejects_non_spd_border() {
        let mut ch = Cholesky::new(&Matrix::identity(2)).unwrap();
        // Border with an identical row: singular.
        assert!(matches!(
            ch.extend(&[1.0, 0.0], 1.0),
            Err(NumericError::SingularMatrix { .. })
        ));
        assert_eq!(ch.dim(), 2, "failed extend must leave the factor intact");
        assert!(ch.extend(&[0.5, 0.0], 1.0).is_ok());
        assert_eq!(ch.dim(), 3);
    }

    #[test]
    fn inverse_multiplies_to_identity() {
        let a = spd_test_matrix();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = &a * &inv;
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn ln_det_matches_2x2_closed_form() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]).unwrap();
        let det: f64 = 4.0 * 3.0 - 1.0;
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.ln_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap(); // indefinite
        assert!(matches!(
            Cholesky::new(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
        assert!(matches!(
            Cholesky::new_unblocked(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::new(&a).is_err());
        assert!(Cholesky::new_unblocked(&a).is_err());
        let ch = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_unblocked(&[1.0]).is_err());
        let mut ch = ch;
        assert!(ch.extend(&[1.0], 1.0).is_err());
    }

    #[test]
    fn identity_solve_is_identity() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(ch.solve(&b).unwrap(), b);
        assert_eq!(ch.ln_det(), 0.0);
    }

    /// Random SPD matrix `B·Bᵀ + n·I` with entries seeded deterministically.
    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = rng_from_seed(seed);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.gen::<f64>() * 2.0 - 1.0;
            }
        }
        let mut a = &b * &b.transpose();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
            .fold(0.0, f64::max)
    }

    /// Sizes straddling the BLOCK=64 boundary: sub-block, exactly one block,
    /// and a ragged multi-block tail.
    const ORACLE_SIZES: [usize; 5] = [1, 2, 7, 64, 257];

    #[test]
    fn blocked_cholesky_matches_scalar_oracle_across_sizes() {
        for &n in &ORACLE_SIZES {
            for seed in [3u64, 41] {
                let a = random_spd(n, seed ^ n as u64);
                let blocked = Cholesky::new(&a).expect("SPD");
                let oracle = Cholesky::new_unblocked(&a).expect("SPD");
                let diff = max_rel_diff(blocked.l(), oracle.l());
                assert!(diff <= 1e-12, "n={n} seed={seed}: factor diff {diff:e}");
                let ld = (blocked.ln_det() - oracle.ln_det()).abs() / (1.0 + oracle.ln_det().abs());
                assert!(ld <= 1e-12, "n={n} seed={seed}: ln_det diff {ld:e}");
            }
        }
    }

    #[test]
    fn fused_solve_matches_scalar_oracle_across_sizes() {
        for &n in &ORACLE_SIZES {
            let a = random_spd(n, 977 + n as u64);
            let mut rng = rng_from_seed(n as u64);
            let bvec: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            let ch = Cholesky::new(&a).expect("SPD");
            let fast = ch.solve(&bvec).expect("solve");
            let slow = ch.solve_unblocked(&bvec).expect("solve");
            for (i, (p, q)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    (p - q).abs() <= 1e-12 * (1.0 + q.abs()),
                    "n={n} x[{i}]: {p} vs {q}"
                );
            }
            // And the solve actually solves: A·x ≈ b.
            let ax = a.mul_vec(&fast).unwrap();
            for (p, q) in ax.iter().zip(&bvec) {
                assert!((p - q).abs() < 1e-8, "residual {p} vs {q}");
            }
        }
    }

    /// Blocked factor agrees with the scalar oracle on arbitrary small
    /// SPD matrices (sizes fuzzed around the recursion/panel edges).
    #[test]
    fn blocked_matches_oracle_fuzzed() {
        for_cases(48, |rng| {
            let n = rng.gen_range(1usize..20);
            let seed = rng.gen_range(0u64..500);
            let a = random_spd(n, seed);
            let blocked = Cholesky::new(&a).unwrap();
            let oracle = Cholesky::new_unblocked(&a).unwrap();
            assert!(max_rel_diff(blocked.l(), oracle.l()) <= 1e-12);
        });
    }
}
