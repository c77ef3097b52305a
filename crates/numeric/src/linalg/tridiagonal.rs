//! Tridiagonal systems and the Thomas algorithm.
//!
//! The natural cubic spline of §2.2 requires solving `A·σ = b` where `A` is
//! an `(m−1)×(m−1)` tridiagonal matrix. The paper's point is that for huge
//! `m` this system is hard to solve in a shared-nothing environment — which
//! is why Splash uses DSGD instead. The *exact* Thomas solver here is the
//! single-node baseline that the DSGD experiments (`mde-harmonize`)
//! validate against: O(m) time, O(m) memory, numerically stable for the
//! diagonally dominant spline systems.

use crate::NumericError;

/// A tridiagonal matrix stored as three diagonals.
///
/// Row `i` of the matrix is `[.., sub[i-1], diag[i], sup[i], ..]`; `sub` has
/// length `n-1`, `diag` length `n`, `sup` length `n-1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    sub: Vec<f64>,
    diag: Vec<f64>,
    sup: Vec<f64>,
}

impl Tridiagonal {
    /// Create from the three diagonals. `sub` and `sup` must be exactly one
    /// shorter than `diag`.
    pub fn new(sub: Vec<f64>, diag: Vec<f64>, sup: Vec<f64>) -> crate::Result<Self> {
        if diag.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "Tridiagonal::new",
            });
        }
        if sub.len() + 1 != diag.len() || sup.len() + 1 != diag.len() {
            return Err(NumericError::dim(
                "Tridiagonal::new",
                format!("sub/sup of length {}", diag.len() - 1),
                format!("sub {}, sup {}", sub.len(), sup.len()),
            ));
        }
        Ok(Tridiagonal { sub, diag, sup })
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.diag.len()
    }

    /// Sub-diagonal (below the main diagonal).
    pub fn sub(&self) -> &[f64] {
        &self.sub
    }

    /// Main diagonal.
    pub fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// Super-diagonal (above the main diagonal).
    pub fn sup(&self) -> &[f64] {
        &self.sup
    }

    /// Matrix–vector product `A·x`.
    pub fn mul_vec(&self, x: &[f64]) -> crate::Result<Vec<f64>> {
        let n = self.n();
        if x.len() != n {
            return Err(NumericError::dim(
                "Tridiagonal::mul_vec",
                format!("vector of length {n}"),
                format!("length {}", x.len()),
            ));
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = self.diag[i] * x[i];
            if i > 0 {
                v += self.sub[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                v += self.sup[i] * x[i + 1];
            }
            y[i] = v;
        }
        Ok(y)
    }

    /// Residual 2-norm `‖A·x − b‖₂`.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> crate::Result<f64> {
        let ax = self.mul_vec(x)?;
        if b.len() != ax.len() {
            return Err(NumericError::dim(
                "Tridiagonal::residual_norm",
                format!("rhs of length {}", ax.len()),
                format!("length {}", b.len()),
            ));
        }
        Ok(ax
            .iter()
            .zip(b)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// Solve `A·x = b` by the Thomas algorithm (no pivoting — valid for the
    /// diagonally dominant systems produced by spline construction).
    pub fn solve(&self, b: &[f64]) -> crate::Result<Vec<f64>> {
        let (sub, diag, sup) = (&self.sub, &self.diag, &self.sup);
        let n = diag.len();
        if b.len() != n {
            return Err(NumericError::dim(
                "Tridiagonal::solve",
                format!("rhs of length {n}"),
                format!("length {}", b.len()),
            ));
        }

        // Forward sweep.
        let mut c_prime = vec![0.0; n - 1];
        let mut d_prime = vec![0.0; n];
        let mut denom = diag[0];
        if denom.abs() < 1e-300 {
            return Err(NumericError::SingularMatrix {
                context: "Tridiagonal::solve (zero pivot)",
            });
        }
        if n > 1 {
            c_prime[0] = sup[0] / denom;
        }
        d_prime[0] = b[0] / denom;
        for i in 1..n {
            denom = diag[i] - sub[i - 1] * c_prime[i - 1];
            if denom.abs() < 1e-300 {
                return Err(NumericError::SingularMatrix {
                    context: "Tridiagonal::solve (zero pivot)",
                });
            }
            if i < n - 1 {
                c_prime[i] = sup[i] / denom;
            }
            d_prime[i] = (b[i] - sub[i - 1] * d_prime[i - 1]) / denom;
        }

        // Back substitution.
        let mut x = d_prime;
        for i in (0..n - 1).rev() {
            let next = x[i + 1];
            x[i] -= c_prime[i] * next;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_lengths() {
        assert!(Tridiagonal::new(vec![], vec![], vec![]).is_err());
        assert!(Tridiagonal::new(vec![1.0], vec![1.0], vec![]).is_err());
        assert!(Tridiagonal::new(vec![1.0], vec![2.0, 2.0], vec![1.0]).is_ok());
    }

    #[test]
    fn solve_1x1() {
        let t = Tridiagonal::new(vec![], vec![4.0], vec![]).unwrap();
        let x = t.solve(&[8.0]).unwrap();
        assert_eq!(x, vec![2.0]);
    }

    #[test]
    fn solve_recovers_a_known_solution() {
        // Spline-like diagonally dominant system with a chosen solution.
        let n = 20;
        let sub = vec![1.0; n - 1];
        let diag = vec![4.0; n];
        let sup = vec![1.0; n - 1];
        let t = Tridiagonal::new(sub, diag, sup).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = t.mul_vec(&x_true).unwrap();

        let x = t.solve(&b).unwrap();
        for (a, c) in x.iter().zip(&x_true) {
            assert!((a - c).abs() < 1e-10);
        }
        assert!(t.residual_norm(&x, &b).unwrap() < 1e-10);
    }

    #[test]
    fn solve_nonuniform_diagonals() {
        let t = Tridiagonal::new(
            vec![0.5, 1.5, -1.0],
            vec![3.0, 4.0, 5.0, 6.0],
            vec![1.0, -0.5, 2.0],
        )
        .unwrap();
        let x_true = vec![1.0, -1.0, 2.0, 0.5];
        let b = t.mul_vec(&x_true).unwrap();
        let x = t.solve(&b).unwrap();
        for (a, c) in x.iter().zip(&x_true) {
            assert!((a - c).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_mismatched_rhs() {
        let t = Tridiagonal::new(vec![1.0], vec![2.0, 2.0], vec![1.0]).unwrap();
        assert!(t.solve(&[1.0]).is_err());
        assert!(t.mul_vec(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn detects_zero_pivot() {
        // diag[0] = 0 forces an immediate zero pivot (Thomas has no
        // pivoting).
        let t = Tridiagonal::new(vec![1.0], vec![0.0, 1.0], vec![1.0]).unwrap();
        let r = t.solve(&[1.0, 1.0]);
        assert!(matches!(r, Err(NumericError::SingularMatrix { .. })));
    }

    #[test]
    fn large_system_stays_accurate() {
        let n = 10_000;
        let t = Tridiagonal::new(vec![1.0; n - 1], vec![4.0; n], vec![1.0; n - 1]).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 31 % 97) as f64) / 97.0).collect();
        let b = t.mul_vec(&x_true).unwrap();
        let x = t.solve(&b).unwrap();
        let max_err = x
            .iter()
            .zip(&x_true)
            .map(|(a, c)| (a - c).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-10, "max error {max_err}");
    }
}
