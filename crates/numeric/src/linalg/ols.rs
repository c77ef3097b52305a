//! Ordinary least squares via the normal equations.
//!
//! Polynomial metamodels (§4.1) are "linear in the β coefficients", so
//! fitting them is OLS on the expanded model matrix. Design matrices in
//! this workspace are small and well conditioned (factorial and Latin
//! hypercube designs are orthogonal or nearly so), so normal equations with
//! a Cholesky solve — plus a tiny ridge fallback for rank-deficient corner
//! cases — is the appropriate tool.

use super::{Cholesky, Matrix};
use crate::NumericError;

/// A fitted least-squares model `y ≈ X·β`.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsFit {
    /// Fitted coefficients `β`.
    pub coefficients: Vec<f64>,
    /// Residuals `y − X·β̂`, in input order.
    pub residuals: Vec<f64>,
    /// Residual sum of squares.
    pub rss: f64,
    /// Coefficient of determination R² (1 when `y` is constant and fitted
    /// exactly; NaN when `y` is constant and not fitted exactly).
    pub r_squared: f64,
}

impl OlsFit {
    /// Predict at a new row of regressors.
    ///
    /// # Panics
    /// Panics if `x` has a different length than the coefficient vector.
    #[cfg(test)]
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "regressor count mismatch");
        x.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum()
    }
}

/// Fit `y ≈ X·β` by ordinary least squares.
///
/// `x` is the `n × p` model matrix (callers include an intercept column
/// themselves if wanted). Requires `n >= p`. If the Gram matrix `XᵀX` is
/// not positive definite (collinear columns), an escalating ridge
/// (`1e-10·I` up to `1e-6·I`) is added *to the already-built Gram matrix*
/// — it is assembled and stored exactly once — and the factorization is
/// retried; if every escalation fails, a [`NumericError::IllConditioned`]
/// diagnostic reports how far the ridge went.
pub fn ols(x: &Matrix, y: &[f64]) -> crate::Result<OlsFit> {
    let n = x.rows();
    let p = x.cols();
    if y.len() != n {
        return Err(NumericError::dim(
            "ols",
            format!("{n} responses"),
            format!("{} responses", y.len()),
        ));
    }
    if n < p {
        return Err(NumericError::invalid(
            "x",
            format!("need at least as many rows ({n}) as parameters ({p})"),
        ));
    }

    let xt = x.transpose();
    let mut gram = &xt * x;
    let xty = xt.mul_vec(y)?;

    // Escalating in-place ridge: each attempt adds only the increment over
    // the ridge already applied, so the Gram product is never rebuilt.
    const RIDGES: [f64; 4] = [0.0, 1e-10, 1e-8, 1e-6];
    let mut applied = 0.0;
    let mut factored = None;
    for &ridge in &RIDGES {
        if ridge > applied {
            let delta = ridge - applied;
            for i in 0..p {
                gram[(i, i)] += delta;
            }
            applied = ridge;
        }
        if let Ok(ch) = Cholesky::new(&gram) {
            factored = Some(ch);
            break;
        }
    }
    let beta = factored
        .ok_or(NumericError::IllConditioned {
            context: "ols (Gram matrix)",
            attempts: RIDGES.len(),
            max_ridge: applied,
        })?
        .solve(&xty)?;

    let fitted = x.mul_vec(&beta)?;
    let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
    let rss: f64 = residuals.iter().map(|r| r * r).sum();
    let mean_y = y.iter().sum::<f64>() / n as f64;
    let tss: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
    let r_squared = if tss > 0.0 {
        1.0 - rss / tss
    } else if rss < 1e-20 {
        1.0
    } else {
        f64::NAN
    };

    Ok(OlsFit {
        coefficients: beta,
        residuals,
        rss,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_matrix_with_intercept(xs: &[f64]) -> Matrix {
        Matrix::from_rows(&xs.iter().map(|&x| vec![1.0, x]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn exact_fit_on_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let fit = ols(&model_matrix_with_intercept(&xs), &ys).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-10);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(&[1.0, 10.0]) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 10.0).collect();
        // Deterministic pseudo-noise.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + 0.1 * ((i * 37 % 11) as f64 - 5.0))
            .collect();
        let fit = ols(&model_matrix_with_intercept(&xs), &ys).unwrap();
        assert!((fit.coefficients[1] - 0.5).abs() < 0.05);
        assert!(fit.r_squared > 0.9);
        assert!(fit.rss > 0.0);
    }

    #[test]
    fn multivariate_fit() {
        // y = 1 + 2a - 3b on a grid.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                rows.push(vec![1.0, a as f64, b as f64]);
                ys.push(1.0 + 2.0 * a as f64 - 3.0 * b as f64);
            }
        }
        let fit = ols(&Matrix::from_rows(&rows).unwrap(), &ys).unwrap();
        assert!((fit.coefficients[0] - 1.0).abs() < 1e-10);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-10);
        assert!((fit.coefficients[2] + 3.0).abs() < 1e-10);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let x = Matrix::zeros(3, 2);
        assert!(ols(&x, &[1.0, 2.0]).is_err()); // wrong y length
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(ols(&x, &[1.0]).is_err()); // n < p
    }

    #[test]
    fn collinear_design_falls_back_to_ridge() {
        // Second column is an exact copy of the first: rank deficient.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let y = [2.0, 4.0, 6.0];
        let fit = ols(&x, &y).unwrap();
        // Any split of the coefficient works; predictions must be right.
        let yhat = fit.predict(&[2.0, 2.0]);
        assert!((yhat - 4.0).abs() < 1e-5);
    }

    #[test]
    fn unrepairable_gram_reports_ill_conditioned() {
        // A non-finite regressor poisons the Gram matrix beyond what any
        // ridge can fix: the typed diagnostic must say how far it tried.
        let x = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![2.0, 1.0]]).unwrap();
        let err = ols(&x, &[1.0, 2.0]).unwrap_err();
        match err {
            NumericError::IllConditioned {
                attempts,
                max_ridge,
                ..
            } => {
                assert_eq!(attempts, 4);
                assert!((max_ridge - 1e-6).abs() < 1e-20);
            }
            other => panic!("expected IllConditioned, got {other:?}"),
        }
    }

    #[test]
    fn constant_response_r2() {
        let x = model_matrix_with_intercept(&[1.0, 2.0, 3.0]);
        let fit = ols(&x, &[5.0, 5.0, 5.0]).unwrap();
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.rss < 1e-20);
    }
}
