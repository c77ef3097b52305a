//! Natural cubic spline interpolation and its tridiagonal linear system.
//!
//! §2.2 of the paper: for a source series `⟨(s_j, d_j)⟩`, the interpolated
//! value at a target time `t ∈ [s_j, s_{j+1})` is
//!
//! ```text
//! d̃ = σ_j/(6h_j)·(s_{j+1}−t)³ + σ_{j+1}/(6h_j)·(t−s_j)³
//!   + (d_{j+1}/h_j − σ_{j+1}h_j/6)·(t−s_j) + (d_j/h_j − σ_j h_j/6)·(s_{j+1}−t)
//! ```
//!
//! where `h_j = s_{j+1} − s_j` and the *spline constants* `σ_0, …, σ_m`
//! "depend on the entire input dataset and are computed as the solution to
//! \[a\] linear equation system … where A is an (m−1)×(m−1) tridiagonal
//! matrix". For massive `m` that system is the challenge the DSGD approach
//! (see [`crate::dsgd`]) addresses; here we build the system and provide
//! the exact Thomas-algorithm baseline.

use crate::HarmonizeError;
use mde_numeric::linalg::Tridiagonal;

/// The tridiagonal system `A·σ_interior = b` for the interior spline
/// constants of a natural cubic spline (boundary constants are zero).
#[derive(Debug, Clone, PartialEq)]
pub struct SplineSystem {
    /// The `(m−1)×(m−1)` tridiagonal matrix `A`.
    pub a: Tridiagonal,
    /// The right-hand side `b`.
    pub b: Vec<f64>,
}

/// Build the natural-spline system from knots `(s, d)`.
///
/// Row `j` (for interior knot `j+1`) reads
/// `h_j·σ_j + 2(h_j + h_{j+1})·σ_{j+1} + h_{j+1}·σ_{j+2}
///  = 6[(d_{j+2}−d_{j+1})/h_{j+1} − (d_{j+1}−d_j)/h_j]`.
pub fn build_spline_system(s: &[f64], d: &[f64]) -> crate::Result<SplineSystem> {
    if s.len() != d.len() {
        return Err(HarmonizeError::series(format!(
            "{} knot times but {} values",
            s.len(),
            d.len()
        )));
    }
    let m = s
        .len()
        .checked_sub(1)
        .filter(|&m| m >= 2)
        .ok_or_else(|| HarmonizeError::series("cubic spline needs at least 3 knots"))?;
    for w in s.windows(2) {
        if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
            return Err(HarmonizeError::series(
                "knot times must be strictly increasing",
            ));
        }
    }
    let h: Vec<f64> = s.windows(2).map(|w| w[1] - w[0]).collect();
    let n = m - 1; // interior unknowns
    let mut diag = Vec::with_capacity(n);
    let mut sub = Vec::with_capacity(n.saturating_sub(1));
    let mut sup = Vec::with_capacity(n.saturating_sub(1));
    let mut b = Vec::with_capacity(n);
    for j in 0..n {
        diag.push(2.0 * (h[j] + h[j + 1]));
        if j + 1 < n {
            sup.push(h[j + 1]);
            sub.push(h[j + 1]);
        }
        b.push(6.0 * ((d[j + 2] - d[j + 1]) / h[j + 1] - (d[j + 1] - d[j]) / h[j]));
    }
    Ok(SplineSystem {
        a: Tridiagonal::new(sub, diag, sup)?,
        b,
    })
}

/// A fitted natural cubic spline.
#[derive(Debug, Clone, PartialEq)]
pub struct NaturalCubicSpline {
    s: Vec<f64>,
    d: Vec<f64>,
    /// All m+1 spline constants, including the zero boundary values.
    sigma: Vec<f64>,
}

impl NaturalCubicSpline {
    /// Fit exactly by solving the tridiagonal system with the Thomas
    /// algorithm — O(m), the single-node baseline of the paper's DSGD
    /// comparison.
    pub fn fit(s: &[f64], d: &[f64]) -> crate::Result<Self> {
        let sys = build_spline_system(s, d)?;
        let interior = sys.a.solve(&sys.b)?;
        Ok(Self::from_interior_sigmas(s, d, &interior))
    }

    /// Assemble a spline from externally computed interior constants (e.g.
    /// a DSGD solution). Boundary constants are set to zero (the natural
    /// conditions).
    fn from_interior_sigmas(s: &[f64], d: &[f64], interior: &[f64]) -> Self {
        let mut sigma = Vec::with_capacity(s.len());
        sigma.push(0.0);
        sigma.extend_from_slice(interior);
        sigma.push(0.0);
        NaturalCubicSpline {
            s: s.to_vec(),
            d: d.to_vec(),
            sigma,
        }
    }

    /// The spline constants `σ_0, …, σ_m`.
    #[cfg(test)]
    fn sigmas(&self) -> &[f64] {
        &self.sigma
    }

    /// Evaluate at `t` using the paper's interpolation formula.
    /// Extrapolates linearly outside the knot range (σ = 0 at the ends).
    pub fn eval(&self, t: f64) -> f64 {
        let m = self.s.len() - 1;
        // Clamp to the boundary windows for extrapolation.
        let j = match self.s.partition_point(|&x| x <= t) {
            0 => 0,
            p => (p - 1).min(m - 1),
        };
        let (sj, sj1) = (self.s[j], self.s[j + 1]);
        let (dj, dj1) = (self.d[j], self.d[j + 1]);
        let (gj, gj1) = (self.sigma[j], self.sigma[j + 1]);
        let h = sj1 - sj;
        gj / (6.0 * h) * (sj1 - t).powi(3)
            + gj1 / (6.0 * h) * (t - sj).powi(3)
            + (dj1 / h - gj1 * h / 6.0) * (t - sj)
            + (dj / h - gj * h / 6.0) * (sj1 - t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knots() -> (Vec<f64>, Vec<f64>) {
        let s: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        let d: Vec<f64> = s.iter().map(|&x| (x * 0.7).sin() * 3.0 + x).collect();
        (s, d)
    }

    #[test]
    fn system_shape() {
        let (s, d) = knots();
        let sys = build_spline_system(&s, &d).unwrap();
        assert_eq!(sys.a.n(), 9); // (m-1) with m = 10
        assert_eq!(sys.b.len(), 9);
    }

    #[test]
    fn validation() {
        assert!(build_spline_system(&[0.0, 1.0], &[0.0, 1.0]).is_err()); // too few
        assert!(build_spline_system(&[0.0, 1.0, 1.0], &[0.0; 3]).is_err()); // not increasing
        assert!(build_spline_system(&[0.0, 1.0, 2.0], &[0.0; 2]).is_err()); // length mismatch
    }

    #[test]
    fn interpolates_knots_exactly() {
        let (s, d) = knots();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        for (si, di) in s.iter().zip(&d) {
            assert!(
                (sp.eval(*si) - di).abs() < 1e-10,
                "knot ({si}, {di}) missed: {}",
                sp.eval(*si)
            );
        }
    }

    #[test]
    fn boundary_sigmas_are_zero() {
        let (s, d) = knots();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        assert_eq!(sp.sigmas()[0], 0.0);
        assert_eq!(*sp.sigmas().last().unwrap(), 0.0);
        assert_eq!(sp.sigmas().len(), s.len());
    }

    #[test]
    fn reproduces_smooth_function_between_knots() {
        // Spline through sin samples should track sin closely mid-interval.
        let s: Vec<f64> = (0..=20).map(|i| i as f64 * 0.3).collect();
        let d: Vec<f64> = s.iter().map(|&x| x.sin()).collect();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        for i in 0..60 {
            let t = 0.05 + i as f64 * 0.09;
            assert!(
                (sp.eval(t) - t.sin()).abs() < 5e-3,
                "at t={t}: {} vs {}",
                sp.eval(t),
                t.sin()
            );
        }
    }

    #[test]
    fn linear_data_gives_linear_spline() {
        // For d = 2s + 1 all second derivatives vanish: σ ≡ 0, and the
        // spline is the line itself everywhere (including extrapolation).
        let s: Vec<f64> = (0..=5).map(|i| i as f64).collect();
        let d: Vec<f64> = s.iter().map(|&x| 2.0 * x + 1.0).collect();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        assert!(sp.sigmas().iter().all(|g| g.abs() < 1e-10));
        for &t in &[-1.0, 0.5, 2.25, 4.99, 7.0] {
            assert!((sp.eval(t) - (2.0 * t + 1.0)).abs() < 1e-9, "at {t}");
        }
    }

    #[test]
    fn irregular_knot_spacing() {
        let s = vec![0.0, 0.1, 1.0, 1.5, 4.0, 4.2];
        let d: Vec<f64> = s.iter().map(|&x| x * x).collect();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        for (si, di) in s.iter().zip(&d) {
            assert!((sp.eval(*si) - di).abs() < 1e-9);
        }
        // Midpoints approximate x^2 loosely (natural BCs bend the ends).
        assert!((sp.eval(1.25) - 1.5625).abs() < 0.2);
    }

    #[test]
    fn from_interior_sigmas_matches_fit() {
        let (s, d) = knots();
        let sys = build_spline_system(&s, &d).unwrap();
        let interior = sys.a.solve(&sys.b).unwrap();
        let a = NaturalCubicSpline::fit(&s, &d).unwrap();
        let b = NaturalCubicSpline::from_interior_sigmas(&s, &d, &interior);
        assert_eq!(a, b);
    }
}
