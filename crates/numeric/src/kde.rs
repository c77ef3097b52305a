//! Kernel density estimation.
//!
//! §3.2 of the paper: the sensor-aware particle-filter proposal of Xue & Hu
//! \[57\] needs analytical expressions for `p_n(x | x̄)` and `q_n(x | y, x̄)`;
//! these are unavailable in closed form, so `M` auxiliary samples are drawn
//! and the densities are estimated with "a standard kernel density
//! estimator": `f̂(x) = (Mh)⁻¹ Σ K((x − x_i)/h)`. The paper names the
//! kernel requirements (non-negative, symmetric, `K(0) > 0`, non-increasing
//! in `|x|`) and gives `K(x) = e^{−|x|}` as the example; all three kernels
//! here satisfy them.

use crate::NumericError;

/// Kernel functions for density estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The standard normal density (normalized).
    Gaussian,
    /// `K(x) = ½·e^{−|x|}` — the paper's example kernel, normalized.
    Laplacian,
    /// `K(x) = ¾(1 − x²)` on `[−1, 1]` — compactly supported.
    Epanechnikov,
}

impl Kernel {
    /// Evaluate the (normalized) kernel at `x`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        match self {
            Kernel::Gaussian => (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt(),
            Kernel::Laplacian => 0.5 * (-x.abs()).exp(),
            Kernel::Epanechnikov => {
                if x.abs() <= 1.0 {
                    0.75 * (1.0 - x * x)
                } else {
                    0.0
                }
            }
        }
    }
}

/// Bandwidth selection rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bandwidth {
    /// Silverman's rule of thumb: `0.9·min(s, IQR/1.34)·n^{−1/5}`.
    Silverman,
    /// Scott's rule: `1.06·s·n^{−1/5}`.
    Scott,
    /// A fixed, caller-chosen bandwidth (must be positive).
    Fixed(f64),
}

/// A univariate kernel density estimate over a stored sample.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDensity {
    data: Vec<f64>,
    kernel: Kernel,
    bandwidth: f64,
}

impl KernelDensity {
    /// Build a KDE from observations (at least one, all finite).
    pub fn new(data: &[f64], kernel: Kernel, bandwidth: Bandwidth) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "KernelDensity::new",
            });
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(NumericError::invalid(
                "data",
                "all observations must be finite".to_string(),
            ));
        }
        let h = match bandwidth {
            Bandwidth::Fixed(h) => {
                if !(h.is_finite() && h > 0.0) {
                    return Err(NumericError::invalid(
                        "bandwidth",
                        format!("fixed bandwidth must be positive, got {h}"),
                    ));
                }
                h
            }
            Bandwidth::Silverman => silverman_bandwidth(data),
            Bandwidth::Scott => scott_bandwidth(data),
        };
        Ok(KernelDensity {
            data: data.to_vec(),
            kernel,
            bandwidth: h,
        })
    }

    /// Evaluate the density estimate `f̂(x)`.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        let (m, h) = (self.data.len() as f64, self.bandwidth);
        self.data
            .iter()
            .map(|&xi| self.kernel.eval((x - xi) / h))
            .sum::<f64>()
            / (m * h)
    }

    /// Natural log of the density estimate, flooring at a tiny positive
    /// value so particle-filter weight ratios never divide by exactly zero.
    pub fn ln_eval(&self, x: f64) -> f64 {
        self.eval(x).max(1e-300).ln()
    }
}

fn sample_std(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    if data.len() < 2 {
        return 0.0;
    }
    (data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
}

fn iqr(data: &[f64]) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| {
        let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    };
    q(0.75) - q(0.25)
}

/// Silverman's rule-of-thumb bandwidth; falls back to a nominal 1.0 when the
/// data are degenerate (zero spread).
fn silverman_bandwidth(data: &[f64]) -> f64 {
    let s = sample_std(data);
    let r = iqr(data) / 1.34;
    let spread = match (s > 0.0, r > 0.0) {
        (true, true) => s.min(r),
        (true, false) => s,
        (false, true) => r,
        (false, false) => return 1.0,
    };
    0.9 * spread * (data.len() as f64).powf(-0.2)
}

/// Scott's rule bandwidth; falls back to 1.0 for zero-spread data.
fn scott_bandwidth(data: &[f64]) -> f64 {
    let s = sample_std(data);
    if s <= 0.0 {
        return 1.0;
    }
    1.06 * s * (data.len() as f64).powf(-0.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Continuous, Distribution, Normal};
    use crate::rng::rng_from_seed;

    #[test]
    fn kernels_are_normalized_symmetric_peaked() {
        for k in [Kernel::Gaussian, Kernel::Laplacian, Kernel::Epanechnikov] {
            // Symmetry and peak.
            assert!(k.eval(0.0) > 0.0, "{k:?} violates K(0) > 0");
            for &x in &[0.3, 1.0, 2.5] {
                assert!((k.eval(x) - k.eval(-x)).abs() < 1e-15, "{k:?} asymmetric");
                assert!(k.eval(x) <= k.eval(0.0) + 1e-15, "{k:?} not peaked at 0");
            }
            // Numerical integral ≈ 1.
            let dx = 0.001;
            let total: f64 = (-20_000..20_000).map(|i| k.eval(i as f64 * dx) * dx).sum();
            assert!((total - 1.0).abs() < 1e-3, "{k:?} integrates to {total}");
        }
    }

    #[test]
    fn kernel_monotone_in_abs_x() {
        for k in [Kernel::Gaussian, Kernel::Laplacian, Kernel::Epanechnikov] {
            let mut prev = k.eval(0.0);
            for i in 1..40 {
                let v = k.eval(i as f64 * 0.1);
                assert!(v <= prev + 1e-15, "{k:?} not non-increasing");
                prev = v;
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(KernelDensity::new(&[], Kernel::Gaussian, Bandwidth::Silverman).is_err());
        assert!(KernelDensity::new(&[f64::NAN], Kernel::Gaussian, Bandwidth::Silverman).is_err());
        assert!(KernelDensity::new(&[1.0], Kernel::Gaussian, Bandwidth::Fixed(0.0)).is_err());
        assert!(KernelDensity::new(&[1.0], Kernel::Gaussian, Bandwidth::Fixed(-1.0)).is_err());
    }

    #[test]
    fn kde_recovers_normal_density() {
        let d = Normal::new(2.0, 1.0).unwrap();
        let mut rng = rng_from_seed(77);
        let data = d.sample_n(&mut rng, 5000);
        let kde = KernelDensity::new(&data, Kernel::Gaussian, Bandwidth::Silverman).unwrap();
        for &x in &[0.5, 1.0, 2.0, 3.0, 3.5] {
            let est = kde.eval(x);
            let truth = d.pdf(x);
            assert!(
                (est - truth).abs() < 0.05,
                "KDE at {x}: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn laplacian_kernel_kde_also_recovers_density() {
        let d = Normal::standard();
        let mut rng = rng_from_seed(78);
        let data = d.sample_n(&mut rng, 5000);
        let kde = KernelDensity::new(&data, Kernel::Laplacian, Bandwidth::Scott).unwrap();
        assert!((kde.eval(0.0) - d.pdf(0.0)).abs() < 0.06);
    }

    #[test]
    fn bandwidth_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..10_000).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&large) < silverman_bandwidth(&small));
        assert!(scott_bandwidth(&large) < scott_bandwidth(&small));
    }

    #[test]
    fn degenerate_data_falls_back() {
        let data = vec![3.0; 50];
        assert_eq!(silverman_bandwidth(&data), 1.0);
        assert_eq!(scott_bandwidth(&data), 1.0);
        // KDE on degenerate data still evaluates finitely.
        let kde = KernelDensity::new(&data, Kernel::Gaussian, Bandwidth::Silverman).unwrap();
        assert!(kde.eval(3.0).is_finite());
        assert!(kde.ln_eval(1e6).is_finite(), "ln_eval must never be -inf");
    }

    #[test]
    fn ln_eval_floors_at_tiny_value() {
        let kde = KernelDensity::new(&[0.0], Kernel::Epanechnikov, Bandwidth::Fixed(1.0)).unwrap();
        // Outside compact support, the density is exactly 0; ln must floor.
        assert!(kde.eval(10.0) == 0.0);
        assert!(kde.ln_eval(10.0).is_finite());
    }
}
