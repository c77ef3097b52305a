//! The gamma distribution, used as a building block (Beta sampling, Bayesian
//! demand priors in the VG-function library) and as a skewed test response
//! in the metamodeling experiments.

use super::special::{ln_gamma, reg_lower_gamma};
use super::{Continuous, Distribution, Normal};
use crate::rng::Rng;
use crate::NumericError;

/// Gamma distribution with shape `k > 0` and scale `theta > 0`
/// (mean `k·θ`, variance `k·θ²`).
///
/// Sampling uses Marsaglia & Tsang's squeeze method for `k ≥ 1` and the
/// standard boost `Gamma(k) = Gamma(k+1) · U^{1/k}` for `k < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Create a gamma distribution with the given shape and scale.
    pub fn new(shape: f64, scale: f64) -> crate::Result<Self> {
        if !shape.is_finite() || shape <= 0.0 {
            return Err(NumericError::invalid(
                "shape",
                format!("shape must be finite and positive, got {shape}"),
            ));
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(NumericError::invalid(
                "scale",
                format!("scale must be finite and positive, got {scale}"),
            ));
        }
        Ok(Gamma { shape, scale })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    fn sample_unit_scale(shape: f64, rng: &mut Rng) -> f64 {
        if shape < 1.0 {
            // Boost: if X ~ Gamma(k+1), U ~ U(0,1), then X·U^{1/k} ~ Gamma(k).
            let x = Self::sample_unit_scale(shape + 1.0, rng);
            let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
            return x * u.powf(1.0 / shape);
        }
        // Marsaglia–Tsang.
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = Normal::sample_standard(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = rng.gen();
            // Squeeze check, then full check.
            if u < 1.0 - 0.0331 * z.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * z * z + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.scale * Self::sample_unit_scale(self.shape, rng)
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else if x == 0.0 {
            // Density at 0 is finite only for k >= 1.
            if self.shape > 1.0 {
                0.0
            } else if self.shape == 1.0 {
                1.0 / self.scale
            } else {
                f64::INFINITY
            }
        } else {
            self.ln_pdf(x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return f64::INFINITY;
        }
        // Bisection on the CDF: robust, and gamma quantiles are not on any
        // hot path in the workspace.
        let (mut lo, mut hi) = (0.0, self.mean() + 10.0 * self.std_dev().max(1.0));
        while self.cdf(hi) < p {
            hi *= 2.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - self.shape * self.scale.ln()
            - ln_gamma(self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(2.0, 3.0).is_ok());
    }

    #[test]
    fn moments_shape_above_one() {
        testutil::check_moments(&Gamma::new(3.0, 2.0).unwrap(), 60_000, 51);
    }

    #[test]
    fn moments_shape_below_one() {
        testutil::check_moments(&Gamma::new(0.5, 1.5).unwrap(), 60_000, 52);
    }

    #[test]
    fn exponential_special_case() {
        // Gamma(1, θ) is Exponential(rate 1/θ).
        let g = Gamma::new(1.0, 2.0).unwrap();
        for &x in &[0.5f64, 1.0, 3.0] {
            let expected = 1.0 - (-x / 2.0).exp();
            assert!((g.cdf(x) - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Gamma::new(2.5, 1.0).unwrap();
        let xs: Vec<f64> = (1..=30).map(|i| i as f64 * 0.3).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-7);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = Gamma::new(4.0, 0.5).unwrap();
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-4);
    }

    #[test]
    fn samples_nonnegative() {
        let d = Gamma::new(0.3, 1.0).unwrap();
        let mut rng = rng_from_seed(8);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }
}
