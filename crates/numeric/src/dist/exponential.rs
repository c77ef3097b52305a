//! The exponential distribution — the worked example of the paper's §3.1
//! (maximum likelihood and method of moments both give `θ̂ = 1/X̄`).

use super::{Continuous, Distribution};
use crate::rng::Rng;
use crate::NumericError;

/// Exponential distribution with **rate** `theta`, density
/// `f(x; θ) = θ e^{-θx}` for `x ≥ 0` — the exact parametrization of the
/// paper's calibration example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Create an exponential distribution with rate `theta > 0`.
    pub fn new(rate: f64) -> crate::Result<Self> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(NumericError::invalid(
                "rate",
                format!("rate must be finite and positive, got {rate}"),
            ));
        }
        Ok(Exponential { rate })
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // Inversion: -ln(U)/θ. `gen` yields [0,1); flip to (0,1] so the log
        // argument is never zero.
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        -(1.0 - p).ln() / self.rate
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-2.0).is_err());
        assert!(Exponential::new(0.5).is_ok());
    }

    #[test]
    fn moments() {
        testutil::check_moments(&Exponential::new(2.5).unwrap(), 40_000, 21);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Exponential::new(1.5).unwrap();
        let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 0.1).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-9);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = Exponential::new(0.7).unwrap();
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-5);
    }

    #[test]
    fn memorylessness() {
        // P(X > s + t | X > s) = P(X > t), checked via the CDF.
        let d = Exponential::new(1.2).unwrap();
        let (s, t) = (0.8, 1.7);
        let lhs = (1.0 - d.cdf(s + t)) / (1.0 - d.cdf(s));
        let rhs = 1.0 - d.cdf(t);
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn samples_nonnegative() {
        let d = Exponential::new(3.0).unwrap();
        let mut rng = rng_from_seed(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }
}
