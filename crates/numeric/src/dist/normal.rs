//! The normal (Gaussian) distribution.

use super::special::{std_normal_cdf, std_normal_quantile};
use super::{Continuous, Distribution};
use crate::rng::Rng;
use crate::NumericError;

/// Normal distribution `N(mu, sigma^2)`.
///
/// Sampling uses the Marsaglia polar variant of Box–Muller (no trig calls,
/// and only one uniform pair per two variates on average); a cached spare
/// value is *not* kept so that sampling is a pure function of the RNG state,
/// which keeps Monte Carlo replicate and particle-filter replays reproducible.
///
/// ```
/// use mde_numeric::dist::{Normal, Distribution, Continuous};
/// let n = Normal::new(120.0, 15.0).unwrap();
/// assert_eq!(n.mean(), 120.0);
/// assert!((n.cdf(120.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Create a normal distribution with mean `mu` and standard deviation
    /// `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> crate::Result<Self> {
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(NumericError::invalid(
                "sigma",
                format!("standard deviation must be finite and positive, got {sigma}"),
            ));
        }
        if !mu.is_finite() {
            return Err(NumericError::invalid(
                "mu",
                format!("mean must be finite, got {mu}"),
            ));
        }
        Ok(Normal { mu, sigma })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Normal {
            mu: 0.0,
            sigma: 1.0,
        }
    }

    /// Draw a standard normal variate from `rng`.
    pub fn sample_standard(rng: &mut Rng) -> f64 {
        // Marsaglia polar method; rejection loop accepts with prob π/4.
        loop {
            let u: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let v: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mu + self.sigma * Self::sample_standard(rng)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-z * z / 2.0).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * std_normal_quantile(p)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -z * z / 2.0 - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(3.0, 2.0).is_ok());
    }

    #[test]
    fn moments() {
        testutil::check_moments(&Normal::new(5.0, 2.0).unwrap(), 40_000, 11);
        testutil::check_moments(&Normal::standard(), 40_000, 12);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Normal::new(-3.0, 0.5).unwrap();
        let xs: Vec<f64> = (-20..=20).map(|i| -3.0 + i as f64 * 0.1).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-6);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = Normal::new(1.0, 2.0).unwrap();
        let xs: Vec<f64> = (-10..=10).map(|i| 1.0 + i as f64 * 0.5).collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-4);
    }

    #[test]
    fn ln_pdf_stable_in_tails() {
        let d = Normal::standard();
        // pdf underflows at |x| ~ 39; ln_pdf must not.
        let lp = d.ln_pdf(50.0);
        assert!((lp - (-50.0 * 50.0 / 2.0 - 0.5 * (2.0 * std::f64::consts::PI).ln())).abs() < 1e-9);
        assert_eq!(d.pdf(50.0), 0.0); // demonstrates why the override exists
    }

    #[test]
    fn within_one_sigma_probability() {
        let d = Normal::new(10.0, 3.0).unwrap();
        let p = d.cdf(13.0) - d.cdf(7.0);
        assert!((p - 0.682_689_492_137).abs() < 1e-6);
    }
}
