//! The lognormal distribution — the paper's example of a classical reduced
//! simulation input ("mean and variance parameters of a lognormal
//! distribution for use in a financial simulation").

use super::special::{std_normal_cdf, std_normal_quantile};
use super::{Continuous, Distribution, Normal};
use crate::rng::Rng;

/// Lognormal distribution: `exp(N(mu, sigma^2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Create from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> crate::Result<Self> {
        Normal::new(mu, sigma)?; // reuse validation
        Ok(LogNormal { mu, sigma })
    }

    /// The location parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::sample_standard(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

impl Continuous for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-z * z / 2.0).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -z * z / 2.0 - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn moments() {
        testutil::check_moments(&LogNormal::new(0.0, 0.5).unwrap(), 60_000, 41);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = LogNormal::new(1.0, 0.3).unwrap();
        let xs: Vec<f64> = (1..=30).map(|i| i as f64 * 0.4).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-6);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 0.3).collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-4);
    }

    #[test]
    fn support_is_positive() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.ln_pdf(-1.0), f64::NEG_INFINITY);
    }
}
