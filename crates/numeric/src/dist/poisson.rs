//! The Poisson distribution — event counts per time tick in the demand and
//! epidemic models.

use super::Distribution;
use crate::rng::Rng;
use crate::NumericError;

/// Poisson distribution with mean `lambda > 0`.
///
/// Sampling uses Knuth's multiplicative method for small means and, for
/// `λ > 30`, the halving recursion `Poisson(λ) = Poisson(λ/2) + Poisson(λ/2)`
/// until each piece is small. This keeps the implementation exact (no
/// normal approximation) while bounding the cost of the multiplicative loop;
/// the workspace's λ values are modest, so this is never a bottleneck.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create a Poisson distribution with mean `lambda > 0`.
    pub fn new(lambda: f64) -> crate::Result<Self> {
        if !lambda.is_finite() || lambda <= 0.0 {
            return Err(NumericError::invalid(
                "lambda",
                format!("mean must be finite and positive, got {lambda}"),
            ));
        }
        Ok(Poisson { lambda })
    }

    /// Draw a Poisson variate as a `u64` count.
    pub fn sample_count(&self, rng: &mut Rng) -> u64 {
        Self::sample_with_mean(self.lambda, rng)
    }

    fn sample_with_mean(lambda: f64, rng: &mut Rng) -> u64 {
        if lambda > 30.0 {
            // Superposition: sum of independent Poissons is Poisson.
            let half = lambda / 2.0;
            return Self::sample_with_mean(half, rng) + Self::sample_with_mean(half, rng);
        }
        // Knuth: count uniforms until their product drops below e^-λ.
        let l = (-lambda).exp();
        let mut k: u64 = 0;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Probability mass function `P(X = k)`.
    #[cfg(test)]
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Natural log of the pmf.
    #[cfg(test)]
    fn ln_pmf(&self, k: u64) -> f64 {
        let kf = k as f64;
        kf * self.lambda.ln() - self.lambda - super::special::ln_gamma(kf + 1.0)
    }
}

impl Distribution for Poisson {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_count(rng) as f64
    }

    fn mean(&self) -> f64 {
        self.lambda
    }

    fn variance(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-1.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
        assert!(Poisson::new(2.0).is_ok());
    }

    #[test]
    fn moments_small_lambda() {
        testutil::check_moments(&Poisson::new(3.5).unwrap(), 60_000, 71);
    }

    #[test]
    fn moments_large_lambda_uses_halving() {
        testutil::check_moments(&Poisson::new(250.0).unwrap(), 20_000, 72);
    }

    #[test]
    fn pmf_sums_to_one() {
        let d = Poisson::new(4.0).unwrap();
        let total: f64 = (0..60).map(|k| d.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        let d = Poisson::new(2.0).unwrap();
        // P(X=0) = e^-2, P(X=2) = 2 e^-2.
        assert!((d.pmf(0) - (-2.0f64).exp()).abs() < 1e-12);
        assert!((d.pmf(2) - 2.0 * (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn empirical_pmf_matches() {
        let d = Poisson::new(1.5).unwrap();
        let mut rng = rng_from_seed(3);
        let n = 50_000;
        let mut counts = [0usize; 12];
        for _ in 0..n {
            let k = d.sample_count(&mut rng) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        for (k, &c) in counts.iter().enumerate().take(6) {
            let p = d.pmf(k as u64);
            let se = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                ((c as f64 / n as f64) - p).abs() < 5.0 * se,
                "empirical pmf off at k={k}"
            );
        }
    }
}
