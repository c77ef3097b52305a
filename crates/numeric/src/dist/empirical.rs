//! The empirical distribution of an observed sample — resampling from data
//! is how the Monte Carlo database bootstraps uncertain values from history,
//! and how particle filters resample particle populations.

use super::{Continuous, Distribution};
use crate::rng::Rng;
use crate::NumericError;

/// Empirical distribution over an observed sample.
///
/// Sampling draws uniformly from the stored observations (the bootstrap).
/// The CDF is the right-continuous empirical CDF; quantiles use the
/// nearest-rank definition, matching [`crate::stats::quantile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    sorted: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Empirical {
    /// Build an empirical distribution from observations (at least one, all
    /// finite).
    pub fn new(data: &[f64]) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "Empirical::new",
            });
        }
        if data.iter().any(|x| !x.is_finite()) {
            return Err(NumericError::invalid(
                "data",
                "all observations must be finite".to_string(),
            ));
        }
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let variance = if sorted.len() > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Ok(Empirical {
            sorted,
            mean,
            variance,
        })
    }

    /// Number of stored observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no observations are stored (never after construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sorted[rng.gen_range(0..self.sorted.len())]
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }
}

impl Continuous for Empirical {
    fn pdf(&self, _x: f64) -> f64 {
        // The empirical measure has no density; callers needing one should
        // smooth with `crate::kde`. Returning NaN (rather than panicking)
        // lets generic diagnostics skip it.
        f64::NAN
    }

    fn cdf(&self, x: f64) -> f64 {
        // Number of observations <= x, via binary search on the sorted data.
        let n = self.sorted.len();
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / n as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let n = self.sorted.len();
        if p == 0.0 {
            return self.sorted[0];
        }
        // Nearest-rank: smallest x with F(x) >= p.
        let rank = (p * n as f64).ceil() as usize;
        self.sorted[rank.min(n) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[1.0, f64::NAN]).is_err());
        assert!(Empirical::new(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn moments_match_sample() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let d = Empirical::new(&data).unwrap();
        assert!((d.mean() - 2.5).abs() < 1e-15);
        // Sample variance with Bessel correction: 5/3.
        assert!((d.variance() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let d = Empirical::new(&[7.0]).unwrap();
        assert_eq!(d.variance(), 0.0);
        let mut rng = rng_from_seed(1);
        assert_eq!(d.sample(&mut rng), 7.0);
        assert_eq!(d.quantile(0.5), 7.0);
    }

    #[test]
    fn cdf_steps_correctly() {
        let d = Empirical::new(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(1.0), 0.25);
        assert_eq!(d.cdf(2.0), 0.75);
        assert_eq!(d.cdf(2.5), 0.75);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.cdf(99.0), 1.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        let d = Empirical::new(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(0.25), 10.0);
        assert_eq!(d.quantile(0.26), 20.0);
        assert_eq!(d.quantile(0.5), 20.0);
        assert_eq!(d.quantile(1.0), 40.0);
    }

    #[test]
    fn bootstrap_sampling_covers_support() {
        let data = [1.0, 2.0, 3.0];
        let d = Empirical::new(&data).unwrap();
        let mut rng = rng_from_seed(6);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            seen[(x as usize) - 1] = true;
            assert!(data.contains(&x));
        }
        assert!(seen.iter().all(|&s| s), "bootstrap missed an observation");
    }
}
