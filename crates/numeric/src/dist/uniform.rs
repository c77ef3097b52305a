//! The continuous uniform distribution.

use super::{Continuous, Distribution};
use crate::rng::Rng;
use crate::NumericError;

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[lo, hi)` with `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> crate::Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(NumericError::invalid(
                "bounds",
                format!("require finite lo < hi, got [{lo}, {hi})"),
            ));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.gen::<f64>()
    }

    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

impl Continuous for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x < self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.lo + p * (self.hi - self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_bounds() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
        assert!(Uniform::new(-1.0, 1.0).is_ok());
    }

    #[test]
    fn moments() {
        testutil::check_moments(&Uniform::new(-2.0, 6.0).unwrap(), 40_000, 31);
    }

    #[test]
    fn samples_in_range() {
        let d = Uniform::new(3.0, 4.0).unwrap();
        let mut rng = rng_from_seed(9);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((3.0..4.0).contains(&x));
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let xs: Vec<f64> = (0..=20).map(|i| 10.0 + i as f64 * 0.5).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-12);
    }
}
