//! The beta distribution, used for bounded uncertain quantities (adoption
//! probabilities in the consumer-market ABS, mixing confidences in the
//! sensor-aware particle-filter proposal).

use super::special::{ln_gamma, reg_inc_beta};
use super::{Continuous, Distribution, Gamma};
use crate::rng::Rng;
use crate::NumericError;

/// Beta distribution on `[0, 1]` with shape parameters `a, b > 0`.
///
/// Sampling uses the classic two-gamma construction
/// `X = G_a / (G_a + G_b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: f64,
    b: f64,
    ga: Gamma,
    gb: Gamma,
}

impl Beta {
    /// Create a beta distribution with shapes `a, b > 0`.
    pub fn new(a: f64, b: f64) -> crate::Result<Self> {
        if !a.is_finite() || a <= 0.0 || !b.is_finite() || b <= 0.0 {
            return Err(NumericError::invalid(
                "shape",
                format!("beta shapes must be finite and positive, got a={a}, b={b}"),
            ));
        }
        Ok(Beta {
            a,
            b,
            ga: Gamma::new(a, 1.0)?,
            gb: Gamma::new(b, 1.0)?,
        })
    }
}

impl Distribution for Beta {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let x = self.ga.sample(rng);
        let y = self.gb.sample(rng);
        x / (x + y)
    }

    fn mean(&self) -> f64 {
        self.a / (self.a + self.b)
    }

    fn variance(&self) -> f64 {
        let s = self.a + self.b;
        self.a * self.b / (s * s * (s + 1.0))
    }
}

impl Continuous for Beta {
    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        if x == 0.0 {
            // f(0) = 0 for a > 1, +inf for a < 1, and b for a == 1
            // (since f(x; 1, b) = b (1-x)^{b-1}).
            return match self.a.partial_cmp(&1.0).expect("validated finite") {
                std::cmp::Ordering::Greater => 0.0,
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => self.b,
            };
        }
        if x == 1.0 {
            return match self.b.partial_cmp(&1.0).expect("validated finite") {
                std::cmp::Ordering::Greater => 0.0,
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => self.a,
            };
        }
        self.ln_pdf(x).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            reg_inc_beta(self.a, self.b, x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0, 1.0);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) || x == 0.0 || x == 1.0 {
            return f64::NEG_INFINITY;
        }
        (self.a - 1.0) * x.ln() + (self.b - 1.0) * (1.0 - x).ln() + ln_gamma(self.a + self.b)
            - ln_gamma(self.a)
            - ln_gamma(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, -1.0).is_err());
        assert!(Beta::new(2.0, 5.0).is_ok());
    }

    #[test]
    fn moments() {
        testutil::check_moments(&Beta::new(2.0, 5.0).unwrap(), 60_000, 61);
        testutil::check_moments(&Beta::new(0.5, 0.5).unwrap(), 60_000, 62);
    }

    #[test]
    fn uniform_special_case() {
        // Beta(1,1) is U(0,1).
        let d = Beta::new(1.0, 1.0).unwrap();
        for &x in &[0.2, 0.5, 0.9] {
            assert!((d.cdf(x) - x).abs() < 1e-10);
            assert!((d.pdf(x) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn samples_in_unit_interval() {
        let d = Beta::new(0.7, 3.0).unwrap();
        let mut rng = rng_from_seed(13);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Beta::new(2.0, 3.0).unwrap();
        let xs: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-7);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = Beta::new(3.0, 2.0).unwrap();
        let xs: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-4);
    }
}
