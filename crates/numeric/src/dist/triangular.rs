//! The triangular distribution — the standard "expert elicitation" input
//! when only a minimum, mode, and maximum are known; used to encode domain-
//! expert knowledge in example models.

use super::{Continuous, Distribution};
use crate::rng::Rng;
use crate::NumericError;

/// Triangular distribution on `[a, b]` with mode `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    a: f64,
    c: f64,
    b: f64,
}

impl Triangular {
    /// Create a triangular distribution with `a <= c <= b` and `a < b`.
    pub fn new(a: f64, c: f64, b: f64) -> crate::Result<Self> {
        if !(a.is_finite() && b.is_finite() && c.is_finite() && a < b && a <= c && c <= b) {
            return Err(NumericError::invalid(
                "bounds",
                format!("require finite a <= c <= b with a < b, got a={a}, c={c}, b={b}"),
            ));
        }
        Ok(Triangular { a, c, b })
    }

    /// Lower bound.
    pub fn min(&self) -> f64 {
        self.a
    }

    /// Mode.
    pub fn mode(&self) -> f64 {
        self.c
    }

    /// Upper bound.
    pub fn max(&self) -> f64 {
        self.b
    }
}

impl Distribution for Triangular {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.quantile(rng.gen::<f64>())
    }

    fn mean(&self) -> f64 {
        (self.a + self.b + self.c) / 3.0
    }

    fn variance(&self) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        (a * a + b * b + c * c - a * b - a * c - b * c) / 18.0
    }
}

impl Continuous for Triangular {
    fn pdf(&self, x: f64) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        if x < a || x > b {
            0.0
        } else if x < c {
            2.0 * (x - a) / ((b - a) * (c - a))
        } else if x == c {
            2.0 / (b - a)
        } else {
            2.0 * (b - x) / ((b - a) * (b - c))
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        let (a, b, c) = (self.a, self.b, self.c);
        if x <= a {
            0.0
        } else if x >= b {
            1.0
        } else if x <= c {
            (x - a).powi(2) / ((b - a) * (c - a))
        } else {
            1.0 - (b - x).powi(2) / ((b - a) * (b - c))
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        let (a, b, c) = (self.a, self.b, self.c);
        let fc = (c - a) / (b - a);
        if p <= fc {
            a + (p * (b - a) * (c - a)).sqrt()
        } else {
            b - ((1.0 - p) * (b - a) * (b - c)).sqrt()
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
        assert!(Triangular::new(1.0, 0.5, 2.0).is_err()); // c < a
        assert!(Triangular::new(1.0, 3.0, 2.0).is_err()); // c > b
        assert!(Triangular::new(1.0, 1.0, 1.0).is_err()); // a == b
        assert!(Triangular::new(0.0, 1.0, 3.0).is_ok());
        assert!(Triangular::new(0.0, 0.0, 1.0).is_ok()); // mode at edge ok
    }

    #[test]
    fn moments() {
        testutil::check_moments(&Triangular::new(2.0, 5.0, 10.0).unwrap(), 40_000, 91);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Triangular::new(-1.0, 0.5, 2.0).unwrap();
        let xs: Vec<f64> = (1..30).map(|i| -1.0 + i as f64 * 0.1).collect();
        testutil::check_cdf_quantile_roundtrip(&d, &xs, 1e-9);
    }

    #[test]
    fn pdf_matches_cdf_slope() {
        let d = Triangular::new(0.0, 2.0, 10.0).unwrap();
        let xs: Vec<f64> = (1..20)
            .map(|i| i as f64 * 0.5)
            .filter(|&x| (x - 2.0).abs() > 0.1)
            .collect();
        testutil::check_pdf_matches_cdf_slope(&d, &xs, 1e-4);
    }

    #[test]
    fn samples_in_range() {
        let d = Triangular::new(5.0, 6.0, 7.0).unwrap();
        let mut rng = rng_from_seed(4);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((5.0..=7.0).contains(&x));
        }
    }

    #[test]
    fn mode_at_boundary_degenerates_to_right_triangle() {
        let d = Triangular::new(0.0, 0.0, 1.0).unwrap();
        // cdf(x) = 1 - (1-x)^2.
        for &x in &[0.2, 0.5, 0.8] {
            assert!((d.cdf(x) - (1.0 - (1.0 - x) * (1.0 - x))).abs() < 1e-12);
        }
    }
}
