//! Bernoulli and categorical (finite discrete) distributions.
//!
//! The categorical sampler uses Walker/Vose alias tables so that ABS models
//! drawing per-agent choices (lane changes, product choices, behavioral
//! states) pay O(1) per draw regardless of the number of categories.

use super::Distribution;
use crate::rng::Rng;
use crate::NumericError;

/// Bernoulli distribution: `1` with probability `p`, else `0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Create a Bernoulli distribution with success probability `p ∈ [0,1]`.
    pub fn new(p: f64) -> crate::Result<Self> {
        if !(0.0..=1.0).contains(&p) {
            return Err(NumericError::invalid(
                "p",
                format!("probability must be in [0,1], got {p}"),
            ));
        }
        Ok(Bernoulli { p })
    }

    /// Draw a boolean outcome.
    pub fn sample_bool(&self, rng: &mut Rng) -> bool {
        rng.gen::<f64>() < self.p
    }
}

impl Distribution for Bernoulli {
    fn sample(&self, rng: &mut Rng) -> f64 {
        if self.sample_bool(rng) {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.p
    }

    fn variance(&self) -> f64 {
        self.p * (1.0 - self.p)
    }
}

/// Categorical distribution over `{0, 1, ..., k-1}` with given weights,
/// sampled in O(1) via a Walker/Vose alias table.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    probs: Vec<f64>,
    // Alias method tables.
    prob_table: Vec<f64>,
    alias_table: Vec<usize>,
}

impl Categorical {
    /// Create a categorical distribution from non-negative weights (not
    /// necessarily normalized). At least one weight must be positive.
    pub fn new(weights: &[f64]) -> crate::Result<Self> {
        if weights.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "Categorical::new",
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(NumericError::invalid(
                "weights",
                "all weights must be finite and non-negative".to_string(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(NumericError::invalid(
                "weights",
                "at least one weight must be positive".to_string(),
            ));
        }
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Build alias tables (Vose's stable construction).
        let k = probs.len();
        let mut prob_table = vec![0.0; k];
        let mut alias_table = vec![0usize; k];
        let mut small = Vec::with_capacity(k);
        let mut large = Vec::with_capacity(k);
        let mut scaled: Vec<f64> = probs.iter().map(|p| p * k as f64).collect();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob_table[s] = scaled[s];
            alias_table[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob_table[i] = 1.0;
        }

        Ok(Categorical {
            probs,
            prob_table,
            alias_table,
        })
    }

    /// Draw a category index in O(1).
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let k = self.probs.len();
        let i = rng.gen_range(0..k);
        if rng.gen::<f64>() < self.prob_table[i] {
            i
        } else {
            self.alias_table[i]
        }
    }

    /// Probability mass of category `i` (0 if out of range).
    #[cfg(test)]
    fn pmf(&self, i: usize) -> f64 {
        self.probs.get(i).copied().unwrap_or(0.0)
    }
}

impl Distribution for Categorical {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.sample_index(rng) as f64
    }

    fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| i as f64 * p)
            .sum()
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64 - m).powi(2) * p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn bernoulli_rejects_bad_p() {
        assert!(Bernoulli::new(-0.1).is_err());
        assert!(Bernoulli::new(1.1).is_err());
        assert!(Bernoulli::new(f64::NAN).is_err());
        assert!(Bernoulli::new(0.0).is_ok());
        assert!(Bernoulli::new(1.0).is_ok());
    }

    #[test]
    fn bernoulli_moments() {
        testutil::check_moments(&Bernoulli::new(0.3).unwrap(), 40_000, 81);
    }

    #[test]
    fn bernoulli_degenerate_cases() {
        let mut rng = rng_from_seed(1);
        let zero = Bernoulli::new(0.0).unwrap();
        let one = Bernoulli::new(1.0).unwrap();
        for _ in 0..100 {
            assert!(!zero.sample_bool(&mut rng));
            assert!(one.sample_bool(&mut rng));
        }
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -1.0]).is_err());
        assert!(Categorical::new(&[1.0, f64::INFINITY]).is_err());
    }

    #[test]
    fn categorical_normalizes_weights() {
        let d = Categorical::new(&[2.0, 6.0]).unwrap();
        assert!((d.pmf(0) - 0.25).abs() < 1e-15);
        assert!((d.pmf(1) - 0.75).abs() < 1e-15);
        assert_eq!(d.pmf(2), 0.0);
    }

    #[test]
    fn categorical_alias_matches_probs_empirically() {
        let weights = [0.1, 0.0, 0.4, 0.2, 0.3];
        let d = Categorical::new(&weights).unwrap();
        let mut rng = rng_from_seed(17);
        let n = 100_000;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..n {
            counts[d.sample_index(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category was sampled");
        for (i, &c) in counts.iter().enumerate() {
            let p = d.pmf(i);
            let se = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                ((c as f64 / n as f64) - p).abs() <= 5.0 * se,
                "category {i} frequency off"
            );
        }
    }

    #[test]
    fn categorical_single_category() {
        let d = Categorical::new(&[3.0]).unwrap();
        let mut rng = rng_from_seed(2);
        for _ in 0..10 {
            assert_eq!(d.sample_index(&mut rng), 0);
        }
    }

    #[test]
    fn categorical_moments() {
        let d = Categorical::new(&[0.2, 0.3, 0.5]).unwrap();
        testutil::check_moments(&d, 40_000, 82);
    }
}
