//! Resampling — the fix for weight degeneracy in sequential importance
//! sampling.
//!
//! §3.2: "As n increases the IS estimate involves the product of more and
//! more random weights, which can cause the variance of the estimate to
//! grow exponentially or can cause π̂ₙ to 'collapse', in that one weight
//! will tend to 1 while the rest tend to 0. A solution … is to obtain a
//! new sample of size N at the end of each iteration by resampling …
//! according to their normalized weights."
//!
//! Both the textbook multinomial scheme and the lower-variance systematic
//! scheme are provided, plus the effective-sample-size diagnostic that
//! quantifies collapse.

use crate::AssimError;
use mde_numeric::rng::Rng;

/// Validate a weight vector for resampling: non-empty, every entry finite
/// and non-negative, finite positive total. Returns the total.
fn check_weights(weights: &[f64], context: &'static str) -> crate::Result<f64> {
    if weights.is_empty() {
        return Err(AssimError::weights(context, "no weights to resample"));
    }
    let mut total = 0.0;
    for &w in weights {
        if !w.is_finite() {
            return Err(AssimError::weights(
                context,
                format!("non-finite weight {w}"),
            ));
        }
        if w < 0.0 {
            return Err(AssimError::weights(context, format!("negative weight {w}")));
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(AssimError::weights(context, "all weights zero"));
    }
    if !total.is_finite() {
        return Err(AssimError::weights(context, "weights sum to infinity"));
    }
    Ok(total)
}

/// Effective sample size `1 / Σ (Wⁱ)²` of normalized weights: `N` for
/// uniform weights, `1` at full collapse.
pub fn effective_sample_size(weights: &[f64]) -> f64 {
    let s: f64 = weights.iter().map(|w| w * w).sum();
    if s <= 0.0 {
        0.0
    } else {
        1.0 / s
    }
}

/// Multinomial resampling: draw `n` indices i.i.d. proportional to the
/// weights.
///
/// Degenerate weight vectors (empty, negative or non-finite entries, all
/// zero) are surfaced as [`AssimError::InvalidWeights`] rather than panicking —
/// collapsed weights are an expected runtime condition in §3.2, not a
/// programming error.
pub fn multinomial_resample(weights: &[f64], n: usize, rng: &mut Rng) -> crate::Result<Vec<usize>> {
    let total = check_weights(weights, "multinomial_resample")?;
    // Cumulative distribution + inverse sampling.
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for &w in weights {
        acc += w;
        cdf.push(acc);
    }
    Ok((0..n)
        .map(|_| {
            let u: f64 = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c < u).min(weights.len() - 1)
        })
        .collect())
}

/// Systematic resampling: a single uniform offset and `n` evenly spaced
/// pointers — unbiased like multinomial but with much lower variance, the
/// standard practical choice for particle filters.
///
/// Degenerate weight vectors are surfaced as
/// [`AssimError::InvalidWeights`] rather than panicking.
pub fn systematic_resample(weights: &[f64], n: usize, rng: &mut Rng) -> crate::Result<Vec<usize>> {
    let total = check_weights(weights, "systematic_resample")?;
    let step = total / n as f64;
    let mut u = rng.gen::<f64>() * step;
    let mut out = Vec::with_capacity(n);
    let mut acc = weights[0];
    let mut i = 0usize;
    for _ in 0..n {
        while u > acc && i + 1 < weights.len() {
            i += 1;
            acc += weights[i];
        }
        out.push(i);
        u += step;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::rng_from_seed;

    #[test]
    fn ess_bounds() {
        let uniform = vec![0.25; 4];
        assert!((effective_sample_size(&uniform) - 4.0).abs() < 1e-12);
        let collapsed = vec![1.0, 0.0, 0.0, 0.0];
        assert!((effective_sample_size(&collapsed) - 1.0).abs() < 1e-12);
        let partial = vec![0.5, 0.5, 0.0, 0.0];
        assert!((effective_sample_size(&partial) - 2.0).abs() < 1e-12);
        assert_eq!(effective_sample_size(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn multinomial_frequencies_match_weights() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let mut rng = rng_from_seed(1);
        let n = 100_000;
        let idx = multinomial_resample(&weights, n, &mut rng).unwrap();
        let mut counts = [0usize; 4];
        for i in idx {
            counts[i] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let p = weights[k];
            let se = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                ((c as f64 / n as f64) - p).abs() < 5.0 * se,
                "category {k} frequency off"
            );
        }
    }

    #[test]
    fn systematic_frequencies_match_weights_with_low_variance() {
        let weights = [0.1, 0.2, 0.3, 0.4];
        let mut rng = rng_from_seed(2);
        let n = 10_000;
        let idx = systematic_resample(&weights, n, &mut rng).unwrap();
        let mut counts = [0usize; 4];
        for i in idx {
            counts[i] += 1;
        }
        // Systematic resampling quantizes counts to within 1 of n·w.
        for (k, &c) in counts.iter().enumerate() {
            let expected = weights[k] * n as f64;
            assert!(
                (c as f64 - expected).abs() <= 1.0,
                "category {k}: {c} vs {expected}"
            );
        }
    }

    #[test]
    fn zero_weight_particles_never_selected() {
        let weights = [0.0, 1.0, 0.0];
        let mut rng = rng_from_seed(3);
        for i in multinomial_resample(&weights, 1000, &mut rng).unwrap() {
            assert_eq!(i, 1);
        }
        for i in systematic_resample(&weights, 1000, &mut rng).unwrap() {
            assert_eq!(i, 1);
        }
    }

    #[test]
    fn unnormalized_weights_accepted() {
        // Both schemes normalize internally.
        let weights = [2.0, 6.0];
        let mut rng = rng_from_seed(4);
        let idx = systematic_resample(&weights, 4000, &mut rng).unwrap();
        let ones = idx.iter().filter(|&&i| i == 1).count();
        assert!((ones as f64 / 4000.0 - 0.75).abs() < 0.01);
    }

    #[test]
    fn degenerate_weights_are_typed_errors() {
        let mut rng = rng_from_seed(5);
        for result in [
            multinomial_resample(&[0.0, 0.0], 10, &mut rng),
            systematic_resample(&[0.0, 0.0], 10, &mut rng),
            multinomial_resample(&[], 10, &mut rng),
            multinomial_resample(&[0.5, -0.5], 10, &mut rng),
        ] {
            match result {
                Err(AssimError::InvalidWeights { .. }) => {}
                other => panic!("expected InvalidWeights, got {other:?}"),
            }
        }
        assert!(multinomial_resample(&[0.0, 0.0], 10, &mut rng)
            .unwrap_err()
            .to_string()
            .contains("all weights zero"));
    }

    #[test]
    fn non_finite_weights_are_typed_errors() {
        // `NaN < 0.0` and `NaN <= 0.0` are both false, so a NaN used to
        // slip through and select particle 0 every time.
        let mut rng = rng_from_seed(7);
        for weights in [
            &[f64::NAN, 1.0][..],
            &[1.0, f64::NAN],
            &[f64::INFINITY, 1.0],
            &[f64::MAX, f64::MAX],
        ] {
            for result in [
                systematic_resample(weights, 8, &mut rng),
                multinomial_resample(weights, 8, &mut rng),
            ] {
                match result {
                    Err(AssimError::InvalidWeights { .. }) => {}
                    other => panic!("{weights:?}: expected InvalidWeights, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn resampling_restores_ess() {
        // The §3.2 collapse-repair story: degenerate weights, resample,
        // uniform weights again.
        let weights = [0.97, 0.01, 0.01, 0.01];
        assert!(effective_sample_size(&weights) < 1.1);
        let mut rng = rng_from_seed(6);
        let idx = systematic_resample(&weights, 4, &mut rng).unwrap();
        let new_weights = vec![0.25; idx.len()];
        assert_eq!(effective_sample_size(&new_weights), 4.0);
    }
}
