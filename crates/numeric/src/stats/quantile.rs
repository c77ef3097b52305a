//! Empirical quantiles.
//!
//! MCDB-style Monte Carlo query processing estimates "distribution features
//! of interest such as moments and quantiles" (§2.1); MCDB-R's risk
//! analysis needs *extreme* quantiles, so the quantile code here is exact
//! on the sample (no P² approximation) — the sample sizes in this workspace
//! make exactness affordable.

use crate::NumericError;

/// Nearest-rank empirical quantile of `data` at probability `p ∈ [0, 1]`.
///
/// Returns the smallest observation `x` such that at least `⌈p·n⌉`
/// observations are `<= x`. For `p = 0` this is the minimum.
pub fn quantile(data: &[f64], p: f64) -> crate::Result<f64> {
    if data.is_empty() {
        return Err(NumericError::EmptyInput {
            context: "quantile",
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(NumericError::invalid(
            "p",
            format!("probability must be in [0,1], got {p}"),
        ));
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
    Ok(nearest_rank(&sorted, p))
}

/// Multiple quantiles with a single sort. Probabilities need not be sorted.
pub fn quantiles(data: &[f64], ps: &[f64]) -> crate::Result<Vec<f64>> {
    if data.is_empty() {
        return Err(NumericError::EmptyInput {
            context: "quantiles",
        });
    }
    for &p in ps {
        if !(0.0..=1.0).contains(&p) {
            return Err(NumericError::invalid(
                "ps",
                format!("probability must be in [0,1], got {p}"),
            ));
        }
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite data"));
    Ok(ps.iter().map(|&p| nearest_rank(&sorted, p)).collect())
}

fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if p == 0.0 {
        return sorted[0];
    }
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.min(n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank_definition() {
        let data = [3.0, 1.0, 4.0, 1.5, 9.0];
        // sorted: 1, 1.5, 3, 4, 9
        assert_eq!(quantile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&data, 0.2).unwrap(), 1.0);
        assert_eq!(quantile(&data, 0.21).unwrap(), 1.5);
        assert_eq!(quantile(&data, 0.5).unwrap(), 3.0);
        assert_eq!(quantile(&data, 1.0).unwrap(), 9.0);
    }

    #[test]
    fn quantile_errors() {
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(quantile(&[1.0], -0.1).is_err());
    }

    #[test]
    fn quantiles_batch_matches_single() {
        let data: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let ps = [0.99, 0.5, 0.25, 0.0];
        let qs = quantiles(&data, &ps).unwrap();
        for (q, &p) in qs.iter().zip(&ps) {
            assert_eq!(*q, quantile(&data, p).unwrap());
        }
    }

    #[test]
    fn extreme_quantiles() {
        // MCDB-R-style: the 99.9% quantile of 10k points is the 9990th order
        // statistic.
        let data: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        assert_eq!(quantile(&data, 0.999).unwrap(), 9990.0);
        assert_eq!(quantile(&data, 0.9999).unwrap(), 9999.0);
    }
}
