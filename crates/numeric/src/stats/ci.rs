//! Confidence intervals for Monte Carlo estimators.
//!
//! The paper's budget-constrained estimators (§2.3) obey CLTs of the form
//! `c^{1/2}[U(c) − θ] ⇒ √g(α)·N(0,1)`; the intervals here are the practical
//! face of those results.

use super::Summary;
use crate::dist::special::std_normal_quantile;
use crate::NumericError;

/// A two-sided confidence interval with its point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate at the center of the interval.
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Confidence level in (0, 1), e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// Normal-theory confidence interval for a mean from a [`Summary`].
///
/// Uses the normal critical value; for the sample sizes in this workspace
/// (hundreds to millions of Monte Carlo replications) the Student-t
/// correction is negligible, and the paper's asymptotics are normal anyway.
pub fn mean_confidence_interval(s: &Summary, level: f64) -> crate::Result<ConfidenceInterval> {
    if s.count() < 2 {
        return Err(NumericError::EmptyInput {
            context: "mean_confidence_interval (need >= 2 observations)",
        });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(NumericError::invalid(
            "level",
            format!("confidence level must be in (0,1), got {level}"),
        ));
    }
    let z = std_normal_quantile(0.5 + level / 2.0);
    let hw = z * s.standard_error();
    Ok(ConfidenceInterval {
        estimate: s.mean(),
        lo: s.mean() - hw,
        hi: s.mean() + hw,
        level,
    })
}

/// Wilson score interval for a binomial proportion — used by threshold
/// queries ("is P(event) >= 50%?") where the Wald interval misbehaves near
/// 0 and 1.
pub fn proportion_confidence_interval(
    successes: u64,
    trials: u64,
    level: f64,
) -> crate::Result<ConfidenceInterval> {
    if trials == 0 {
        return Err(NumericError::EmptyInput {
            context: "proportion_confidence_interval",
        });
    }
    if successes > trials {
        return Err(NumericError::invalid(
            "successes",
            format!("successes ({successes}) exceed trials ({trials})"),
        ));
    }
    if !(0.0 < level && level < 1.0) {
        return Err(NumericError::invalid(
            "level",
            format!("confidence level must be in (0,1), got {level}"),
        ));
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z = std_normal_quantile(0.5 + level / 2.0);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let hw = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    Ok(ConfidenceInterval {
        estimate: p,
        lo: (center - hw).max(0.0),
        hi: (center + hw).min(1.0),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::rng::rng_from_seed;

    #[test]
    fn mean_ci_covers_true_mean() {
        // Coverage experiment: 95% CI should contain the true mean in
        // roughly 95% of repetitions. With 400 repetitions, 5 SE ≈ 5.4%.
        let d = Normal::new(10.0, 2.0).unwrap();
        let mut rng = rng_from_seed(42);
        let reps = 400;
        let mut covered = 0;
        for _ in 0..reps {
            let mut s = Summary::new();
            for _ in 0..100 {
                s.push(d.sample(&mut rng));
            }
            if mean_confidence_interval(&s, 0.95).unwrap().contains(10.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / reps as f64;
        assert!((rate - 0.95).abs() < 0.055, "coverage rate was {rate}");
    }

    #[test]
    fn mean_ci_width_shrinks_with_n() {
        let d = Normal::standard();
        let mut rng = rng_from_seed(7);
        let mut s_small = Summary::new();
        for _ in 0..100 {
            s_small.push(d.sample(&mut rng));
        }
        let mut s_large = s_small;
        for _ in 0..9900 {
            s_large.push(d.sample(&mut rng));
        }
        let width = |s: &Summary| {
            let ci = mean_confidence_interval(s, 0.95).unwrap();
            ci.hi - ci.lo
        };
        let (w_small, w_large) = (width(&s_small), width(&s_large));
        // 100x the data → ~10x narrower.
        assert!(w_large < w_small / 5.0);
    }

    #[test]
    fn mean_ci_errors() {
        let mut s = Summary::new();
        assert!(mean_confidence_interval(&s, 0.95).is_err());
        s.push(1.0);
        assert!(mean_confidence_interval(&s, 0.95).is_err());
        s.push(2.0);
        assert!(mean_confidence_interval(&s, 0.0).is_err());
        assert!(mean_confidence_interval(&s, 1.0).is_err());
        assert!(mean_confidence_interval(&s, 0.95).is_ok());
    }

    #[test]
    fn wilson_interval_stays_in_unit_range() {
        let ci = proportion_confidence_interval(0, 10, 0.95).unwrap();
        assert!(ci.lo >= 0.0 && ci.estimate == 0.0);
        let ci = proportion_confidence_interval(10, 10, 0.95).unwrap();
        assert!(ci.hi <= 1.0 && ci.estimate == 1.0);
    }

    #[test]
    fn wilson_interval_sane_midrange() {
        let ci = proportion_confidence_interval(50, 100, 0.95).unwrap();
        assert!((ci.estimate - 0.5).abs() < 1e-12);
        assert!(ci.contains(0.5));
        // Known half-width ≈ 0.0975 for Wilson at n=100, p=0.5.
        assert!(((ci.hi - ci.lo) / 2.0 - 0.0975).abs() < 0.005);
    }

    #[test]
    fn wilson_errors() {
        assert!(proportion_confidence_interval(1, 0, 0.95).is_err());
        assert!(proportion_confidence_interval(11, 10, 0.95).is_err());
        assert!(proportion_confidence_interval(5, 10, 1.0).is_err());
    }
}
