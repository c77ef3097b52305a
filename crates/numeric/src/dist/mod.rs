//! Univariate probability distributions.
//!
//! These back every stochastic component of the workspace: VG functions in
//! the Monte Carlo database (§2.1 of the paper), the Gaussian sensor model
//! of the wildfire assimilator (§3.2), the exponential worked example of the
//! calibration section (§3.1), and the noise models of the metamodeling
//! experiments (§4).
//!
//! Two traits organize the API: [`Distribution`] for anything that can be
//! sampled and has first two moments, and [`Continuous`] for distributions
//! with a density, CDF, and quantile function. Discrete distributions
//! expose their pmf/cdf through inherent methods instead, since their
//! support is `u64`.

mod beta;
mod categorical;
mod exponential;
mod gamma;
mod normal;
mod poisson;
pub mod special;
mod uniform;

pub use beta::Beta;
pub use categorical::{Bernoulli, Categorical};
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use normal::Normal;
pub use poisson::Poisson;
pub use uniform::Uniform;

use crate::rng::Rng;

/// A sampleable distribution with known first two moments.
pub trait Distribution {
    /// Draw one realization.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The mean of the distribution.
    fn mean(&self) -> f64;

    /// The variance of the distribution.
    fn variance(&self) -> f64;

    /// Draw `n` realizations into a fresh vector.
    fn sample_n(&self, rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// The standard deviation of the distribution.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A continuous distribution with density, CDF, and quantile function.
pub trait Continuous: Distribution {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) at probability `p` in `[0, 1]`.
    ///
    /// Implementations may panic or return boundary values for `p` outside
    /// `[0, 1]`; callers validate `p` at the API boundary.
    fn quantile(&self, p: f64) -> f64;

    /// Natural log of the density, for likelihood computations.
    ///
    /// The default takes `ln(pdf)`, which underflows for extreme `x`;
    /// distributions used in likelihood-heavy code paths override this with
    /// an analytically stable version.
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for distribution tests: moment checks by Monte Carlo
    //! with CLT-scale tolerances, and CDF/quantile round-trips.

    use super::*;
    use crate::rng::rng_from_seed;

    /// Assert that the sample mean and variance of `n` draws match the
    /// distribution's claimed moments within `k` standard errors.
    pub fn check_moments<D: Distribution>(d: &D, n: usize, seed: u64) {
        let mut rng = rng_from_seed(seed);
        let xs = d.sample_n(&mut rng, n);
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        // Standard error of the mean is sigma/sqrt(n); allow 5 SEs.
        let se_mean = d.std_dev() / (n as f64).sqrt();
        assert!(
            (mean - d.mean()).abs() < 5.0 * se_mean + 1e-12,
            "sample mean {mean} too far from {} (se {se_mean})",
            d.mean()
        );
        // The variance of the sample variance involves the 4th moment; use a
        // generous 15% relative tolerance instead.
        assert!(
            (var - d.variance()).abs() < 0.15 * d.variance() + 1e-12,
            "sample variance {var} too far from {}",
            d.variance()
        );
    }

    /// Assert `quantile(cdf(x)) == x` over a grid inside the support.
    pub fn check_cdf_quantile_roundtrip<D: Continuous>(d: &D, xs: &[f64], tol: f64) {
        for &x in xs {
            let p = d.cdf(x);
            if p > 1e-10 && p < 1.0 - 1e-10 {
                let x2 = d.quantile(p);
                assert!(
                    (x2 - x).abs() < tol * (1.0 + x.abs()),
                    "roundtrip failed: x={x}, cdf={p}, quantile={x2}"
                );
            }
        }
    }

    /// Assert that the CDF is consistent with the PDF by crude numerical
    /// differentiation at the given points.
    pub fn check_pdf_matches_cdf_slope<D: Continuous>(d: &D, xs: &[f64], tol: f64) {
        let h = 1e-5;
        for &x in xs {
            let slope = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
            let pdf = d.pdf(x);
            assert!(
                (slope - pdf).abs() < tol * (1.0 + pdf),
                "pdf {pdf} != cdf slope {slope} at {x}"
            );
        }
    }
}
