//! Streaming univariate and bivariate summaries (Welford's algorithm).

/// Streaming mean/variance accumulator using Welford's numerically stable
/// one-pass update.
///
/// ```
/// use mde_numeric::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] { s.push(x); }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-15);
/// assert!((s.sample_variance() - 5.0/3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Build a summary from a slice in one pass.
    pub fn from_slice(data: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in data {
            s.push(x);
        }
        s
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merge another summary into this one (parallel reduction), using the
    /// Chan et al. pairwise update.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (Bessel-corrected); 0 with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean `s/√n`; 0 when empty.
    pub(crate) fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.n as f64).sqrt()
        }
    }
}

/// Streaming bivariate accumulator: the covariance of a paired stream
/// `(x, y)`.
///
/// This is the estimator behind the result-caching statistics 𝒮 of §2.3:
/// `V₂` is the covariance of two composite-model outputs sharing an
/// upstream input, estimated from paired pilot runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BivariateSummary {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    cxy: f64,
}

impl BivariateSummary {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        BivariateSummary::default()
    }

    /// Add one paired observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let nf = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / nf;
        let dy = y - self.mean_y;
        self.mean_y += dy / nf;
        // Co-moment update uses the *new* mean of x and the *old* delta of y.
        self.cxy += dx * (y - self.mean_y);
    }

    /// Unbiased sample covariance; 0 with fewer than two pairs.
    pub fn sample_covariance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.cxy / (self.n - 1) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let s = Summary::from_slice(&data);
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn empty_and_single_are_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);

        let s = Summary::from_slice(&[5.0]);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..57).map(|i| (i as f64 * 1.3).cos()).collect();
        let whole = Summary::from_slice(&data);
        let mut a = Summary::from_slice(&data[..20]);
        let b = Summary::from_slice(&data[20..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = [1.0, 2.0, 3.0];
        let mut s = Summary::from_slice(&data);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn bivariate_known_covariance() {
        // y = 2x exactly: cov = 2 var(x) = 2 · 50·51/12.
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        let mut acc = BivariateSummary::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            acc.push(x, y);
        }
        assert!((acc.sample_covariance() - 425.0).abs() < 1e-9);
    }
}
