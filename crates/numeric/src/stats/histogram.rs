//! Fixed-width histograms for summarizing Monte Carlo output.

use crate::NumericError;

/// A fixed-width histogram over `[lo, hi)` with values outside the range
/// counted in saturating edge bins' under/overflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> crate::Result<Self> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(NumericError::invalid(
                "range",
                format!("require finite lo < hi, got [{lo}, {hi})"),
            ));
        }
        if bins == 0 {
            return Err(NumericError::invalid(
                "bins",
                "need at least one bin".to_string(),
            ));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            // Floating-point rounding can land exactly on len(); clamp.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `(lo, hi)` bounds of bin `i`.
    fn bin_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Normalized bin densities (integrate to ~1 over in-range mass).
    pub fn densities(&self) -> Vec<f64> {
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return vec![0.0; self.counts.len()];
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .map(|&c| c as f64 / (in_range as f64 * w))
            .collect()
    }

    /// Render a simple ASCII bar chart, one line per bin — used by the
    /// figure-regeneration binaries.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (lo, hi) = self.bin_bounds(i);
            let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:>10.3}, {hi:>10.3})  {:<width$} {c}\n",
                "#".repeat(bar_len),
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_config() {
        assert!(Histogram::new(1.0, 1.0, 10).is_err());
        assert!(Histogram::new(2.0, 1.0, 10).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn bins_values_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.push(-0.1);
        h.push(1.0); // hi is exclusive
        h.push(5.0);
        h.push(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn boundary_values_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.push(0.0);
        h.push(0.5);
        h.push(0.499_999_999);
        assert_eq!(h.counts(), &[2, 1]);
    }

    #[test]
    fn densities_integrate_to_one() {
        let mut h = Histogram::new(0.0, 2.0, 8).unwrap();
        for i in 0..1000 {
            h.push((i % 200) as f64 / 100.0);
        }
        let w = 2.0 / 8.0;
        let total: f64 = h.densities().iter().map(|d| d * w).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_contains_all_bins() {
        let mut h = Histogram::new(0.0, 1.0, 3).unwrap();
        h.push(0.1);
        h.push(0.5);
        h.push(0.9);
        let s = h.render_ascii(20);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
    }
}
