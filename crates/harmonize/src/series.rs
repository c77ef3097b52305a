//! Time series: the paper's `S = ⟨(s_0, d_0), …, (s_m, d_m)⟩` where each
//! `d_i` is a k-tuple.

use crate::HarmonizeError;

/// A multivariate time series with named channels.
///
/// Invariants enforced at construction: strictly increasing, finite
/// timestamps; every observation tuple has exactly `channels.len()` finite
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    channels: Vec<String>,
    times: Vec<f64>,
    /// Row-major: `data[i]` is the observation tuple at `times[i]`.
    data: Vec<Vec<f64>>,
}

impl TimeSeries {
    /// Create from channel names, timestamps, and observations.
    pub fn new(channels: Vec<String>, times: Vec<f64>, data: Vec<Vec<f64>>) -> crate::Result<Self> {
        if channels.is_empty() {
            return Err(HarmonizeError::series("need at least one channel"));
        }
        if times.len() != data.len() {
            return Err(HarmonizeError::series(format!(
                "{} timestamps but {} observations",
                times.len(),
                data.len()
            )));
        }
        for w in times.windows(2) {
            if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
                return Err(HarmonizeError::series(format!(
                    "timestamps must be strictly increasing, got {} then {}",
                    w[0], w[1]
                )));
            }
        }
        if times.iter().any(|t| !t.is_finite()) {
            return Err(HarmonizeError::series("non-finite timestamp"));
        }
        for (i, row) in data.iter().enumerate() {
            if row.len() != channels.len() {
                return Err(HarmonizeError::series(format!(
                    "observation {i} has {} entries, expected {}",
                    row.len(),
                    channels.len()
                )));
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err(HarmonizeError::series(format!(
                    "observation {i} contains a non-finite value"
                )));
            }
        }
        Ok(TimeSeries {
            channels,
            times,
            data,
        })
    }

    /// Single-channel convenience constructor.
    pub fn univariate(
        name: impl Into<String>,
        times: Vec<f64>,
        values: Vec<f64>,
    ) -> crate::Result<Self> {
        let data = values.into_iter().map(|v| vec![v]).collect();
        TimeSeries::new(vec![name.into()], times, data)
    }

    /// Sample a function on a regular grid `t0, t0+dt, …` (`n` points).
    #[cfg(test)]
    pub(crate) fn from_fn(
        name: impl Into<String>,
        t0: f64,
        dt: f64,
        n: usize,
        f: impl Fn(f64) -> f64,
    ) -> crate::Result<Self> {
        if dt <= 0.0 {
            return Err(HarmonizeError::series("dt must be positive"));
        }
        let times: Vec<f64> = (0..n).map(|i| t0 + i as f64 * dt).collect();
        let values: Vec<f64> = times.iter().map(|&t| f(t)).collect();
        TimeSeries::univariate(name, times, values)
    }

    /// Channel names.
    pub fn channels(&self) -> &[String] {
        &self.channels
    }

    /// Index of a channel by name.
    pub(crate) fn channel_index(&self, name: &str) -> crate::Result<usize> {
        self.channels.iter().position(|c| c == name).ok_or_else(|| {
            HarmonizeError::series(format!(
                "unknown channel `{name}` (have: {})",
                self.channels.join(", ")
            ))
        })
    }

    /// Timestamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Observation tuples.
    pub fn data(&self) -> &[Vec<f64>] {
        &self.data
    }

    /// One channel's values as a contiguous vector.
    pub fn channel(&self, name: &str) -> crate::Result<Vec<f64>> {
        let i = self.channel_index(name)?;
        Ok(self.data.iter().map(|row| row[i]).collect())
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no ticks.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First timestamp (None if empty).
    pub fn start(&self) -> Option<f64> {
        self.times.first().copied()
    }

    /// Last timestamp (None if empty).
    pub fn end(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Median spacing between consecutive ticks (None with < 2 ticks) —
    /// the "time granularity" used for alignment-class detection.
    pub fn typical_spacing(&self) -> Option<f64> {
        if self.times.len() < 2 {
            return None;
        }
        let mut gaps: Vec<f64> = self.times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some(gaps[gaps.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(TimeSeries::new(vec![], vec![], vec![]).is_err());
        assert!(TimeSeries::univariate("x", vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(TimeSeries::univariate("x", vec![1.0, 0.5], vec![1.0, 2.0]).is_err());
        assert!(TimeSeries::univariate("x", vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(TimeSeries::univariate("x", vec![0.0], vec![f64::NAN]).is_err());
        assert!(
            TimeSeries::new(vec!["a".into()], vec![0.0], vec![vec![1.0, 2.0]]).is_err(),
            "ragged tuple"
        );
        assert!(TimeSeries::univariate("x", vec![0.0, 1.0], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn from_fn_builds_regular_grid() {
        let ts = TimeSeries::from_fn("sin", 0.0, 0.5, 5, |t| t * 2.0).unwrap();
        assert_eq!(ts.times(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        assert_eq!(ts.channel("sin").unwrap(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(TimeSeries::from_fn("x", 0.0, 0.0, 3, |t| t).is_err());
    }

    #[test]
    fn channel_access() {
        let ts = TimeSeries::new(
            vec!["a".into(), "b".into()],
            vec![0.0, 1.0],
            vec![vec![1.0, 10.0], vec![2.0, 20.0]],
        )
        .unwrap();
        assert_eq!(ts.channel("b").unwrap(), vec![10.0, 20.0]);
        assert!(ts.channel("c").is_err());
        assert_eq!(ts.channel_index("a").unwrap(), 0);
    }

    #[test]
    fn spacing_and_windows() {
        let ts = TimeSeries::univariate("x", vec![0.0, 1.0, 2.0, 4.0], vec![0.0; 4]).unwrap();
        assert_eq!(ts.typical_spacing(), Some(1.0));
        assert_eq!(ts.start(), Some(0.0));
        assert_eq!(ts.end(), Some(4.0));
    }
}
