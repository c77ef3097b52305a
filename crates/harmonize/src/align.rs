//! Time alignment between models.
//!
//! §2.2: Splash's "time aligner tool determines the class of time alignment
//! needed — e.g., aggregation if the target model has coarser time
//! granularity than the source model or interpolation if the target has
//! finer granularity". Interpolation "compute\[s\] windows of the form
//! `W = ⟨(s_j, d_j), (s_{j+1}, d_{j+1})⟩` … The windows can be processed in
//! parallel and then the target time series can be assembled via a parallel
//! sort."
//!
//! This module implements both alignment classes over [`TimeSeries`]. Each
//! target point is evaluated from its own window, in target order, so
//! assembly needs no sort.

use crate::series::TimeSeries;
use crate::spline::NaturalCubicSpline;
use crate::HarmonizeError;

/// The alignment class Splash's time-aligner detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignmentClass {
    /// Target granularity coarser than source: aggregate source ticks into
    /// target windows.
    Aggregation,
    /// Target granularity finer than source: interpolate between source
    /// ticks.
    Interpolation,
    /// Granularities match (within 1%): pass through / resample nearest.
    Identity,
}

/// Detect the alignment class from typical tick spacings.
pub fn detect_class(source_spacing: f64, target_spacing: f64) -> AlignmentClass {
    let ratio = target_spacing / source_spacing;
    if ratio > 1.01 {
        AlignmentClass::Aggregation
    } else if ratio < 0.99 {
        AlignmentClass::Interpolation
    } else {
        AlignmentClass::Identity
    }
}

/// Aggregation methods for coarsening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMethod {
    /// Mean of source values in the window.
    Mean,
    /// Sum of source values in the window.
    Sum,
    /// Last source value in the window (sample-and-hold).
    Last,
    /// Minimum in the window.
    Min,
    /// Maximum in the window.
    Max,
}

/// Interpolation methods for refinement — "interpolation if the target has
/// finer granularity", with natural cubic splines as "one of the most
/// common interpolations used in practice".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpMethod {
    /// Nearest source tick.
    Nearest,
    /// Piecewise linear.
    Linear,
    /// Natural cubic spline (the paper's worked example).
    CubicSpline,
}

/// A time-alignment specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignSpec {
    /// Aggregate into target windows.
    Aggregate(AggMethod),
    /// Interpolate at target times.
    Interpolate(InterpMethod),
}

/// Align `source` onto the given strictly increasing target times.
pub fn align(
    source: &TimeSeries,
    target_times: &[f64],
    spec: AlignSpec,
) -> crate::Result<TimeSeries> {
    if target_times.is_empty() {
        return Err(HarmonizeError::transform("no target times"));
    }
    for w in target_times.windows(2) {
        if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
            return Err(HarmonizeError::transform(
                "target times must be strictly increasing",
            ));
        }
    }
    if source.is_empty() {
        return Err(HarmonizeError::transform("source series is empty"));
    }
    match spec {
        AlignSpec::Aggregate(m) => aggregate(source, target_times, m),
        AlignSpec::Interpolate(m) => interpolate(source, target_times, m),
    }
}

/// Pick the alignment automatically from the spacings, mirroring the Splash
/// time-aligner's detection step: coarser target → mean aggregation, finer
/// target → cubic-spline interpolation (linear when too few source points),
/// matching granularity → nearest.
pub fn auto_align(source: &TimeSeries, target_times: &[f64]) -> crate::Result<TimeSeries> {
    let ss = source
        .typical_spacing()
        .ok_or_else(|| HarmonizeError::transform("source has fewer than 2 ticks"))?;
    let ts = if target_times.len() >= 2 {
        target_times[1] - target_times[0]
    } else {
        ss
    };
    let spec = match detect_class(ss, ts) {
        AlignmentClass::Aggregation => AlignSpec::Aggregate(AggMethod::Mean),
        AlignmentClass::Interpolation => {
            if source.len() >= 3 {
                AlignSpec::Interpolate(InterpMethod::CubicSpline)
            } else {
                AlignSpec::Interpolate(InterpMethod::Linear)
            }
        }
        AlignmentClass::Identity => AlignSpec::Interpolate(InterpMethod::Nearest),
    };
    align(source, target_times, spec)
}

fn aggregate(
    source: &TimeSeries,
    target_times: &[f64],
    method: AggMethod,
) -> crate::Result<TimeSeries> {
    let k = source.channels().len();
    let stimes = source.times();
    let mut out: Vec<Vec<f64>> = Vec::with_capacity(target_times.len());
    let mut cursor = 0usize;
    let mut prev_t = f64::NEG_INFINITY;
    let mut last_seen: Option<Vec<f64>> = None;
    for &t in target_times {
        // Window (prev_t, t].
        let mut acc: Vec<AggAcc> = (0..k).map(|_| AggAcc::new(method)).collect();
        while cursor < stimes.len() && stimes[cursor] <= t {
            if stimes[cursor] > prev_t {
                for (a, &v) in acc.iter_mut().zip(&source.data()[cursor]) {
                    a.push(v);
                }
                last_seen = Some(source.data()[cursor].clone());
            }
            cursor += 1;
        }
        let row: Vec<f64> = if acc[0].count == 0 {
            // Empty window: hold the last observation (or the first source
            // value if the window precedes all data).
            last_seen
                .clone()
                .unwrap_or_else(|| source.data()[0].clone())
        } else {
            acc.into_iter().map(|a| a.finish()).collect()
        };
        out.push(row);
        prev_t = t;
    }
    TimeSeries::new(source.channels().to_vec(), target_times.to_vec(), out)
}

struct AggAcc {
    method: AggMethod,
    acc: f64,
    count: usize,
}

impl AggAcc {
    fn new(method: AggMethod) -> Self {
        let acc = match method {
            AggMethod::Min => f64::INFINITY,
            AggMethod::Max => f64::NEG_INFINITY,
            _ => 0.0,
        };
        AggAcc {
            method,
            acc,
            count: 0,
        }
    }

    fn push(&mut self, v: f64) {
        self.count += 1;
        match self.method {
            AggMethod::Mean | AggMethod::Sum => self.acc += v,
            AggMethod::Last => self.acc = v,
            AggMethod::Min => self.acc = self.acc.min(v),
            AggMethod::Max => self.acc = self.acc.max(v),
        }
    }

    fn finish(self) -> f64 {
        match self.method {
            AggMethod::Mean => self.acc / self.count as f64,
            _ => self.acc,
        }
    }
}

fn interpolate(
    source: &TimeSeries,
    target_times: &[f64],
    method: InterpMethod,
) -> crate::Result<TimeSeries> {
    let k = source.channels().len();
    // Per-channel interpolants. Splines need the global σ pass first (the
    // expensive part DSGD distributes); each target point then reads only
    // its own window.
    enum Interp {
        Nearest,
        Linear,
        Spline(Box<NaturalCubicSpline>),
    }
    let mut interps = Vec::with_capacity(k);
    for name in source.channels() {
        let interp = match method {
            InterpMethod::Nearest => Interp::Nearest,
            InterpMethod::Linear => Interp::Linear,
            InterpMethod::CubicSpline => {
                let vals = source.channel(name)?;
                Interp::Spline(Box::new(NaturalCubicSpline::fit(source.times(), &vals)?))
            }
        };
        interps.push(interp);
    }

    let eval_point = |t: f64| -> Vec<f64> {
        let stimes = source.times();
        let m = stimes.len();
        // Window index, clamped for extrapolation.
        let j = match stimes.partition_point(|&s| s <= t) {
            0 => 0,
            p => (p - 1).min(m.saturating_sub(2)),
        };
        interps
            .iter()
            .enumerate()
            .map(|(c, interp)| match interp {
                Interp::Spline(sp) => sp.eval(t),
                Interp::Nearest => {
                    if m == 1 {
                        source.data()[0][c]
                    } else {
                        let (s0, s1) = (stimes[j], stimes[j + 1]);
                        let pick = if (t - s0).abs() <= (s1 - t).abs() {
                            j
                        } else {
                            j + 1
                        };
                        source.data()[pick][c]
                    }
                }
                Interp::Linear => {
                    if m == 1 {
                        source.data()[0][c]
                    } else {
                        let (s0, s1) = (stimes[j], stimes[j + 1]);
                        let (d0, d1) = (source.data()[j][c], source.data()[j + 1][c]);
                        d0 + (d1 - d0) * (t - s0) / (s1 - s0)
                    }
                }
            })
            .collect()
    };

    let data: Vec<Vec<f64>> = target_times.iter().map(|&t| eval_point(t)).collect();
    TimeSeries::new(source.channels().to_vec(), target_times.to_vec(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine_series() -> TimeSeries {
        // Hourly data for 48 "hours": value = t.
        TimeSeries::from_fn("v", 0.0, 1.0, 48, |t| t).unwrap()
    }

    #[test]
    fn detect_classes() {
        assert_eq!(detect_class(1.0, 24.0), AlignmentClass::Aggregation);
        assert_eq!(detect_class(24.0, 1.0), AlignmentClass::Interpolation);
        assert_eq!(detect_class(1.0, 1.0), AlignmentClass::Identity);
    }

    #[test]
    fn aggregation_mean_over_daily_windows() {
        let src = fine_series();
        // Daily targets at t = 23, 47 (windows (-inf,23], (23,47]).
        let out = align(&src, &[23.0, 47.0], AlignSpec::Aggregate(AggMethod::Mean)).unwrap();
        let v = out.channel("v").unwrap();
        assert!((v[0] - 11.5).abs() < 1e-12); // mean of 0..=23
        assert!((v[1] - 35.5).abs() < 1e-12); // mean of 24..=47
    }

    #[test]
    fn aggregation_other_methods() {
        let src = fine_series();
        let check = |m, expected: [f64; 2]| {
            let out = align(&src, &[23.0, 47.0], AlignSpec::Aggregate(m)).unwrap();
            let v = out.channel("v").unwrap();
            assert!((v[0] - expected[0]).abs() < 1e-12, "{m:?} first window");
            assert!((v[1] - expected[1]).abs() < 1e-12, "{m:?} second window");
        };
        check(AggMethod::Sum, [276.0, 852.0]);
        check(AggMethod::Last, [23.0, 47.0]);
        check(AggMethod::Min, [0.0, 24.0]);
        check(AggMethod::Max, [23.0, 47.0]);
    }

    #[test]
    fn aggregation_empty_window_holds_last() {
        let src = TimeSeries::univariate("v", vec![0.0, 10.0], vec![5.0, 7.0]).unwrap();
        let out = align(
            &src,
            &[1.0, 2.0, 3.0, 10.0],
            AlignSpec::Aggregate(AggMethod::Mean),
        )
        .unwrap();
        let v = out.channel("v").unwrap();
        assert_eq!(v, vec![5.0, 5.0, 5.0, 7.0]);
    }

    #[test]
    fn linear_interpolation_refines() {
        let src = TimeSeries::univariate("v", vec![0.0, 2.0, 4.0], vec![0.0, 4.0, 0.0]).unwrap();
        let targets: Vec<f64> = (0..9).map(|i| i as f64 * 0.5).collect();
        let out = align(&src, &targets, AlignSpec::Interpolate(InterpMethod::Linear)).unwrap();
        let v = out.channel("v").unwrap();
        assert_eq!(v[1], 1.0); // t = 0.5
        assert_eq!(v[4], 4.0); // t = 2
        assert_eq!(v[6], 2.0); // t = 3
    }

    #[test]
    fn nearest_interpolation() {
        let src = TimeSeries::univariate("v", vec![0.0, 1.0], vec![10.0, 20.0]).unwrap();
        let out = align(
            &src,
            &[0.2, 0.8],
            AlignSpec::Interpolate(InterpMethod::Nearest),
        )
        .unwrap();
        assert_eq!(out.channel("v").unwrap(), vec![10.0, 20.0]);
    }

    #[test]
    fn spline_interpolation_matches_smooth_truth() {
        let src = TimeSeries::from_fn("v", 0.0, 0.5, 21, |t| (t * 0.9).sin()).unwrap();
        let targets: Vec<f64> = (1..100).map(|i| i as f64 * 0.1).collect();
        let out = align(
            &src,
            &targets,
            AlignSpec::Interpolate(InterpMethod::CubicSpline),
        )
        .unwrap();
        for (t, v) in targets.iter().zip(out.channel("v").unwrap()) {
            // Natural boundary conditions bend the curve slightly near the
            // ends, so the tolerance is a touch looser than mid-span.
            assert!(
                (v - (t * 0.9).sin()).abs() < 6e-3,
                "spline off at t={t}: {v}"
            );
        }
    }

    #[test]
    fn multichannel_alignment() {
        let src = TimeSeries::new(
            vec!["a".into(), "b".into()],
            vec![0.0, 1.0, 2.0],
            vec![vec![0.0, 10.0], vec![1.0, 20.0], vec![2.0, 30.0]],
        )
        .unwrap();
        let out = align(
            &src,
            &[0.5, 1.5],
            AlignSpec::Interpolate(InterpMethod::Linear),
        )
        .unwrap();
        assert_eq!(out.channel("a").unwrap(), vec![0.5, 1.5]);
        assert_eq!(out.channel("b").unwrap(), vec![15.0, 25.0]);
    }

    #[test]
    fn auto_align_picks_sensibly() {
        let fine = fine_series();
        // Coarser target -> aggregation (means, not raw samples).
        let daily = auto_align(&fine, &[23.0, 47.0]).unwrap();
        assert!((daily.channel("v").unwrap()[0] - 11.5).abs() < 1e-12);
        // Finer target -> spline interpolation, which tracks t exactly for
        // linear data.
        let halfhour = auto_align(&fine, &[10.25, 10.75]).unwrap();
        for (t, v) in halfhour.times().iter().zip(halfhour.channel("v").unwrap()) {
            assert!((v - t).abs() < 1e-6);
        }
    }

    #[test]
    fn validation_errors() {
        let src = fine_series();
        assert!(align(&src, &[], AlignSpec::Aggregate(AggMethod::Mean)).is_err());
        assert!(align(&src, &[2.0, 1.0], AlignSpec::Aggregate(AggMethod::Mean)).is_err());
    }
}
