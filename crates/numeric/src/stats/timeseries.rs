//! A small time-series toolkit: linear trend and AR(1) fitting with
//! extrapolation.
//!
//! This is the "shallow predictive" model of the paper's Figure 1: a simple
//! time-series model fit to 1970–2006 housing prices and extrapolated to
//! 2011, which "failed spectacularly" because extrapolation cannot see
//! regime changes. The Figure 1 harness fits these models to a synthetic
//! boom-bust series and measures exactly that failure.

use crate::NumericError;

/// An ordinary-least-squares linear trend `y ≈ a + b·t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearTrend {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b` per unit of `t`.
    pub slope: f64,
    /// Residual standard deviation.
    pub resid_std: f64,
}

impl LinearTrend {
    /// Predicted value at time `t`.
    pub(crate) fn predict(&self, t: f64) -> f64 {
        self.intercept + self.slope * t
    }
}

/// Fit a linear trend to `(t, y)` pairs by OLS.
fn fit_linear_trend(ts: &[f64], ys: &[f64]) -> crate::Result<LinearTrend> {
    if ts.len() != ys.len() {
        return Err(NumericError::dim(
            "fit_linear_trend",
            format!("{} ys", ts.len()),
            format!("{} ys", ys.len()),
        ));
    }
    if ts.len() < 2 {
        return Err(NumericError::EmptyInput {
            context: "fit_linear_trend (need >= 2 points)",
        });
    }
    let n = ts.len() as f64;
    let mean_t = ts.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = ts.iter().map(|t| (t - mean_t).powi(2)).sum();
    if sxx == 0.0 {
        return Err(NumericError::invalid(
            "ts",
            "all time points identical; trend is undefined".to_string(),
        ));
    }
    let sxy: f64 = ts
        .iter()
        .zip(ys)
        .map(|(t, y)| (t - mean_t) * (y - mean_y))
        .sum();
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_t;
    let ss_res: f64 = ts
        .iter()
        .zip(ys)
        .map(|(t, y)| (y - (intercept + slope * t)).powi(2))
        .sum();
    let dof = (ts.len() as f64 - 2.0).max(1.0);
    Ok(LinearTrend {
        intercept,
        slope,
        resid_std: (ss_res / dof).sqrt(),
    })
}

/// A fitted AR(1) process `x_t − μ = φ (x_{t−1} − μ) + ε_t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ar1Fit {
    /// Process mean `μ`.
    pub mean: f64,
    /// Autoregressive coefficient `φ`.
    pub phi: f64,
    /// Innovation standard deviation.
    pub innovation_std: f64,
}

impl Ar1Fit {
    /// `h`-step-ahead forecast from the last observation `x_last`:
    /// `μ + φ^h (x_last − μ)`.
    fn forecast(&self, x_last: f64, h: u32) -> f64 {
        self.mean + self.phi.powi(h as i32) * (x_last - self.mean)
    }
}

/// Fit an AR(1) model by conditional least squares (lag-1 regression).
fn fit_ar1(xs: &[f64]) -> crate::Result<Ar1Fit> {
    if xs.len() < 3 {
        return Err(NumericError::EmptyInput {
            context: "fit_ar1 (need >= 3 points)",
        });
    }
    let lagged = &xs[..xs.len() - 1];
    let current = &xs[1..];
    // A (numerically) constant series has no autocorrelation structure;
    // return the degenerate white-noise-free fit instead of erroring, so
    // that trend+AR(1) pipelines work on exactly-linear data.
    let mean_lag = lagged.iter().sum::<f64>() / lagged.len() as f64;
    let spread = lagged
        .iter()
        .map(|x| (x - mean_lag).abs())
        .fold(0.0f64, f64::max);
    if spread < 1e-9 * (1.0 + mean_lag.abs()) {
        return Ok(Ar1Fit {
            mean: mean_lag,
            phi: 0.0,
            innovation_std: 0.0,
        });
    }
    let trend = fit_linear_trend(lagged, current)?;
    let phi = trend.slope;
    // μ from a + φμ = μ  =>  μ = a / (1 − φ); guard the unit-root case.
    let mean = if (1.0 - phi).abs() > 1e-9 {
        trend.intercept / (1.0 - phi)
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    Ok(Ar1Fit {
        mean,
        phi,
        innovation_std: trend.resid_std,
    })
}

/// The composite "shallow predictor" of the Figure 1 experiment: a linear
/// trend plus an AR(1) model of the detrended residuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendAr1Model {
    /// The fitted deterministic trend.
    pub trend: LinearTrend,
    /// The fitted AR(1) residual process.
    pub ar1: Ar1Fit,
    /// Last time point seen during fitting.
    pub last_t: f64,
    /// Last detrended residual seen during fitting.
    pub last_resid: f64,
}

impl TrendAr1Model {
    /// Fit trend + AR(1) residuals to `(t, y)` pairs; `ts` must be in
    /// increasing order with unit spacing for the AR(1) step to be
    /// meaningful.
    pub fn fit(ts: &[f64], ys: &[f64]) -> crate::Result<Self> {
        let trend = fit_linear_trend(ts, ys)?;
        let resids: Vec<f64> = ts
            .iter()
            .zip(ys)
            .map(|(t, y)| y - trend.predict(*t))
            .collect();
        let ar1 = fit_ar1(&resids)?;
        Ok(TrendAr1Model {
            trend,
            ar1,
            last_t: *ts.last().expect("non-empty validated"),
            last_resid: *resids.last().expect("non-empty validated"),
        })
    }

    /// Extrapolate `h` unit steps past the end of the training window.
    pub fn extrapolate(&self, h: u32) -> f64 {
        self.trend.predict(self.last_t + h as f64) + self.ar1.forecast(self.last_resid, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_trend_exact_on_line() {
        let ts: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 3.0 + 2.0 * t).collect();
        let f = fit_linear_trend(&ts, &ys).unwrap();
        assert!((f.intercept - 3.0).abs() < 1e-10);
        assert!((f.slope - 2.0).abs() < 1e-10);
        assert!(f.resid_std < 1e-9);
        assert!((f.predict(20.0) - 43.0).abs() < 1e-9);
    }

    #[test]
    fn linear_trend_errors() {
        assert!(fit_linear_trend(&[1.0], &[1.0]).is_err());
        assert!(fit_linear_trend(&[1.0, 2.0], &[1.0]).is_err());
        assert!(fit_linear_trend(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn ar1_recovers_phi() {
        // Simulate AR(1) with phi = 0.7, mu = 5 deterministically seeded.
        use crate::dist::{Distribution, Normal};
        use crate::rng::rng_from_seed;
        let mut rng = rng_from_seed(33);
        let noise = Normal::new(0.0, 0.5).unwrap();
        let (mu, phi) = (5.0, 0.7);
        let mut xs = vec![mu];
        for _ in 0..5000 {
            let prev = *xs.last().expect("seeded with one element");
            xs.push(mu + phi * (prev - mu) + noise.sample(&mut rng));
        }
        let fit = fit_ar1(&xs).unwrap();
        assert!((fit.phi - phi).abs() < 0.05, "phi estimate {}", fit.phi);
        assert!((fit.mean - mu).abs() < 0.2, "mean estimate {}", fit.mean);
        assert!((fit.innovation_std - 0.5).abs() < 0.05);
    }

    #[test]
    fn ar1_forecast_decays_to_mean() {
        let fit = Ar1Fit {
            mean: 10.0,
            phi: 0.5,
            innovation_std: 1.0,
        };
        assert!((fit.forecast(14.0, 1) - 12.0).abs() < 1e-12);
        assert!((fit.forecast(14.0, 2) - 11.0).abs() < 1e-12);
        assert!((fit.forecast(14.0, 20) - 10.0).abs() < 1e-4);
    }

    #[test]
    fn trend_ar1_extrapolates_line_exactly() {
        let ts: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 1.0 + 0.5 * t).collect();
        let m = TrendAr1Model::fit(&ts, &ys).unwrap();
        // On a pure line, residuals are ~0 and the forecast follows the line.
        assert!((m.extrapolate(5) - (1.0 + 0.5 * 34.0)).abs() < 1e-6);
    }

    #[test]
    fn trend_ar1_misses_regime_change() {
        // The Figure 1 phenomenon in miniature: train on growth, then the
        // world collapses; the extrapolation keeps growing.
        let ts: Vec<f64> = (0..37).map(|i| i as f64).collect(); // "1970..2006"
        let ys: Vec<f64> = ts.iter().map(|t| 100.0 * (0.03 * t).exp()).collect();
        let m = TrendAr1Model::fit(&ts, &ys).unwrap();
        let forecast_2011 = m.extrapolate(5);
        let actual_2011 = ys.last().unwrap() * 0.70; // 30% collapse
        assert!(
            forecast_2011 > actual_2011 * 1.2,
            "extrapolation should overshoot a collapse: forecast {forecast_2011}, actual {actual_2011}"
        );
    }
}
