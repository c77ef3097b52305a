//! E1 — Figure 1: "The dangers of extrapolation".
//!
//! The paper fits "a simple time series model … to median U.S. housing
//! prices from 1970 to 2006 and then extrapolated to 2011. … the resulting
//! prediction failed spectacularly because it ignored expert information
//! … that might have helped in modeling the housing-price collapse that
//! began in 2006."
//!
//! We have no license to ship the Case-Shiller series, so a synthetic
//! boom-bust index with the same shape (exponential growth to 2006, ~30%
//! collapse by 2011) stands in — the phenomenon is qualitative, not tied
//! to the exact series (see DESIGN.md's substitution table). Three
//! predictors are compared at 2011:
//!
//! * the shallow trend+AR(1) extrapolation (the paper's failing model);
//! * a regime-aware stochastic simulation embodying the "expert
//!   information" (a bubble-correction hazard that grows with
//!   overvaluation);
//! * the actual 2011 value.

use mde_numeric::dist::{Distribution, Normal};
use mde_numeric::rng::rng_from_seed;
use mde_numeric::stats::{quantile, Summary, TrendAr1Model};

/// Synthetic housing index 1970..=2011 with the 2006 regime change.
fn housing_series(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let noise = Normal::new(0.0, 1.5).expect("static");
    let years: Vec<f64> = (1970..=2011).map(|y| y as f64).collect();
    let values: Vec<f64> = years
        .iter()
        .map(|&y| {
            let base = if y <= 2006.0 {
                100.0 * (0.045 * (y - 1970.0)).exp()
            } else {
                100.0 * (0.045 * 36.0f64).exp() * (1.0 - 0.068 * (y - 2006.0))
            };
            base + noise.sample(&mut rng)
        })
        .collect();
    (years, values)
}

/// The "expert model": a stochastic simulation in which prices grow with
/// the fundamental trend, but each year a correction can trigger with a
/// hazard that rises with overvaluation relative to fundamentals — the
/// kind of mechanism economists and behavioral scientists would supply.
fn expert_simulation(
    fundamentals_growth: f64,
    start_price: f64,
    start_year: f64,
    horizon: u32,
    n_reps: usize,
    seed: u64,
) -> Vec<f64> {
    let mut rng = rng_from_seed(seed);
    let fundamental_at = |y: f64| 100.0 * (fundamentals_growth * (y - 1970.0)).exp() * 0.55;
    let mut finals = Vec::with_capacity(n_reps);
    for _ in 0..n_reps {
        let mut price = start_price;
        let mut correcting = false;
        for h in 1..=horizon {
            let year = start_year + h as f64;
            let fundamental = fundamental_at(year);
            let overvaluation = (price / fundamental - 1.0).max(0.0);
            if !correcting {
                // Hazard of a correction grows sharply with overvaluation —
                // the experts' knowledge: bubbles this size burst.
                let hazard = 1.0 - (-8.0 * overvaluation).exp();
                if rng.gen::<f64>() < hazard {
                    correcting = true;
                }
            }
            if correcting {
                price *= 0.86 + 0.08 * rng.gen::<f64>(); // 6-14%/yr decline
                if price <= fundamental {
                    correcting = false;
                }
            } else {
                price *= 1.0 + fundamentals_growth + 0.01 * rng.gen::<f64>();
            }
        }
        finals.push(price);
    }
    finals
}

/// Regenerate Figure 1 as a report.
pub fn fig1_report() -> String {
    let (years, values) = housing_series(1);
    let cut = years.iter().position(|&y| y > 2006.0).expect("has 2007");
    let (train_y, train_v) = (&years[..cut], &values[..cut]);
    let actual_2011 = *values.last().expect("has 2011");
    let price_2006 = train_v[cut - 1];

    // Shallow model: trend + AR(1), the paper's failing extrapolation.
    let shallow = TrendAr1Model::fit(train_y, train_v).expect("fit");
    let shallow_2011 = shallow.extrapolate(5);

    // Expert model: regime-aware simulation from the 2006 state.
    let sims = expert_simulation(0.045, price_2006, 2006.0, 5, 2000, 2);
    let expert_mean = Summary::from_slice(&sims).mean();
    let expert_lo = quantile(&sims, 0.05).expect("quantile");
    let expert_hi = quantile(&sims, 0.95).expect("quantile");

    let shallow_err = (shallow_2011 - actual_2011) / actual_2011 * 100.0;
    let expert_err = (expert_mean - actual_2011) / actual_2011 * 100.0;

    let mut out = String::new();
    out.push_str("E1 | Figure 1: the dangers of extrapolation\n");
    out.push_str("Synthetic boom-bust housing index; models trained on 1970-2006 only.\n\n");
    out.push_str(&crate::render_table(
        &["predictor of 2011", "value", "error vs actual"],
        &[
            vec![
                "shallow trend+AR(1) extrapolation".into(),
                crate::f(shallow_2011),
                format!("{shallow_err:+.0}%"),
            ],
            vec![
                "regime-aware simulation (mean)".into(),
                crate::f(expert_mean),
                format!("{expert_err:+.0}%"),
            ],
            vec![
                "regime-aware simulation (5%-95%)".into(),
                format!("[{}, {}]", crate::f(expert_lo), crate::f(expert_hi)),
                "-".into(),
            ],
            vec![
                "actual 2011 value".into(),
                crate::f(actual_2011),
                "0%".into(),
            ],
        ],
    ));
    out.push_str(&format!(
        "\n2006 peak: {} | the shallow model keeps extrapolating the boom ({} by 2011)\n",
        crate::f(price_2006),
        crate::f(shallow_2011),
    ));
    out.push_str(
        "Paper's claim: extrapolation 'failed spectacularly'; expert-informed simulation\n\
         brackets the collapse. Reproduced when shallow error >> expert error.\n",
    );
    out.push_str(&format!(
        "RESULT: |shallow error| = {:.0}% vs |expert error| = {:.0}% -> {}\n",
        shallow_err.abs(),
        expert_err.abs(),
        if shallow_err.abs() > 3.0 * expert_err.abs().max(1.0) {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shallow_model_overshoots_collapse() {
        let r = fig1_report();
        assert!(r.contains("REPRODUCED"), "{r}");
    }

    #[test]
    fn expert_simulation_brackets_actual() {
        let (years, values) = housing_series(1);
        let cut = years.iter().position(|&y| y > 2006.0).unwrap();
        let sims = expert_simulation(0.045, values[cut - 1], 2006.0, 5, 2000, 2);
        let actual = *values.last().unwrap();
        let lo = quantile(&sims, 0.02).unwrap();
        let hi = quantile(&sims, 0.98).unwrap();
        assert!(
            lo < actual && actual < hi,
            "actual {actual} outside [{lo}, {hi}]"
        );
    }
}
