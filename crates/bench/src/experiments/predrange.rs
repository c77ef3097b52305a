//! E17 — §3.1 open problem: the range of predictions for calibrated ABS
//! models (Shi & Brooks [51]), and its repair by finer-grained moments.
//!
//! Calibrate the consumer-market ABS against a *coarse* moment set (final
//! adoption only): many (media_reach, wom_strength) mixes reproduce it, but
//! they disagree about a downstream counterfactual (adoption if media is
//! cut). Adding the finer-grained moments (timing + word-of-mouth share)
//! collapses the acceptable set and the prediction range.

use mde_abs::market::{MarketConfig, MarketModel, MarketParams};
use mde_calibrate::optim::Bounds;
use mde_calibrate::range::{acceptable_set, prediction_range};
use mde_numeric::rng::rng_from_seed;

fn cfg() -> MarketConfig {
    MarketConfig {
        n: 250,
        ticks: 25,
        ..MarketConfig::default()
    }
}

fn simulate_stats(theta: &[f64]) -> Vec<f64> {
    // Average a few seeds so the objective is smooth enough for polishing.
    let mut acc = vec![0.0; 4];
    let reps = 4;
    for s in 0..reps {
        let v = MarketModel::simulate_summary(cfg(), theta, 900 + s);
        for (a, b) in acc.iter_mut().zip(v) {
            *a += b / reps as f64;
        }
    }
    acc
}

/// Counterfactual prediction: final adoption with media cut to near zero
/// (only word of mouth left) — exactly the kind of what-if the calibrated
/// model exists to answer.
fn media_blackout_adoption(theta2: &[f64]) -> f64 {
    // theta2 = (media_reach, wom_strength); propensity fixed at the
    // experiment's known truth. Media is cut to near zero.
    let params = MarketParams::from_slice(&[theta2[0], theta2[1], 0.25]);
    let blackout = [0.001, params.wom_strength, params.purchase_propensity];
    let mut acc = 0.0;
    let reps = 4;
    for s in 0..reps {
        acc += MarketModel::simulate_summary(cfg(), &blackout, 700 + s)[1] / reps as f64;
    }
    acc
}

/// Regenerate the prediction-range experiment.
pub(crate) fn prediction_range_report() -> String {
    let theta_star = [0.03, 0.08, 0.25];
    let observed = simulate_stats(&theta_star);
    // Calibrate only (media_reach, wom_strength); propensity fixed at truth
    // to keep the demonstration 2-D and fast.
    let bounds = Bounds::new(vec![(0.005, 0.12), (0.005, 0.2)]).expect("valid bounds");
    let embed = |t2: &[f64]| vec![t2[0], t2[1], theta_star[2]];

    let coarse = |t2: &[f64]| {
        let s = simulate_stats(&embed(t2));
        (s[1] - observed[1]).powi(2) // final adoption only
    };
    let fine = |t2: &[f64]| {
        let s = simulate_stats(&embed(t2));
        s.iter()
            .zip(&observed)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>() // all four moments
    };

    let mut out = String::new();
    out.push_str("E17 | §3.1 open problem: the range of predictions (Shi & Brooks [51])\n");
    out.push_str(&format!(
        "truth theta* = {theta_star:?}; counterfactual: final adoption under a media blackout\n\n"
    ));

    let mut rows = Vec::new();
    let mut widths = Vec::new();
    for (label, tol) in [
        ("coarse (adoption only)", 4e-4),
        ("fine (all 4 moments)", 4e-3),
    ] {
        let mut rng = rng_from_seed(11);
        let set = if label.starts_with("coarse") {
            acceptable_set(coarse, &bounds, tol, 33, &mut rng).expect("set")
        } else {
            acceptable_set(fine, &bounds, tol, 33, &mut rng).expect("set")
        };
        let range = prediction_range(&set, media_blackout_adoption);
        let (lo, hi) = range.unwrap_or((f64::NAN, f64::NAN));
        widths.push(hi - lo);
        rows.push(vec![
            label.to_string(),
            set.members.len().to_string(),
            format!("[{:.3}, {:.3}]", lo, hi),
            format!("{:.3}", hi - lo),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "moment set",
            "acceptable calibrations",
            "blackout-adoption range",
            "width",
        ],
        &rows,
    ));
    let truth_pred = media_blackout_adoption(&theta_star[..2]);
    out.push_str(&format!(
        "\ntrue counterfactual (at theta*): {truth_pred:.3}\n"
    ));
    out.push_str(
        "Expected shape: with coarse moments, 'multiple calibrations are all deemed\n\
         acceptable but lead to very different predictions'; the finer-grained moment\n\
         set narrows the range — the repair §3.1 calls for.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fine_moments_narrow_the_prediction_range() {
        let theta_star = [0.03, 0.08, 0.25];
        let observed = simulate_stats(&theta_star);
        let bounds = Bounds::new(vec![(0.005, 0.12), (0.005, 0.2)]).expect("valid bounds");
        let embed = |t2: &[f64]| vec![t2[0], t2[1], theta_star[2]];

        let mut rng = rng_from_seed(11);
        let coarse_set = acceptable_set(
            |t2| {
                let s = simulate_stats(&embed(t2));
                (s[1] - observed[1]).powi(2)
            },
            &bounds,
            4e-4,
            33,
            &mut rng,
        )
        .unwrap();
        let mut rng = rng_from_seed(11);
        let fine_set = acceptable_set(
            |t2| {
                let s = simulate_stats(&embed(t2));
                s.iter()
                    .zip(&observed)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum()
            },
            &bounds,
            4e-3,
            33,
            &mut rng,
        )
        .unwrap();
        assert!(
            coarse_set.members.len() >= 2,
            "coarse calibration should be under-identified ({} members)",
            coarse_set.members.len()
        );
        assert!(!fine_set.members.is_empty(), "fine set must be non-empty");
        let (clo, chi) = prediction_range(&coarse_set, media_blackout_adoption).unwrap();
        let (flo, fhi) = prediction_range(&fine_set, media_blackout_adoption).unwrap();
        assert!(
            fhi - flo < chi - clo,
            "fine range [{flo}, {fhi}] should be narrower than coarse [{clo}, {chi}]"
        );
    }
}
