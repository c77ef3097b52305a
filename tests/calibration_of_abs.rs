//! Cross-crate integration: calibrating the consumer-market ABS (§3.1).
//!
//! A ground-truth market with known θ* produces "observed" statistics; the
//! method of simulated moments recovers θ. This exercises `mde-abs`
//! (simulation), `mde-calibrate` (MSM + optimizers), and `mde-metamodel`
//! (the kriging surrogate path) together.

use model_data_ecosystems::abs::market::{MarketConfig, MarketModel, MarketParams};
use model_data_ecosystems::calibrate::kriging_cal::{kriging_calibrate, KrigingCalConfig};
use model_data_ecosystems::calibrate::msm::{MsmProblem, Simulator};
use model_data_ecosystems::calibrate::optim::Bounds;
use model_data_ecosystems::numeric::rng::{chaos_seed, rng_from_seed, splitmix64};

fn observed_statistics(cfg: MarketConfig, theta_star: &MarketParams) -> Vec<f64> {
    let mut observed = vec![0.0; 4];
    let reps = 16;
    for seed in 0..reps {
        let s = MarketModel::simulate_summary(cfg, &theta_star.to_vec(), 500 + seed);
        for (o, v) in observed.iter_mut().zip(s) {
            *o += v / reps as f64;
        }
    }
    observed
}

#[test]
fn msm_recovers_market_parameters() {
    let cfg = MarketConfig {
        n: 300,
        ticks: 30,
        ..MarketConfig::default()
    };
    let theta_star = MarketParams {
        media_reach: 0.03,
        wom_strength: 0.06,
        purchase_propensity: 0.2,
    };
    let observed = observed_statistics(cfg, &theta_star);

    let simulator: &Simulator =
        &|theta: &[f64], seed: u64| MarketModel::simulate_summary(cfg, theta, seed);
    let problem = MsmProblem::new(observed, simulator, 6, 42);
    let res = problem.calibrate(&[0.05, 0.05, 0.3], 150).unwrap();

    // The objective at the estimate is far below the start's, and the
    // recovered θ is in the right region (ABS calibration is noisy; the
    // §3.1 goal is "approximately match existing datasets").
    assert!(res.fx < problem.objective(&[0.05, 0.05, 0.3]) * 0.5);
    assert!(
        (res.x[0] - 0.03).abs() < 0.03,
        "media_reach estimate {}",
        res.x[0]
    );
    assert!(
        (res.x[2] - 0.2).abs() < 0.15,
        "purchase_propensity estimate {}",
        res.x[2]
    );
    // Simulated adoption at θ̂ matches observed adoption closely.
    let at_hat = MarketModel::simulate_summary(cfg, &res.x, 9999);
    let at_star = observed_statistics(cfg, &theta_star);
    assert!(
        (at_hat[1] - at_star[1]).abs() < 0.1,
        "adoption: fitted {} vs observed {}",
        at_hat[1],
        at_star[1]
    );
}

#[test]
fn kriging_surrogate_calibration_runs_on_abs_objective() {
    let cfg = MarketConfig {
        n: 200,
        ticks: 25,
        ..MarketConfig::default()
    };
    let theta_star = MarketParams {
        media_reach: 0.04,
        wom_strength: 0.05,
        purchase_propensity: 0.25,
    };
    let observed = observed_statistics(cfg, &theta_star);
    let simulator: &Simulator =
        &|theta: &[f64], seed: u64| MarketModel::simulate_summary(cfg, theta, seed);
    let problem = MsmProblem::new(observed, simulator, 4, 7);

    // Thirteen NOLH design seeds: the one this test always ran (held to the
    // bound on its own), and twelve derived from `MDE_CHAOS_SEED`. With 17
    // design points in three dimensions an unlucky draw ends above 0.05 at
    // about one seed in ten (before and after the GP search changed), so
    // over seeds the bound is stated on the geometric mean, at four
    // standard errors of ln J.
    let seeds = std::iter::once(11).chain((1..13).map(|i| splitmix64(chaos_seed() ^ (0xE9 + i))));
    let mut ln_j = Vec::new();
    for seed in seeds {
        let mut rng = rng_from_seed(seed);
        let res = kriging_calibrate(
            |theta, _| problem.objective(theta),
            &Bounds::new(vec![(0.005, 0.15), (0.005, 0.2), (0.05, 0.6)]).expect("valid bounds"),
            &KrigingCalConfig {
                design_runs: 17,
                infill_rounds: 3,
                ..KrigingCalConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(res.evaluated.len(), 17 + 3);
        if seed == 11 {
            // With ~20 expensive evaluations the surrogate already finds a
            // near-feasible θ (J well below the prior-free scale of the
            // moments).
            assert!(res.best.fx < 0.05, "best J = {}", res.best.fx);
        }
        ln_j.push(res.best.fx.ln());
    }
    let n = ln_j.len() as f64;
    let mean = ln_j.iter().sum::<f64>() / n;
    let se = (ln_j.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / (n - 1.0) / n).sqrt();
    assert!(
        mean + 4.0 * se < 0.05f64.ln(),
        "geometric-mean J = {} (ln J = {mean} ± {se} s.e.) over {n} design seeds",
        mean.exp()
    );
}
