//! E9 — §3.1: the ABS calibration contest.
//!
//! Ground-truth market ABS with known θ*; MSM objective; three optimizers
//! at comparable simulation budgets: random search (the baseline §3.1 says
//! heuristics vastly improve on), Nelder–Mead, the Fabretti-style genetic
//! algorithm, and the Salle–Yildizoglu DOE+kriging surrogate.

use mde_abs::market::{MarketConfig, MarketModel, MarketParams};
use mde_calibrate::kriging_cal::{kriging_calibrate, KrigingCalConfig};
use mde_calibrate::msm::{MsmProblem, Simulator};
use mde_calibrate::optim::{genetic_algorithm, random_search, Bounds, GaConfig, OptimRun};
use mde_numeric::optim::OptimResult;
use mde_numeric::resilience::RunOptions;
use mde_numeric::rng::rng_from_seed;

/// The best point of a search run to completion.
fn best_of(run: mde_calibrate::Result<OptimRun>) -> OptimResult {
    run.expect("search")
        .best
        .expect("a completed run has a best")
}

fn observed(cfg: MarketConfig, theta_star: &MarketParams) -> Vec<f64> {
    let mut obs = vec![0.0; 4];
    let reps = 16;
    for seed in 0..reps {
        let s = MarketModel::simulate_summary(cfg, &theta_star.to_vec(), 700 + seed);
        for (o, v) in obs.iter_mut().zip(s) {
            *o += v / reps as f64;
        }
    }
    obs
}

/// Regenerate the calibration contest table.
pub fn calibration_contest_report() -> String {
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
    let obs = observed(cfg, &theta_star);
    let simulator: &Simulator =
        &|theta: &[f64], seed: u64| MarketModel::simulate_summary(cfg, theta, seed);
    let bounds =
        Bounds::new(vec![(0.005, 0.15), (0.005, 0.25), (0.05, 0.6)]).expect("valid bounds");
    let err = |x: &[f64]| {
        x.iter()
            .zip(theta_star.to_vec())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    };

    let mut rows = Vec::new();

    // Random search.
    let p_rs = MsmProblem::new(obs.clone(), simulator, 4, 31);
    let rs = best_of(random_search(
        |t| p_rs.objective(t),
        &bounds,
        130,
        1,
        &RunOptions::default(),
    ));
    rows.push(vec![
        "random search".into(),
        format!("[{:.3}, {:.3}, {:.3}]", rs.x[0], rs.x[1], rs.x[2]),
        crate::f(rs.fx),
        p_rs.simulator_evals().to_string(),
        crate::f(err(&rs.x)),
    ]);

    // Nelder-Mead on the MSM objective.
    let p_nm = MsmProblem::new(obs.clone(), simulator, 4, 31);
    let nm = p_nm.calibrate(&[0.05, 0.05, 0.3], 130).expect("NM");
    rows.push(vec![
        "Nelder-Mead (MSM)".into(),
        format!("[{:.3}, {:.3}, {:.3}]", nm.x[0], nm.x[1], nm.x[2]),
        crate::f(nm.fx),
        p_nm.simulator_evals().to_string(),
        crate::f(err(&nm.x)),
    ]);

    // Genetic algorithm (Fabretti).
    let p_ga = MsmProblem::new(obs.clone(), simulator, 4, 31);
    let ga = best_of(genetic_algorithm(
        |t| p_ga.objective(t),
        &bounds,
        &GaConfig {
            population: 14,
            generations: 8,
            ..GaConfig::default()
        },
        2,
        &RunOptions::default(),
    ));
    rows.push(vec![
        "genetic algorithm (Fabretti)".into(),
        format!("[{:.3}, {:.3}, {:.3}]", ga.x[0], ga.x[1], ga.x[2]),
        crate::f(ga.fx),
        p_ga.simulator_evals().to_string(),
        crate::f(err(&ga.x)),
    ]);

    // DOE + kriging surrogate (Salle & Yildizoglu).
    let p_kc = MsmProblem::new(obs.clone(), simulator, 4, 31);
    let mut rng = rng_from_seed(3);
    let kc = kriging_calibrate(
        |t, _| p_kc.objective(t),
        &bounds,
        &KrigingCalConfig {
            design_runs: 25,
            infill_rounds: 5,
            ..KrigingCalConfig::default()
        },
        &mut rng,
    )
    .expect("kriging calibration");
    rows.push(vec![
        "NOLH + kriging (Salle-Yildizoglu)".into(),
        format!(
            "[{:.3}, {:.3}, {:.3}]",
            kc.best.x[0], kc.best.x[1], kc.best.x[2]
        ),
        crate::f(kc.best.fx),
        p_kc.simulator_evals().to_string(),
        crate::f(err(&kc.best.x)),
    ]);

    let mut out = String::new();
    out.push_str("E9 | §3.1: calibration contest on the consumer-market ABS\n");
    out.push_str(&format!(
        "true theta* = {:?}; observed stats (awareness, adoption, t-half, wom-share) = \
         [{:.3}, {:.3}, {:.3}, {:.3}]\n\n",
        theta_star.to_vec(),
        obs[0],
        obs[1],
        obs[2],
        obs[3]
    ));
    out.push_str(&crate::render_table(
        &[
            "method",
            "theta-hat",
            "J(theta-hat)",
            "sim evals",
            "||theta err||",
        ],
        &rows,
    ));
    out.push_str(
        "\nExpected shape (per §3.1): heuristics and surrogates beat random sampling at\n\
         comparable budgets; the kriging route spends far fewer expensive evaluations.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{chaos_seed, StreamFactory};
    use mde_numeric::stats::Summary;

    /// What holds at 100 evaluations from the fixed start, over 64 seed
    /// pairs drawn from `chaos_seed()` (one MSM common-random-number seed
    /// and one search seed per pair): Nelder–Mead's objective is lower than
    /// random search's *in geometric mean* — `ln J(NM) − ln J(RS)` averages
    /// −2.0, a factor of 7, and is negative by at least 4 of its standard
    /// errors (measured at master seeds 1–13: 5.3 to 7.6 s.e.). What does not
    /// hold, and is not asserted: dominance run by run. NM is bimodal at
    /// this budget (J ≈ 5e-4 when it converges, 4e-2 to 8e-2 when the
    /// simplex stalls) and loses to random search's steady ≈ 9e-3 in about
    /// a quarter of the pairs; see EXPERIMENTS.md, E9.
    #[test]
    fn nelder_mead_beats_random_search_on_objective() {
        let cfg = MarketConfig {
            n: 200,
            ticks: 25,
            ..MarketConfig::default()
        };
        let theta_star = MarketParams {
            media_reach: 0.03,
            wom_strength: 0.06,
            purchase_propensity: 0.2,
        };
        let obs = observed(cfg, &theta_star);
        let simulator: &Simulator =
            &|theta: &[f64], seed: u64| MarketModel::simulate_summary(cfg, theta, seed);
        let bounds =
            Bounds::new(vec![(0.005, 0.15), (0.005, 0.25), (0.05, 0.6)]).expect("valid bounds");
        let seeds = StreamFactory::new(chaos_seed());
        let mut ln_ratio = Summary::new();
        for pair in 0..64 {
            let crn = seeds.seed_of(2 * pair);
            let p1 = MsmProblem::new(obs.clone(), simulator, 3, crn);
            let nm = p1.calibrate(&[0.05, 0.05, 0.3], 100).unwrap();
            let p2 = MsmProblem::new(obs.clone(), simulator, 3, crn);
            let rs = best_of(random_search(
                |t| p2.objective(t),
                &bounds,
                100,
                seeds.seed_of(2 * pair + 1),
                &RunOptions::default(),
            ));
            ln_ratio.push(nm.fx.ln() - rs.fx.ln());
        }
        let se = ln_ratio.sample_std_dev() / (ln_ratio.count() as f64).sqrt();
        assert!(
            ln_ratio.mean() < -4.0 * se,
            "ln J(NM) − ln J(RS): {} ± {se}",
            ln_ratio.mean()
        );
    }
}
