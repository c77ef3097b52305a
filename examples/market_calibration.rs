//! Calibrating an agent-based model against data — §3.1 of the paper.
//!
//! "Agent-based simulations can be viewed as a powerful tool for data
//! integration … The key is then to calibrate the model … to approximately
//! match existing datasets."
//!
//! A ground-truth consumer-market ABS (known θ*) generates "observed"
//! summary statistics; a blind calibration then recovers θ by the method
//! of simulated moments, comparing the three optimizers §3.1 discusses at
//! matched simulation budgets: Nelder–Mead, a genetic algorithm
//! (Fabretti), and the DOE + kriging surrogate (Salle & Yildizoglu).
//!
//! Run with: `cargo run --release --example market_calibration`

use model_data_ecosystems::abs::market::{MarketConfig, MarketModel, MarketParams};
use model_data_ecosystems::calibrate::kriging_cal::{kriging_calibrate, KrigingCalConfig};
use model_data_ecosystems::calibrate::msm::{MsmProblem, Simulator};
use model_data_ecosystems::calibrate::optim::{genetic_algorithm, Bounds, GaConfig};
use model_data_ecosystems::numeric::resilience::RunOptions;
use model_data_ecosystems::numeric::rng::rng_from_seed;

fn main() {
    let cfg = MarketConfig::default();
    let theta_star = MarketParams {
        media_reach: 0.02,
        wom_strength: 0.05,
        purchase_propensity: 0.15,
    };

    // "Observed data": summary statistics of the true market, averaged
    // over several independent observations (a brand tracker + sales data
    // + social tracking, reduced to moments).
    let mut observed = vec![0.0; 4];
    let obs_reps = 20;
    for seed in 0..obs_reps {
        let s = MarketModel::simulate_summary(cfg, &theta_star.to_vec(), 1000 + seed);
        for (o, v) in observed.iter_mut().zip(s) {
            *o += v / obs_reps as f64;
        }
    }
    println!("observed statistics (awareness, adoption, t-half, wom-share):");
    println!("  {observed:.4?}");
    println!("true theta*: {:?}\n", theta_star.to_vec());

    let simulator: &Simulator =
        &|theta: &[f64], seed: u64| MarketModel::simulate_summary(cfg, theta, seed);
    let bounds = Bounds::new(vec![(0.005, 0.2), (0.005, 0.3), (0.05, 0.8)]).expect("valid bounds");

    // ---- Method 1: MSM + Nelder-Mead.
    let problem = MsmProblem::new(observed.clone(), simulator, 5, 99);
    let nm = problem.calibrate(&[0.05, 0.05, 0.3], 120).expect("NM run");
    let nm_evals = problem.simulator_evals();

    // ---- Method 2: MSM objective + genetic algorithm.
    let problem_ga = MsmProblem::new(observed.clone(), simulator, 5, 99);
    let ga = genetic_algorithm(
        |theta| problem_ga.objective(theta),
        &bounds,
        &GaConfig {
            population: 16,
            generations: 8,
            ..GaConfig::default()
        },
        5,
        &RunOptions::default(),
    )
    .expect("GA run")
    .best
    .expect("a completed run has a best");
    let ga_evals = problem_ga.simulator_evals();

    // ---- Method 3: DOE + kriging surrogate.
    let problem_kc = MsmProblem::new(observed.clone(), simulator, 5, 99);
    let mut rng = rng_from_seed(6);
    let kc = kriging_calibrate(
        |theta, _rep| problem_kc.objective(theta),
        &bounds,
        &KrigingCalConfig {
            design_runs: 33,
            infill_rounds: 5,
            ..KrigingCalConfig::default()
        },
        &mut rng,
    )
    .expect("kriging calibration");
    let kc_evals = problem_kc.simulator_evals();

    // ---- Report.
    let err = |x: &[f64]| {
        x.iter()
            .zip(theta_star.to_vec())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    };
    println!(
        "method            theta-hat                              J(theta)   sim-evals  ||err||"
    );
    println!(
        "nelder-mead       [{:.4}, {:.4}, {:.4}]   {:>10.6}  {:>9}  {:.4}",
        nm.x[0],
        nm.x[1],
        nm.x[2],
        nm.fx,
        nm_evals,
        err(&nm.x)
    );
    println!(
        "genetic (Fabretti)[{:.4}, {:.4}, {:.4}]   {:>10.6}  {:>9}  {:.4}",
        ga.x[0],
        ga.x[1],
        ga.x[2],
        ga.fx,
        ga_evals,
        err(&ga.x)
    );
    println!(
        "kriging (S&Y)     [{:.4}, {:.4}, {:.4}]   {:>10.6}  {:>9}  {:.4}",
        kc.best.x[0],
        kc.best.x[1],
        kc.best.x[2],
        kc.best.fx,
        kc_evals,
        err(&kc.best.x)
    );
}
