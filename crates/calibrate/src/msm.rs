//! The method of simulated moments (MSM) — McFadden (1989), as presented
//! in §3.1.
//!
//! "m(θ), which is usually too complex to be calculated analytically, is
//! approximated by a simulation-based estimate m̂(θ), typically obtained by
//! averaging i.i.d. samples of Y from simulation runs having parameter
//! values equal to θ. Finally, the problem of solving Gₙ = Ȳₙ − m̂(θ) = 0
//! is usually relaxed to the problem of minimizing the generalized
//! distance J(θ) = GₙᵀWGₙ, where W is chosen to boost statistical
//! efficiency … typically an estimate of the inverse of the
//! variance-covariance matrix of Gₙ."
//!
//! The paper also notes that "regularization terms can potentially be
//! incorporated into the objective function J to avoid overfitting" —
//! implemented as an optional ridge penalty toward a prior θ.

use mde_numeric::linalg::Matrix;
use mde_numeric::optim::{nelder_mead, NelderMeadConfig, OptimResult};
use mde_numeric::rng::StreamFactory;
use std::cell::Cell;

/// The weighting matrix `W` of the generalized distance.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightMatrix {
    /// `W = I` — ordinary least squares on the moment gaps.
    Identity,
    /// Diagonal weights (e.g. inverse moment variances).
    Diagonal(Vec<f64>),
    /// A full positive-definite matrix (e.g. the inverse var-cov of `Gₙ`).
    Full(Matrix),
}

impl WeightMatrix {
    /// The quadratic form `gᵀWg`.
    fn quadratic(&self, g: &[f64]) -> f64 {
        match self {
            WeightMatrix::Identity => g.iter().map(|v| v * v).sum(),
            WeightMatrix::Diagonal(d) => {
                assert_eq!(d.len(), g.len(), "weight dimension mismatch");
                g.iter().zip(d).map(|(v, w)| w * v * v).sum()
            }
            WeightMatrix::Full(m) => {
                let wg = m.mul_vec(g).expect("weight dimension mismatch");
                g.iter().zip(&wg).map(|(a, b)| a * b).sum()
            }
        }
    }
}

/// A simulator oracle: given θ and a seed, produce one simulation run's
/// statistic vector `Y`.
pub type Simulator<'a> = dyn Fn(&[f64], u64) -> Vec<f64> + 'a;

/// An MSM calibration problem.
pub struct MsmProblem<'a> {
    observed: Vec<f64>,
    simulator: &'a Simulator<'a>,
    /// Replications averaged into `m̂(θ)`.
    pub sim_reps: usize,
    /// The weighting matrix.
    pub weight: WeightMatrix,
    /// Ridge strength λ for the penalty `λ‖θ − θ_prior‖²` (0 = none).
    pub ridge: f64,
    /// Ridge center.
    pub prior: Option<Vec<f64>>,
    /// Master seed; m̂ uses *common random numbers* across θ so the
    /// objective surface is smooth enough for Nelder–Mead.
    pub seed: u64,
    evals: Cell<usize>,
}

impl<'a> MsmProblem<'a> {
    /// Create a problem from observed statistics and a simulator.
    pub fn new(
        observed: Vec<f64>,
        simulator: &'a Simulator<'a>,
        sim_reps: usize,
        seed: u64,
    ) -> Self {
        assert!(sim_reps >= 1, "need at least one simulation replication");
        MsmProblem {
            observed,
            simulator,
            sim_reps,
            weight: WeightMatrix::Identity,
            ridge: 0.0,
            prior: None,
            seed,
            evals: Cell::new(0),
        }
    }

    /// Number of simulator invocations so far (the cost metric of the
    /// §3.1 discussion: "m̂(θ) is usually expensive to compute").
    pub fn simulator_evals(&self) -> usize {
        self.evals.get()
    }

    /// The simulated moment estimate `m̂(θ)` (average of `sim_reps` runs
    /// with common random numbers).
    fn m_hat(&self, theta: &[f64]) -> Vec<f64> {
        let factory = StreamFactory::new(self.seed);
        let mut acc: Option<Vec<f64>> = None;
        for r in 0..self.sim_reps {
            self.evals.set(self.evals.get() + 1);
            let y = (self.simulator)(theta, factory.seed_of(r as u64));
            acc = Some(match acc {
                None => y,
                Some(mut a) => {
                    assert_eq!(a.len(), y.len(), "simulator statistic arity changed");
                    for (ai, yi) in a.iter_mut().zip(y) {
                        *ai += yi;
                    }
                    a
                }
            });
        }
        let mut m = acc.expect("sim_reps >= 1");
        for v in m.iter_mut() {
            *v /= self.sim_reps as f64;
        }
        m
    }

    /// The objective `J(θ) = GᵀWG (+ λ‖θ − θ_prior‖²)`.
    pub fn objective(&self, theta: &[f64]) -> f64 {
        let m = self.m_hat(theta);
        assert_eq!(
            m.len(),
            self.observed.len(),
            "simulator returned {} statistics, observed {}",
            m.len(),
            self.observed.len()
        );
        let g: Vec<f64> = self.observed.iter().zip(&m).map(|(o, s)| o - s).collect();
        let mut j = self.weight.quadratic(&g);
        if self.ridge > 0.0 {
            if let Some(prior) = &self.prior {
                j += self.ridge
                    * theta
                        .iter()
                        .zip(prior)
                        .map(|(t, p)| (t - p) * (t - p))
                        .sum::<f64>();
            }
        }
        j
    }

    /// Estimate the efficient weight matrix at a pilot θ: simulate `reps`
    /// independent statistic vectors, estimate their var-cov matrix, and
    /// invert it (with a small diagonal ridge for stability). This is the
    /// "estimate of the inverse of the variance-covariance matrix of Gₙ"
    /// the paper describes.
    #[cfg(test)]
    fn estimate_weight(&self, theta: &[f64], reps: usize) -> mde_numeric::Result<WeightMatrix> {
        use mde_numeric::linalg::Cholesky;
        use mde_numeric::NumericError;
        if reps < 3 {
            return Err(NumericError::EmptyInput {
                context: "estimate_weight (need >= 3 replications)",
            });
        }
        let factory = StreamFactory::new(self.seed ^ 0x5ca1ab1e);
        let mut samples: Vec<Vec<f64>> = Vec::with_capacity(reps);
        for r in 0..reps {
            self.evals.set(self.evals.get() + 1);
            samples.push((self.simulator)(theta, factory.seed_of(r as u64)));
        }
        let k = samples[0].len();
        let n = reps as f64;
        let mean: Vec<f64> = (0..k)
            .map(|j| samples.iter().map(|s| s[j]).sum::<f64>() / n)
            .collect();
        let mut cov = Matrix::zeros(k, k);
        for s in &samples {
            for i in 0..k {
                for j in 0..k {
                    cov[(i, j)] += (s[i] - mean[i]) * (s[j] - mean[j]) / (n - 1.0);
                }
            }
        }
        // Stabilizing ridge relative to the diagonal scale.
        let scale = (0..k)
            .map(|i| cov[(i, i)])
            .fold(0.0f64, f64::max)
            .max(1e-12);
        for i in 0..k {
            cov[(i, i)] += 1e-6 * scale;
        }
        Ok(WeightMatrix::Full(Cholesky::new(&cov)?.inverse()?))
    }

    /// Minimize `J` with Nelder–Mead from `theta0` under an
    /// objective-evaluation budget.
    pub fn calibrate(
        &self,
        theta0: &[f64],
        max_obj_evals: usize,
    ) -> mde_numeric::Result<OptimResult> {
        nelder_mead(
            |theta| self.objective(theta),
            theta0,
            &NelderMeadConfig {
                max_evals: max_obj_evals,
                f_tol: 1e-12,
                ..NelderMeadConfig::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::dist::{Distribution, Exponential, Normal};
    use mde_numeric::rng::rng_from_seed;

    /// Simulator for the paper's exponential example: n draws of Exp(θ),
    /// statistic = sample mean.
    fn exp_simulator(theta: &[f64], seed: u64) -> Vec<f64> {
        let rate = theta[0].max(1e-6);
        let d = Exponential::new(rate).expect("positive rate");
        let mut rng = mde_numeric::rng::rng_from_seed(seed);
        let n = 200;
        vec![d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64]
    }

    #[test]
    fn msm_recovers_exponential_rate() {
        // "Observed" data from θ* = 2.
        let truth = Exponential::new(2.0).unwrap();
        let mut rng = rng_from_seed(1);
        let data = truth.sample_n(&mut rng, 5_000);
        let observed = vec![data.iter().sum::<f64>() / data.len() as f64];

        let sim: &Simulator = &exp_simulator;
        let problem = MsmProblem::new(observed, sim, 10, 7);
        let res = problem.calibrate(&[0.5], 300).unwrap();
        assert!((res.x[0] - 2.0).abs() < 0.1, "θ̂ = {}", res.x[0]);
        assert!(problem.simulator_evals() > 0);
    }

    #[test]
    fn common_random_numbers_make_objective_deterministic() {
        let sim: &Simulator = &exp_simulator;
        let problem = MsmProblem::new(vec![0.5], sim, 5, 3);
        let a = problem.objective(&[1.0]);
        let b = problem.objective(&[1.0]);
        assert_eq!(a, b, "objective must be deterministic in θ");
    }

    #[test]
    fn weight_matrix_quadratic_forms() {
        let g = [1.0, 2.0];
        assert_eq!(WeightMatrix::Identity.quadratic(&g), 5.0);
        assert_eq!(WeightMatrix::Diagonal(vec![2.0, 0.5]).quadratic(&g), 4.0);
        let w = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(WeightMatrix::Full(w).quadratic(&g), 6.0);
    }

    #[test]
    fn estimated_weight_downweights_noisy_moments() {
        // Two statistics: one precise (variance ~1e-4), one noisy
        // (variance ~1). The estimated W must weight the precise one more.
        let sim: &Simulator = &|theta: &[f64], seed: u64| {
            let mut rng = mde_numeric::rng::rng_from_seed(seed);
            let precise = theta[0] + 0.01 * Normal::sample_standard(&mut rng);
            let noisy = theta[0] + 1.0 * Normal::sample_standard(&mut rng);
            vec![precise, noisy]
        };
        let problem = MsmProblem::new(vec![1.0, 1.0], sim, 3, 11);
        let w = problem.estimate_weight(&[1.0], 200).unwrap();
        let WeightMatrix::Full(m) = &w else {
            panic!("expected full matrix")
        };
        assert!(
            m[(0, 0)] > 100.0 * m[(1, 1)],
            "weights {:?} vs {:?}",
            m[(0, 0)],
            m[(1, 1)]
        );
        assert!(problem.estimate_weight(&[1.0], 2).is_err());
    }

    #[test]
    fn full_weight_beats_identity_on_heteroscedastic_moments() {
        // Moment 1 identifies θ precisely; moment 2 is mostly noise *and
        // biased* (misspecified). Identity weighting lets the noisy moment
        // drag the estimate; efficient weighting shields it.
        type SimFn = Box<dyn Fn(&[f64], u64) -> Vec<f64>>;
        let make_sim = || -> SimFn {
            Box::new(|theta: &[f64], seed: u64| {
                let mut rng = mde_numeric::rng::rng_from_seed(seed);
                vec![
                    theta[0] + 0.01 * Normal::sample_standard(&mut rng),
                    theta[0] + 2.0 * Normal::sample_standard(&mut rng),
                ]
            })
        };
        let sim = make_sim();
        // Observed: moment 1 says θ = 1.0; moment 2 is off at 3.0.
        let observed = vec![1.0, 3.0];
        let mut id_problem = MsmProblem::new(observed.clone(), &*sim, 8, 5);
        id_problem.weight = WeightMatrix::Identity;
        let id_est = id_problem.calibrate(&[0.0], 200).unwrap().x[0];

        let mut w_problem = MsmProblem::new(observed, &*sim, 8, 5);
        w_problem.weight = w_problem.estimate_weight(&[1.0], 100).unwrap();
        let w_est = w_problem.calibrate(&[0.0], 200).unwrap().x[0];

        assert!(
            (w_est - 1.0).abs() < (id_est - 1.0).abs(),
            "weighted {w_est} should beat identity {id_est}"
        );
        assert!((w_est - 1.0).abs() < 0.1);
    }

    #[test]
    fn ridge_pulls_toward_prior() {
        // Flat, uninformative objective; ridge decides.
        let sim: &Simulator = &|_theta: &[f64], _seed: u64| vec![0.0];
        let mut problem = MsmProblem::new(vec![0.0], sim, 1, 1);
        problem.ridge = 1.0;
        problem.prior = Some(vec![2.5]);
        let res = problem.calibrate(&[10.0], 500).unwrap();
        assert!((res.x[0] - 2.5).abs() < 1e-3, "θ̂ = {}", res.x[0]);
    }
}
