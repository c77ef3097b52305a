//! Proposal distributions for the wildfire particle filter.
//!
//! §3.2 describes two generations of proposals:
//!
//! * **\[56\] (bootstrap)**: `qₙ = pₙ(xₙ|xₙ₋₁)` — "the formulas for the
//!   weights reduce to an evaluation of the observation function", but
//!   "accuracy degrades when the transition density is far from the
//!   optimal proposal". That proposal is [`crate::pf::BootstrapProposal`].
//!
//! * **\[57\] (sensor-aware)**: "the process starts by first generating a
//!   fire state x from pₙ(xₙ|xₙ₋₁) … Then, based on sensor readings,
//!   another fire state x′ is generated from x by (i) randomly igniting
//!   unburned cells … deemed to have sufficiently high sensor temperatures
//!   and (ii) 'turning off' the fire for cells where sensor temperatures
//!   are deemed sufficiently cool. Then either x or x′ is selected at
//!   random, according to a probability … based on the relative
//!   'confidence' in the sensors and in the simulation model. … To obtain
//!   analytical expressions for [the transition and proposal densities] …
//!   M > 1 additional samples are drawn … and then the density functions
//!   are estimated using a standard kernel density estimator."
//!
//! Following the paper, the KDE uses the kernel `K(x) = e^{−|x|}` (the
//! paper's example kernel). One honest simplification, documented in
//! DESIGN.md: the KDE is applied to a low-dimensional sufficient summary
//! of the fire state (burning-cell count and fire centroid) rather than
//! the full grid — a full-grid KDE is statistically vacuous at any
//! feasible `M`, and \[56\]/\[57\]'s own analysis works through exactly such
//! state summaries.

use crate::pf::{Proposal, StateSpaceModel};
use crate::wildfire::{CellFire, FireModel, FireState, AMBIENT_TEMP, BURNING_TEMP};
use mde_numeric::kde::{Bandwidth, Kernel, KernelDensity};
use mde_numeric::rng::Rng;

/// The sensor-aware proposal of Xue & Hu (WSC 2013).
#[derive(Debug, Clone, Copy)]
pub struct SensorAwareProposal {
    /// Sensor reading above which an unburned sensor cell is ignited in
    /// `x′` (e.g. ambient + half the burning signature).
    pub hot_threshold: f64,
    /// Reading below which a burning sensor cell is extinguished in `x′`.
    pub cool_threshold: f64,
    /// Probability of selecting the sensor-adjusted `x′` over the model
    /// draw `x` — the "relative confidence in the sensors and in the
    /// simulation model".
    pub sensor_confidence: f64,
    /// Auxiliary sample count `M` for the KDE density estimates.
    pub kde_samples: usize,
}

impl Default for SensorAwareProposal {
    fn default() -> Self {
        SensorAwareProposal {
            hot_threshold: AMBIENT_TEMP + 0.5 * BURNING_TEMP,
            cool_threshold: AMBIENT_TEMP + 15.0,
            sensor_confidence: 0.5,
            kde_samples: 8,
        }
    }
}

impl SensorAwareProposal {
    /// The sensor-adjusted state `x′`: ignite hot unburned sensor cells,
    /// extinguish cool burning sensor cells.
    fn adjust(&self, model: &FireModel, x: &FireState, obs: &[f64], rng: &mut Rng) -> FireState {
        let mut cells = x.cells.clone();
        let w = model.config().width;
        for (s, &(sx, sy)) in model.sensors().iter().enumerate() {
            let i = sy * w + sx;
            if obs[s] > self.hot_threshold && cells[i] == CellFire::Unburned {
                // "randomly igniting": ignite with probability rising in
                // the excess temperature.
                let excess = (obs[s] - self.hot_threshold) / BURNING_TEMP;
                if rng.gen::<f64>() < (0.5 + excess).min(1.0) {
                    cells[i] = CellFire::Burning {
                        age: 0,
                        intensity: ((obs[s] - AMBIENT_TEMP) / BURNING_TEMP).clamp(0.2, 1.0),
                    };
                }
            } else if obs[s] < self.cool_threshold {
                if let CellFire::Burning { .. } = cells[i] {
                    cells[i] = CellFire::Burned; // "turning off" the fire
                }
            }
        }
        FireState { cells }
    }

    /// Low-dimensional summary for the KDE: burning count plus centroid.
    fn summary(model: &FireModel, s: &FireState) -> [f64; 3] {
        let w = model.config().width;
        let (mut n, mut cx, mut cy) = (0.0, 0.0, 0.0);
        for (i, c) in s.cells.iter().enumerate() {
            if c.is_burning() {
                n += 1.0;
                cx += (i % w) as f64;
                cy += (i / w) as f64;
            }
        }
        if n > 0.0 {
            [n, cx / n, cy / n]
        } else {
            [0.0, -1.0, -1.0]
        }
    }

    /// KDE log-density of `target`'s summary given `M` auxiliary draws,
    /// with the paper's Laplacian kernel, as a product over coordinates.
    fn ln_kde(model: &FireModel, draws: &[FireState], target: &FireState) -> f64 {
        let t = Self::summary(model, target);
        (0..3)
            .map(|k| {
                let coords: Vec<f64> = draws.iter().map(|d| Self::summary(model, d)[k]).collect();
                KernelDensity::new(&coords, Kernel::Laplacian, Bandwidth::Silverman)
                    .expect("non-empty auxiliary sample")
                    .ln_eval(t[k])
            })
            .sum()
    }
}

impl Proposal<FireModel> for SensorAwareProposal {
    fn sample(
        &self,
        model: &FireModel,
        prev: Option<&FireState>,
        obs: &Vec<f64>,
        rng: &mut Rng,
    ) -> FireState {
        let x = match prev {
            None => model.sample_initial(rng),
            Some(p) => model.sample_transition(p, rng),
        };
        let x_prime = self.adjust(model, &x, obs, rng);
        if rng.gen::<f64>() < self.sensor_confidence {
            x_prime
        } else {
            x
        }
    }

    fn ln_weight(
        &self,
        model: &FireModel,
        prev: Option<&FireState>,
        state: &FireState,
        obs: &Vec<f64>,
        rng: &mut Rng,
    ) -> f64 {
        // α = p(y|x) · p̂(x|prev) / q̂(x|prev, y), with the two densities
        // estimated by KDE over M auxiliary draws (Step 8 of Algorithm 2 in
        // the sensor-aware variant).
        let ll = model.ln_likelihood(state, obs);
        let m = self.kde_samples.max(2);
        let transition_draws: Vec<FireState> = (0..m)
            .map(|_| match prev {
                None => model.sample_initial(rng),
                Some(p) => model.sample_transition(p, rng),
            })
            .collect();
        let proposal_draws: Vec<FireState> =
            (0..m).map(|_| self.sample(model, prev, obs, rng)).collect();
        let ln_p = Self::ln_kde(model, &transition_draws, state);
        let ln_q = Self::ln_kde(model, &proposal_draws, state);
        ll + ln_p - ln_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pf::{BootstrapProposal, ParticleFilter};
    use crate::wildfire::default_scenario;
    use mde_numeric::resilience::RunOptions;
    use mde_numeric::rng::{chaos_seed, rng_from_seed, StreamFactory};
    use mde_numeric::stats::Summary;

    #[test]
    fn adjust_ignites_hot_and_extinguishes_cool_sensor_cells() {
        let model = default_scenario();
        let prop = SensorAwareProposal {
            sensor_confidence: 1.0,
            ..SensorAwareProposal::default()
        };
        let w = model.config().width;
        let n_cells = w * model.config().height;
        // Cold state + a very hot reading at sensor 0: ignition expected
        // (probability 0.5 + excess, here ≈ 1).
        let cold = FireState {
            cells: vec![CellFire::Unburned; n_cells],
        };
        let mut obs = vec![AMBIENT_TEMP; model.sensors().len()];
        obs[0] = AMBIENT_TEMP + BURNING_TEMP;
        let mut rng = rng_from_seed(1);
        let adjusted = prop.adjust(&model, &cold, &obs, &mut rng);
        let (sx, sy) = model.sensors()[0];
        assert!(adjusted.cells[sy * w + sx].is_burning());

        // Burning sensor cell + cool reading: extinguished.
        let mut hot = cold.clone();
        hot.cells[sy * w + sx] = CellFire::Burning {
            age: 1,
            intensity: 1.0,
        };
        let cool_obs = vec![AMBIENT_TEMP; model.sensors().len()];
        let adjusted = prop.adjust(&model, &hot, &cool_obs, &mut rng);
        assert_eq!(adjusted.cells[sy * w + sx], CellFire::Burned);
    }

    #[test]
    fn zero_confidence_reduces_to_model_draws() {
        let model = default_scenario();
        let prop = SensorAwareProposal {
            sensor_confidence: 0.0,
            ..SensorAwareProposal::default()
        };
        let mut rng = rng_from_seed(2);
        let obs = vec![AMBIENT_TEMP; model.sensors().len()];
        // With confidence 0 the sample is exactly a prior/transition draw:
        // one burning cell near the ignition point.
        for _ in 0..10 {
            let s = prop.sample(&model, None, &obs, &mut rng);
            assert_eq!(s.burning_count(), 1);
        }
    }

    #[test]
    fn summaries_separate_distinct_fires() {
        let model = default_scenario();
        let n_cells = 32 * 32;
        let cold = FireState {
            cells: vec![CellFire::Unburned; n_cells],
        };
        let mut hot = cold.clone();
        for i in 0..40 {
            hot.cells[i] = CellFire::Burning {
                age: 0,
                intensity: 1.0,
            };
        }
        let sc = SensorAwareProposal::summary(&model, &cold);
        let sh = SensorAwareProposal::summary(&model, &hot);
        assert_eq!(sc[0], 0.0);
        assert_eq!(sh[0], 40.0);
        assert_ne!(sc[1], sh[1]);
    }

    /// The headline §3.2 result, in miniature: with a *misspecified* prior
    /// (the filter believes the fire started far from where it did), the
    /// sensor-aware proposal recovers the fire's *location* better than the
    /// bootstrap proposal. Paired over 24 (truth, filter seed) draws from
    /// `chaos_seed()`, 40 particles, 15 steps: the mean difference in
    /// centroid error is negative by at least 4 of its standard errors
    /// (measured at thirteen seeds: −2.8 to −4.1 cells, 5.8 to 9.1 s.e.).
    /// The burning-*count* error does not separate the two proposals (paired
    /// difference +2.2 ± 3.3 s.e. over 24 seeds) and is not asserted.
    #[test]
    fn sensor_aware_beats_bootstrap_under_prior_mismatch() {
        let truth_model = default_scenario(); // ignition (8, 16)
        let mut wrong_cfg = truth_model.config().clone();
        wrong_cfg.ignition = (24, 16); // filter's misbelief
        let filter_model = FireModel::new(wrong_cfg, (5, 5), 8.0);
        let aware = SensorAwareProposal {
            sensor_confidence: 0.8,
            ..SensorAwareProposal::default()
        };
        let w = truth_model.config().width;
        // Horizontal centroid of everything the fire has reached.
        let centroid_x = |s: &FireState| {
            let reached = |c: &CellFire| c.is_burning() || *c == CellFire::Burned;
            let xs: Vec<f64> = (0..s.cells.len())
                .filter(|&i| reached(&s.cells[i]))
                .map(|i| (i % w) as f64)
                .collect();
            match xs.len() {
                0 => w as f64 / 2.0,
                n => xs.iter().sum::<f64>() / n as f64,
            }
        };

        let seeds = StreamFactory::new(chaos_seed());
        let mut diff = Summary::new();
        for pair in 0..24 {
            let mut rng = seeds.stream(2 * pair);
            let (truth, obs) = truth_model.simulate_truth(15, &mut rng);
            let pf = ParticleFilter::new(40, seeds.seed_of(2 * pair + 1));
            let err = |steps: &[crate::pf::FilterStep<FireState>]| {
                steps
                    .iter()
                    .zip(&truth)
                    .map(|(s, t)| (s.estimate(centroid_x) - centroid_x(t)).abs())
                    .sum::<f64>()
                    / truth.len() as f64
            };
            let opts = RunOptions::default();
            let boot = pf
                .run(&filter_model, &BootstrapProposal, &obs, &opts)
                .unwrap();
            let sa = pf.run(&filter_model, &aware, &obs, &opts).unwrap();
            diff.push(err(&sa.steps) - err(&boot.steps));
        }
        let se = diff.sample_std_dev() / (diff.count() as f64).sqrt();
        assert!(
            diff.mean() < -4.0 * se,
            "sensor-aware minus bootstrap centroid error: {} ± {se}",
            diff.mean()
        );
    }

    #[test]
    fn weights_are_finite() {
        let model = default_scenario();
        let prop = SensorAwareProposal::default();
        let mut rng = rng_from_seed(3);
        let (_, obs) = model.simulate_truth(5, &mut rng);
        let x = prop.sample(&model, None, &obs[0], &mut rng);
        let lw = prop.ln_weight(&model, None, &x, &obs[0], &mut rng);
        assert!(lw.is_finite(), "ln weight {lw}");
    }
}
