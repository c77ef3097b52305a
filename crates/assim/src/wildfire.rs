//! A cellular wildfire-spread model with a Gaussian sensor grid — the
//! DEVS-FIRE-style substrate of the paper's data-assimilation example.
//!
//! §3.2: "\[the\] modified version of the DEVS-FIRE model simulates the
//! stochastic progression of a wildfire over a gridded representation of
//! terrain, where the current fire state records for each cell whether the
//! cell is unburned, burning, or burned and, if burning, the intensity of
//! the fire. … Based on scientific studies, the authors obtain a Gaussian
//! model of sensor behavior, which leads to a closed-form expression for
//! the observation function p(yₙ | xₙ)."
//!
//! Simulation steps advance `Δt` units "determined by the sensor
//! measurement frequencies and the model's time-scale granularity" — here
//! one step per observation, matching \[56\].

use crate::pf::{ParticleState, StateSpaceModel};
use mde_numeric::checkpoint::CheckpointError;
use mde_numeric::dist::{Continuous, Normal};
use mde_numeric::rng::Rng;

/// Per-cell fire status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFire {
    /// Fuel intact.
    Unburned,
    /// On fire; `age` counts steps burning, `intensity` in `(0, 1]`.
    Burning {
        /// Steps this cell has burned.
        age: u8,
        /// Fire intensity.
        intensity: f64,
    },
    /// Fuel exhausted.
    Burned,
}

impl CellFire {
    /// Whether the cell is burning.
    pub fn is_burning(&self) -> bool {
        matches!(self, CellFire::Burning { .. })
    }
}

/// The fire state over the whole grid.
#[derive(Debug, Clone, PartialEq)]
pub struct FireState {
    /// Row-major cells.
    pub cells: Vec<CellFire>,
}

impl FireState {
    /// Number of burning cells.
    pub fn burning_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_burning()).count()
    }

    /// Number of burned-out cells.
    #[cfg(test)]
    fn burned_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, CellFire::Burned))
            .count()
    }

    /// Cells ever touched by fire.
    #[cfg(test)]
    fn footprint(&self) -> usize {
        self.burning_count() + self.burned_count()
    }
}

/// Two floats a cell, lossless to the bit: `[-1, 0]` unburned, `[-2, 0]`
/// burned, `[age, intensity]` burning.
impl ParticleState for FireState {
    fn encode(&self, out: &mut Vec<f64>) {
        for cell in &self.cells {
            out.extend(match *cell {
                CellFire::Unburned => [-1.0, 0.0],
                CellFire::Burned => [-2.0, 0.0],
                CellFire::Burning { age, intensity } => [f64::from(age), intensity],
            });
        }
    }

    fn decode(floats: &[f64]) -> Result<Self, CheckpointError> {
        let corrupt = |reason: String| CheckpointError::Corrupt { reason };
        let pairs = floats.chunks_exact(2);
        if !pairs.remainder().is_empty() {
            let n = floats.len();
            return Err(corrupt(format!("{n} floats are not two a cell")));
        }
        let cells = pairs
            .map(|cell| match (cell[0], cell[1]) {
                (-1.0, _) => Ok(CellFire::Unburned),
                (-2.0, _) => Ok(CellFire::Burned),
                (age, intensity) if age.fract() == 0.0 && (0.0..=255.0).contains(&age) => {
                    Ok(CellFire::Burning {
                        age: age as u8,
                        intensity,
                    })
                }
                (age, _) if age >= 0.0 => Err(corrupt(format!("burning age {age} is not a u8"))),
                (tag, _) => Err(corrupt(format!("bad cell tag {tag}"))),
            })
            .collect::<Result<_, _>>()?;
        Ok(FireState { cells })
    }
}

/// Terrain and dynamics configuration.
#[derive(Debug, Clone)]
pub struct FireModelConfig {
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Per-cell fuel density in `[0, 1]` (length `width·height`);
    /// uniform fuel of 1.0 if empty.
    pub fuel: Vec<f64>,
    /// Wind vector; spread toward the wind direction is amplified.
    pub wind: (f64, f64),
    /// Base ignition probability per burning neighbor per step.
    pub spread: f64,
    /// Steps a cell burns before burning out.
    pub burn_steps: u8,
    /// Ignition cell of the prior `p₁` (with ±1 jitter).
    pub ignition: (usize, usize),
}

/// The wildfire state-space model: cellular spread dynamics plus a sensor
/// grid defining the observation function.
#[derive(Debug, Clone)]
pub struct FireModel {
    cfg: FireModelConfig,
    sensors: Vec<(usize, usize)>,
    sensor_noise_std: f64,
}

/// Ambient temperature (°C) read by a sensor over a cold cell.
pub(crate) const AMBIENT_TEMP: f64 = 20.0;
/// Temperature contribution of a full-intensity burning cell.
pub(crate) const BURNING_TEMP: f64 = 300.0;
/// Residual temperature over a burned-out cell.
pub(crate) const BURNED_TEMP: f64 = 60.0;

impl FireModel {
    /// Create a model with a regular `sx × sy` sensor grid.
    pub fn new(cfg: FireModelConfig, sensor_grid: (usize, usize), sensor_noise_std: f64) -> Self {
        assert!(cfg.width >= 2 && cfg.height >= 2, "grid too small");
        assert!(
            cfg.fuel.is_empty() || cfg.fuel.len() == cfg.width * cfg.height,
            "fuel map size mismatch"
        );
        assert!(sensor_noise_std > 0.0, "sensor noise must be positive");
        assert!(cfg.spread > 0.0 && cfg.spread < 1.0, "spread out of range");
        let (sx, sy) = sensor_grid;
        assert!(sx >= 1 && sy >= 1, "need at least one sensor");
        let mut sensors = Vec::with_capacity(sx * sy);
        for j in 0..sy {
            for i in 0..sx {
                let x = (i * 2 + 1) * cfg.width / (2 * sx);
                let y = (j * 2 + 1) * cfg.height / (2 * sy);
                sensors.push((x.min(cfg.width - 1), y.min(cfg.height - 1)));
            }
        }
        FireModel {
            cfg,
            sensors,
            sensor_noise_std,
        }
    }

    /// The sensor locations.
    pub(crate) fn sensors(&self) -> &[(usize, usize)] {
        &self.sensors
    }

    /// Grid configuration.
    pub fn config(&self) -> &FireModelConfig {
        &self.cfg
    }

    fn idx(&self, x: usize, y: usize) -> usize {
        y * self.cfg.width + x
    }

    fn fuel_at(&self, i: usize) -> f64 {
        if self.cfg.fuel.is_empty() {
            1.0
        } else {
            self.cfg.fuel[i]
        }
    }

    /// Expected (noise-free) temperature at a sensor given the state.
    fn expected_temp(&self, state: &FireState, sensor: usize) -> f64 {
        let (x, y) = self.sensors[sensor];
        match state.cells[self.idx(x, y)] {
            CellFire::Unburned => AMBIENT_TEMP,
            CellFire::Burning { intensity, .. } => AMBIENT_TEMP + BURNING_TEMP * intensity,
            CellFire::Burned => BURNED_TEMP,
        }
    }

    /// Draw a (noisy) observation vector from the state — used to
    /// synthesize "real-world" sensor streams from a ground-truth run.
    pub(crate) fn observe(&self, state: &FireState, rng: &mut Rng) -> Vec<f64> {
        (0..self.sensors.len())
            .map(|s| {
                self.expected_temp(state, s) + self.sensor_noise_std * Normal::sample_standard(rng)
            })
            .collect()
    }

    /// Simulate a ground-truth trajectory of `steps` states with matching
    /// observations.
    pub fn simulate_truth(&self, steps: usize, rng: &mut Rng) -> (Vec<FireState>, Vec<Vec<f64>>) {
        let mut states = vec![self.sample_initial(rng)];
        for _ in 1..steps {
            let prev = states.last().expect("seeded");
            states.push(self.sample_transition(prev, rng));
        }
        let obs = states.iter().map(|s| self.observe(s, rng)).collect();
        (states, obs)
    }
}

impl StateSpaceModel for FireModel {
    type State = FireState;
    type Obs = Vec<f64>;

    fn sample_initial(&self, rng: &mut Rng) -> FireState {
        let mut cells = vec![CellFire::Unburned; self.cfg.width * self.cfg.height];
        // Ignition with ±1 cell jitter (prior uncertainty about the start).
        let jx = (self.cfg.ignition.0 as i64 + rng.gen_range(-1..=1))
            .clamp(0, self.cfg.width as i64 - 1) as usize;
        let jy = (self.cfg.ignition.1 as i64 + rng.gen_range(-1..=1))
            .clamp(0, self.cfg.height as i64 - 1) as usize;
        cells[self.idx(jx, jy)] = CellFire::Burning {
            age: 0,
            intensity: 1.0,
        };
        FireState { cells }
    }

    fn sample_transition(&self, prev: &FireState, rng: &mut Rng) -> FireState {
        let (w, h) = (self.cfg.width, self.cfg.height);
        let mut next = prev.cells.clone();

        // Age burning cells.
        for c in next.iter_mut() {
            if let CellFire::Burning { age, intensity } = *c {
                *c = if age + 1 >= self.cfg.burn_steps {
                    CellFire::Burned
                } else {
                    CellFire::Burning {
                        age: age + 1,
                        // Intensity decays as fuel is consumed.
                        intensity: (intensity * 0.9).max(0.2),
                    }
                };
            }
        }

        // Ignite unburned neighbors of cells burning in `prev`.
        let wind_norm = (self.cfg.wind.0.powi(2) + self.cfg.wind.1.powi(2)).sqrt();
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let i = self.idx(x as usize, y as usize);
                if prev.cells[i] != CellFire::Unburned {
                    continue;
                }
                let mut p_not = 1.0;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let (nx, ny) = (x + dx, y + dy);
                        if nx < 0 || ny < 0 || nx >= w as i64 || ny >= h as i64 {
                            continue;
                        }
                        let ni = self.idx(nx as usize, ny as usize);
                        if let CellFire::Burning { intensity, .. } = prev.cells[ni] {
                            // Spread direction is neighbor -> this cell:
                            // (-dx, -dy). Wind alignment amplifies.
                            let align = if wind_norm > 0.0 {
                                let sl = ((dx * dx + dy * dy) as f64).sqrt();
                                (-(dx as f64) * self.cfg.wind.0 - (dy as f64) * self.cfg.wind.1)
                                    / (sl * wind_norm)
                            } else {
                                0.0
                            };
                            let wind_factor = 1.0 + 0.8 * wind_norm.min(1.0) * align;
                            let p = (self.cfg.spread
                                * intensity
                                * self.fuel_at(i)
                                * wind_factor.max(0.0))
                            .clamp(0.0, 0.999);
                            p_not *= 1.0 - p;
                        }
                    }
                }
                if p_not < 1.0 && rng.gen::<f64>() < 1.0 - p_not {
                    next[i] = CellFire::Burning {
                        age: 0,
                        intensity: 0.7 + 0.3 * rng.gen::<f64>(),
                    };
                }
            }
        }
        FireState { cells: next }
    }

    fn ln_likelihood(&self, state: &FireState, obs: &Vec<f64>) -> f64 {
        debug_assert_eq!(obs.len(), self.sensors.len());
        let noise = Normal::new(0.0, self.sensor_noise_std).expect("validated");
        obs.iter()
            .enumerate()
            .map(|(s, &y)| noise.ln_pdf(y - self.expected_temp(state, s)))
            .sum()
    }

    fn state_width(&self) -> usize {
        2 * self.cfg.width * self.cfg.height
    }
}

/// A convenient default scenario: 32×32 grid, mild easterly wind, 5×5
/// sensor grid — the scale of the paper's experiments.
pub fn default_scenario() -> FireModel {
    FireModel::new(
        FireModelConfig {
            width: 32,
            height: 32,
            fuel: Vec::new(),
            wind: (0.4, 0.1),
            spread: 0.18,
            burn_steps: 4,
            ignition: (8, 16),
        },
        (5, 5),
        8.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::rng_from_seed;

    #[test]
    fn initial_state_has_one_burning_cell_near_ignition() {
        let m = default_scenario();
        let mut rng = rng_from_seed(1);
        for _ in 0..20 {
            let s = m.sample_initial(&mut rng);
            assert_eq!(s.burning_count(), 1);
            let i = s.cells.iter().position(|c| c.is_burning()).unwrap();
            let (x, y) = (i % 32, i / 32);
            assert!((x as i64 - 8).abs() <= 1 && (y as i64 - 16).abs() <= 1);
        }
    }

    #[test]
    fn fire_spreads_then_burns_out_where_it_passed() {
        let m = default_scenario();
        let mut rng = rng_from_seed(2);
        let (states, _) = m.simulate_truth(25, &mut rng);
        let footprints: Vec<usize> = states.iter().map(|s| s.footprint()).collect();
        // Footprint is monotone (fire never unburns).
        for w in footprints.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(footprints.last().unwrap() > &30, "fire failed to spread");
        // Early cells have burned out by the end.
        assert!(states.last().unwrap().burned_count() > 0);
    }

    #[test]
    fn wind_biases_spread_direction() {
        let windy = FireModel::new(
            FireModelConfig {
                width: 40,
                height: 40,
                fuel: Vec::new(),
                wind: (1.0, 0.0), // strong easterly
                spread: 0.2,
                burn_steps: 3,
                ignition: (20, 20),
            },
            (1, 1),
            5.0,
        );
        // Average horizontal centroid drift over several runs.
        let mut drift = 0.0;
        for seed in 0..10 {
            let mut rng = rng_from_seed(100 + seed);
            let (states, _) = windy.simulate_truth(15, &mut rng);
            let centroid_x = |s: &FireState| {
                let mut sum = 0.0;
                let mut n = 0.0;
                for (i, c) in s.cells.iter().enumerate() {
                    if c.is_burning() || matches!(c, CellFire::Burned) {
                        sum += (i % 40) as f64;
                        n += 1.0;
                    }
                }
                sum / f64::max(n, 1.0)
            };
            drift += centroid_x(states.last().unwrap()) - 20.0;
        }
        assert!(drift / 10.0 > 1.0, "wind drift {}", drift / 10.0);
    }

    #[test]
    fn fuel_breaks_stop_fire() {
        // A fuel-free vertical strip at x = 10..12 blocks eastward spread.
        let (w, h) = (24usize, 12usize);
        let mut fuel = vec![1.0; w * h];
        for y in 0..h {
            for x in 10..12 {
                fuel[y * w + x] = 0.0;
            }
        }
        let m = FireModel::new(
            FireModelConfig {
                width: w,
                height: h,
                fuel,
                wind: (0.0, 0.0),
                spread: 0.35,
                burn_steps: 3,
                ignition: (3, 6),
            },
            (1, 1),
            5.0,
        );
        let mut rng = rng_from_seed(3);
        let (states, _) = m.simulate_truth(40, &mut rng);
        let last = states.last().unwrap();
        // Nothing beyond the break ever ignites. (Diagonal ignition cannot
        // jump a 2-wide break.)
        for y in 0..h {
            for x in 12..w {
                assert_eq!(
                    last.cells[y * w + x],
                    CellFire::Unburned,
                    "fire crossed the fuel break at ({x},{y})"
                );
            }
        }
        assert!(last.footprint() > 5, "fire did spread on the fuel side");
    }

    #[test]
    fn sensor_layout_covers_grid() {
        let m = default_scenario();
        assert_eq!(m.sensors().len(), 25);
        for &(x, y) in m.sensors() {
            assert!(x < 32 && y < 32);
        }
        // Sensors are distinct.
        let mut s = m.sensors().to_vec();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn likelihood_prefers_the_true_state() {
        let m = default_scenario();
        let mut rng = rng_from_seed(4);
        let (states, obs) = m.simulate_truth(12, &mut rng);
        let t = 10;
        let ll_true = m.ln_likelihood(&states[t], &obs[t]);
        // A cold (all-unburned) state explains mid-fire readings worse.
        let cold = FireState {
            cells: vec![CellFire::Unburned; 32 * 32],
        };
        let ll_cold = m.ln_likelihood(&cold, &obs[t]);
        assert!(ll_true > ll_cold, "{ll_true} vs {ll_cold}");
    }

    #[test]
    fn expected_temps_by_cell_state() {
        let m = default_scenario();
        let mut state = FireState {
            cells: vec![CellFire::Unburned; 32 * 32],
        };
        assert_eq!(m.expected_temp(&state, 0), AMBIENT_TEMP);
        let (x, y) = m.sensors()[0];
        state.cells[y * 32 + x] = CellFire::Burning {
            age: 0,
            intensity: 1.0,
        };
        assert_eq!(m.expected_temp(&state, 0), AMBIENT_TEMP + BURNING_TEMP);
        state.cells[y * 32 + x] = CellFire::Burned;
        assert_eq!(m.expected_temp(&state, 0), BURNED_TEMP);
    }
}
