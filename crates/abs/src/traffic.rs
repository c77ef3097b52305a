//! The Nagel–Schreckenberg traffic model with lane changing — Bonabeau's
//! motivating example from the paper's introduction.
//!
//! "We slow down at certain rates when someone appears in front of us …
//! we accelerate to a driver-dependent 'comfortable' speed when the road
//! is clear … we may switch lanes if they are open … simple agent-based
//! simulations that incorporate such behavior can accurately imitate
//! traffic jams observed in the real world."
//!
//! The classic NaSch cellular automaton implements exactly those rules:
//! accelerate toward a per-driver maximum, brake to the gap ahead,
//! randomly slow with probability `p_slow` (the rule that produces
//! spontaneous "phantom" jams), move. Multi-lane operation adds a lane
//! change phase. The data-side deliverable is the **fundamental diagram**
//! (flow vs density), whose inverted-V shape with a free-flow branch and a
//! congested branch is the signature of real traffic.

use crate::engine::StepModel;
use crate::error::AbsError;
use mde_numeric::rng::{rng_from_seed, Rng};

/// Configuration of a circular multi-lane road.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of lanes (≥ 1).
    pub lanes: usize,
    /// Road length in cells (one cell ≈ 7.5 m in the classic calibration).
    pub length: usize,
    /// Car density in `(0, 1)` (cars per cell).
    pub density: f64,
    /// Inclusive range of per-driver "comfortable" top speeds, in
    /// cells/tick (driver-dependent, per the paper's description).
    pub v_max: (u32, u32),
    /// Random slowdown probability (NaSch noise).
    pub p_slow: f64,
    /// Probability of taking an advantageous, safe lane change.
    pub p_change: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            lanes: 1,
            length: 200,
            density: 0.2,
            v_max: (5, 5),
            p_slow: 0.25,
            p_change: 0.5,
        }
    }
}

impl TrafficConfig {
    /// Typed validation of the road configuration: a degenerate road,
    /// a density outside `(0, 1)`, a bad top-speed range, or an invalid
    /// probability is rejected with a fatal [`AbsError::InvalidConfig`]
    /// instead of a panic, so a supervised campaign can surface bad
    /// input as a classified error.
    pub(crate) fn validate(&self) -> Result<(), AbsError> {
        let reject = |reason: String| {
            Err(AbsError::InvalidConfig {
                context: "traffic model",
                reason,
            })
        };
        if self.lanes < 1 || self.length < 2 {
            return reject("degenerate road".into());
        }
        if !(self.density > 0.0 && self.density < 1.0) {
            return reject(format!("density must be in (0,1), got {}", self.density));
        }
        if self.v_max.0 < 1 || self.v_max.0 > self.v_max.1 {
            return reject("bad v_max range".into());
        }
        if !(0.0..=1.0).contains(&self.p_slow) || !(0.0..=1.0).contains(&self.p_change) {
            return reject(format!(
                "probabilities must be in [0,1], got p_slow={}, p_change={}",
                self.p_slow, self.p_change
            ));
        }
        Ok(())
    }
}

/// A car: lane, position, speed, and its driver's comfortable top speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Car {
    /// Lane index.
    pub lane: usize,
    /// Cell position along the ring.
    pub pos: usize,
    /// Current speed in cells/tick.
    pub v: u32,
    /// Driver-dependent comfortable top speed.
    pub v_max: u32,
}

/// Per-tick observation of the traffic state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficObs {
    /// Mean speed over all cars (cells/tick).
    pub mean_speed: f64,
    /// Fraction of cars standing still.
    pub stopped_fraction: f64,
    /// Cars that crossed the lap boundary this tick (flow, cars/tick).
    pub flow: f64,
    /// Size of the largest contiguous queue of stopped cars (jam size).
    pub largest_jam: usize,
}

/// The traffic simulation.
#[derive(Debug, Clone)]
pub struct TrafficModel {
    cfg: TrafficConfig,
    /// `grid[lane][cell]` holds the index of the occupying car.
    grid: Vec<Vec<Option<usize>>>,
    cars: Vec<Car>,
    last_flow: usize,
}

impl TrafficModel {
    /// Populate a road uniformly at random at the configured density.
    pub fn new(cfg: TrafficConfig, seed: u64) -> Self {
        TrafficModel::try_new(cfg, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: [`TrafficConfig::validate`] then build.
    pub(crate) fn try_new(cfg: TrafficConfig, seed: u64) -> Result<Self, AbsError> {
        cfg.validate()?;
        let mut rng = rng_from_seed(seed);
        let n_cells = cfg.lanes * cfg.length;
        let n_cars =
            ((n_cells as f64 * cfg.density).round() as usize).clamp(1, n_cells - cfg.lanes);
        // Sample distinct cells by shuffling cell ids.
        let mut cells: Vec<usize> = (0..n_cells).collect();
        for i in (1..cells.len()).rev() {
            let j = rng.gen_range(0..=i);
            cells.swap(i, j);
        }
        let mut grid = vec![vec![None; cfg.length]; cfg.lanes];
        let mut cars = Vec::with_capacity(n_cars);
        for (idx, &cell) in cells.iter().take(n_cars).enumerate() {
            let lane = cell / cfg.length;
            let pos = cell % cfg.length;
            let v_max = rng.gen_range(cfg.v_max.0..=cfg.v_max.1);
            grid[lane][pos] = Some(idx);
            cars.push(Car {
                lane,
                pos,
                v: 0,
                v_max,
            });
        }
        Ok(TrafficModel {
            cfg,
            grid,
            cars,
            last_flow: 0,
        })
    }

    /// The cars.
    #[cfg(test)]
    fn cars(&self) -> &[Car] {
        &self.cars
    }

    /// Distance (in cells) to the next occupied cell ahead in `lane`,
    /// capped at `max + 1`; i.e. the number of empty cells in front.
    fn gap_ahead(&self, lane: usize, pos: usize, max: u32) -> u32 {
        for d in 1..=max + 1 {
            let p = (pos + d as usize) % self.cfg.length;
            if self.grid[lane][p].is_some() {
                return d - 1;
            }
        }
        max + 1
    }

    /// Distance to the nearest car *behind* in `lane` (for lane-change
    /// safety), capped at `max + 1`.
    fn gap_behind(&self, lane: usize, pos: usize, max: u32) -> u32 {
        for d in 1..=max + 1 {
            let p = (pos + self.cfg.length - d as usize) % self.cfg.length;
            if self.grid[lane][p].is_some() {
                return d - 1;
            }
        }
        max + 1
    }

    fn lane_change_phase(&mut self, rng: &mut Rng) {
        if self.cfg.lanes < 2 {
            return;
        }
        for i in 0..self.cars.len() {
            let car = self.cars[i];
            let want = car.v + 1;
            let gap_here = self.gap_ahead(car.lane, car.pos, want);
            if gap_here >= want {
                continue; // no incentive
            }
            // Try adjacent lanes in a random order.
            let mut candidates: Vec<usize> = Vec::with_capacity(2);
            if car.lane > 0 {
                candidates.push(car.lane - 1);
            }
            if car.lane + 1 < self.cfg.lanes {
                candidates.push(car.lane + 1);
            }
            if candidates.len() == 2 && rng.gen::<bool>() {
                candidates.swap(0, 1);
            }
            for target in candidates {
                if self.grid[target][car.pos].is_some() {
                    continue;
                }
                let gap_there = self.gap_ahead(target, car.pos, want);
                // Safety: a follower in the target lane must not be forced
                // to brake — require its anticipated travel to fit.
                let back_safe =
                    self.gap_behind(target, car.pos, self.cfg.v_max.1) >= self.cfg.v_max.1;
                if gap_there > gap_here && back_safe && rng.gen::<f64>() < self.cfg.p_change {
                    self.grid[car.lane][car.pos] = None;
                    self.grid[target][car.pos] = Some(i);
                    self.cars[i].lane = target;
                    break;
                }
            }
        }
    }
}

impl StepModel for TrafficModel {
    type Observation = TrafficObs;

    fn step(&mut self, rng: &mut Rng) {
        // Phase 0: lane changes (sequential, immediately applied).
        self.lane_change_phase(rng);

        // Phases 1-3 (synchronous): accelerate, brake to gap, random slow.
        let mut new_v = Vec::with_capacity(self.cars.len());
        for car in &self.cars {
            let mut v = (car.v + 1).min(car.v_max); // accelerate to comfort
            let gap = self.gap_ahead(car.lane, car.pos, v);
            v = v.min(gap); // slow down when someone appears in front
            if v > 0 && rng.gen::<f64>() < self.cfg.p_slow {
                v -= 1; // random imperfection: the jam seed
            }
            new_v.push(v);
        }

        // Phase 4: synchronous movement.
        let mut flow = 0usize;
        for lane in self.grid.iter_mut() {
            lane.iter_mut().for_each(|c| *c = None);
        }
        for (i, car) in self.cars.iter_mut().enumerate() {
            car.v = new_v[i];
            let new_pos = car.pos + car.v as usize;
            if new_pos >= self.cfg.length {
                flow += 1; // lap-boundary crossing
            }
            car.pos = new_pos % self.cfg.length;
            debug_assert!(self.grid[car.lane][car.pos].is_none(), "collision");
            self.grid[car.lane][car.pos] = Some(i);
        }
        self.last_flow = flow;
    }

    fn observe(&self) -> TrafficObs {
        let n = self.cars.len().max(1) as f64;
        let mean_speed = self.cars.iter().map(|c| c.v as f64).sum::<f64>() / n;
        let stopped = self.cars.iter().filter(|c| c.v == 0).count();

        // Largest contiguous run of occupied-by-stopped-car cells per lane.
        let mut largest = 0usize;
        for lane in 0..self.cfg.lanes {
            let stopped_at = |p: usize| {
                self.grid[lane][p]
                    .map(|i| self.cars[i].v == 0)
                    .unwrap_or(false)
            };
            let mut run = 0usize;
            // Scan twice around the ring to catch wrap-around jams; cap run
            // growth at length.
            for k in 0..2 * self.cfg.length {
                if stopped_at(k % self.cfg.length) {
                    run = (run + 1).min(self.cfg.length);
                    largest = largest.max(run);
                } else {
                    run = 0;
                }
            }
        }

        TrafficObs {
            mean_speed,
            stopped_fraction: stopped as f64 / n,
            flow: self.last_flow as f64,
            largest_jam: largest,
        }
    }
}

/// Sweep densities and measure the steady-state fundamental diagram:
/// returns `(density, mean flow per lane per tick, mean speed)` rows.
/// `warmup` ticks are discarded; flow is averaged over `measure` ticks.
pub fn fundamental_diagram(
    base: &TrafficConfig,
    densities: &[f64],
    warmup: usize,
    measure: usize,
    seed: u64,
) -> Vec<(f64, f64, f64)> {
    densities
        .iter()
        .map(|&density| {
            let cfg = TrafficConfig { density, ..*base };
            let mut model = TrafficModel::new(cfg, seed);
            let mut rng = rng_from_seed(seed ^ 0x5eed);
            for _ in 0..warmup {
                model.step(&mut rng);
            }
            let mut flow = 0.0;
            let mut speed = 0.0;
            for _ in 0..measure {
                model.step(&mut rng);
                let obs = model.observe();
                flow += obs.flow;
                speed += obs.mean_speed;
            }
            (
                density,
                flow / (measure as f64 * cfg.lanes as f64),
                speed / measure as f64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_model;

    #[test]
    fn construction_places_cars_consistently() {
        let m = TrafficModel::new(TrafficConfig::default(), 1);
        let occupied: usize = m.grid.iter().flatten().filter(|c| c.is_some()).count();
        assert_eq!(occupied, m.cars.len());
        assert_eq!(m.cars.len(), 40); // 200 cells * 0.2
        for (i, c) in m.cars().iter().enumerate() {
            assert_eq!(m.grid[c.lane][c.pos], Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_bad_density() {
        TrafficModel::new(
            TrafficConfig {
                density: 0.0,
                ..TrafficConfig::default()
            },
            1,
        );
    }

    #[test]
    fn try_new_rejects_bad_configs_with_typed_errors() {
        let bad = |cfg: TrafficConfig| match TrafficModel::try_new(cfg, 1) {
            Err(AbsError::InvalidConfig { context, reason }) => {
                assert_eq!(context, "traffic model");
                reason
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| "model")),
        };
        let base = TrafficConfig::default();
        assert!(bad(TrafficConfig {
            density: 1.5,
            ..base
        })
        .contains("density"));
        assert!(bad(TrafficConfig { length: 1, ..base }).contains("degenerate"));
        assert!(bad(TrafficConfig {
            v_max: (3, 2),
            ..base
        })
        .contains("v_max"));
        assert!(bad(TrafficConfig {
            p_slow: -0.1,
            ..base
        })
        .contains("p_slow"));
        assert!(TrafficModel::try_new(base, 1).is_ok());
    }

    #[test]
    fn no_collisions_over_long_run() {
        let mut m = TrafficModel::new(
            TrafficConfig {
                lanes: 2,
                density: 0.3,
                ..TrafficConfig::default()
            },
            2,
        );
        let mut rng = rng_from_seed(3);
        for _ in 0..500 {
            m.step(&mut rng);
            // Each car in its recorded cell, and each cell at most one car.
            let mut seen = vec![vec![false; m.cfg.length]; m.cfg.lanes];
            for c in m.cars() {
                assert!(!seen[c.lane][c.pos], "two cars in one cell");
                seen[c.lane][c.pos] = true;
            }
        }
    }

    #[test]
    fn free_flow_at_low_density() {
        // Sparse road, no noise: everyone reaches comfortable speed.
        let mut m = TrafficModel::new(
            TrafficConfig {
                density: 0.03,
                p_slow: 0.0,
                ..TrafficConfig::default()
            },
            4,
        );
        let obs = run_model(&mut m, 50, 5);
        let last = obs.last().unwrap();
        assert!(
            (last.mean_speed - 5.0).abs() < 0.2,
            "free-flow speed {}",
            last.mean_speed
        );
        assert_eq!(last.stopped_fraction, 0.0);
    }

    #[test]
    fn jams_emerge_at_high_density() {
        let mut m = TrafficModel::new(
            TrafficConfig {
                density: 0.5,
                ..TrafficConfig::default()
            },
            6,
        );
        let obs = run_model(&mut m, 200, 7);
        let last = obs.last().unwrap();
        assert!(last.mean_speed < 1.5, "congested speed {}", last.mean_speed);
        assert!(last.stopped_fraction > 0.2);
        assert!(last.largest_jam >= 3, "largest jam {}", last.largest_jam);
    }

    #[test]
    fn phantom_jams_from_noise_alone() {
        // Moderate density: without noise traffic flows; with noise,
        // spontaneous jams appear — the NaSch signature.
        let base = TrafficConfig {
            density: 0.25,
            ..TrafficConfig::default()
        };
        let measure = |p_slow: f64| {
            let mut m = TrafficModel::new(TrafficConfig { p_slow, ..base }, 8);
            let obs = run_model(&mut m, 300, 9);
            obs.iter()
                .skip(100)
                .map(|o| o.stopped_fraction)
                .sum::<f64>()
                / 200.0
        };
        let calm = measure(0.0);
        let noisy = measure(0.3);
        assert!(
            noisy > calm + 0.05,
            "noise did not create jams: {calm} vs {noisy}"
        );
    }

    #[test]
    fn fundamental_diagram_has_inverted_v_shape() {
        let rows = fundamental_diagram(
            &TrafficConfig::default(),
            &[0.05, 0.15, 0.5, 0.8],
            200,
            300,
            10,
        );
        let flows: Vec<f64> = rows.iter().map(|r| r.1).collect();
        // Rising branch then falling branch.
        assert!(flows[1] > flows[0], "rising branch: {flows:?}");
        assert!(flows[1] > flows[3], "falling branch: {flows:?}");
        assert!(
            flows[2] > flows[3],
            "monotone decline in congestion: {flows:?}"
        );
        // Speeds decrease with density.
        assert!(rows[0].2 > rows[2].2 && rows[2].2 > rows[3].2);
    }

    #[test]
    fn lane_changes_improve_throughput() {
        // Two lanes with mixed driver speeds: allowing lane changes should
        // raise mean speed vs forbidding them.
        let base = TrafficConfig {
            lanes: 2,
            density: 0.15,
            v_max: (3, 5),
            p_slow: 0.1,
            ..TrafficConfig::default()
        };
        let mean_speed = |p_change: f64| {
            let mut m = TrafficModel::new(TrafficConfig { p_change, ..base }, 11);
            let obs = run_model(&mut m, 400, 12);
            obs.iter().skip(100).map(|o| o.mean_speed).sum::<f64>() / 300.0
        };
        let with = mean_speed(1.0);
        let without = mean_speed(0.0);
        assert!(
            with > without,
            "lane changing did not help: {with} vs {without}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrafficConfig {
            lanes: 2,
            ..TrafficConfig::default()
        };
        let run = |seed| {
            let mut m = TrafficModel::new(cfg, 1);
            run_model(&mut m, 50, seed).last().copied().unwrap()
        };
        assert_eq!(run(5), run(5));
    }
}
