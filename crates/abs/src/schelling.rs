//! Schelling's dynamic model of segregation — reference \[48\] of the paper,
//! cited as the root of agent-based simulation ("with roots going back at
//! least to the 1970's").
//!
//! Two groups of agents live on a grid; an agent is *unhappy* when the
//! fraction of like-group neighbors falls below its tolerance threshold,
//! and unhappy agents relocate to random empty cells. The famous result:
//! even mild individual preferences (e.g. threshold 0.3) produce strong
//! global segregation — exactly the "domain knowledge creates macro
//! behavior" point the paper's introduction makes.

use crate::engine::StepModel;
use mde_numeric::rng::{rng_from_seed, Rng};

/// Cell contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellState {
    /// No agent.
    Empty,
    /// Group-A agent.
    GroupA,
    /// Group-B agent.
    GroupB,
}

/// Configuration for the segregation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchellingConfig {
    /// Grid side length (the grid is `side × side`, toroidal).
    pub side: usize,
    /// Fraction of cells left empty.
    pub empty_fraction: f64,
    /// Minimum like-neighbor fraction an agent tolerates.
    pub threshold: f64,
}

impl Default for SchellingConfig {
    fn default() -> Self {
        SchellingConfig {
            side: 40,
            empty_fraction: 0.1,
            threshold: 0.3,
        }
    }
}

/// Per-step observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchellingObs {
    /// Mean like-neighbor fraction over agents with at least one neighbor
    /// (the segregation index).
    pub segregation: f64,
    /// Fraction of agents currently unhappy.
    pub unhappy_fraction: f64,
    /// Moves performed in the last step.
    pub moves: usize,
}

/// The segregation simulation.
#[derive(Debug, Clone)]
pub struct SchellingModel {
    cfg: SchellingConfig,
    grid: Vec<CellState>,
    last_moves: usize,
}

impl SchellingModel {
    /// Random 50/50 initial placement with the configured vacancy rate.
    pub fn new(cfg: SchellingConfig, seed: u64) -> Self {
        assert!(cfg.side >= 3, "grid too small");
        assert!(
            (0.01..0.9).contains(&cfg.empty_fraction),
            "empty fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.threshold),
            "threshold out of range"
        );
        let mut rng = rng_from_seed(seed);
        let n = cfg.side * cfg.side;
        let mut grid: Vec<CellState> = (0..n)
            .map(|i| {
                if (i as f64) < n as f64 * cfg.empty_fraction {
                    CellState::Empty
                } else if i % 2 == 0 {
                    CellState::GroupA
                } else {
                    CellState::GroupB
                }
            })
            .collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            grid.swap(i, j);
        }
        SchellingModel {
            cfg,
            grid,
            last_moves: 0,
        }
    }

    /// Access the grid (row-major).
    #[cfg(test)]
    fn grid(&self) -> &[CellState] {
        &self.grid
    }

    fn neighbors(&self, idx: usize) -> impl Iterator<Item = usize> + '_ {
        let side = self.cfg.side as isize;
        let (r, c) = (
            (idx / self.cfg.side) as isize,
            (idx % self.cfg.side) as isize,
        );
        [-1isize, 0, 1]
            .into_iter()
            .flat_map(move |dr| [-1isize, 0, 1].into_iter().map(move |dc| (dr, dc)))
            .filter(|&(dr, dc)| dr != 0 || dc != 0)
            .map(move |(dr, dc)| {
                let rr = (r + dr).rem_euclid(side);
                let cc = (c + dc).rem_euclid(side);
                (rr * side + cc) as usize
            })
    }

    /// Like-neighbor fraction of the agent at `idx`; `None` if the cell is
    /// empty or the agent has no occupied neighbors.
    fn like_fraction(&self, idx: usize) -> Option<f64> {
        let me = self.grid[idx];
        if me == CellState::Empty {
            return None;
        }
        let (mut like, mut total) = (0usize, 0usize);
        for nb in self.neighbors(idx) {
            match self.grid[nb] {
                CellState::Empty => {}
                s => {
                    total += 1;
                    if s == me {
                        like += 1;
                    }
                }
            }
        }
        if total == 0 {
            None
        } else {
            Some(like as f64 / total as f64)
        }
    }

    fn is_unhappy(&self, idx: usize) -> bool {
        match self.like_fraction(idx) {
            Some(f) => f < self.cfg.threshold,
            None => false, // isolated agents are content
        }
    }
}

impl StepModel for SchellingModel {
    type Observation = SchellingObs;

    fn step(&mut self, rng: &mut Rng) {
        // Collect unhappy agents and empty cells, then relocate each
        // unhappy agent to a random currently empty cell (sequentially, so
        // vacated cells become available within the same step).
        let unhappy: Vec<usize> = (0..self.grid.len())
            .filter(|&i| self.is_unhappy(i))
            .collect();
        let mut moves = 0;
        for &agent in &unhappy {
            let empties: Vec<usize> = (0..self.grid.len())
                .filter(|&i| self.grid[i] == CellState::Empty)
                .collect();
            if empties.is_empty() {
                break;
            }
            let target = empties[rng.gen_range(0..empties.len())];
            self.grid[target] = self.grid[agent];
            self.grid[agent] = CellState::Empty;
            moves += 1;
        }
        self.last_moves = moves;
    }

    fn observe(&self) -> SchellingObs {
        let mut seg_sum = 0.0;
        let mut seg_n = 0usize;
        let mut unhappy = 0usize;
        let mut agents = 0usize;
        for i in 0..self.grid.len() {
            if self.grid[i] == CellState::Empty {
                continue;
            }
            agents += 1;
            if let Some(f) = self.like_fraction(i) {
                seg_sum += f;
                seg_n += 1;
            }
            if self.is_unhappy(i) {
                unhappy += 1;
            }
        }
        SchellingObs {
            segregation: if seg_n == 0 {
                0.0
            } else {
                seg_sum / seg_n as f64
            },
            unhappy_fraction: if agents == 0 {
                0.0
            } else {
                unhappy as f64 / agents as f64
            },
            moves: self.last_moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_model;

    #[test]
    fn initial_population_counts() {
        let m = SchellingModel::new(SchellingConfig::default(), 1);
        let n = 40 * 40;
        let empty = m.grid().iter().filter(|&&c| c == CellState::Empty).count();
        let a = m.grid().iter().filter(|&&c| c == CellState::GroupA).count();
        let b = m.grid().iter().filter(|&&c| c == CellState::GroupB).count();
        assert_eq!(empty, (n as f64 * 0.1) as usize);
        assert_eq!(empty + a + b, n);
        assert!((a as i64 - b as i64).abs() <= 1);
    }

    #[test]
    fn neighborhood_is_moore_8_toroidal() {
        let m = SchellingModel::new(
            SchellingConfig {
                side: 5,
                ..SchellingConfig::default()
            },
            2,
        );
        let nbs: Vec<usize> = m.neighbors(0).collect();
        assert_eq!(nbs.len(), 8);
        // Corner cell 0 wraps to the opposite edges.
        assert!(nbs.contains(&24)); // (-1,-1) wraps to (4,4)
        assert!(nbs.contains(&1));
        assert!(nbs.contains(&5));
    }

    #[test]
    fn mild_preferences_produce_strong_segregation() {
        // The Schelling headline: threshold 0.3 drives segregation well
        // above the ~0.5 of a random mix.
        let mut m = SchellingModel::new(SchellingConfig::default(), 3);
        let initial = m.observe().segregation;
        let obs = run_model(&mut m, 60, 4);
        let last = obs.last().unwrap();
        assert!(
            (0.4..0.6).contains(&initial),
            "random start segregation {initial}"
        );
        assert!(
            last.segregation > 0.7,
            "segregation after convergence: {}",
            last.segregation
        );
        assert!(last.unhappy_fraction < 0.05);
    }

    #[test]
    fn moves_decline_as_system_settles() {
        let mut m = SchellingModel::new(SchellingConfig::default(), 5);
        let obs = run_model(&mut m, 60, 6);
        let early: usize = obs[1..6].iter().map(|o| o.moves).sum();
        let late: usize = obs[55..].iter().map(|o| o.moves).sum();
        assert!(late < early / 4, "moves did not settle: {early} -> {late}");
    }

    #[test]
    fn zero_threshold_means_everyone_content() {
        let mut m = SchellingModel::new(
            SchellingConfig {
                threshold: 0.0,
                ..SchellingConfig::default()
            },
            7,
        );
        let obs = run_model(&mut m, 5, 8);
        for o in &obs[1..] {
            assert_eq!(o.moves, 0);
        }
    }

    #[test]
    fn config_validation() {
        let bad = std::panic::catch_unwind(|| {
            SchellingModel::new(
                SchellingConfig {
                    side: 2,
                    ..SchellingConfig::default()
                },
                1,
            )
        });
        assert!(bad.is_err());
    }
}
