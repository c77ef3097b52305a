//! Distributed (stratified) stochastic gradient descent — DSGD.
//!
//! §2.2: solving the spline system at massive scale is hard in a
//! MapReduce-like setting "because massive amounts of data shuffling are
//! required". The DSGD idea (Gemulla et al., KDD 2011) partitions the rows
//! into **strata** chosen so that SGD within a stratum parallelizes:
//!
//! > "the first stratum S₁ comprises the data in rows 1, 4, 7, … If row
//! > i = 1 is selected … the resulting update to x will only involve
//! > entries x₁ and x₂. Similarly, an update to row i = 4 will only
//! > involve entries x₃, x₄, x₅. Thus rows 1 and 4 can be sampled in
//! > either order, or in parallel … Similarly SGD can be run in parallel
//! > over … S₂ = {2, 5, 8, …} and S₃ = {3, 6, 9, …}."
//!
//! The process "switches randomly from one stratum to another according to
//! a 'regenerative' process"; with equal long-run time per stratum it
//! converges to the overall solution with probability 1, and "the amount of
//! data that needs to be shuffled is negligible".
//!
//! This implementation mirrors that structure exactly: three strata by
//! `row mod 3`, a random stratum permutation per cycle (regeneration points
//! at cycle boundaries ⇒ equal time per stratum), and an explicit
//! shuffle-volume account ([`ShuffleStats`]) of shared-nothing workers
//! against what a distributed exact solve would move. The rows of a stratum
//! touch disjoint coordinates, so updating them one after another on the
//! calling thread gives the iterate any parallel schedule would, whatever
//! the worker count.

use crate::sgd::{row_update, StepSchedule};
use mde_numeric::linalg::Tridiagonal;
use mde_numeric::rng::Rng;

/// Configuration for a DSGD solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsgdConfig {
    /// Step-size schedule, indexed by cycle (step sizes are held constant
    /// within a cycle so that blocks need no shared counter).
    pub schedule: StepSchedule,
    /// Number of cycles; each cycle visits all three strata once, in random
    /// order, touching every row exactly once.
    pub cycles: u64,
    /// Record the residual after every cycle (costs one O(m) pass).
    pub record_residuals: bool,
}

impl Default for DsgdConfig {
    fn default() -> Self {
        DsgdConfig {
            schedule: StepSchedule {
                epsilon0: 0.02,
                alpha: 0.7,
            },
            cycles: 200,
            record_residuals: false,
        }
    }
}

/// Shuffle-volume accounting, modeling the paper's communication argument.
///
/// In the distributed picture each of `blocks` workers owns a contiguous
/// block of `x`. Within a stratum no communication happens at all (updates
/// touch worker-local coordinates). At each stratum switch a worker must
/// refresh at most its two block-boundary coordinates from its neighbors —
/// that is the entire shuffle
/// ([`boundary_values_exchanged`](ShuffleStats::boundary_values_exchanged)).
/// The comparison column is what an exact distributed tridiagonal solve
/// (e.g. cyclic reduction) would move: `Θ(m)` values reshuffled per
/// reduction level, `log₂ m` levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShuffleStats {
    /// Number of stratum switches performed.
    pub stratum_switches: u64,
    /// Entries an exact distributed solve would shuffle: `m · log₂ m`.
    pub exact_solve_shuffle_entries: u64,
}

impl ShuffleStats {
    /// Boundary coordinates `blocks` shared-nothing workers exchange across
    /// all switches (the DSGD shuffle volume, in f64 entries): two per
    /// worker per stratum switch, `2 · blocks · stratum_switches`.
    pub fn boundary_values_exchanged(&self, blocks: u64) -> u64 {
        2 * blocks * self.stratum_switches
    }
}

/// Result of a DSGD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DsgdResult {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Residual after each cycle (empty unless `record_residuals`), plus
    /// the final residual as the last entry.
    pub residual_history: Vec<f64>,
    /// Communication accounting.
    pub stats: ShuffleStats,
}

/// Run stratified DSGD on `min‖Ax − b‖²` from the zero vector.
pub fn dsgd_solve(a: &Tridiagonal, b: &[f64], cfg: &DsgdConfig, rng: &mut Rng) -> DsgdResult {
    let n = a.n();
    assert_eq!(b.len(), n, "rhs length must match system size");
    let mut x = vec![0.0; n];
    let mut stats = ShuffleStats {
        stratum_switches: 0,
        exact_solve_shuffle_entries: (n as u64) * (64 - (n as u64).leading_zeros() as u64),
    };
    let mut history = Vec::new();

    // Strata: rows congruent mod 3. Rows within a stratum are ≥ 3 apart,
    // so their update footprints {i−1, i, i+1} are pairwise disjoint.
    let strata: Vec<Vec<usize>> = (0..3).map(|k| (k..n).step_by(3).collect()).collect();

    let mut order: Vec<usize> = vec![0, 1, 2];
    for cycle in 0..cfg.cycles {
        // Regenerative stratum switching: a fresh random permutation each
        // cycle guarantees equal time per stratum in the long run, with
        // regeneration points at cycle boundaries.
        rng.shuffle(&mut order);
        let eps = cfg.schedule.at(cycle);
        for &s in &order {
            for &i in &strata[s] {
                row_update(a, b, &mut x, i, eps);
            }
            stats.stratum_switches += 1;
        }
        if cfg.record_residuals {
            history.push(a.residual_norm(&x, b).expect("validated dims"));
        }
    }
    history.push(a.residual_norm(&x, b).expect("validated dims"));
    DsgdResult {
        x,
        residual_history: history,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::rng_from_seed;

    fn system(n: usize) -> (Tridiagonal, Vec<f64>, Vec<f64>) {
        let a = Tridiagonal::new(vec![1.0; n - 1], vec![4.0; n], vec![1.0; n - 1]).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 29 % 11) as f64 - 5.0) / 5.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        (a, b, x_true)
    }

    #[test]
    fn converges_to_thomas_solution() {
        let (a, b, x_true) = system(300);
        let cfg = DsgdConfig {
            cycles: 400,
            ..DsgdConfig::default()
        };
        let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(1));
        let rms: f64 = (res
            .x
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            / 300.0)
            .sqrt();
        assert!(rms < 0.01, "rms error {rms}");
    }

    #[test]
    fn residuals_decrease_across_cycles() {
        let (a, b, _) = system(150);
        let cfg = DsgdConfig {
            cycles: 50,
            record_residuals: true,
            ..DsgdConfig::default()
        };
        let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(3));
        assert_eq!(res.residual_history.len(), 51);
        let first = res.residual_history[0];
        let last = *res.residual_history.last().unwrap();
        assert!(last < first * 0.25, "residual {first} -> {last}");
    }

    #[test]
    fn shuffle_volume_is_negligible_vs_exact_solve() {
        let (a, b, _) = system(3000);
        let cfg = DsgdConfig {
            cycles: 30,
            ..DsgdConfig::default()
        };
        let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(4));
        assert_eq!(res.stats.stratum_switches, 90);
        let shuffled = res.stats.boundary_values_exchanged(4);
        assert_eq!(shuffled, 90 * 2 * 4);
        // The paper's claim: DSGD's shuffle volume is negligible.
        assert!(
            shuffled * 10 < res.stats.exact_solve_shuffle_entries,
            "DSGD shuffled {shuffled} vs exact {}",
            res.stats.exact_solve_shuffle_entries
        );
    }

    #[test]
    fn solves_real_spline_system() {
        // End-to-end with the spline builder: DSGD sigmas ≈ Thomas sigmas.
        let s: Vec<f64> = (0..=60).map(|i| i as f64 * 0.25).collect();
        let d: Vec<f64> = s.iter().map(|&t| (t * 0.8).sin() * 2.0).collect();
        let sys = crate::spline::build_spline_system(&s, &d).unwrap();
        let exact = sys.a.solve(&sys.b).unwrap();
        let cfg = DsgdConfig {
            cycles: 2000,
            schedule: StepSchedule {
                epsilon0: 0.2,
                alpha: 0.5,
            },
            record_residuals: false,
        };
        let res = dsgd_solve(&sys.a, &sys.b, &cfg, &mut rng_from_seed(5));
        let max_err = res
            .x
            .iter()
            .zip(&exact)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.05, "max sigma error {max_err}");
    }

    #[test]
    fn tiny_systems_work() {
        // n = 1 and n = 2 exercise the stratum edge cases (empty strata).
        for n in [1usize, 2, 3, 4] {
            let a = Tridiagonal::new(vec![1.0; n - 1], vec![4.0; n], vec![1.0; n - 1]).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b = a.mul_vec(&x_true).unwrap();
            let cfg = DsgdConfig {
                cycles: 3000,
                ..DsgdConfig::default()
            };
            let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(6));
            for (p, q) in res.x.iter().zip(&x_true) {
                assert!((p - q).abs() < 0.05, "n={n}: {p} vs {q}");
            }
        }
    }
}
