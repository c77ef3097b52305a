//! E5 — §2.2: solving the cubic-spline tridiagonal system with DSGD.
//!
//! Regenerates the section's quantitative story: accuracy of stratified
//! DSGD against the exact Thomas solve across system sizes, residual
//! decay across cycles, and the shuffle-volume account behind the claim
//! that "the amount of data that needs to be shuffled is negligible".

use mde_harmonize::dsgd::{dsgd_solve, DsgdConfig};
use mde_harmonize::sgd::{sgd_solve, SgdConfig, StepSchedule};
use mde_harmonize::spline::build_spline_system;
use mde_numeric::rng::rng_from_seed;
use std::time::Instant;

/// Shared-nothing workers in the shuffle model: each owns a block of `x`.
const BLOCKS: u64 = 4;

fn spline_system(m: usize) -> (mde_numeric::linalg::Tridiagonal, Vec<f64>) {
    let s: Vec<f64> = (0..=m).map(|i| i as f64 * 0.1).collect();
    let d: Vec<f64> = s.iter().map(|&t| (t * 0.9).sin() * 3.0 + 0.2 * t).collect();
    let sys = build_spline_system(&s, &d).expect("valid knots");
    (sys.a, sys.b)
}

/// Regenerate the DSGD-vs-Thomas comparison.
pub fn dsgd_spline_report() -> String {
    let mut out = String::new();
    out.push_str("E5 | §2.2: natural-cubic-spline system min ||Ax-b||^2 by SGD/DSGD\n\n");

    // Accuracy & time vs exact, across sizes.
    let mut rows = Vec::new();
    for &m in &[100usize, 1_000, 10_000, 100_000] {
        let (a, b) = spline_system(m);
        let t0 = Instant::now();
        let exact = a.solve(&b).expect("thomas");
        let thomas_ms = t0.elapsed().as_secs_f64() * 1e3;

        let cfg = DsgdConfig {
            cycles: 600,
            schedule: StepSchedule {
                epsilon0: 0.15,
                alpha: 0.51,
            },
            record_residuals: false,
        };
        let t1 = Instant::now();
        let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(1));
        let dsgd_ms = t1.elapsed().as_secs_f64() * 1e3;
        let rms = (res
            .x
            .iter()
            .zip(&exact)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            / exact.len() as f64)
            .sqrt();
        rows.push(vec![
            m.to_string(),
            format!("{thomas_ms:.2}"),
            format!("{dsgd_ms:.1}"),
            crate::f(rms),
            format!("{}", res.stats.boundary_values_exchanged(BLOCKS)),
            format!("{}", res.stats.exact_solve_shuffle_entries),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "m (knots)",
            "Thomas (ms)",
            "DSGD 600 cyc (ms)",
            "rms error",
            "DSGD shuffle (f64s)",
            "exact distributed shuffle",
        ],
        &rows,
    ));
    out.push_str(
        "\nSingle-node Thomas is unbeatable locally (the paper agrees: the problem is the\n\
         *shared-nothing* setting). The shuffle columns carry the claim: DSGD moves O(blocks)\n\
         boundary values per stratum switch vs Theta(m log m) for a distributed exact solve.\n\n",
    );

    // Residual decay + SGD vs DSGD at equal work.
    let (a, b) = spline_system(2_000);
    let cfg = DsgdConfig {
        cycles: 200,
        schedule: StepSchedule {
            epsilon0: 0.15,
            alpha: 0.51,
        },
        record_residuals: true,
    };
    let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(2));
    out.push_str("residual ||Ax - b|| vs DSGD cycle (m = 2000):\n");
    let mut rows = Vec::new();
    for &c in &[0usize, 9, 49, 99, 199] {
        rows.push(vec![
            format!("{}", c + 1),
            crate::f(res.residual_history[c]),
        ]);
    }
    out.push_str(&crate::render_table(&["cycle", "residual"], &rows));

    let sgd_cfg = SgdConfig {
        schedule: StepSchedule {
            epsilon0: 0.15,
            alpha: 0.51,
        },
        steps: 200 * 2_000, // same row-updates as 200 DSGD cycles
        record_every: 0,
    };
    let sgd_res = sgd_solve(&a, &b, &sgd_cfg, &mut rng_from_seed(3));
    out.push_str(&format!(
        "\nequal-work comparison (m=2000, 400k row updates): sequential SGD residual {} vs \
         stratified DSGD residual {}\n",
        crate::f(*sgd_res.residual_history.last().expect("recorded")),
        crate::f(*res.residual_history.last().expect("recorded")),
    ));
    out.push_str(
        "Paper's claims reproduced: DSGD converges to the Thomas solution (rms column),\n\
         stratum-parallelism is exact (a stratum's rows touch disjoint coordinates), and the\n\
         shuffle volume is negligible.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsgd_accuracy_at_10k() {
        let (a, b) = spline_system(10_000);
        let exact = a.solve(&b).unwrap();
        let cfg = DsgdConfig {
            cycles: 600,
            schedule: StepSchedule {
                epsilon0: 0.15,
                alpha: 0.51,
            },
            record_residuals: false,
        };
        let res = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(1));
        let rms = (res
            .x
            .iter()
            .zip(&exact)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            / exact.len() as f64)
            .sqrt();
        let scale = exact.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(rms < 0.02 * scale.max(1.0), "rms {rms} (scale {scale})");
    }
}
