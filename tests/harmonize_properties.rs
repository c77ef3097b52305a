//! Property-based tests for the harmonization layer (§2.2): the spline /
//! DSGD pipeline and the gridfield rewrite, across randomized inputs.

use model_data_ecosystems::harmonize::dsgd::{dsgd_solve, DsgdConfig};
use model_data_ecosystems::harmonize::gridfield::{
    regrid_then_restrict, restrict_then_regrid, Grid, GridField, Regrid, RegridAgg,
};
use model_data_ecosystems::harmonize::spline::{build_spline_system, NaturalCubicSpline};
use model_data_ecosystems::numeric::linalg::Tridiagonal;
use model_data_ecosystems::numeric::rng::{for_cases, rng_from_seed};
use std::sync::Arc;

/// The spline interpolates its knots exactly, for arbitrary strictly
/// increasing knot grids and bounded values.
#[test]
fn spline_interpolates_knots() {
    for_cases(32, |rng| {
        let gaps: Vec<f64> = (0..rng.gen_range(2..40))
            .map(|_| rng.gen_range(0.05..3.0))
            .collect();
        let values_seed = rng.gen_range(0u64..10_000);
        let mut s = vec![0.0];
        for g in &gaps {
            s.push(s.last().unwrap() + g);
        }
        let d: Vec<f64> = s
            .iter()
            .enumerate()
            .map(|(i, x)| ((i as f64 + values_seed as f64) * 0.7).sin() * 5.0 + x * 0.3)
            .collect();
        let sp = NaturalCubicSpline::fit(&s, &d).unwrap();
        for (si, di) in s.iter().zip(&d) {
            assert!(
                (sp.eval(*si) - di).abs() < 1e-7,
                "knot ({}, {}) missed: {}",
                si,
                di,
                sp.eval(*si)
            );
        }
    });
}

/// DSGD solves the spline system to the same answer as Thomas, and the
/// residual after the run is a small fraction of the initial one.
#[test]
fn dsgd_agrees_with_thomas() {
    for_cases(32, |rng| {
        let n = rng.gen_range(5usize..60);
        let scale = rng.gen_range(0.5f64..5.0);
        let seed = rng.gen_range(0u64..100);
        let s: Vec<f64> = (0..=n).map(|i| i as f64 * 0.5).collect();
        let d: Vec<f64> = s.iter().map(|&t| (t * scale).sin() * 2.0).collect();
        let sys = build_spline_system(&s, &d).unwrap();
        let exact = sys.a.solve(&sys.b).unwrap();
        let cfg = DsgdConfig {
            cycles: 3000,
            schedule: model_data_ecosystems::harmonize::sgd::StepSchedule {
                epsilon0: 0.15,
                alpha: 0.51,
            },
            record_residuals: false,
        };
        let res = dsgd_solve(&sys.a, &sys.b, &cfg, &mut rng_from_seed(seed));
        let max_err = res
            .x
            .iter()
            .zip(&exact)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let scale_ref = exact.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        assert!(
            max_err < 0.05 * scale_ref,
            "max err {} vs scale {}",
            max_err,
            scale_ref
        );
    });
}

/// The shuffle account of the paper's communication argument: every cycle
/// visits each of the three strata once (empty strata included, so tiny
/// systems count too), and at each switch every shared-nothing worker
/// exchanges its two block-boundary values.
#[test]
fn dsgd_shuffle_account_is_two_values_per_worker_per_switch() {
    for_cases(32, |rng| {
        let n = rng.gen_range(1usize..80);
        let cycles = rng.gen_range(1u64..40);
        let blocks = rng.gen_range(1u64..8);
        let seed = rng.gen_range(0u64..100);
        let a = Tridiagonal::new(vec![1.0; n - 1], vec![4.0; n], vec![1.0; n - 1]).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let cfg = DsgdConfig {
            cycles,
            ..DsgdConfig::default()
        };
        let stats = dsgd_solve(&a, &b, &cfg, &mut rng_from_seed(seed)).stats;
        assert_eq!(stats.stratum_switches, 3 * cycles);
        assert_eq!(
            stats.boundary_values_exchanged(blocks),
            2 * blocks * 3 * cycles
        );
    });
}

/// The restrict/regrid commutation holds for arbitrary assignments and
/// target-cell predicates, and never costs more.
#[test]
fn gridfield_rewrite_equivalence() {
    for_cases(32, |rng| {
        let nx = rng.gen_range(1usize..6);
        let ny = rng.gen_range(1usize..6);
        let keep_mask = rng.gen_range(0u32..16);
        let agg_pick = rng.gen_range(0u8..4);
        let (fine, fidx) = Grid::structured_2d(nx * 2, ny * 2).unwrap();
        let (coarse, cidx) = Grid::structured_2d(nx, ny).unwrap();
        let fine = Arc::new(fine);
        let coarse = Arc::new(coarse);
        let faces = fine.cells_of_dim(2);
        let gf = GridField::bind(
            Arc::clone(&fine),
            2,
            faces.iter().map(|&c| c as f64 * 0.5).collect(),
        )
        .unwrap();
        let agg = [
            RegridAgg::Sum,
            RegridAgg::Mean,
            RegridAgg::Max,
            RegridAgg::Count,
        ][agg_pick as usize];
        let op = Regrid {
            assignment: faces
                .iter()
                .map(|&c| {
                    let (i, j) = fidx.face_coords(c);
                    Some(cidx.face(i / 2, j / 2))
                })
                .collect(),
            agg,
        };
        // Predicate keeps coarse faces whose (i + j·nx) bit is set in the mask.
        let keep = |c: usize| {
            let (i, j) = cidx.face_coords(c);
            (keep_mask >> ((i + j * nx) % 16)) & 1 == 1
        };
        let (naive, naive_cost) = regrid_then_restrict(&gf, &coarse, 2, &op, keep).unwrap();
        let (rewritten, rewritten_cost) = restrict_then_regrid(&gf, &coarse, 2, &op, keep).unwrap();
        assert_eq!(naive, rewritten);
        assert!(rewritten_cost.accumulate_ops <= naive_cost.accumulate_ops);
    });
}
