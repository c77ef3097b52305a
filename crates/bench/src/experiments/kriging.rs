//! E15 — §4.1: Gaussian-process metamodels — kriging, stochastic kriging,
//! and the polynomial baseline.

use mde_metamodel::design::nolh;
use mde_metamodel::gp::{GpConfig, GpModel};
use mde_metamodel::kernel::KernelWorkspace;
use mde_metamodel::poly::PolyModel;
use mde_numeric::cache::CacheHandle;
use mde_numeric::dist::{Distribution, Normal};
use mde_numeric::obs::RunMetrics;
use mde_numeric::rng::{rng_from_seed, Rng};
use std::hint::black_box;
use std::time::Instant;

/// A curved 2-D test response the polynomial (order 2) cannot fully
/// capture.
fn truth(x: &[f64]) -> f64 {
    (3.0 * x[0]).sin() * (1.0 + x[1]) + 0.5 * x[1] * x[1]
}

fn rmse(pred: impl Fn(&[f64]) -> f64) -> f64 {
    let mut acc = 0.0;
    let mut n = 0.0;
    for i in 0..15 {
        for j in 0..15 {
            let x = [i as f64 / 14.0 * 2.0 - 1.0, j as f64 / 14.0 * 2.0 - 1.0];
            acc += (pred(&x) - truth(&x)).powi(2);
            n += 1.0;
        }
    }
    (acc / n).sqrt()
}

/// The four RMSEs of the accuracy comparison at one design seed, and the
/// largest interpolation error at a design point.
struct Accuracy {
    gp: f64,
    poly2: f64,
    krig_noisy: f64,
    sk: f64,
    max_at_design: f64,
}

fn accuracy(seed: u64, nolh_tries: usize) -> Accuracy {
    let mut rng = rng_from_seed(seed);
    let design = nolh(2, 33, nolh_tries, &mut rng);
    let xs = design.scale_to(&[(-1.0, 1.0), (-1.0, 1.0)]);

    // Deterministic responses.
    let ys: Vec<f64> = xs.iter().map(|x| truth(x)).collect();
    let gp = GpModel::fit(&xs, &ys, &GpConfig::default()).expect("gp fit");
    let poly2 = PolyModel::fit(&xs, &ys, 2).expect("poly fit");
    let max_at_design = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (gp.predict(x) - y).abs())
        .fold(0.0f64, f64::max);

    // Noisy responses: kriging vs stochastic kriging.
    let noise = Normal::new(0.0, 0.3).expect("static");
    let reps = 5usize;
    let mut means = Vec::with_capacity(xs.len());
    let mut vars = Vec::with_capacity(xs.len());
    for x in &xs {
        let draws: Vec<f64> = (0..reps)
            .map(|_| truth(x) + noise.sample(&mut rng))
            .collect();
        let m = draws.iter().sum::<f64>() / reps as f64;
        let v = draws.iter().map(|d| (d - m).powi(2)).sum::<f64>() / (reps as f64 - 1.0);
        means.push(m);
        vars.push(v / reps as f64);
    }
    let krig_noisy = GpModel::fit(&xs, &means, &GpConfig::default()).expect("fit");
    let sk = GpModel::fit_stochastic(&xs, &means, &vars, &GpConfig::default()).expect("fit");
    Accuracy {
        gp: rmse(|x| gp.predict(x)),
        poly2: rmse(|x| poly2.predict(x)),
        krig_noisy: rmse(|x| krig_noisy.predict(x)),
        sk: rmse(|x| sk.predict(x)),
        max_at_design,
    }
}

/// Regenerate the metamodel accuracy comparison, then time a fit at the
/// repo benchmark's two shapes.
pub fn kriging_accuracy_report() -> String {
    let acc = accuracy(21, 200);
    let mut out = String::new();
    out.push_str("E15 | §4.1: metamodel accuracy on a curved 2-D response\n");
    out.push_str("design: 33-run NOLH on [-1,1]^2; RMSE over a 15x15 grid\n\n");
    out.push_str(&format!(
        "deterministic case: max |GP - Y| at design points = {} (eq. (6): exact interpolation)\n\n",
        crate::f(acc.max_at_design)
    ));
    let row = |name: &str, rmse: f64, note: &str| vec![name.into(), crate::f(rmse), note.into()];
    let rows = vec![
        row("kriging (GP)", acc.gp, "interpolates design points exactly"),
        row("polynomial order 2", acc.poly2, "global shape only"),
        row("kriging on noisy means", acc.krig_noisy, "chases the noise"),
        row(
            "stochastic kriging (A-N-S)",
            acc.sk,
            "[Sigma_M + Sigma_eps]^{-1}: smooths it",
        ),
    ];
    out.push_str(&crate::render_table(&["metamodel", "RMSE", "note"], &rows));
    out.push_str(
        "\nExpected shape: GP << polynomial on curved responses; under replication noise,\n\
         stochastic kriging <= interpolating kriging — both §4.1 claims.\n\n",
    );
    out.push_str(&fit_cost_report());
    out
}

/// The repo benchmark's simulated total at an eight-factor point (sixteen
/// items, sixteen replicates; `benchmark/src/explore.rs::model_at`).
fn noisy_total(x: &[f64], rng: &mut Rng) -> f64 {
    let mean = 10.0 + 3.0 * x[0] + 2.0 * x[3] + 0.1 * (x[1] + x[2] + x[4] + x[5] + x[6] + x[7]);
    let std = 2.0 + 0.5 * x[3].abs();
    16.0 * mean + std * Normal::sample_standard(rng)
}

/// A design, its responses and their noise variances.
type Problem = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>);

/// `n × 8` deterministic kriging of noisy totals — the benchmark's
/// screening fit at `n = 65`.
fn screening_shape(n: usize, rng: &mut Rng) -> Problem {
    let xs = nolh(8, n, 50, rng).scale_to(&[(-1.0, 1.0); 8]);
    let ys = xs.iter().map(|x| noisy_total(x, rng)).collect();
    (xs, ys, vec![0.0; n])
}

/// `33 × 2` stochastic kriging of the squared miss of a target total, two
/// replicates a point — the benchmark's first calibration fit.
fn calibration_shape(rng: &mut Rng) -> Problem {
    let xs = nolh(2, 33, 50, rng).scale_to(&[(-1.0, 1.0); 2]);
    let (ys, noise) = xs
        .iter()
        .map(|t| {
            let mut x = [0.0; 8];
            (x[0], x[3]) = (t[0], t[1]);
            let j: Vec<f64> = (0..2)
                .map(|_| (noisy_total(&x, rng) - 172.0).powi(2))
                .collect();
            let mean = (j[0] + j[1]) / 2.0;
            (mean, (j[0] - mean).powi(2) + (j[1] - mean).powi(2))
        })
        .unzip();
    (xs, ys, noise)
}

/// Median wall time of `reps` calls, in microseconds.
fn median_us(reps: usize, mut call: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// One fit through `cache`: likelihood evaluations (from the `gp.*`
/// ledger) of a single call, then the median time of `reps` more.
fn timed_fit((xs, ys, noise): &Problem, cache: Option<&CacheHandle>, reps: usize) -> (u64, f64) {
    let cfg = GpConfig::default();
    let fit = |metrics: Option<&mut RunMetrics>| {
        let mut ws = KernelWorkspace::new(xs).expect("design");
        black_box(GpModel::fit_remembered(&mut ws, ys, noise, &cfg, metrics, cache).expect("fit"));
    };
    let mut metrics = RunMetrics::new();
    fit(Some(&mut metrics));
    (
        metrics.counter("gp.factorizations"),
        median_us(reps, || fit(None)),
    )
}

/// The timed leg: what a fit costs at the benchmark's two shapes, searched
/// and remembered.
fn fit_cost_report() -> String {
    let mut out = String::new();
    out.push_str(
        "Timed leg: one GP fit at the repo benchmark's two shapes (this host; median of 9)\n",
    );
    let mut rng = rng_from_seed(21);
    let mut rows = Vec::new();
    for (shape, problem, parent) in [
        (
            "65 x 8 kriging of noisy totals",
            screening_shape(65, &mut rng),
            "401 evaluations, ~10 ms",
        ),
        (
            "33 x 2 stochastic kriging",
            calibration_shape(&mut rng),
            "~244 evaluations, ~2.5 ms",
        ),
    ] {
        let (evals, us) = timed_fit(&problem, None, 9);
        rows.push(vec![
            shape.into(),
            "search (miss)".into(),
            evals.to_string(),
            format!("{us:.0}"),
            parent.into(),
        ]);
        let cache = CacheHandle::in_memory();
        timed_fit(&problem, Some(&cache), 1);
        let (evals, us) = timed_fit(&problem, Some(&cache), 9);
        rows.push(vec![
            shape.into(),
            "remembered (hit)".into(),
            evals.to_string(),
            format!("{us:.0}"),
            "-".into(),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "shape",
            "path",
            "evaluations",
            "us",
            "simplex at the parent (ISSUE 24)",
        ],
        &rows,
    ));
    out.push_str(
        "\nA miss follows the analytic gradient (dense BFGS); a hit re-verifies the stored\n\
         (tau2, theta) with one factorization and returns the same model to the bit.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{chaos_seed, splitmix64};

    /// Thirteen design seeds derived from `MDE_CHAOS_SEED`.
    fn design_seeds() -> impl Iterator<Item = u64> {
        (0..13).map(|i| splitmix64(chaos_seed() ^ (0xE15 + i)))
    }

    #[test]
    fn gp_beats_quadratic_polynomial_and_interpolates_at_every_seed() {
        // §4.1: kriging captures what a second-order polynomial cannot,
        // and equation (6)'s predictor coincides with the observed value
        // at each design point (to the numerical nugget).
        for seed in design_seeds() {
            let acc = accuracy(seed, 100);
            assert!(
                acc.gp < 0.5 * acc.poly2,
                "seed {seed}: GP {} vs polynomial {}",
                acc.gp,
                acc.poly2
            );
            assert!(
                acc.max_at_design < 1e-3,
                "seed {seed}: max |GP - Y| at design points = {}",
                acc.max_at_design
            );
        }
    }

    #[test]
    fn stochastic_kriging_beats_interpolating_kriging_on_noisy_means() {
        // The Ankenman–Nelson–Staum claim, as a paired difference over 13
        // design-and-noise seeds: RMSE(SK) − RMSE(kriging) sits at least
        // four standard errors below zero.
        let diffs: Vec<f64> = design_seeds()
            .map(|seed| {
                let acc = accuracy(seed, 100);
                acc.sk - acc.krig_noisy
            })
            .collect();
        let n = diffs.len() as f64;
        let mean = diffs.iter().sum::<f64>() / n;
        let var = diffs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (var / n).sqrt();
        assert!(
            mean + 4.0 * se < 0.0,
            "paired RMSE difference {mean} ± {se} (s.e.) over {n} seeds: {diffs:?}"
        );
    }

    #[test]
    fn the_timed_leg_reports_evaluations_and_hits() {
        let mut rng = rng_from_seed(chaos_seed());
        let problem = calibration_shape(&mut rng);
        let (searched, _) = timed_fit(&problem, None, 1);
        assert!((2..=100).contains(&searched), "{searched} evaluations");
        let cache = CacheHandle::in_memory();
        assert_eq!(timed_fit(&problem, Some(&cache), 1).0, searched);
        assert_eq!(timed_fit(&problem, Some(&cache), 1).0, 1);
    }
}
