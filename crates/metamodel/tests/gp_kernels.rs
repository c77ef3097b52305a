//! Determinism contract of the GP kernel layer on designs of 130–150
//! points: a fit is bit-identical when repeated or run on a grown
//! workspace, and so are its predictions; its obs ledger counts one
//! factorization per assemble.

use mde_metamodel::gp::{GpConfig, GpModel};
use mde_metamodel::kernel::KernelWorkspace;
use mde_numeric::obs::RunMetrics;

fn big_design(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                (i as f64 * 0.37).sin(),
                (i as f64 * 0.21).cos(),
                ((i * i) as f64 * 0.013).sin(),
            ]
        })
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| (2.0 * x[0]).sin() + x[1] * x[1] - 0.5 * x[2])
        .collect();
    (xs, ys)
}

#[test]
fn workspace_reuse_matches_fresh_fit() {
    // Fitting on a pushed-into workspace is exactly fitting on a fresh
    // workspace over the same points: cached pair geometry is position-
    // independent.
    let (xs, ys) = big_design(130);
    let noise = vec![0.0; xs.len()];
    let cfg = GpConfig {
        max_evals: 40,
        ..GpConfig::default()
    };
    let mut grown = KernelWorkspace::new(&xs[..120]).unwrap();
    for x in &xs[120..] {
        grown.push(x).unwrap();
    }
    let mut fresh = KernelWorkspace::new(&xs).unwrap();
    let g1 = GpModel::fit_workspace(&mut grown, &ys, &noise, &cfg, None).unwrap();
    let g2 = GpModel::fit_workspace(&mut fresh, &ys, &noise, &cfg, None).unwrap();
    assert_eq!(g1.beta0().to_bits(), g2.beta0().to_bits());
    assert_eq!(g1.tau2().to_bits(), g2.tau2().to_bits());
    for (a, b) in g1.thetas().iter().zip(g2.thetas()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn a_repeated_fit_is_bit_identical_and_ledgers_agree() {
    let (xs, ys) = big_design(150);
    let noise = vec![0.0; xs.len()];
    let cfg = GpConfig {
        max_evals: 60,
        ..GpConfig::default()
    };
    let fit = || {
        let mut metrics = RunMetrics::new();
        let gp = GpModel::fit_with(&xs, &ys, &noise, &cfg, Some(&mut metrics)).unwrap();
        (gp, metrics)
    };
    let (gp1, m1) = fit();
    let (gp, m) = fit();
    assert_eq!(gp.beta0().to_bits(), gp1.beta0().to_bits());
    assert_eq!(gp.tau2().to_bits(), gp1.tau2().to_bits());
    for (a, b) in gp.thetas().iter().zip(gp1.thetas()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // Identical ledgers, entry for entry — the deterministic-counter
    // replication contract.
    assert_eq!(m, m1);
    // So is prediction from either fit.
    let probe: Vec<Vec<f64>> = (0..25)
        .map(|i| vec![i as f64 * 0.04 - 0.5, 0.3, -0.2])
        .collect();
    let base_preds: Vec<f64> = probe.iter().map(|p| gp1.predict(p)).collect();
    let preds: Vec<f64> = probe.iter().map(|p| gp.predict(p)).collect();
    for (p, q) in preds.iter().zip(&base_preds) {
        assert_eq!(p.to_bits(), q.to_bits());
    }
    assert!(m1.counter("gp.assembles") > 0);
    assert_eq!(
        m1.counter("gp.assembles"),
        m1.counter("gp.factorizations"),
        "every assemble factors exactly once"
    );
}

#[test]
fn incremental_appends_preserve_interpolation_at_scale() {
    // Fit a 140-point deterministic surrogate, append 10 points one rank-1
    // border at a time, and require exact interpolation at every appended
    // point plus a bounded drift against a from-scratch refit.
    let (xs, ys) = big_design(140);
    let cfg = GpConfig {
        max_evals: 60,
        ..GpConfig::default()
    };
    let mut gp = GpModel::fit(&xs, &ys, &cfg).unwrap();
    let mut metrics = RunMetrics::new();
    let f = |x: &[f64]| (2.0 * x[0]).sin() + x[1] * x[1] - 0.5 * x[2];
    for j in 0..10 {
        let x = vec![
            ((140 + j) as f64 * 0.37).sin(),
            ((140 + j) as f64 * 0.21).cos(),
            (((140 + j) * (140 + j)) as f64 * 0.013).sin(),
        ];
        let y = f(&x);
        gp.append_point(&x, y, 0.0, Some(&mut metrics)).unwrap();
        assert!(
            (gp.predict(&x) - y).abs() < 1e-4,
            "append {j} not interpolated"
        );
    }
    assert_eq!(metrics.counter("gp.extends"), 10);
    assert_eq!(gp.n_points(), 150);
    assert_eq!(metrics.counter("gp.factorizations"), 0, "no refit happened");
}
