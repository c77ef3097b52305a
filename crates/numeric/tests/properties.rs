//! Property-based tests for the numeric substrate: the invariants every
//! downstream crate silently relies on.

use mde_numeric::dist::special::{
    reg_inc_beta, reg_lower_gamma, std_normal_cdf, std_normal_quantile,
};
use mde_numeric::dist::{Continuous, Distribution, Exponential, Normal, Uniform};
use mde_numeric::linalg::{Cholesky, Matrix, Tridiagonal};
use mde_numeric::rng::{for_cases, rng_from_seed, Rng, StreamFactory};
use mde_numeric::stats::{quantile, quantiles, Summary};

fn finite_vec(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<f64> {
    (0..rng.gen_range(len))
        .map(|_| rng.gen_range(-1e3..1e3))
        .collect()
}

// ---------- linalg ----------

/// Cholesky round-trips: L·Lᵀ = A for random SPD matrices.
#[test]
fn cholesky_roundtrip() {
    for_cases(64, |rng| {
        let n = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = rng_from_seed(seed);
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.gen::<f64>() * 2.0 - 1.0;
            }
        }
        let a = &(&b.transpose() * &b) + &Matrix::identity(n);
        let ch = Cholesky::new(&a).unwrap();
        let recon = &ch.l().clone() * &ch.l().transpose();
        let worst = recon
            .data()
            .iter()
            .zip(a.data())
            .map(|(p, q)| (p - q).abs());
        assert!(worst.fold(0.0, f64::max) < 1e-9);
        // The solve satisfies its system: ‖A·x − b‖ is at rounding level.
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = ch.solve(&rhs).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        let residual = ax
            .iter()
            .zip(&rhs)
            .map(|(p, q)| (p - q).powi(2))
            .sum::<f64>();
        assert!(residual.sqrt() < 1e-8, "residual {}", residual.sqrt());
    });
}

/// Thomas recovers a chosen solution of random diagonally dominant
/// tridiagonal systems, with a residual at rounding level.
#[test]
fn thomas_recovers_known_solutions() {
    for_cases(64, |rng| {
        let n = rng.gen_range(1usize..40);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = rng_from_seed(seed);
        let sub: Vec<f64> = (0..n.saturating_sub(1))
            .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
            .collect();
        let sup: Vec<f64> = (0..n.saturating_sub(1))
            .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
            .collect();
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                let mut d = 1.0 + rng.gen::<f64>();
                if i > 0 {
                    d += sub[i - 1].abs();
                }
                if i < n - 1 {
                    d += sup[i].abs();
                }
                d
            })
            .collect();
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let t = Tridiagonal::new(sub, diag, sup).unwrap();
        let b = t.mul_vec(&x_true).unwrap();
        let x = t.solve(&b).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
        assert!(t.residual_norm(&x, &b).unwrap() < 1e-8);
    });
}

// ---------- stats ----------

/// Welford merge equals sequential accumulation at any split point.
#[test]
fn summary_merge_associative() {
    for_cases(64, |rng| {
        let data = finite_vec(rng, 1..200);
        let split = rng.gen_range(0usize..200);
        let split = split.min(data.len());
        let whole = Summary::from_slice(&data);
        let mut left = Summary::from_slice(&data[..split]);
        left.merge(&Summary::from_slice(&data[split..]));
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-6);
    });
}

/// Quantiles are monotone in p and bounded by the sample range.
#[test]
fn quantiles_monotone_and_bounded() {
    for_cases(64, |rng| {
        let data = finite_vec(rng, 1..100);
        let ps: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let qs = quantiles(&data, &ps).unwrap();
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {:?}", qs);
        }
        assert_eq!(qs[0], min);
        assert_eq!(*qs.last().unwrap(), max);
        // Single-p agrees with batch.
        assert_eq!(quantile(&data, 0.5).unwrap(), qs[5]);
    });
}

// ---------- distributions ----------

/// CDFs are monotone and map into [0,1]; quantile∘cdf is the identity
/// inside the support.
#[test]
fn continuous_distribution_laws() {
    for_cases(64, |rng| {
        let pick = rng.gen_range(0u8..3);
        let a = rng.gen_range(0.1f64..5.0);
        let b = rng.gen_range(0.1f64..5.0);
        let xs: Vec<f64> = (0..rng.gen_range(1..20))
            .map(|_| rng.gen_range(-10.0..10.0))
            .collect();
        let d: Box<dyn Continuous> = match pick {
            0 => Box::new(Normal::new(a - 2.5, b).unwrap()),
            1 => Box::new(Exponential::new(a).unwrap()),
            _ => Box::new(Uniform::new(-a, a + b).unwrap()),
        };
        let mut sorted = xs.clone();
        sorted.sort_by(|p, q| p.partial_cmp(q).unwrap());
        let mut prev = 0.0;
        for &x in &sorted {
            let c = d.cdf(x);
            assert!((0.0..=1.0).contains(&c), "cdf out of range: {c}");
            assert!(c >= prev - 1e-12, "cdf not monotone");
            prev = c;
            if c > 1e-6 && c < 1.0 - 1e-6 {
                let x2 = d.quantile(c);
                assert!(
                    (d.cdf(x2) - c).abs() < 1e-5,
                    "cdf(quantile(c)) != c at x={x}"
                );
            }
        }
    });
}

/// Sampling respects the distribution's support.
#[test]
fn samples_in_support() {
    for_cases(64, |rng| {
        let rate = rng.gen_range(0.1f64..10.0);
        let seed = rng.gen_range(0u64..1000);
        let mut rng = rng_from_seed(seed);
        let e = Exponential::new(rate).unwrap();
        let u = Uniform::new(3.0, 4.0).unwrap();
        for _ in 0..50 {
            assert!(e.sample(&mut rng) >= 0.0);
            let x = u.sample(&mut rng);
            assert!((3.0..4.0).contains(&x));
        }
    });
}

// ---------- special functions ----------

/// Regularized incomplete gamma/beta are CDF-like: in [0,1], monotone.
#[test]
fn incomplete_functions_are_cdf_like() {
    for_cases(64, |rng| {
        let a = rng.gen_range(0.1f64..10.0);
        let b = rng.gen_range(0.1f64..10.0);
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 * 0.5;
            let p = reg_lower_gamma(a, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let p = reg_inc_beta(a, b, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-9);
            prev = p;
        }
    });
}

/// Normal quantile/CDF round-trip across the whole open interval.
#[test]
fn normal_quantile_roundtrip() {
    for_cases(64, |rng| {
        let p = rng.gen_range(1e-6f64..0.999999);
        let x = std_normal_quantile(p);
        assert!((std_normal_cdf(x) - p).abs() < 1e-7);
    });
}

// ---------- rng ----------

/// Stream seeds never collide across a hierarchy slice.
#[test]
fn stream_seeds_unique() {
    for_cases(64, |rng| {
        let master = rng.gen_range(0u64..100_000);
        let f = StreamFactory::new(master);
        let mut seeds: Vec<u64> = (0..50).map(|i| f.seed_of(i)).collect();
        seeds.extend((0..10).flat_map(|i| {
            let c = f.child(i);
            (0..10).map(move |j| c.seed_of(j)).collect::<Vec<_>>()
        }));
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n);
    });
}
