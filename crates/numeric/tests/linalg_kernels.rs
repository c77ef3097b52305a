//! Differential tests for the rank-1 Cholesky border: `extend` must track a
//! from-scratch factorization across long append sequences and on random
//! SPD systems. (The blocked factor and fused solve are held to their
//! scalar oracles in `linalg/cholesky.rs`'s own tests.)

use mde_numeric::linalg::{Cholesky, Matrix};
use mde_numeric::rng::{for_cases, rng_from_seed};

/// Random SPD matrix `B·Bᵀ + n·I` with entries seeded deterministically.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = rng_from_seed(seed);
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = rng.gen::<f64>() * 2.0 - 1.0;
        }
    }
    let mut a = &b * &b.transpose();
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

fn max_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f64::max)
}

#[test]
fn fifty_sequential_extends_track_from_scratch_factorization() {
    // Factor the 5×5 leading block, then border one row/column at a time
    // up to 55×55; factor, solves, and ln_det must stay within 1e-8 of a
    // from-scratch factorization at every step.
    let total = 55usize;
    let start = 5usize;
    let a = random_spd(total, 2024);
    let lead = Matrix::from_rows(
        &(0..start)
            .map(|i| (0..start).map(|j| a[(i, j)]).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut incremental = Cholesky::new(&lead).expect("SPD leading block");
    for k in start..total {
        let col: Vec<f64> = (0..k).map(|i| a[(k, i)]).collect();
        incremental.extend(&col, a[(k, k)]).expect("SPD border");

        let m = k + 1;
        let sub = Matrix::from_rows(
            &(0..m)
                .map(|i| (0..m).map(|j| a[(i, j)]).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let scratch = Cholesky::new(&sub).expect("SPD principal minor");
        let diff = max_rel_diff(incremental.l(), scratch.l());
        assert!(diff <= 1e-8, "after extend to {m}: factor diff {diff:e}");

        let mut rng = rng_from_seed(k as u64);
        let b: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let xi = incremental.solve(&b).expect("solve");
        let xs = scratch.solve(&b).expect("solve");
        for (p, q) in xi.iter().zip(&xs) {
            assert!(
                (p - q).abs() <= 1e-8 * (1.0 + q.abs()),
                "after extend to {m}: {p} vs {q}"
            );
        }
        let ld = (incremental.ln_det() - scratch.ln_det()).abs();
        assert!(ld <= 1e-8, "after extend to {m}: ln_det diff {ld:e}");
    }
}

/// One random border extension agrees with refactorization.
#[test]
fn extend_matches_refactor_fuzzed() {
    for_cases(48, |rng| {
        let n = rng.gen_range(2usize..16);
        let seed = rng.gen_range(0u64..500);
        let a = random_spd(n, seed.wrapping_mul(31) + 7);
        let lead = Matrix::from_rows(
            &(0..n - 1)
                .map(|i| (0..n - 1).map(|j| a[(i, j)]).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut ch = Cholesky::new(&lead).unwrap();
        let col: Vec<f64> = (0..n - 1).map(|i| a[(n - 1, i)]).collect();
        ch.extend(&col, a[(n - 1, n - 1)]).unwrap();
        let scratch = Cholesky::new(&a).unwrap();
        assert!(max_rel_diff(ch.l(), scratch.l()) <= 1e-10);
    });
}
