//! Cache-blocked dense kernels for SPD factorization and triangular solves.
//!
//! The GP/kriging hot path (§4.1) factors one covariance matrix per
//! likelihood evaluation — dozens of factorizations per fit. The naive
//! element-indexed Cholesky (the test-only `Cholesky::new_unblocked`) pays an
//! index computation and a bounds check per multiply-add and walks columns
//! of a row-major matrix in its inner loop. The kernels here restate the
//! same arithmetic over contiguous row slices:
//!
//! * [`cholesky_in_place`] — right-looking factorization in panels of
//!   `BLOCK` columns. Each panel is factored with short in-panel dot
//!   products (the diagonal micro-kernel plus a TRSM micro-kernel per
//!   trailing row), then the trailing submatrix absorbs the panel via a
//!   SYRK/GEMM-shaped update whose inner loop is a length-`BLOCK` dot
//!   product of two contiguous slices — the cache-friendly, vectorizable
//!   shape that carries ~all of the O(n³) work.
//! * [`solve_in_place`] — fused forward/backward substitution in a single
//!   right-hand-side buffer: the forward pass consumes contiguous row
//!   prefixes, the backward pass is run in outer-product (saxpy) form so it
//!   also streams rows instead of striding down columns.
//! * `forward_solve_in_place` — the forward half alone, used by the
//!   rank-1 append ([`super::Cholesky::extend`]): appending design point
//!   `x` to a factored `A = L·Lᵀ` needs only `l₂₁ = L⁻¹k` and
//!   `l₂₂ = √(κ − l₂₁ᵀl₂₁)`.
//! * [`inverse_from_factor`] — `A⁻¹` from the factor, into a caller-owned
//!   buffer, as dot products of contiguous row slices: what the GP
//!   likelihood *gradient* needs (`tr(Σ⁻¹ ∂Σ)` for every hyper-parameter
//!   from one inverse) and nothing else should reach for.
//!
//! The unblocked implementations on [`super::Cholesky`] are test-only
//! differential oracles: `linalg/cholesky.rs`'s tests hold both paths to
//! ≤1e-12 of each other across block-boundary sizes.
//!
//! Everything here is sequential, allocation-free plain Rust with one body
//! per kernel. The contract is bits, not a tolerance: [`dot`], `dot4`
//! and [`exp_neg_weighted`] document a fixed summation order, and every
//! step is a separate IEEE multiply or add, so a factorization's bits
//! depend on its inputs alone — on every host, independent of call site.
//! An AVX2 + FMA layer was worth 1.04× on the benchmark's `explore_cold`
//! and 1.00× on `explore_warm` over these loops (EXPERIMENTS.md, E15) and
//! made fitted bits depend on the CPU; there is no CPU-specific path.

use super::Matrix;
use crate::NumericError;

/// Panel width of the blocked factorization. 64 columns = a 512-byte row
/// segment per panel row: two such segments (the SYRK operands) sit in L1
/// while the trailing row is updated.
pub(crate) const BLOCK: usize = 64;

/// Dot product of two equal-length slices with four independent
/// accumulators, so the compiler can keep the multiply-adds in flight.
///
/// The summation order is fixed: lane `l` of four sums the products at
/// indices `≡ l (mod 4)`, the lanes combine as `(l₀ + l₂) + (l₁ + l₃)`, and
/// the tail past the last full group of four is added last, in order. Every
/// step is a separate IEEE multiply or add (Rust never contracts them into
/// a fused multiply-add), so the bits are a function of the inputs alone,
/// on every host.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    let mut s = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        s += x * y;
    }
    s
}

/// Four simultaneous dot products of one shared slice `a` against four
/// equal-length slices — the SYRK micro-kernel. Sharing the `a` loads
/// across four accumulator streams roughly doubles the arithmetic per
/// byte moved compared with four independent [`dot`] calls.
///
/// The summation order is fixed: per stream, an even accumulator over the
/// even indices and an odd one over the odd indices of the longest even
/// prefix, combined as `even + odd`, then the last element of an odd
/// length. Like [`dot`], the bits are a function of the inputs alone, but
/// not those of a single-accumulator loop.
#[inline]
fn dot4(a: &[f64], b0: &[f64], b1: &[f64], b2: &[f64], b3: &[f64]) -> [f64; 4] {
    let n = a.len();
    let (b0, b1, b2, b3) = (&b0[..n], &b1[..n], &b2[..n], &b3[..n]);
    let mut even = [0.0f64; 4];
    let mut odd = [0.0f64; 4];
    let pairs = n & !1;
    let mut i = 0;
    while i < pairs {
        let (a0, a1) = (a[i], a[i + 1]);
        even[0] += a0 * b0[i];
        odd[0] += a1 * b0[i + 1];
        even[1] += a0 * b1[i];
        odd[1] += a1 * b1[i + 1];
        even[2] += a0 * b2[i];
        odd[2] += a1 * b2[i + 1];
        even[3] += a0 * b3[i];
        odd[3] += a1 * b3[i + 1];
        i += 2;
    }
    let mut out = [
        even[0] + odd[0],
        even[1] + odd[1],
        even[2] + odd[2],
        even[3] + odd[3],
    ];
    if i < n {
        let a0 = a[i];
        out[0] += a0 * b0[i];
        out[1] += a0 * b1[i];
        out[2] += a0 * b2[i];
        out[3] += a0 * b3[i];
    }
    out
}

/// Fused weighted-distance exponential — the kernel-matrix fill micro-
/// kernel: `out[j] = scale · exp(−Σ_k thetas[k] · cols[k][offset + j])`.
///
/// This is the per-pair body of the Gaussian-correlation fill (squared
/// per-dimension distances are cached in `cols`, dimension-major). The sum
/// runs over `k` in order from `0.0`, and the exponential is the platform
/// libm's `exp`, so `out[j]` is bit for bit `scale * (-s).exp()` of that
/// sum, a pure function of the inputs.
pub fn exp_neg_weighted<C: AsRef<[f64]>>(
    out: &mut [f64],
    scale: f64,
    thetas: &[f64],
    cols: &[C],
    offset: usize,
) {
    debug_assert_eq!(thetas.len(), cols.len());
    debug_assert!(cols.iter().all(|c| c.as_ref().len() >= offset + out.len()));
    for (j, v) in out.iter_mut().enumerate() {
        let mut s = 0.0;
        for (&th, col) in thetas.iter().zip(cols) {
            s += th * col.as_ref()[offset + j];
        }
        *v = scale * (-s).exp();
    }
}

/// Split row-major storage at row `i`: all rows above it (shared) and row
/// `i` itself (exclusive).
#[inline]
fn split_row(data: &mut [f64], n: usize, i: usize) -> (&[f64], &mut [f64]) {
    let (above, rest) = data.split_at_mut(i * n);
    (&*above, &mut rest[..n])
}

/// Factor a symmetric positive-definite matrix in place: on success the
/// lower triangle of `a` holds `L` (with `A = L·Lᵀ`) and the strict upper
/// triangle is zeroed. Only the lower triangle of the input is read.
///
/// Returns [`NumericError::SingularMatrix`] on a non-positive or
/// non-finite pivot, exactly as the unblocked oracle does; `a` is left in
/// an unspecified (partially factored) state on error.
pub fn cholesky_in_place(a: &mut Matrix) -> crate::Result<()> {
    if !a.is_square() {
        return Err(NumericError::dim(
            "cholesky_in_place",
            "square matrix".to_string(),
            format!("{}x{}", a.rows(), a.cols()),
        ));
    }
    let n = a.rows();
    let data = a.data_mut();
    let mut k = 0;
    while k < n {
        let kb = BLOCK.min(n - k);
        // Diagonal block: unblocked factor of rows k..k+kb over the panel
        // columns. Contributions from earlier panels were already removed
        // by their trailing updates.
        for i in k..k + kb {
            let (above, row_i) = split_row(data, n, i);
            for j in k..i {
                let row_j = &above[j * n..j * n + n];
                let s = row_i[j] - dot(&row_i[k..j], &row_j[k..j]);
                row_i[j] = s / row_j[j];
            }
            let s = row_i[i] - dot(&row_i[k..i], &row_i[k..i]);
            if s <= 0.0 || !s.is_finite() {
                return Err(NumericError::SingularMatrix {
                    context: "cholesky_in_place (non-positive pivot)",
                });
            }
            row_i[i] = s.sqrt();
        }
        // Trailing rows in groups of four. The TRSM solves of distinct
        // trailing rows are independent, so four rows share each diagonal-
        // block row load and the serial per-column divide chain is
        // amortized 4x ([`dot4`] with the diagonal-block row as the shared
        // operand). Rows are finalized top-down, so every dot reads
        // completed panel segments — including a group row reading the
        // TRSM-finalized panels of earlier rows in its own group.
        let mut i = k + kb;
        while i + 4 <= n {
            let (above, rest) = data.split_at_mut(i * n);
            let (r0, rest) = rest.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, rest) = rest.split_at_mut(n);
            let r3 = &mut rest[..n];
            // 4-row TRSM against the factored diagonal block.
            for j in k..k + kb {
                let row_j = &above[j * n..j * n + n];
                let s = dot4(&row_j[k..j], &r0[k..j], &r1[k..j], &r2[k..j], &r3[k..j]);
                let d = row_j[j];
                r0[j] = (r0[j] - s[0]) / d;
                r1[j] = (r1[j] - s[1]) / d;
                r2[j] = (r2[j] - s[2]) / d;
                r3[j] = (r3[j] - s[3]) / d;
            }
            // SYRK/GEMM trailing update: group rows in pairs, so each
            // quad-column strip of finalized rows is fetched once and
            // consumed by two trailing rows (two [`dot4`] calls).
            let mut group = [r0, r1, r2, r3];
            for p in 0..2 {
                let (done, cur) = group.split_at_mut(2 * p);
                let (ra_s, rb_s) = cur.split_at_mut(1);
                let ra: &mut [f64] = ra_s[0];
                let rb: &mut [f64] = rb_s[0];
                let ia = i + 2 * p;
                let panel = k..k + kb;
                let row_panel = |j: usize| -> &[f64] {
                    if j < i {
                        &above[j * n + k..j * n + k + kb]
                    } else {
                        &done[j - i][k..k + kb]
                    }
                };
                // Columns below both rows, four at a time.
                let mut j = k + kb;
                while j + 4 <= ia {
                    let [b0, b1, b2, b3] = [j, j + 1, j + 2, j + 3].map(row_panel);
                    let sa = dot4(&ra[panel.clone()], b0, b1, b2, b3);
                    let sb = dot4(&rb[panel.clone()], b0, b1, b2, b3);
                    for (r, s) in ra[j..j + 4].iter_mut().zip(sa) {
                        *r -= s;
                    }
                    for (r, s) in rb[j..j + 4].iter_mut().zip(sb) {
                        *r -= s;
                    }
                    j += 4;
                }
                while j < ia {
                    let rj = row_panel(j);
                    ra[j] -= dot(&ra[panel.clone()], rj);
                    rb[j] -= dot(&rb[panel.clone()], rj);
                    j += 1;
                }
                // Row b's extra column under row a, then both diagonals.
                rb[ia] -= dot(&rb[panel.clone()], &ra[panel.clone()]);
                let da = dot(&ra[panel.clone()], &ra[panel.clone()]);
                ra[ia] -= da;
                let db = dot(&rb[panel.clone()], &rb[panel.clone()]);
                rb[ia + 1] -= db;
            }
            i += 4;
        }
        // Remainder trailing rows (fewer than four left): single-row path.
        while i < n {
            let (above, row_i) = split_row(data, n, i);
            for j in k..k + kb {
                let row_j = &above[j * n..j * n + n];
                let s = row_i[j] - dot(&row_i[k..j], &row_j[k..j]);
                row_i[j] = s / row_j[j];
            }
            let panel = k..k + kb;
            let mut j = k + kb;
            while j + 4 <= i {
                let s = dot4(
                    &row_i[panel.clone()],
                    &above[j * n + k..j * n + k + kb],
                    &above[(j + 1) * n + k..(j + 1) * n + k + kb],
                    &above[(j + 2) * n + k..(j + 2) * n + k + kb],
                    &above[(j + 3) * n + k..(j + 3) * n + k + kb],
                );
                row_i[j] -= s[0];
                row_i[j + 1] -= s[1];
                row_i[j + 2] -= s[2];
                row_i[j + 3] -= s[3];
                j += 4;
            }
            while j < i {
                let row_j = &above[j * n..j * n + n];
                row_i[j] -= dot(&row_i[panel.clone()], &row_j[panel.clone()]);
                j += 1;
            }
            let d = dot(&row_i[panel.clone()], &row_i[panel]);
            row_i[i] -= d;
            i += 1;
        }
        k += kb;
    }
    // Zero the strict upper triangle so `L·Lᵀ` reconstructions and
    // `l().transpose()` see a clean factor.
    for i in 0..n {
        let row = &mut data[i * n..(i + 1) * n];
        for v in &mut row[i + 1..] {
            *v = 0.0;
        }
    }
    Ok(())
}

/// Fused forward/backward solve `L·Lᵀ·x = b` in place: `b` enters as the
/// right-hand side and leaves as the solution, with no intermediate
/// allocation. `l` must be a lower-triangular Cholesky factor.
pub fn solve_in_place(l: &Matrix, b: &mut [f64]) -> crate::Result<()> {
    forward_solve_in_place(l, b)?;
    let n = l.rows();
    let data = l.data();
    // Backward pass in outer-product form: once x[i] is final, its
    // contribution is swept from all remaining components using the
    // contiguous row i instead of striding down column i.
    for i in (0..n).rev() {
        let row = &data[i * n..i * n + n];
        let xi = b[i] / row[i];
        b[i] = xi;
        for (bk, &lik) in b[..i].iter_mut().zip(&row[..i]) {
            *bk -= xi * lik;
        }
    }
    Ok(())
}

/// Forward substitution `L·y = b` in place.
pub(crate) fn forward_solve_in_place(l: &Matrix, b: &mut [f64]) -> crate::Result<()> {
    let n = l.rows();
    if b.len() != n {
        return Err(NumericError::dim(
            "forward_solve_in_place",
            format!("rhs of length {n}"),
            format!("length {}", b.len()),
        ));
    }
    let data = l.data();
    for i in 0..n {
        let row = &data[i * n..i * n + n];
        let s = dot(&row[..i], &b[..i]);
        b[i] = (b[i] - s) / row[i];
    }
    Ok(())
}

/// `A⁻¹` from the Cholesky factor of `A = L·Lᵀ`, into a caller-owned
/// buffer: on return the lower triangle of `inv` (diagonal included) holds
/// the lower triangle of `A⁻¹`; its strict upper triangle is scratch
/// (`L⁻ᵀ`) and must not be read. No allocation, twice the factorization's
/// multiply-adds, every inner loop a dot product of two contiguous slices.
///
/// Two passes. (1) `T = L⁻ᵀ` into the upper triangle, one row of `T` (one
/// column of `L⁻¹`) per forward substitution `L·x = eⱼ`, so the recurrence
/// reads row `i` of `L` against the row of `T` being built. (2)
/// `A⁻¹ = L⁻ᵀ·L⁻¹`, i.e. `A⁻¹[a][b] = T[a][a..]·T[b][a..]` for `b ≤ a`,
/// written over the lower triangle; the diagonal entry of row `a` is
/// written last, when nothing still reads `T[a][a]`.
///
/// This is what the GP likelihood gradient needs (`tr(Σ⁻¹ ∂Σ)` for every
/// hyper-parameter from one inverse); a single solve should keep using
/// [`solve_in_place`].
pub fn inverse_from_factor(l: &Matrix, inv: &mut Matrix) -> crate::Result<()> {
    let n = l.rows();
    if !l.is_square() || inv.rows() != n || inv.cols() != n {
        return Err(NumericError::dim(
            "inverse_from_factor",
            format!("a square factor and a {n}x{n} output"),
            format!(
                "{}x{} and {}x{}",
                l.rows(),
                l.cols(),
                inv.rows(),
                inv.cols()
            ),
        ));
    }
    let ld = l.data();
    let data = inv.data_mut();
    for j in 0..n {
        let x = &mut data[j * n..(j + 1) * n];
        x[j] = 1.0 / ld[j * n + j];
        for i in j + 1..n {
            let row = &ld[i * n..i * n + n];
            x[i] = -dot(&row[j..i], &x[j..i]) / row[i];
        }
    }
    for a in 0..n {
        let (above, row_a) = split_row(data, n, a);
        let tail = a..n;
        let mut b = 0;
        while b + 4 <= a {
            let s = dot4(
                &row_a[tail.clone()],
                &above[b * n..][tail.clone()],
                &above[(b + 1) * n..][tail.clone()],
                &above[(b + 2) * n..][tail.clone()],
                &above[(b + 3) * n..][tail.clone()],
            );
            row_a[b..b + 4].copy_from_slice(&s);
            b += 4;
        }
        while b < a {
            row_a[b] = dot(&row_a[tail.clone()], &above[b * n..][tail.clone()]);
            b += 1;
        }
        row_a[a] = dot(&row_a[tail.clone()], &row_a[tail]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{chaos_seed, rng_from_seed};

    /// A = BᵀB + I with B's entries uniform on [−½, ½).
    fn spd(n: usize) -> Matrix {
        let mut rng = rng_from_seed(chaos_seed());
        let entries = (0..n * n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = Matrix::from_vec(n, n, entries).unwrap();
        &(&b.transpose() * &b) + &Matrix::identity(n)
    }

    #[test]
    fn blocked_factor_reconstructs_matrix() {
        for n in [1usize, 3, 17, 64, 65, 130] {
            let a = spd(n);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            let recon = &l * &l.transpose();
            assert!(
                recon.max_abs_diff(&a).unwrap() < 1e-10,
                "reconstruction failed at n={n}"
            );
        }
    }

    #[test]
    fn fused_solve_matches_direct_substitution() {
        let a = spd(37);
        let mut l = a.clone();
        cholesky_in_place(&mut l).unwrap();
        let x_true: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = a.mul_vec(&x_true).unwrap();
        solve_in_place(&l, &mut b).unwrap();
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn inverse_from_factor_inverts() {
        for n in [1usize, 2, 5, 17, 64, 65, 130] {
            let a = spd(n);
            let mut l = a.clone();
            cholesky_in_place(&mut l).unwrap();
            // A dirty buffer: the routine must not depend on its contents.
            let mut inv = Matrix::from_vec(n, n, vec![f64::NAN; n * n]).unwrap();
            inverse_from_factor(&l, &mut inv).unwrap();
            // Symmetrize the lower triangle and check A·A⁻¹ = I.
            let mut full = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..=i {
                    full[(i, j)] = inv[(i, j)];
                    full[(j, i)] = inv[(i, j)];
                }
            }
            let err = (&a * &full).max_abs_diff(&Matrix::identity(n)).unwrap();
            assert!(err < 1e-10, "n={n}: |A·A⁻¹ − I| = {err}");
        }
        let l = Matrix::identity(3);
        assert!(inverse_from_factor(&l, &mut Matrix::zeros(2, 2)).is_err());
        assert!(inverse_from_factor(&Matrix::zeros(2, 3), &mut Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn rejects_indefinite_and_non_square() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            cholesky_in_place(&mut a),
            Err(NumericError::SingularMatrix { .. })
        ));
        let mut a = Matrix::zeros(2, 3);
        assert!(cholesky_in_place(&mut a).is_err());
        let l = Matrix::identity(3);
        assert!(forward_solve_in_place(&l, &mut [1.0]).is_err());
    }

    #[test]
    fn dot_kernels_follow_their_documented_order_to_the_bit() {
        // Plain loops in the documented order: `dot` sums four lanes by
        // index mod 4, combines them as (l0 + l2) + (l1 + l3), then adds
        // the tail; `dot4` sums even and odd indices of the even prefix
        // per stream, adds them, then the last element of an odd length.
        fn dot_in_order(a: &[f64], b: &[f64]) -> f64 {
            let full = a.len() / 4 * 4;
            let mut l = [0.0f64; 4];
            for i in 0..full {
                l[i % 4] += a[i] * b[i];
            }
            let mut s = (l[0] + l[2]) + (l[1] + l[3]);
            for i in full..a.len() {
                s += a[i] * b[i];
            }
            s
        }
        fn dot_even_odd(a: &[f64], b: &[f64]) -> f64 {
            let pairs = a.len() / 2 * 2;
            let (mut even, mut odd) = (0.0f64, 0.0f64);
            for i in (0..pairs).step_by(2) {
                even += a[i] * b[i];
                odd += a[i + 1] * b[i + 1];
            }
            let mut s = even + odd;
            if pairs < a.len() {
                s += a[pairs] * b[pairs];
            }
            s
        }
        for n in 0..=137usize {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin()).collect();
            let bs: Vec<Vec<f64>> = (0..4)
                .map(|k| (0..n).map(|i| ((i + k) as f64 * 0.17).cos()).collect())
                .collect();
            assert_eq!(
                dot(&a, &bs[0]).to_bits(),
                dot_in_order(&a, &bs[0]).to_bits(),
                "dot, n={n}"
            );
            let got = dot4(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for (k, g) in got.iter().enumerate() {
                let want = dot_even_odd(&a, &bs[k]);
                assert_eq!(g.to_bits(), want.to_bits(), "dot4 stream {k}, n={n}");
            }
        }
    }

    #[test]
    fn exp_neg_weighted_matches_libm() {
        // The fused fill is bit for bit `scale * (-s).exp()` of the
        // in-order weighted sum, across: exact zero (exp(0) = 1), tiny and
        // mid-range weighted sums, deep underflow, and remainder shapes.
        for m in [0usize, 1, 3, 4, 5, 8, 13, 64, 129] {
            let cols_owned: Vec<Vec<f64>> = (0..3)
                .map(|k| {
                    (0..m + 7)
                        .map(|i| match (i + k) % 5 {
                            0 => 0.0,
                            1 => 1e-12,
                            2 => (i as f64 * 0.13).sin().abs() * 4.0,
                            3 => i as f64 * 0.9,
                            _ => 400.0,
                        })
                        .collect()
                })
                .collect();
            let cols: Vec<&[f64]> = cols_owned.iter().map(|c| c.as_slice()).collect();
            let thetas = [0.7, 1.3, 0.05];
            let scale = 2.25;
            for offset in [0usize, 3] {
                let mut got = vec![0.0; m];
                exp_neg_weighted(&mut got, scale, &thetas, &cols, offset);
                for (j, g) in got.iter().enumerate() {
                    let mut s = 0.0f64;
                    for (&th, c) in thetas.iter().zip(&cols) {
                        s += th * c[offset + j];
                    }
                    let want = scale * (-s).exp();
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "m={m} offset={offset} j={j}: {g} vs {want}"
                    );
                    if s == 0.0 {
                        assert_eq!(*g, scale, "exp(0) must be exact");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..11).map(|i| (i as f64) * 0.5).collect();
        let expect: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expect).abs() < 1e-12);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
