//! Selection kernels for the vectorized executor: a column against a
//! literal, or a boolean column, turned into a selection vector.
//!
//! Every kernel is one branch-free loop in plain Rust. Each lane stores its
//! index at the output cursor, and the cursor advances only past lanes that
//! are kept and not null, so the loop body has no data-dependent branch.
//! The comparison is chosen once per call, outside the loop, and each
//! [`CmpOp`] gets its own monomorphised loop. Comparisons and mask logic
//! are exact, so the suite (`tests/select_kernels.rs`) asserts full
//! equality with a plain filter over the lanes, not a tolerance.
//!
//! Null masks follow the [`crate::query::column::NullMask`] convention:
//! 64 lanes per `u64` word, **set bit = NULL**, lane `i` maps to
//! `words[i / 64] >> (i % 64) & 1`. Callers pass a column's whole mask.
//!
//! NaN never reaches the `f64` comparison kernel from engine columns —
//! schema validation rejects non-finite table values and projection
//! re-validates computed columns, so a non-null NaN lane is unreachable
//! by construction (`eval_cmp` turns a NaN comparison into a typed
//! error before any fast path applies). The kernels nevertheless define
//! IEEE behavior (any comparison with NaN is false, except `Ne` which is
//! true), and the suite pins it on NaN/±0.0/infinity inputs.

/// Comparison predicate for the literal-comparison kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// The one selection loop: the lanes of `data` where `keep` holds and the
/// null mask is clear, ascending.
#[inline(always)]
fn select<T: Copy>(data: &[T], nulls: Option<&[u64]>, keep: impl Fn(T) -> bool) -> Vec<u32> {
    let mut out = vec![0u32; data.len()];
    let mut n = 0;
    for (w, block) in data.chunks(64).enumerate() {
        let null_word = nulls.map_or(0, |words| words[w]);
        for (bit, &x) in block.iter().enumerate() {
            out[n] = (w * 64 + bit) as u32;
            n += usize::from(keep(x) & (null_word >> bit & 1 == 0));
        }
    }
    out.truncate(n);
    out
}

/// [`select`] with the comparison resolved before the loop.
fn cmp_lit<T: Copy + PartialOrd>(op: CmpOp, data: &[T], lit: T, nulls: Option<&[u64]>) -> Vec<u32> {
    match op {
        CmpOp::Eq => select(data, nulls, |a| a == lit),
        CmpOp::Ne => select(data, nulls, |a| a != lit),
        CmpOp::Lt => select(data, nulls, |a| a < lit),
        CmpOp::Le => select(data, nulls, |a| a <= lit),
        CmpOp::Gt => select(data, nulls, |a| a > lit),
        CmpOp::Ge => select(data, nulls, |a| a >= lit),
    }
}

/// Compact a boolean column into a selection vector: the (local) lane
/// indices where `data[lane]` is true and the lane is not null.
pub fn compact_bool_lanes(data: &[bool], nulls: Option<&[u64]>) -> Vec<u32> {
    select(data, nulls, |v| v)
}

/// Compare an `f64` column against a literal and return the selection
/// vector of non-null lanes where the predicate holds. IEEE semantics:
/// comparisons with NaN are false (true for [`CmpOp::Ne`]).
pub fn cmp_f64_lit(op: CmpOp, data: &[f64], lit: f64, nulls: Option<&[u64]>) -> Vec<u32> {
    cmp_lit(op, data, lit, nulls)
}

/// Compare an `i64` column against a literal and return the selection
/// vector of non-null lanes where the predicate holds.
pub fn cmp_i64_lit(op: CmpOp, data: &[i64], lit: i64, nulls: Option<&[u64]>) -> Vec<u32> {
    cmp_lit(op, data, lit, nulls)
}

/// Intersect two ascending selection vectors — the conjunction of two
/// filter kernels' outputs (a lane passes `a AND b` only when it is in
/// both).
pub fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Hash of one `i64` key part: splitmix64's finalizer over the key's
/// two's-complement bits. The typed key table (`query::kernels`) hashes
/// Int, Float-bit and Bool key columns with it.
#[inline]
pub fn hash_i64_one(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_keeps_common_lanes_in_order() {
        assert_eq!(
            intersect_sorted(&[1, 3, 5, 9], &[0, 3, 4, 5, 10]),
            vec![3, 5]
        );
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[7], &[7]), vec![7]);
    }
}
