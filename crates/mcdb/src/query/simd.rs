//! SIMD batch kernels for the vectorized executor, with portable scalar
//! oracles.
//!
//! Extends the runtime-dispatch pattern of `mde_numeric::linalg::kernels`
//! (PR 5) to the query path: each public entry point checks
//! `is_x86_feature_detected!("avx2")` once per call (the detection result
//! is cached by `std`) and either runs an AVX2 kernel or the portable
//! scalar loop. Unlike the floating-point GP kernels, everything here is
//! **exact** — comparisons, mask logic, and integer hashing have no
//! rounding — so the dispatched and portable paths return bit-identical
//! results and the property suite (`tests/simd_kernels.rs`) asserts full
//! equality, not a tolerance.
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
//! IEEE-total behavior (ordered-quiet predicates: any comparison with
//! NaN is false, except `Ne` which is true) and the property tests pin
//! dispatched == portable on NaN/±0.0/infinity inputs.

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

/// Whether the AVX2 kernels are active on this host. The portable paths
/// run (and are tested) everywhere; this only reports which side the
/// dispatch takes.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline]
fn null_at(nulls: Option<&[u64]>, lane: usize) -> bool {
    match nulls {
        Some(w) => w[lane / 64] >> (lane % 64) & 1 != 0,
        None => false,
    }
}

#[inline]
fn cmp_f64_scalar(op: CmpOp, a: f64, lit: f64) -> bool {
    match op {
        CmpOp::Eq => a == lit,
        CmpOp::Ne => a != lit,
        CmpOp::Lt => a < lit,
        CmpOp::Le => a <= lit,
        CmpOp::Gt => a > lit,
        CmpOp::Ge => a >= lit,
    }
}

#[inline]
fn cmp_i64_scalar(op: CmpOp, a: i64, lit: i64) -> bool {
    match op {
        CmpOp::Eq => a == lit,
        CmpOp::Ne => a != lit,
        CmpOp::Lt => a < lit,
        CmpOp::Le => a <= lit,
        CmpOp::Gt => a > lit,
        CmpOp::Ge => a >= lit,
    }
}

/// Compact a boolean column into a selection vector: the (local) lane
/// indices where `data[lane]` is true and the lane is not null.
pub fn compact_bool_lanes(data: &[bool], nulls: Option<&[u64]>) -> Vec<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the line above, which is the
        // kernel's only requirement; inside, every unaligned 32-lane load
        // is bounds-checked against `data.len()` by its loop condition.
        return unsafe { avx2::compact_bool(data, nulls) };
    }
    compact_bool_lanes_portable(data, nulls)
}

/// Portable oracle for [`compact_bool_lanes`].
pub fn compact_bool_lanes_portable(data: &[bool], nulls: Option<&[u64]>) -> Vec<u32> {
    let mut out = Vec::new();
    for (lane, &v) in data.iter().enumerate() {
        if v && !null_at(nulls, lane) {
            out.push(lane as u32);
        }
    }
    out
}

/// Compare an `f64` column against a literal and return the selection
/// vector of non-null lanes where the predicate holds. IEEE semantics:
/// comparisons with NaN are false (true for [`CmpOp::Ne`]).
pub fn cmp_f64_lit(op: CmpOp, data: &[f64], lit: f64, nulls: Option<&[u64]>) -> Vec<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the line above, which is the
        // kernel's only requirement; inside, every unaligned 4-lane load
        // is bounds-checked against `data.len()` by its loop condition.
        return unsafe { avx2::cmp_f64(op, data, lit, nulls) };
    }
    cmp_f64_lit_portable(op, data, lit, nulls)
}

/// Portable oracle for [`cmp_f64_lit`].
pub fn cmp_f64_lit_portable(op: CmpOp, data: &[f64], lit: f64, nulls: Option<&[u64]>) -> Vec<u32> {
    let mut out = Vec::new();
    for (lane, &a) in data.iter().enumerate() {
        if cmp_f64_scalar(op, a, lit) && !null_at(nulls, lane) {
            out.push(lane as u32);
        }
    }
    out
}

/// Compare an `i64` column against a literal and return the selection
/// vector of non-null lanes where the predicate holds.
pub fn cmp_i64_lit(op: CmpOp, data: &[i64], lit: i64, nulls: Option<&[u64]>) -> Vec<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the line above, which is the
        // kernel's only requirement; inside, every unaligned 4-lane load
        // is bounds-checked against `data.len()` by its loop condition.
        return unsafe { avx2::cmp_i64(op, data, lit, nulls) };
    }
    cmp_i64_lit_portable(op, data, lit, nulls)
}

/// Portable oracle for [`cmp_i64_lit`].
pub fn cmp_i64_lit_portable(op: CmpOp, data: &[i64], lit: i64, nulls: Option<&[u64]>) -> Vec<u32> {
    let mut out = Vec::new();
    for (lane, &a) in data.iter().enumerate() {
        if cmp_i64_scalar(op, a, lit) && !null_at(nulls, lane) {
            out.push(lane as u32);
        }
    }
    out
}

/// Intersect two ascending selection vectors — the conjunction of two
/// filter kernels' outputs (a lane passes `a AND b` only when it is in
/// both). Safe scalar merge: the inputs are already compacted, so there is
/// no lane-parallel work left for a SIMD twin to win.
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 kernels. Every function is gated behind the caller's runtime
    //! feature check; `#[target_feature]` makes the intrinsics safe to
    //! emit, the caller's `is_x86_feature_detected!` makes them safe to
    //! run.
    use super::{cmp_f64_scalar, cmp_i64_scalar, null_at, CmpOp};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Push the lanes of a (≤32-bit) keep mask anchored at `base`.
    #[inline]
    fn push_mask(out: &mut Vec<u32>, base: usize, mut keep: u32) {
        while keep != 0 {
            let t = keep.trailing_zeros();
            out.push(base as u32 + t);
            keep &= keep - 1;
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (callers check
    /// `is_x86_feature_detected!("avx2")`). Memory safety needs nothing
    /// else: loads are unaligned (`loadu`) at offsets the loop condition
    /// keeps within `data`, and the null words are indexed checked.
    #[target_feature(enable = "avx2")]
    pub unsafe fn compact_bool(data: &[bool], nulls: Option<&[u64]>) -> Vec<u32> {
        let n = data.len();
        let mut out = Vec::new();
        // `bool` is guaranteed to be one byte holding 0 or 1.
        let ptr = data.as_ptr() as *const u8;
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        while i + 32 <= n {
            let v = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
            let is_zero = _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)) as u32;
            let mut keep = !is_zero;
            if let Some(w) = nulls {
                let word = w[i / 64];
                let half = if i % 64 == 0 { word } else { word >> 32 };
                keep &= !(half as u32);
            }
            push_mask(&mut out, i, keep);
            i += 32;
        }
        for (lane, &d) in data.iter().enumerate().skip(i) {
            if d && !null_at(nulls, lane) {
                out.push(lane as u32);
            }
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (callers check
    /// `is_x86_feature_detected!("avx2")`). Memory safety needs nothing
    /// else: loads are unaligned (`loadu`) at offsets the loop condition
    /// keeps within `data`, and the null words are indexed checked.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmp_f64(op: CmpOp, data: &[f64], lit: f64, nulls: Option<&[u64]>) -> Vec<u32> {
        // Ordered-quiet predicates except NEQ_UQ: IEEE `!=` is true when
        // unordered, everything else is false — matching the scalar ops.
        match op {
            CmpOp::Eq => cmp_f64_imm::<_CMP_EQ_OQ>(data, lit, nulls, op),
            CmpOp::Ne => cmp_f64_imm::<_CMP_NEQ_UQ>(data, lit, nulls, op),
            CmpOp::Lt => cmp_f64_imm::<_CMP_LT_OQ>(data, lit, nulls, op),
            CmpOp::Le => cmp_f64_imm::<_CMP_LE_OQ>(data, lit, nulls, op),
            CmpOp::Gt => cmp_f64_imm::<_CMP_GT_OQ>(data, lit, nulls, op),
            CmpOp::Ge => cmp_f64_imm::<_CMP_GE_OQ>(data, lit, nulls, op),
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (callers check
    /// `is_x86_feature_detected!("avx2")`). Memory safety needs nothing
    /// else: loads are unaligned (`loadu`) at offsets the loop condition
    /// keeps within `data`, and the null words are indexed checked.
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_f64_imm<const IMM: i32>(
        data: &[f64],
        lit: f64,
        nulls: Option<&[u64]>,
        op: CmpOp,
    ) -> Vec<u32> {
        let n = data.len();
        let mut out = Vec::new();
        let l = _mm256_set1_pd(lit);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(data.as_ptr().add(i));
            let mut keep = _mm256_movemask_pd(_mm256_cmp_pd::<IMM>(v, l)) as u32 & 0xF;
            if let Some(w) = nulls {
                keep &= !((w[i / 64] >> (i % 64)) as u32) & 0xF;
            }
            push_mask(&mut out, i, keep);
            i += 4;
        }
        for (lane, &d) in data.iter().enumerate().skip(i) {
            if cmp_f64_scalar(op, d, lit) && !null_at(nulls, lane) {
                out.push(lane as u32);
            }
        }
        out
    }

    /// # Safety
    ///
    /// The CPU must support AVX2 (callers check
    /// `is_x86_feature_detected!("avx2")`). Memory safety needs nothing
    /// else: loads are unaligned (`loadu`) at offsets the loop condition
    /// keeps within `data`, and the null words are indexed checked.
    #[target_feature(enable = "avx2")]
    pub unsafe fn cmp_i64(op: CmpOp, data: &[i64], lit: i64, nulls: Option<&[u64]>) -> Vec<u32> {
        // AVX2 has 64-bit eq and signed gt; the other four derive by
        // operand swap and mask negation.
        let (use_eq, swap, negate) = match op {
            CmpOp::Eq => (true, false, false),
            CmpOp::Ne => (true, false, true),
            CmpOp::Gt => (false, false, false),
            CmpOp::Le => (false, false, true),
            CmpOp::Lt => (false, true, false),
            CmpOp::Ge => (false, true, true),
        };
        let n = data.len();
        let mut out = Vec::new();
        let l = _mm256_set1_epi64x(lit);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
            let m = if use_eq {
                _mm256_cmpeq_epi64(v, l)
            } else if swap {
                _mm256_cmpgt_epi64(l, v)
            } else {
                _mm256_cmpgt_epi64(v, l)
            };
            let mut keep = _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32 & 0xF;
            if negate {
                keep ^= 0xF;
            }
            if let Some(w) = nulls {
                keep &= !((w[i / 64] >> (i % 64)) as u32) & 0xF;
            }
            push_mask(&mut out, i, keep);
            i += 4;
        }
        for (lane, &d) in data.iter().enumerate().skip(i) {
            if cmp_i64_scalar(op, d, lit) && !null_at(nulls, lane) {
                out.push(lane as u32);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    #[test]
    fn dispatched_matches_portable_smoke() {
        let f: Vec<f64> = (0..67).map(|i| (i as f64) - 33.0).collect();
        let ints: Vec<i64> = (0..67).map(|i| i - 33).collect();
        let bools: Vec<bool> = (0..67).map(|i| i % 3 == 0).collect();
        let nulls: Vec<u64> = vec![0xAAAA_AAAA_AAAA_AAAA, 0x5];
        for op in OPS {
            assert_eq!(
                cmp_f64_lit(op, &f, 1.5, Some(&nulls)),
                cmp_f64_lit_portable(op, &f, 1.5, Some(&nulls)),
            );
            assert_eq!(
                cmp_i64_lit(op, &ints, -3, Some(&nulls)),
                cmp_i64_lit_portable(op, &ints, -3, Some(&nulls)),
            );
        }
        assert_eq!(
            compact_bool_lanes(&bools, Some(&nulls)),
            compact_bool_lanes_portable(&bools, Some(&nulls)),
        );
    }

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
