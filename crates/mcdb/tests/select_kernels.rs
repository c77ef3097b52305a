//! Property suite for the query-path selection kernels (`query::select`).
//!
//! Contract: every kernel returns exactly the lanes a plain filter over
//! `0..len` keeps — full `assert_eq!`, no tolerance — because comparisons
//! and mask logic are exact. The inputs here are deliberately adversarial:
//! NaN, ±0.0, ±infinity, subnormals, extreme integers, all-null and no-null
//! masks, and lengths 0, 1 and every off-by-one around the 32- and 64-lane
//! boundaries (a null-mask word is 64 lanes).

use mde_mcdb::query::select::{
    cmp_f64_lit, cmp_i64_lit, compact_bool_lanes, intersect_sorted, CmpOp,
};
use mde_numeric::rng::for_cases;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// The oracle: the lanes of `0..len` where `pred` holds and the mask bit is
/// clear, ascending.
fn oracle(len: usize, nulls: Option<&[u64]>, pred: impl Fn(usize) -> bool) -> Vec<u32> {
    let null = |l: usize| nulls.is_some_and(|w| w[l / 64] >> (l % 64) & 1 != 0);
    (0..len)
        .filter(|&l| pred(l) && !null(l))
        .map(|l| l as u32)
        .collect()
}

/// The predicate `op` as Rust's own operators, IEEE for floats.
fn holds<T: PartialOrd>(op: CmpOp, a: T, lit: T) -> bool {
    match op {
        CmpOp::Eq => a == lit,
        CmpOp::Ne => a != lit,
        CmpOp::Lt => a < lit,
        CmpOp::Le => a <= lit,
        CmpOp::Gt => a > lit,
        CmpOp::Ge => a >= lit,
    }
}

/// Adversarial f64 palette: the values most likely to split an IEEE
/// predicate from a scalar `==`/`<` chain. `alt` fills the final slot
/// with an arbitrary float.
fn hostile_f64(pick: usize, alt: f64) -> f64 {
    match pick {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => 0.0,
        3 => -0.0,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => f64::MIN_POSITIVE,
        7 => -f64::MIN_POSITIVE / 2.0, // subnormal
        8 => f64::MAX,
        9 => f64::MIN,
        _ => alt,
    }
}

fn hostile_i64(pick: usize, alt: u64) -> i64 {
    match pick {
        0 => i64::MIN,
        1 => i64::MIN + 1,
        2 => i64::MAX,
        3 => i64::MAX - 1,
        4 => 0,
        5 => -1,
        6 => 1,
        _ => alt as i64,
    }
}

/// Lengths straddling the 32- and 64-lane boundaries: 0, 1, and every
/// off-by-one around them; the final slot is an arbitrary length.
fn edge_len(pick: usize, rand: usize) -> usize {
    const TABLE: [usize; 11] = [0, 1, 3, 4, 5, 31, 32, 33, 63, 64, 65];
    if pick < TABLE.len() {
        TABLE[pick]
    } else {
        rand
    }
}

/// A null-mask covering `len` lanes: kind 0 = absent, 1 = no nulls,
/// 2 = every lane null, 3 = arbitrary words.
fn mask_for(kind: usize, words_src: &[u64], len: usize) -> Option<Vec<u64>> {
    let words = len.div_ceil(64).max(1);
    match kind {
        0 => None,
        1 => Some(vec![0u64; words]),
        2 => Some(vec![!0u64; words]),
        _ => Some(
            (0..words)
                .map(|i| words_src.get(i).copied().unwrap_or(0xdead_beef_cafe_f00d))
                .collect(),
        ),
    }
}

/// f64 literal comparison equals the plain filter on hostile data, for all
/// six predicates and every mask shape.
#[test]
fn cmp_f64_equals_plain_filter() {
    for_cases(192, |rng| {
        let len_pick = rng.gen_range(0usize..13);
        let len_rand = rng.gen_range(0usize..130);
        let picks: Vec<usize> = (0..rng.gen_range(1..131))
            .map(|_| rng.gen_range(0..12))
            .collect();
        let alts: Vec<f64> = (0..rng.gen_range(1..131))
            .map(|_| f64::from_bits(rng.gen()))
            .collect();
        let lit_pick = rng.gen_range(0usize..12);
        let lit_alt = f64::from_bits(rng.gen());
        let kind = rng.gen_range(0usize..4);
        let words: Vec<u64> = (0..rng.gen_range(1..4)).map(|_| rng.gen()).collect();
        let len = edge_len(len_pick, len_rand);
        let data: Vec<f64> = (0..len)
            .map(|i| hostile_f64(picks[i % picks.len()], alts[i % alts.len()]))
            .collect();
        let lit = hostile_f64(lit_pick, lit_alt);
        let mask = mask_for(kind, &words, len);
        for op in OPS {
            let got = cmp_f64_lit(op, &data, lit, mask.as_deref());
            let want = oracle(len, mask.as_deref(), |l| holds(op, data[l], lit));
            assert_eq!(&got, &want, "op {:?} len {} lit {:?}", op, len, lit);
            if kind == 2 {
                assert!(got.is_empty(), "all-null input selects nothing");
            }
        }
    });
}

/// i64 literal comparison equals the plain filter on extreme integers.
#[test]
fn cmp_i64_equals_plain_filter() {
    for_cases(192, |rng| {
        let len_pick = rng.gen_range(0usize..13);
        let len_rand = rng.gen_range(0usize..130);
        let picks: Vec<usize> = (0..rng.gen_range(1..131))
            .map(|_| rng.gen_range(0..8))
            .collect();
        let alts: Vec<u64> = (0..rng.gen_range(1..131)).map(|_| rng.gen()).collect();
        let lit_pick = rng.gen_range(0usize..8);
        let lit_alt = rng.gen::<u64>();
        let kind = rng.gen_range(0usize..4);
        let words: Vec<u64> = (0..rng.gen_range(1..4)).map(|_| rng.gen()).collect();
        let len = edge_len(len_pick, len_rand);
        let data: Vec<i64> = (0..len)
            .map(|i| hostile_i64(picks[i % picks.len()], alts[i % alts.len()]))
            .collect();
        let lit = hostile_i64(lit_pick, lit_alt);
        let mask = mask_for(kind, &words, len);
        for op in OPS {
            let got = cmp_i64_lit(op, &data, lit, mask.as_deref());
            let want = oracle(len, mask.as_deref(), |l| holds(op, data[l], lit));
            assert_eq!(&got, &want, "op {:?} len {} lit {}", op, len, lit);
            if kind == 2 {
                assert!(got.is_empty());
            }
        }
    });
}

/// Boolean compaction equals the plain filter over every mask shape.
#[test]
fn compact_bool_equals_plain_filter() {
    for_cases(192, |rng| {
        let len_pick = rng.gen_range(0usize..13);
        let len_rand = rng.gen_range(0usize..130);
        let fill: Vec<bool> = (0..rng.gen_range(1..131)).map(|_| rng.gen()).collect();
        let kind = rng.gen_range(0usize..4);
        let words: Vec<u64> = (0..rng.gen_range(1..4)).map(|_| rng.gen()).collect();
        let len = edge_len(len_pick, len_rand);
        let data: Vec<bool> = (0..len).map(|i| fill[i % fill.len()]).collect();
        let mask = mask_for(kind, &words, len);
        let got = compact_bool_lanes(&data, mask.as_deref());
        assert_eq!(&got, &oracle(len, mask.as_deref(), |l| data[l]));
        if kind == 2 {
            assert!(got.is_empty());
        }
    });
}

/// A filter conjunction is the intersection of its conjuncts' selections:
/// intersecting two comparison kernels' outputs equals the lanes where both
/// predicates hold, and stays ascending.
#[test]
fn conjunction_is_the_intersection() {
    for_cases(192, |rng| {
        let len_pick = rng.gen_range(0usize..13);
        let len_rand = rng.gen_range(0usize..130);
        let picks: Vec<usize> = (0..rng.gen_range(1..131))
            .map(|_| rng.gen_range(0..8))
            .collect();
        let alts: Vec<u64> = (0..rng.gen_range(1..131)).map(|_| rng.gen()).collect();
        let words: Vec<u64> = (0..rng.gen_range(1..4)).map(|_| rng.gen()).collect();
        let lo_pick = rng.gen_range(0usize..8);
        let hi_pick = rng.gen_range(0usize..8);
        let lo_op = OPS[rng.gen_range(0usize..6)];
        let hi_op = OPS[rng.gen_range(0usize..6)];
        let len = edge_len(len_pick, len_rand);
        let data: Vec<i64> = (0..len)
            .map(|i| hostile_i64(picks[i % picks.len()], alts[i % alts.len()]))
            .collect();
        let nulls: Vec<u64> = (0..len.div_ceil(64).max(1))
            .map(|w| words[w % words.len()])
            .collect();
        let (lo, hi) = (
            hostile_i64(lo_pick, alts[0]),
            hostile_i64(hi_pick, alts[alts.len() - 1]),
        );
        let a = cmp_i64_lit(lo_op, &data, lo, Some(&nulls));
        let b = cmp_i64_lit(hi_op, &data, hi, Some(&nulls));
        let both = intersect_sorted(&a, &b);
        let want = oracle(len, Some(&nulls), |l| {
            holds(lo_op, data[l], lo) && holds(hi_op, data[l], hi)
        });
        assert_eq!(&both, &want);
        assert!(
            both.windows(2).all(|w| w[0] < w[1]),
            "selection stays ascending"
        );
    });
}

/// NaN semantics pinned explicitly: every predicate except `Ne` is false
/// against NaN (both as data and as literal); `Ne` is true.
#[test]
fn nan_comparison_semantics_are_ieee() {
    let data = [f64::NAN, 1.0, -f64::NAN, f64::INFINITY, -0.0];
    // NaN data, finite literal: only Ne selects the NaN lanes.
    assert_eq!(cmp_f64_lit(CmpOp::Ne, &data, 0.0, None), vec![0, 1, 2, 3]);
    assert_eq!(cmp_f64_lit(CmpOp::Eq, &data, 0.0, None), vec![4]); // -0.0 == 0.0
    assert_eq!(cmp_f64_lit(CmpOp::Lt, &data, 0.0, None), Vec::<u32>::new());
    assert_eq!(cmp_f64_lit(CmpOp::Ge, &data, 0.0, None), vec![1, 3, 4]);
    // NaN literal: Ne selects everything, everything else nothing.
    assert_eq!(
        cmp_f64_lit(CmpOp::Ne, &data, f64::NAN, None),
        vec![0, 1, 2, 3, 4]
    );
    for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
        assert_eq!(cmp_f64_lit(op, &data, f64::NAN, None), Vec::<u32>::new());
    }
}

/// Signed-zero equality: -0.0 == 0.0 in IEEE.
#[test]
fn signed_zero_compares_equal() {
    let data = [0.0f64, -0.0, 1.0, -1.0];
    for lit in [0.0f64, -0.0] {
        assert_eq!(cmp_f64_lit(CmpOp::Eq, &data, lit, None), vec![0, 1]);
        assert_eq!(cmp_f64_lit(CmpOp::Ge, &data, lit, None), vec![0, 1, 2]);
        assert_eq!(cmp_f64_lit(CmpOp::Lt, &data, lit, None), vec![3]);
    }
}

/// Empty and single-lane inputs must never index a null word out of
/// range, and a single null lane selects nothing.
#[test]
fn zero_and_one_lane_inputs() {
    let no_f: [f64; 0] = [];
    let no_i: [i64; 0] = [];
    let no_b: [bool; 0] = [];
    for op in OPS {
        assert_eq!(cmp_f64_lit(op, &no_f, 1.0, None), Vec::<u32>::new());
        assert_eq!(cmp_i64_lit(op, &no_i, 1, Some(&[0])), Vec::<u32>::new());
        assert_eq!(
            cmp_f64_lit(op, &[2.5], 1.0, Some(&[0])),
            oracle(1, None, |_| holds(op, 2.5, 1.0))
        );
        assert_eq!(
            cmp_i64_lit(op, &[-9], -9, Some(&[1])),
            Vec::<u32>::new(),
            "single null lane selects nothing"
        );
    }
    assert_eq!(compact_bool_lanes(&no_b, None), Vec::<u32>::new());
    assert_eq!(compact_bool_lanes(&[true], Some(&[0])), vec![0]);
    assert_eq!(compact_bool_lanes(&[true], Some(&[1])), Vec::<u32>::new());
    assert_eq!(intersect_sorted(&[], &[0]), Vec::<u32>::new());
}
