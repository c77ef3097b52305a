//! Property tests for the mergeable log-linear [`Histogram`] — the data
//! structure every deterministic metrics claim rests on. Bucketing must be
//! a pure function of the value, merging a commutative monoid, and
//! quantiles bounded by the advertised relative error.

use mde_numeric::obs::Histogram;
use mde_numeric::rng::{for_cases, Rng};

/// Raw material for mixed-magnitude observations; [`mixed`] folds a
/// deterministic fraction into exact zeros and tiny values so the zero
/// bucket and the sub-unit decades are exercised.
fn values(rng: &mut Rng, len: std::ops::Range<usize>) -> Vec<f64> {
    (0..rng.gen_range(len))
        .map(|_| rng.gen_range(-1e6..1e6))
        .collect()
}

/// Large, small, negative, and exact-zero finite observations.
fn mixed(raw: &[f64]) -> Vec<f64> {
    raw.iter()
        .enumerate()
        .map(|(i, &v)| match i % 5 {
            0 => 0.0,
            1 => v / 1e9,
            _ => v,
        })
        .collect()
}

fn build(vals: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.observe(v);
    }
    h
}

/// The ceil-rank empirical quantile the histogram approximates.
fn true_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as u64;
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

/// Sharding a multiset any way and merging the shards in any order
/// reproduces the whole-stream histogram exactly — the invariant the
/// parallel campaign merge relies on.
#[test]
fn sharded_merge_reproduces_the_whole() {
    for_cases(128, |rng| {
        let raw = values(rng, 0..200);
        let shards = rng.gen_range(1usize..7);
        let vals = mixed(&raw);
        let whole = build(&vals);
        let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (i, &v) in vals.iter().enumerate() {
            parts[i % shards].observe(v);
        }
        let mut fwd = Histogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(&fwd, &whole);
        assert_eq!(&rev, &whole);
    });
}

/// Merge is associative and commutative on arbitrary histograms.
#[test]
fn merge_is_associative_and_commutative() {
    for_cases(128, |rng| {
        let a = values(rng, 0..60);
        let b = values(rng, 0..60);
        let c = values(rng, 0..60);
        let (ha, hb, hc) = (build(&mixed(&a)), build(&mixed(&b)), build(&mixed(&c)));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        assert_eq!(&ab_c, &a_bc);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(&ab, &ba);
    });
}

/// Occupied buckets come out in strictly increasing value order,
/// non-overlapping, with positive counts summing to the observation
/// count.
#[test]
fn bucket_ranges_are_monotone_and_disjoint() {
    for_cases(128, |rng| {
        let raw = values(rng, 1..150);
        let h = build(&mixed(&raw));
        let ranges = h.bucket_ranges();
        let mut total = 0u64;
        for w in ranges.windows(2) {
            let ((_, hi1, _), (lo2, _, _)) = (w[0], w[1]);
            let eps = 1e-9 * (hi1.abs() + lo2.abs() + 1.0);
            assert!(hi1 <= lo2 + eps, "overlap: {hi1} vs {lo2}");
        }
        for &(lo, hi, c) in &ranges {
            assert!(lo <= hi, "inverted bucket [{lo}, {hi}]");
            assert!(c > 0, "empty bucket materialized");
            total += c;
        }
        assert_eq!(total, h.count());
    });
}

/// A single observation lands inside the one bucket it creates.
#[test]
fn observation_falls_inside_its_bucket() {
    for_cases(128, |rng| {
        let v = rng.gen_range(-1e12f64..1e12);
        let h = build(&[v]);
        let ranges = h.bucket_ranges();
        assert_eq!(ranges.len(), 1);
        let (lo, hi, c) = ranges[0];
        assert_eq!(c, 1);
        assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
    });
}

/// Quantiles stay within `[min, max]` and within the advertised
/// relative error (one sub-bucket, 1/8) of the true ceil-rank
/// empirical quantile.
#[test]
fn quantiles_are_bounded_and_accurate() {
    for_cases(128, |rng| {
        let raw = values(rng, 1..150);
        let vals = mixed(&raw);
        let h = build(&vals);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(h.min().unwrap() <= est && est <= h.max().unwrap());
            let t = true_quantile(&sorted, q);
            let tol = t.abs() / 8.0 + 1e-12;
            assert!(
                (est - t).abs() <= tol,
                "q={q}: histogram {est} vs true {t} (tol {tol})"
            );
        }
    });
}

/// Non-finite observations are counted out-of-mass: quantiles and
/// min/max behave exactly as if the NaNs and infinities were absent.
#[test]
fn nonfinite_observations_do_not_perturb_quantiles() {
    for_cases(128, |rng| {
        let raw = values(rng, 1..80);
        let junk = rng.gen_range(1usize..6);
        let vals = mixed(&raw);
        let clean = build(&vals);
        let mut noisy = Histogram::new();
        for (i, &v) in vals.iter().enumerate() {
            if i % 2 == 0 {
                noisy.observe(f64::NAN);
            }
            noisy.observe(v);
        }
        for i in 0..junk {
            noisy.observe(if i % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            });
        }
        assert_eq!(noisy.count(), clean.count());
        assert!(noisy.nonfinite() >= junk as u64);
        assert_eq!(noisy.min(), clean.min());
        assert_eq!(noisy.max(), clean.max());
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(noisy.quantile(q), clean.quantile(q));
        }
    });
}
