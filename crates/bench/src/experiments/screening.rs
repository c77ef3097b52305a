//! E14 — §4.3: factor screening by sequential bifurcation and GP θs.

use mde_metamodel::response::FnResponse;
use mde_metamodel::screening::{gp_screening, sequential_bifurcation, BifurcationConfig};
use mde_numeric::dist::Normal;
use mde_numeric::resilience::RunOptions;
use mde_numeric::rng::{rng_from_seed, splitmix64, Rng};

/// Part A's settings `(k factors, g important)`.
const SB_ROWS: [(usize, usize); 4] = [(32, 2), (128, 8), (512, 8), (512, 32)];

/// The 13 screening seeds drawn from a master seed: the report prints
/// master 7's, the tests draw `chaos_seed()`'s.
fn sb_seeds(master: u64) -> impl Iterator<Item = u64> {
    (0..13).map(move |i| splitmix64(master ^ (0xE14B + i)))
}

/// Sequential bifurcation over `k` factors, `g` of them important (evenly
/// spaced, effect 2.0, noise 0.3): the probes it used, the important
/// factors it missed, and the inert ones it declared important.
fn sb_row(k: usize, g: usize, seed: u64) -> (usize, Vec<usize>, Vec<usize>) {
    let important: Vec<usize> = (0..g).map(|i| i * k / g + k / (2 * g)).collect();
    let imp = important.clone();
    let response = FnResponse::new(k, move |x: &[f64], rng: &mut Rng| {
        let signal: f64 = imp.iter().map(|&j| 2.0 * x[j]).sum();
        signal + 0.3 * Normal::sample_standard(rng)
    });
    let found = sequential_bifurcation(
        &response,
        &BifurcationConfig::default(),
        seed,
        &RunOptions::default(),
    )
    .expect("screening")
    .result
    .expect("a completed run has a result");
    let not_in = |a: &[usize], b: &[usize]| a.iter().copied().filter(|j| !b.contains(j)).collect();
    (
        found.runs_used,
        not_in(&important, &found.important),
        not_in(&found.important, &important),
    )
}

/// [`sb_row`] at the 13 seeds drawn from `master`: at how many every
/// important factor was found, how many false positives there were, and
/// in how many runs.
fn sb_seed_rates(k: usize, g: usize, master: u64) -> (usize, usize, usize) {
    let (mut found_all, mut false_pos, mut fp_runs) = (0, 0, 0);
    for seed in sb_seeds(master) {
        let (_, missed, fp) = sb_row(k, g, seed);
        found_all += usize::from(missed.is_empty());
        false_pos += fp.len();
        fp_runs += usize::from(!fp.is_empty());
    }
    (found_all, false_pos, fp_runs)
}

/// Regenerate the screening run-count table.
pub fn factor_screening_report() -> String {
    let mut out = String::new();
    out.push_str("E14 | §4.3: factor screening\n\n");
    out.push_str("A) sequential bifurcation: k factors, g important (effect 2.0, noise 0.3)\n");
    let mut rows = Vec::new();
    for &(k, g) in &SB_ROWS {
        let (runs_used, missed, false_pos) = sb_row(k, g, 3);
        rows.push(vec![
            k.to_string(),
            g.to_string(),
            runs_used.to_string(),
            (k + 1).to_string(),
            match (missed.is_empty(), false_pos.is_empty()) {
                (true, true) => "yes".into(),
                (true, false) => format!("yes, + false {false_pos:?}"),
                (false, _) => format!("missed {missed:?}, false {false_pos:?}"),
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "factors k",
            "important g",
            "SB probes",
            "one-at-a-time probes",
            "all found",
        ],
        &rows,
    ));
    out.push_str("\nOver 13 seeds (the tests' draw at MDE_CHAOS_SEED=7):\n");
    for &(k, g) in &SB_ROWS {
        let (found_all, false_pos, fp_runs) = sb_seed_rates(k, g, 7);
        out.push_str(&format!(
            "  k = {k}, g = {g}: every important factor found at {found_all}/13 seeds; \
             false positives: {false_pos}, in {fp_runs} of 13 runs\n"
        ));
    }
    out.push_str(
        "\n'group testing is much faster than testing each individual parameter':\n\
         SB probe counts grow ~ g·log2(k/g), far below k+1.\n\n",
    );

    out.push_str(
        "B) GP-based screening: theta_j as the importance statistic (4 factors, 2 active)\n",
    );
    let response = FnResponse::new(4, |x: &[f64], _rng: &mut Rng| {
        (3.0 * x[0]).sin() + x[2] * x[2]
    });
    let mut rng = rng_from_seed(4);
    let ranked = gp_screening(&response, 25, &mut rng).expect("gp fit");
    let mut rows = Vec::new();
    for (j, theta) in &ranked {
        rows.push(vec![
            format!("x{}", j + 1),
            crate::f(*theta),
            if *j == 0 || *j == 2 {
                "active".into()
            } else {
                "inert".into()
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &["factor (by rank)", "theta_j", "ground truth"],
        &rows,
    ));
    out.push_str(
        "\n'a very low value for theta_j implies ... no variability in model response as\n\
         the value of the jth parameter changes' — inert factors sink to the bottom.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::chaos_seed;

    #[test]
    fn gp_screening_ranks_every_active_factor_above_every_inert_one() {
        // §4.3's statistic at 13 design seeds: the two factors the response
        // depends on take the top two θ, whatever the NOLH draw.
        let response = FnResponse::new(4, |x: &[f64], _rng: &mut Rng| {
            (3.0 * x[0]).sin() + x[2] * x[2]
        });
        for i in 0..13 {
            let seed = splitmix64(chaos_seed() ^ (0xE14 + i));
            let ranked = gp_screening(&response, 25, &mut rng_from_seed(seed)).expect("gp fit");
            let mut top: Vec<usize> = ranked[..2].iter().map(|(j, _)| *j).collect();
            top.sort_unstable();
            assert_eq!(top, [0, 2], "seed {seed}: ranking {ranked:?}");
            assert!(
                ranked[1].1 > 10.0 * ranked[2].1,
                "seed {seed}: weakest active vs strongest inert, {ranked:?}"
            );
        }
    }

    /// P(X > c) for X ~ Binomial(n, p).
    fn binomial_tail(n: usize, p: f64, c: usize) -> f64 {
        let mut pmf = (1.0 - p).powi(n as i32); // P(X = 0)
        let mut cdf = pmf;
        for x in 1..=c {
            pmf *= (n - x + 1) as f64 / x as f64 * p / (1.0 - p);
            cdf += pmf;
        }
        1.0 - cdf
    }

    /// §4.3's group screening at 13 seeds per row: sequential bifurcation
    /// finds every important factor in every row (it missed none in 2 000
    /// seeds per row). It is not exact: a null group whose probe noise
    /// clears the threshold splits down to a false positive. Over those
    /// 2 000 seeds a run reported one at rate 0.024, 0.087, 0.097 and 0.32
    /// in the four rows; the number of such runs among 13 stays at or
    /// below the count a binomial at that rate exceeds with probability
    /// under 0.001.
    #[test]
    fn sequential_bifurcation_finds_every_important_factor() {
        const FALSE_POSITIVE_RUN_RATE: [f64; 4] = [0.024, 0.087, 0.097, 0.32];
        for (&(k, g), p) in SB_ROWS.iter().zip(FALSE_POSITIVE_RUN_RATE) {
            let (found_all, _, fp_runs) = sb_seed_rates(k, g, chaos_seed());
            assert_eq!(
                found_all, 13,
                "k={k} g={g}: a seed missed an important factor"
            );
            let bound = (0..13)
                .find(|&c| binomial_tail(13, p, c) < 1e-3)
                .unwrap_or(13);
            assert!(
                fp_runs <= bound,
                "k={k} g={g}: {fp_runs}/13 runs with a false positive, bound {bound} at rate {p}"
            );
        }
    }

    #[test]
    fn sb_probe_count_scales_sublinearly() {
        let k = 512;
        let important = [100usize, 300];
        let response = FnResponse::new(k, move |x: &[f64], rng: &mut Rng| {
            important.iter().map(|&j| 2.0 * x[j]).sum::<f64>() + 0.3 * Normal::sample_standard(rng)
        });
        let res = sequential_bifurcation(
            &response,
            &BifurcationConfig::default(),
            5,
            &RunOptions::default(),
        )
        .expect("screening")
        .result
        .expect("a completed run has a result");
        assert_eq!(res.important, vec![100, 300]);
        assert!(
            res.runs_used < 50,
            "SB used {} probes for k=512",
            res.runs_used
        );
    }
}
