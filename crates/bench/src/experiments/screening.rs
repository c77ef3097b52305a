//! E14 — §4.3: factor screening by sequential bifurcation and GP θs.

use mde_metamodel::response::FnResponse;
use mde_metamodel::screening::{gp_screening, sequential_bifurcation, BifurcationConfig};
use mde_numeric::dist::Normal;
use mde_numeric::rng::{rng_from_seed, Rng};

/// Regenerate the screening run-count table.
pub fn factor_screening_report() -> String {
    let mut out = String::new();
    out.push_str("E14 | §4.3: factor screening\n\n");
    out.push_str("A) sequential bifurcation: k factors, g important (effect 2.0, noise 0.3)\n");
    let mut rows = Vec::new();
    for &(k, g) in &[(32usize, 2usize), (128, 8), (512, 8), (512, 32)] {
        let important: Vec<usize> = (0..g).map(|i| i * k / g + k / (2 * g)).collect();
        let imp = important.clone();
        let response = FnResponse::new(k, move |x: &[f64], rng: &mut Rng| {
            let signal: f64 = imp.iter().map(|&j| 2.0 * x[j]).sum();
            signal + 0.3 * Normal::sample_standard(rng)
        });
        let mut rng = rng_from_seed(3);
        let res = sequential_bifurcation(&response, &BifurcationConfig::default(), &mut rng);
        let found_all = res.important == important;
        rows.push(vec![
            k.to_string(),
            g.to_string(),
            res.runs_used.to_string(),
            (k + 1).to_string(),
            if found_all {
                "yes".into()
            } else {
                format!("{:?}", res.important)
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
    use mde_numeric::rng::{chaos_seed, splitmix64};

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

    #[test]
    fn sb_probe_count_scales_sublinearly() {
        let k = 512;
        let important = [100usize, 300];
        let response = FnResponse::new(k, move |x: &[f64], rng: &mut Rng| {
            important.iter().map(|&j| 2.0 * x[j]).sum::<f64>() + 0.3 * Normal::sample_standard(rng)
        });
        let mut rng = rng_from_seed(5);
        let res = sequential_bifurcation(&response, &BifurcationConfig::default(), &mut rng);
        assert_eq!(res.important, vec![100, 300]);
        assert!(
            res.runs_used < 50,
            "SB used {} probes for k=512",
            res.runs_used
        );
    }
}
