//! The four result-caching runners pinned to the bit: `run_rc`,
//! `run_rc_cached` (cold and warm), `run_rc_random_reuse` and
//! `ChainComposite::run_rc`. The digest covers every sample, `theta_hat`,
//! `m` and `cost` over a handful of configurations, `α = 1` and `n = 1`
//! included. It was captured while the chain runner still had a loop of
//! its own; never regenerate it to make a change pass.

use mde_numeric::cache::CacheHandle;
use mde_numeric::codec::{fnv1a, FNV_OFFSET};
use mde_numeric::dist::Normal;
use mde_numeric::rng::Rng;
use mde_simopt::chain::{ChainComposite, ChainRcConfig};
use mde_simopt::rc::{run_rc, run_rc_cached, run_rc_random_reuse, RcConfig, RcEstimate};
use mde_simopt::{FnModel, SeriesComposite, StochModel};
use std::sync::Arc;

fn model(name: &str, cost: f64, shift: f64, scale: f64) -> Arc<dyn StochModel> {
    Arc::new(FnModel::new(name, cost, move |x: &[f64], rng: &mut Rng| {
        vec![x.first().copied().unwrap_or(shift) + scale * Normal::sample_standard(rng)]
    }))
}

fn digest(h: u64, est: &RcEstimate) -> u64 {
    let bits = |h, x: f64| fnv1a(h, &x.to_bits().to_le_bytes());
    let h = est.samples.iter().fold(h, |h, &y| bits(h, y));
    let h = bits(bits(h, est.theta_hat), est.cost);
    fnv1a(h, &(est.m as u64).to_le_bytes())
}

#[test]
fn rc_runners_match_their_golden_digest() {
    let series = SeriesComposite::new(
        model("demand", 10.0, 5.0, 1.0),
        model("queue", 1.0, 0.0, 1.0),
    );
    let chain = ChainComposite {
        m1: model("src", 50.0, 5.0, 1.0),
        m2: model("mid", 5.0, 0.0, 0.5),
        m3: model("sink", 1.0, 0.0, 1.0),
    };
    let cache = CacheHandle::in_memory();
    let mut h = FNV_OFFSET;
    for &(n, alpha, seed) in &[
        (1, 1.0, 1),
        (1, 0.3, 2),
        (12, 0.5, 3),
        (12, 1.0, 3),
        (37, 0.2, 4),
        (40, 1e-9, 5),
    ] {
        let cfg = RcConfig { n, alpha, seed };
        for est in [
            run_rc(&series, &cfg),
            run_rc_cached(&series, &cfg, 0xFEED, &cache),
            run_rc_cached(&series, &cfg, 0xFEED, &cache),
            run_rc_random_reuse(&series, &cfg),
        ] {
            h = digest(h, &est);
        }
    }
    for &(n, alpha1, alpha2, seed) in &[
        (1, 1.0, 1.0, 1),
        (20, 0.3, 0.6, 4),
        (20, 0.6, 0.3, 4),
        (33, 1.0, 0.1, 6),
        (40, 0.1, 1.0, 7),
    ] {
        h = digest(
            h,
            &chain.run_rc(&ChainRcConfig {
                n,
                alpha1,
                alpha2,
                seed,
            }),
        );
    }
    assert_eq!(h, 0xe429_d8b4_8c20_2be0);
}
