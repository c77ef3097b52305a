//! Pilot-run estimation of the statistics 𝒮 = (c₁, c₂, V₁, V₂), and the
//! metadata store that amortizes it.
//!
//! §2.3: "A key issue is how to estimate the statistics 𝒮 … a composite
//! modeling system such as Splash is oriented toward re-use of models, and
//! important performance characteristics of a model can be stored as part
//! of the model's metadata. Thus the cost of executing pilot runs … can be
//! amortized over multiple model executions. Moreover, as the component
//! models are used in production runs, their behavior can be observed and
//! used to continually refine the statistics … analogous to … estimating
//! catalog statistics for a relational database system."
//!
//! `V₂` is estimated from *paired* `M₂` runs sharing one `M₁` output;
//! `V₁` from all `M₂` outputs. The [`MetadataStore`] keeps per-composite
//! statistics and merges in new observations (online refinement).

use crate::component::SeriesComposite;
use crate::efficiency::Statistics;
use mde_numeric::rng::StreamFactory;
use mde_numeric::stats::{BivariateSummary, Summary};
use std::collections::HashMap;

/// Pilot-run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotConfig {
    /// Number of `M₁` pilot runs; each feeds a *pair* of `M₂` runs (so the
    /// pilot performs `pairs` M₁ runs and `2·pairs` M₂ runs).
    pub pairs: usize,
    /// Master seed.
    pub seed: u64,
}

/// Run the pilot and estimate 𝒮.
pub fn estimate_statistics(composite: &SeriesComposite, cfg: &PilotConfig) -> Statistics {
    assert!(cfg.pairs >= 2, "need at least 2 pilot pairs");
    let factory = StreamFactory::new(cfg.seed);
    let m1_streams = factory.child(0);
    let m2_streams = factory.child(1);

    let mut all = Summary::new();
    let mut paired = BivariateSummary::new();
    for j in 0..cfg.pairs {
        let mut rng1 = m1_streams.stream(j as u64);
        let y1 = composite.run_m1(&mut rng1);
        let mut rng_a = m2_streams.stream(2 * j as u64);
        let mut rng_b = m2_streams.stream(2 * j as u64 + 1);
        let ya = composite.run_m2(&y1, &mut rng_a);
        let yb = composite.run_m2(&y1, &mut rng_b);
        all.push(ya);
        all.push(yb);
        paired.push(ya, yb);
    }

    // V2 >= 0 by assumption in the theory; clamp the estimate.
    let v1 = all.sample_variance();
    let v2 = paired.sample_covariance().clamp(0.0, v1);
    Statistics {
        c1: composite.m1.cost(),
        c2: composite.m2.cost(),
        v1,
        v2,
    }
}

/// Per-composite statistics metadata with online refinement — the
/// "catalog statistics" of the simulation optimizer.
#[derive(Debug, Clone, Default)]
pub struct MetadataStore {
    entries: HashMap<String, StoredStats>,
}

/// A stored statistics record with its observation weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredStats {
    /// The statistics.
    pub stats: Statistics,
    /// Number of pilot pairs (or production observations) behind them.
    pub weight: u64,
}

impl MetadataStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MetadataStore::default()
    }

    /// Look up statistics for a composite by key.
    pub fn get(&self, key: &str) -> Option<&StoredStats> {
        self.entries.get(key)
    }

    /// Record fresh observations, merging with any existing record by
    /// weighted averaging (a simple, monotone-weight online refinement).
    pub(crate) fn observe(&mut self, key: impl Into<String>, stats: Statistics, weight: u64) {
        let key = key.into();
        match self.entries.get_mut(&key) {
            None => {
                self.entries.insert(key, StoredStats { stats, weight });
            }
            Some(existing) => {
                let w0 = existing.weight as f64;
                let w1 = weight as f64;
                let t = w0 + w1;
                let blend = |a: f64, b: f64| (a * w0 + b * w1) / t;
                existing.stats = Statistics {
                    c1: blend(existing.stats.c1, stats.c1),
                    c2: blend(existing.stats.c2, stats.c2),
                    v1: blend(existing.stats.v1, stats.v1),
                    v2: blend(existing.stats.v2, stats.v2),
                };
                existing.weight += weight;
            }
        }
    }

    /// Statistics for a composite, running a pilot only on a cache miss —
    /// the amortization the paper describes.
    pub fn get_or_pilot(
        &mut self,
        key: impl Into<String>,
        composite: &SeriesComposite,
        cfg: &PilotConfig,
    ) -> Statistics {
        let key = key.into();
        if let Some(s) = self.entries.get(&key) {
            return s.stats;
        }
        let stats = estimate_statistics(composite, cfg);
        self.observe(key, stats, cfg.pairs as u64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnModel;
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::Rng;
    use std::sync::Arc;

    /// M1 ~ N(0, σ₁²) cost 10; M2 = input + N(0, σ₂²) cost 1.
    /// V1 = σ₁² + σ₂², V2 = σ₁².
    fn composite(s1: f64, s2: f64) -> SeriesComposite {
        let m1 = Arc::new(FnModel::new("m1", 10.0, move |_: &[f64], rng: &mut Rng| {
            vec![s1 * Normal::standard().sample(rng)]
        }));
        let m2 = Arc::new(FnModel::new("m2", 1.0, move |x: &[f64], rng: &mut Rng| {
            vec![x[0] + s2 * Normal::standard().sample(rng)]
        }));
        SeriesComposite::new(m1, m2)
    }

    #[test]
    fn pilot_recovers_known_statistics() {
        let c = composite(1.0, 1.0);
        let s = estimate_statistics(
            &c,
            &PilotConfig {
                pairs: 4000,
                seed: 1,
            },
        );
        assert_eq!(s.c1, 10.0);
        assert_eq!(s.c2, 1.0);
        assert!((s.v1 - 2.0).abs() < 0.15, "V1 = {}", s.v1);
        assert!((s.v2 - 1.0).abs() < 0.15, "V2 = {}", s.v2);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn pilot_detects_weak_coupling() {
        // σ₁ tiny: V2 ≈ 0 → the optimizer will choose small α.
        let c = composite(0.05, 1.0);
        let s = estimate_statistics(
            &c,
            &PilotConfig {
                pairs: 3000,
                seed: 2,
            },
        );
        assert!(s.v2 < 0.05, "V2 = {}", s.v2);
        assert!((s.v1 - 1.0).abs() < 0.1);
    }

    #[test]
    fn pilot_detects_deterministic_m2() {
        // σ₂ = 0: V1 = V2 → α* = 1.
        let c = composite(1.0, 0.0);
        let s = estimate_statistics(
            &c,
            &PilotConfig {
                pairs: 3000,
                seed: 3,
            },
        );
        assert!((s.v1 - s.v2).abs() < 0.02, "V1 = {}, V2 = {}", s.v1, s.v2);
        let a = crate::efficiency::optimal_alpha(&s, 1000);
        assert!(a > 0.9, "α* = {a}");
    }

    #[test]
    fn store_caches_and_amortizes() {
        let mut store = MetadataStore::new();
        let c = composite(1.0, 1.0);
        let cfg = PilotConfig {
            pairs: 500,
            seed: 4,
        };
        let s1 = store.get_or_pilot("demand|queue", &c, &cfg);
        // Second call must be served from the store (same values, no rerun
        // — verified by identity of the stored record).
        let s2 = store.get_or_pilot("demand|queue", &c, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(store.get("demand|queue").unwrap().weight, 500);
    }

    #[test]
    fn online_refinement_blends_by_weight() {
        let mut store = MetadataStore::new();
        let a = Statistics {
            c1: 10.0,
            c2: 1.0,
            v1: 2.0,
            v2: 1.0,
        };
        let b = Statistics {
            c1: 20.0,
            c2: 3.0,
            v1: 4.0,
            v2: 2.0,
        };
        store.observe("k", a, 100);
        store.observe("k", b, 300);
        let got = store.get("k").unwrap();
        assert_eq!(got.weight, 400);
        assert!((got.stats.c1 - 17.5).abs() < 1e-12);
        assert!((got.stats.v1 - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn pilot_requires_pairs() {
        estimate_statistics(&composite(1.0, 1.0), &PilotConfig { pairs: 1, seed: 1 });
    }
}
