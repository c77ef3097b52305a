//! Stochastic component models and series composition.

use mde_numeric::rng::Rng;
use std::sync::Arc;

/// A stochastic component model: consumes an input vector, produces an
/// output vector, and carries a nominal per-run compute cost in abstract
/// units (the paper's `c₁`, `c₂` are expectations of this).
///
/// Cost is declared rather than measured so that experiments are
/// deterministic; the pilot estimator ([`crate::pilot`]) treats it as an
/// observable like any other.
pub trait StochModel: Send + Sync {
    /// Model name, for registries and error messages.
    fn name(&self) -> &str;

    /// Execute one run.
    fn run(&self, input: &[f64], rng: &mut Rng) -> Vec<f64>;

    /// Nominal compute cost of one run (abstract units, must be positive).
    fn cost(&self) -> f64;
}

/// A model built from a closure plus a declared cost.
pub struct FnModel<F> {
    name: String,
    cost: f64,
    f: F,
}

impl<F> FnModel<F>
where
    F: Fn(&[f64], &mut Rng) -> Vec<f64> + Send + Sync,
{
    /// Create a closure-backed model.
    pub fn new(name: impl Into<String>, cost: f64, f: F) -> Self {
        assert!(cost > 0.0, "model cost must be positive");
        FnModel {
            name: name.into(),
            cost,
            f,
        }
    }
}

impl<F> StochModel for FnModel<F>
where
    F: Fn(&[f64], &mut Rng) -> Vec<f64> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, input: &[f64], rng: &mut Rng) -> Vec<f64> {
        (self.f)(input, rng)
    }

    fn cost(&self) -> f64 {
        self.cost
    }
}

/// An inter-model transformation applied between composed models.
pub(crate) type TransformFn = Arc<dyn Fn(&[f64]) -> Vec<f64> + Send + Sync>;

/// The paper's Figure 2 composite: `M₁ → (transform) → M₂` in series. The
/// transformation step is an optional deterministic function standing in
/// for the Splash data-transformation stage; its cost is folded into `c₁`
/// per the paper ("the costs of transforming and storing the output from
/// M₁ are included").
pub struct SeriesComposite {
    /// Upstream model.
    pub m1: Arc<dyn StochModel>,
    /// Downstream model (its first output coordinate is the scalar `Y₂`).
    pub m2: Arc<dyn StochModel>,
    /// Optional inter-model transformation.
    pub transform: Option<TransformFn>,
}

impl SeriesComposite {
    /// Compose two models with no transformation.
    pub fn new(m1: Arc<dyn StochModel>, m2: Arc<dyn StochModel>) -> Self {
        SeriesComposite {
            m1,
            m2,
            transform: None,
        }
    }

    /// Add an inter-model transformation.
    #[cfg(test)]
    fn with_transform(mut self, t: TransformFn) -> Self {
        self.transform = Some(t);
        self
    }

    /// Run `M₁` once on an empty input, applying the transformation.
    pub(crate) fn run_m1(&self, rng: &mut Rng) -> Vec<f64> {
        let y1 = self.m1.run(&[], rng);
        match &self.transform {
            Some(t) => t(&y1),
            None => y1,
        }
    }

    /// Run `M₂` on a (cached or fresh) `M₁` output; returns scalar `Y₂`.
    pub(crate) fn run_m2(&self, y1: &[f64], rng: &mut Rng) -> f64 {
        let out = self.m2.run(y1, rng);
        out.first().copied().unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::dist::{Distribution, Normal};
    use mde_numeric::rng::rng_from_seed;

    #[test]
    fn fn_model_runs_and_costs() {
        let m = FnModel::new("double", 2.5, |x: &[f64], _rng: &mut Rng| {
            vec![x.iter().sum::<f64>() * 2.0]
        });
        let mut rng = rng_from_seed(1);
        assert_eq!(m.run(&[1.0, 2.0], &mut rng), vec![6.0]);
        assert_eq!(m.cost(), 2.5);
        assert_eq!(m.name(), "double");
    }

    #[test]
    #[should_panic(expected = "cost must be positive")]
    fn zero_cost_rejected() {
        let _ = FnModel::new("bad", 0.0, |_: &[f64], _: &mut Rng| vec![]);
    }

    #[test]
    fn series_composite_threads_data_through_transform() {
        let m1 = Arc::new(FnModel::new("src", 1.0, |_: &[f64], rng: &mut Rng| {
            vec![Normal::standard().sample(rng)]
        }));
        let m2 = Arc::new(FnModel::new("sink", 1.0, |x: &[f64], _: &mut Rng| {
            vec![x[0] * 10.0]
        }));
        let comp =
            SeriesComposite::new(m1, m2).with_transform(Arc::new(|y: &[f64]| vec![y[0] + 100.0]));
        let mut rng = rng_from_seed(2);
        let y1 = comp.run_m1(&mut rng);
        assert!(y1[0] > 90.0, "transform applied: {}", y1[0]);
        let y2 = comp.run_m2(&y1, &mut rng);
        assert!((y2 - y1[0] * 10.0).abs() < 1e-12);
    }
}
