//! The experiment manager.
//!
//! §4.2/\[26\]: Splash's "experiment management capabilities … metadata is
//! used to provide an experimenter with a unified view of composite model
//! parameters. Splash also provides a facility for specifying experimental
//! designs as well as runtime support for setting parameter values". This
//! module is that layer: it flattens the parameters of every model in a
//! composite into one factor list (the unified view), materializes DOE
//! designs over their metadata ranges, runs the composite at each design
//! point, and fits metamodels / computes main effects over the results.
//! It also bridges two-model chains into `mde-simopt`'s result-caching
//! optimizer (§2.3).

use crate::composite::{CompositeModel, ParamAssignment};
use crate::registry::Registry;
use crate::CoreError;
use mde_harmonize::series::TimeSeries;
use mde_metamodel::design::Design;
use mde_metamodel::poly::{main_effects, MainEffects};
use mde_numeric::resilience::RunOptions;
use mde_simopt::{FnModel, SeriesComposite, Statistics};
use std::sync::Arc;

/// One factor of the unified parameter view: a parameter of one component
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// Component model name.
    pub model: String,
    /// Parameter name.
    pub param: String,
    /// Index within the model's parameter vector.
    pub index: usize,
    /// Experiment range `(lo, hi)` from the metadata.
    pub range: (f64, f64),
    /// Default value.
    pub default: f64,
}

/// The experiment manager over a composite model.
pub struct Experiment<'r> {
    registry: &'r Registry,
    composite: CompositeModel,
    factors: Vec<Factor>,
}

impl<'r> Experiment<'r> {
    /// Build the unified parameter view of a composite.
    pub fn new(registry: &'r Registry, composite: CompositeModel) -> crate::Result<Self> {
        let mut factors = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for name in composite.nodes() {
            if !seen.insert(name.clone()) {
                continue; // same model reused: one set of factors
            }
            let meta = registry.model(name)?.metadata();
            for (i, p) in meta.params.iter().enumerate() {
                factors.push(Factor {
                    model: name.clone(),
                    param: p.name.clone(),
                    index: i,
                    range: (p.lo, p.hi),
                    default: p.default,
                });
            }
        }
        Ok(Experiment {
            registry,
            composite,
            factors,
        })
    }

    /// The unified factor list.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Synthesize a [`ParamAssignment`] from a flat factor-value vector —
    /// the "templating mechanism" that writes each component model's
    /// parameter file.
    pub(crate) fn assignment(&self, values: &[f64]) -> crate::Result<ParamAssignment> {
        if values.len() != self.factors.len() {
            return Err(CoreError::invalid(format!(
                "{} factor values for {} factors",
                values.len(),
                self.factors.len()
            )));
        }
        let mut out = ParamAssignment::new();
        // Start every model at its defaults, then overwrite.
        for f in &self.factors {
            let entry = out.entry(f.model.clone()).or_insert_with(|| {
                self.registry
                    .model(&f.model)
                    .expect("validated at construction")
                    .metadata()
                    .params
                    .iter()
                    .map(|p| p.default)
                    .collect()
            });
            let _ = entry;
        }
        for (f, &v) in self.factors.iter().zip(values) {
            out.get_mut(&f.model).expect("inserted above")[f.index] = v;
        }
        Ok(out)
    }

    /// Run the composite at every design point (coded levels scaled onto
    /// the metadata ranges), averaging `reps` Monte Carlo repetitions of
    /// `scalarize` per point. Returns `(factor values, mean response)`
    /// rows.
    fn run_design(
        &self,
        design: &Design,
        reps: usize,
        seed: u64,
        scalarize: impl Fn(&TimeSeries) -> f64 + Copy,
    ) -> crate::Result<Vec<(Vec<f64>, f64)>> {
        if design.factors() != self.factors.len() {
            return Err(CoreError::invalid(format!(
                "design has {} factors, experiment has {}",
                design.factors(),
                self.factors.len()
            )));
        }
        let ranges: Vec<(f64, f64)> = self.factors.iter().map(|f| f.range).collect();
        let scaled = design.scale_to(&ranges);
        let plan = self.composite.plan(self.registry)?;
        let mut rows = Vec::with_capacity(scaled.len());
        for (i, point) in scaled.iter().enumerate() {
            let params = self.assignment(point)?;
            let (mc, _) = plan.run_monte_carlo(
                &params,
                reps,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                scalarize,
                &RunOptions::default(),
            )?;
            rows.push((point.clone(), mc.summary.mean()));
        }
        Ok(rows)
    }

    /// Fit a Gaussian-process metamodel over a design's responses — the
    /// "simulation on demand" surface (§4.1) for an entire composite
    /// model: after fitting, approximate composite outputs at new
    /// parameter settings are instant.
    pub fn fit_gp_metamodel(
        &self,
        design: &Design,
        reps: usize,
        seed: u64,
        scalarize: impl Fn(&TimeSeries) -> f64 + Copy,
    ) -> crate::Result<mde_metamodel::gp::GpModel> {
        let rows = self.run_design(design, reps, seed, scalarize)?;
        let xs: Vec<Vec<f64>> = rows.iter().map(|(x, _)| x.clone()).collect();
        let ys: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        Ok(mde_metamodel::gp::GpModel::fit(
            &xs,
            &ys,
            &mde_metamodel::gp::GpConfig::default(),
        )?)
    }

    /// Classical main effects over a ±1 coded design's responses (the
    /// Figure 4 analysis for a composite model).
    pub fn main_effects(
        &self,
        design: &Design,
        reps: usize,
        seed: u64,
        scalarize: impl Fn(&TimeSeries) -> f64 + Copy,
    ) -> crate::Result<MainEffects> {
        let rows = self.run_design(design, reps, seed, scalarize)?;
        let ys: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        Ok(main_effects(design, &ys))
    }
}

/// Bridge a two-node chain (source → sink) into `mde-simopt`'s
/// [`SeriesComposite`] so the §2.3 result-caching machinery (pilot
/// estimation, `α*`, budgeted runs) applies to platform models.
///
/// `scalarize` reduces the sink's output series to the scalar `Y₂`; the
/// source's output series is flattened (times then channel values) as the
/// cached `Y₁` payload.
pub fn bridge_chain_to_simopt(
    registry: &Registry,
    source: &str,
    sink: &str,
    params: ParamAssignment,
    scalarize: impl Fn(&TimeSeries) -> f64 + Send + Sync + 'static,
) -> crate::Result<SeriesComposite> {
    let src = Arc::clone(registry.model(source)?);
    let dst = Arc::clone(registry.model(sink)?);
    let src_meta = src.metadata().clone();
    let dst_meta = dst.metadata().clone();
    if !src_meta.inputs.is_empty() {
        return Err(CoreError::invalid(
            "bridge source must have no inputs".to_string(),
        ));
    }
    if dst_meta.inputs.len() != 1 {
        return Err(CoreError::invalid(
            "bridge sink must have exactly one input".to_string(),
        ));
    }
    let src_params: Vec<f64> = params
        .get(&src_meta.name)
        .cloned()
        .unwrap_or_else(|| src_meta.params.iter().map(|p| p.default).collect());
    let dst_params: Vec<f64> = params
        .get(&dst_meta.name)
        .cloned()
        .unwrap_or_else(|| dst_meta.params.iter().map(|p| p.default).collect());

    let src_cost = src_meta.perf.cost.max(1e-9);
    let dst_cost = dst_meta.perf.cost.max(1e-9);
    let n_channels = src_meta.output.channels.len();

    let m1 = FnModel::new(
        src_meta.name.clone(),
        src_cost,
        move |_input: &[f64], rng: &mut mde_numeric::rng::Rng| {
            let ts = src
                .run(&[], &src_params, rng)
                .expect("bridged source model failed");
            // Flatten: [len, times…, row-major data…].
            let mut flat = vec![ts.len() as f64];
            flat.extend_from_slice(ts.times());
            for row in ts.data() {
                flat.extend_from_slice(row);
            }
            flat
        },
    );

    let channels = src_meta.output.channels.clone();
    let m2 = FnModel::new(
        dst_meta.name.clone(),
        dst_cost,
        move |input: &[f64], rng: &mut mde_numeric::rng::Rng| {
            // Unflatten.
            let n = input[0] as usize;
            let times = input[1..1 + n].to_vec();
            let data: Vec<Vec<f64>> = (0..n)
                .map(|i| input[1 + n + i * n_channels..1 + n + (i + 1) * n_channels].to_vec())
                .collect();
            let ts = TimeSeries::new(channels.clone(), times, data)
                .expect("bridged payload round-trips");
            let out = dst
                .run(&[ts], &dst_params, rng)
                .expect("bridged sink model failed");
            vec![scalarize(&out)]
        },
    );

    Ok(SeriesComposite::new(Arc::new(m1), Arc::new(m2)))
}

/// Plan an optimal result-caching run for a bridged chain: pilot-estimate
/// 𝒮, compute `α*`, and return `(𝒮, α*)`.
pub fn rc_plan(
    composite: &SeriesComposite,
    pilot_pairs: usize,
    seed: u64,
    horizon_n: usize,
) -> (Statistics, f64) {
    let stats = mde_simopt::pilot::estimate_statistics(
        composite,
        &mde_simopt::PilotConfig {
            pairs: pilot_pairs,
            seed,
        },
    );
    let alpha = mde_simopt::optimal_alpha(&stats, horizon_n);
    (stats, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::testutil::{demand_model, revenue_model};
    use mde_metamodel::design::full_factorial;

    fn setup() -> (Registry, CompositeModel) {
        let mut reg = Registry::new();
        reg.register_model(demand_model());
        reg.register_model(revenue_model());
        let mut c = CompositeModel::new();
        let d = c.add_model("demand");
        let r = c.add_model("revenue");
        c.connect(d, r, 0);
        (reg, c)
    }

    fn mean_revenue(ts: &TimeSeries) -> f64 {
        let v = ts.channel("revenue").expect("revenue channel");
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn unified_parameter_view() {
        let (reg, c) = setup();
        let exp = Experiment::new(&reg, c).unwrap();
        let names: Vec<String> = exp
            .factors()
            .iter()
            .map(|f| format!("{}.{}", f.model, f.param))
            .collect();
        assert_eq!(names, vec!["demand.base", "demand.noise", "revenue.price"]);
        assert_eq!(exp.factors()[0].range, (50.0, 150.0));
    }

    #[test]
    fn assignment_templating() {
        let (reg, c) = setup();
        let exp = Experiment::new(&reg, c).unwrap();
        let a = exp.assignment(&[120.0, 3.0, 4.5]).unwrap();
        assert_eq!(a["demand"], vec![120.0, 3.0]);
        assert_eq!(a["revenue"], vec![4.5]);
        assert!(exp.assignment(&[1.0]).is_err());
    }

    #[test]
    fn design_run_and_main_effects() {
        let (reg, c) = setup();
        let exp = Experiment::new(&reg, c).unwrap();
        let design = full_factorial(3);
        let me = exp.main_effects(&design, 8, 11, mean_revenue).unwrap();
        // Response ≈ base × price: base effect ≈ Δbase × mean(price) = 100 × 2.75,
        // price effect ≈ Δprice × mean(base) = 4.5 × 100; noise effect ≈ 0.
        assert!(me.effects[0] > 150.0, "base effect {}", me.effects[0]);
        assert!(me.effects[2] > 300.0, "price effect {}", me.effects[2]);
        assert!(
            me.effects[1].abs() < 30.0,
            "noise std should be inert: {}",
            me.effects[1]
        );
    }

    #[test]
    fn gp_metamodel_supports_simulation_on_demand() {
        use mde_metamodel::design::nolh;
        use mde_numeric::rng::rng_from_seed;
        let (reg, c) = setup();
        let exp = Experiment::new(&reg, c).unwrap();
        let mut rng = rng_from_seed(21);
        let design = nolh(3, 17, 50, &mut rng);
        let gp = exp.fit_gp_metamodel(&design, 12, 31, mean_revenue).unwrap();
        // "Simulation on demand": the surrogate predicts mean revenue ≈
        // base × price at an unseen parameter point.
        let pred = gp.predict(&[100.0, 5.0, 2.0]);
        assert!((pred - 200.0).abs() < 25.0, "surrogate predicted {pred}");
        let pred = gp.predict(&[120.0, 5.0, 3.0]);
        assert!((pred - 360.0).abs() < 45.0, "surrogate predicted {pred}");
    }

    #[test]
    fn design_factor_count_validated() {
        let (reg, c) = setup();
        let exp = Experiment::new(&reg, c).unwrap();
        let design = full_factorial(2);
        assert!(exp.run_design(&design, 2, 1, mean_revenue).is_err());
    }

    #[test]
    fn bridge_and_rc_plan() {
        let (reg, _) = setup();
        let comp = bridge_chain_to_simopt(
            &reg,
            "demand",
            "revenue",
            ParamAssignment::new(),
            mean_revenue,
        )
        .unwrap();
        // The bridged composite runs and estimates sensibly.
        let (stats, alpha) = rc_plan(&comp, 300, 5, 10_000);
        assert!(stats.validate().is_ok(), "stats {stats:?}");
        assert_eq!(stats.c1, 10.0);
        assert_eq!(stats.c2, 1.0);
        // Demand noise dominates (price is deterministic): V2 ≈ V1 → α* near 1.
        assert!(alpha > 0.5, "α* = {alpha} with stats {stats:?}");
        // And the budgeted runner produces a sane estimate of 200.
        let est = mde_simopt::budget::run_under_budget(&comp, 2000.0, alpha, 3)
            .unwrap()
            .unwrap();
        assert!((est.theta_hat - 200.0).abs() < 5.0, "θ̂ = {}", est.theta_hat);
    }

    #[test]
    fn bridge_validation() {
        let (reg, _) = setup();
        assert!(bridge_chain_to_simopt(
            &reg,
            "revenue", // has an input: invalid source
            "revenue",
            ParamAssignment::new(),
            mean_revenue
        )
        .is_err());
    }
}
