//! The model registry.
//!
//! Splash contributors "provide metadata" at registration time; that
//! metadata drives composite assembly (port/channel matching), mismatch
//! detection (tick granularities), experiment management (parameter
//! descriptions with ranges and defaults), and run optimization
//! (cost/variance performance statistics, amortized across uses). The
//! metadata is plain data that the composite, experiment and what-if
//! layers read directly.

use crate::CoreError;
use mde_harmonize::series::TimeSeries;
use mde_numeric::rng::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A named channel bundle flowing between models at a given tick
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct PortSpec {
    /// Port name.
    pub name: String,
    /// Channel names the port carries (order matters).
    pub channels: Vec<String>,
    /// Tick spacing in simulated time units.
    pub tick: f64,
}

/// A tunable model parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name.
    pub name: String,
    /// Default value.
    pub default: f64,
    /// Lower bound for experiments/calibration.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Performance statistics stored as model metadata (the §2.3 catalog
/// analogy: "important performance characteristics of a model can be
/// stored as part of the model's metadata").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfStats {
    /// Expected cost per run (abstract units).
    pub cost: f64,
    /// Output variance observed in pilot/production runs.
    pub output_variance: f64,
    /// Observation weight behind the stats.
    pub weight: u64,
}

/// Registered model metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetadata {
    /// Unique model name.
    pub name: String,
    /// Human description.
    pub description: String,
    /// Input ports (empty for source models).
    pub inputs: Vec<PortSpec>,
    /// The single output port.
    pub output: PortSpec,
    /// Tunable parameters.
    pub params: Vec<ParamSpec>,
    /// Performance statistics, refined over time.
    pub perf: PerfStats,
}

/// A simulation model runnable by the platform: consumes one series per
/// input port, produces the output series.
pub trait SimModel: Send + Sync {
    /// The model's metadata.
    fn metadata(&self) -> &ModelMetadata;

    /// Execute one stochastic replication.
    fn run(
        &self,
        inputs: &[TimeSeries],
        params: &[f64],
        rng: &mut Rng,
    ) -> crate::Result<TimeSeries>;
}

/// The registry: models by name, each its metadata and executable.
#[derive(Default)]
pub struct Registry {
    models: BTreeMap<String, Arc<dyn SimModel>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a model under its metadata name.
    pub fn register_model(&mut self, model: Arc<dyn SimModel>) {
        self.models.insert(model.metadata().name.clone(), model);
    }

    /// Look up a model.
    pub fn model(&self, name: &str) -> crate::Result<&Arc<dyn SimModel>> {
        self.models
            .get(name)
            .ok_or_else(|| CoreError::NotRegistered {
                kind: "model",
                name: name.to_string(),
            })
    }

    /// Registered model names, sorted.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(|s| s.as_str()).collect()
    }
}

/// A [`SimModel`] built from a closure plus metadata — how example models
/// and tests register behaviors.
pub struct FnSimModel<F> {
    meta: ModelMetadata,
    f: F,
}

impl<F> FnSimModel<F>
where
    F: Fn(&[TimeSeries], &[f64], &mut Rng) -> crate::Result<TimeSeries> + Send + Sync,
{
    /// Wrap a closure.
    pub fn new(meta: ModelMetadata, f: F) -> Self {
        FnSimModel { meta, f }
    }
}

impl<F> SimModel for FnSimModel<F>
where
    F: Fn(&[TimeSeries], &[f64], &mut Rng) -> crate::Result<TimeSeries> + Send + Sync,
{
    fn metadata(&self) -> &ModelMetadata {
        &self.meta
    }

    fn run(
        &self,
        inputs: &[TimeSeries],
        params: &[f64],
        rng: &mut Rng,
    ) -> crate::Result<TimeSeries> {
        if inputs.len() != self.meta.inputs.len() {
            return Err(CoreError::invalid(format!(
                "model `{}` expects {} inputs, got {}",
                self.meta.name,
                self.meta.inputs.len(),
                inputs.len()
            )));
        }
        if params.len() != self.meta.params.len() {
            return Err(CoreError::invalid(format!(
                "model `{}` expects {} params, got {}",
                self.meta.name,
                self.meta.params.len(),
                params.len()
            )));
        }
        (self.f)(inputs, params, rng)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A source model emitting `n` daily ticks of `base + t·slope + noise`.
    pub fn demand_model() -> Arc<dyn SimModel> {
        use mde_numeric::dist::{Distribution, Normal};
        let meta = ModelMetadata {
            name: "demand".into(),
            description: "daily demand source".into(),
            inputs: vec![],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["demand".into()],
                tick: 1.0,
            },
            params: vec![
                ParamSpec {
                    name: "base".into(),
                    default: 100.0,
                    lo: 50.0,
                    hi: 150.0,
                },
                ParamSpec {
                    name: "noise".into(),
                    default: 5.0,
                    lo: 0.1,
                    hi: 20.0,
                },
            ],
            perf: PerfStats {
                cost: 10.0,
                ..PerfStats::default()
            },
        };
        Arc::new(FnSimModel::new(meta, |_inputs, params, rng| {
            let noise = Normal::new(0.0, params[1].max(1e-6)).map_err(CoreError::from)?;
            let mut values = Vec::with_capacity(28);
            for _ in 0..28 {
                values.push((params[0] + noise.sample(rng)).max(0.0));
            }
            Ok(TimeSeries::univariate(
                "demand",
                (0..28).map(|t| t as f64).collect(),
                values,
            )?)
        }))
    }

    /// A sink model consuming *weekly* aggregate demand and producing
    /// weekly revenue (tick mismatch with the daily source is deliberate:
    /// the composite layer must auto-insert aggregation).
    pub fn revenue_model() -> Arc<dyn SimModel> {
        let meta = ModelMetadata {
            name: "revenue".into(),
            description: "weekly revenue sink".into(),
            inputs: vec![PortSpec {
                name: "in".into(),
                channels: vec!["demand".into()],
                tick: 7.0,
            }],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["revenue".into()],
                tick: 7.0,
            },
            params: vec![ParamSpec {
                name: "price".into(),
                default: 2.0,
                lo: 0.5,
                hi: 5.0,
            }],
            perf: PerfStats {
                cost: 1.0,
                ..PerfStats::default()
            },
        };
        Arc::new(FnSimModel::new(meta, |inputs, params, _rng| {
            let demand = inputs[0].channel("demand")?;
            let revenue: Vec<f64> = demand.iter().map(|d| d * params[0]).collect();
            Ok(TimeSeries::univariate(
                "revenue",
                inputs[0].times().to_vec(),
                revenue,
            )?)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use mde_numeric::rng::rng_from_seed;

    #[test]
    fn register_and_lookup() {
        let mut reg = Registry::new();
        reg.register_model(demand_model());
        reg.register_model(revenue_model());
        assert_eq!(reg.model_names(), vec!["demand", "revenue"]);
        assert!(reg.model("demand").is_ok());
        assert!(matches!(
            reg.model("nope"),
            Err(CoreError::NotRegistered { .. })
        ));
    }

    #[test]
    fn model_runs_with_validation() {
        let m = demand_model();
        let mut rng = rng_from_seed(1);
        let out = m.run(&[], &[100.0, 5.0], &mut rng).unwrap();
        assert_eq!(out.len(), 28);
        // Wrong arities rejected.
        assert!(m.run(&[], &[100.0], &mut rng).is_err());
        let ts = TimeSeries::univariate("x", vec![0.0], vec![1.0]).unwrap();
        assert!(m.run(&[ts], &[100.0, 5.0], &mut rng).is_err());
    }
}
