//! Composite models: the DAG, mismatch detection, auto-harmonization, and
//! Monte Carlo execution.
//!
//! The Splash workflow reproduced here: compose registered models by
//! drawing edges; the platform *detects* data mismatches from metadata
//! (schema/channel discrepancies and time-granularity discrepancies),
//! *compiles* the needed transformations (schema mappings from
//! `mde-harmonize::schema_map`, time alignment from
//! `mde-harmonize::align`), and *executes* them at every Monte Carlo
//! repetition.

use crate::registry::{Registry, SimModel};
use crate::CoreError;
use mde_harmonize::align::auto_align;
use mde_harmonize::schema_map::SchemaMapping;
use mde_harmonize::series::TimeSeries;
use mde_numeric::checkpoint::CampaignState;
use mde_numeric::resilience::{
    drive_in_memory, Attempt, AttemptFailure, RunOptions, RunReport, Surface,
};
use mde_numeric::rng::StreamFactory;
use mde_numeric::stats::Summary;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An edge: upstream node's output feeds one input port of a downstream
/// node, optionally through an explicit schema mapping.
#[derive(Clone)]
pub struct Edge {
    /// Upstream node index.
    pub from: usize,
    /// Downstream node index.
    pub to: usize,
    /// Downstream input-port index.
    pub to_port: usize,
    /// Explicit schema mapping; `None` requests automatic resolution
    /// (identity projection onto the target channels).
    pub mapping: Option<SchemaMapping>,
}

/// A composite model: registered model names plus data-exchange edges.
#[derive(Clone, Default)]
pub struct CompositeModel {
    nodes: Vec<String>,
    edges: Vec<Edge>,
}

/// A detected data mismatch on an edge (the registration-time diagnostics
/// Splash surfaces in its GUI).
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// The downstream port needs a channel the upstream output lacks.
    MissingChannel {
        /// Edge index.
        edge: usize,
        /// The missing channel name.
        channel: String,
    },
    /// Tick granularities differ; resolvable by time alignment.
    TickMismatch {
        /// Edge index.
        edge: usize,
        /// Upstream tick.
        source_tick: f64,
        /// Downstream tick.
        target_tick: f64,
    },
}

impl CompositeModel {
    /// Start an empty composite.
    pub fn new() -> Self {
        CompositeModel::default()
    }

    /// Add a model node by registry name; returns its node index.
    pub fn add_model(&mut self, name: impl Into<String>) -> usize {
        self.nodes.push(name.into());
        self.nodes.len() - 1
    }

    /// Connect `from`'s output to input port `to_port` of `to`.
    pub fn connect(&mut self, from: usize, to: usize, to_port: usize) -> &mut Self {
        self.edges.push(Edge {
            from,
            to,
            to_port,
            mapping: None,
        });
        self
    }

    /// Connect with an explicit schema mapping.
    #[cfg(test)]
    fn connect_mapped(
        &mut self,
        from: usize,
        to: usize,
        to_port: usize,
        mapping: SchemaMapping,
    ) -> &mut Self {
        self.edges.push(Edge {
            from,
            to,
            to_port,
            mapping: Some(mapping),
        });
        self
    }

    /// Node names in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Detect mismatches from registry metadata, per edge.
    pub fn detect_mismatches(&self, registry: &Registry) -> crate::Result<Vec<Mismatch>> {
        let mut out = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            let src = registry
                .model(&self.nodes[e.from])?
                .metadata()
                .output
                .clone();
            let dst_meta = registry.model(&self.nodes[e.to])?.metadata().clone();
            let port = dst_meta.inputs.get(e.to_port).ok_or_else(|| {
                CoreError::invalid(format!(
                    "edge {i}: model `{}` has no input port {}",
                    dst_meta.name, e.to_port
                ))
            })?;
            // Channel coverage: through the explicit mapping if present,
            // else by name.
            match &e.mapping {
                Some(m) => {
                    for needed in m.required_channels() {
                        if !src.channels.iter().any(|c| c == needed) {
                            out.push(Mismatch::MissingChannel {
                                edge: i,
                                channel: needed.to_string(),
                            });
                        }
                    }
                    for target in &port.channels {
                        if !m.target_fields().contains(&target.as_str()) {
                            out.push(Mismatch::MissingChannel {
                                edge: i,
                                channel: target.clone(),
                            });
                        }
                    }
                }
                None => {
                    for needed in &port.channels {
                        if !src.channels.iter().any(|c| c == needed) {
                            out.push(Mismatch::MissingChannel {
                                edge: i,
                                channel: needed.clone(),
                            });
                        }
                    }
                }
            }
            if (src.tick - port.tick).abs() > 1e-9 * port.tick.max(1.0) {
                out.push(Mismatch::TickMismatch {
                    edge: i,
                    source_tick: src.tick,
                    target_tick: port.tick,
                });
            }
        }
        Ok(out)
    }

    /// Topological order of nodes; errors on cycles.
    fn topo_order(&self) -> crate::Result<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.from >= n || e.to >= n {
                return Err(CoreError::invalid(format!(
                    "edge references missing node ({} -> {})",
                    e.from, e.to
                )));
            }
            indeg[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for e in &self.edges {
                if e.from == i {
                    indeg[e.to] -= 1;
                    if indeg[e.to] == 0 {
                        queue.push(e.to);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(CoreError::invalid("composite contains a cycle"));
        }
        Ok(order)
    }

    /// Validate against the registry and compile into an executable plan.
    ///
    /// Tick mismatches are resolved automatically by time alignment (they
    /// remain *reported* by [`CompositeModel::detect_mismatches`], matching
    /// Splash's "detect, then compile transformations" flow); missing
    /// channels are fatal unless an explicit mapping supplies them.
    pub fn plan<'r>(&self, registry: &'r Registry) -> crate::Result<ExecutablePlan<'r>> {
        // Structural validation first: cycles and dangling edges are more
        // fundamental than data mismatches.
        let order = self.topo_order()?;
        let unresolved: Vec<String> = self
            .detect_mismatches(registry)?
            .into_iter()
            .filter_map(|m| match m {
                Mismatch::MissingChannel { edge, channel } => {
                    Some(format!("edge {edge}: missing channel `{channel}`"))
                }
                Mismatch::TickMismatch { .. } => None, // auto-resolved
            })
            .collect();
        if !unresolved.is_empty() {
            return Err(CoreError::UnresolvedMismatch {
                mismatches: unresolved,
            });
        }
        let models: Vec<&Arc<dyn SimModel>> = self
            .nodes
            .iter()
            .map(|n| registry.model(n))
            .collect::<crate::Result<_>>()?;
        // Exactly one sink defines the composite output.
        let sinks: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.edges.iter().all(|e| e.from != i))
            .collect();
        if sinks.len() != 1 {
            return Err(CoreError::invalid(format!(
                "composite must have exactly one sink, found {}",
                sinks.len()
            )));
        }
        Ok(ExecutablePlan {
            composite: self.clone(),
            models,
            order,
            sink: sinks[0],
        })
    }
}

/// Parameter assignment: model name → parameter values (defaults apply for
/// absent models).
pub type ParamAssignment = BTreeMap<String, Vec<f64>>;

/// A validated, executable composite.
pub struct ExecutablePlan<'r> {
    composite: CompositeModel,
    models: Vec<&'r Arc<dyn SimModel>>,
    order: Vec<usize>,
    sink: usize,
}

impl ExecutablePlan<'_> {
    /// The sink node index (composite output).
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Execute one Monte Carlo repetition: run models in topological
    /// order, harmonizing data along every edge (schema mapping + time
    /// alignment) — "data transformations must be performed at every Monte
    /// Carlo repetition".
    fn run_once(
        &self,
        params: &ParamAssignment,
        rep_streams: &StreamFactory,
    ) -> crate::Result<TimeSeries> {
        let mut outputs: Vec<Option<TimeSeries>> = vec![None; self.models.len()];
        for &node in &self.order {
            let model = self.models[node];
            let meta = model.metadata();
            // Gather inputs per port.
            let mut inputs: Vec<TimeSeries> = Vec::with_capacity(meta.inputs.len());
            for (port_idx, port) in meta.inputs.iter().enumerate() {
                let edge = self
                    .composite
                    .edges
                    .iter()
                    .find(|e| e.to == node && e.to_port == port_idx)
                    .ok_or_else(|| {
                        CoreError::invalid(format!(
                            "input port `{}` of `{}` is unconnected",
                            port.name, meta.name
                        ))
                    })?;
                let upstream = outputs[edge.from]
                    .as_ref()
                    .expect("topological order guarantees upstream ran");

                // 1. Schema transformation.
                let mapped = match &edge.mapping {
                    Some(m) => m.apply(upstream)?,
                    None => {
                        // Identity projection onto the port's channels.
                        let mut m = SchemaMapping::new();
                        for c in &port.channels {
                            m = m.field(
                                c.clone(),
                                mde_harmonize::schema_map::FieldSource::Copy { channel: c.clone() },
                            );
                        }
                        m.apply(upstream)?
                    }
                };

                // 2. Time alignment onto the port's tick grid over the
                // upstream span.
                let aligned = if let (Some(start), Some(end)) = (mapped.start(), mapped.end()) {
                    let need_align = mapped
                        .typical_spacing()
                        .map(|s| (s - port.tick).abs() > 1e-9 * port.tick.max(1.0))
                        .unwrap_or(false);
                    if need_align {
                        let mut t = start + port.tick;
                        let mut targets = Vec::new();
                        while t <= end + 1e-9 {
                            targets.push(t);
                            t += port.tick;
                        }
                        if targets.is_empty() {
                            targets.push(end);
                        }
                        auto_align(&mapped, &targets)?
                    } else {
                        mapped
                    }
                } else {
                    mapped
                };
                inputs.push(aligned);
            }

            let param_values: Vec<f64> = params
                .get(&meta.name)
                .cloned()
                .unwrap_or_else(|| meta.params.iter().map(|p| p.default).collect());
            let mut rng = rep_streams.stream(node as u64);
            outputs[node] = Some(model.run(&inputs, &param_values, &mut rng)?);
        }
        Ok(outputs[self.sink].take().expect("sink ran"))
    }

    /// Run `reps` supervised Monte Carlo repetitions, reducing each output
    /// series to a scalar with `scalarize`, under `opts`'
    /// [`mde_numeric::RunPolicy`] (`RunOptions::default()` is fail-fast: the
    /// first failing repetition aborts with a typed error, and a panicking
    /// model surfaces as [`CoreError::ReplicateFailed`], never as a panic
    /// in the caller).
    ///
    /// Each repetition — the full topological sweep over the composite,
    /// harmonization included — executes inside `catch_unwind`. Panics,
    /// typed errors, and non-finite scalarized samples are classified and
    /// handled per the policy: fail-fast aborts with the repetition's
    /// typed error, retry re-runs the repetition on a fresh deterministic
    /// sub-seed derived from `(seed, repetition, attempt)`, and
    /// best-effort drops it and estimates from the survivors (recording
    /// the damage in the returned [`RunReport`]). Fatal errors —
    /// structural composite problems that would fail identically on every
    /// attempt — abort under every policy.
    pub fn run_monte_carlo(
        &self,
        params: &ParamAssignment,
        reps: usize,
        seed: u64,
        scalarize: impl Fn(&TimeSeries) -> f64,
        opts: &RunOptions,
    ) -> crate::Result<(McOutput, RunReport)> {
        let mut sweep = Sweep {
            plan: self,
            params,
            scalarize,
            samples: Vec::with_capacity(reps),
        };
        let report = drive_in_memory(&mut sweep, seed, reps as u64, opts)?;
        let samples = sweep.samples;
        let mut summary = Summary::new();
        for &v in &samples {
            summary.push(v);
        }
        Ok((McOutput { samples, summary }, report))
    }
}

/// A composite Monte Carlo campaign as a surface: one boundary per
/// repetition, each a full topological sweep reduced to a scalar.
struct Sweep<'a, 'r, F> {
    plan: &'a ExecutablePlan<'r>,
    params: &'a ParamAssignment,
    scalarize: F,
    samples: Vec<f64>,
}

impl<F: Fn(&TimeSeries) -> f64> Surface for Sweep<'_, '_, F> {
    type Value = f64;
    type Error = CoreError;

    fn attempt(&mut self, att: &Attempt<'_>) -> Result<f64, AttemptFailure<CoreError>> {
        att.run(
            "repetition",
            || {
                let out = self
                    .plan
                    .run_once(self.params, &att.streams(att.boundary))?;
                Ok((self.scalarize)(&out))
            },
            |v| *v,
        )
    }

    fn commit(&mut self, _: &mut CampaignState, _: u64, value: Option<f64>) {
        if let Some(v) = value {
            self.samples.push(v);
        }
    }
}

/// Monte Carlo output of a composite run.
#[derive(Debug, Clone, PartialEq)]
pub struct McOutput {
    /// Per-repetition scalar outputs.
    pub samples: Vec<f64>,
    /// Streaming summary of the samples.
    pub summary: Summary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::testutil::{demand_model, revenue_model};
    use mde_numeric::resilience::{FaultKind, RunPolicy};

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.register_model(demand_model());
        reg.register_model(revenue_model());
        reg
    }

    fn chain() -> CompositeModel {
        let mut c = CompositeModel::new();
        let d = c.add_model("demand");
        let r = c.add_model("revenue");
        c.connect(d, r, 0);
        c
    }

    #[test]
    fn detects_tick_mismatch() {
        let reg = registry();
        let mismatches = chain().detect_mismatches(&reg).unwrap();
        assert_eq!(mismatches.len(), 1);
        assert!(matches!(
            mismatches[0],
            Mismatch::TickMismatch {
                source_tick,
                target_tick,
                ..
            } if source_tick == 1.0 && target_tick == 7.0
        ));
    }

    #[test]
    fn detects_missing_channels() {
        let reg = registry();
        let mut c = CompositeModel::new();
        // Revenue feeding revenue: its output channel `revenue` does not
        // cover the `demand` input channel.
        let r1 = c.add_model("revenue");
        let r2 = c.add_model("revenue");
        c.connect(r1, r2, 0);
        let mismatches = c.detect_mismatches(&reg).unwrap();
        assert!(mismatches.iter().any(|m| matches!(
            m,
            Mismatch::MissingChannel { channel, .. } if channel == "demand"
        )));
        assert!(matches!(
            c.plan(&reg),
            Err(CoreError::UnresolvedMismatch { .. })
        ));
    }

    #[test]
    fn explicit_mapping_resolves_channel_mismatch() {
        use mde_harmonize::schema_map::FieldSource;
        let reg = registry();
        let mut c = CompositeModel::new();
        let r1 = c.add_model("revenue");
        let r2 = c.add_model("revenue");
        // Treat upstream revenue as demand (a unit reinterpretation).
        c.connect_mapped(
            r1,
            r2,
            0,
            SchemaMapping::new().field(
                "demand",
                FieldSource::Copy {
                    channel: "revenue".into(),
                },
            ),
        );
        assert!(c
            .detect_mismatches(&reg)
            .unwrap()
            .iter()
            .all(|m| !matches!(m, Mismatch::MissingChannel { .. })));
        // Still fails planning for a different reason? No: r1 has an
        // unconnected input, caught at run time — but planning succeeds
        // structurally only if exactly one sink exists; r1's input is
        // unconnected so run_once errors.
        let plan = c.plan(&reg).unwrap();
        let params = ParamAssignment::new();
        assert!(plan.run_once(&params, &StreamFactory::new(1)).is_err());
    }

    #[test]
    fn executes_chain_with_auto_harmonization() {
        let reg = registry();
        let plan = chain().plan(&reg).unwrap();
        let params = ParamAssignment::new(); // defaults: base 100, noise 5, price 2
        let out = plan.run_once(&params, &StreamFactory::new(42)).unwrap();
        // Weekly revenue over a 28-day horizon (days 0..=27): weekly ticks
        // at 7, 14, 21, values near price × mean daily demand = 2 × 100.
        assert_eq!(out.channels(), &["revenue"]);
        assert_eq!(out.len(), 3);
        assert_eq!(out.times(), &[7.0, 14.0, 21.0]);
        for v in out.channel("revenue").unwrap() {
            assert!((150.0..250.0).contains(&v), "weekly revenue {v}");
        }
    }

    #[test]
    fn monte_carlo_over_composite() {
        let reg = registry();
        let plan = chain().plan(&reg).unwrap();
        let mut params = ParamAssignment::new();
        params.insert("demand".into(), vec![100.0, 5.0]);
        params.insert("revenue".into(), vec![2.0]);
        let mc = plan
            .run_monte_carlo(
                &params,
                100,
                7,
                |ts| {
                    let v = ts.channel("revenue").expect("revenue channel");
                    v.iter().sum::<f64>() / v.len() as f64
                },
                &RunOptions::default(),
            )
            .unwrap()
            .0;
        assert_eq!(mc.samples.len(), 100);
        // E[mean weekly revenue] = 200; SE ≈ 2·(5/√7)/√100·... loose band.
        assert!(
            (mc.summary.mean() - 200.0).abs() < 2.0,
            "mean {}",
            mc.summary.mean()
        );
        assert!(mc.summary.sample_variance() > 0.0);
    }

    #[test]
    fn supervised_composite_run_retries_and_reports() {
        use mde_numeric::resilience::FaultPlan;
        let reg = registry();
        let plan = chain().plan(&reg).unwrap();
        let params = ParamAssignment::new();
        let mean_rev = |ts: &TimeSeries| {
            let v = ts.channel("revenue").expect("revenue channel");
            v.iter().sum::<f64>() / v.len() as f64
        };

        // Injected panic + NaN under Retry: all repetitions recover, the
        // ledger records both failures, unfaulted repetitions are
        // untouched relative to the unsupervised run.
        let opts = RunOptions::policy(RunPolicy::Retry {
            max_attempts: 2,
            reseed: true,
        })
        .with_faults(FaultPlan::new().fail_on(4, 0, FaultKind::Panic).fail_on(
            9,
            0,
            FaultKind::Nan,
        ));
        let (mc, report) = plan
            .run_monte_carlo(&params, 20, 7, mean_rev, &opts)
            .unwrap();
        assert_eq!(mc.samples.len(), 20);
        assert_eq!(report.retried, 2);
        assert_eq!(report.dropped, 0);
        let clean = plan
            .run_monte_carlo(&params, 20, 7, mean_rev, &RunOptions::default())
            .unwrap()
            .0;
        for (i, (a, b)) in clean.samples.iter().zip(&mc.samples).enumerate() {
            if i == 4 || i == 9 {
                assert_ne!(a, b, "retried repetition {i} uses a fresh sub-seed");
            } else {
                assert_eq!(a, b, "unfaulted repetition {i} is bit-identical");
            }
        }

        // BestEffort drops the faulted repetition and flags the CI.
        let policy = RunPolicy::BestEffort { min_fraction: 0.9 };
        let fault_plan = FaultPlan::new().fail_on(3, 0, FaultKind::Panic);
        let opts = RunOptions::policy(policy).with_faults(fault_plan.clone());
        let (mc, report) = plan
            .run_monte_carlo(&params, 20, 7, mean_rev, &opts)
            .unwrap();
        assert_eq!(mc.samples.len(), 19);
        assert!(report.ci_widened);
        assert_eq!(
            report.failure_keys(),
            fault_plan.expected_failure_keys(&policy)
        );
    }

    #[test]
    fn parameters_flow_to_models() {
        let reg = registry();
        let plan = chain().plan(&reg).unwrap();
        let mut params = ParamAssignment::new();
        params.insert("demand".into(), vec![50.0, 0.1]);
        params.insert("revenue".into(), vec![4.0]);
        let out = plan.run_once(&params, &StreamFactory::new(3)).unwrap();
        for v in out.channel("revenue").unwrap() {
            assert!(
                (v - 200.0).abs() < 5.0,
                "revenue {v} with base 50 × price 4"
            );
        }
    }

    #[test]
    fn reproducible_given_seed() {
        let reg = registry();
        let plan = chain().plan(&reg).unwrap();
        let params = ParamAssignment::new();
        let a = plan.run_once(&params, &StreamFactory::new(9)).unwrap();
        let b = plan.run_once(&params, &StreamFactory::new(9)).unwrap();
        assert_eq!(a, b);
        let c = plan.run_once(&params, &StreamFactory::new(10)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn cycles_rejected() {
        let reg = registry();
        let mut c = CompositeModel::new();
        let a = c.add_model("revenue");
        let b = c.add_model("revenue");
        c.connect(a, b, 0);
        c.connect(b, a, 0);
        assert!(matches!(
            c.plan(&reg),
            Err(CoreError::InvalidComposite { .. })
        ));
    }

    #[test]
    fn multiple_sinks_rejected() {
        let reg = registry();
        let mut c = CompositeModel::new();
        c.add_model("demand");
        c.add_model("demand");
        assert!(c.plan(&reg).is_err());
    }
}
