//! Kriging-assisted calibration — the Salle & Yildizoglu approach of §3.1.
//!
//! "An alternative approach … carefully uses design of experiment (DOE)
//! techniques — in particular, a nearly-orthogonal Latin hypercube design —
//! to select representative values of θ to simulate. The method then uses
//! a flexible surface-fitting technique called 'kriging' to approximate
//! the function m̂(θ), and hence J(θ). This approximated function (also
//! called a simulation metamodel) is then minimized to find the desired
//! calibrated values of θ."
//!
//! The implementation supports both plain kriging and, per the paper's
//! closing remark ("the kriging method … could potentially be replaced by
//! stochastic kriging … which incorporate\[s\] simulation variability into
//! the fitting algorithm"), a stochastic-kriging variant fed with
//! replicated objective evaluations.

use crate::optim::Bounds;
use mde_metamodel::design::nolh;
use mde_metamodel::gp::{GpConfig, GpModel};
use mde_metamodel::kernel::KernelWorkspace;
use mde_numeric::cache::ObjectiveScope;
use mde_numeric::obs::RunMetrics;
use mde_numeric::optim::{nelder_mead, NelderMeadConfig, OptimResult};
use mde_numeric::rng::Rng;
use mde_numeric::NumericError;

/// Configuration for kriging calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrigingCalConfig {
    /// NOLH design points (expensive objective evaluations).
    pub design_runs: usize,
    /// Infill rounds: after the first surrogate minimization, evaluate the
    /// candidate, add it to the design, update the surrogate, and repeat.
    pub infill_rounds: usize,
    /// Replications per design point; with > 1, stochastic kriging is
    /// fitted using the replication variance.
    pub reps_per_point: usize,
    /// Random LH candidates scanned when building the NOLH.
    pub nolh_tries: usize,
    /// Full hyperparameter refits happen every this many infill rounds
    /// (the **accuracy anchor**); the rounds in between absorb their
    /// candidate with an `O(n²)` rank-1 Cholesky border
    /// ([`GpModel::append_point`]) instead of an `O(n³·evals)` refit.
    /// `1` refits every round (the pre-workspace behaviour); `0` is
    /// treated as `1`. A final anchor refit always precedes the returned
    /// surrogate.
    pub refit_every: usize,
}

impl Default for KrigingCalConfig {
    fn default() -> Self {
        KrigingCalConfig {
            design_runs: 17,
            infill_rounds: 3,
            reps_per_point: 1,
            nolh_tries: 100,
            refit_every: 2,
        }
    }
}

/// Result of a kriging calibration.
#[derive(Debug, Clone)]
pub struct KrigingCalResult {
    /// Best evaluated point.
    pub best: OptimResult,
    /// All evaluated `(θ, J̄(θ))` pairs, in evaluation order.
    pub evaluated: Vec<(Vec<f64>, f64)>,
    /// The final surrogate (for diagnostics and "simulation on demand").
    pub surrogate: GpModel,
}

/// Calibrate by DOE + kriging surrogate minimization.
///
/// `objective(θ, rep)` evaluates one replication of the expensive
/// calibration objective `J(θ)` (e.g. an [`crate::msm::MsmProblem`]
/// objective); `rep` indexes replications for stochastic kriging.
pub fn kriging_calibrate(
    objective: impl FnMut(&[f64], usize) -> f64,
    bounds: &Bounds,
    cfg: &KrigingCalConfig,
    rng: &mut Rng,
) -> mde_numeric::Result<KrigingCalResult> {
    kriging_calibrate_with(objective, bounds, cfg, rng, None)
}

/// [`kriging_calibrate`] with a deterministic metrics ledger: surrogate
/// work lands in the `gp.assembles` / `gp.factorizations` / `gp.extends`
/// counters, making the incremental-update savings auditable (with
/// `refit_every > 1`, factorization counts drop to the anchor rounds
/// only).
pub fn kriging_calibrate_with(
    objective: impl FnMut(&[f64], usize) -> f64,
    bounds: &Bounds,
    cfg: &KrigingCalConfig,
    rng: &mut Rng,
    metrics: Option<&mut RunMetrics>,
) -> mde_numeric::Result<KrigingCalResult> {
    kriging_calibrate_inner(objective, bounds, cfg, rng, metrics, None)
}

/// [`kriging_calibrate_with`] with every expensive objective evaluation
/// memoized through a cross-campaign [`ObjectiveScope`].
///
/// Each parameter point's full replication vector is cached as one entry
/// (so the stochastic-kriging mean **and** variance recompute
/// bit-identically on a hit), and on completion the best point is stored
/// as a trace entry whose provenance lists every cache entry consulted or
/// produced — a calibration answer traces back to the exact cached runs
/// behind it. Cache counters land deterministically in `metrics` when a
/// ledger is supplied. The infill trajectory never consumes RNG draws
/// during evaluation, so a hit cannot perturb the design or the surrogate
/// search: cached and uncached runs are bit-identical.
pub fn kriging_calibrate_cached(
    objective: impl FnMut(&[f64], usize) -> f64,
    bounds: &Bounds,
    cfg: &KrigingCalConfig,
    rng: &mut Rng,
    mut metrics: Option<&mut RunMetrics>,
    scope: &mut ObjectiveScope,
) -> mde_numeric::Result<KrigingCalResult> {
    let res = kriging_calibrate_inner(
        objective,
        bounds,
        cfg,
        rng,
        metrics.as_deref_mut(),
        Some(scope),
    )?;
    let mut trace = res.best.x.clone();
    trace.push(res.best.fx);
    scope.store_trace(trace);
    if let Some(m) = metrics {
        scope.handle().record_into(m);
    }
    Ok(res)
}

/// Evaluate one parameter point: `reps` replications, their mean, and the
/// replication variance of the mean (the stochastic-kriging noise term).
/// With a scope attached, the whole replication vector is memoized under
/// the point's content address; a stored vector of the wrong arity (a
/// caller mis-declaring `replicates` in its scope) is recomputed, never
/// trusted.
fn eval_point(
    x: &[f64],
    reps: usize,
    objective: &mut dyn FnMut(&[f64], usize) -> f64,
    scope: Option<&mut ObjectiveScope>,
) -> (f64, f64) {
    let vals: Vec<f64> = match scope {
        Some(s) => {
            let vals = s.memoize(x, || (0..reps).map(|r| objective(x, r)).collect());
            if vals.len() == reps {
                vals
            } else {
                (0..reps).map(|r| objective(x, r)).collect()
            }
        }
        None => (0..reps).map(|r| objective(x, r)).collect(),
    };
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = if vals.len() > 1 {
        vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
            / (vals.len() as f64 - 1.0)
            / vals.len() as f64
    } else {
        0.0
    };
    (mean, var)
}

/// Typed configuration validation shared by every calibration entry point.
fn validate_cfg(cfg: &KrigingCalConfig) -> mde_numeric::Result<()> {
    if cfg.design_runs < 5 {
        return Err(NumericError::invalid(
            "kriging calibration",
            "design_runs must be >= 5 (need a non-trivial design)",
        ));
    }
    if cfg.reps_per_point < 1 {
        return Err(NumericError::invalid(
            "kriging calibration",
            "reps_per_point must be >= 1",
        ));
    }
    Ok(())
}

fn kriging_calibrate_inner(
    mut objective: impl FnMut(&[f64], usize) -> f64,
    bounds: &Bounds,
    cfg: &KrigingCalConfig,
    rng: &mut Rng,
    mut metrics: Option<&mut RunMetrics>,
    mut scope: Option<&mut ObjectiveScope>,
) -> mde_numeric::Result<KrigingCalResult> {
    validate_cfg(cfg)?;

    // 1. NOLH design over the parameter box.
    let design = nolh(bounds.dim(), cfg.design_runs, cfg.nolh_tries, rng);
    let mut xs: Vec<Vec<f64>> = design.scale_to(&bounds.ranges);

    // 2. Evaluate the expensive objective at the design points.
    let mut ys = Vec::with_capacity(xs.len());
    let mut noise = Vec::with_capacity(xs.len());
    let mut evaluated = Vec::new();
    for x in &xs {
        let (m, v) = eval_point(x, cfg.reps_per_point, &mut objective, scope.as_deref_mut());
        ys.push(m);
        noise.push(v);
        evaluated.push((x.clone(), m));
    }

    // 3-4. Fit the surrogate, minimize it, evaluate the candidate, infill.
    // The kernel workspace carries the design geometry (squared pairwise
    // differences) across every hyperparameter candidate and every infill
    // round; anchor rounds refit on it, the rounds in between grow the
    // surrogate by a rank-1 Cholesky border.
    let gp_cfg = GpConfig::default();
    let refit_every = cfg.refit_every.max(1);
    let mut ws = KernelWorkspace::new(&xs)?;
    // Anchor fits are remembered in the scope's cache (when there is one)
    // as `gp.fit` leaves of their own, outside the scope's provenance.
    let fits = scope.as_deref().map(|s| s.handle().clone());
    let mut surrogate = GpModel::fit_remembered(
        &mut ws,
        &ys,
        &noise,
        &gp_cfg,
        metrics.as_deref_mut(),
        fits.as_ref(),
    )?;
    let mut last_was_refit = true;
    for round in 0..cfg.infill_rounds {
        // Start the surrogate search from the best design point so far.
        let best_idx = (0..ys.len())
            .min_by(|&a, &b| ys[a].total_cmp(&ys[b]))
            .unwrap_or(0);
        let sur_ref = &surrogate;
        let bounds_ref = bounds;
        let r = nelder_mead(
            move |x| {
                let mut xx = x.to_vec();
                bounds_ref.clamp(&mut xx);
                sur_ref.predict(&xx)
            },
            &xs[best_idx],
            &NelderMeadConfig {
                max_evals: 500,
                ..NelderMeadConfig::default()
            },
        )?;
        let mut candidate = r.x;
        bounds.clamp(&mut candidate);
        let (m, v) = eval_point(
            &candidate,
            cfg.reps_per_point,
            &mut objective,
            scope.as_deref_mut(),
        );
        evaluated.push((candidate.clone(), m));
        ws.push(&candidate)?;
        xs.push(candidate.clone());
        ys.push(m);
        noise.push(v);
        if (round + 1) % refit_every == 0 {
            surrogate = GpModel::fit_remembered(
                &mut ws,
                &ys,
                &noise,
                &gp_cfg,
                metrics.as_deref_mut(),
                fits.as_ref(),
            )?;
            last_was_refit = true;
        } else {
            surrogate.append_point(&candidate, m, v, metrics.as_deref_mut())?;
            last_was_refit = false;
        }
    }
    // The returned surrogate is always anchored by a full refit so its
    // hyperparameters reflect every evaluated point.
    if !last_was_refit {
        surrogate = GpModel::fit_remembered(&mut ws, &ys, &noise, &gp_cfg, metrics, fits.as_ref())?;
    }

    let best_idx = (0..ys.len())
        .min_by(|&a, &b| ys[a].total_cmp(&ys[b]))
        .unwrap_or(0);
    Ok(KrigingCalResult {
        best: OptimResult {
            x: xs[best_idx].clone(),
            fx: ys[best_idx],
            evals: evaluated.len() * cfg.reps_per_point,
            converged: false,
        },
        evaluated,
        surrogate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::random_search;
    use mde_numeric::resilience::RunOptions;
    use mde_numeric::rng::rng_from_seed;

    /// A smooth calibration-like objective with minimum at (0.6, 0.3).
    fn smooth(x: &[f64]) -> f64 {
        let a = x[0] - 0.6;
        let b = x[1] - 0.3;
        3.0 * a * a + 2.0 * b * b + 0.5 * a * b
    }

    fn unit_bounds() -> Bounds {
        Bounds::new(vec![(0.0, 1.0), (0.0, 1.0)]).expect("valid bounds")
    }

    #[test]
    fn finds_minimum_of_smooth_objective() {
        let mut rng = rng_from_seed(1);
        let res = kriging_calibrate(
            |x, _| smooth(x),
            &unit_bounds(),
            &KrigingCalConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(
            (res.best.x[0] - 0.6).abs() < 0.1 && (res.best.x[1] - 0.3).abs() < 0.1,
            "best at {:?}",
            res.best.x
        );
        assert!(res.best.fx < 0.02, "J = {}", res.best.fx);
    }

    #[test]
    fn beats_random_search_at_equal_budget() {
        // The paper's pitch: DOE + surrogate uses expensive evaluations
        // far more effectively than random sampling of θ.
        let (mut kc_total, mut rs_total) = (0.0, 0.0);
        for seed in 0..5 {
            let mut rng = rng_from_seed(10 + seed);
            let res = kriging_calibrate(
                |x, _| smooth(x),
                &unit_bounds(),
                &KrigingCalConfig::default(),
                &mut rng,
            )
            .unwrap();
            let budget = res.evaluated.len();
            let rs = random_search(
                smooth,
                &unit_bounds(),
                budget,
                90 + seed,
                &RunOptions::default(),
            )
            .expect("random search")
            .best
            .expect("a completed run has a best");
            kc_total += res.best.fx;
            rs_total += rs.fx;
        }
        assert!(
            kc_total < rs_total,
            "kriging calibration ({kc_total}) should beat random search ({rs_total})"
        );
    }

    #[test]
    fn surrogate_supports_simulation_on_demand() {
        // "once a metamodel has been fit … an approximation of the model
        // output … can be obtained almost instantly."
        let mut rng = rng_from_seed(2);
        let res = kriging_calibrate(
            |x, _| smooth(x),
            &unit_bounds(),
            &KrigingCalConfig {
                design_runs: 25,
                infill_rounds: 2,
                ..KrigingCalConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        for &(a, b) in &[(0.2, 0.2), (0.5, 0.8), (0.7, 0.4)] {
            let pred = res.surrogate.predict(&[a, b]);
            assert!(
                (pred - smooth(&[a, b])).abs() < 0.08,
                "surrogate at ({a},{b}): {pred} vs {}",
                smooth(&[a, b])
            );
        }
    }

    #[test]
    fn stochastic_kriging_variant_handles_noise() {
        use mde_numeric::dist::Normal;
        let mut noise_rng = rng_from_seed(33);
        let mut rng = rng_from_seed(3);
        let res = kriging_calibrate(
            |x, _rep| smooth(x) + 0.05 * Normal::sample_standard(&mut noise_rng),
            &unit_bounds(),
            &KrigingCalConfig {
                reps_per_point: 5,
                design_runs: 17,
                infill_rounds: 3,
                ..KrigingCalConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(res.surrogate.is_stochastic());
        assert!(
            (res.best.x[0] - 0.6).abs() < 0.2 && (res.best.x[1] - 0.3).abs() < 0.25,
            "best at {:?}",
            res.best.x
        );
    }

    #[test]
    fn incremental_infill_is_ledgered_and_cheaper() {
        // With refit_every = 1 every infill round refits; with a larger
        // stride the in-between rounds are rank-1 borders, so the
        // factorization count drops while extends appear — and the final
        // answer stays just as good.
        let run = |refit_every: usize| {
            let mut rng = rng_from_seed(11);
            let mut metrics = mde_numeric::obs::RunMetrics::new();
            let res = kriging_calibrate_with(
                |x, _| smooth(x),
                &unit_bounds(),
                &KrigingCalConfig {
                    infill_rounds: 4,
                    refit_every,
                    ..KrigingCalConfig::default()
                },
                &mut rng,
                Some(&mut metrics),
            )
            .unwrap();
            (res, metrics)
        };
        let (res_full, m_full) = run(1);
        let (res_incr, m_incr) = run(3);
        assert_eq!(m_full.counter("gp.extends"), 0);
        assert!(m_incr.counter("gp.extends") > 0);
        assert!(
            m_incr.counter("gp.factorizations") < m_full.counter("gp.factorizations"),
            "incremental: {} full: {}",
            m_incr.counter("gp.factorizations"),
            m_full.counter("gp.factorizations")
        );
        for res in [&res_full, &res_incr] {
            assert!(
                (res.best.x[0] - 0.6).abs() < 0.1 && (res.best.x[1] - 0.3).abs() < 0.1,
                "best at {:?}",
                res.best.x
            );
        }
    }

    #[test]
    fn final_anchor_is_a_from_scratch_fit_of_the_evaluated_design() {
        // The loop carries one workspace through every `push`, border and
        // anchor refit; what it returns must be exactly the model a fresh
        // fit of the points it evaluated gives — the from-scratch oracle
        // for the incremental path, to the bit.
        let mut rng = rng_from_seed(11);
        let res = kriging_calibrate(
            |x, _| smooth(x),
            &unit_bounds(),
            &KrigingCalConfig::default(),
            &mut rng,
        )
        .unwrap();
        let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = res.evaluated.iter().cloned().unzip();
        let fresh = GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap();
        let bits = |m: &GpModel| -> Vec<u64> {
            [m.beta0(), m.tau2()]
                .iter()
                .chain(m.thetas())
                .chain(&[m.predict(&[0.37, 0.61])])
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&res.surrogate), bits(&fresh));
    }

    #[test]
    fn cached_calibration_is_bit_identical_and_hits_when_warm() {
        use mde_numeric::cache::{CacheHandle, ObjectiveScope};
        let cfg = KrigingCalConfig {
            reps_per_point: 3,
            ..KrigingCalConfig::default()
        };
        // Replication-indexed objective: a hit must reproduce mean AND
        // variance bit-identically, which requires the full rep vector.
        let obj = |x: &[f64], rep: usize| smooth(x) + 0.01 * rep as f64;
        let mut rng = rng_from_seed(21);
        let base = kriging_calibrate(obj, &unit_bounds(), &cfg, &mut rng).unwrap();

        let handle = CacheHandle::in_memory();
        let mut scope = ObjectiveScope::new(handle.clone(), "calibrate.kriging", 0xCAFE, 3, 21);
        let mut rng = rng_from_seed(21);
        let cold = kriging_calibrate_cached(obj, &unit_bounds(), &cfg, &mut rng, None, &mut scope)
            .unwrap();
        assert_eq!(
            cold.best.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            base.best.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "caching must not perturb the calibration"
        );
        assert_eq!(cold.best.fx.to_bits(), base.best.fx.to_bits());

        // Warm pass: fresh scope, same identity — the objective never
        // runs, the answer is bit-identical, and the ledger carries the
        // deterministic cache counters.
        let mut scope2 = ObjectiveScope::new(handle.clone(), "calibrate.kriging", 0xCAFE, 3, 21);
        let mut rng = rng_from_seed(21);
        let mut fresh_evals = 0u64;
        let mut metrics = mde_numeric::obs::RunMetrics::new();
        let warm = kriging_calibrate_cached(
            |x: &[f64], rep: usize| {
                fresh_evals += 1;
                obj(x, rep)
            },
            &unit_bounds(),
            &cfg,
            &mut rng,
            Some(&mut metrics),
            &mut scope2,
        )
        .unwrap();
        assert_eq!(fresh_evals, 0, "warm calibration must be pure cache hits");
        // uncached ≡ cold ≡ warm, to the bit: the calibrated point and the
        // surrogate behind it.
        let bits = |r: &KrigingCalResult| -> Vec<u64> {
            let m = &r.surrogate;
            r.best
                .x
                .iter()
                .chain(&[r.best.fx, m.beta0(), m.tau2()])
                .chain(m.thetas())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&warm), bits(&base));
        assert_eq!(bits(&cold), bits(&base));
        assert!(metrics.counter("cache.hits") > 0);
        // Every anchor fit was remembered: one re-verifying factorization
        // each (the initial fit, the round-2 refit, the final anchor).
        assert_eq!(metrics.counter("gp.factorizations"), 3);
        assert_eq!(metrics.counter("gp.assembles"), 3);
        // The calibration answer traces back to its cached evaluations.
        let prov = handle
            .provenance_of(&scope2.trace_key())
            .expect("trace provenance");
        assert_eq!(prov.campaign, "calibrate.kriging");
        assert_eq!(prov.upstream.len(), warm.evaluated.len());
    }

    #[test]
    fn invalid_config_is_typed_not_a_panic() {
        let mut rng = rng_from_seed(1);
        let tiny = KrigingCalConfig {
            design_runs: 2,
            ..KrigingCalConfig::default()
        };
        assert!(kriging_calibrate(|x, _| smooth(x), &unit_bounds(), &tiny, &mut rng).is_err());
        let zero_reps = KrigingCalConfig {
            reps_per_point: 0,
            ..KrigingCalConfig::default()
        };
        assert!(kriging_calibrate(|x, _| smooth(x), &unit_bounds(), &zero_reps, &mut rng).is_err());
    }

    #[test]
    fn candidate_points_respect_bounds() {
        let mut rng = rng_from_seed(4);
        let res = kriging_calibrate(
            |x, _| smooth(x),
            &unit_bounds(),
            &KrigingCalConfig::default(),
            &mut rng,
        )
        .unwrap();
        for (x, _) in &res.evaluated {
            assert!(
                x.iter().all(|v| (0.0..=1.0).contains(v)),
                "out of bounds: {x:?}"
            );
        }
    }
}
