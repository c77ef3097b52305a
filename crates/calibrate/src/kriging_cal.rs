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
//!
//! **The surrogate search follows its gradient.** Each infill round
//! minimizes the fitted surrogate over the parameter box with
//! [`mde_numeric::optim::bfgs`], from the best design point so far. The
//! objective is `Ŷ(clamp(x))`, and its gradient is
//! [`GpModel::predict_gradient`]'s `∂Ŷ/∂x` at the clamped point, projected:
//! a coordinate at or beyond a bound whose gradient points further out gets
//! 0, so the search slides along that face instead of pushing against it.
//! Steps are capped at a quarter of the box's widest side; each BFGS run
//! measures `Ŷ` in a unit taken from its start point's slope, and a run
//! that ends outside the box or stalls is restarted from its clamped end
//! point (`surrogate_minimum`), within 200 evaluations a search. On the
//! benchmark's 33…41 × 2 surrogates a search averages 22 predictor
//! evaluations, where the simplex it replaced averaged 201.
//!
//! These settings are constants, not options: the surrogate costs
//! microseconds to evaluate and its minimum only proposes the next point
//! to simulate, so no caller has a reason to trade them. Which point the
//! search proposes depends on them, so changing one changes the
//! calibration's evaluations; it moves no cache key, because an objective
//! entry is keyed by the point it evaluated.

use crate::optim::Bounds;
use mde_metamodel::design::nolh;
use mde_metamodel::gp::{GpConfig, GpModel};
use mde_metamodel::kernel::KernelWorkspace;
use mde_numeric::cache::ObjectiveScope;
use mde_numeric::obs::RunMetrics;
use mde_numeric::optim::{bfgs, BfgsConfig, OptimResult};
use mde_numeric::rng::Rng;
use mde_numeric::NumericError;
use std::cell::Cell;
use std::time::Instant;

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
/// only). The surrogate searches add their predictor evaluations to the
/// counter `calibrate.surrogate_evals` and their wall time, one
/// observation a search, to the out-of-band duration
/// `calibrate.surrogate_search`; each anchor fit that searches books
/// `gp.search` ([`GpModel::fit_remembered`]).
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
        let started = Instant::now();
        let found = surrogate_minimum(&surrogate, bounds, &xs[best_idx])?;
        if let Some(m) = metrics.as_deref_mut() {
            m.add("calibrate.surrogate_evals", found.evals as u64);
            m.observe_duration("calibrate.surrogate_search", started.elapsed());
        }
        let candidate = found.x;
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

/// Predictor-and-gradient evaluations one surrogate search may spend.
const SURROGATE_MAX_EVALS: usize = 200;

/// Evaluations one BFGS run of a surrogate search may spend before the
/// search restarts it (see [`surrogate_minimum`]).
const SURROGATE_RUN_EVALS: usize = 50;

/// The surrogate search has converged when no projected-gradient component
/// exceeds this.
const SURROGATE_G_TOL: f64 = 1e-8;

/// A run of the surrogate search stops when a step gains less than this
/// fraction of `|Ŷ|` plus the run's unit (see [`surrogate_minimum`]): well
/// above the rounding of a surrogate with a large `τ²`, whose noise would
/// otherwise pass for progress until the budget is spent.
const SURROGATE_F_TOL: f64 = 1e-10;

/// Largest change of any coordinate in one trial step of the surrogate
/// search, as a fraction of the box's widest side.
const SURROGATE_MAX_STEP: f64 = 0.25;

/// Minimize the surrogate over the box from `start` (module doc): BFGS on
/// `Ŷ(clamp(x))` with the projected predictor gradient. The returned point
/// is in the box, its `fx` is the prediction there, and its `evals` counts
/// every run's.
///
/// A run divides `Ŷ` by its start point's steepest projected slope over
/// the step cap, so its first steepest-descent step is one full step
/// whatever the surrogate's scale. Once BFGS has made a curvature update a
/// constant factor no longer matters, but a run whose updates are all
/// refused (a concave stretch of a rough surrogate) keeps taking
/// steepest-descent steps as long as the gradient, which crawl where the
/// surface is nearly flat.
///
/// Past a bound the objective is flat, and the inverse-Hessian estimate a
/// run learned before it reached the bound still couples the bound's
/// coordinate to the others: a run can end outside the box with the
/// gradient pointing back in, or stall on the face, each step moving the
/// bound's coordinate back in and being cut short, gaining almost nothing.
/// So a run that ends outside the box or spends [`SURROGATE_RUN_EVALS`]
/// without converging is started again, with a fresh estimate and unit,
/// from its clamped end point, until one converges inside the box or the
/// search has spent [`SURROGATE_MAX_EVALS`].
fn surrogate_minimum(
    surrogate: &GpModel,
    bounds: &Bounds,
    start: &[f64],
) -> mde_numeric::Result<OptimResult> {
    let max_step = SURROGATE_MAX_STEP
        * bounds
            .ranges
            .iter()
            .fold(0.0f64, |m, &(lo, hi)| m.max(hi - lo));
    let unit = Cell::new(None);
    let mut at = start.to_vec();
    let mut objective = |x: &[f64], grad: &mut [f64]| {
        at.copy_from_slice(x);
        bounds.clamp(&mut at);
        let y = surrogate.predict_gradient(&at, grad);
        project_gradient(bounds, x, grad);
        let u = unit.get().unwrap_or_else(|| {
            let steepest = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            let u = if steepest.is_normal() && max_step > 0.0 {
                steepest / max_step
            } else {
                1.0
            };
            unit.set(Some(u));
            u
        });
        grad.iter_mut().for_each(|g| *g /= u);
        y / u
    };
    let mut from = start.to_vec();
    let mut evals = 0;
    loop {
        unit.set(None);
        let mut found = bfgs(
            &mut objective,
            &from,
            &BfgsConfig {
                max_evals: SURROGATE_RUN_EVALS.min(SURROGATE_MAX_EVALS - evals),
                g_tol: SURROGATE_G_TOL,
                f_tol: SURROGATE_F_TOL,
                max_step,
            },
        )?;
        evals += found.evals;
        let outside = found
            .x
            .iter()
            .zip(&bounds.ranges)
            .any(|(v, &(lo, hi))| *v < lo || *v > hi);
        bounds.clamp(&mut found.x);
        if (found.converged && !outside) || evals >= SURROGATE_MAX_EVALS {
            found.fx = surrogate.predict(&found.x);
            found.evals = evals;
            return Ok(found);
        }
        from = found.x;
    }
}

/// Zero every gradient component at `x` whose coordinate is at or beyond a
/// bound and whose descent direction points further out: the search then
/// slides along that face instead of pushing against it.
fn project_gradient(bounds: &Bounds, x: &[f64], grad: &mut [f64]) {
    for ((g, &v), &(lo, hi)) in grad.iter_mut().zip(x).zip(&bounds.ranges) {
        if (v >= hi && *g < 0.0) || (v <= lo && *g > 0.0) {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::random_search;
    use mde_numeric::resilience::RunOptions;
    use mde_numeric::rng::{for_cases, rng_from_seed, StreamFactory};

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

    /// A deterministic surrogate of `f` fitted on a `nx × ny` grid over
    /// `[x_lo, x_hi] × [0, 1]`.
    fn grid_surrogate(f: impl Fn(&[f64]) -> f64, x_lo: f64, x_hi: f64) -> GpModel {
        let (nx, ny) = (7, 5);
        let xs: Vec<Vec<f64>> = (0..nx)
            .flat_map(|i| {
                (0..ny).map(move |j| {
                    vec![
                        x_lo + (x_hi - x_lo) * i as f64 / (nx - 1) as f64,
                        j as f64 / (ny - 1) as f64,
                    ]
                })
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| f(x)).collect();
        GpModel::fit(&xs, &ys, &GpConfig::default()).unwrap()
    }

    /// The largest projected-gradient component of the surrogate at `x`.
    fn projected_slope(surrogate: &GpModel, bounds: &Bounds, x: &[f64]) -> f64 {
        let mut grad = vec![0.0; x.len()];
        surrogate.predict_gradient(x, &mut grad);
        project_gradient(bounds, x, &mut grad);
        grad.iter().fold(0.0f64, |m, g| m.max(g.abs()))
    }

    /// How finely the surrogate's rounding resolves its value at `x`: the
    /// largest change of `Ŷ` under a `1e-9` nudge of one coordinate.
    fn resolution(surrogate: &GpModel, x: &[f64]) -> f64 {
        let at = surrogate.predict(x);
        (0..x.len())
            .flat_map(|k| [-1e-9, 1e-9].map(|h| (k, h)))
            .map(|(k, h)| {
                let mut y = x.to_vec();
                y[k] += h;
                (surrogate.predict(&y) - at).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn surrogate_search_slides_along_a_face_to_the_constrained_minimum() {
        // The bowl's unconstrained minimum is at x₀ = 1.5, outside the unit
        // box: the search must end on the face x₀ = 1 at the surrogate's
        // own minimum along that face, not where it first hit the face —
        // at any scale of the surrogate.
        let bounds = unit_bounds();
        for scale in [1e-3, 1.0, 1e3] {
            let surrogate = grid_surrogate(
                |x| {
                    let (a, b) = (x[0] - 1.5, x[1] - 0.3);
                    scale * (a * a + 2.0 * b * b + 0.5 * a * b)
                },
                0.0,
                2.0,
            );
            // The oracle: a fine scan of the face, then golden-section
            // refinement around its best cell.
            let on_face = |t: f64| surrogate.predict(&[1.0, t]);
            let cells = 2000;
            let best = (0..=cells)
                .map(|i| i as f64 / cells as f64)
                .min_by(|a, b| on_face(*a).total_cmp(&on_face(*b)))
                .unwrap();
            let (mut lo, mut hi) = (
                (best - 1.0 / cells as f64).max(0.0),
                (best + 1.0 / cells as f64).min(1.0),
            );
            let phi = (5f64.sqrt() - 1.0) / 2.0;
            for _ in 0..60 {
                let (a, b) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
                if on_face(a) < on_face(b) {
                    hi = b;
                } else {
                    lo = a;
                }
            }
            let t_star = (lo + hi) / 2.0;
            for start in [[0.1, 0.9], [0.5, 0.0], [0.0, 0.5], [0.9, 0.1]] {
                let found = surrogate_minimum(&surrogate, &bounds, &start).unwrap();
                let at = format!("scale {scale}, from {start:?}: ended at {:?}", found.x);
                assert_eq!(found.x[0], 1.0, "{at}");
                assert_eq!(found.fx.to_bits(), surrogate.predict(&found.x).to_bits());
                assert!(
                    (found.x[1] - t_star).abs() < 1e-4,
                    "{at}, but the face minimum is at x₁ = {t_star}"
                );
                assert!(found.fx <= on_face(t_star) + 1e-9 * scale, "{at}");
            }
        }
    }

    #[test]
    fn surrogate_search_runs_down_a_concave_surrogate_into_a_corner() {
        // A dome refuses every curvature update, so BFGS takes steepest-
        // descent steps all the way: as long as the gradient, unless the
        // search measures the surrogate in its own unit. At every scale it
        // must reach the corner its slope leads to, well inside budget.
        let bounds = unit_bounds();
        for scale in [1e-3, 1.0, 1e3] {
            let surrogate = grid_surrogate(
                |x| -scale * ((x[0] - 0.4).powi(2) + 0.5 * (x[1] - 0.45).powi(2)),
                0.0,
                1.0,
            );
            let found = surrogate_minimum(&surrogate, &bounds, &[0.5, 0.5]).unwrap();
            assert_eq!(found.x, [1.0, 1.0], "scale {scale}");
            assert!(
                found.evals < 40,
                "scale {scale}: {} evaluations",
                found.evals
            );
        }
    }

    /// A random surrogate search: a deterministic or stochastic fit over
    /// one to three factors, a box narrower or wider than the design with
    /// one factor sometimes pinned, and a start drawn from the box. `None`
    /// when the fit fails.
    fn random_search_case(rng: &mut Rng) -> Option<(GpModel, Bounds, Vec<f64>)> {
        let d = rng.gen_range(1..=3usize);
        let n = rng.gen_range(8..=30usize);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect();
        let (c, w): (Vec<f64>, Vec<f64>) = (0..d)
            .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(0.5..3.0)))
            .unzip();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                x.iter()
                    .zip(&c)
                    .zip(&w)
                    .map(|((v, c), w)| w * (v - c) * (v - c) + (3.0 * v).sin())
                    .sum::<f64>()
                    + 0.2 * rng.gen::<f64>()
            })
            .collect();
        let noise: Vec<f64> = if rng.gen::<f64>() < 0.5 {
            vec![0.0; n]
        } else {
            (0..n).map(|_| rng.gen_range(0.001..0.05)).collect()
        };
        let surrogate = GpModel::fit_stochastic(&xs, &ys, &noise, &GpConfig::default()).ok()?;
        let mut ranges: Vec<(f64, f64)> = (0..d)
            .map(|_| {
                let lo = rng.gen_range(-1.5..0.5);
                (lo, lo + rng.gen_range(0.1..2.0))
            })
            .collect();
        if d > 1 && rng.gen::<f64>() < 0.25 {
            let k = rng.gen_range(0..d);
            ranges[k].1 = ranges[k].0;
        }
        let bounds = Bounds::new(ranges).unwrap();
        let start = bounds.sample(rng);
        Some((surrogate, bounds, start))
    }

    /// The search from `start` ends inside the box, no higher than it
    /// started, at a point whose projected gradient vanishes.
    fn assert_search_ends_stationary(surrogate: &GpModel, bounds: &Bounds, start: &[f64]) {
        let found = surrogate_minimum(surrogate, bounds, start).unwrap();
        for (v, &(lo, hi)) in found.x.iter().zip(&bounds.ranges) {
            assert!((lo..=hi).contains(v), "{v} outside [{lo}, {hi}]");
        }
        assert_eq!(found.fx.to_bits(), surrogate.predict(&found.x).to_bits());
        assert!(found.fx <= surrogate.predict(start));
        let slope = projected_slope(surrogate, bounds, &found.x);
        let scale = projected_slope(surrogate, bounds, start).max(1.0);
        // A run stops once a step gains under `SURROGATE_F_TOL` of the
        // surrogate's scale, which leaves a slope of about its square root
        // on a curved surrogate. And a fit with a huge τ² and a tiny θ
        // predicts through heavy cancellation: no search resolves a slope
        // below what its rounding lets a step of ~1e-6 see.
        let tol = 1e-3 * scale + 1e6 * resolution(surrogate, &found.x);
        assert!(
            slope <= tol,
            "projected gradient {slope} > {tol} at {:?} in {:?} (from {start:?}, {} evaluations)",
            found.x,
            bounds.ranges,
            found.evals
        );
    }

    #[test]
    fn surrogate_search_ends_inside_the_box_at_a_stationary_point() {
        for_cases(160, |rng| {
            if let Some((surrogate, bounds, start)) = random_search_case(rng) {
                assert_search_ends_stationary(&surrogate, &bounds, &start);
            }
        });
    }

    #[test]
    fn surrogate_search_restarts_a_run_stalled_on_a_face() {
        // `random_search_case` draws that, searched in one BFGS run of the
        // whole budget, stall on a face (measured at 5 of 60 master seeds
        // of the test above): the run reaches a bound, its inverse-Hessian
        // estimate keeps steering the bound's coordinate back in, and it
        // spends all 200 evaluations gaining almost nothing.
        for (seed, case) in [(9, 7), (21, 24), (27, 114), (35, 120), (46, 156)] {
            let mut rng = StreamFactory::new(seed).stream(case);
            let (surrogate, bounds, start) =
                random_search_case(&mut rng).expect("the fit succeeds");
            assert_search_ends_stationary(&surrogate, &bounds, &start);
        }
    }

    #[test]
    fn surrogate_search_is_ledgered_alike_uncached_cold_and_warm() {
        use mde_numeric::cache::{CacheHandle, ObjectiveScope};
        let cfg = KrigingCalConfig {
            reps_per_point: 2,
            ..KrigingCalConfig::default()
        };
        let obj = |x: &[f64], rep: usize| smooth(x) + 0.01 * rep as f64;
        let mut uncached = RunMetrics::new();
        kriging_calibrate_with(
            obj,
            &unit_bounds(),
            &cfg,
            &mut rng_from_seed(5),
            Some(&mut uncached),
        )
        .unwrap();
        let handle = CacheHandle::in_memory();
        let cached = |metrics: &mut RunMetrics| {
            let mut scope = ObjectiveScope::new(handle.clone(), "calibrate.kriging", 0xBEEF, 2, 5);
            kriging_calibrate_cached(
                obj,
                &unit_bounds(),
                &cfg,
                &mut rng_from_seed(5),
                Some(metrics),
                &mut scope,
            )
            .unwrap();
        };
        let (mut cold, mut warm) = (RunMetrics::new(), RunMetrics::new());
        cached(&mut cold);
        cached(&mut warm);
        let evals = uncached.counter("calibrate.surrogate_evals");
        assert!(evals >= cfg.infill_rounds as u64, "{evals} evaluations");
        assert_eq!(cold.counter("calibrate.surrogate_evals"), evals);
        assert_eq!(warm.counter("calibrate.surrogate_evals"), evals);
        // One duration a search in every run; a likelihood search only
        // where a fit was not remembered.
        for m in [&uncached, &cold, &warm] {
            let searches = m.duration("calibrate.surrogate_search").map(|h| h.count());
            assert_eq!(searches, Some(cfg.infill_rounds as u64));
        }
        let fits = |m: &RunMetrics| m.duration("gp.search").map(|h| h.count());
        assert_eq!(fits(&uncached), Some(3));
        assert_eq!(fits(&cold), Some(3));
        assert_eq!(fits(&warm), None);
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
