//! Unconstrained minimization: the Nelder–Mead simplex and a dense BFGS.
//!
//! §3.1 of the paper cites Nelder–Mead (via Fabretti 2013) as a workhorse
//! for calibrating agent-based models whose objectives are expensive,
//! noisy, and gradient-free. §4.1's Gaussian-process fitting has an
//! analytic likelihood gradient, and a fitted kriging surrogate has an
//! analytic predictor gradient, so both the likelihood search and the
//! kriging-calibration surrogate search follow theirs with [`bfgs`]
//! instead of feeling their way with a simplex.
//! Both live in the numeric substrate, return the same [`OptimResult`], and
//! treat a non-finite objective the same way: as `+∞`, a point to back
//! away from.

use crate::NumericError;

/// Configuration for Nelder–Mead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's objective spread falls below this
    /// *and* the simplex has geometrically collapsed (see `x_tol`).
    pub f_tol: f64,
    /// Geometric convergence: maximum coordinate spread of the simplex.
    /// Guards against premature stops when the objective is symmetric
    /// around the optimum (equal f at distinct points).
    pub x_tol: f64,
    /// Initial simplex scale (per-coordinate step from the start point).
    pub initial_step: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig {
            max_evals: 2000,
            f_tol: 1e-10,
            x_tol: 1e-7,
            initial_step: 0.1,
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Objective evaluations consumed.
    pub evals: usize,
    /// Whether the tolerance criterion (rather than the budget) stopped us.
    pub converged: bool,
}

/// Minimize `f` from `x0` with the Nelder–Mead simplex
/// (reflection/expansion/contraction/shrink with the standard
/// coefficients 1, 2, ½, ½).
pub fn nelder_mead(
    f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    cfg: &NelderMeadConfig,
) -> crate::Result<OptimResult> {
    let mut f = f;
    let n = x0.len();
    if n == 0 {
        return Err(NumericError::EmptyInput {
            context: "nelder_mead (empty start point)",
        });
    }
    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        let v = f(x);
        if v.is_nan() {
            // NaN objectives poison simplex ordering; treat as +inf.
            f64::INFINITY
        } else {
            v
        }
    };

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let fx0 = eval(x0, &mut evals);
    simplex.push((x0.to_vec(), fx0));
    for i in 0..n {
        let mut xi = x0.to_vec();
        xi[i] += if xi[i].abs() > 1e-12 {
            cfg.initial_step * xi[i].abs()
        } else {
            cfg.initial_step
        };
        let fxi = eval(&xi, &mut evals);
        simplex.push((xi, fxi));
    }

    let mut converged = false;
    while evals < cfg.max_evals {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN after mapping"));
        let spread = simplex[n].1 - simplex[0].1;
        let x_spread = (0..n)
            .map(|i| {
                let vals = simplex.iter().map(|(x, _)| x[i]);
                let mx = vals.clone().fold(f64::NEG_INFINITY, f64::max);
                let mn = vals.fold(f64::INFINITY, f64::min);
                mx - mn
            })
            .fold(0.0f64, f64::max);
        if spread.abs() < cfg.f_tol && x_spread < cfg.x_tol {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (x, _) in &simplex[..n] {
            for (c, v) in centroid.iter_mut().zip(x) {
                *c += v / n as f64;
            }
        }
        let worst = simplex[n].clone();

        let point_at = |t: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&worst.0)
                .map(|(c, w)| c + t * (c - w))
                .collect()
        };

        // Reflection.
        let xr = point_at(1.0);
        let fr = eval(&xr, &mut evals);
        if fr < simplex[0].1 {
            // Expansion.
            let xe = point_at(2.0);
            let fe = eval(&xe, &mut evals);
            simplex[n] = if fe < fr { (xe, fe) } else { (xr, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (xr, fr);
        } else {
            // Contraction (outside if reflection helped over the worst,
            // inside otherwise).
            let (xc, fc) = if fr < worst.1 {
                let xc = point_at(0.5);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            } else {
                let xc = point_at(-0.5);
                let fc = eval(&xc, &mut evals);
                (xc, fc)
            };
            if fc < worst.1.min(fr) {
                simplex[n] = (xc, fc);
            } else {
                // Shrink toward the best.
                let best = simplex[0].0.clone();
                for (x, fx) in simplex.iter_mut().skip(1) {
                    for (xi, bi) in x.iter_mut().zip(&best) {
                        *xi = bi + 0.5 * (*xi - bi);
                    }
                    *fx = eval(x, &mut evals);
                }
            }
        }
    }

    simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN after mapping"));
    let (x, fx) = simplex.swap_remove(0);
    Ok(OptimResult {
        x,
        fx,
        evals,
        converged,
    })
}

/// Configuration for [`bfgs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfgsConfig {
    /// Maximum objective-and-gradient evaluations.
    pub max_evals: usize,
    /// Converged when no gradient component exceeds this in magnitude.
    pub g_tol: f64,
    /// Converged when an accepted step lowers the objective by less than
    /// `f_tol · (1 + |f|)`. This is what stops the search on a flat
    /// direction (a vanishing gradient component whose coordinate could
    /// otherwise be walked to `−∞` for no gain).
    pub f_tol: f64,
    /// Largest change of any coordinate in one trial step.
    pub max_step: f64,
}

impl Default for BfgsConfig {
    fn default() -> Self {
        BfgsConfig {
            max_evals: 2000,
            g_tol: 1e-8,
            f_tol: 1e-12,
            max_step: f64::INFINITY,
        }
    }
}

/// Armijo sufficient-decrease constant.
const ARMIJO_C1: f64 = 1e-4;
/// A line search whose trial step has shrunk below this (largest
/// coordinate change) has found nothing lower along its direction.
const MIN_STEP: f64 = 1e-10;

/// Minimize `f` from `x0` with dense BFGS and Armijo back-tracking.
///
/// `f(x, grad)` returns the objective at `x` and writes its gradient into
/// `grad`. A trial point where the objective or its gradient is not finite
/// counts as `+∞`: the line search halves the step and tries again, as the
/// simplex backs away from such a point. The start point itself must be
/// feasible — a non-finite objective or gradient there is a typed error,
/// because there is no direction to back off along.
///
/// The inverse-Hessian estimate starts at the identity, is rescaled by
/// `sᵀy / yᵀy` before its first update, skips updates that violate the
/// curvature condition, and is reset to the identity when it stops
/// producing a descent direction or a successful line search. Accepted
/// objective values are strictly decreasing, so the returned point is the
/// best one seen.
pub fn bfgs(
    f: impl FnMut(&[f64], &mut [f64]) -> f64,
    x0: &[f64],
    cfg: &BfgsConfig,
) -> crate::Result<OptimResult> {
    let mut f = f;
    let n = x0.len();
    if n == 0 {
        return Err(NumericError::EmptyInput {
            context: "bfgs (empty start point)",
        });
    }
    let finite = |fx: f64, g: &[f64]| fx.is_finite() && g.iter().all(|v| v.is_finite());
    let mut x = x0.to_vec();
    let mut g = vec![0.0; n];
    let mut fx = f(&x, &mut g);
    let mut evals = 1usize;
    if !finite(fx, &g) {
        return Err(NumericError::invalid(
            "x0",
            format!("objective or gradient is not finite at the start point (f = {fx})"),
        ));
    }

    let identity = |h: &mut [f64]| {
        h.fill(0.0);
        h.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
    };
    let mut h = vec![0.0; n * n];
    identity(&mut h);
    // Whether `h` is still the (possibly rescaled) identity.
    let mut h_fresh = true;
    let mut p = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let mut g_trial = vec![0.0; n];
    let mut hy = vec![0.0; n];
    let mut converged = false;

    'search: while evals < cfg.max_evals {
        if g.iter().all(|v| v.abs() < cfg.g_tol) {
            converged = true;
            break;
        }
        for (pi, row) in p.iter_mut().zip(h.chunks_exact(n)) {
            *pi = -row.iter().zip(&g).map(|(a, b)| a * b).sum::<f64>();
        }
        let mut slope: f64 = p.iter().zip(&g).map(|(a, b)| a * b).sum();
        if !(slope < 0.0 && slope.is_finite()) {
            identity(&mut h);
            h_fresh = true;
            for (pi, gi) in p.iter_mut().zip(&g) {
                *pi = -gi;
            }
            slope = -g.iter().map(|v| v * v).sum::<f64>();
        }
        let reach = p.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut t = if reach > cfg.max_step {
            cfg.max_step / reach
        } else {
            1.0
        };
        let f_trial = loop {
            for ((ti, xi), pi) in trial.iter_mut().zip(&x).zip(&p) {
                *ti = xi + t * pi;
            }
            let ft = f(&trial, &mut g_trial);
            evals += 1;
            if finite(ft, &g_trial) && ft <= fx + ARMIJO_C1 * t * slope {
                break ft;
            }
            t *= 0.5;
            if evals >= cfg.max_evals {
                break 'search;
            }
            if t * reach < MIN_STEP {
                if h_fresh {
                    // Not even steepest descent finds a lower point.
                    converged = true;
                    break 'search;
                }
                identity(&mut h);
                h_fresh = true;
                continue 'search;
            }
        };

        // BFGS update of the inverse Hessian with s = Δx, y = Δg.
        let s = &mut p;
        s.iter_mut().for_each(|v| *v *= t);
        let y = &mut g_trial;
        for (yi, gi) in y.iter_mut().zip(&g) {
            *yi -= gi;
        }
        let sy: f64 = s.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let yy: f64 = y.iter().map(|v| v * v).sum();
        let ss: f64 = s.iter().map(|v| v * v).sum();
        if sy > 1e-10 * (ss * yy).sqrt() {
            if h_fresh {
                h.iter_mut().step_by(n + 1).for_each(|d| *d = sy / yy);
                h_fresh = false;
            }
            for (hyi, row) in hy.iter_mut().zip(h.chunks_exact(n)) {
                *hyi = row.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
            }
            let yhy: f64 = y.iter().zip(&hy).map(|(a, b)| a * b).sum();
            let c = (1.0 + yhy / sy) / sy;
            for (i, row) in h.chunks_exact_mut(n).enumerate() {
                for (j, hij) in row.iter_mut().enumerate() {
                    *hij += c * s[i] * s[j] - (hy[i] * s[j] + s[i] * hy[j]) / sy;
                }
            }
        }
        for (gi, yi) in g.iter_mut().zip(y.iter()) {
            *gi += yi;
        }
        x.copy_from_slice(&trial);
        let gain = fx - f_trial;
        fx = f_trial;
        if gain <= cfg.f_tol * (1.0 + fx.abs()) {
            converged = true;
            break;
        }
    }

    Ok(OptimResult {
        x,
        fx,
        evals,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 3.0).abs() < 1e-4, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-4, "x1 = {}", r.x[1]);
        assert!(r.converged);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let rosen = |x: &[f64]| {
            let (a, b) = (x[0], x[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let r = nelder_mead(
            rosen,
            &[-1.2, 1.0],
            &NelderMeadConfig {
                max_evals: 5000,
                ..NelderMeadConfig::default()
            },
        )
        .unwrap();
        assert!(r.fx < 1e-6, "f = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn respects_evaluation_budget() {
        let mut count = 0usize;
        let r = nelder_mead(
            |x| {
                count += 1;
                x[0] * x[0]
            },
            &[100.0],
            &NelderMeadConfig {
                max_evals: 50,
                f_tol: 0.0,
                ..NelderMeadConfig::default()
            },
        )
        .unwrap();
        assert!(count <= 55, "evaluations {count}"); // small slack for the final shrink pass
        assert!(!r.converged);
        assert_eq!(r.evals, count);
    }

    #[test]
    fn one_dimensional_and_start_at_zero() {
        let r = nelder_mead(
            |x| (x[0] - 0.5).powi(2),
            &[0.0],
            &NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn handles_nan_objective_regions() {
        // sqrt of negative returns NaN; NM must not get stuck.
        let r = nelder_mead(
            |x| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 2.0).powi(2)
                }
            },
            &[1.0],
            &NelderMeadConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn empty_start_rejected() {
        assert!(nelder_mead(|_| 0.0, &[], &NelderMeadConfig::default()).is_err());
        assert!(bfgs(|_, _| 0.0, &[], &BfgsConfig::default()).is_err());
    }

    #[test]
    fn bfgs_minimizes_quadratic_bowl() {
        let r = bfgs(
            |x, g| {
                g[0] = 2.0 * (x[0] - 3.0);
                g[1] = 8.0 * (x[1] + 1.0);
                (x[0] - 3.0).powi(2) + 4.0 * (x[1] + 1.0).powi(2)
            },
            &[0.0, 0.0],
            &BfgsConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 3.0).abs() < 1e-6, "x0 = {}", r.x[0]);
        assert!((r.x[1] + 1.0).abs() < 1e-6, "x1 = {}", r.x[1]);
        assert!(r.converged);
        assert!(r.evals < 30, "evaluations {}", r.evals);
    }

    fn rosenbrock(x: &[f64], g: &mut [f64]) -> f64 {
        let (a, b) = (x[0], x[1]);
        g[0] = -2.0 * (1.0 - a) - 400.0 * a * (b - a * a);
        g[1] = 200.0 * (b - a * a);
        (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
    }

    #[test]
    fn bfgs_minimizes_rosenbrock() {
        let r = bfgs(rosenbrock, &[-1.2, 1.0], &BfgsConfig::default()).unwrap();
        assert!(r.fx < 1e-10, "f = {}", r.fx);
        assert!((r.x[0] - 1.0).abs() < 1e-4 && (r.x[1] - 1.0).abs() < 1e-4);
        assert!(r.evals < 200, "evaluations {}", r.evals);
    }

    #[test]
    fn bfgs_respects_a_binding_budget_and_never_goes_uphill() {
        let mut count = 0usize;
        let start = rosenbrock(&[-1.2, 1.0], &mut [0.0; 2]);
        let r = bfgs(
            |x, g| {
                count += 1;
                rosenbrock(x, g)
            },
            &[-1.2, 1.0],
            &BfgsConfig {
                max_evals: 12,
                ..BfgsConfig::default()
            },
        )
        .unwrap();
        assert_eq!(count, 12);
        assert_eq!(r.evals, 12);
        assert!(!r.converged);
        assert!(r.fx < start, "f = {} from {start}", r.fx);
        assert_eq!(r.fx, rosenbrock(&r.x, &mut [0.0; 2]));
    }

    #[test]
    fn bfgs_backs_off_a_nan_region() {
        // The unconstrained step from 0.5 overshoots into x < 0, where the
        // objective is NaN: the line search must halve its way back.
        let r = bfgs(
            |x, g| {
                if x[0] < 0.0 {
                    g[0] = f64::NAN;
                    return f64::NAN;
                }
                g[0] = 1.0 - 0.01 / (x[0] * x[0]);
                x[0] + 0.01 / x[0]
            },
            &[0.5],
            &BfgsConfig::default(),
        )
        .unwrap();
        assert!((r.x[0] - 0.1).abs() < 1e-5, "x = {}", r.x[0]);
        assert!(r.converged);
    }

    #[test]
    fn bfgs_infeasible_start_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY] {
            let err = bfgs(
                |_, g| {
                    g[0] = 0.0;
                    bad
                },
                &[1.0],
                &BfgsConfig::default(),
            )
            .unwrap_err();
            assert!(
                matches!(err, NumericError::InvalidParameter { name: "x0", .. }),
                "{err:?}"
            );
        }
        // A finite value with a NaN gradient is just as infeasible.
        let err = bfgs(
            |_, g| {
                g[0] = f64::NAN;
                1.0
            },
            &[1.0],
            &BfgsConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, NumericError::InvalidParameter { .. }));
    }

    #[test]
    fn bfgs_stops_on_a_flat_direction() {
        // f falls toward x₁ → −∞ but ever more slowly (an inert GP factor's
        // ln θ): the search must settle x₀ and stop, not chase x₁.
        let r = bfgs(
            |x, g| {
                g[0] = 2.0 * (x[0] - 1.0);
                g[1] = 1e-3 * x[1].exp();
                (x[0] - 1.0).powi(2) + 1e-3 * x[1].exp()
            },
            &[4.0, 0.0],
            &BfgsConfig {
                max_step: 2.0,
                f_tol: 1e-9,
                ..BfgsConfig::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x0 = {}", r.x[0]);
        assert!(r.x[1] > -40.0, "walked to x1 = {}", r.x[1]);
        assert!(r.evals < 100, "evaluations {}", r.evals);
    }
}
