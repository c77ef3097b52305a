//! The asymptotic-efficiency theory of result caching.
//!
//! From the paper (§2.3): with replication fraction `α`, expected costs
//! `c₁, c₂`, output variance `V₁`, and shared-input covariance `V₂ ≥ 0`,
//! the budget-constrained estimator satisfies
//! `c^{1/2}[U(c) − θ] ⇒ √g(α)·N(0,1)` where
//!
//! ```text
//! g(α) = (α·c₁ + c₂) · (V₁ + [2r_α − α·r_α(r_α + 1)]·V₂),   r_α = ⌊1/α⌋
//! ```
//!
//! Efficiency is `1/g(α)` — Hammersley & Handscomb's cost-times-variance
//! product — and approximating `r_α ≈ 1/α` gives
//! `g̃(α) = (α·c₁ + c₂)(V₁ + (α⁻¹ − 1)V₂)`, minimized at
//!
//! ```text
//! α* = √( (c₂/c₁) / (V₁/V₂ − 1) )
//! ```
//!
//! truncated into `[1/n, 1]` for feasibility. `V₁/V₂ ≥ 1` always holds by
//! Cauchy–Schwarz.

/// The statistics 𝒮 = (c₁, c₂, V₁, V₂) that drive the optimization —
/// estimated by pilot runs and refined online, like RDBMS catalog
/// statistics (see [`crate::pilot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Statistics {
    /// Expected cost of one `M₁` run (including transform + store).
    pub c1: f64,
    /// Expected cost of one `M₂` run.
    pub c2: f64,
    /// Variance of an `M₂` output.
    pub v1: f64,
    /// Covariance of two `M₂` outputs sharing an `M₁` input (≥ 0).
    pub v2: f64,
}

impl Statistics {
    /// Validate basic sanity (positive costs, `0 ≤ V₂ ≤ V₁`).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.c1 > 0.0 && self.c2 > 0.0) {
            return Err(format!(
                "costs must be positive: c1={}, c2={}",
                self.c1, self.c2
            ));
        }
        if self.v1 < 0.0 {
            return Err(format!("V1 must be non-negative: {}", self.v1));
        }
        if self.v2 < 0.0 || self.v2 > self.v1 + 1e-12 {
            return Err(format!(
                "require 0 <= V2 <= V1 (Cauchy-Schwarz): V1={}, V2={}",
                self.v1, self.v2
            ));
        }
        Ok(())
    }
}

/// `r_α = ⌊1/α⌋`.
fn r_alpha(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    (1.0 / alpha).floor()
}

/// The exact asymptotic variance constant `g(α)`.
pub fn g_exact(alpha: f64, s: &Statistics) -> f64 {
    let r = r_alpha(alpha);
    (alpha * s.c1 + s.c2) * (s.v1 + (2.0 * r - alpha * r * (r + 1.0)) * s.v2)
}

/// The smooth approximation `g̃(α)` with `r_α ≈ 1/α`.
pub fn g_tilde(alpha: f64, s: &Statistics) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    (alpha * s.c1 + s.c2) * (s.v1 + (1.0 / alpha - 1.0) * s.v2)
}

/// Asymptotic efficiency `1/g(α)` (Glynn–Whitt / Hammersley–Handscomb).
pub fn asymptotic_efficiency(alpha: f64, s: &Statistics) -> f64 {
    1.0 / g_exact(alpha, s)
}

/// The closed-form minimizer `α*` of `g̃`, truncated into `[1/n, 1]`.
///
/// Degenerate regimes match the paper's discussion:
/// * `V₂ = 0` (`M₂` insensitive to `M₁`, or `M₁` deterministic): run `M₁`
///   as rarely as allowed — `α* = 1/n`;
/// * `V₁ = V₂` (`M₂` a deterministic transformer of `M₁`): fresh `M₁`
///   every time — `α* = 1`.
pub fn optimal_alpha(s: &Statistics, n: usize) -> f64 {
    let lo = 1.0 / n.max(1) as f64;
    if s.v2 <= 0.0 {
        return lo.min(1.0);
    }
    let ratio = s.v1 / s.v2;
    if ratio <= 1.0 {
        return 1.0;
    }
    let a = ((s.c2 / s.c1) / (ratio - 1.0)).sqrt();
    a.clamp(lo, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Statistics {
        Statistics {
            c1: 10.0,
            c2: 1.0,
            v1: 2.0,
            v2: 1.0,
        }
    }

    #[test]
    fn validate_checks_cauchy_schwarz() {
        assert!(stats().validate().is_ok());
        assert!(Statistics { v2: 3.0, ..stats() }.validate().is_err());
        assert!(Statistics { c1: 0.0, ..stats() }.validate().is_err());
        assert!(Statistics {
            v1: -1.0,
            ..stats()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn alpha_one_recovers_classic_monte_carlo() {
        // α = 1 → r = 1 → bracket = V1 + (2 − 2)V2 = V1, so
        // g = (c1 + c2)·V1: cost per replication times output variance.
        let s = stats();
        assert!((g_exact(1.0, &s) - 11.0 * 2.0).abs() < 1e-12);
        assert!((g_tilde(1.0, &s) - 11.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn g_exact_piecewise_structure() {
        // For α = 1/k (integer k), r = k and g_exact = g_tilde.
        let s = stats();
        for k in 1..=10 {
            let a = 1.0 / k as f64;
            assert!(
                (g_exact(a, &s) - g_tilde(a, &s)).abs() < 1e-9,
                "at α = 1/{k}"
            );
        }
        // Between the 1/k points they differ (r_α is a step function).
        let a = 0.4; // r = 2, 1/α = 2.5
        assert!((g_exact(a, &s) - g_tilde(a, &s)).abs() > 1e-6);
    }

    #[test]
    fn optimal_alpha_closed_form() {
        // α* = sqrt((c2/c1)/((V1/V2)−1)) = sqrt(0.1/1) ≈ 0.3162.
        let s = stats();
        let a = optimal_alpha(&s, 10_000);
        assert!((a - (0.1f64).sqrt()).abs() < 1e-12);
        // It indeed beats the endpoints on g̃ and on g_exact nearby.
        assert!(g_tilde(a, &s) < g_tilde(1.0, &s));
        assert!(g_tilde(a, &s) < g_tilde(0.05, &s));
    }

    #[test]
    fn optimal_alpha_is_a_true_minimum_of_g_tilde() {
        let s = stats();
        let a = optimal_alpha(&s, 100_000);
        let g0 = g_tilde(a, &s);
        for k in 1..=99 {
            let x = k as f64 / 100.0;
            assert!(
                g_tilde(x, &s) >= g0 - 1e-9,
                "g̃({x}) = {} below g̃(α*) = {g0}",
                g_tilde(x, &s)
            );
        }
    }

    #[test]
    fn degenerate_regimes() {
        // V2 = 0: M1 effectively deterministic → α* at the floor.
        let s = Statistics { v2: 0.0, ..stats() };
        assert_eq!(optimal_alpha(&s, 50), 1.0 / 50.0);
        // V1 = V2: M2 a deterministic transformer → α* = 1.
        let s = Statistics { v2: 2.0, ..stats() };
        assert_eq!(optimal_alpha(&s, 50), 1.0);
    }

    #[test]
    fn truncation_bounds() {
        // A tiny closed-form α gets floored at 1/n.
        let s = Statistics {
            c1: 1e6,
            c2: 1.0,
            v1: 100.0,
            v2: 0.01,
        };
        assert_eq!(optimal_alpha(&s, 10), 0.1);
        // A huge one is capped at 1.
        let s = Statistics {
            c1: 1.0,
            c2: 1e6,
            v1: 1.1,
            v2: 1.0,
        };
        assert_eq!(optimal_alpha(&s, 10), 1.0);
    }

    #[test]
    fn efficiency_gains_can_be_large() {
        // "arbitrarily large efficiency improvements are possible": expensive
        // M1 with weak coupling.
        let s = Statistics {
            c1: 1000.0,
            c2: 1.0,
            v1: 1.0,
            v2: 0.001,
        };
        let a = optimal_alpha(&s, 1_000_000);
        let gain = asymptotic_efficiency(a, &s) / asymptotic_efficiency(1.0, &s);
        assert!(gain > 100.0, "efficiency gain only {gain}");
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn g_rejects_bad_alpha() {
        g_exact(0.0, &stats());
    }
}
