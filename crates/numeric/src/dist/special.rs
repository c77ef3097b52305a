//! Special functions: `ln Γ`, error function, regularized incomplete gamma
//! and beta functions, and the standard normal and Student-t quantiles.
//!
//! These are the classical workhorse approximations (Lanczos, rational
//! erf, Acklam's inverse normal CDF, Lentz continued fractions) with
//! absolute errors far below the statistical noise of any Monte Carlo
//! experiment in this workspace.

/// Natural log of the gamma function, via the Lanczos approximation (g = 7,
/// n = 9 coefficients). Accurate to ~1e-13 for `x > 0`.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7 from Godfrey's tables.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// The error function `erf(x)`, computed via the identity
/// `erf(x) = sign(x)·P(1/2, x²)` with the regularized incomplete gamma
/// function. Accurate to ~1e-14 across the real line.
fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        reg_lower_gamma(0.5, x * x)
    } else {
        -reg_lower_gamma(0.5, x * x)
    }
}

/// The complementary error function `erfc(x)`.
///
/// For `x² ≥ 1.5` the upper-gamma continued fraction is evaluated directly,
/// avoiding the catastrophic cancellation of `1 − erf(x)` in the right
/// tail; elsewhere `1 − erf(x)` loses no precision because `erf(x) < 0.92`.
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let x2 = x * x;
    if x2 >= 1.5 {
        reg_upper_gamma_cf(0.5, x2)
    } else {
        1.0 - erf(x)
    }
}

/// CDF of the standard normal distribution.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Quantile (inverse CDF) of the standard normal distribution, via Acklam's
/// algorithm refined with one Halley step. Relative error below 1e-9 over
/// `p ∈ (0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "quantile probability must be in [0,1], got {p}"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    // Acklam's rational approximations.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the true CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the Lentz continued
/// fraction for the complementary function otherwise, per Numerical Recipes.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series: P(a,x) = x^a e^-x / Γ(a) * Σ_{n>=0} x^n / (a (a+1) ... (a+n))
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        1.0 - reg_upper_gamma_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x)` by modified Lentz continued
/// fraction. Valid for `x >= a + 1` (used internally by
/// [`reg_lower_gamma`]).
fn reg_upper_gamma_cf(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Quantile of Student's t distribution with `dof` degrees of freedom.
/// Newton's method on the upper tail `P(T > t) = ½·I_{ν/(ν+t²)}(ν/2, ½)`
/// from the normal quantile: the tail is convex and decreasing for `t > 0`
/// and lies above the normal one, so the iterates rise monotonically to
/// the root. Relative error near 1e-12 for `dof ≥ 1`.
pub(crate) fn student_t_quantile(p: f64, dof: f64) -> f64 {
    assert!(
        0.0 < p && p < 1.0 && dof > 0.0,
        "student_t_quantile needs p in (0,1) and dof > 0, got p = {p}, dof = {dof}"
    );
    if p < 0.5 {
        return -student_t_quantile(1.0 - p, dof);
    }
    let upper = 1.0 - p;
    let ln_norm =
        ln_gamma((dof + 1.0) / 2.0) - ln_gamma(dof / 2.0) - 0.5 * (dof * std::f64::consts::PI).ln();
    let mut t = std_normal_quantile(p);
    for _ in 0..200 {
        let tail = 0.5 * reg_inc_beta(dof / 2.0, 0.5, dof / (dof + t * t));
        let density = (ln_norm - (dof + 1.0) / 2.0 * (t * t / dof).ln_1p()).exp();
        let step = (tail - upper) / density;
        t += step;
        if step.abs() <= 1e-13 * t.abs() {
            break;
        }
    }
    t
}

/// Regularized incomplete beta function `I_x(a, b)` via the Lentz continued
/// fraction, per Numerical Recipes.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "reg_inc_beta requires a,b > 0");
    assert!((0.0..=1.0).contains(&x), "reg_inc_beta requires x in [0,1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Symmetry transformation for faster convergence. The complementary
    // branch is computed directly (not via recursion) so that x exactly at
    // the switch threshold cannot recurse forever.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            if n > 1 {
                fact *= (n - 1) as f64;
            }
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n}) != ln({fact})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-10);
        // Γ(3/2) = sqrt(pi)/2
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expected).abs() < 1e-10);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-6);
        assert!((erf(5.0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12);
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-6);
        assert!((std_normal_cdf(-1.959_963_984_540_054) - 0.025).abs() < 1e-6);
        assert!((std_normal_cdf(1.0) - 0.841_344_746_068_542_9).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for i in 1..200 {
            let p = i as f64 / 200.0;
            let x = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(x) - p).abs() < 1e-8,
                "roundtrip failed at p={p}: x={x}"
            );
        }
    }

    #[test]
    fn normal_quantile_extremes() {
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
        // Deep tails stay finite and monotone.
        let q1 = std_normal_quantile(1e-12);
        let q2 = std_normal_quantile(1e-10);
        assert!(q1 < q2 && q1 < -6.0);
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn normal_quantile_rejects_out_of_range() {
        std_normal_quantile(1.5);
    }

    #[test]
    fn reg_lower_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^-x (exponential CDF).
        for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let expected = 1.0 - (-x).exp();
            assert!(
                (reg_lower_gamma(1.0, x) - expected).abs() < 1e-12,
                "P(1,{x})"
            );
        }
    }

    #[test]
    fn reg_lower_gamma_chi_square() {
        // P(k/2, x/2) is the chi-square CDF; chi2(2) at its mean 2 is 1-e^-1.
        let expected = 1.0 - (-1.0f64).exp();
        assert!((reg_lower_gamma(1.0, 1.0) - expected).abs() < 1e-12);
        // chi2(1) at 3.841 ≈ 0.95 (the classic 95% critical value).
        assert!((reg_lower_gamma(0.5, 3.841_458_820_694_124 / 2.0) - 0.95).abs() < 1e-6);
    }

    #[test]
    fn reg_lower_gamma_bounds_and_monotone() {
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.3;
            let p = reg_lower_gamma(2.5, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-14);
            prev = p;
        }
        assert!(prev > 0.999);
    }

    #[test]
    fn reg_inc_beta_uniform_special_case() {
        // I_x(1, 1) = x.
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((reg_inc_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn reg_inc_beta_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(2.0, 3.0, 0.3), (0.5, 0.5, 0.7), (5.0, 1.5, 0.9)] {
            let lhs = reg_inc_beta(a, b, x);
            let rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x);
            assert!(
                (lhs - rhs).abs() < 1e-10,
                "symmetry failed at ({a},{b},{x})"
            );
        }
    }

    #[test]
    fn student_t_quantile_matches_tables() {
        // Two-sided 95 % / 90 % / 99 % critical values, from the tables.
        for &(p, dof, t) in &[
            (0.975, 1.0, 12.706_204_736_174_7),
            (0.975, 3.0, 3.182_446_305_284_26),
            (0.975, 15.0, 2.131_449_545_559_32),
            (0.975, 47.0, 2.011_740_513_729_76),
            (0.95, 10.0, 1.812_461_122_811_68),
            (0.995, 5.0, 4.032_142_983_557_54),
        ] {
            let got = student_t_quantile(p, dof);
            assert!(
                (got - t).abs() < 1e-9 * t,
                "t({p}, {dof}) = {got}, want {t}"
            );
            assert_eq!(student_t_quantile(1.0 - p, dof), -got);
        }
        // Many degrees of freedom: the normal quantile.
        let z = std_normal_quantile(0.975);
        assert!((student_t_quantile(0.975, 1e7) - z).abs() < 1e-6);
        assert_eq!(student_t_quantile(0.5, 4.0), 0.0);
    }

    #[test]
    fn reg_inc_beta_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry of Beta(2,2).
        assert!((reg_inc_beta(2.0, 2.0, 0.5) - 0.5).abs() < 1e-10);
        // Beta(2,1) CDF is x^2.
        assert!((reg_inc_beta(2.0, 1.0, 0.6) - 0.36).abs() < 1e-10);
    }
}
