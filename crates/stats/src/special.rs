//! Special functions backing confidence intervals and goodness-of-fit tests.
//!
//! Implemented from standard numerical recipes (Lanczos ln-gamma, series /
//! continued-fraction regularized incomplete gamma, Abramowitz–Stegun erf),
//! accurate to well beyond what hypothesis testing on crawl data needs.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Valid for `x > 0`; relative error below 1e-13 over the tested range.
#[expect(
    clippy::excessive_precision,
    reason = "the published Lanczos (g=7) coefficients are kept verbatim even where they exceed f64 precision"
)]
fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x)/Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise.
fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p requires a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 − P(a, x)`.
fn gamma_q(a: f64, x: f64) -> f64 {
    1.0 - gamma_p(a, x)
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz's algorithm for the continued fraction.
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// The error function, via the regularized incomplete gamma:
/// `erf(x) = sign(x) · P(1/2, x²)`.
fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// CDF of the standard normal distribution.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse CDF (quantile) of the standard normal, Acklam's rational
/// approximation refined with one Halley step. |error| < 1e-9 over (0,1).
#[expect(
    clippy::excessive_precision,
    reason = "Acklam's published coefficients are kept verbatim even where they exceed f64 precision"
)]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile requires 0 < p < 1, got {p}");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
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
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    };
    // One Halley refinement using the normal pdf.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Survival function of the chi-square distribution with `k` degrees of
/// freedom evaluated at `x` — i.e. the p-value of a chi-square statistic.
pub fn chi_square_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=sqrt(pi)
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_is_exponential_cdf_for_a1() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1f64, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let expect = 1.0 - (-x).exp();
            assert!((gamma_p(1.0, x) - expect).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 9.0), (10.0, 3.0)] {
            assert!((gamma_p(a, x) + gamma_q(a, x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-15);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-9);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-9);
        assert!((erf(2.0) - 0.995_322_265_018_952_7).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
        for &z in &[0.5, 1.0, 1.96, 3.0] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-12);
        }
        assert!((normal_cdf(1.96) - 0.975_002_104_85).abs() < 1e-7);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-9, "p={p}, z={z}");
        }
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
    }

    #[test]
    fn chi_square_sf_known_values() {
        // With 1 dof, P(X > 3.841) ≈ 0.05.
        assert!((chi_square_sf(3.841_458_820_694_124, 1.0) - 0.05).abs() < 1e-9);
        // With 5 dof, P(X > 11.0705) ≈ 0.05.
        assert!((chi_square_sf(11.070_497_693_516_351, 5.0) - 0.05).abs() < 1e-9);
        assert_eq!(chi_square_sf(0.0, 3.0), 1.0);
    }
}
