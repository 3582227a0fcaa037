//! Scalar root finding by Brent's method.
//!
//! It solves the Nash first-derivative condition
//! `M_i(r_i, c_i) + ∂C_i/∂r_i = 0` of a best response in one unknown, and
//! the symmetric Pareto condition `M(r, g(nr)/n) + g'(nr) = 0`. The
//! large-N engine's best responses run their own safeguarded Newton loop
//! (`kernel::solve_increasing` in `greednet-largen`).

use crate::error::NumericsError;
use crate::{Result, DEFAULT_MAX_ITER};

/// Outcome of a successful scalar root solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootResult {
    /// Abscissa of the root.
    pub x: f64,
    /// Function value at `x` (should be ~0).
    pub fx: f64,
    /// Number of function evaluations used.
    pub evaluations: usize,
}

fn check_finite(context: &'static str, v: f64) -> Result<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(NumericsError::NonFinite { context, value: v })
    }
}

/// Brent's method (inverse quadratic interpolation + secant + bisection).
///
/// Requires a sign change on `[a, b]`. This is the default root finder in
/// the workspace: superlinear in practice, never worse than bisection.
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> Result<RootResult> {
    let mut a = a;
    let mut b = b;
    let mut fa = check_finite("brent f(a)", f(a))?;
    let mut fb = check_finite("brent f(b)", f(b))?;
    let mut evals = 2;
    if fa == 0.0 {
        return Ok(RootResult {
            x: a,
            fx: fa,
            evaluations: evals,
        });
    }
    if fb == 0.0 {
        return Ok(RootResult {
            x: b,
            fx: fb,
            evaluations: evals,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NumericsError::NoBracket { a, b, fa, fb });
    }
    // Ensure |f(b)| <= |f(a)| so that `b` is the best iterate.
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;

    #[expect(clippy::explicit_counter_loop, reason = "`evals` counts f-evaluations")]
    for _ in 0..4 * DEFAULT_MAX_ITER {
        if fb.signum() == fc.signum() {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
        if fc.abs() < fb.abs() {
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * tol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(RootResult {
                x: b,
                fx: fb,
                evaluations: evals,
            });
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt interpolation.
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                // Secant.
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                // Inverse quadratic.
                let q1 = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * q1 * (q1 - r) - (b - a) * (r - 1.0));
                q = (q1 - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                e = d;
                d = p / q;
            } else {
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        if d.abs() > tol1 {
            b += d;
        } else {
            b += tol1.copysign(xm);
        }
        fb = check_finite("brent f", f(b))?;
        evals += 1;
    }
    Err(NumericsError::MaxIterations {
        algorithm: "brent",
        iterations: 4 * DEFAULT_MAX_ITER,
        residual: fb.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt2_fast() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(r.evaluations < 20, "brent used {} evals", r.evaluations);
    }

    #[test]
    fn brent_handles_endpoint_root() {
        let r = brent(|x| x, 0.0, 1.0, 1e-12).unwrap();
        assert_eq!(r.x, 0.0);
    }

    #[test]
    fn brent_cos_root() {
        let r = brent(f64::cos, 1.0, 2.0, 1e-14).unwrap();
        assert!((r.x - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn brent_steep_function() {
        // Root of x^9 near zero: hard for secant-only methods.
        let r = brent(|x| x.powi(9) - 1e-9, 0.0, 2.0, 1e-14).unwrap();
        assert!((r.x - 1e-1).abs() < 1e-6, "got {}", r.x);
    }

    #[test]
    fn non_finite_is_reported() {
        let e = brent(|x| if x > 0.5 { f64::NAN } else { -1.0 }, 0.0, 1.0, 1e-12).unwrap_err();
        assert!(matches!(e, NumericsError::NonFinite { .. }));
    }
}
