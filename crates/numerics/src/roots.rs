//! Scalar root finding: bisection, Brent's method, and safeguarded Newton.
//!
//! These are the workhorses behind best-response computation (solving the
//! Nash first-derivative condition `M_i(r_i, c_i) + ∂C_i/∂r_i = 0` in one
//! unknown) and behind inverting monotone congestion maps.

use crate::error::NumericsError;
use crate::{Result, DEFAULT_MAX_ITER, DEFAULT_TOL};

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

/// Bisection on `[a, b]`; requires `f(a)` and `f(b)` to have opposite signs.
///
/// Converges unconditionally but linearly. Mostly used as a reference
/// implementation and as the fallback inside [`newton_safeguarded`].
pub fn bisect<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> Result<RootResult> {
    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
    let mut flo = check_finite("bisect f(a)", f(lo))?;
    let fhi = check_finite("bisect f(b)", f(hi))?;
    let mut evals = 2;
    if flo == 0.0 {
        return Ok(RootResult {
            x: lo,
            fx: flo,
            evaluations: evals,
        });
    }
    if fhi == 0.0 {
        return Ok(RootResult {
            x: hi,
            fx: fhi,
            evaluations: evals,
        });
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericsError::NoBracket {
            a: lo,
            b: hi,
            fa: flo,
            fb: fhi,
        });
    }
    #[expect(clippy::explicit_counter_loop, reason = "`evals` counts f-evaluations")]
    for _ in 0..4 * DEFAULT_MAX_ITER {
        let mid = 0.5 * (lo + hi);
        let fmid = check_finite("bisect f(mid)", f(mid))?;
        evals += 1;
        if fmid == 0.0 || (hi - lo) < tol {
            return Ok(RootResult {
                x: mid,
                fx: fmid,
                evaluations: evals,
            });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Err(NumericsError::MaxIterations {
        algorithm: "bisect",
        iterations: 4 * DEFAULT_MAX_ITER,
        residual: hi - lo,
    })
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

/// Safeguarded Newton iteration: Newton steps while they stay inside the
/// current bracket and shrink it, bisection otherwise.
///
/// `f` must return `(f(x), f'(x))`. Requires a sign change on `[a, b]`.
pub fn newton_safeguarded<F: FnMut(f64) -> (f64, f64)>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<RootResult> {
    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
    let (flo, _) = f(lo);
    let (fhi, _) = f(hi);
    let mut evals = 2;
    check_finite("newton f(a)", flo)?;
    check_finite("newton f(b)", fhi)?;
    if flo == 0.0 {
        return Ok(RootResult {
            x: lo,
            fx: flo,
            evaluations: evals,
        });
    }
    if fhi == 0.0 {
        return Ok(RootResult {
            x: hi,
            fx: fhi,
            evaluations: evals,
        });
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericsError::NoBracket {
            a: lo,
            b: hi,
            fa: flo,
            fb: fhi,
        });
    }
    let increasing = fhi > 0.0;
    let mut x = 0.5 * (lo + hi);
    for _ in 0..DEFAULT_MAX_ITER {
        let (fx, dfx) = f(x);
        evals += 1;
        check_finite("newton f(x)", fx)?;
        if fx == 0.0 || (hi - lo) < tol {
            return Ok(RootResult {
                x,
                fx,
                evaluations: evals,
            });
        }
        // Maintain the bracket.
        if (fx > 0.0) == increasing {
            hi = x;
        } else {
            lo = x;
        }
        let newton = x - fx / dfx;
        let next = if dfx.is_finite() && dfx != 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        // Newton can converge while only one bracket side moves (e.g. x^3
        // from a lopsided bracket); accept a sub-tolerance step too.
        if (next - x).abs() < tol {
            let (fx, _) = f(next);
            return Ok(RootResult {
                x: next,
                fx,
                evaluations: evals + 1,
            });
        }
        x = next;
    }
    Err(NumericsError::MaxIterations {
        algorithm: "newton_safeguarded",
        iterations: DEFAULT_MAX_ITER,
        residual: hi - lo,
    })
}

/// Expands `[a, b]` geometrically (within `[min, max]`) until `f` changes
/// sign, then runs Brent's method. Returns `None` if no sign change is
/// found — which callers interpret as "the root lies on the boundary".
pub fn brent_with_expansion<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    min: f64,
    max: f64,
    tol: f64,
) -> Result<Option<RootResult>> {
    let mut lo = a.max(min);
    let mut hi = b.min(max);
    let mut flo = f(lo);
    let mut fhi = f(hi);
    let mut expansions = 0usize;
    while flo.signum() == fhi.signum() && expansions < 64 {
        let width = hi - lo;
        lo = (lo - width).max(min);
        hi = (hi + width).min(max);
        flo = f(lo);
        fhi = f(hi);
        expansions += 1;
        if lo == min && hi == max && flo.signum() == fhi.signum() {
            return Ok(None);
        }
    }
    if flo.signum() == fhi.signum() {
        return Ok(None);
    }
    brent(f, lo, hi, tol).map(Some)
}

/// Convenience wrapper using [`DEFAULT_TOL`].
pub fn brent_default<F: FnMut(f64) -> f64>(f: F, a: f64, b: f64) -> Result<RootResult> {
    brent(f, a, b, DEFAULT_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        let e = bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12).unwrap_err();
        assert!(matches!(e, NumericsError::NoBracket { .. }));
    }

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
    fn newton_safeguarded_quadratic() {
        let r = newton_safeguarded(|x| (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1e-14).unwrap();
        assert!((r.x - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn newton_safeguarded_survives_zero_derivative() {
        // f(x) = x^3 has f'(0) = 0; start bracket symmetric around it.
        let r = newton_safeguarded(|x| (x * x * x, 3.0 * x * x), -1.0, 2.0, 1e-12).unwrap();
        assert!(r.x.abs() < 1e-5);
    }

    #[test]
    fn expansion_finds_root_outside_initial_interval() {
        let r = brent_with_expansion(|x| x - 10.0, 0.0, 1.0, -100.0, 100.0, 1e-12)
            .unwrap()
            .unwrap();
        assert!((r.x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn expansion_returns_none_without_sign_change() {
        let r = brent_with_expansion(|x| x * x + 1.0, 0.0, 1.0, -10.0, 10.0, 1e-12).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn non_finite_is_reported() {
        let e = brent(|x| if x > 0.5 { f64::NAN } else { -1.0 }, 0.0, 1.0, 1e-12).unwrap_err();
        assert!(matches!(e, NumericsError::NonFinite { .. }));
    }
}
