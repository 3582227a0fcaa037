//! One-dimensional maximization: golden-section and Brent's parabolic
//! method, plus a grid-then-refine global maximizer.
//!
//! Selfish users in the model choose `r_i` to maximize
//! `U_i(r_i, C_i(r | r_i))` — a scalar maximization over an interval. For
//! the disciplines of interest the objective is strictly concave (Lemma 4),
//! so local maximizers suffice; the grid-refine variant is used when
//! verifying Nash equilibria without concavity assumptions.

use crate::error::NumericsError;
use crate::{Result, DEFAULT_MAX_ITER};

/// Outcome of a scalar maximization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxResult {
    /// Argmax.
    pub x: f64,
    /// Maximum value `f(x)`.
    pub fx: f64,
    /// Number of objective evaluations.
    pub evaluations: usize,
}

const INV_GOLD: f64 = 0.618_033_988_749_894_9; // 1/phi

/// Golden-section search for the maximum of a unimodal `f` on `[a, b]`.
pub fn golden_section_max<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
) -> Result<MaxResult> {
    if a >= b || a.is_nan() || b.is_nan() {
        return Err(NumericsError::InvalidArgument {
            detail: format!("golden_section_max requires a < b, got [{a}, {b}]"),
        });
    }
    let mut lo = a;
    let mut hi = b;
    let mut x1 = hi - INV_GOLD * (hi - lo);
    let mut x2 = lo + INV_GOLD * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    let mut evals = 2;
    for _ in 0..4 * DEFAULT_MAX_ITER {
        if (hi - lo) < tol {
            break;
        }
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INV_GOLD * (hi - lo);
            f2 = f(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INV_GOLD * (hi - lo);
            f1 = f(x1);
        }
        evals += 1;
    }
    let (x, fx) = if f1 >= f2 { (x1, f1) } else { (x2, f2) };
    Ok(MaxResult {
        x,
        fx,
        evaluations: evals,
    })
}

/// Brent's method for maximization on `[a, b]` (parabolic interpolation
/// with golden-section fallback). The standard minimizer applied to `-f`.
pub fn brent_max<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> Result<MaxResult> {
    if a >= b || a.is_nan() || b.is_nan() {
        return Err(NumericsError::InvalidArgument {
            detail: format!("brent_max requires a < b, got [{a}, {b}]"),
        });
    }
    // Brent minimization of g = -f, translated from the classical algorithm.
    let mut g = |x: f64| -f(x);
    let cgold = 1.0 - INV_GOLD; // ~0.381966
    let (mut lo, mut hi) = (a, b);
    let mut x = lo + cgold * (hi - lo);
    let mut w = x;
    let mut v = x;
    let mut fx = g(x);
    let mut fw = fx;
    let mut fv = fx;
    let mut d: f64 = 0.0;
    let mut e: f64 = 0.0;
    let mut evals = 1usize;

    #[expect(
        clippy::explicit_counter_loop,
        reason = "`evals` counts objective calls, not iterations"
    )]
    for _ in 0..4 * DEFAULT_MAX_ITER {
        let xm = 0.5 * (lo + hi);
        let tol1 = tol * x.abs() + 1e-15;
        let tol2 = 2.0 * tol1;
        if (x - xm).abs() <= tol2 - 0.5 * (hi - lo) {
            return Ok(MaxResult {
                x,
                fx: -fx,
                evaluations: evals,
            });
        }
        let mut use_golden = true;
        if e.abs() > tol1 {
            // Parabolic fit through (v, fv), (w, fw), (x, fx).
            let r = (x - w) * (fx - fv);
            let mut q = (x - v) * (fx - fw);
            let mut p = (x - v) * q - (x - w) * r;
            q = 2.0 * (q - r);
            if q > 0.0 {
                p = -p;
            }
            q = q.abs();
            let etemp = e;
            e = d;
            if p.abs() < (0.5 * q * etemp).abs() && p > q * (lo - x) && p < q * (hi - x) {
                d = p / q;
                let u = x + d;
                if (u - lo) < tol2 || (hi - u) < tol2 {
                    d = tol1.copysign(xm - x);
                }
                use_golden = false;
            }
        }
        if use_golden {
            e = if x >= xm { lo - x } else { hi - x };
            d = cgold * e;
        }
        let u = if d.abs() >= tol1 {
            x + d
        } else {
            x + tol1.copysign(d)
        };
        let fu = g(u);
        evals += 1;
        if fu <= fx {
            if u >= x {
                lo = x;
            } else {
                hi = x;
            }
            v = w;
            fv = fw;
            w = x;
            fw = fx;
            x = u;
            fx = fu;
        } else {
            if u < x {
                lo = u;
            } else {
                hi = u;
            }
            if fu <= fw || w == x {
                v = w;
                fv = fw;
                w = u;
                fw = fu;
            } else if fu <= fv || v == x || v == w {
                v = u;
                fv = fu;
            }
        }
    }
    Err(NumericsError::MaxIterations {
        algorithm: "brent_max",
        iterations: 4 * DEFAULT_MAX_ITER,
        residual: hi - lo,
    })
}

/// Global maximization on `[a, b]` without a unimodality assumption:
/// evaluate on a uniform grid of `grid` points, then refine around the best
/// grid point with [`brent_max`].
///
/// Used when *verifying* Nash equilibria (the deviation check must be
/// global) and when the objective may be multimodal (e.g. under exotic
/// allocation functions).
pub fn grid_refine_max<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    grid: usize,
    tol: f64,
) -> Result<MaxResult> {
    if a >= b || a.is_nan() || b.is_nan() {
        return Err(NumericsError::InvalidArgument {
            detail: format!("grid_refine_max requires a < b, got [{a}, {b}]"),
        });
    }
    if grid < 3 {
        return Err(NumericsError::InvalidArgument {
            detail: format!("grid_refine_max requires grid >= 3, got {grid}"),
        });
    }
    let mut best_i = 0usize;
    let mut best_f = f64::NEG_INFINITY;
    let step = (b - a) / (grid - 1) as f64;
    for i in 0..grid {
        let x = a + step * i as f64;
        let v = f(x);
        if v > best_f {
            best_f = v;
            best_i = i;
        }
    }
    let lo = a + step * best_i.saturating_sub(1) as f64;
    let hi = (a + step * (best_i + 1) as f64).min(b);
    let refined = brent_max(&mut f, lo, hi, tol)?;
    let evals = grid + refined.evaluations;
    if refined.fx >= best_f {
        Ok(MaxResult {
            evaluations: evals,
            ..refined
        })
    } else {
        Ok(MaxResult {
            x: a + step * best_i as f64,
            fx: best_f,
            evaluations: evals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_peak() {
        let r = golden_section_max(|x| -(x - 0.3) * (x - 0.3), 0.0, 1.0, 1e-10).unwrap();
        assert!((r.x - 0.3).abs() < 1e-7);
    }

    #[test]
    fn brent_max_finds_parabola_peak() {
        let r = brent_max(|x| 1.0 - (x - 0.3) * (x - 0.3), 0.0, 1.0, 1e-12).unwrap();
        assert!((r.x - 0.3).abs() < 1e-8);
        assert!((r.fx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn brent_max_beats_golden_on_evals() {
        let mut evals_b = 0usize;
        let mut evals_g = 0usize;
        let rb = brent_max(
            |x| {
                evals_b += 1;
                -(x - 0.42).powi(2)
            },
            0.0,
            1.0,
            1e-10,
        )
        .unwrap();
        let rg = golden_section_max(
            |x| {
                evals_g += 1;
                -(x - 0.42).powi(2)
            },
            0.0,
            1.0,
            1e-10,
        )
        .unwrap();
        assert!((rb.x - rg.x).abs() < 1e-6);
        assert!(evals_b <= evals_g);
    }

    #[test]
    fn brent_max_log_utility() {
        // max of ln(x) - 2x at x = 1/2.
        let r = brent_max(|x| x.ln() - 2.0 * x, 1e-9, 1.0, 1e-12).unwrap();
        assert!((r.x - 0.5).abs() < 1e-8);
    }

    #[test]
    fn brent_max_boundary_maximum() {
        // Increasing function: maximum at right endpoint.
        let r = brent_max(|x| x, 0.0, 1.0, 1e-10).unwrap();
        assert!(r.x > 1.0 - 1e-4, "got {}", r.x);
    }

    #[test]
    fn grid_refine_handles_multimodal() {
        // Two peaks: x=0.2 (height 1.0) and x=0.8 (height 1.5). Unimodal
        // methods can get stuck on the first peak; grid-refine must not.
        let f = |x: f64| {
            (-(x - 0.2f64).powi(2) * 400.0).exp() + 1.5 * (-(x - 0.8f64).powi(2) * 400.0).exp()
        };
        let r = grid_refine_max(f, 0.0, 1.0, 101, 1e-10).unwrap();
        assert!((r.x - 0.8).abs() < 1e-4, "got {}", r.x);
    }

    #[test]
    fn invalid_interval_is_rejected() {
        assert!(golden_section_max(|x| x, 1.0, 0.0, 1e-8).is_err());
        assert!(brent_max(|x| x, 1.0, 1.0, 1e-8).is_err());
        assert!(grid_refine_max(|x| x, 0.0, 1.0, 2, 1e-8).is_err());
    }
}
