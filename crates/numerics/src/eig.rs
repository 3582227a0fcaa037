//! Eigenvalue computation for small dense real matrices.
//!
//! Used by the reproduction of Theorem 7 (§4.2.3 of the paper): the
//! linearized Newton self-optimization dynamics are governed by the
//! relaxation matrix `A`, whose spectrum decides stability. The paper's
//! headline numbers — a nilpotent (all-zero spectrum) matrix for Fair
//! Share and a leading eigenvalue of `1 − N` for FIFO with identical
//! linear utilities — are verified against the routines here.
//!
//! Three methods are provided:
//! * [`eigenvalues`] — general real matrices: Householder Hessenberg
//!   reduction followed by the Francis double-shift QR iteration; returns
//!   all (possibly complex) eigenvalues.
//! * [`jacobi_symmetric`] — cyclic Jacobi for symmetric matrices; used as
//!   an independent cross-check in tests.
//! * [`power_iteration`] — dominant eigenvalue estimate for diagnostics.

use crate::error::NumericsError;
use crate::matrix::Matrix;
use crate::Result;

/// A complex number, minimal implementation for eigenvalue output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `|z|`.
    pub fn abs(&self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im == 0.0 {
            write!(f, "{:.6}", self.re)
        } else if self.im > 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// Reduces `a` to upper Hessenberg form by Householder similarity
/// transformations. Eigenvalues are preserved.
pub fn hessenberg(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!(
                "hessenberg requires square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Householder vector annihilating h[k+2.., k].
        let mut alpha = 0.0f64;
        for i in (k + 1)..n {
            alpha += h[(i, k)] * h[(i, k)];
        }
        alpha = alpha.sqrt();
        if alpha == 0.0 {
            continue;
        }
        if h[(k + 1, k)] > 0.0 {
            alpha = -alpha;
        }
        let mut v = vec![0.0; n];
        v[k + 1] = h[(k + 1, k)] - alpha;
        for i in (k + 2)..n {
            v[i] = h[(i, k)];
        }
        let vtv: f64 = v.iter().map(|x| x * x).sum();
        if vtv == 0.0 {
            continue;
        }
        let beta = 2.0 / vtv;
        // h := (I - beta v v^T) h
        for j in 0..n {
            let mut s = 0.0;
            for i in (k + 1)..n {
                s += v[i] * h[(i, j)];
            }
            s *= beta;
            for i in (k + 1)..n {
                h[(i, j)] -= s * v[i];
            }
        }
        // h := h (I - beta v v^T)
        for i in 0..n {
            let mut s = 0.0;
            for j in (k + 1)..n {
                s += h[(i, j)] * v[j];
            }
            s *= beta;
            for j in (k + 1)..n {
                h[(i, j)] -= s * v[j];
            }
        }
        // Clean the column we just annihilated (numerical noise).
        for i in (k + 2)..n {
            h[(i, k)] = 0.0;
        }
    }
    Ok(h)
}

/// All eigenvalues of a real square matrix, via Hessenberg reduction and
/// the Francis double-shift QR iteration (classical `hqr`).
///
/// Results are sorted by decreasing magnitude. Complex eigenvalues appear
/// in conjugate pairs.
///
/// # Errors
/// [`NumericsError::ShapeMismatch`] for non-square input;
/// [`NumericsError::MaxIterations`] if the QR iteration fails to converge
/// (does not happen for the well-scaled matrices in this workspace).
pub fn eigenvalues(a: &Matrix) -> Result<Vec<Complex>> {
    let h = hessenberg(a)?;
    let mut eig = hqr(h)?;
    // `total_cmp` keeps the comparator total (GN07): magnitudes are
    // non-negative, so the ordering is identical to `partial_cmp` on any
    // NaN-free spectrum, and a NaN (instead of corrupting the sort) sorts
    // deterministically last.
    eig.sort_by(|x, y| y.abs().total_cmp(&x.abs()));
    Ok(eig)
}

/// Spectral radius `max |lambda|` of a real square matrix.
///
/// # Errors
/// See [`eigenvalues`].
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    Ok(eigenvalues(a)?.first().map_or(0.0, Complex::abs))
}

/// Francis double-shift QR on an upper Hessenberg matrix (0-indexed port
/// of the classical `hqr` routine).
fn hqr(mut a: Matrix) -> Result<Vec<Complex>> {
    // The classical routine indexes with signed counters (`nn`, `l`, `m`)
    // that the loop guards keep non-negative at every conversion site.
    let iu = crate::conv::isize_to_usize;
    let n = a.rows();
    let mut eig: Vec<Complex> = Vec::with_capacity(n);
    if n == 0 {
        return Ok(eig);
    }

    // anorm: norm over the Hessenberg band.
    let mut anorm = 0.0f64;
    for i in 0..n {
        let j0 = i.saturating_sub(1);
        for j in j0..n {
            anorm += a[(i, j)].abs();
        }
    }
    if anorm == 0.0 {
        return Ok(vec![Complex::real(0.0); n]);
    }

    // A Vec holds at most isize::MAX elements, so `n` never wraps.
    let mut nn = n.cast_signed() - 1; // index of current trailing block end
    let mut t = 0.0f64; // accumulated exceptional shifts
    while nn >= 0 {
        let mut its = 0usize;
        loop {
            // Find l: smallest index such that a[l][l-1] is negligible.
            let mut l = nn;
            while l >= 1 {
                let s = a[(iu(l) - 1, iu(l) - 1)].abs() + a[(iu(l), iu(l))].abs();
                let s = if s == 0.0 { anorm } else { s };
                if a[(iu(l), iu(l) - 1)].abs() + s == s {
                    a[(iu(l), iu(l) - 1)] = 0.0;
                    break;
                }
                l -= 1;
            }
            let x = a[(iu(nn), iu(nn))];
            if l == nn {
                // One real eigenvalue isolated.
                eig.push(Complex::real(x + t));
                nn -= 1;
                break;
            }
            let y = a[(iu(nn) - 1, iu(nn) - 1)];
            let w = a[(iu(nn), iu(nn) - 1)] * a[(iu(nn) - 1, iu(nn))];
            if l == nn - 1 {
                // 2x2 block: a real pair or a complex conjugate pair.
                let p = 0.5 * (y - x);
                let q = p * p + w;
                let z = q.abs().sqrt();
                let x = x + t;
                if q >= 0.0 {
                    let z = p + z.copysign(p);
                    let e1 = x + z;
                    let e2 = if z != 0.0 { x - w / z } else { x + z };
                    eig.push(Complex::real(e1));
                    eig.push(Complex::real(e2));
                } else {
                    eig.push(Complex::new(x + p, z));
                    eig.push(Complex::new(x + p, -z));
                }
                nn -= 2;
                break;
            }
            // QR double step on rows/cols l..=nn.
            if its == 60 {
                return Err(NumericsError::MaxIterations {
                    algorithm: "hqr",
                    iterations: 60,
                    residual: a[(iu(nn), iu(nn) - 1)].abs(),
                });
            }
            let (mut x, mut y, mut w) = (x, y, w);
            if its == 10 || its == 20 || its == 30 || its == 40 || its == 50 {
                // Exceptional shift.
                t += x;
                for i in 0..=iu(nn) {
                    a[(i, i)] -= x;
                }
                let s = a[(iu(nn), iu(nn) - 1)].abs() + a[(iu(nn) - 1, iu(nn) - 2)].abs();
                x = 0.75 * s;
                y = x;
                w = -0.4375 * s * s;
            }
            its += 1;

            // Look for two consecutive small subdiagonal elements.
            let mut m = nn - 2;
            let (mut p, mut q, mut r) = (0.0f64, 0.0f64, 0.0f64);
            while m >= l {
                let mu = iu(m);
                let z = a[(mu, mu)];
                let rr = x - z;
                let ss = y - z;
                p = (rr * ss - w) / a[(mu + 1, mu)] + a[(mu, mu + 1)];
                q = a[(mu + 1, mu + 1)] - z - rr - ss;
                r = a[(mu + 2, mu + 1)];
                let s = p.abs() + q.abs() + r.abs();
                p /= s;
                q /= s;
                r /= s;
                if m == l {
                    break;
                }
                let u = a[(mu, mu - 1)].abs() * (q.abs() + r.abs());
                let v = p.abs() * (a[(mu - 1, mu - 1)].abs() + z.abs() + a[(mu + 1, mu + 1)].abs());
                if u + v == v {
                    break;
                }
                m -= 1;
            }
            let m = iu(m.max(l));
            let nnu = iu(nn);
            let lu = iu(l);
            for i in (m + 2)..=nnu {
                a[(i, i - 2)] = 0.0;
                if i != m + 2 {
                    a[(i, i - 3)] = 0.0;
                }
            }
            for k in m..nnu {
                if k != m {
                    p = a[(k, k - 1)];
                    q = a[(k + 1, k - 1)];
                    r = if k != nnu - 1 { a[(k + 2, k - 1)] } else { 0.0 };
                    x = p.abs() + q.abs() + r.abs();
                    if x != 0.0 {
                        p /= x;
                        q /= x;
                        r /= x;
                    }
                }
                let s = (p * p + q * q + r * r).sqrt().copysign(p);
                if s == 0.0 {
                    continue;
                }
                if k == m {
                    if lu != m {
                        a[(k, k - 1)] = -a[(k, k - 1)];
                    }
                } else {
                    a[(k, k - 1)] = -s * x;
                }
                p += s;
                x = p / s;
                y = q / s;
                let z = r / s;
                q /= p;
                r /= p;
                // Row modification.
                for j in k..=nnu {
                    let mut pp = a[(k, j)] + q * a[(k + 1, j)];
                    if k != nnu - 1 {
                        pp += r * a[(k + 2, j)];
                        a[(k + 2, j)] -= pp * z;
                    }
                    a[(k + 1, j)] -= pp * y;
                    a[(k, j)] -= pp * x;
                }
                // Column modification.
                let mmin = nnu.min(k + 3);
                for i in lu..=mmin {
                    let mut pp = x * a[(i, k)] + y * a[(i, k + 1)];
                    if k != nnu - 1 {
                        pp += z * a[(i, k + 2)];
                        a[(i, k + 2)] -= pp * r;
                    }
                    a[(i, k + 1)] -= pp * q;
                    a[(i, k)] -= pp;
                }
            }
        }
    }
    Ok(eig)
}

/// Eigenvalues of a symmetric matrix by the cyclic Jacobi method.
/// Returns eigenvalues sorted by decreasing magnitude.
///
/// # Errors
/// [`NumericsError::ShapeMismatch`] for non-square input;
/// [`NumericsError::InvalidArgument`] if the matrix is not symmetric to
/// tolerance `1e-9 * max|a_ij|`.
pub fn jacobi_symmetric(a: &Matrix) -> Result<Vec<f64>> {
    if !a.is_square() {
        return Err(NumericsError::ShapeMismatch {
            detail: format!(
                "jacobi requires square matrix, got {}x{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    let n = a.rows();
    let scale = a.max_abs().max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > 1e-9 * scale {
                return Err(NumericsError::InvalidArgument {
                    detail: format!("matrix is not symmetric at ({i},{j})"),
                });
            }
        }
    }
    let mut m = a.clone();
    for _sweep in 0..100 {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-13 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
            }
        }
    }
    let mut eig: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
    eig.sort_by(|x, y| y.abs().total_cmp(&x.abs()));
    Ok(eig)
}

/// Dominant-eigenvalue estimate by power iteration with a deterministic
/// start vector. Returns `(lambda, iterations)`. Only reliable when the
/// dominant eigenvalue is real, simple and strictly largest in magnitude;
/// used as a diagnostic cross-check.
///
/// # Errors
/// [`NumericsError::ShapeMismatch`] for non-square input.
pub fn power_iteration(a: &Matrix, max_iter: usize, tol: f64) -> Result<(f64, usize)> {
    if !a.is_square() {
        return Err(NumericsError::ShapeMismatch {
            detail: "power_iteration requires square matrix".to_string(),
        });
    }
    let n = a.rows();
    // Deterministic, non-degenerate start.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.618).collect();
    let norm = |x: &[f64]| x.iter().map(|y| y * y).sum::<f64>().sqrt();
    let nv = norm(&v);
    v.iter_mut().for_each(|x| *x /= nv);
    let mut lambda = 0.0;
    for it in 0..max_iter {
        let w = a.mul_vec(&v)?;
        let nw = norm(&w);
        if nw == 0.0 {
            return Ok((0.0, it));
        }
        // Rayleigh quotient sign handling.
        let dot: f64 = w.iter().zip(&v).map(|(x, y)| x * y).sum();
        let new_lambda = dot;
        v = w.into_iter().map(|x| x / nw).collect();
        if (new_lambda - lambda).abs() < tol * (1.0 + new_lambda.abs()) && it > 2 {
            return Ok((new_lambda, it));
        }
        lambda = new_lambda;
    }
    Ok((lambda, max_iter))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn hessenberg_preserves_trace_and_shape() {
        let a = mat(&[
            &[4.0, 1.0, 2.0, 3.0],
            &[1.0, 3.0, 0.0, 1.0],
            &[2.0, 0.0, 2.0, 5.0],
            &[3.0, 1.0, 5.0, 1.0],
        ]);
        let h = hessenberg(&a).unwrap();
        let tr_a: f64 = (0..4).map(|i| a[(i, i)]).sum();
        let tr_h: f64 = (0..4).map(|i| h[(i, i)]).sum();
        assert_close(tr_a, tr_h, 1e-10);
        for i in 0..4usize {
            for j in 0..i.saturating_sub(1) {
                assert_eq!(h[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn eigenvalues_diagonal() {
        let a = mat(&[&[3.0, 0.0], &[0.0, -5.0]]);
        let e = eigenvalues(&a).unwrap();
        assert_close(e[0].re, -5.0, 1e-10);
        assert_close(e[1].re, 3.0, 1e-10);
    }

    #[test]
    fn eigenvalues_rotation_complex_pair() {
        // 90-degree rotation: eigenvalues +/- i.
        let a = mat(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let e = eigenvalues(&a).unwrap();
        assert_close(e[0].re, 0.0, 1e-10);
        assert_close(e[0].im.abs(), 1.0, 1e-10);
        assert_close(e[1].im, -e[0].im, 1e-10);
    }

    #[test]
    fn eigenvalues_companion_cubic() {
        // Companion matrix of x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3).
        let a = mat(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let mut e: Vec<f64> = eigenvalues(&a).unwrap().iter().map(|z| z.re).collect();
        e.sort_by(f64::total_cmp);
        assert_close(e[0], 1.0, 1e-8);
        assert_close(e[1], 2.0, 1e-8);
        assert_close(e[2], 3.0, 1e-8);
        for z in eigenvalues(&a).unwrap() {
            assert!(z.im.abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalues_rank_one_ones_matrix() {
        // J (all ones, n=5): eigenvalues {5, 0, 0, 0, 0}. This is the
        // structure behind the FIFO `1 - N` eigenvalue in Theorem 7.
        let n = 5;
        let a = Matrix::from_fn(n, n, |_, _| 1.0);
        let e = eigenvalues(&a).unwrap();
        assert_close(e[0].re, 5.0, 1e-9);
        for z in &e[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn eigenvalues_j_minus_i_structure() {
        // a(J - I): eigenvalues a(n-1) once and -a (n-1 times). For the
        // paper's FIFO example the relaxation matrix has this shape.
        let n = 6;
        let a_coef = -1.0;
        let a = Matrix::from_fn(n, n, |i, j| if i == j { 0.0 } else { a_coef });
        let e = eigenvalues(&a).unwrap();
        assert_close(e[0].re, a_coef * (n as f64 - 1.0), 1e-9);
        for z in &e[1..] {
            assert_close(z.re, 1.0, 1e-9);
        }
    }

    #[test]
    fn eigenvalues_match_jacobi_on_symmetric() {
        let a = mat(&[
            &[2.0, -1.0, 0.0, 0.3],
            &[-1.0, 2.0, -1.0, 0.0],
            &[0.0, -1.0, 2.0, -1.0],
            &[0.3, 0.0, -1.0, 2.0],
        ]);
        let mut qr: Vec<f64> = eigenvalues(&a).unwrap().iter().map(|z| z.re).collect();
        let mut jc = jacobi_symmetric(&a).unwrap();
        qr.sort_by(f64::total_cmp);
        jc.sort_by(f64::total_cmp);
        for (u, v) in qr.iter().zip(&jc) {
            assert_close(*u, *v, 1e-8);
        }
    }

    #[test]
    fn jacobi_rejects_asymmetric() {
        let a = mat(&[&[1.0, 2.0], &[0.0, 1.0]]);
        assert!(jacobi_symmetric(&a).is_err());
    }

    #[test]
    fn spectral_radius_strictly_triangular_is_zero() {
        // A nilpotent (defective) matrix: all eigenvalues are 0, but QR can
        // only resolve a defective zero of multiplicity m to O(eps^(1/m)).
        let a = mat(&[&[0.0, 0.0, 0.0], &[2.0, 0.0, 0.0], &[1.0, 3.0, 0.0]]);
        assert!(spectral_radius(&a).unwrap() < 1e-4);
    }

    #[test]
    fn power_iteration_dominant() {
        let a = mat(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (l, _) = power_iteration(&a, 500, 1e-12).unwrap();
        assert_close(l, 3.0, 1e-8);
    }

    #[test]
    fn eigenvalues_random_matrix_trace_identity() {
        // Sum of eigenvalues equals the trace (all matrices).
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [2usize, 3, 5, 8, 12] {
            let a = Matrix::from_fn(n, n, |_, _| next());
            let e = eigenvalues(&a).unwrap();
            let sum_re: f64 = e.iter().map(|z| z.re).sum();
            let sum_im: f64 = e.iter().map(|z| z.im).sum();
            let tr: f64 = (0..n).map(|i| a[(i, i)]).sum();
            assert_close(sum_re, tr, 1e-7);
            assert!(sum_im.abs() < 1e-7);
        }
    }

    #[test]
    fn eigenvalues_det_identity() {
        // Product of eigenvalues equals the determinant (real 3x3 case).
        let a = mat(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 1.0], &[1.0, 0.0, 4.0]]);
        let e = eigenvalues(&a).unwrap();
        // Complex product.
        let (mut pr, mut pi) = (1.0f64, 0.0f64);
        for z in &e {
            let nr = pr * z.re - pi * z.im;
            let ni = pr * z.im + pi * z.re;
            pr = nr;
            pi = ni;
        }
        let d = crate::lu::det(&a).unwrap();
        assert_close(pr, d, 1e-7);
        assert!(pi.abs() < 1e-7);
    }

    #[test]
    fn complex_display() {
        assert_eq!(Complex::real(1.5).to_string(), "1.500000");
        assert!(Complex::new(1.0, -2.0).to_string().contains("-2.000000i"));
        assert!(Complex::new(1.0, 2.0).to_string().contains("+2.000000i"));
    }
}
