//! Dense row-major `f64` matrices with the small set of operations the
//! workspace needs: arithmetic, norms, transpose, matrix powers, and
//! structural predicates (triangularity, nilpotency by direct powering).

use crate::error::NumericsError;
use crate::Result;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericsError::ShapeMismatch {
                detail: format!(
                    "expected {} elements for {rows}x{cols}, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices (mostly for tests).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        if rows.iter().any(|row| row.len() != c) {
            return Err(NumericsError::ShapeMismatch {
                detail: "ragged rows".to_string(),
            });
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data: rows.concat(),
        })
    }

    /// Builds an `n x n` matrix from an element function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] on a length mismatch.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericsError::ShapeMismatch {
                detail: format!(
                    "mul_vec: matrix has {} cols, vector has {}",
                    self.cols,
                    x.len()
                ),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `A^k` by repeated squaring. Requires a square matrix.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] for non-square matrices.
    pub fn pow(&self, mut k: u32) -> Result<Matrix> {
        if !self.is_square() {
            return Err(NumericsError::ShapeMismatch {
                detail: "pow requires a square matrix".into(),
            });
        }
        let mut result = Matrix::identity(self.rows);
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = &result * &base;
            }
            base = &base * &base;
            k >>= 1;
        }
        Ok(result)
    }

    /// True if `A` is (numerically) strictly lower triangular under the
    /// given row/column permutation `perm` — i.e. `|A[perm(i), perm(j)]| <=
    /// tol` whenever `j >= i`. This is the triangularity structure the Fair
    /// Share allocation induces on `∂C_i/∂r_j` when users are sorted by
    /// rate (§3.1 of the paper).
    pub fn is_strictly_lower_triangular_under(&self, perm: &[usize], tol: f64) -> bool {
        if !self.is_square() || perm.len() != self.rows {
            return false;
        }
        for i in 0..self.rows {
            for j in i..self.rows {
                if self[(perm[i], perm[j])].abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// True if `A^n` (n = dimension) is numerically zero — the nilpotency
    /// criterion of Theorem 7.
    ///
    /// # Errors
    /// Returns [`NumericsError::ShapeMismatch`] for non-square matrices.
    pub fn is_nilpotent(&self, tol: f64) -> Result<bool> {
        let out_of_range = |_| NumericsError::ShapeMismatch {
            detail: format!("matrix dimension {} exceeds u32 range", self.rows),
        };
        let n = u32::try_from(self.rows).map_err(out_of_range)?;
        let exp = i32::try_from(self.rows).map_err(out_of_range)?;
        let p = self.pow(n)?;
        Ok(p.max_abs() <= tol * (1.0 + self.max_abs().powi(exp)))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix add shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix sub shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix mul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|v| format!("{v:>12.6}")).collect();
            writeln!(f, "[{}]", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn mul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = &a * &b;
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[-1.0, 0.0]]).unwrap();
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn mul_vec_works() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-1.0, 0.0]]).unwrap();
        let a4 = a.pow(4).unwrap();
        assert!((&a4 - &Matrix::identity(2)).max_abs() < 1e-12);
        assert_eq!(a.pow(0).unwrap(), Matrix::identity(2));
    }

    #[test]
    fn nilpotent_detection() {
        let n = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[0.0, 0.0, 3.0], &[0.0, 0.0, 0.0]]).unwrap();
        assert!(n.is_nilpotent(1e-12).unwrap());
        let m = Matrix::identity(3);
        assert!(!m.is_nilpotent(1e-12).unwrap());
    }

    #[test]
    fn strict_lower_triangular_under_permutation() {
        // Strictly lower triangular after swapping indices 0 and 1.
        let a = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[5.0, 0.0, 0.0], &[1.0, 2.0, 0.0]]).unwrap();
        assert!(a.is_strictly_lower_triangular_under(&[0, 1, 2], 1e-12));
        let b = Matrix::from_rows(&[&[0.0, 5.0, 0.0], &[0.0, 0.0, 0.0], &[2.0, 1.0, 0.0]]).unwrap();
        assert!(!b.is_strictly_lower_triangular_under(&[0, 1, 2], 1e-12));
        assert!(b.is_strictly_lower_triangular_under(&[1, 0, 2], 1e-12));
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.inf_norm(), 7.0);
    }

    #[test]
    fn from_vec_shape_check() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn display_renders_rows() {
        let a = Matrix::identity(2);
        let s = format!("{a}");
        assert_eq!(s.lines().count(), 2);
    }
}
