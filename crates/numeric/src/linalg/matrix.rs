//! A dense row-major matrix of `f64`.

use crate::NumericError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense row-major matrix.
///
/// Sized for the workloads of this workspace — covariance matrices of a few
/// hundred design points, polynomial model matrices — not for large-scale
/// numerical computing. Operations validate dimensions and return
/// [`NumericError::DimensionMismatch`] at API boundaries; the arithmetic
/// operators panic, matching std conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create from a row-major `Vec` of length `rows * cols`.
    #[cfg(test)]
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(NumericError::dim(
                "Matrix::from_vec",
                format!("{} elements", rows * cols),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create from nested rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> crate::Result<Self> {
        if rows.is_empty() {
            return Err(NumericError::EmptyInput {
                context: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(NumericError::dim(
                "Matrix::from_rows",
                format!("{cols} columns in every row"),
                "ragged rows".to_string(),
            ));
        }
        let data = rows.iter().flatten().copied().collect();
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data — the entry point for the in-place
    /// kernels in [`crate::linalg::kernels`].
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to a single row.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `A·x`.
    pub fn mul_vec(&self, x: &[f64]) -> crate::Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NumericError::dim(
                "Matrix::mul_vec",
                format!("vector of length {}", self.cols),
                format!("length {}", x.len()),
            ));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Scale every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Maximum absolute entry difference against another matrix of the same
    /// shape (∞-norm of the difference); `None` if shapes differ.
    #[cfg(test)]
    pub(crate) fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition shape mismatch"
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
            "matrix subtraction shape mismatch"
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
        assert_eq!(
            self.cols, rhs.rows,
            "matrix multiplication shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * r;
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn from_rows_validates_raggedness() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_multiplication() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(&m * &i, m);
        assert_eq!(&i * &m, m);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = &a * &b;
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]).unwrap();
        let x = vec![2.0, 1.0, 0.0];
        assert_eq!(a.mul_vec(&x).unwrap(), vec![2.0, 1.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        assert_eq!(sum[(0, 1)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        assert_eq!(a.scale(2.0)[(1, 1)], 8.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![3.0, 5.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b), Some(1.0));
        assert_eq!(a.max_abs_diff(&Matrix::identity(2)), None);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mul_panics_on_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
