//! Dense row-major matrix type used throughout the statistics substrate.
//!
//! The modeling workloads in TRACON are small (design matrices of a few
//! hundred rows and at most ~45 columns for the quadratic basis), so a
//! simple contiguous `Vec<f64>` representation with explicit loops is both
//! fast enough and easy to audit. All higher-level routines (QR, Cholesky,
//! eigen decomposition, PCA, OLS, Gauss-Newton) are built on this type.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
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

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
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

    /// Builds a matrix from a vector of rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        assert!(cols > 0, "cannot build a matrix with zero columns");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop walking contiguous memory in
        // both `rhs` and `out`.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Computes `self^T * self` (the Gram matrix), exploiting symmetry.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += a * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Computes `self^T * v` for a vector with `rows` entries.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &w) in v.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * w;
            }
        }
        out
    }

    /// Returns a new matrix keeping only the listed columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
                out[(r, j)] = self[(r, c)];
            }
        }
        out
    }

    /// Scales every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Elementwise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(10) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(10) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 10 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_ragged_panics() {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert!(c.approx_eq(
            &Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]),
            1e-12
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, -2.5, 3.0], vec![0.0, 4.0, 9.5]]);
        let i = Matrix::identity(3);
        assert!(a.matmul(&i).approx_eq(&a, 0.0));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = vec![2.0, -1.0];
        let got = a.matvec(&v);
        let want = a.matmul(&Matrix::from_rows(&[vec![2.0], vec![-1.0]]));
        for (i, g) in got.iter().enumerate() {
            assert!((g - want[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn t_matvec_matches_explicit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = vec![1.0, -2.0, 0.5];
        let got = a.t_matvec(&v);
        let want = a.transpose().matvec(&v);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn select_columns_keeps_the_listed_order() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let c = m.select_columns(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert_eq!(c.row(1), &[6.0, 4.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert!((&a + &b).approx_eq(&Matrix::from_rows(&[vec![4.0, 7.0]]), 0.0));
        assert!((&b - &a).approx_eq(&Matrix::from_rows(&[vec![2.0, 3.0]]), 0.0));
        let mut c = a.clone();
        c.scale_in_place(-2.0);
        assert!(c.approx_eq(&Matrix::from_rows(&[vec![-2.0, -4.0]]), 0.0));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m[(1, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
