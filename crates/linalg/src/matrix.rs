//! Row-major dense matrix with the operations the clustering pipeline needs.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// Dimensions in this workspace are small (projected subspaces of at most a
/// few dozen attributes), so no blocking or SIMD heroics are attempted;
/// clarity and correctness win.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data length mismatch");
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Diagonal matrix with the given entries.
    pub fn diag(entries: &[f64]) -> Self {
        let mut m = Self::zeros(entries.len(), entries.len());
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows)
            .map(|i| crate::vector::dot(self.row(i), v))
            .collect()
    }

    /// Adds `lambda` to every diagonal entry (ridge regularization).
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Whether the matrix is square and symmetric up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Inverse via Gauss–Jordan elimination with partial pivoting.
    ///
    /// Returns `None` for singular (or non-square) matrices. Covariance
    /// matrices should prefer [`crate::Cholesky`]; this generic routine
    /// exists for the odd non-PSD case and for testing.
    pub fn inverse(&self) -> Option<Matrix> {
        if self.rows != self.cols {
            return None;
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot: pick the largest |entry| at or below the diagonal.
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)].abs() < 1e-300 {
                return None;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= p;
                inv[(col, j)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= f * a[(col, j)];
                    inv[(r, j)] -= f * inv[(col, j)];
                }
            }
        }
        Some(inv)
    }

    /// Determinant via LU decomposition with partial pivoting.
    pub fn determinant(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = 1.0;
        for col in 0..n {
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[(r, col)].abs() > a[(pivot, col)].abs() {
                    pivot = r;
                }
            }
            if a[(pivot, col)] == 0.0 {
                return 0.0;
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                det = -det;
            }
            det *= a[(col, col)];
            for r in (col + 1)..n {
                let f = a[(r, col)] / a[(col, col)];
                for j in col..n {
                    a[(r, j)] -= f * a[(col, j)];
                }
            }
        }
        det
    }

    fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        for col in 0..self.cols {
            self.data.swap(i * self.cols + col, j * self.cols + col);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|x| x * s).collect(),
        )
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6}", self[(i, j)])?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
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
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let expected = Matrix::from_rows(&[&[0.6, -0.7], &[-0.2, 0.4]]);
        for i in 0..2 {
            for j in 0..2 {
                assert!((inv[(i, j)] - expected[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod[(i, j)] - id[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
        assert_eq!(a.determinant(), 0.0);
    }

    #[test]
    fn determinant_of_triangular_is_diag_product() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 5.0], &[0.0, 3.0, -1.0], &[0.0, 0.0, 4.0]]);
        assert!((a.determinant() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_flips_under_row_swap() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((a.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn ridge_changes_only_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 5.0;
        a.add_ridge(0.5);
        assert_eq!(a[(0, 0)], 0.5);
        assert_eq!(a[(1, 1)], 0.5);
        assert_eq!(a[(0, 1)], 5.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]);
        let ns = Matrix::from_rows(&[&[1.0, 2.0], &[2.5, 3.0]]);
        assert!(s.is_symmetric(1e-12));
        assert!(!ns.is_symmetric(1e-12));
    }

    #[test]
    fn add_and_sub_are_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!((&a + &b).data(), &[11.0, 22.0]);
        assert_eq!((&b - &a).data(), &[9.0, 18.0]);
    }

    #[test]
    fn scalar_multiplication() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!((&a * 3.0).data(), &[3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "shape/data length mismatch")]
    fn from_vec_validates_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
