//! Small dense matrices for the least-squares solvers.
//!
//! The regression problems in this workspace are tiny (2–4 regressors, tens
//! of observations), so a straightforward row-major `Vec<f64>` matrix with
//! a Cholesky solve for the normal equations is both simpler and faster
//! than pulling in a linear-algebra dependency.

use crate::error::StatsError;

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows; every row must have the same length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(StatsError::DimensionMismatch {
                context: "from_rows: ragged input",
            });
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
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

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != rhs.rows {
            return Err(StatsError::DimensionMismatch {
                context: "mul: inner dimensions differ",
            });
        }
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
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, StatsError> {
        if self.cols != v.len() {
            return Err(StatsError::DimensionMismatch {
                context: "mul_vec: vector length differs from cols",
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Solves `self * x = b` for symmetric positive-definite `self` via
    /// Cholesky decomposition. This is the normal-equations path of the
    /// least-squares fits.
    pub fn cholesky_solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        let n = self.rows;
        if self.cols != n {
            return Err(StatsError::DimensionMismatch {
                context: "cholesky_solve: matrix not square",
            });
        }
        if b.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "cholesky_solve: rhs length differs",
            });
        }
        // L lower-triangular with self = L Lᵀ.
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(StatsError::SingularMatrix);
                    }
                    l[i * n + i] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        // Forward substitution: L y = b.
        let mut y = vec![0.0f64; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * y[k];
            }
            y[i] = sum / l[i * n + i];
        }
        // Back substitution: Lᵀ x = y.
        let mut x = vec![0.0f64; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let id = Matrix::identity(2);
        assert_eq!(id.mul(&m).unwrap(), m);
        assert_eq!(m.mul(&id).unwrap(), m);
    }

    #[test]
    fn transpose_twice_roundtrips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = m.mul_vec(&[5.0, 6.0]).unwrap();
        assert!(approx(&v, &[17.0, 39.0], 1e-12));
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // SPD matrix built as AᵀA + I.
        let m = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let x = m.cholesky_solve(&[10.0, 8.0]).unwrap();
        let back = m.mul_vec(&x).unwrap();
        assert!(approx(&back, &[10.0, 8.0], 1e-10));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert_eq!(
            m.cholesky_solve(&[1.0, 1.0]),
            Err(StatsError::SingularMatrix)
        );
    }

    #[test]
    fn mul_dimension_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn ragged_rows_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }
}
