//! Row-major dense matrix.

use crate::error::LinalgError;
use crate::Result;
use std::fmt;

/// A row-major dense `f64` matrix.
///
/// Used for small problems only (exact commute times on graphs with a few
/// thousand nodes, eigenmap embeddings, toy examples); large graphs go
/// through [`crate::sparse::CsrMatrix`].
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a generator function `f(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Build from row-major data; errors if `data.len() != nrows*ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(LinalgError::InvalidInput(format!(
                "expected {} entries for a {}x{} matrix, got {}",
                nrows * ncols,
                nrows,
                ncols,
                data.len()
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Build a square matrix from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        if rows.iter().any(|r| r.len() != ncols) {
            return Err(LinalgError::InvalidInput("ragged rows".into()));
        }
        let data = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Entry accessor (panics when out of bounds, like slice indexing).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Entry mutator (panics when out of bounds).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Add `v` to entry `(i, j)`.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] += v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Copy column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.nrows).map(|i| self.get(i, j)).collect()
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "dense matvec",
                expected: (self.ncols, 1),
                found: (x.len(), 1),
            });
        }
        Ok((0..self.nrows)
            .map(|i| crate::dense::vecops::dot(self.row(i), x))
            .collect())
    }

    /// Matrix product `A B`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.ncols != other.nrows {
            return Err(LinalgError::DimensionMismatch {
                op: "dense matmul",
                expected: (self.ncols, self.ncols),
                found: (other.nrows, other.ncols),
            });
        }
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(orow) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Transpose copy.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.ncols, self.nrows, |i, j| self.get(j, i))
    }

    /// `‖A − B‖∞` over entries; errors on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f64> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                expected: (self.nrows, self.ncols),
                found: (other.nrows, other.ncols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs())))
    }

    /// True when `‖A − Aᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Replace `A` with `(A + Aᵀ)/2`.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for i in 0..self.nrows {
            for j in (i + 1)..self.ncols {
                let v = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, v);
                self.set(j, i, v);
            }
        }
    }

    /// Subtract `s` from every lower-triangle entry (diagonal included)
    /// and copy each result to its transposed position, leaving `A`
    /// exactly symmetric; the upper triangle's old values are never read.
    /// `s = 0.0` keeps the lower triangle's bits. The walk goes in
    /// square tiles, so the column-order writes stay in cache.
    pub(crate) fn mirror_lower_minus(&mut self, s: f64) {
        assert!(self.is_square(), "mirror requires a square matrix");
        const TILE: usize = 32;
        let n = self.nrows;
        let x = &mut self.data;
        for ib in (0..n).step_by(TILE) {
            for jb in (0..=ib).step_by(TILE) {
                for i in ib..n.min(ib + TILE) {
                    for j in jb..(i + 1).min(jb + TILE) {
                        let v = x[i * n + j] - s;
                        x[i * n + j] = v;
                        x[j * n + i] = v;
                    }
                }
            }
        }
    }

    /// Entry-wise sum `A + B`.
    pub fn add(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "dense add",
                expected: (self.nrows, self.ncols),
                found: (other.nrows, other.ncols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(DenseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        })
    }

    /// Entry-wise scale `c·A` in place.
    pub fn scale(&mut self, c: f64) {
        for v in &mut self.data {
            *v *= c;
        }
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "..." } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.nrows(), 2);
        assert_eq!(z.ncols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_known() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[4.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let at = a.transpose();
        assert_eq!(at.nrows(), 3);
        assert_eq!(at.get(2, 1), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn symmetry_check_and_symmetrize() {
        let mut a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        a.symmetrize();
        assert!(a.is_symmetric(1e-12));
        assert_eq!(a.get(0, 1), 3.0);
    }

    #[test]
    fn add_and_scale() {
        let a = DenseMatrix::identity(2);
        let mut b = a.add(&a).unwrap();
        assert_eq!(b.get(0, 0), 2.0);
        b.scale(0.5);
        assert_eq!(b.get(0, 0), 1.0);
    }

    #[test]
    fn col_extracts_column() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn max_abs_diff_shapes() {
        let a = DenseMatrix::identity(2);
        let b = DenseMatrix::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
        assert!(a.max_abs_diff(&DenseMatrix::zeros(3, 3)).is_err());
    }
}
