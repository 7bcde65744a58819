//! Compressed sparse row matrix.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::Result;

/// Compressed-sparse-row `f64` matrix with `u32` column indices.
///
/// Within each row the column indices are strictly increasing, which makes
/// `get` a binary search and row merges linear. Explicit zeros are never
/// stored: construction drops them, so `nnz` counts structurally non-zero
/// entries only.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from triplets, summing duplicates and dropping zeros.
    ///
    /// This is the single CSR constructor; [`crate::sparse::CooMatrix`]
    /// delegates here. Runs in `O(nnz + n)` using a counting sort by row,
    /// then per-row sorts by column.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        // Count entries per row.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        // Scatter into row buckets.
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[r as usize];
            cols[slot] = c;
            vals[slot] = v;
            next[r as usize] += 1;
        }
        // Sort each row by column and compact duplicates / zeros.
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut out_cols = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            scratch.clear();
            scratch.extend(
                cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut sum = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    sum += scratch[i].1;
                    i += 1;
                }
                if sum != 0.0 {
                    out_cols.push(c);
                    out_vals.push(sum);
                }
            }
            row_ptr[r + 1] = out_cols.len();
        }
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx: out_cols,
            values: out_vals,
        }
    }

    /// Build from a dense matrix, keeping entries with `|a_ij| > threshold`.
    pub fn from_dense(a: &DenseMatrix, threshold: f64) -> Self {
        let mut triplets = Vec::new();
        for i in 0..a.nrows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v.abs() > threshold {
                    triplets.push((i as u32, j as u32, v));
                }
            }
        }
        Self::from_triplets(a.nrows(), a.ncols(), &triplets)
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

    /// Number of stored (non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry lookup by binary search within the row; 0.0 when absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterate all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Iterate the strictly-upper-triangular stored entries; for a
    /// symmetric matrix these enumerate each undirected edge once.
    pub fn iter_upper(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.iter().filter(|&(i, j, _)| j > i)
    }

    /// `y ← A x` (allocating).
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.nrows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// `y ← A x` into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols || y.len() != self.nrows {
            return Err(LinalgError::DimensionMismatch {
                op: "csr matvec",
                expected: (self.nrows, self.ncols),
                found: (y.len(), x.len()),
            });
        }
        cad_obs::count(cad_obs::Counter::Spmv, 1);
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c as usize];
            }
            *yi = acc;
        }
        Ok(())
    }

    /// Transpose copy (counting sort over columns, `O(nnz + n)`).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize];
                col_idx[slot] = i as u32;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        row_ptr.push(self.nnz());
        row_ptr.truncate(self.ncols + 1);
        row_ptr[self.ncols] = self.nnz();
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// True when `‖A − Aᵀ‖∞ ≤ tol` over stored entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        self.iter()
            .all(|(i, j, v)| (self.get(j, i) - v).abs() <= tol)
    }

    /// Diagonal as a dense vector.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Row sums (for a symmetric adjacency matrix: weighted degrees).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| self.row(i).1.iter().sum())
            .collect()
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Entry-wise linear combination `α·A + β·B` (same shapes required).
    ///
    /// Linear-time two-pointer merge over rows; the workhorse of the
    /// adjacency-difference scores (`ΔE` needs `A_{t+1} − A_t`).
    pub fn linear_combination(
        &self,
        alpha: f64,
        other: &CsrMatrix,
        beta: f64,
    ) -> Result<CsrMatrix> {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return Err(LinalgError::DimensionMismatch {
                op: "csr linear_combination",
                expected: (self.nrows, self.ncols),
                found: (other.nrows, other.ncols),
            });
        }
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        for i in 0..self.nrows {
            let (ac, av) = self.row(i);
            let (bc, bv) = other.row(i);
            let (mut p, mut q) = (0, 0);
            while p < ac.len() || q < bc.len() {
                let (c, v) = if q >= bc.len() || (p < ac.len() && ac[p] < bc[q]) {
                    let out = (ac[p], alpha * av[p]);
                    p += 1;
                    out
                } else if p >= ac.len() || bc[q] < ac[p] {
                    let out = (bc[q], beta * bv[q]);
                    q += 1;
                    out
                } else {
                    let out = (ac[p], alpha * av[p] + beta * bv[q]);
                    p += 1;
                    q += 1;
                    out
                };
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        Ok(CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Apply `f` to every stored value (keeps the pattern, drops new zeros).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CsrMatrix {
        let triplets: Vec<(u32, u32, f64)> = self
            .iter()
            .map(|(i, j, v)| (i as u32, j as u32, f(v)))
            .collect();
        CsrMatrix::from_triplets(self.nrows, self.ncols, &triplets)
    }

    /// Densify (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            m.set(i, j, v);
        }
        m
    }

    /// Estimated heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [[0, 2, 0], [2, 0, 3], [0, 3, 1]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 2.0),
                (1, 0, 2.0),
                (1, 2, 3.0),
                (2, 1, 3.0),
                (2, 2, 1.0),
            ],
        )
    }

    #[test]
    fn construction_sorted_and_deduped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 0, 2.0), (0, 1, 1.0)]);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[2.0, 2.0]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn get_present_and_absent() {
        let m = sample();
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = vec![1.0, -1.0, 2.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn matvec_checks_dims() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_of_symmetric_is_identity() {
        let m = sample();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 5.0), (1, 0, 1.0)]);
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 1.0);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    fn diagonal_and_row_sums() {
        let m = sample();
        assert_eq!(m.diagonal(), vec![0.0, 0.0, 1.0]);
        assert_eq!(m.row_sums(), vec![2.0, 5.0, 4.0]);
        assert_eq!(m.sum(), 11.0);
    }

    #[test]
    fn linear_combination_difference() {
        let a = sample();
        let b = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (1, 0, 2.0), (0, 2, 7.0)]);
        let d = b.linear_combination(1.0, &a, -1.0).unwrap();
        // (0,1) cancels; (0,2) from b; a's (1,2),(2,1),(2,2) negated.
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(d.get(0, 2), 7.0);
        assert_eq!(d.get(1, 2), -3.0);
        assert_eq!(d.get(2, 2), -1.0);
        // Surviving entries: (0,2), (1,2), (2,1), (2,2).
        assert_eq!(d.nnz(), 4);
    }

    #[test]
    fn map_values_drops_new_zeros() {
        let m = sample();
        let z = m.map_values(|v| if v == 3.0 { 0.0 } else { v });
        assert_eq!(z.nnz(), m.nnz() - 2);
    }

    #[test]
    fn from_dense_thresholds() {
        let d = DenseMatrix::from_rows(&[&[0.5, 0.0], &[1e-9, 2.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 1e-6);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 0), 0.5);
        assert_eq!(s.get(1, 1), 2.0);
    }

    #[test]
    fn iter_upper_enumerates_edges_once() {
        let m = sample();
        let edges: Vec<_> = m.iter_upper().collect();
        assert_eq!(edges, vec![(0, 1, 2.0), (1, 2, 3.0)]);
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = CsrMatrix::zeros(4, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.matvec(&[1.0; 4]).unwrap(), vec![0.0; 4]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_dense(n in 1usize..8, entries in proptest::collection::vec((0u32..8, 0u32..8, -10.0f64..10.0), 0..30)) {
            let tri: Vec<_> = entries.into_iter()
                .filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n)
                .collect();
            let m = CsrMatrix::from_triplets(n, n, &tri);
            let d = m.to_dense();
            let back = CsrMatrix::from_dense(&d, 0.0);
            prop_assert_eq!(m, back);
        }

        #[test]
        fn prop_transpose_involution(entries in proptest::collection::vec((0u32..6, 0u32..9, -5.0f64..5.0), 0..25)) {
            let m = CsrMatrix::from_triplets(6, 9, &entries);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_matvec_linear(entries in proptest::collection::vec((0u32..5, 0u32..5, -5.0f64..5.0), 0..20), x in proptest::collection::vec(-3.0f64..3.0, 5), a in -2.0f64..2.0) {
            let m = CsrMatrix::from_triplets(5, 5, &entries);
            let ax: Vec<f64> = x.iter().map(|v| a * v).collect();
            let y1 = m.matvec(&ax).unwrap();
            let y2 = m.matvec(&x).unwrap();
            for (l, r) in y1.iter().zip(y2.iter().map(|v| a * v)) {
                prop_assert!((l - r).abs() < 1e-9);
            }
        }
    }
}
