//! Dense Cholesky factorization for SPD matrices.
//!
//! Used for exact commute times on connected graphs via the identity
//! `L⁺ = (L + (1/n)·J)⁻¹ − (1/n)·J` (J the all-ones matrix), which is much
//! cheaper than a full eigendecomposition, and as the reference solver in
//! solver tests.
//!
//! Every hot loop is a contiguous row update `y ← y − c·x` that the
//! compiler vectorizes across the row, with four such terms fused per
//! pass. Each output entry still subtracts its products one at a time in
//! ascending `k`, as the textbook scalar dot-product loops do, so the
//! results are bit-identical to them (DESIGN.md §7).
//!
//! The inverse is symmetric, so its back sweep computes only the lower
//! triangle (about `n³/6` multiply-subtracts instead of `n³/2`) and
//! mirrors it: the lower triangle has the bits of the textbook loops,
//! and the upper triangle is its exact transpose.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::Result;

/// Cholesky factor of `A = L Lᵀ`, stored transposed.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// `U = Lᵀ`, row-major: row `k` holds column `k` of `L` from the
    /// diagonal on, contiguously. Entries left of the diagonal are zero.
    u: DenseMatrix,
}

impl CholeskyFactor {
    /// Factor a symmetric positive-definite matrix. Only the lower
    /// triangle of `a` is read.
    ///
    /// Returns [`LinalgError::FactorizationFailed`] when a pivot is not
    /// strictly positive (matrix not SPD to working precision).
    pub fn factor(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.nrows(),
                cols: a.ncols(),
            });
        }
        Self::factor_lower(a.nrows(), |i, j| a.get(i, j))
    }

    /// Factor the order-`n` SPD matrix whose lower-triangle entry
    /// `(i, j)`, `i ≥ j`, is `lower(i, j)`, read straight into the factor
    /// buffer.
    pub(crate) fn factor_lower(n: usize, lower: impl Fn(usize, usize) -> f64) -> Result<Self> {
        let mut u = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                u[j * n + i] = lower(i, j);
            }
        }
        // Row j of U is column j of L: subtract the rows above it, scaled
        // by their column-j entries, then take the pivot's square root.
        for j in 0..n {
            let (done, rest) = u.split_at_mut(j * n);
            let row = &mut rest[j..n];
            let width = row.len();
            sub_rows(
                row,
                0..j,
                |_| width,
                |k| (done[k * n + j], &done[k * n + j..]),
            );
            let d = row[0];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::FactorizationFailed {
                    what: "cholesky",
                    index: j,
                });
            }
            let dj = d.sqrt();
            row[0] = dj;
            for x in &mut row[1..] {
                *x /= dj;
            }
        }
        Ok(CholeskyFactor {
            u: DenseMatrix::from_vec(n, n, u)?,
        })
    }

    /// Order of the factored matrix.
    pub fn dim(&self) -> usize {
        self.u.nrows()
    }

    /// Solve `A x = b` using forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Forward, L y = b: once y_k is final, subtract its multiple of
        // column k of L (row k of U) from the entries below it.
        let mut y = b.to_vec();
        for k in 0..n {
            let row = self.u.row(k);
            y[k] /= row[k];
            let (yk, below) = (y[k], &mut y[k + 1..]);
            for (yi, lik) in below.iter_mut().zip(&row[k + 1..]) {
                *yi -= lik * yk;
            }
        }
        // Back, Lᵀ x = y: a dot product with row i of U.
        for i in (0..n).rev() {
            let row = self.u.row(i);
            let mut s = y[i];
            for (uik, &yk) in row[i + 1..].iter().zip(&y[i + 1..]) {
                s -= uik * yk;
            }
            y[i] = s / row[i];
        }
        Ok(y)
    }

    /// Compute `A⁻¹` by solving all `n` right-hand sides of `A X = I` at
    /// once, as two whole-matrix triangular sweeps over one buffer.
    ///
    /// The result is exactly symmetric: the back sweep computes the lower
    /// triangle only and [`DenseMatrix::mirror_lower_minus`] copies it
    /// into the upper one.
    pub fn inverse(&self) -> Result<DenseMatrix> {
        self.inverse_minus(0.0)
    }

    /// `A⁻¹ − s·J` (`J` the all-ones matrix): [`Self::inverse`] with `s`
    /// subtracted from every entry in the same pass that mirrors the
    /// lower triangle.
    pub(crate) fn inverse_minus(&self, s: f64) -> Result<DenseMatrix> {
        let n = self.dim();
        let u = self.u.data();
        let mut x = vec![0.0; n * n];
        for i in 0..n {
            x[i * n + i] = 1.0;
        }
        // Forward, L Y = I: row i of Y is row i of I minus L_ik times row
        // k of Y, over k < i. Y is lower triangular, so a group of rows
        // ending at k only touches columns 0..=k; the zero terms this
        // skips would leave every entry unchanged.
        for i in 0..n {
            let (done, rest) = x.split_at_mut(i * n);
            let row = &mut rest[..n];
            sub_rows(row, 0..i, |k| k + 1, |k| (u[k * n + i], &done[k * n..]));
            let lii = u[i * n + i];
            for v in &mut row[..=i] {
                *v /= lii;
            }
        }
        // Back, Lᵀ X = Y, lower triangle only: entry (i, j ≤ i) of X is
        // Y_ij minus U_ik times X_kj, over k > i in ascending order. Every
        // X_kj it reads has j ≤ i < k, so lies in the lower triangle of a
        // row already finished, and each entry sees the same subtractions
        // in the same order as in a sweep over whole rows.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * n);
            let row = &mut head[i * n..i * n + i + 1];
            let urow = &u[i * n..(i + 1) * n];
            sub_rows(
                row,
                i + 1..n,
                |_| i + 1,
                |k| (urow[k], &tail[(k - i - 1) * n..]),
            );
            let lii = urow[i];
            for v in row.iter_mut() {
                *v /= lii;
            }
        }
        let mut inv = DenseMatrix::from_vec(n, n, x)?;
        inv.mirror_lower_minus(s);
        Ok(inv)
    }
}

/// `y ← y − Σ_k c_k·x_k` for `k` in `ks`, where `term(k) = (c_k, x_k)`.
///
/// Each entry subtracts its products one at a time in ascending `k`,
/// exactly as `for k in ks { y[i] -= c_k * x_k[i] }` would; four terms
/// share a pass so the compiler can vectorize across `i`. A group of
/// terms ending at `k` updates only the first `width(k)` entries of `y`;
/// `width` must not decrease and must not exceed `y.len()`, and every
/// `x_k` must have at least `width` entries.
#[inline]
fn sub_rows<'a>(
    y: &mut [f64],
    ks: std::ops::Range<usize>,
    width: impl Fn(usize) -> usize,
    term: impl Fn(usize) -> (f64, &'a [f64]),
) {
    let mut k = ks.start;
    while k + 4 <= ks.end {
        let w = width(k + 3);
        let (c0, x0) = term(k);
        let (c1, x1) = term(k + 1);
        let (c2, x2) = term(k + 2);
        let (c3, x3) = term(k + 3);
        let (x0, x1, x2, x3) = (&x0[..w], &x1[..w], &x2[..w], &x3[..w]);
        for ((((yi, a0), a1), a2), a3) in y[..w].iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
            *yi = *yi - c0 * a0 - c1 * a1 - c2 * a2 - c3 * a3;
        }
        k += 4;
    }
    for k in k..ks.end {
        let w = width(k);
        let (c, x) = term(k);
        for (yi, a) in y[..w].iter_mut().zip(&x[..w]) {
            *yi -= c * a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, -1.0], &[0.0, -1.0, 2.0]]).unwrap()
    }

    #[test]
    fn factor_and_solve() {
        let a = spd3();
        let f = CholeskyFactor::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = f.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-12, "residual too large");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = CholeskyFactor::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let eye = DenseMatrix::identity(3);
        assert!(prod.max_abs_diff(&eye).unwrap() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(LinalgError::FactorizationFailed { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            CholeskyFactor::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_checks_rhs_len() {
        let f = CholeskyFactor::factor(&spd3()).unwrap();
        assert!(f.solve(&[1.0, 2.0]).is_err());
    }
}
