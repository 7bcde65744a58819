//! The dense Cholesky path (factor, `solve`, `inverse`, the Laplacian
//! pseudoinverse built on them) and the eigen-route [`sym_pinv`] against
//! the scalar code they replaced, kept verbatim in [`reference`]. Every
//! output must be bit-identical (`f64::to_bits`), and a failed
//! factorization must report the same pivot index.
//!
//! `inverse` and `laplacian_pinv_cholesky` compute the lower triangle
//! and mirror it: they must match the reference bit for bit on the lower
//! triangle (diagonal included) and be exactly symmetric. The
//! reference's upper triangle is not the transpose of its lower one to
//! the last bit, so it is not compared. Everything else is compared on
//! the full matrix.
//!
//! Graphs are random connected weighted Laplacians with `n ∈ 0..=70`
//! (every remainder of the four-row fusion) and weights spread
//! log-uniformly over `1e-3..1e3`.

use cad_linalg::dense::CholeskyFactor;
use cad_linalg::pinv::{laplacian_pinv_cholesky, sym_pinv};
use cad_linalg::{DenseMatrix, LinalgError, Result};
use proptest::prelude::*;

/// The scalar column-by-column implementations, copied unchanged.
mod reference {
    use cad_linalg::eig::sym_eigen;
    use cad_linalg::{DenseMatrix, LinalgError, Result};

    /// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
    pub struct CholeskyFactor {
        l: DenseMatrix,
    }

    impl CholeskyFactor {
        pub fn factor(a: &DenseMatrix) -> Result<Self> {
            if !a.is_square() {
                return Err(LinalgError::NotSquare {
                    rows: a.nrows(),
                    cols: a.ncols(),
                });
            }
            let n = a.nrows();
            let mut l = DenseMatrix::zeros(n, n);
            for j in 0..n {
                let mut d = a.get(j, j);
                for k in 0..j {
                    let v = l.get(j, k);
                    d -= v * v;
                }
                if d <= 0.0 || !d.is_finite() {
                    return Err(LinalgError::FactorizationFailed {
                        what: "cholesky",
                        index: j,
                    });
                }
                let dj = d.sqrt();
                l.set(j, j, dj);
                for i in (j + 1)..n {
                    let mut s = a.get(i, j);
                    for k in 0..j {
                        s -= l.get(i, k) * l.get(j, k);
                    }
                    l.set(i, j, s / dj);
                }
            }
            Ok(CholeskyFactor { l })
        }

        pub fn dim(&self) -> usize {
            self.l.nrows()
        }

        pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
            let n = self.dim();
            if b.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    op: "cholesky solve",
                    expected: (n, 1),
                    found: (b.len(), 1),
                });
            }
            // Forward: L y = b.
            let mut y = b.to_vec();
            for i in 0..n {
                let row = self.l.row(i);
                let mut s = y[i];
                for (rk, yk) in row.iter().zip(&y).take(i) {
                    s -= rk * yk;
                }
                y[i] = s / row[i];
            }
            // Back: Lᵀ x = y.
            for i in (0..n).rev() {
                let mut s = y[i];
                for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                    s -= self.l.get(k, i) * yk;
                }
                y[i] = s / self.l.get(i, i);
            }
            Ok(y)
        }

        pub fn inverse(&self) -> Result<DenseMatrix> {
            let n = self.dim();
            let mut inv = DenseMatrix::zeros(n, n);
            let mut e = vec![0.0; n];
            for j in 0..n {
                e[j] = 1.0;
                let x = self.solve(&e)?;
                for (i, &xi) in x.iter().enumerate() {
                    inv.set(i, j, xi);
                }
                e[j] = 0.0;
            }
            Ok(inv)
        }
    }

    pub fn sym_pinv(a: &DenseMatrix, rel_cutoff: f64) -> Result<DenseMatrix> {
        let e = sym_eigen(a)?;
        let n = e.values.len();
        let max_abs = e.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let cutoff = rel_cutoff * max_abs;
        let inv_vals: Vec<f64> = e
            .values
            .iter()
            .map(|&l| if l.abs() <= cutoff { 0.0 } else { 1.0 / l })
            .collect();
        let mut out = DenseMatrix::zeros(n, n);
        for (k, &w) in inv_vals.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            for i in 0..n {
                let vik = e.vectors.get(i, k);
                if vik == 0.0 {
                    continue;
                }
                let scaled = w * vik;
                for j in 0..n {
                    out.add_to(i, j, scaled * e.vectors.get(j, k));
                }
            }
        }
        Ok(out)
    }

    pub fn laplacian_pinv_cholesky(l: &DenseMatrix) -> Result<DenseMatrix> {
        if !l.is_square() {
            return Err(LinalgError::NotSquare {
                rows: l.nrows(),
                cols: l.ncols(),
            });
        }
        let n = l.nrows();
        if n == 0 {
            return Ok(DenseMatrix::zeros(0, 0));
        }
        let jn = 1.0 / n as f64;
        let shifted = DenseMatrix::from_fn(n, n, |i, j| l.get(i, j) + jn);
        let inv = CholeskyFactor::factor(&shifted)?.inverse()?;
        Ok(DenseMatrix::from_fn(n, n, |i, j| inv.get(i, j) - jn))
    }
}

const N_MAX: usize = 70;

/// `10^e`: maps an exponent in `-3..3` to a weight in `1e-3..1e3`.
fn weight(e: f64) -> f64 {
    10f64.powf(e)
}

/// Dense Laplacian over `n` nodes of the given weighted edges (self-loops
/// and out-of-range endpoints dropped, duplicates summed).
fn laplacian(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> DenseMatrix {
    let mut l = DenseMatrix::zeros(n, n);
    for (u, v, w) in edges {
        if u < n && v < n && u != v {
            l.add_to(u, v, -w);
            l.add_to(v, u, -w);
            l.add_to(u, u, w);
            l.add_to(v, v, w);
        }
    }
    l
}

/// A connected Laplacian: node `i > 0` hangs off a random earlier node
/// (`parents[i]` scaled into `0..i`), plus the extra edges.
fn connected_laplacian(
    n: usize,
    parents: &[(f64, f64)],
    extras: &[(usize, usize, f64)],
) -> DenseMatrix {
    let tree = (1..n).map(|i| {
        let (p, e) = parents[i];
        ((p * i as f64) as usize, i, weight(e))
    });
    let extra = extras.iter().map(|&(u, v, e)| (u, v, weight(e)));
    laplacian(n, tree.chain(extra))
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn vec_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Same bits on success, same error (pivot index included) on failure.
fn same_matrix(new: Result<DenseMatrix>, old: Result<DenseMatrix>) -> bool {
    match (new, old) {
        (Ok(a), Ok(b)) => a.nrows() == b.nrows() && bits(&a) == bits(&b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Same bits as `old` on the lower triangle and exactly symmetric on
/// success, same error (pivot index included) on failure.
fn same_lower_and_symmetric(new: Result<DenseMatrix>, old: Result<DenseMatrix>) -> bool {
    match (new, old) {
        (Ok(a), Ok(b)) => {
            let n = a.nrows();
            n == b.nrows()
                && a.is_square()
                && (0..n).all(|i| {
                    (0..=i).all(|j| {
                        let x = a.get(i, j).to_bits();
                        x == b.get(i, j).to_bits() && x == a.get(j, i).to_bits()
                    })
                })
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// `L + J/n`, the SPD matrix the Laplacian pseudoinverse factors.
fn shifted(l: &DenseMatrix) -> DenseMatrix {
    let jn = 1.0 / l.nrows() as f64;
    DenseMatrix::from_fn(l.nrows(), l.ncols(), |i, j| l.get(i, j) + jn)
}

/// Every entry point against its reference on the Laplacian `l`.
fn check_all(l: &DenseMatrix, rhs: &[f64], shift: f64) -> std::result::Result<(), String> {
    let n = l.nrows();
    if !same_lower_and_symmetric(
        laplacian_pinv_cholesky(l),
        reference::laplacian_pinv_cholesky(l),
    ) {
        return Err(format!("laplacian_pinv_cholesky differs at n = {n}"));
    }
    if !same_matrix(sym_pinv(l, 1e-9), reference::sym_pinv(l, 1e-9)) {
        return Err(format!("sym_pinv differs at n = {n}"));
    }
    if n == 0 {
        return Ok(());
    }
    let a = shifted(l);
    let (new, old) = match (
        CholeskyFactor::factor(&a),
        reference::CholeskyFactor::factor(&a),
    ) {
        (Ok(new), Ok(old)) => (new, old),
        _ => return Err(format!("L + J/n did not factor at n = {n}")),
    };
    if !same_lower_and_symmetric(new.inverse(), old.inverse()) {
        return Err(format!("inverse differs at n = {n}"));
    }
    let b = &rhs[..n];
    if vec_bits(&new.solve(b).unwrap()) != vec_bits(&old.solve(b).unwrap()) {
        return Err(format!("solve differs at n = {n}"));
    }
    // Shifting the diagonal down by up to twice its smallest entry makes
    // the matrix indefinite for most draws, with the breakdown at
    // varying pivots; the pivot that fails, and the factor when none
    // does, must match.
    let min_diag = (0..n).map(|i| a.get(i, i)).fold(f64::INFINITY, f64::min);
    let mut indefinite = a.clone();
    for i in 0..n {
        indefinite.set(i, i, a.get(i, i) - 2.0 * shift * min_diag);
    }
    let factored = |f: Result<CholeskyFactor>| f.and_then(|f| f.inverse());
    let factored_ref = |f: Result<reference::CholeskyFactor>| f.and_then(|f| f.inverse());
    if !same_lower_and_symmetric(
        factored(CholeskyFactor::factor(&indefinite)),
        factored_ref(reference::CholeskyFactor::factor(&indefinite)),
    ) {
        return Err(format!("shifted factorization differs at n = {n}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_cholesky_path_is_bit_identical(
        n in 0usize..=N_MAX,
        parents in proptest::collection::vec((0.0f64..1.0, -3.0f64..3.0), N_MAX),
        extras in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -3.0f64..3.0), 0..200),
        rhs_shift in (proptest::collection::vec(-1.0f64..1.0, N_MAX), 0.0f64..1.0),
    ) {
        let l = connected_laplacian(n, &parents, &extras);
        let (rhs, shift) = rhs_shift;
        check_all(&l, &rhs, shift)?;
    }

    #[test]
    fn disconnected_laplacians_are_bit_identical(
        n in 2usize..=N_MAX,
        extras in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, -3.0f64..3.0), 0..60),
    ) {
        // Sparse random edges leave isolated nodes and several
        // components: the Cholesky route breaks down or returns an
        // ill-conditioned matrix, and sym_pinv is the fallback.
        let l = laplacian(n, extras.iter().map(|&(u, v, e)| (u, v, weight(e))));
        prop_assert!(same_lower_and_symmetric(
            laplacian_pinv_cholesky(&l),
            reference::laplacian_pinv_cholesky(&l),
        ));
        prop_assert!(same_matrix(sym_pinv(&l, 1e-9), reference::sym_pinv(&l, 1e-9)));
    }
}

/// Every fusion remainder `n mod 4` at small `n`, on a fixed graph
/// family (path plus chords), independent of the proptest draws.
#[test]
fn small_orders_cover_every_fusion_remainder() {
    for n in 0..=13 {
        let edges = (1..n)
            .map(|i| (i - 1, i, 1.0 + i as f64 / 7.0))
            .chain((2..n).step_by(3).map(|i| (0, i, 0.37 * i as f64)));
        let l = laplacian(n, edges);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin()).collect();
        check_all(&l, &rhs, 0.5).unwrap();
    }
}

#[test]
fn non_square_input_is_rejected_like_the_reference() {
    let a = DenseMatrix::zeros(2, 3);
    assert!(matches!(
        CholeskyFactor::factor(&a),
        Err(LinalgError::NotSquare { rows: 2, cols: 3 })
    ));
    assert!(matches!(
        laplacian_pinv_cholesky(&a),
        Err(LinalgError::NotSquare { rows: 2, cols: 3 })
    ));
}
