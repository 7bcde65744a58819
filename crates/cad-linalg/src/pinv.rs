//! Moore–Penrose pseudoinverse of symmetric matrices.
//!
//! Exact commute times (paper eq. 3) need `L⁺`, the pseudoinverse of the
//! graph Laplacian. Every exact build gets it from one routine,
//! [`laplacian_pinv`]. It splits the Laplacian into its connected
//! components and applies the identity `L⁺ = (L + J/n)⁻¹ − J/n` (`J` the
//! all-ones matrix) to each one: one dense Cholesky factor and inverse
//! per component, assembled block-diagonally with exact zeros between
//! components. On the GMM benchmark's n = 400 Laplacian the Cholesky
//! route measured 14–28 ms against 330–390 ms for the eigendecomposition
//! (`bench_linalg`, group `dense_n400`, 2-vCPU Xeon VM). Its two
//! building blocks stay public:
//!
//! * [`laplacian_pinv_cholesky`] — the identity on a *connected*
//!   Laplacian, whose bits [`laplacian_pinv`] reproduces on connected
//!   input.
//! * [`sym_pinv`] — via the Householder+QL eigendecomposition, dropping
//!   eigenvalues below a relative cutoff. Works for any symmetric
//!   matrix; [`laplacian_pinv`] runs it only on a component whose
//!   Cholesky factor fails. `O(n³)`.
//!
//! For *incremental* maintenance of `L⁺` across edge-weight changes the
//! Sherman–Morrison primitives [`sym_rank1_update`] and
//! [`pinv_edge_update`] replace the `O(n³)` rebuild with an `O(n²)`
//! rank-1 correction per changed edge (Khoa–Chawla, arXiv 1107.3894;
//! Monnig–Meyer, arXiv 1605.01091).

use crate::dense::{CholeskyFactor, DenseMatrix};
use crate::eig::sym_eigen;
use crate::error::LinalgError;
use crate::Result;

/// Relative eigenvalue cutoff of [`laplacian_pinv`]'s [`sym_pinv`]
/// fallback.
const PINV_CUTOFF: f64 = 1e-9;

/// Pseudoinverse of a symmetric matrix via eigendecomposition.
///
/// Eigenvalues with `|λ| ≤ rel_cutoff · max|λ|` are treated as zero.
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
    // Row k of Vᵀ is eigenvector k, so `out += w_k v_k v_kᵀ` is a row
    // update per nonzero `v_ik`: `out[i, :] += (w_k v_ik) · Vᵀ[k, :]`.
    // V is dropped before `out` exists, so at most two n × n matrices
    // are live, as before.
    let vt = e.vectors.transpose();
    drop(e);
    let mut out = DenseMatrix::zeros(n, n);
    for (k, &w) in inv_vals.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        let vk = vt.row(k);
        for (i, &vik) in vk.iter().enumerate() {
            if vik == 0.0 {
                continue;
            }
            let scaled = w * vik;
            for (o, vjk) in out.row_mut(i).iter_mut().zip(vk) {
                *o += scaled * vjk;
            }
        }
    }
    Ok(out)
}

/// Pseudoinverse of a *connected* graph Laplacian via dense Cholesky.
///
/// Fails (propagating [`LinalgError::FactorizationFailed`]) when the graph
/// is disconnected, because `L + J/n` is then singular. [`laplacian_pinv`]
/// handles any Laplacian.
pub fn laplacian_pinv_cholesky(l: &DenseMatrix) -> Result<DenseMatrix> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare {
            rows: l.nrows(),
            cols: l.ncols(),
        });
    }
    cholesky_pinv(l.nrows(), |i, j| l.get(i, j))
}

/// `(L + J/n)⁻¹ − J/n` for the order-`n` Laplacian whose entry `(i, j)`
/// is `entry(i, j)`, read straight into the Cholesky factor buffer.
fn cholesky_pinv(n: usize, entry: impl Fn(usize, usize) -> f64) -> Result<DenseMatrix> {
    if n == 0 {
        return Ok(DenseMatrix::zeros(0, 0));
    }
    let jn = 1.0 / n as f64;
    let mut inv = CholeskyFactor::factor_lower(n, |i, j| entry(i, j) + jn)?.inverse()?;
    for i in 0..n {
        for v in inv.row_mut(i) {
            *v -= jn;
        }
    }
    Ok(inv)
}

/// Pseudoinverse of any graph Laplacian: the exact `L⁺` of paper eq. 3.
///
/// The connected components are read off the nonzero off-diagonal
/// pattern of `l`. Each component gets the Cholesky identity of
/// [`laplacian_pinv_cholesky`], its entries read straight from `l` with
/// no sub-matrix copy, or [`sym_pinv`] when its factor fails. The
/// result is block-diagonal: entries between components are exactly
/// `0.0`, and an isolated vertex gets `0.0`. On a connected `l` the
/// result has the bits of [`laplacian_pinv_cholesky`].
pub fn laplacian_pinv(l: &DenseMatrix) -> Result<DenseMatrix> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare {
            rows: l.nrows(),
            cols: l.ncols(),
        });
    }
    let n = l.nrows();
    let comps = components(l);
    if let [only] = comps.as_slice() {
        return component_pinv(l, only);
    }
    let mut out = DenseMatrix::zeros(n, n);
    for nodes in &comps {
        let p = component_pinv(l, nodes)?;
        for (a, &i) in nodes.iter().enumerate() {
            let row = out.row_mut(i);
            for (&pab, &j) in p.row(a).iter().zip(nodes) {
                row[j] = pab;
            }
        }
    }
    Ok(out)
}

/// `L⁺` of the component of `l` on the ascending vertex list `nodes`.
fn component_pinv(l: &DenseMatrix, nodes: &[usize]) -> Result<DenseMatrix> {
    let entry = |a: usize, b: usize| l.get(nodes[a], nodes[b]);
    let nc = nodes.len();
    cholesky_pinv(nc, entry)
        .or_else(|_| sym_pinv(&DenseMatrix::from_fn(nc, nc, entry), PINV_CUTOFF))
}

/// Connected components of the graph whose edges are the nonzero
/// off-diagonal entries of the symmetric `l`: ascending vertex lists,
/// ordered by smallest vertex.
fn components(l: &DenseMatrix) -> Vec<Vec<usize>> {
    let n = l.nrows();
    let mut seen = vec![false; n];
    let mut comps = Vec::new();
    for seed in 0..n {
        if seen[seed] {
            continue;
        }
        seen[seed] = true;
        let mut nodes = vec![seed];
        let mut head = 0;
        while let Some(&i) = nodes.get(head) {
            head += 1;
            for (j, &x) in l.row(i).iter().enumerate() {
                if x != 0.0 && !seen[j] {
                    seen[j] = true;
                    nodes.push(j);
                }
            }
        }
        nodes.sort_unstable();
        comps.push(nodes);
    }
    comps
}

/// In-place symmetric rank-1 update `P ← P + scale·y·yᵀ`.
///
/// `P` must be square with `y.len() == P.nrows()`. The full matrix is
/// updated (both triangles) so callers can keep treating `P` as a plain
/// dense symmetric matrix.
pub fn sym_rank1_update(p: &mut DenseMatrix, scale: f64, y: &[f64]) -> Result<()> {
    if !p.is_square() {
        return Err(LinalgError::NotSquare {
            rows: p.nrows(),
            cols: p.ncols(),
        });
    }
    let n = p.nrows();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "sym_rank1_update",
            expected: (n, 1),
            found: (y.len(), 1),
        });
    }
    for i in 0..n {
        let s = scale * y[i];
        if s == 0.0 {
            continue;
        }
        let row = p.row_mut(i);
        for (pij, yj) in row.iter_mut().zip(y) {
            *pij += s * yj;
        }
    }
    Ok(())
}

/// Sherman–Morrison update of a Laplacian pseudoinverse for one
/// edge-weight change.
///
/// Changing the weight of edge `{u, v}` by `d_weight` perturbs the
/// Laplacian by `d_weight·b bᵀ` with `b = e_u − e_v`. Because `b` is
/// mean-free inside its component, the pseudoinverse of the perturbed
/// Laplacian is (Meyer's theorem 3 / Monnig–Meyer eq. 8)
///
/// ```text
/// L'⁺ = L⁺ − (d_weight / den) · y yᵀ,   y = L⁺ b,
/// den = 1 + d_weight · (y_u − y_v) = 1 + d_weight · r_eff(u, v)
/// ```
///
/// valid **only while the component partition is unchanged** — the
/// caller is responsible for detecting structural deltas. Returns
/// `Ok(true)` when applied; `Ok(false)` when `|den| ≤ den_tol` (the
/// update is singular — e.g. removing a bridge edge — and the caller
/// must rebuild from scratch). `O(n²)`.
pub fn pinv_edge_update(
    pinv: &mut DenseMatrix,
    u: usize,
    v: usize,
    d_weight: f64,
    den_tol: f64,
) -> Result<bool> {
    if !pinv.is_square() {
        return Err(LinalgError::NotSquare {
            rows: pinv.nrows(),
            cols: pinv.ncols(),
        });
    }
    let n = pinv.nrows();
    if u >= n || v >= n || u == v {
        return Err(LinalgError::InvalidInput(format!(
            "edge ({u}, {v}) invalid for a {n}-node pseudoinverse"
        )));
    }
    if d_weight == 0.0 {
        return Ok(true);
    }
    // y = L⁺(e_u − e_v): column u minus column v, read row-wise by
    // symmetry.
    let y: Vec<f64> = (0..n).map(|i| pinv.get(i, u) - pinv.get(i, v)).collect();
    let den = 1.0 + d_weight * (y[u] - y[v]);
    if !den.is_finite() || den.abs() <= den_tol {
        return Ok(false);
    }
    sym_rank1_update(pinv, -d_weight / den, &y)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3_laplacian() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 1.0]]).unwrap()
    }

    fn check_penrose(a: &DenseMatrix, p: &DenseMatrix, tol: f64) {
        // A P A = A
        let apa = a.matmul(p).unwrap().matmul(a).unwrap();
        assert!(apa.max_abs_diff(a).unwrap() < tol, "APA != A");
        // P A P = P
        let pap = p.matmul(a).unwrap().matmul(p).unwrap();
        assert!(pap.max_abs_diff(p).unwrap() < tol, "PAP != P");
        // (AP)ᵀ = AP and (PA)ᵀ = PA
        let ap = a.matmul(p).unwrap();
        assert!(
            ap.max_abs_diff(&ap.transpose()).unwrap() < tol,
            "AP not symmetric"
        );
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let p = sym_pinv(&a, 1e-12).unwrap();
        assert!((p.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((p.get(1, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pinv_penrose_conditions_path_laplacian() {
        let l = path3_laplacian();
        let p = sym_pinv(&l, 1e-10).unwrap();
        check_penrose(&l, &p, 1e-9);
        // Null space preserved: P·1 = 0.
        let ones = vec![1.0; 3];
        let p1 = p.matvec(&ones).unwrap();
        assert!(p1.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn cholesky_route_agrees_with_eigen_route() {
        let l = path3_laplacian();
        let p1 = sym_pinv(&l, 1e-10).unwrap();
        let p2 = laplacian_pinv_cholesky(&l).unwrap();
        assert!(p1.max_abs_diff(&p2).unwrap() < 1e-9);
    }

    #[test]
    fn cholesky_route_unreliable_on_disconnected() {
        // Two isolated nodes: L = 0, so L + J/2 is singular. Depending on
        // rounding, Cholesky either detects the zero pivot or produces a
        // wildly ill-conditioned "inverse"; either way the result is not a
        // pseudoinverse, which is why laplacian_pinv splits components.
        let l = DenseMatrix::zeros(2, 2);
        match laplacian_pinv_cholesky(&l) {
            Err(_) => {}
            Ok(p) => {
                let garbage = p.data().iter().any(|v| v.abs() > 1e6);
                assert!(
                    garbage,
                    "unexpectedly sane result on a singular system: {p:?}"
                );
            }
        }
        // Both other routes handle it: pinv of zero matrix is zero.
        let p = sym_pinv(&l, 1e-10).unwrap();
        assert!(p.max_abs_diff(&DenseMatrix::zeros(2, 2)).unwrap() < 1e-12);
        assert_eq!(laplacian_pinv(&l).unwrap().data(), &[0.0; 4]);
    }

    #[test]
    fn pinv_disconnected_blockwise() {
        // Two disjoint unit edges: pinv acts blockwise.
        let l = DenseMatrix::from_rows(&[
            &[1.0, -1.0, 0.0, 0.0],
            &[-1.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, -1.0],
            &[0.0, 0.0, -1.0, 1.0],
        ])
        .unwrap();
        let p = sym_pinv(&l, 1e-10).unwrap();
        check_penrose(&l, &p, 1e-9);
        // Cross-block entries vanish, and exactly so per component.
        assert!(p.get(0, 2).abs() < 1e-10);
        assert!(p.get(1, 3).abs() < 1e-10);
        let q = laplacian_pinv(&l).unwrap();
        assert!(q.max_abs_diff(&p).unwrap() < 1e-12);
        assert_eq!(q.get(0, 2), 0.0);
        assert_eq!(q.get(1, 3), 0.0);
        // Effective resistance within a block: x = P (e0 - e1), r = x0 - x1 = 1.
        let b = vec![1.0, -1.0, 0.0, 0.0];
        let x = p.matvec(&b).unwrap();
        assert!((x[0] - x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix() {
        let p = laplacian_pinv_cholesky(&DenseMatrix::zeros(0, 0)).unwrap();
        assert_eq!(p.nrows(), 0);
        assert_eq!(
            laplacian_pinv(&DenseMatrix::zeros(0, 0)).unwrap().nrows(),
            0
        );
    }

    #[test]
    fn rank1_update_matches_outer_product() {
        let mut p = DenseMatrix::identity(3);
        let y = [1.0, -2.0, 0.5];
        sym_rank1_update(&mut p, 0.25, &y).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 } + 0.25 * y[i] * y[j];
                assert!((p.get(i, j) - want).abs() < 1e-12);
            }
        }
        assert!(sym_rank1_update(&mut p, 1.0, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn edge_update_tracks_fresh_pinv() {
        // Triangle graph; bump edge {0, 2} from 1.0 to 1.7 and compare
        // the Sherman–Morrison update against rebuilding from scratch.
        let mk = |w02: f64| {
            DenseMatrix::from_rows(&[
                &[1.0 + w02, -1.0, -w02],
                &[-1.0, 2.0, -1.0],
                &[-w02, -1.0, 1.0 + w02],
            ])
            .unwrap()
        };
        let mut p = laplacian_pinv_cholesky(&mk(1.0)).unwrap();
        assert!(pinv_edge_update(&mut p, 0, 2, 0.7, 1e-12).unwrap());
        let fresh = laplacian_pinv_cholesky(&mk(1.7)).unwrap();
        assert!(
            p.max_abs_diff(&fresh).unwrap() < 1e-9,
            "diff {}",
            p.max_abs_diff(&fresh).unwrap()
        );
        // A second update stacks on the first.
        assert!(pinv_edge_update(&mut p, 0, 2, -0.7, 1e-12).unwrap());
        let back = laplacian_pinv_cholesky(&mk(1.0)).unwrap();
        assert!(p.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn edge_update_detects_bridge_removal() {
        // Removing the only edge of a 2-node graph disconnects it:
        // den = 1 + (−w)·r_eff = 1 − 1 = 0 → degenerate, not applied.
        let l = DenseMatrix::from_rows(&[&[1.0, -1.0], &[-1.0, 1.0]]).unwrap();
        let mut p = sym_pinv(&l, 1e-10).unwrap();
        let before = p.clone();
        assert!(!pinv_edge_update(&mut p, 0, 1, -1.0, 1e-9).unwrap());
        assert!(p.max_abs_diff(&before).unwrap() == 0.0, "left untouched");
    }

    #[test]
    fn edge_update_rejects_bad_edges() {
        let mut p = DenseMatrix::identity(3);
        assert!(pinv_edge_update(&mut p, 0, 0, 1.0, 1e-12).is_err());
        assert!(pinv_edge_update(&mut p, 0, 9, 1.0, 1e-12).is_err());
        assert!(pinv_edge_update(&mut p, 1, 2, 0.0, 1e-12).unwrap());
    }
}
