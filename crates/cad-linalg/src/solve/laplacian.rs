//! Solving singular graph-Laplacian systems.
//!
//! A connected graph's Laplacian `L` is symmetric positive *semi*definite
//! with null space `span{1}`; multi-component graphs have one null vector
//! per component. The embedding pipeline needs `x = L⁺ b` for right-hand
//! sides that are component-wise mean-free (incidence-derived RHSs always
//! are). Two strategies are offered:
//!
//! * [`SolverKind::Grounded`] — pin one node per connected component
//!   (the max-degree node) to zero and solve the resulting SPD submatrix
//!   with PCG; the answer is then re-centered per component, which makes
//!   it *equal* to `L⁺ b` for consistent `b`.
//! * [`SolverKind::Regularized`] — solve `(L + εI) x = b` instead. This
//!   trades an `O(ε)` bias for finite effective resistances *between*
//!   components, which the CAD pipeline needs when a new edge joins two
//!   previously disconnected parts (paper Case 2 in the extreme).

use crate::error::LinalgError;
use crate::solve::cg::{cg_solve_panel, CgOptions};
use crate::solve::precond::{
    IdentityPreconditioner, IncompleteCholesky, JacobiPreconditioner, Preconditioner,
};
use crate::solve::tree::TreePreconditioner;
use crate::sparse::CsrMatrix;
use crate::Result;

/// How the singular Laplacian system is made definite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverKind {
    /// Ground one node per component; exact `L⁺ b` for consistent `b`.
    Grounded,
    /// Solve `(L + εI) x = b`; finite cross-component resistances.
    Regularized(f64),
}

/// Preconditioner choice for the PCG solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondKind {
    /// Degree (diagonal) scaling — the default; robust and cheap.
    #[default]
    Jacobi,
    /// Zero-fill incomplete Cholesky; fewer iterations, higher setup cost.
    IncompleteCholesky,
    /// Maximum-weight spanning-tree (Vaidya) preconditioner — exact on
    /// trees/paths, the right choice for filament-heavy sparse graphs
    /// (see [`crate::solve::tree`]).
    SpanningTree,
    /// No preconditioning (mostly for ablation benches).
    None,
}

/// Options for [`LaplacianSolver`].
#[derive(Debug, Clone, Copy)]
pub struct LaplacianSolverOptions {
    /// Definiteness strategy.
    pub kind: SolverKind,
    /// Preconditioner choice.
    pub precond: PrecondKind,
    /// CG controls.
    pub cg: CgOptions,
}

impl Default for LaplacianSolverOptions {
    fn default() -> Self {
        LaplacianSolverOptions {
            kind: SolverKind::Grounded,
            precond: PrecondKind::Jacobi,
            cg: CgOptions::default(),
        }
    }
}

enum PrecondImpl {
    Identity(IdentityPreconditioner),
    Jacobi(JacobiPreconditioner),
    Ic0(IncompleteCholesky),
    Tree(TreePreconditioner),
}

impl PrecondImpl {
    fn as_dyn(&self) -> &dyn Preconditioner {
        match self {
            PrecondImpl::Identity(p) => p,
            PrecondImpl::Jacobi(p) => p,
            PrecondImpl::Ic0(p) => p,
            PrecondImpl::Tree(p) => p,
        }
    }
}

/// A prepared solver for repeated right-hand sides against one Laplacian.
///
/// Setup cost (component discovery, grounding, preconditioner
/// factorization) is paid once; the embedding then issues `k` solves.
pub struct LaplacianSolver {
    n: usize,
    kind: SolverKind,
    /// Component id per node.
    component: Vec<u32>,
    /// Number of connected components.
    n_components: usize,
    /// Nodes per component (for mean-centering).
    component_sizes: Vec<usize>,
    /// The SPD operator actually solved.
    op: CsrMatrix,
    /// Grounded strategy: reduced index -> full index. Empty for the
    /// regularized strategy.
    full_index: Vec<usize>,
    /// Grounded strategy: the pinned node of each component. Empty for
    /// the regularized strategy.
    ground: Vec<usize>,
    precond: PrecondImpl,
    cg: CgOptions,
}

impl LaplacianSolver {
    /// Prepare a solver for the given Laplacian.
    ///
    /// `laplacian` must be square and symmetric; its off-diagonal pattern
    /// defines the graph used for component discovery.
    pub fn new(laplacian: &CsrMatrix, opts: LaplacianSolverOptions) -> Result<Self> {
        if laplacian.nrows() != laplacian.ncols() {
            return Err(LinalgError::NotSquare {
                rows: laplacian.nrows(),
                cols: laplacian.ncols(),
            });
        }
        if let SolverKind::Regularized(eps) = opts.kind {
            if eps <= 0.0 || !eps.is_finite() {
                return Err(LinalgError::InvalidInput(format!(
                    "regularization must be positive, got {eps}"
                )));
            }
        }
        let n = laplacian.nrows();
        let (component, n_components) = connected_components(laplacian);
        let mut component_sizes = vec![0usize; n_components];
        for &c in &component {
            component_sizes[c as usize] += 1;
        }

        let (op, full_index, ground) = match opts.kind {
            SolverKind::Regularized(eps) => {
                let mut tri: Vec<(u32, u32, f64)> = laplacian
                    .iter()
                    .map(|(i, j, v)| (i as u32, j as u32, v))
                    .collect();
                for i in 0..n {
                    tri.push((i as u32, i as u32, eps));
                }
                (CsrMatrix::from_triplets(n, n, &tri), Vec::new(), Vec::new())
            }
            SolverKind::Grounded => {
                // Ground the max-degree (max diagonal) node of each component.
                let diag = laplacian.diagonal();
                let mut ground = vec![usize::MAX; n_components];
                for i in 0..n {
                    let c = component[i] as usize;
                    if ground[c] == usize::MAX || diag[i] > diag[ground[c]] {
                        ground[c] = i;
                    }
                }
                let grounded: Vec<bool> =
                    (0..n).map(|i| ground[component[i] as usize] == i).collect();
                let mut reduced_index = vec![usize::MAX; n];
                let mut full_index = Vec::with_capacity(n - n_components);
                for i in 0..n {
                    if !grounded[i] {
                        reduced_index[i] = full_index.len();
                        full_index.push(i);
                    }
                }
                let tri: Vec<(u32, u32, f64)> = laplacian
                    .iter()
                    .filter(|&(i, j, _)| !grounded[i] && !grounded[j])
                    .map(|(i, j, v)| (reduced_index[i] as u32, reduced_index[j] as u32, v))
                    .collect();
                let m = full_index.len();
                (CsrMatrix::from_triplets(m, m, &tri), full_index, ground)
            }
        };

        let precond = match opts.precond {
            PrecondKind::None => PrecondImpl::Identity(IdentityPreconditioner),
            PrecondKind::Jacobi => {
                if op.nrows() == 0 {
                    PrecondImpl::Identity(IdentityPreconditioner)
                } else {
                    PrecondImpl::Jacobi(JacobiPreconditioner::from_matrix(&op)?)
                }
            }
            PrecondKind::IncompleteCholesky => {
                if op.nrows() == 0 {
                    PrecondImpl::Identity(IdentityPreconditioner)
                } else {
                    PrecondImpl::Ic0(IncompleteCholesky::factor(&op)?)
                }
            }
            PrecondKind::SpanningTree => {
                if op.nrows() == 0 {
                    PrecondImpl::Identity(IdentityPreconditioner)
                } else {
                    PrecondImpl::Tree(TreePreconditioner::from_matrix(&op)?)
                }
            }
        };

        Ok(LaplacianSolver {
            n,
            kind: opts.kind,
            component,
            n_components,
            component_sizes,
            op,
            full_index,
            ground,
            precond,
            cg: opts.cg,
        })
    }

    /// Dimension of the underlying Laplacian.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of connected components discovered from the sparsity pattern.
    pub fn n_components(&self) -> usize {
        self.n_components
    }

    /// Component id (0-based) of each node.
    pub fn component_ids(&self) -> &[u32] {
        &self.component
    }

    /// Solve `L x ≈ b`.
    ///
    /// * Grounded: `b` is first made component-wise mean-free (for
    ///   incidence-derived RHSs this is a no-op up to rounding); the
    ///   returned `x` is exactly `L⁺ b_projected`, i.e. component-wise
    ///   mean-free.
    /// * Regularized: returns `(L + εI)⁻¹ b` unchanged.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.solve_with(b, self.cg)
    }

    /// Like [`LaplacianSolver::solve`], also returning the convergence
    /// record of the underlying PCG solve.
    pub fn solve_stats(&self, b: &[f64]) -> Result<(Vec<f64>, cad_obs::SolveStats)> {
        self.solve_with_stats(b, self.cg)
    }

    /// Like [`LaplacianSolver::solve`] with one-off CG controls.
    pub fn solve_with(&self, b: &[f64], cg: CgOptions) -> Result<Vec<f64>> {
        self.solve_with_stats(b, cg).map(|(x, _)| x)
    }

    /// Solve with one-off CG controls, returning the solution together
    /// with the PCG convergence record ([`cad_obs::SolveStats`]).
    pub fn solve_with_stats(
        &self,
        b: &[f64],
        cg: CgOptions,
    ) -> Result<(Vec<f64>, cad_obs::SolveStats)> {
        let (x, mut stats) = self.solve_panel_with::<1>(b.to_vec(), 1, cg)?;
        Ok((x, stats.pop().expect("one lane solved")))
    }

    /// Solve up to `W` right-hand sides in one lockstep PCG run (see
    /// [`crate::solve::cg`]).
    ///
    /// `b` is a row-major `n × W` panel. Column `j < lanes` is centered,
    /// restricted, solved and expanded exactly as
    /// [`LaplacianSolver::solve_stats`] treats a single vector, so its
    /// solution and record are
    /// bit-identical to that call. Columns `lanes..W` are padding: not
    /// solved, not reported, and unspecified in the result.
    pub fn solve_panel<const W: usize>(
        &self,
        b: Vec<f64>,
        lanes: usize,
    ) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
        self.solve_panel_with::<W>(b, lanes, self.cg)
    }

    fn solve_panel_with<const W: usize>(
        &self,
        mut b: Vec<f64>,
        lanes: usize,
        cg: CgOptions,
    ) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
        if b.len() != self.n * W {
            return Err(LinalgError::DimensionMismatch {
                op: "laplacian solve",
                expected: (self.n, W),
                found: (b.len() / W, W),
            });
        }
        let traced = trace_start();
        let pre = self.precond.as_dyn();
        let (x, stats) = match self.kind {
            SolverKind::Regularized(_) => cg_solve_panel::<W>(&self.op, b, lanes, pre, cg)?,
            SolverKind::Grounded => {
                // Project b per component onto 1⊥, restrict to the
                // reduced system, solve, expand (grounded entries = 0)
                // and re-center.
                self.center_per_component::<W>(&mut b);
                let br = self.restrict::<W>(b);
                let (xr, stats) = cg_solve_panel::<W>(&self.op, br, lanes, pre, cg)?;
                let mut x = self.expand::<W>(xr);
                self.center_per_component::<W>(&mut x);
                (x, stats)
            }
        };
        trace_finish(traced, &stats);
        Ok((x, stats))
    }

    /// Keep the rows of the non-grounded nodes of an `n × W` panel, in
    /// place.
    fn restrict<const W: usize>(&self, mut v: Vec<f64>) -> Vec<f64> {
        // full_index is increasing, so row f ≥ r is read before any
        // later step overwrites it.
        for (r, &f) in self.full_index.iter().enumerate() {
            v.copy_within(f * W..(f + 1) * W, r * W);
        }
        v.truncate(self.full_index.len() * W);
        v
    }

    /// Inverse of [`LaplacianSolver::restrict`]: scatter reduced rows back
    /// to their nodes (in reverse, so no source row is overwritten before
    /// it moves) and zero the grounded rows.
    fn expand<const W: usize>(&self, mut v: Vec<f64>) -> Vec<f64> {
        // Exact growth: callers may keep the panel for a whole build.
        v.reserve_exact(self.n * W - v.len());
        v.resize(self.n * W, 0.0);
        for (r, &f) in self.full_index.iter().enumerate().rev() {
            v.copy_within(r * W..(r + 1) * W, f * W);
        }
        for &g in &self.ground {
            v[g * W..(g + 1) * W].fill(0.0);
        }
        v
    }

    /// Subtract each column's per-component mean from an `n × W` panel.
    fn center_per_component<const W: usize>(&self, x: &mut [f64]) {
        let mut sums = vec![0.0; self.n_components * W];
        for (i, row) in x.chunks_exact(W).enumerate() {
            let c = self.component[i] as usize;
            for (s, v) in sums[c * W..(c + 1) * W].iter_mut().zip(row) {
                *s += v;
            }
        }
        for (c, s) in sums.chunks_exact_mut(W).enumerate() {
            let size = self.component_sizes[c].max(1) as f64;
            for v in s {
                *v /= size;
            }
        }
        for (i, row) in x.chunks_exact_mut(W).enumerate() {
            let c = self.component[i] as usize;
            for (v, s) in row.iter_mut().zip(&sums[c * W..(c + 1) * W]) {
                *v -= s;
            }
        }
    }
}

/// Start flight-recorder timing for one solve, but only when the thread
/// carries an active request trace — batch runs pay nothing and keep
/// the ring free for serve-side forensics.
fn trace_start() -> Option<std::time::Instant> {
    if cad_obs::trace::current().is_active() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Record one `laplacian_solve` event per solved column (PCG iteration
/// count in `detail`) for a traced solve. Lockstep columns share one
/// elapsed time, split evenly so the events still sum to it.
fn trace_finish(start: Option<std::time::Instant>, stats: &[cad_obs::SolveStats]) {
    if let Some(t0) = start {
        let secs = t0.elapsed().as_secs_f64() / stats.len().max(1) as f64;
        for s in stats {
            cad_obs::events::record(
                cad_obs::EventKind::SpanClose,
                "laplacian_solve",
                secs,
                s.iterations as u64,
            );
        }
    }
}

// Silence the dead-code lint on the intentionally-unreachable helper while
// keeping the doc note about where CG options live.
#[allow(dead_code)]
fn _assert_traits() {
    fn is_send<T: Send>() {}
    is_send::<LaplacianSolver>();
}

/// Connected components from the symmetric sparsity pattern (diagonal
/// ignored). Returns `(component_id_per_node, component_count)`.
pub fn connected_components(m: &CsrMatrix) -> (Vec<u32>, usize) {
    let n = m.nrows();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        stack.push(start);
        while let Some(u) = stack.pop() {
            let (cols, _) = m.row(u);
            for &c in cols {
                let v = c as usize;
                if v != u && comp[v] == u32::MAX {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::vecops;

    /// Path graph 0-1-2-3 Laplacian with unit weights.
    fn path4_laplacian() -> CsrMatrix {
        let mut tri = Vec::new();
        let w = 1.0;
        for (i, j) in [(0u32, 1u32), (1, 2), (2, 3)] {
            tri.push((i, j, -w));
            tri.push((j, i, -w));
            tri.push((i, i, w));
            tri.push((j, j, w));
        }
        CsrMatrix::from_triplets(4, 4, &tri)
    }

    #[test]
    fn components_of_path() {
        let l = path4_laplacian();
        let (comp, k) = connected_components(&l);
        assert_eq!(k, 1);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn components_of_disconnected() {
        // Edges 0-1 and 2-3, node 4 isolated.
        let tri = vec![
            (0u32, 1u32, -1.0),
            (1, 0, -1.0),
            (0, 0, 1.0),
            (1, 1, 1.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (2, 2, 1.0),
            (3, 3, 1.0),
        ];
        let l = CsrMatrix::from_triplets(5, 5, &tri);
        let (comp, k) = connected_components(&l);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn grounded_solve_matches_pseudoinverse_on_path() {
        let l = path4_laplacian();
        let solver = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        assert_eq!(solver.n_components(), 1);
        // b must be mean-free; use the incidence column of edge (0,3)-ish.
        let b = vec![1.0, 0.0, 0.0, -1.0];
        let x = solver
            .solve_with(
                &b,
                CgOptions {
                    tol: 1e-12,
                    max_iter: None,
                    ..Default::default()
                },
            )
            .unwrap();
        // Check L x = b and x ⊥ 1.
        let lx = l.matvec(&x).unwrap();
        for (got, want) in lx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        assert!(x.iter().sum::<f64>().abs() < 1e-9);
        // Effective resistance 0-3 on a unit path of 3 edges is 3:
        // r = (e0 - e3)ᵀ L⁺ (e0 - e3) = x[0] - x[3].
        assert!((x[0] - x[3] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn regularized_solve_close_to_grounded() {
        let l = path4_laplacian();
        let g = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        let r = LaplacianSolver::new(
            &l,
            LaplacianSolverOptions {
                kind: SolverKind::Regularized(1e-8),
                ..Default::default()
            },
        )
        .unwrap();
        let b = vec![1.0, -1.0, 1.0, -1.0];
        let cg = CgOptions {
            tol: 1e-12,
            max_iter: None,
            ..Default::default()
        };
        let xg = g.solve_with(&b, cg).unwrap();
        let mut xr = r.solve_with(&b, cg).unwrap();
        // Regularized answer differs by ~constant; compare after centering.
        vecops::center(&mut xr);
        for (a, b) in xg.iter().zip(&xr) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn grounded_handles_disconnected_graphs() {
        // Two disjoint edges; b mean-free per component.
        let tri = vec![
            (0u32, 1u32, -2.0),
            (1, 0, -2.0),
            (0, 0, 2.0),
            (1, 1, 2.0),
            (2, 3, -0.5),
            (3, 2, -0.5),
            (2, 2, 0.5),
            (3, 3, 0.5),
        ];
        let l = CsrMatrix::from_triplets(4, 4, &tri);
        let solver = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        assert_eq!(solver.n_components(), 2);
        let b = vec![1.0, -1.0, 0.5, -0.5];
        let x = solver
            .solve_with(
                &b,
                CgOptions {
                    tol: 1e-12,
                    max_iter: None,
                    ..Default::default()
                },
            )
            .unwrap();
        let lx = l.matvec(&x).unwrap();
        for (got, want) in lx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
        // b = 1·(e0−e1) on the first component, so x0−x1 = r_eff(0,1) = 1/w = 0.5;
        // b = 0.5·(e2−e3) on the second, so x2−x3 = 0.5·r_eff(2,3) = 0.5·2 = 1.0.
        assert!((x[0] - x[1] - 0.5).abs() < 1e-8);
        assert!((x[2] - x[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn isolated_nodes_do_not_break_setup() {
        let l = CsrMatrix::zeros(3, 3);
        let solver = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        assert_eq!(solver.n_components(), 3);
        let x = solver.solve(&[0.0; 3]).unwrap();
        assert_eq!(x, vec![0.0; 3]);
    }

    #[test]
    fn ic0_precond_agrees_with_jacobi() {
        let l = path4_laplacian();
        let cg = CgOptions {
            tol: 1e-12,
            max_iter: None,
            ..Default::default()
        };
        let b = vec![1.0, 2.0, -1.0, -2.0];
        let xj = LaplacianSolver::new(&l, LaplacianSolverOptions::default())
            .unwrap()
            .solve_with(&b, cg)
            .unwrap();
        let xi = LaplacianSolver::new(
            &l,
            LaplacianSolverOptions {
                precond: PrecondKind::IncompleteCholesky,
                ..Default::default()
            },
        )
        .unwrap()
        .solve_with(&b, cg)
        .unwrap();
        for (a, b) in xj.iter().zip(&xi) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    /// 2D grid graph Laplacian with unit edge weights.
    fn grid_laplacian(rows: usize, cols: usize) -> CsrMatrix {
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut tri = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    for (i, j) in [(idx(r, c), idx(r, c + 1)), (idx(r, c + 1), idx(r, c))] {
                        tri.push((i, j, -1.0));
                    }
                    tri.push((idx(r, c), idx(r, c), 1.0));
                    tri.push((idx(r, c + 1), idx(r, c + 1), 1.0));
                }
                if r + 1 < rows {
                    for (i, j) in [(idx(r, c), idx(r + 1, c)), (idx(r + 1, c), idx(r, c))] {
                        tri.push((i, j, -1.0));
                    }
                    tri.push((idx(r, c), idx(r, c), 1.0));
                    tri.push((idx(r + 1, c), idx(r + 1, c), 1.0));
                }
            }
        }
        let n = rows * cols;
        CsrMatrix::from_triplets(n, n, &tri)
    }

    #[test]
    fn solve_stats_reports_convergence() {
        let l = path4_laplacian();
        let solver = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        let b = vec![1.0, 0.0, 0.0, -1.0];
        let (x, stats) = solver.solve_stats(&b).unwrap();
        assert!(stats.converged);
        assert!(stats.iterations > 0);
        assert!(stats.relative_residual <= 1e-8);
        assert_eq!(x, solver.solve(&b).unwrap());
    }

    #[test]
    fn pcg_ic0_beats_plain_cg_on_grid() {
        // The IC(0)-preconditioned solver must converge in strictly
        // fewer iterations than unpreconditioned CG on a 12x12 grid
        // Laplacian — the reason PCG is the pipeline default.
        let l = grid_laplacian(12, 12);
        let cg = CgOptions {
            tol: 1e-10,
            max_iter: None,
            ..Default::default()
        };
        let n = l.nrows();
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mean = b.iter().sum::<f64>() / n as f64;
        b.iter_mut().for_each(|v| *v -= mean);

        let solve_iters = |precond: PrecondKind| {
            let solver = LaplacianSolver::new(
                &l,
                LaplacianSolverOptions {
                    precond,
                    ..Default::default()
                },
            )
            .unwrap();
            let (_, stats) = solver.solve_with_stats(&b, cg).unwrap();
            assert!(stats.converged, "{precond:?} did not converge");
            stats.iterations
        };
        let plain = solve_iters(PrecondKind::None);
        let ic0 = solve_iters(PrecondKind::IncompleteCholesky);
        assert!(
            ic0 < plain,
            "IC(0) took {ic0} iterations, plain CG took {plain}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let l = path4_laplacian();
        assert!(LaplacianSolver::new(
            &l,
            LaplacianSolverOptions {
                kind: SolverKind::Regularized(0.0),
                ..Default::default()
            }
        )
        .is_err());
        assert!(
            LaplacianSolver::new(&CsrMatrix::zeros(2, 3), LaplacianSolverOptions::default())
                .is_err()
        );
        let s = LaplacianSolver::new(&l, LaplacianSolverOptions::default()).unwrap();
        assert!(s.solve(&[1.0]).is_err());
    }
}
