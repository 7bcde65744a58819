//! The Khoa–Chawla approximate commute-time embedding.
//!
//! Spielman–Srivastava/Khoa–Chawla observation: the effective resistance
//! is a squared Euclidean distance,
//!
//! ```text
//! r_eff(i, j) = ‖W^{1/2} B L⁺ (e_i − e_j)‖²
//! ```
//!
//! with `B` the `m×n` signed incidence matrix and `W` the diagonal edge
//! weights. Johnson–Lindenstrauss then allows sketching the `m`-row
//! matrix with a `k×m` Rademacher projection `Q` (entries `±1/√k`):
//! the embedding `Z = Q W^{1/2} B L⁺` (a `k×n` matrix) preserves all
//! pairwise resistances within `1 ± ε` for `k = O(log n / ε²)`.
//!
//! Each of the `k` rows of `Z` costs one sparse right-hand-side build
//! (`y_r = (Q W^{1/2} B)_r`, streamed over the edge list with on-the-fly
//! Rademacher signs) and one Laplacian solve — `O(m)` plus the solver
//! cost. The paper's §3.1 uses a Spielman–Teng solver for the latter;
//! here it is preconditioned CG (DESIGN.md §5), run on eight rows at
//! a time in lockstep so each pass over `L` serves all of them (§7).

use crate::update::{EdgeDelta, RebuildReason, UpdatableOracle, UpdateOutcome};
use crate::Result;
use cad_graph::{GraphError, WeightedGraph};
use cad_linalg::rp::RademacherSource;
use cad_linalg::solve::{LaplacianSolver, LaplacianSolverOptions};

/// Sketch rows solved together by one lockstep PCG run: eight `f64` fill
/// one AVX-512 register. Wider panels measured no faster and cost heap
/// (DESIGN.md §7).
const PANEL: usize = 8;

/// Right-hand sides `y_r = (Q W^{1/2} B)_r` of the sketch rows
/// `first_row..first_row + W` (rows past `opts.k` are left zero), as a
/// row-major `n × W` panel: column `j` is row `first_row + j`.
///
/// One pass over the edge list: edge `e = (u, v, w)` adds
/// `q·√w` to `y[u]` and subtracts it from `y[v]`, where
/// `q = ±1/√k` is the Rademacher sign of `(row, e)`. The embedding
/// build and the tests and benches that re-solve its rows all build
/// their right-hand sides here, so they see the same sign stream and
/// bits.
pub fn sketch_rhs_panel<const W: usize>(
    g: &WeightedGraph,
    opts: &EmbeddingOptions,
    first_row: usize,
) -> Vec<f64> {
    let lanes = W.min(opts.k.saturating_sub(first_row));
    cad_obs::count(cad_obs::Counter::JlProjections, lanes as u64);
    let signs = RademacherSource::new(opts.seed);
    let inv_sqrt_k = 1.0 / (opts.k as f64).sqrt();
    let mut y = vec![0.0; g.n_nodes() * W];
    for (e_idx, (u, v, w)) in g.edges().enumerate() {
        let sqrt_w = w.sqrt();
        for j in 0..lanes {
            let q = signs.sign((first_row + j) as u64, e_idx as u64) * inv_sqrt_k;
            let s = q * sqrt_w;
            y[u * W + j] += s;
            y[v * W + j] -= s;
        }
    }
    y
}

/// Solve the `opts.k` sketch rows against `solver`, [`PANEL`] rows per
/// lockstep run, each row warm-started from its column of `x0` (row-major
/// `n × k`) when given. Returns the row-major `n × k` coordinates and the
/// per-row PCG records in row order. Workers take whole panels and the
/// pool returns them in panel order, so the result is thread-count
/// invariant.
fn solve_sketch(
    g: &WeightedGraph,
    opts: &EmbeddingOptions,
    solver: &LaplacianSolver,
    x0: Option<&[f64]>,
) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
    let (n, k) = (g.n_nodes(), opts.k);
    let panels =
        cad_linalg::par::par_tabulate_result(k.div_ceil(PANEL), opts.threads.max(1), |p| {
            let row0 = p * PANEL;
            let lanes = PANEL.min(k - row0);
            let b = sketch_rhs_panel::<PANEL>(g, opts, row0);
            let x0 = x0.map(|x0| {
                let mut guess = vec![0.0; n * PANEL];
                for (dst, src) in guess.chunks_exact_mut(PANEL).zip(x0.chunks_exact(k)) {
                    dst[..lanes].copy_from_slice(&src[row0..row0 + lanes]);
                }
                guess
            });
            solver
                .solve_panel::<PANEL>(b, x0, lanes)
                .map_err(GraphError::from)
        })?;
    // The panels are only assembled once all are solved: allocating the
    // coordinates up front would hold their full size for the whole
    // build, where the finished panels grow into it.
    let mut coords = vec![0.0; n * k];
    let mut solves = Vec::with_capacity(k);
    for (p, (x, stats)) in panels.into_iter().enumerate() {
        let row0 = p * PANEL;
        let lanes = stats.len();
        for (dst, src) in coords.chunks_exact_mut(k).zip(x.chunks_exact(PANEL)) {
            dst[row0..row0 + lanes].copy_from_slice(&src[..lanes]);
        }
        solves.extend(stats);
    }
    Ok((coords, solves))
}

/// Options for [`CommuteEmbedding::compute`].
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingOptions {
    /// Embedding dimension (the paper's `k_RP`; its experiments use
    /// `k = 50` and find results invariant for `k > 10`, Fig. 5).
    pub k: usize,
    /// Seed for the Rademacher projection.
    pub seed: u64,
    /// How the Laplacian systems are solved.
    pub solver: LaplacianSolverOptions,
    /// Worker threads for the `k` independent solves, which run as
    /// lockstep panels of eight rows (1 = sequential). The result is
    /// bit-identical regardless of thread count: each row's right-hand
    /// side depends only on `(seed, row)` and each panel is solved alike
    /// on any worker.
    pub threads: usize,
}

impl Default for EmbeddingOptions {
    fn default() -> Self {
        EmbeddingOptions {
            k: 50,
            seed: 0xCAD_5EED,
            solver: LaplacianSolverOptions::default(),
            threads: 1,
        }
    }
}

/// A `k`-dimensional commute-time embedding of one graph instance.
#[derive(Debug, Clone)]
pub struct CommuteEmbedding {
    /// Row-major `n × k` coordinates.
    coords: Vec<f64>,
    n: usize,
    k: usize,
    volume: f64,
    /// The options this embedding was computed with — needed to replay
    /// the Rademacher projection for delta updates. `None` when loaded
    /// from the store (the artifact carries no options), in which case
    /// updates fall back to a rebuild.
    opts: Option<EmbeddingOptions>,
    build_stats: cad_obs::OracleBuildStats,
}

impl CommuteEmbedding {
    /// Compute the embedding for `g`.
    pub fn compute(g: &WeightedGraph, opts: &EmbeddingOptions) -> Result<Self> {
        if opts.k == 0 {
            return Err(GraphError::InvalidInput(
                "embedding dimension k must be > 0".into(),
            ));
        }
        let build_start = std::time::Instant::now();
        let n = g.n_nodes();
        let solver = LaplacianSolver::new(&g.laplacian(), opts.solver)?;
        let (coords, solves) = solve_sketch(g, opts, &solver, None)?;
        Ok(CommuteEmbedding {
            coords,
            n,
            k: opts.k,
            volume: g.volume(),
            opts: Some(*opts),
            build_stats: cad_obs::OracleBuildStats {
                backend: "embedding",
                build_secs: build_start.elapsed().as_secs_f64(),
                jl_dim: Some(opts.k),
                solves,
            },
        })
    }

    /// What the construction cost, including the per-row PCG records.
    pub fn build_stats(&self) -> &cad_obs::OracleBuildStats {
        &self.build_stats
    }

    /// Serialization view: `(coords, n, k, V_G)` (see [`crate::persist`]).
    pub(crate) fn persist_parts(&self) -> (&[f64], usize, usize, f64) {
        (&self.coords, self.n, self.k, self.volume)
    }

    /// Rebuild from stored parts. Queries are bit-identical; the build
    /// stats record zero seconds and no solves (loading performed none).
    pub(crate) fn from_persist(coords: Vec<f64>, n: usize, k: usize, volume: f64) -> Self {
        debug_assert_eq!(coords.len(), n * k);
        CommuteEmbedding {
            coords,
            n,
            k,
            volume,
            opts: None,
            build_stats: cad_obs::OracleBuildStats {
                backend: "embedding",
                build_secs: 0.0,
                jl_dim: Some(k),
                solves: Vec::new(),
            },
        }
    }

    /// Number of embedded nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Embedding dimension `k`.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Graph volume `V_G` captured at construction.
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// Embedded coordinates of node `i` (length `k`).
    pub fn coords(&self, i: usize) -> &[f64] {
        &self.coords[i * self.k..(i + 1) * self.k]
    }

    /// Approximate effective resistance `‖z_i − z_j‖²`.
    pub fn resistance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        cad_linalg::vecops::dist2_sq(self.coords(i), self.coords(j))
    }

    /// Approximate commute time `V_G · ‖z_i − z_j‖²`.
    pub fn commute_distance(&self, i: usize, j: usize) -> f64 {
        self.volume * self.resistance(i, j)
    }
}

impl UpdatableOracle for CommuteEmbedding {
    /// Warm-started re-solve: each of the `k` sketch rows is re-solved
    /// against the new Laplacian using the current coordinates as the
    /// initial CG guess. The right-hand sides are rebuilt in full from
    /// the new edge list — the Rademacher signs are indexed by edge
    /// *position*, so insertions shift every later sign and an
    /// incremental RHS patch would diverge from what a fresh build uses.
    /// Convergence is judged against `‖y‖` exactly as in a cold solve,
    /// so the warm start changes iteration counts, not accuracy.
    fn apply_delta(&mut self, delta: &EdgeDelta) -> Result<UpdateOutcome> {
        let Some(opts) = self.opts else {
            // Loaded from the store without build options: the projection
            // cannot be replayed, so the update is not expressible.
            return Ok(UpdateOutcome::RebuildRequired(RebuildReason::Unsupported));
        };
        if delta.old.n_nodes() != self.n {
            return Err(GraphError::InvalidInput(format!(
                "delta is over {} nodes but the oracle covers {}",
                delta.old.n_nodes(),
                self.n
            )));
        }
        if delta.structural {
            return Ok(UpdateOutcome::RebuildRequired(RebuildReason::Structural));
        }
        let g = delta.new;
        let solver = LaplacianSolver::new(&g.laplacian(), opts.solver)?;
        self.coords = solve_sketch(g, &opts, &solver, Some(&self.coords))?.0;
        self.volume = g.volume();
        Ok(UpdateOutcome::Applied {
            changes: delta.changes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactCommute;

    fn path(n: usize) -> WeightedGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    fn opts(k: usize, seed: u64) -> EmbeddingOptions {
        EmbeddingOptions {
            k,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn path_resistances_approximated() {
        let g = path(10);
        // Large k for a tight statistical bound in a unit test.
        let emb = CommuteEmbedding::compute(&g, &opts(400, 1)).unwrap();
        for i in 0usize..10 {
            for j in 0usize..10 {
                let want = i.abs_diff(j) as f64;
                let got = emb.resistance(i, j);
                assert!(
                    (got - want).abs() <= 0.25 * want.max(0.3),
                    "r({i},{j}) = {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_exact_engine() {
        let g = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 3, 3.0),
                (3, 4, 1.0),
                (4, 5, 2.0),
                (0, 5, 0.5),
                (1, 4, 1.0),
            ],
        )
        .unwrap();
        let exact = ExactCommute::compute(&g).unwrap();
        let emb = CommuteEmbedding::compute(&g, &opts(600, 2)).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                let e = exact.commute_distance(i, j);
                let a = emb.commute_distance(i, j);
                assert!(
                    (a - e).abs() <= 0.25 * e,
                    "c({i},{j}): approx {a} vs exact {e}"
                );
            }
        }
    }

    #[test]
    fn error_shrinks_with_k() {
        let g = path(12);
        let exact = ExactCommute::compute(&g).unwrap();
        let mean_rel_err = |k: usize| {
            // Average over several seeds to smooth JL variance.
            let mut errs = Vec::new();
            for seed in 0..5 {
                let emb = CommuteEmbedding::compute(&g, &opts(k, seed)).unwrap();
                for i in 0..12 {
                    for j in (i + 1)..12 {
                        let e = exact.resistance(i, j);
                        errs.push((emb.resistance(i, j) - e).abs() / e);
                    }
                }
            }
            errs.iter().sum::<f64>() / errs.len() as f64
        };
        let coarse = mean_rel_err(8);
        let fine = mean_rel_err(256);
        assert!(
            fine < coarse,
            "error did not shrink: k=8 → {coarse}, k=256 → {fine}"
        );
        assert!(fine < 0.12, "k=256 error too large: {fine}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = path(5);
        let a = CommuteEmbedding::compute(&g, &opts(16, 3)).unwrap();
        let b = CommuteEmbedding::compute(&g, &opts(16, 3)).unwrap();
        assert_eq!(a.resistance(0, 4).to_bits(), b.resistance(0, 4).to_bits());
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let emb = CommuteEmbedding::compute(&g, &opts(200, 4)).unwrap();
        // In-component resistances still approximated.
        assert!((emb.resistance(0, 1) - 1.0).abs() < 0.3);
        assert!((emb.resistance(2, 3) - 1.0).abs() < 0.3);
        // Cross-component values are finite (pseudoinverse extension).
        assert!(emb.resistance(0, 2).is_finite());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = path(15);
        let base = opts(32, 9);
        let seq = CommuteEmbedding::compute(&g, &base).unwrap();
        let par = CommuteEmbedding::compute(&g, &EmbeddingOptions { threads: 4, ..base }).unwrap();
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(
                    seq.resistance(i, j).to_bits(),
                    par.resistance(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn rejects_zero_k() {
        let g = path(3);
        assert!(CommuteEmbedding::compute(&g, &opts(0, 0)).is_err());
    }

    #[test]
    fn apply_delta_tracks_fresh_build() {
        let old = WeightedGraph::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
                (0, 7, 0.5),
            ],
        )
        .unwrap();
        let new = WeightedGraph::from_edges(
            8,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 2.4),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 6, 1.0),
                (6, 7, 1.0),
                (0, 7, 0.5),
                (2, 6, 0.8),
            ],
        )
        .unwrap();
        let o = opts(32, 7);
        let mut upd = CommuteEmbedding::compute(&old, &o).unwrap();
        let delta = EdgeDelta::between(&old, &new);
        assert_eq!(
            upd.apply_delta(&delta).unwrap(),
            UpdateOutcome::Applied { changes: 2 }
        );
        let fresh = CommuteEmbedding::compute(&new, &o).unwrap();
        assert_eq!(upd.volume().to_bits(), fresh.volume().to_bits());
        for i in 0..8 {
            for j in 0..8 {
                let (a, b) = (upd.commute_distance(i, j), fresh.commute_distance(i, j));
                assert!(
                    (a - b).abs() <= crate::update::UPDATE_REL_TOL * (1.0 + b),
                    "c({i},{j}): updated {a} vs fresh {b}"
                );
            }
        }
    }

    #[test]
    fn apply_delta_declines_structural_and_persisted() {
        let old = path(5);
        let o = opts(16, 11);

        // Structural: node-count change.
        let grown = path(6);
        let mut upd = CommuteEmbedding::compute(&old, &o).unwrap();
        let delta = EdgeDelta::between(&old, &grown);
        assert_eq!(
            upd.apply_delta(&delta).unwrap(),
            UpdateOutcome::RebuildRequired(crate::update::RebuildReason::Structural)
        );

        // A store-loaded embedding has no options to replay.
        let built = CommuteEmbedding::compute(&old, &o).unwrap();
        let (coords, n, k, volume) = built.persist_parts();
        let mut loaded = CommuteEmbedding::from_persist(coords.to_vec(), n, k, volume);
        let bumped =
            WeightedGraph::from_edges(5, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
                .unwrap();
        let d2 = EdgeDelta::between(&old, &bumped);
        assert_eq!(
            loaded.apply_delta(&d2).unwrap(),
            UpdateOutcome::RebuildRequired(crate::update::RebuildReason::Unsupported)
        );
    }

    #[test]
    fn accessors() {
        let g = path(4);
        let emb = CommuteEmbedding::compute(&g, &opts(12, 5)).unwrap();
        assert_eq!(emb.n_nodes(), 4);
        assert_eq!(emb.dim(), 12);
        assert_eq!(emb.coords(2).len(), 12);
        assert_eq!(emb.volume(), 6.0);
        assert_eq!(emb.resistance(1, 1), 0.0);
    }
}
