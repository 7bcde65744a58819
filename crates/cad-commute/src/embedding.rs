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

use crate::Result;
use cad_graph::{GraphError, WeightedGraph};
use cad_linalg::rp::RademacherSource;
use cad_linalg::solve::{CgOptions, LaplacianSolver, LaplacianSolverOptions};

/// Sketch rows solved together by one lockstep PCG run: eight `f64` fill
/// one AVX-512 register. Wider panels measured no faster and cost heap
/// (DESIGN.md §7). A last panel with fewer rows runs at the smallest of
/// the widths 1, 2, 4 and 8 that holds them.
const PANEL: usize = 8;

/// Relative residual each sketch row is solved to by default.
///
/// The `k = 50` sketch is itself 11–13% off on `c` and about 22% off on
/// `Δc`; a solve error well below that changes no score ranking
/// (Spielman–Srivastava). A sweep over 3 graph seeds × 5 sketch seeds on
/// `n = 2000` random graphs with `m = 4n` and `m = n` (EXPERIMENTS.md,
/// "Sketch solve tolerance") read the same median error of `Δc` and the
/// same top-20 overlap with exact scoring at this value as at `1e-8`,
/// with 38–43% fewer CG iterations. At `1e-3` the `m = n` error of `Δc`
/// rose and `exp_fig5`'s AUC fell by up to 0.032.
pub const SKETCH_SOLVE_TOL: f64 = 1e-4;

/// The Rademacher column of edge `(u, v)`: the unordered pair itself, so
/// an edge keeps its signs in every instance it appears in, whatever its
/// position in the edge order.
fn pair_key(u: usize, v: usize) -> u64 {
    ((u.min(v) as u64) << 32) | u.max(v) as u64
}

/// Right-hand sides `y_r = (Q W^{1/2} B)_r` of the sketch rows
/// `first_row..first_row + W` (rows past `opts.k` are left zero), as a
/// row-major `n × W` panel: column `j` is row `first_row + j`.
///
/// One pass over the edge list: edge `e = (u, v, w)` adds
/// `q·√w` to `y[u]` and subtracts it from `y[v]`, where
/// `q = ±1/√k` is the Rademacher sign of `(row, pair_key(u, v))`.
/// Keying by the pair rather than the edge's position gives two
/// instances of a sequence common signs on the edges they share, so
/// their sketch errors largely cancel in `Δc` (DESIGN.md §5). The
/// embedding build and the tests and benches that re-solve its rows all
/// build their right-hand sides here, so they see the same sign stream
/// and bits.
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
    for (u, v, w) in g.edges() {
        let sqrt_w = w.sqrt();
        let col = pair_key(u, v);
        for j in 0..lanes {
            let q = signs.sign((first_row + j) as u64, col) * inv_sqrt_k;
            let s = q * sqrt_w;
            y[u * W + j] += s;
            y[v * W + j] -= s;
        }
    }
    y
}

/// Solve the sketch rows `row0..row0 + lanes` as one `W`-wide panel.
fn solve_rows<const W: usize>(
    g: &WeightedGraph,
    opts: &EmbeddingOptions,
    solver: &LaplacianSolver,
    row0: usize,
    lanes: usize,
) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
    let b = sketch_rhs_panel::<W>(g, opts, row0);
    solver
        .solve_panel::<W>(b, None, lanes)
        .map_err(GraphError::from)
}

/// Solve the `opts.k` sketch rows against `solver`, [`PANEL`] rows per
/// lockstep run. Returns the row-major `n × k` coordinates and the
/// per-row PCG records in row order. Lanes are independent, so a row's
/// bits do not depend on its panel's width. Workers take whole panels
/// and the pool returns them in panel order, so the result is
/// thread-count invariant.
fn solve_sketch(
    g: &WeightedGraph,
    opts: &EmbeddingOptions,
    solver: &LaplacianSolver,
) -> Result<(Vec<f64>, Vec<cad_obs::SolveStats>)> {
    let (n, k) = (g.n_nodes(), opts.k);
    let panels =
        cad_linalg::par::par_tabulate_result(k.div_ceil(PANEL), opts.threads.max(1), |p| {
            let row0 = p * PANEL;
            let lanes = PANEL.min(k - row0);
            let width = lanes.next_power_of_two();
            let solved = match width {
                1 => solve_rows::<1>(g, opts, solver, row0, lanes),
                2 => solve_rows::<2>(g, opts, solver, row0, lanes),
                4 => solve_rows::<4>(g, opts, solver, row0, lanes),
                _ => solve_rows::<PANEL>(g, opts, solver, row0, lanes),
            };
            solved.map(|(x, stats)| (width, x, stats))
        })?;
    // The panels are only assembled once all are solved: allocating the
    // coordinates up front would hold their full size for the whole
    // build, where the finished panels grow into it.
    let mut coords = vec![0.0; n * k];
    let mut solves = Vec::with_capacity(k);
    for (p, (width, x, stats)) in panels.into_iter().enumerate() {
        let row0 = p * PANEL;
        let lanes = stats.len();
        for (dst, src) in coords.chunks_exact_mut(k).zip(x.chunks_exact(width)) {
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
            solver: LaplacianSolverOptions {
                cg: CgOptions {
                    tol: SKETCH_SOLVE_TOL,
                    ..Default::default()
                },
                ..Default::default()
            },
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
        let (coords, solves) = solve_sketch(g, opts, &solver)?;
        Ok(CommuteEmbedding {
            coords,
            n,
            k: opts.k,
            volume: g.volume(),
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
    fn pair_keyed_signs_are_balanced_and_independent() {
        let signs = RademacherSource::new(EmbeddingOptions::default().seed);
        let pairs: Vec<(usize, usize)> = (0..100)
            .flat_map(|u| (u + 1..u + 101).map(move |v| (u, v)))
            .collect();
        let sign = |row: u64, (u, v): (usize, usize)| signs.sign(row, pair_key(u, v));
        // 4σ of a sum of 10k independent ±1 terms.
        let bound = 4.0 * (pairs.len() as f64).sqrt();
        for row in 0..4 {
            let balance: f64 = pairs.iter().map(|&p| sign(row, p)).sum();
            assert!(balance.abs() < bound, "row {row}: balance {balance}");
            let across_rows: f64 = pairs.iter().map(|&p| sign(row, p) * sign(row + 1, p)).sum();
            assert!(
                across_rows.abs() < bound,
                "rows {row}, {}: {across_rows}",
                row + 1
            );
            for (du, dv) in [(0, 1), (1, 0), (1, 1)] {
                let neighbours: f64 = pairs
                    .iter()
                    .map(|&(u, v)| sign(row, (u, v)) * sign(row, (u + du, v + dv)))
                    .sum();
                assert!(
                    neighbours.abs() < bound,
                    "row {row}, pairs offset by ({du}, {dv}): {neighbours}"
                );
            }
        }
        // The key is the unordered pair.
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(3, 10));
    }

    /// Median relative error of the embedding's `Δc` over the changed
    /// edges of a sparse pair (n = 500, m = 4n): 1% of the weights scaled
    /// by factors in [0.5, 2], plus three planted weight-5 edges.
    fn median_change_error(opts: &EmbeddingOptions) -> f64 {
        let g0 = cad_graph::generators::random::sparse_random_graph(500, 2000, 11).unwrap();
        assert_eq!(g0.components().1, 1, "the base instance is connected");
        let mut edges: Vec<(usize, usize, f64)> = g0.edges().collect();
        for (i, e) in edges.iter_mut().enumerate().filter(|(i, _)| i % 100 == 0) {
            let frac = (i as f64 * 0.618_033_988_749_895).fract();
            e.2 *= 0.5 + 1.5 * frac;
        }
        let mut planted = Vec::new();
        for u in [17usize, 123, 301] {
            let v = (u + 1..500)
                .find(|&v| g0.adjacency().get(u, v) == 0.0)
                .unwrap();
            edges.push((u, v, 5.0));
            planted.push((u, v));
        }
        let g1 = WeightedGraph::from_edges(500, &edges).unwrap();
        let changed: Vec<(usize, usize)> = g0
            .edges()
            .filter(|&(u, v, w)| g1.adjacency().get(u, v) != w)
            .map(|(u, v, _)| (u, v))
            .chain(planted)
            .collect();
        assert_eq!(changed.len(), 20 + 3);
        let (x0, x1) = (
            ExactCommute::compute(&g0).unwrap(),
            ExactCommute::compute(&g1).unwrap(),
        );
        let (e0, e1) = (
            CommuteEmbedding::compute(&g0, opts).unwrap(),
            CommuteEmbedding::compute(&g1, opts).unwrap(),
        );
        let mut errs: Vec<f64> = changed
            .iter()
            .map(|&(u, v)| {
                let exact = x1.commute_distance(u, v) - x0.commute_distance(u, v);
                let approx = e1.commute_distance(u, v) - e0.commute_distance(u, v);
                (approx - exact).abs() / exact.abs()
            })
            .collect();
        errs.sort_by(f64::total_cmp);
        errs[errs.len() / 2]
    }

    #[test]
    fn default_sketch_tracks_the_exact_change_in_commute_time() {
        // Pair keys read 0.19–0.31 here (sketch seeds 1–3), signs keyed
        // by edge position 1.1–1.9: pair keys cancel the shared edges'
        // errors in Δc.
        for seed in 1..=3 {
            let err = median_change_error(&EmbeddingOptions {
                seed,
                ..Default::default()
            });
            assert!(err < 0.5, "seed {seed}: median relative error of Δc {err}");
        }
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
