//! Per-block reduced Laplacians and the boundary interface solve.
//!
//! # The math
//!
//! Order the vertices of one graph as interiors `I = I_1 ∪ … ∪ I_p`
//! (per block) plus the boundary set `S` (endpoints of cut edges).
//! Interiors of different blocks share no edges — any cross-block edge
//! has both endpoints in `S` — so `L_II` is block-diagonal and each
//! `L_{I_k I_k}` is SPD (every interior piece of a connected component
//! touches `S`). Eliminating the interiors leaves the Schur complement
//! on the boundary,
//!
//! ```text
//! S_c = L_SS − Σ_k L_{S I_k} · L_{I_k I_k}⁻¹ · L_{I_k S}
//! ```
//!
//! which is itself a weighted Laplacian on `S` (Kron reduction), so its
//! pseudoinverse `S_c⁺` plays the same role globally that `L⁺` plays
//! monolithically; `cad_linalg::pinv::laplacian_pinv` computes it, one
//! Cholesky per connected component of `S_c`. For any right-hand side `b` that is mean-zero per
//! component,
//!
//! ```text
//! bᵀ L⁺ b = b_Iᵀ M b_I + rhsᵀ S_c⁺ rhs,
//! M = diag(L_{I_k I_k}⁻¹),   W_k = M_k L_{I_k S},
//! rhs = b_S − Σ_k W_kᵀ b_{I_k}
//! ```
//!
//! — exact, not approximate: the elimination is algebra, so the only
//! divergence from the monolithic oracle is floating-point routing
//! (documented as `PART_REL_TOL`). A block covering a *whole* component
//! has no boundary at all; it stores the component's `L⁺` directly and
//! the correction term vanishes, so whole-component blocks are exact.
//!
//! Cross-component pairs need `diag(L⁺)`; those entries are recovered
//! through the same identity with `b = e_v − 1_C / n_C` (mean-zero by
//! construction, and the zero row sums of `L⁺` make the extra terms
//! vanish), computed once at build time when the graph is disconnected.

use crate::partitioner::Partition;
use cad_commute::Result;
use cad_graph::{GraphError, WeightedGraph};
use cad_linalg::dense::CholeskyFactor;
use cad_linalg::pinv::laplacian_pinv;
use cad_linalg::DenseMatrix;

/// Where a vertex lives in the block layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc {
    /// Interior of block `block`, local row `pos`.
    Interior { block: u32, pos: u32 },
    /// Boundary vertex, row `pos` of the interface system.
    Boundary { pos: u32 },
}

/// One block's solve state.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Member vertices (global ids, ascending): the block's interior,
    /// or the entire component for a whole-component block.
    pub(crate) nodes: Vec<u32>,
    /// `true` when the block covers a whole component (then `m` is the
    /// component's `L⁺` and `w` is empty).
    pub(crate) whole: bool,
    /// `L_{I_k I_k}⁻¹` (split) or the component `L⁺` (whole).
    pub(crate) m: DenseMatrix,
    /// `W_k = M_k · L_{I_k S}`, `|I_k| × |S|` (zero-row when whole).
    pub(crate) w: DenseMatrix,
}

/// The assembled block-partitioned exact solve state.
#[derive(Debug, Clone)]
pub(crate) struct ExactBlocks {
    pub(crate) n: usize,
    pub(crate) comp_of: Vec<u32>,
    pub(crate) comp_size: Vec<usize>,
    pub(crate) blocks: Vec<Block>,
    pub(crate) loc: Vec<Loc>,
    /// Boundary vertices, ascending global ids.
    pub(crate) sep: Vec<u32>,
    /// `S_c⁺` (`0 × 0` when there is no boundary).
    pub(crate) s_pinv: DenseMatrix,
    /// `diag(L⁺)` for cross-component queries; `None` on connected
    /// graphs (no cross-component pair exists).
    pub(crate) diag: Option<Vec<f64>>,
}

/// `xᵀ A x` for symmetric `A`, skipping zero entries of `x`.
fn quad(a: &DenseMatrix, x: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = a.row(i);
        let mut s = 0.0;
        for (aij, xj) in row.iter().zip(x) {
            s += aij * xj;
        }
        acc += xi * s;
    }
    acc
}

/// Stable label value for the `part_block_solve_secs{block=…}` family.
pub(crate) fn block_label(k: usize) -> &'static str {
    match k {
        0 => "0",
        1 => "1",
        2 => "2",
        3 => "3",
        4 => "4",
        5 => "5",
        6 => "6",
        7 => "7",
        _ => "other",
    }
}

impl ExactBlocks {
    /// Factor every block and the interface system for `g` under
    /// `part`. Per-block factorizations are independent work units
    /// fanned out over `cad_linalg::par` (index-order merge, so the
    /// result is bit-identical for any thread count).
    pub(crate) fn build(g: &WeightedGraph, part: &Partition, threads: usize) -> Result<Self> {
        let n = g.n_nodes();
        let sep: Vec<u32> = (0..n as u32)
            .filter(|&v| part.boundary[v as usize])
            .collect();
        let ns = sep.len();
        let mut spos = vec![u32::MAX; n];
        for (q, &v) in sep.iter().enumerate() {
            spos[v as usize] = q as u32;
        }

        // A component is split exactly when it owns boundary vertices.
        let mut comp_split = vec![false; part.n_components];
        for &v in &sep {
            comp_split[part.component_of[v as usize] as usize] = true;
        }

        // Interior membership per block, ascending global ids.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); part.n_blocks];
        for v in 0..n {
            if !part.boundary[v] {
                members[part.block_of[v] as usize].push(v as u32);
            }
        }

        let mut loc = vec![Loc::Boundary { pos: 0 }; n];
        for (q, &v) in sep.iter().enumerate() {
            loc[v as usize] = Loc::Boundary { pos: q as u32 };
        }
        for (k, nodes) in members.iter().enumerate() {
            for (p, &v) in nodes.iter().enumerate() {
                loc[v as usize] = Loc::Interior {
                    block: k as u32,
                    pos: p as u32,
                };
            }
        }

        // One work unit per block: assemble the local reduced Laplacian
        // and factor it. Whole-component blocks take the pseudoinverse
        // route; split interiors are SPD and take plain Cholesky.
        let build_block = |k: usize, nodes: &Vec<u32>| -> Result<(Block, DenseMatrix)> {
            let start = std::time::Instant::now();
            let ni = nodes.len();
            let whole = ni > 0 && !comp_split[part.component_of[nodes[0] as usize] as usize];
            let mut local = vec![u32::MAX; n];
            for (p, &v) in nodes.iter().enumerate() {
                local[v as usize] = p as u32;
            }
            let mut l_ii = DenseMatrix::zeros(ni, ni);
            let mut l_is = DenseMatrix::zeros(ni, ns);
            for (p, &v) in nodes.iter().enumerate() {
                l_ii.set(p, p, g.degree(v as usize));
                for (u, wt) in g.neighbors(v as usize) {
                    if part.boundary[u] {
                        l_is.add_to(p, spos[u] as usize, -wt);
                    } else {
                        debug_assert_ne!(local[u], u32::MAX, "interior neighbor outside block");
                        l_ii.add_to(p, local[u] as usize, -wt);
                    }
                }
            }
            let (m, w) = if ni == 0 {
                (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, ns))
            } else if whole {
                let m = laplacian_pinv(&l_ii).map_err(GraphError::from)?;
                (m, DenseMatrix::zeros(0, ns))
            } else {
                let m = CholeskyFactor::factor(&l_ii)
                    .and_then(|f| f.inverse())
                    .map_err(GraphError::from)?;
                let w = m.matmul(&l_is).map_err(GraphError::from)?;
                (m, w)
            };
            let secs = start.elapsed().as_secs_f64();
            cad_obs::count(cad_obs::Counter::PartBlockSolves, 1);
            cad_obs::observe_labeled(
                cad_obs::LabeledHist::PartBlockSolveSecs,
                block_label(k),
                secs,
            );
            cad_obs::events::record(
                cad_obs::events::EventKind::SpanClose,
                "part_block_solve",
                secs,
                k as u64,
            );
            Ok((
                Block {
                    nodes: nodes.clone(),
                    whole,
                    m,
                    w,
                },
                l_is,
            ))
        };
        let built: Vec<(Block, DenseMatrix)> =
            cad_linalg::par::par_map_result(&members, threads.max(1), build_block)?;

        // Interface system: S_c = L_SS − Σ_k L_SI(k) W(k).
        let s_pinv = if ns == 0 {
            DenseMatrix::zeros(0, 0)
        } else {
            let mut s_c = DenseMatrix::zeros(ns, ns);
            for (q, &v) in sep.iter().enumerate() {
                s_c.set(q, q, g.degree(v as usize));
                for (u, wt) in g.neighbors(v as usize) {
                    if part.boundary[u] {
                        s_c.add_to(q, spos[u] as usize, -wt);
                    }
                }
            }
            for (block, l_is) in &built {
                if block.whole || block.nodes.is_empty() {
                    continue;
                }
                // L_SI W = l_isᵀ · w, subtracted entry-wise.
                let corr = l_is
                    .transpose()
                    .matmul(&block.w)
                    .map_err(GraphError::from)?;
                for q in 0..ns {
                    for r in 0..ns {
                        s_c.add_to(q, r, -corr.get(q, r));
                    }
                }
            }
            laplacian_pinv(&s_c).map_err(GraphError::from)?
        };

        let blocks: Vec<Block> = built.into_iter().map(|(b, _)| b).collect();
        let mut comp_size = vec![0usize; part.n_components];
        for v in 0..n {
            comp_size[part.component_of[v] as usize] += 1;
        }

        let mut out = ExactBlocks {
            n,
            comp_of: part.component_of.clone(),
            comp_size,
            blocks,
            loc,
            sep,
            s_pinv,
            diag: None,
        };
        if part.n_components > 1 {
            out.diag = Some(out.compute_diag());
        }
        Ok(out)
    }

    /// `diag(L⁺)` via `p_vv = bᵀ L⁺ b` with `b = e_v − 1_C / n_C`.
    #[allow(clippy::needless_range_loop)] // v also indexes loc/comp_of
    fn compute_diag(&self) -> Vec<f64> {
        let ns = self.sep.len();
        let n_comp = self.comp_size.len();
        // Per-block row sums of M and W, and their per-component totals.
        let mut msum: Vec<Vec<f64>> = Vec::with_capacity(self.blocks.len());
        let mut sigma_c = vec![0.0; n_comp];
        let mut wsum_c = vec![vec![0.0; ns]; n_comp];
        for block in &self.blocks {
            let ni = block.nodes.len();
            let mut ms = vec![0.0; ni];
            for (p, slot) in ms.iter_mut().enumerate() {
                *slot = block.m.row(p).iter().sum();
            }
            if ni > 0 {
                let c = self.comp_of[block.nodes[0] as usize] as usize;
                sigma_c[c] += ms.iter().sum::<f64>();
                if !block.whole {
                    for p in 0..ni {
                        for (q, acc) in wsum_c[c].iter_mut().enumerate() {
                            *acc += block.w.get(p, q);
                        }
                    }
                }
            }
            msum.push(ms);
        }

        let mut diag = vec![0.0; self.n];
        let mut rhs = vec![0.0; ns];
        for v in 0..self.n {
            let c = self.comp_of[v] as usize;
            let nc = self.comp_size[c] as f64;
            match self.loc[v] {
                Loc::Interior { block, pos } => {
                    let b = &self.blocks[block as usize];
                    let (p, k) = (pos as usize, block as usize);
                    if b.whole {
                        // The block's M *is* the component L⁺.
                        diag[v] = b.m.get(p, p);
                        continue;
                    }
                    let mterm = b.m.get(p, p) - (2.0 / nc) * msum[k][p] + sigma_c[c] / (nc * nc);
                    for (q, slot) in rhs.iter_mut().enumerate() {
                        let in_c = self.comp_of[self.sep[q] as usize] as usize == c;
                        *slot =
                            if in_c { -1.0 / nc } else { 0.0 } + wsum_c[c][q] / nc - b.w.get(p, q);
                    }
                    diag[v] = (mterm + quad(&self.s_pinv, &rhs)).max(0.0);
                }
                Loc::Boundary { pos } => {
                    let mterm = sigma_c[c] / (nc * nc);
                    for (q, slot) in rhs.iter_mut().enumerate() {
                        let in_c = self.comp_of[self.sep[q] as usize] as usize == c;
                        *slot = if q == pos as usize { 1.0 } else { 0.0 }
                            + if in_c { -1.0 / nc } else { 0.0 }
                            + wsum_c[c][q] / nc;
                    }
                    diag[v] = (mterm + quad(&self.s_pinv, &rhs)).max(0.0);
                }
            }
        }
        diag
    }

    /// Effective resistance `r_eff(i, j)`, stitched across the
    /// interface. Cross-component pairs use the pseudoinverse extension
    /// `l⁺_ii + l⁺_jj`, matching the monolithic exact oracle.
    pub(crate) fn resistance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        if self.comp_of[i] != self.comp_of[j] {
            let d = self
                .diag
                .as_ref()
                .expect("diag is built whenever the graph is disconnected");
            return (d[i] + d[j]).max(0.0);
        }
        let mut mterm = 0.0;
        let (li, lj) = (self.loc[i], self.loc[j]);
        if let (Loc::Interior { block: bi, pos: pi }, Loc::Interior { block: bj, pos: pj }) =
            (li, lj)
        {
            let (pi, pj) = (pi as usize, pj as usize);
            mterm += self.blocks[bi as usize].m.get(pi, pi);
            mterm += self.blocks[bj as usize].m.get(pj, pj);
            if bi == bj {
                mterm -= 2.0 * self.blocks[bi as usize].m.get(pi, pj);
            }
        } else {
            for l in [li, lj] {
                if let Loc::Interior { block, pos } = l {
                    let p = pos as usize;
                    mterm += self.blocks[block as usize].m.get(p, p);
                }
            }
        }
        let ns = self.sep.len();
        if ns == 0 {
            return mterm.max(0.0);
        }
        // rhs = b_S − Wᵀ b_I for b = e_i − e_j.
        let mut rhs = vec![0.0; ns];
        for (l, sign) in [(li, 1.0), (lj, -1.0)] {
            match l {
                Loc::Boundary { pos } => rhs[pos as usize] += sign,
                Loc::Interior { block, pos } => {
                    let b = &self.blocks[block as usize];
                    if !b.whole {
                        for (q, slot) in rhs.iter_mut().enumerate() {
                            *slot -= sign * b.w.get(pos as usize, q);
                        }
                    }
                }
            }
        }
        (mterm + quad(&self.s_pinv, &rhs)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::partition;
    use cad_commute::{ExactCommute, PartitionSpec};

    fn check_against_exact(g: &WeightedGraph, spec: PartitionSpec, tol: f64) {
        let part = partition(g, spec).unwrap();
        let blocks = ExactBlocks::build(g, &part, 1).unwrap();
        let exact = ExactCommute::compute(g).unwrap();
        for i in 0..g.n_nodes() {
            for j in 0..g.n_nodes() {
                let (a, b) = (blocks.resistance(i, j), exact.resistance(i, j));
                assert!(
                    (a - b).abs() <= tol * (1.0 + b),
                    "r({i},{j}): partitioned {a} vs exact {b} ({} blocks)",
                    part.n_blocks
                );
            }
        }
    }

    fn ring_of_clusters() -> WeightedGraph {
        // Three 4-cliques joined in a ring by single edges — a connected
        // graph with a natural small cut.
        let mut edges = Vec::new();
        for c in 0..3usize {
            let base = 4 * c;
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b, 1.0 + 0.1 * (a + b) as f64));
                }
            }
        }
        edges.push((3, 4, 0.5));
        edges.push((7, 8, 0.7));
        edges.push((11, 0, 0.9));
        WeightedGraph::from_edges(12, &edges).unwrap()
    }

    #[test]
    fn bfs_split_matches_exact_on_connected_graph() {
        let g = ring_of_clusters();
        for blocks in [2, 3, 5] {
            check_against_exact(&g, PartitionSpec { blocks }, 1e-8);
        }
    }

    #[test]
    fn components_mode_matches_exact_on_disconnected_graph() {
        let g = WeightedGraph::from_edges(
            9,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 0.5),
                (3, 4, 1.0),
                (4, 5, 1.5),
                (6, 7, 1.0),
                (7, 8, 1.0),
                (6, 8, 2.0),
            ],
        )
        .unwrap();
        check_against_exact(&g, PartitionSpec { blocks: 3 }, 1e-8);
    }

    #[test]
    fn bfs_split_of_disconnected_graph_matches_exact() {
        // Components split further than component count: cross-component
        // queries exercise the diag path alongside interface stitching.
        let mut edges = Vec::new();
        for i in 0..7usize {
            edges.push((i, i + 1, 1.0 + 0.05 * i as f64));
        }
        for i in 8..13usize {
            edges.push((i, i + 1, 0.8));
        }
        edges.push((8, 13, 0.3));
        let g = WeightedGraph::from_edges(14, &edges).unwrap();
        check_against_exact(&g, PartitionSpec { blocks: 4 }, 1e-8);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let g = ring_of_clusters();
        let part = partition(&g, PartitionSpec { blocks: 3 }).unwrap();
        let seq = ExactBlocks::build(&g, &part, 1).unwrap();
        let par = ExactBlocks::build(&g, &part, 4).unwrap();
        for i in 0..12 {
            for j in 0..12 {
                assert_eq!(
                    seq.resistance(i, j).to_bits(),
                    par.resistance(i, j).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }
}
