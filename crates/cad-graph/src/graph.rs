//! The immutable weighted undirected graph type.

use crate::error::GraphError;
use crate::Result;
use cad_linalg::solve::laplacian::connected_components;
use cad_linalg::{CooMatrix, CsrMatrix, DenseMatrix};

/// An immutable weighted undirected graph over a fixed vertex set,
/// backed by a symmetric CSR adjacency matrix with zero diagonal.
///
/// This is the `G_t` of the paper: node set `V = {0, .., n-1}`, edge
/// weights `A_t(i, j) ≥ 0`, with `A_t(i, j) = 0` meaning "no edge".
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    adj: CsrMatrix,
}

impl WeightedGraph {
    /// Wrap a symmetric adjacency matrix, validating symmetry, a zero
    /// diagonal and non-negative finite weights.
    pub fn from_adjacency(adj: CsrMatrix) -> Result<Self> {
        if adj.nrows() != adj.ncols() {
            return Err(GraphError::Linalg(cad_linalg::LinalgError::NotSquare {
                rows: adj.nrows(),
                cols: adj.ncols(),
            }));
        }
        for (i, j, v) in adj.iter() {
            if i == j {
                return Err(GraphError::SelfLoop { node: i });
            }
            if !v.is_finite() || v < 0.0 {
                return Err(GraphError::InvalidWeight {
                    edge: (i, j),
                    weight: v,
                });
            }
            if (adj.get(j, i) - v).abs() > 1e-12 * v.abs().max(1.0) {
                return Err(GraphError::InvalidInput(format!(
                    "adjacency not symmetric at ({i}, {j}): {v} vs {}",
                    adj.get(j, i)
                )));
            }
        }
        Ok(WeightedGraph { adj })
    }

    /// Wrap an adjacency matrix that is known-valid by construction
    /// (used by [`crate::GraphBuilder`], which enforces the invariants
    /// edge by edge).
    pub(crate) fn from_adjacency_unchecked(adj: CsrMatrix) -> Self {
        WeightedGraph { adj }
    }

    /// Build directly from an undirected edge list.
    pub fn from_edges(n_nodes: usize, edges: &[(usize, usize, f64)]) -> Result<Self> {
        let mut b = crate::GraphBuilder::with_capacity(n_nodes, edges.len());
        b.add_edges(edges.iter().copied())?;
        Ok(b.build())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.adj.nrows()
    }

    /// Number of undirected edges with non-zero weight (the paper's `m`).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj.nnz() / 2
    }

    /// The symmetric adjacency matrix `A`.
    #[inline]
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adj
    }

    /// Weight of edge `{u, v}` (0.0 when absent).
    #[inline]
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.adj.get(u, v)
    }

    /// True when `{u, v}` has non-zero weight.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.weight(u, v) != 0.0
    }

    /// Neighbours of `u` with their edge weights.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.adj.row(u);
        cols.iter().zip(vals).map(|(&c, &v)| (c as usize, v))
    }

    /// Weighted degree `D(u, u) = Σ_v A(u, v)`.
    #[inline]
    pub fn degree(&self, u: usize) -> f64 {
        self.adj.row(u).1.iter().sum()
    }

    /// All weighted degrees.
    pub fn degrees(&self) -> Vec<f64> {
        self.adj.row_sums()
    }

    /// Number of neighbours of `u` (unweighted degree).
    #[inline]
    pub fn degree_count(&self, u: usize) -> usize {
        self.adj.row(u).0.len()
    }

    /// Graph volume `V_G = Σ_i D(i, i)` (paper eq. 3).
    pub fn volume(&self) -> f64 {
        self.adj.sum()
    }

    /// Iterate undirected edges once each as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.adj.iter_upper()
    }

    /// Walk the union of this graph's edges and `next`'s once, ascending
    /// by `(u, v)` with `u < v`, calling `f(u, v, w_self, w_next)` with
    /// `0.0` on the side where the edge is absent.
    ///
    /// This one merge over the two CSR rows is every transition diff in
    /// the workspace: filter `w_self != w_next` for the changed edges
    /// (the support of `|A_{t+1} − A_t|`), or take every call for the
    /// union of both supports. The graphs may differ in node count; a
    /// row one of them lacks is empty.
    pub fn for_each_edge_pair(
        &self,
        next: &WeightedGraph,
        mut f: impl FnMut(usize, usize, f64, f64),
    ) {
        fn upper(g: &WeightedGraph, u: usize) -> (&[u32], &[f64]) {
            if u >= g.n_nodes() {
                return (&[], &[]);
            }
            let (cols, vals) = g.adj.row(u);
            let from = cols.partition_point(|&c| c as usize <= u);
            (&cols[from..], &vals[from..])
        }
        for u in 0..self.n_nodes().max(next.n_nodes()) {
            let (ac, av) = upper(self, u);
            let (bc, bv) = upper(next, u);
            let (mut p, mut q) = (0, 0);
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => {
                        f(u, ac[p] as usize, av[p], 0.0);
                        p += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        f(u, bc[q] as usize, 0.0, bv[q]);
                        q += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        f(u, ac[p] as usize, av[p], bv[q]);
                        p += 1;
                        q += 1;
                    }
                }
            }
            for (&c, &w) in ac[p..].iter().zip(&av[p..]) {
                f(u, c as usize, w, 0.0);
            }
            for (&c, &w) in bc[q..].iter().zip(&bv[q..]) {
                f(u, c as usize, 0.0, w);
            }
        }
    }

    /// The combinatorial graph Laplacian `L = D − A` as sparse CSR.
    pub fn laplacian(&self) -> CsrMatrix {
        let n = self.n_nodes();
        let mut coo = CooMatrix::with_capacity(n, n, self.adj.nnz() + n);
        for (i, j, w) in self.adj.iter() {
            coo.push(i, j, -w).expect("in-range by construction");
        }
        for (i, d) in self.degrees().into_iter().enumerate() {
            if d != 0.0 {
                coo.push(i, i, d).expect("in-range by construction");
            }
        }
        coo.to_csr()
    }

    /// The Laplacian as a dense matrix (small graphs / exact paths only).
    pub fn laplacian_dense(&self) -> DenseMatrix {
        let n = self.n_nodes();
        let mut l = DenseMatrix::zeros(n, n);
        for (i, j, w) in self.adj.iter() {
            l.set(i, j, -w);
            l.add_to(i, i, w);
        }
        l
    }

    /// Connected components: `(component id per node, component count)`.
    pub fn components(&self) -> (Vec<u32>, usize) {
        connected_components(&self.adj)
    }

    /// True when the graph is connected (and non-empty).
    pub fn is_connected(&self) -> bool {
        let (_, k) = self.components();
        k == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> WeightedGraph {
        WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.degree(0), 4.0);
        assert_eq!(g.degree(1), 3.0);
        assert_eq!(g.degree(2), 5.0);
        assert_eq!(g.volume(), 12.0);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.degree_count(1), 2);
    }

    #[test]
    fn edges_iterate_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn edge_pairs_walk_the_union_in_order() {
        let a = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]).unwrap();
        let b = WeightedGraph::from_edges(5, &[(0, 1, 1.5), (0, 3, 0.5), (2, 3, 1.0), (3, 4, 2.0)])
            .unwrap();
        let mut seen = Vec::new();
        a.for_each_edge_pair(&b, |u, v, wa, wb| seen.push((u, v, wa, wb)));
        assert_eq!(
            seen,
            vec![
                (0, 1, 1.0, 1.5),
                (0, 3, 0.0, 0.5),
                (1, 2, 2.0, 0.0),
                (2, 3, 1.0, 1.0),
                (3, 4, 0.0, 2.0),
            ]
        );
    }

    #[test]
    fn neighbors_of_node() {
        let g = triangle();
        let n: Vec<_> = g.neighbors(1).collect();
        assert_eq!(n, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = triangle();
        let l = g.laplacian();
        for i in 0..3 {
            let (_, vals) = l.row(i);
            let s: f64 = vals.iter().sum();
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(l.get(0, 0), 4.0);
        assert_eq!(l.get(0, 1), -1.0);
        // Dense and sparse agree.
        assert!(l.to_dense().max_abs_diff(&g.laplacian_dense()).unwrap() < 1e-15);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let h = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        assert!(!h.is_connected());
        let (comp, k) = h.components();
        assert_eq!(k, 2);
        assert_eq!(comp[0], comp[1]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn from_adjacency_validates() {
        // Asymmetric.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(WeightedGraph::from_adjacency(bad).is_err());
        // Self-loop.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]);
        assert!(WeightedGraph::from_adjacency(bad).is_err());
        // Negative weight.
        let bad = CsrMatrix::from_triplets(2, 2, &[(0, 1, -1.0), (1, 0, -1.0)]);
        assert!(WeightedGraph::from_adjacency(bad).is_err());
        // Valid.
        let ok = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(WeightedGraph::from_adjacency(ok).is_ok());
    }

    #[test]
    fn builder_and_from_edges_agree() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(0, 2, 3.0).unwrap();
        assert_eq!(b.build(), triangle());
    }
}
