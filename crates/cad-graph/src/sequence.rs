//! Temporal sequences of graph instances over a shared vertex set.

use crate::error::GraphError;
use crate::graph::WeightedGraph;
use crate::Result;

/// A temporal sequence `G_1, …, G_T` of weighted undirected graphs over
/// one fixed vertex set — the input of every dynamic-graph detector in
/// this workspace (paper §2).
#[derive(Debug, Clone)]
pub struct GraphSequence {
    graphs: Vec<WeightedGraph>,
    n_nodes: usize,
}

impl GraphSequence {
    /// Wrap a list of instances, validating that all share a vertex-set
    /// size and that there are at least two (one transition).
    pub fn new(graphs: Vec<WeightedGraph>) -> Result<Self> {
        if graphs.len() < 2 {
            return Err(GraphError::SequenceTooShort {
                required: 2,
                found: graphs.len(),
            });
        }
        let n_nodes = graphs[0].n_nodes();
        for (t, g) in graphs.iter().enumerate() {
            if g.n_nodes() != n_nodes {
                return Err(GraphError::MixedNodeCounts {
                    expected: n_nodes,
                    found: g.n_nodes(),
                    at: t,
                });
            }
        }
        Ok(GraphSequence { graphs, n_nodes })
    }

    /// Number of instances `T`.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// Always false: construction requires ≥ 2 instances.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of transitions `T − 1`.
    pub fn n_transitions(&self) -> usize {
        self.graphs.len() - 1
    }

    /// Shared vertex-set size `n`.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Instance at time `t` (0-based).
    pub fn graph(&self, t: usize) -> &WeightedGraph {
        &self.graphs[t]
    }

    /// All instances.
    pub fn graphs(&self) -> &[WeightedGraph] {
        &self.graphs
    }

    /// Iterate consecutive pairs `(t, G_t, G_{t+1})`.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, &WeightedGraph, &WeightedGraph)> {
        self.graphs
            .windows(2)
            .enumerate()
            .map(|(t, w)| (t, &w[0], &w[1]))
    }

    /// Undirected edges whose weight differs between `G_t` and `G_{t+1}`,
    /// as `(u, v, w_t, w_{t+1})` with `u < v`.
    ///
    /// This is the support of the `|A_{t+1} − A_t|` factor of the CAD
    /// score: every edge outside this set has `ΔE_t = 0` regardless of
    /// commute times, which is what keeps scoring `O(m)`.
    pub fn changed_edges(&self, t: usize) -> Vec<(usize, usize, f64, f64)> {
        let mut out = Vec::new();
        self.graphs[t].for_each_edge_pair(&self.graphs[t + 1], |u, v, w_t, w_t1| {
            if w_t != w_t1 {
                out.push((u, v, w_t, w_t1));
            }
        });
        out
    }

    /// Average number of non-zero-weight edges per instance (paper's `m`).
    pub fn mean_edges(&self) -> f64 {
        let total: usize = self.graphs.iter().map(|g| g.n_edges()).sum();
        total as f64 / self.graphs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(edges: &[(usize, usize, f64)]) -> WeightedGraph {
        WeightedGraph::from_edges(4, edges).unwrap()
    }

    fn seq() -> GraphSequence {
        GraphSequence::new(vec![
            g(&[(0, 1, 1.0), (1, 2, 2.0)]),
            g(&[(0, 1, 1.0), (1, 2, 3.0), (2, 3, 0.5)]),
            g(&[(0, 1, 1.0), (1, 2, 3.0), (2, 3, 0.5)]),
        ])
        .unwrap()
    }

    #[test]
    fn lengths_and_access() {
        let s = seq();
        assert_eq!(s.len(), 3);
        assert_eq!(s.n_transitions(), 2);
        assert_eq!(s.n_nodes(), 4);
        assert_eq!(s.graph(0).n_edges(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn rejects_too_short() {
        assert!(matches!(
            GraphSequence::new(vec![g(&[])]),
            Err(GraphError::SequenceTooShort { .. })
        ));
    }

    #[test]
    fn rejects_mixed_sizes() {
        let g5 = WeightedGraph::from_edges(5, &[]).unwrap();
        assert!(matches!(
            GraphSequence::new(vec![g(&[]), g5]),
            Err(GraphError::MixedNodeCounts { at: 1, .. })
        ));
    }

    #[test]
    fn transitions_iterate_pairs() {
        let s = seq();
        let ts: Vec<usize> = s.transitions().map(|(t, _, _)| t).collect();
        assert_eq!(ts, vec![0, 1]);
    }

    #[test]
    fn changed_edges_first_transition() {
        let s = seq();
        let ch = s.changed_edges(0);
        assert_eq!(ch, vec![(1, 2, 2.0, 3.0), (2, 3, 0.0, 0.5)]);
    }

    #[test]
    fn changed_edges_empty_on_identical() {
        let s = seq();
        assert!(s.changed_edges(1).is_empty());
    }

    #[test]
    fn mean_edges_average() {
        let s = seq();
        assert!((s.mean_edges() - (2.0 + 3.0 + 3.0) / 3.0).abs() < 1e-12);
    }
}
