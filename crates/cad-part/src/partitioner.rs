//! Graph partitioner: a greedy BFS balanced-block splitter.
//!
//! Fully deterministic: components are numbered by smallest contained
//! vertex id, BFS seeds each component at its smallest vertex and visits
//! neighbors in CSR adjacency order, and blocks are consecutive chunks
//! of that order. The same graph and spec therefore always yield the
//! same layout, which is what lets the `cad-store` cache key partitioned
//! artifacts by `(snapshot, engine, spec)` alone.

use cad_commute::PartitionSpec;
use cad_commute::Result;
use cad_graph::{GraphError, WeightedGraph};

/// A concrete block layout for one graph instance.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Realised block count (the spec's target, rounded to whole
    /// per-component chunks).
    pub n_blocks: usize,
    /// Block id per vertex. Every block is contained in exactly one
    /// connected component.
    pub block_of: Vec<u32>,
    /// Connected-component id per vertex (as [`WeightedGraph::components`]).
    pub component_of: Vec<u32>,
    /// Number of connected components.
    pub n_components: usize,
    /// Number of cut edges (endpoints in different blocks). `0` exactly
    /// when every block is a whole component.
    pub cut_edges: usize,
    /// `true` for endpoints of cut edges — the boundary-vertex
    /// interface set `S`.
    pub boundary: Vec<bool>,
}

/// Partition `g` into about `spec.blocks` blocks. Rejects
/// `blocks == 0`.
pub fn partition(g: &WeightedGraph, spec: PartitionSpec) -> Result<Partition> {
    if spec.blocks == 0 {
        return Err(GraphError::InvalidInput(
            "partition block count must be ≥ 1".into(),
        ));
    }
    let n = g.n_nodes();
    let (component_of, n_components) = g.components();
    let (block_of, n_blocks) = bfs_blocks(g, &component_of, spec.blocks);

    let mut boundary = vec![false; n];
    let mut cut_edges = 0usize;
    for (u, v, _) in g.edges() {
        if block_of[u] != block_of[v] {
            cut_edges += 1;
            boundary[u] = true;
            boundary[v] = true;
        }
    }

    Ok(Partition {
        n_blocks,
        block_of,
        component_of,
        n_components,
        cut_edges,
        boundary,
    })
}

/// Greedy balanced splitter: per-component BFS order, cut into
/// consecutive chunks of `⌈n / target⌉`. Components are visited in
/// order of their smallest vertex, so block ids are stable; a component
/// smaller than one chunk stays a single (whole-component, hence exact)
/// block.
fn bfs_blocks(g: &WeightedGraph, component_of: &[u32], target: usize) -> (Vec<u32>, usize) {
    let n = g.n_nodes();
    let chunk = n.div_ceil(target).max(1);
    let mut block_of = vec![u32::MAX; n];
    let mut next_block = 0u32;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        // BFS over seed's component, in adjacency order.
        let mut order = Vec::new();
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for (u, _) in g.neighbors(v) {
                if !visited[u] && component_of[u] == component_of[seed] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
        for piece in order.chunks(chunk) {
            for &v in piece {
                block_of[v] = next_block;
            }
            next_block += 1;
        }
    }
    (block_of, next_block as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles(bridge: bool) -> WeightedGraph {
        let mut edges = vec![
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),
        ];
        if bridge {
            edges.push((2, 3, 0.5));
        }
        WeightedGraph::from_edges(6, &edges).unwrap()
    }

    #[test]
    fn components_mode_has_no_cut() {
        // As many blocks as components: each component fits one chunk,
        // so blocks are whole components.
        let g = two_triangles(false);
        let p = partition(&g, PartitionSpec { blocks: 2 }).unwrap();
        assert_eq!(p.n_blocks, 2);
        assert_eq!(p.cut_edges, 0);
        assert!(p.boundary.iter().all(|&b| !b));
        assert_eq!(p.block_of[0], p.block_of[2]);
        assert_ne!(p.block_of[0], p.block_of[3]);
    }

    #[test]
    fn bfs_blocks_are_balanced_and_component_local() {
        let g = two_triangles(true);
        let p = partition(&g, PartitionSpec { blocks: 3 }).unwrap();
        assert_eq!(p.n_blocks, 3);
        assert!(p.cut_edges > 0, "a split connected graph has a cut");
        let mut sizes = vec![0usize; p.n_blocks];
        for v in 0..6 {
            sizes[p.block_of[v] as usize] += 1;
            for w in 0..6 {
                if p.block_of[v] == p.block_of[w] {
                    assert_eq!(p.component_of[v], p.component_of[w]);
                }
            }
        }
        assert!(sizes.iter().all(|&s| s > 0 && s <= 2));
        // Boundary = endpoints of cut edges only.
        for v in 0..6 {
            let cut = g.neighbors(v).any(|(u, _)| p.block_of[u] != p.block_of[v]);
            assert_eq!(p.boundary[v], cut, "vertex {v}");
        }
    }

    #[test]
    fn deterministic_layout() {
        let g = two_triangles(true);
        let a = partition(&g, PartitionSpec { blocks: 2 }).unwrap();
        let b = partition(&g, PartitionSpec { blocks: 2 }).unwrap();
        assert_eq!(a.block_of, b.block_of);
        assert_eq!(a.cut_edges, b.cut_edges);
    }

    #[test]
    fn rejects_zero_blocks() {
        let g = two_triangles(false);
        assert!(partition(&g, PartitionSpec { blocks: 0 }).is_err());
    }

    #[test]
    fn oversubscribed_blocks_degenerate_to_singletons() {
        let g = two_triangles(true);
        let p = partition(&g, PartitionSpec { blocks: 100 }).unwrap();
        assert_eq!(p.n_blocks, 6);
        assert_eq!(p.cut_edges, g.n_edges());
    }
}
