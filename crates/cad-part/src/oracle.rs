//! [`PartitionedOracle`] — a [`DistanceOracle`] whose solves run
//! block-by-block as independent work units.

use crate::blocks::ExactBlocks;
use crate::partitioner::partition;
use cad_commute::{
    CommuteTimeEngine, DistanceOracle, EngineOptions, OracleKind, PartitionInfo, PartitionSpec,
    Result, SharedOracle,
};
use cad_graph::WeightedGraph;
use cad_obs::Counter;

/// A block-partitioned exact commute-time oracle.
///
/// Same query semantics as the monolithic exact oracle — `distance` is
/// the commute distance `V_G · r_eff` — but every per-block
/// factorization is an independent work unit fanned out over
/// `cad_linalg::par` (index-order merge, so results are bit-identical
/// for any thread count). Divergence from the *unpartitioned* oracle is
/// bounded by [`crate::PART_REL_TOL`], and is exactly zero when every
/// block is a whole connected component.
#[derive(Debug, Clone)]
pub struct PartitionedOracle {
    pub(crate) volume: f64,
    pub(crate) info: PartitionInfo,
    pub(crate) blocks: ExactBlocks,
    pub(crate) build_stats: cad_obs::OracleBuildStats,
}

impl PartitionedOracle {
    /// Build a partitioned oracle for `g`.
    ///
    /// Only the exact engine has a block formulation: `Exact` and the
    /// small side of `Auto` take the per-block Schur route. Every other
    /// request — the embedding (`Approximate`, the large side of `Auto`)
    /// and the ablation engines — falls back to the monolithic build,
    /// and the returned oracle then reports no partition info.
    pub fn build(
        g: &WeightedGraph,
        opts: &EngineOptions,
        spec: PartitionSpec,
        threads: usize,
    ) -> Result<SharedOracle> {
        let exact = match opts {
            EngineOptions::Exact => true,
            EngineOptions::Auto { threshold, .. } => g.n_nodes() <= *threshold,
            _ => false,
        };
        if !exact {
            return CommuteTimeEngine::compute(g, opts);
        }

        let _span = cad_obs::span!("oracle_build");
        cad_obs::count(Counter::OracleBuilds, 1);
        let (oracle, secs) = cad_obs::time_it(|| -> Result<PartitionedOracle> {
            let build_start = std::time::Instant::now();
            let part = partition(g, spec)?;
            cad_obs::count(Counter::PartBlocks, part.n_blocks as u64);
            cad_obs::count(Counter::PartBoundaryEdges, part.cut_edges as u64);
            let info = PartitionInfo {
                blocks: part.n_blocks,
                boundary_edges: part.cut_edges,
            };
            let blocks = ExactBlocks::build(g, &part, threads)?;
            Ok(PartitionedOracle {
                volume: g.volume(),
                info,
                blocks,
                build_stats: cad_obs::OracleBuildStats {
                    backend: "partitioned-exact",
                    build_secs: build_start.elapsed().as_secs_f64(),
                    jl_dim: None,
                    solves: Vec::new(),
                },
            })
        });
        cad_obs::observe(cad_obs::Hist::OracleBuildSecs, secs);
        oracle.map(|o| Box::new(o) as SharedOracle)
    }

    /// Effective resistance, stitched across the block interface.
    pub fn resistance(&self, i: usize, j: usize) -> f64 {
        self.blocks.resistance(i, j)
    }

    /// Realised block layout facts.
    pub fn info(&self) -> PartitionInfo {
        self.info
    }
}

impl DistanceOracle for PartitionedOracle {
    fn n_nodes(&self) -> usize {
        self.blocks.n
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        self.volume * self.resistance(i, j)
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Exact
    }

    fn volume(&self) -> Option<f64> {
        Some(self.volume)
    }

    fn resistance(&self, i: usize, j: usize) -> f64 {
        PartitionedOracle::resistance(self, i, j)
    }

    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        Some(&self.build_stats)
    }

    fn to_store_bytes(&self) -> Vec<u8> {
        crate::persist::to_bytes(self)
    }

    fn clone_box(&self) -> SharedOracle {
        Box::new(self.clone())
    }

    fn partition_info(&self) -> Option<PartitionInfo> {
        Some(self.info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_commute::{EmbeddingOptions, ExactCommute};

    fn bridged(n_half: usize) -> WeightedGraph {
        // Two cliques joined by one edge: a connected graph with a cut.
        let mut edges = Vec::new();
        for base in [0, n_half] {
            for a in 0..n_half {
                for b in (a + 1)..n_half {
                    edges.push((base + a, base + b, 1.0));
                }
            }
        }
        edges.push((n_half - 1, n_half, 0.25));
        WeightedGraph::from_edges(2 * n_half, &edges).unwrap()
    }

    #[test]
    fn counters_track_layout() {
        let reg = std::sync::Arc::new(cad_obs::Registry::new());
        let _metrics = reg.enter();
        let spec = PartitionSpec { blocks: 2 };
        let _o = PartitionedOracle::build(&bridged(4), &EngineOptions::Exact, spec, 1).unwrap();
        assert_eq!(reg.counter(Counter::PartBlocks), 2);
        assert_eq!(reg.counter(Counter::PartBlockSolves), 2);
    }

    #[test]
    fn exact_partitioned_matches_monolithic() {
        let g = bridged(5);
        let spec = PartitionSpec { blocks: 2 };
        let o = PartitionedOracle::build(&g, &EngineOptions::Exact, spec, 1).unwrap();
        assert_eq!(o.kind(), OracleKind::Exact);
        assert!(o.is_exact());
        let info = o.partition_info().unwrap();
        assert_eq!(info.blocks, 2);
        assert!(info.boundary_edges > 0);
        let mono = ExactCommute::compute(&g).unwrap();
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (o.distance(i, j), mono.commute_distance(i, j));
                assert!(
                    (a - b).abs() <= crate::PART_REL_TOL * (1.0 + b),
                    "c({i},{j}): {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn embedding_partitioned_tracks_monolithic_embedding() {
        // The embedding has no block formulation: a partitioned request
        // builds the monolithic embedding, bit for bit.
        let g = bridged(4);
        let e = EmbeddingOptions {
            k: 64,
            ..Default::default()
        };
        let spec = PartitionSpec { blocks: 2 };
        let o = PartitionedOracle::build(&g, &EngineOptions::Approximate(e), spec, 1).unwrap();
        assert_eq!(o.kind(), OracleKind::Embedding);
        assert!(o.partition_info().is_none(), "built monolithically");
        let mono = cad_commute::CommuteEmbedding::compute(&g, &e).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    o.commute_distance(i, j).to_bits(),
                    mono.commute_distance(i, j).to_bits(),
                    "c({i},{j})"
                );
            }
        }
    }

    #[test]
    fn ablation_engines_fall_back_to_monolithic() {
        let g = bridged(3);
        let spec = PartitionSpec { blocks: 2 };
        let o = PartitionedOracle::build(&g, &EngineOptions::ShortestPath, spec, 1).unwrap();
        assert_eq!(o.kind(), OracleKind::ShortestPath);
        assert!(o.partition_info().is_none(), "fallback is unpartitioned");
        let c = PartitionedOracle::build(&g, &EngineOptions::Corrected, spec, 1).unwrap();
        assert_eq!(c.kind(), OracleKind::Corrected);
        assert!(c.partition_info().is_none());
    }

    #[test]
    fn auto_routes_by_threshold() {
        let g = bridged(4);
        let opts = |threshold| EngineOptions::Auto {
            threshold,
            embedding: EmbeddingOptions {
                k: 8,
                ..Default::default()
            },
        };
        let spec = PartitionSpec { blocks: 2 };
        let small = PartitionedOracle::build(&g, &opts(8), spec, 1).unwrap();
        assert_eq!(small.kind(), OracleKind::Exact);
        let large = PartitionedOracle::build(&g, &opts(7), spec, 1).unwrap();
        assert_eq!(large.kind(), OracleKind::Embedding);
    }

    #[test]
    fn components_mode_is_bit_exact_per_component() {
        let g = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 0.5),
                (3, 4, 1.0),
                (4, 5, 3.0),
            ],
        )
        .unwrap();
        let spec = PartitionSpec { blocks: 2 };
        let o = PartitionedOracle::build(&g, &EngineOptions::Exact, spec, 1).unwrap();
        let info = o.partition_info().unwrap();
        assert_eq!(info.boundary_edges, 0);
        let mono = ExactCommute::compute(&g).unwrap();
        // No interface at all: both builds run the same per-component
        // Cholesky on the same entries, so every distance has the same
        // bits.
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (o.distance(i, j), mono.commute_distance(i, j));
                assert_eq!(a.to_bits(), b.to_bits(), "c({i},{j}): {a} vs {b}");
            }
        }
    }
}
