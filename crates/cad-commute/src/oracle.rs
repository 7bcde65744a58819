//! The `DistanceOracle` trait — one interface over every node-distance
//! backend.
//!
//! CAD's scorer only ever needs *some* node distance `d_t(i, j)` per
//! graph instance (paper §3.1 picks commute time, and ablates the
//! choice). Modelling that as a trait instead of a closed enum makes the
//! backends first-class and swappable: the exact `L⁺` table, the
//! Khoa–Chawla embedding, the shortest-path ablation table and the
//! von Luxburg-corrected variant all implement [`DistanceOracle`], and
//! future backends (incremental, sharded, remote) can join without
//! touching the scorer. [`crate::CommuteTimeEngine`] is the factory that
//! picks an implementation from [`crate::EngineOptions`].
//!
//! The trait requires `Send + Sync` so a built oracle can be shared
//! across the scoring worker pool (`cad_linalg::par`).

use crate::corrected::CorrectedCommute;
use crate::embedding::CommuteEmbedding;
use crate::exact::ExactCommute;
use crate::shortest::ShortestPathTable;
use crate::update::{UpdatableOracle, SM_REBUILD_CHANGES_PER_NODE};

/// Which backend a [`DistanceOracle`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Exact commute times from the dense `L⁺` ([`ExactCommute`]).
    Exact,
    /// Khoa–Chawla approximate commute embedding ([`CommuteEmbedding`]).
    Embedding,
    /// All-pairs shortest paths ([`ShortestPathTable`]; ablation only).
    ShortestPath,
    /// Amplified (von Luxburg-corrected) commute distance
    /// ([`CorrectedCommute`]).
    Corrected,
}

impl OracleKind {
    /// Stable lowercase name (CLI/report formatting).
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Exact => "exact",
            OracleKind::Embedding => "embedding",
            OracleKind::ShortestPath => "shortest-path",
            OracleKind::Corrected => "corrected",
        }
    }
}

/// A per-instance node-distance oracle.
///
/// `distance` is the scorer-facing accessor: whatever notion of node
/// distance the backend implements (commute time for the commute
/// backends, path length for the shortest-path ablation). The
/// commute-specific accessors ([`DistanceOracle::commute_distance`],
/// [`DistanceOracle::resistance`]) panic on backends without commute
/// semantics, preserving the old enum's contract.
pub trait DistanceOracle: Send + Sync {
    /// Number of nodes covered by this oracle.
    fn n_nodes(&self) -> usize;

    /// The node distance `d(i, j)` this backend implements.
    fn distance(&self, i: usize, j: usize) -> f64;

    /// Which backend this is.
    fn kind(&self) -> OracleKind;

    /// Graph volume `V_G`, when the backend has commute semantics.
    fn volume(&self) -> Option<f64> {
        None
    }

    /// Commute-time distance `c(i, j)`.
    ///
    /// # Panics
    /// Panics for backends without commute semantics (shortest path) —
    /// use [`DistanceOracle::distance`] there.
    fn commute_distance(&self, i: usize, j: usize) -> f64 {
        if self.volume().is_none() {
            panic!(
                "{} oracle has no commute distance; use distance()",
                self.kind().name()
            );
        }
        self.distance(i, j)
    }

    /// Effective resistance `r_eff(i, j) = c(i, j) / V_G`.
    ///
    /// # Panics
    /// Panics for backends without commute semantics.
    fn resistance(&self, i: usize, j: usize) -> f64 {
        match self.volume() {
            Some(v) => self.commute_distance(i, j) / v,
            None => panic!(
                "{} oracle has no resistance; use distance()",
                self.kind().name()
            ),
        }
    }

    /// True when backed by the exact `L⁺` table.
    fn is_exact(&self) -> bool {
        self.kind() == OracleKind::Exact
    }

    /// What the oracle's construction cost ([`cad_obs::OracleBuildStats`]):
    /// wall-clock build time, and for iterative backends the JL dimension
    /// plus per-solve convergence records. `None` only for backends that
    /// do not track construction (all in-tree backends do).
    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        None
    }

    /// Flatten this oracle to a self-describing byte artifact that
    /// [`crate::persist::oracle_from_bytes`] reconstitutes with
    /// bit-identical query behaviour. The `cad-store` oracle cache
    /// persists these next to the pack.
    fn to_store_bytes(&self) -> Vec<u8>;

    /// Deep-copy this oracle behind a fresh box.
    ///
    /// The incremental update path clones the previous snapshot's oracle
    /// before [`UpdatableOracle::apply_delta`] mutates it, so a
    /// [`crate::UpdateOutcome::RebuildRequired`] fallback can discard the
    /// half-updated clone without restore logic.
    fn clone_box(&self) -> SharedOracle;

    /// Downcast to the in-place update seam, when this backend supports
    /// delta updates. The default (`None`) routes callers to a fresh
    /// build.
    fn as_updatable(&mut self) -> Option<&mut dyn UpdatableOracle> {
        None
    }

    /// Whether folding a delta of `changes` edge changes into this
    /// oracle in place costs at least as much as building it fresh.
    /// Online callers ask before cloning the oracle for
    /// [`UpdatableOracle::apply_delta`], and rebuild on `true`. The
    /// default (`false`) always takes the update.
    fn rebuild_is_cheaper(&self, _changes: usize) -> bool {
        false
    }

    /// Layout facts for block-partitioned oracles (`cad-part`'s
    /// `PartitionedOracle`): realised block count and edge-cut size.
    /// Monolithic backends — everything in this crate — report `None`.
    fn partition_info(&self) -> Option<crate::partition::PartitionInfo> {
        None
    }
}

/// A boxed, shareable oracle — what [`crate::CommuteTimeEngine::compute`]
/// returns. `DistanceOracle: Send + Sync`, so the box crosses the scoring
/// worker pool freely.
pub type SharedOracle = Box<dyn DistanceOracle>;

impl DistanceOracle for ExactCommute {
    fn n_nodes(&self) -> usize {
        ExactCommute::n_nodes(self)
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        ExactCommute::commute_distance(self, i, j)
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Exact
    }

    fn volume(&self) -> Option<f64> {
        Some(ExactCommute::volume(self))
    }

    fn commute_distance(&self, i: usize, j: usize) -> f64 {
        ExactCommute::commute_distance(self, i, j)
    }

    fn resistance(&self, i: usize, j: usize) -> f64 {
        // The inherent resistance, not commute/volume: bit-identical to
        // the pre-trait behaviour (no multiply/divide round trip).
        ExactCommute::resistance(self, i, j)
    }

    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        Some(ExactCommute::build_stats(self))
    }

    fn to_store_bytes(&self) -> Vec<u8> {
        crate::persist::exact_to_bytes(self)
    }

    fn clone_box(&self) -> SharedOracle {
        Box::new(self.clone())
    }

    fn as_updatable(&mut self) -> Option<&mut dyn UpdatableOracle> {
        Some(self)
    }

    /// `changes` Sherman–Morrison steps on this `L⁺` (about
    /// `changes · n²` flops, plus the O(n²) clone) against a fresh
    /// `laplacian_pinv` (about `n³`, an upper bound when the graph has
    /// several components): rebuild when `changes ≥ c · n` with
    /// `c =` [`SM_REBUILD_CHANGES_PER_NODE`]. A tie rebuilds, which gives
    /// the batch bits and resets the update drift.
    fn rebuild_is_cheaper(&self, changes: usize) -> bool {
        changes as f64 >= SM_REBUILD_CHANGES_PER_NODE * ExactCommute::n_nodes(self) as f64
    }
}

impl DistanceOracle for CommuteEmbedding {
    fn n_nodes(&self) -> usize {
        CommuteEmbedding::n_nodes(self)
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        CommuteEmbedding::commute_distance(self, i, j)
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Embedding
    }

    fn volume(&self) -> Option<f64> {
        Some(CommuteEmbedding::volume(self))
    }

    fn commute_distance(&self, i: usize, j: usize) -> f64 {
        CommuteEmbedding::commute_distance(self, i, j)
    }

    fn resistance(&self, i: usize, j: usize) -> f64 {
        CommuteEmbedding::resistance(self, i, j)
    }

    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        Some(CommuteEmbedding::build_stats(self))
    }

    fn to_store_bytes(&self) -> Vec<u8> {
        crate::persist::embedding_to_bytes(self)
    }

    fn clone_box(&self) -> SharedOracle {
        Box::new(self.clone())
    }
}

impl DistanceOracle for ShortestPathTable {
    fn n_nodes(&self) -> usize {
        ShortestPathTable::n_nodes(self)
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        ShortestPathTable::distance(self, i, j)
    }

    fn kind(&self) -> OracleKind {
        OracleKind::ShortestPath
    }

    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        Some(ShortestPathTable::build_stats(self))
    }

    fn to_store_bytes(&self) -> Vec<u8> {
        crate::persist::shortest_to_bytes(self)
    }

    fn clone_box(&self) -> SharedOracle {
        Box::new(self.clone())
    }
}

impl DistanceOracle for CorrectedCommute {
    fn n_nodes(&self) -> usize {
        CorrectedCommute::n_nodes(self)
    }

    /// The corrected commute distance `V_G · r_amp(i, j)` — the same
    /// scale as the raw commute distance so score magnitudes stay
    /// comparable across engines.
    fn distance(&self, i: usize, j: usize) -> f64 {
        CorrectedCommute::volume(self) * CorrectedCommute::amplified(self, i, j)
    }

    fn kind(&self) -> OracleKind {
        OracleKind::Corrected
    }

    fn volume(&self) -> Option<f64> {
        Some(CorrectedCommute::volume(self))
    }

    fn resistance(&self, i: usize, j: usize) -> f64 {
        CorrectedCommute::amplified(self, i, j)
    }

    fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
        Some(CorrectedCommute::build_stats(self))
    }

    fn to_store_bytes(&self) -> Vec<u8> {
        crate::persist::corrected_to_bytes(self)
    }

    fn clone_box(&self) -> SharedOracle {
        Box::new(self.clone())
    }

    fn as_updatable(&mut self) -> Option<&mut dyn UpdatableOracle> {
        Some(self)
    }

    /// The update is the inner exact oracle's `L⁺` steps, priced there;
    /// the degree and adjacency refresh is O(n + m) either way.
    fn rebuild_is_cheaper(&self, changes: usize) -> bool {
        DistanceOracle::rebuild_is_cheaper(self.exact(), changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_graph::WeightedGraph;

    fn path(n: usize) -> WeightedGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn exact_trait_matches_inherent() {
        let g = path(6);
        let e = ExactCommute::compute(&g).unwrap();
        let o: &dyn DistanceOracle = &e;
        assert_eq!(o.kind(), OracleKind::Exact);
        assert!(o.is_exact());
        assert_eq!(o.n_nodes(), 6);
        assert_eq!(o.volume(), Some(g.volume()));
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(
                    o.distance(i, j).to_bits(),
                    e.commute_distance(i, j).to_bits()
                );
                assert_eq!(o.resistance(i, j).to_bits(), e.resistance(i, j).to_bits());
            }
        }
    }

    #[test]
    fn embedding_trait_matches_inherent() {
        let g = path(8);
        let emb = CommuteEmbedding::compute(&g, &crate::EmbeddingOptions::default()).unwrap();
        let o: &dyn DistanceOracle = &emb;
        assert_eq!(o.kind(), OracleKind::Embedding);
        assert!(!o.is_exact());
        assert_eq!(
            o.distance(1, 5).to_bits(),
            emb.commute_distance(1, 5).to_bits()
        );
    }

    #[test]
    fn shortest_path_has_no_commute_semantics() {
        let g = path(4);
        let t = ShortestPathTable::compute(&g).unwrap();
        let o: &dyn DistanceOracle = &t;
        assert_eq!(o.kind(), OracleKind::ShortestPath);
        assert_eq!(o.volume(), None);
        assert_eq!(o.distance(0, 3), t.distance(0, 3));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o.commute_distance(0, 3)
        }))
        .is_err());
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| { o.resistance(0, 3) }))
                .is_err()
        );
    }

    #[test]
    fn corrected_scales_amplified_by_volume() {
        let g = path(5);
        let c = CorrectedCommute::compute(&g).unwrap();
        let o: &dyn DistanceOracle = &c;
        assert_eq!(o.kind(), OracleKind::Corrected);
        let vg = g.volume();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    o.distance(i, j).to_bits(),
                    (vg * c.amplified(i, j)).to_bits()
                );
            }
        }
    }

    #[test]
    fn boxed_oracle_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let g = path(3);
        let boxed: SharedOracle = Box::new(ExactCommute::compute(&g).unwrap());
        assert_send_sync(&boxed);
        assert_eq!(boxed.n_nodes(), 3);
    }

    #[test]
    fn every_backend_reports_build_stats() {
        let g = path(6);
        let oracles: Vec<SharedOracle> = vec![
            Box::new(ExactCommute::compute(&g).unwrap()),
            Box::new(CommuteEmbedding::compute(&g, &crate::EmbeddingOptions::default()).unwrap()),
            Box::new(ShortestPathTable::compute(&g).unwrap()),
            Box::new(CorrectedCommute::compute(&g).unwrap()),
        ];
        for o in &oracles {
            let stats = o.build_stats().expect("every in-tree backend tracks cost");
            assert_eq!(stats.backend, o.kind().name());
            assert!(stats.build_secs >= 0.0);
            if o.kind() == OracleKind::Embedding {
                assert_eq!(stats.jl_dim, Some(crate::EmbeddingOptions::default().k));
                assert_eq!(stats.solves.len(), stats.jl_dim.unwrap());
                assert!(stats.solves.iter().all(|s| s.converged));
            } else {
                assert_eq!(stats.jl_dim, None);
                assert!(stats.solves.is_empty());
            }
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(OracleKind::Exact.name(), "exact");
        assert_eq!(OracleKind::Embedding.name(), "embedding");
        assert_eq!(OracleKind::ShortestPath.name(), "shortest-path");
        assert_eq!(OracleKind::Corrected.name(), "corrected");
    }
}
