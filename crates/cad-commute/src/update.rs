//! Delta-driven oracle updates: the `build once, update per delta`
//! lifecycle.
//!
//! The batch pipeline builds one distance oracle per snapshot. For the
//! online paths (`cad watch`, `cad-serve`) consecutive snapshots
//! usually differ in a handful of edge weights, and rebuilding the full
//! oracle per arrival wastes almost all of its cost. This module is the
//! seam that replaces the rebuild:
//!
//! * [`EdgeDelta::between`] diffs two snapshots over the same node set
//!   into per-edge weight changes and classifies the delta as
//!   *structural* when the node count or the connected-component
//!   partition changed;
//! * [`UpdatableOracle::apply_delta`] folds a non-structural delta into
//!   an existing oracle in place — Sherman–Morrison rank-1 corrections
//!   on `L⁺` for the exact/corrected engines (Khoa–Chawla,
//!   arXiv 1107.3894; Monnig–Meyer, arXiv 1605.01091). The embedding
//!   engine does not update: its rows are solved only to
//!   [`crate::SKETCH_SOLVE_TOL`], so a warm start from them cannot meet
//!   the contract below against a fresh build, and a push rebuilds it;
//! * [`UpdateOutcome::RebuildRequired`] is the escape hatch: structural
//!   deltas, degenerate rank-1 denominators and non-updatable backends
//!   all fall back to a fresh [`crate::CommuteTimeEngine::compute`]
//!   build, which keeps the repo-wide bit-identical-to-batch invariant
//!   available on demand.
//!
//! # Tolerance contract
//!
//! An incrementally-updated oracle is *not* bit-identical to a fresh
//! batch build — it is equal up to f64 rounding of the update algebra:
//!
//! Sherman–Morrison is algebraically exact while the component
//! partition is unchanged; the drift per applied change is a few ulps
//! amplified by the conditioning of `L⁺`. It is covered by the
//! documented bound [`UPDATE_REL_TOL`]:
//! for every node pair, `|d_upd(i,j) − d_fresh(i,j)| ≤ UPDATE_REL_TOL ·
//! (1 + d_fresh(i,j))`. The property test in `tests/incremental.rs`
//! asserts exactly this bound for every engine.
//!
//! On `RebuildRequired` (or any error) the oracle may have been
//! partially updated and must be discarded — callers clone the previous
//! oracle before applying (see `cad_core::OnlineCad`), so a fallback
//! simply drops the clone and rebuilds.

use crate::Result;
use cad_graph::WeightedGraph;

/// Sherman–Morrison denominator guard: `|1 + δw·r_eff(u,v)|` at or
/// below this is treated as a disconnection in the making (e.g. a
/// bridge-edge removal) and the update falls back to a rebuild.
pub const SM_DEN_TOL: f64 = 1e-9;

/// Edge changes per node at which updating a dense `L⁺` in place costs
/// as much as rebuilding it: `k` Sherman–Morrison steps cost about
/// `k·n²`, a `laplacian_pinv` build about `n³`, so the two cross at
/// `k = c·n`. Measured by the `update_vs_rebuild_k_sweep_n{200,300,400}`
/// groups of `cad-bench/benches/bench_commute.rs` (a clone plus `k`
/// updates against a cold build, `k` in steps of n/8; EXPERIMENTS.md,
/// "Update or rebuild"): once the inverse computed one triangle of
/// `L⁺`, two sweeps on 2 vCPUs put the crossover between 0.30·n and
/// 0.53·n (median 0.45·n), down from 0.56·n–0.68·n with the whole-row
/// back sweep, and `c = 0.45` is that median. No serving workload sits
/// near the line (k ≤ 3 on n = 300, k ≈ 500 on n = 200). Priced by the
/// exact oracle's [`crate::DistanceOracle::rebuild_is_cheaper`].
pub const SM_REBUILD_CHANGES_PER_NODE: f64 = 0.45;

/// Documented agreement bound between an incrementally-updated oracle
/// and a fresh batch build of the same snapshot (see the module docs):
/// `|d_upd(i,j) − d_fresh(i,j)| ≤ UPDATE_REL_TOL · (1 + d_fresh(i,j))`.
pub const UPDATE_REL_TOL: f64 = 1e-6;

/// One edge whose weight differs between two snapshots.
///
/// A weight of `0.0` on either side means the edge is absent there
/// (insertion when `old_weight == 0`, removal when `new_weight == 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeChange {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Weight in the old snapshot (`0.0` = absent).
    pub old_weight: f64,
    /// Weight in the new snapshot (`0.0` = absent).
    pub new_weight: f64,
}

impl EdgeChange {
    /// The signed Laplacian perturbation `δw = new − old`.
    pub fn d_weight(&self) -> f64 {
        self.new_weight - self.old_weight
    }
}

/// The difference between two consecutive snapshots.
///
/// Borrows both graphs so update implementations can recompute whatever
/// they need (RHS vectors, degrees, adjacency) from the new snapshot
/// without the delta having to anticipate every backend's needs.
#[derive(Debug, Clone)]
pub struct EdgeDelta<'a> {
    /// The snapshot the oracle currently describes.
    pub old: &'a WeightedGraph,
    /// The snapshot the oracle should describe after the update.
    pub new: &'a WeightedGraph,
    /// Every edge whose weight differs, ascending by `(u, v)`.
    pub changes: Vec<EdgeChange>,
    /// Whether the delta changes the node count or the
    /// connected-component partition — the cases Sherman–Morrison on
    /// `L⁺` cannot express, forcing a rebuild.
    pub structural: bool,
}

impl<'a> EdgeDelta<'a> {
    /// Diff two snapshots.
    ///
    /// Structural detection: a node-count change is structural outright;
    /// otherwise, when some change inserts or removes an edge, the
    /// canonical component-id vectors (first-encounter order, so
    /// directly comparable for a fixed node order) of the two graphs
    /// are compared.
    pub fn between(old: &'a WeightedGraph, new: &'a WeightedGraph) -> EdgeDelta<'a> {
        let mut changes = Vec::new();
        old.for_each_edge_pair(new, |u, v, old_weight, new_weight| {
            if old_weight != new_weight {
                changes.push(EdgeChange {
                    u,
                    v,
                    old_weight,
                    new_weight,
                });
            }
        });
        // Only an insertion or a removal can move the component
        // partition; a weight-only delta keeps the nonzero pattern, so
        // the two O(n + m) scans are skipped for it.
        let structural = old.n_nodes() != new.n_nodes()
            || (changes
                .iter()
                .any(|c| c.old_weight == 0.0 || c.new_weight == 0.0)
                && old.components() != new.components());
        EdgeDelta {
            old,
            new,
            changes,
            structural,
        }
    }

    /// Whether the two snapshots have identical edge sets and weights.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Why an in-place update was declined in favour of a rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// Node count or component partition changed.
    Structural,
    /// A Sherman–Morrison denominator hit [`SM_DEN_TOL`] (the update
    /// would disconnect a component mid-sequence).
    Degenerate,
    /// The backend cannot update in place (shortest-path table, commute
    /// embedding).
    Unsupported,
    /// The accumulated update count crossed the caller's refresh
    /// threshold (emitted by `cad_core`, not by the oracles).
    Refresh,
    /// The oracle priced the in-place update above a fresh build
    /// ([`crate::DistanceOracle::rebuild_is_cheaper`]; emitted by
    /// `cad_core` before it clones the held oracle).
    Cost,
}

impl RebuildReason {
    /// Stable lowercase name (NDJSON events, HTTP responses).
    pub fn name(self) -> &'static str {
        match self {
            RebuildReason::Structural => "structural",
            RebuildReason::Degenerate => "degenerate",
            RebuildReason::Unsupported => "unsupported",
            RebuildReason::Refresh => "refresh",
            RebuildReason::Cost => "cost",
        }
    }
}

/// Outcome of [`UpdatableOracle::apply_delta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The delta was folded in; the oracle now describes `delta.new`
    /// within the [`UPDATE_REL_TOL`] contract. Carries the number of
    /// edge changes applied.
    Applied {
        /// Number of per-edge changes folded into the oracle.
        changes: usize,
    },
    /// The oracle could not ingest this delta and must be discarded;
    /// the caller rebuilds fresh (the bit-identical escape hatch).
    RebuildRequired(RebuildReason),
}

/// Extension seam over [`crate::DistanceOracle`]: backends that can
/// ingest an [`EdgeDelta`] in place instead of being rebuilt.
///
/// Obtain one via [`crate::DistanceOracle::as_updatable`]; backends
/// without update support simply return `None` there.
pub trait UpdatableOracle {
    /// Fold `delta` into the oracle in place.
    ///
    /// On [`UpdateOutcome::RebuildRequired`] (or `Err`) the oracle may
    /// be partially updated and must be discarded by the caller.
    fn apply_delta(&mut self, delta: &EdgeDelta) -> Result<UpdateOutcome>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(n: usize, edges: &[(usize, usize, f64)]) -> WeightedGraph {
        WeightedGraph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn diff_classifies_weight_insert_remove() {
        let a = g(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]);
        let b = g(4, &[(0, 1, 1.5), (2, 3, 1.0), (0, 3, 0.5)]);
        let d = EdgeDelta::between(&a, &b);
        assert_eq!(
            d.changes,
            vec![
                EdgeChange {
                    u: 0,
                    v: 1,
                    old_weight: 1.0,
                    new_weight: 1.5
                },
                EdgeChange {
                    u: 0,
                    v: 3,
                    old_weight: 0.0,
                    new_weight: 0.5
                },
                EdgeChange {
                    u: 1,
                    v: 2,
                    old_weight: 2.0,
                    new_weight: 0.0
                },
            ]
        );
        assert!((d.changes[0].d_weight() - 0.5).abs() < 1e-12);
        // The graph stays connected (1-0-3-2 path), so non-structural.
        assert!(!d.structural);
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let a = g(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let b = g(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let d = EdgeDelta::between(&a, &b);
        assert!(d.is_empty());
        assert!(!d.structural);
    }

    #[test]
    fn node_count_change_is_structural() {
        let a = g(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let b = g(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(EdgeDelta::between(&a, &b).structural);
    }

    #[test]
    fn disconnection_is_structural() {
        let a = g(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let b = g(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let d = EdgeDelta::between(&a, &b);
        assert!(d.structural, "bridge removal changes the partition");
        // Reconnection is equally structural.
        assert!(EdgeDelta::between(&b, &a).structural);
        // Same components, different grouping: also structural.
        let c = g(4, &[(0, 2, 1.0), (1, 3, 1.0)]);
        assert!(EdgeDelta::between(&b, &c).structural);
    }

    #[test]
    fn only_pattern_changes_that_move_components_are_structural() {
        let a = g(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]);
        // Weight-only: every edge keeps a nonzero weight.
        let reweighted = g(4, &[(0, 1, 7.0), (1, 2, 0.5), (2, 3, 1.0)]);
        let d = EdgeDelta::between(&a, &reweighted);
        assert_eq!(d.changes.len(), 2);
        assert!(!d.structural);
        // An insertion joining two components is structural.
        let split = g(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let joined = g(4, &[(0, 1, 1.0), (1, 3, 4.0), (2, 3, 1.0)]);
        assert!(EdgeDelta::between(&split, &joined).structural);
        // So is a removal that splits one.
        assert!(EdgeDelta::between(&joined, &split).structural);
        // A removal inside a cycle keeps the partition.
        let cycle = g(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]);
        assert!(!EdgeDelta::between(&cycle, &a).structural);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(RebuildReason::Structural.name(), "structural");
        assert_eq!(RebuildReason::Degenerate.name(), "degenerate");
        assert_eq!(RebuildReason::Unsupported.name(), "unsupported");
        assert_eq!(RebuildReason::Refresh.name(), "refresh");
        assert_eq!(RebuildReason::Cost.name(), "cost");
    }
}
