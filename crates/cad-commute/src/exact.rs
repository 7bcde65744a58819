//! Exact commute times via the Laplacian pseudoinverse.

use crate::update::{EdgeDelta, RebuildReason, UpdatableOracle, UpdateOutcome, SM_DEN_TOL};
use crate::Result;
use cad_graph::{GraphError, WeightedGraph};
use cad_linalg::pinv::{laplacian_pinv, pinv_edge_update};
use cad_linalg::DenseMatrix;

/// Exact commute-time table for one graph instance.
///
/// Internally stores `L⁺` and the graph volume; queries are `O(1)`.
/// `L⁺` comes from [`laplacian_pinv`]: one dense Cholesky per connected
/// component, so it is block-diagonal with exact zeros between
/// components. For pairs in *different* components the value returned
/// is `V_G (l⁺_ii + l⁺_jj)` — the natural pseudoinverse extension (the
/// true commute time is infinite). Construction is `O(Σ n_c³)` over
/// component sizes `n_c`: use [`crate::embedding::CommuteEmbedding`]
/// beyond a few thousand nodes.
#[derive(Debug, Clone)]
pub struct ExactCommute {
    pinv: DenseMatrix,
    volume: f64,
    build_stats: cad_obs::OracleBuildStats,
}

impl ExactCommute {
    /// Compute `L⁺` for the graph.
    pub fn compute(g: &WeightedGraph) -> Result<Self> {
        let (pinv, build_secs) = cad_obs::time_it(|| laplacian_pinv(&g.laplacian_dense()));
        Ok(ExactCommute {
            pinv: pinv?,
            volume: g.volume(),
            build_stats: cad_obs::OracleBuildStats::direct("exact", build_secs),
        })
    }

    /// What the construction cost.
    pub fn build_stats(&self) -> &cad_obs::OracleBuildStats {
        &self.build_stats
    }

    /// Serialization view: `(L⁺, V_G)` (see [`crate::persist`]).
    pub(crate) fn persist_parts(&self) -> (&DenseMatrix, f64) {
        (&self.pinv, self.volume)
    }

    /// Rebuild from stored parts. Queries are bit-identical to the
    /// oracle the parts came from; build stats report zero cost (no
    /// computation happened).
    pub(crate) fn from_persist(pinv: DenseMatrix, volume: f64) -> Self {
        ExactCommute {
            pinv,
            volume,
            build_stats: cad_obs::OracleBuildStats::direct("exact", 0.0),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.pinv.nrows()
    }

    /// Graph volume `V_G`.
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// Effective resistance `r_eff(i, j) = l⁺_ii + l⁺_jj − 2 l⁺_ij`.
    pub fn resistance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        // Clamp tiny negative rounding residue: resistance is a metric.
        (self.pinv.get(i, i) + self.pinv.get(j, j) - 2.0 * self.pinv.get(i, j)).max(0.0)
    }

    /// Commute time `c(i, j) = V_G · r_eff(i, j)` (paper eq. 3).
    pub fn commute_distance(&self, i: usize, j: usize) -> f64 {
        self.volume * self.resistance(i, j)
    }

    /// Full commute-time matrix (tests / toy-example reporting).
    pub fn full_matrix(&self) -> DenseMatrix {
        let n = self.n_nodes();
        DenseMatrix::from_fn(n, n, |i, j| self.commute_distance(i, j))
    }
}

impl UpdatableOracle for ExactCommute {
    /// Sherman–Morrison on `L⁺`: one rank-1 correction per changed edge
    /// (`O(n²)` each, versus the `O(n³)` rebuild). Algebraically exact
    /// while the component partition is unchanged — structural deltas
    /// and near-singular denominators request a rebuild instead.
    fn apply_delta(&mut self, delta: &EdgeDelta) -> Result<UpdateOutcome> {
        if delta.old.n_nodes() != self.n_nodes() {
            return Err(GraphError::InvalidInput(format!(
                "delta is over {} nodes but the oracle covers {}",
                delta.old.n_nodes(),
                self.n_nodes()
            )));
        }
        if delta.structural {
            return Ok(UpdateOutcome::RebuildRequired(RebuildReason::Structural));
        }
        for change in &delta.changes {
            let applied = pinv_edge_update(
                &mut self.pinv,
                change.u,
                change.v,
                change.d_weight(),
                SM_DEN_TOL,
            )
            .map_err(|e| GraphError::InvalidInput(e.to_string()))?;
            if !applied {
                return Ok(UpdateOutcome::RebuildRequired(RebuildReason::Degenerate));
            }
        }
        // Recompute from the new snapshot rather than accumulating
        // 2·δw — identical to what a fresh build would store.
        self.volume = delta.new.volume();
        Ok(UpdateOutcome::Applied {
            changes: delta.changes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> WeightedGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn path_graph_closed_form() {
        // Unit path: r_eff(i, j) = |i − j| (series resistors),
        // V_G = 2(n−1), so c(i, j) = 2(n−1)|i−j|.
        let n = 6;
        let g = path(n);
        let c = ExactCommute::compute(&g).unwrap();
        let vg = 2.0 * (n as f64 - 1.0);
        for i in 0..n {
            for j in 0..n {
                let want = vg * i.abs_diff(j) as f64;
                assert!(
                    (c.commute_distance(i, j) - want).abs() < 1e-8,
                    "c({i},{j}) = {} want {want}",
                    c.commute_distance(i, j)
                );
            }
        }
    }

    #[test]
    fn complete_graph_closed_form() {
        // K_n unit weights: r_eff = 2/n, V_G = n(n−1), c = 2(n−1).
        let n = 7;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j, 1.0));
            }
        }
        let g = WeightedGraph::from_edges(n, &edges).unwrap();
        let c = ExactCommute::compute(&g).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                assert!((c.commute_distance(i, j) - 2.0 * (n as f64 - 1.0)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn cycle_graph_closed_form() {
        // C_n unit weights: r_eff(i, j) = d(n−d)/n with d = hop distance,
        // V_G = 2n.
        let n = 8;
        let mut edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((n - 1, 0, 1.0));
        let g = WeightedGraph::from_edges(n, &edges).unwrap();
        let c = ExactCommute::compute(&g).unwrap();
        for i in 0..n {
            for j in 0..n {
                let d = i.abs_diff(j).min(n - i.abs_diff(j)) as f64;
                let want = 2.0 * n as f64 * (d * (n as f64 - d) / n as f64);
                assert!((c.commute_distance(i, j) - want).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn weighted_edge_resistance() {
        // Single edge of weight w: r_eff = 1/w, V_G = 2w, c = 2.
        let g = WeightedGraph::from_edges(2, &[(0, 1, 5.0)]).unwrap();
        let c = ExactCommute::compute(&g).unwrap();
        assert!((c.resistance(0, 1) - 0.2).abs() < 1e-10);
        assert!((c.commute_distance(0, 1) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn metric_properties() {
        let g = WeightedGraph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (0, 4, 1.5),
                (1, 3, 1.0),
            ],
        )
        .unwrap();
        let c = ExactCommute::compute(&g).unwrap();
        for i in 0..5 {
            assert_eq!(c.commute_distance(i, i), 0.0);
            for j in 0..5 {
                // Symmetry.
                assert!((c.commute_distance(i, j) - c.commute_distance(j, i)).abs() < 1e-9);
                // Non-negativity.
                assert!(c.commute_distance(i, j) >= 0.0);
                for k in 0..5 {
                    // Triangle inequality.
                    assert!(
                        c.commute_distance(i, j)
                            <= c.commute_distance(i, k) + c.commute_distance(k, j) + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_uses_pinv_extension() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let c = ExactCommute::compute(&g).unwrap();
        // Within components: single edge w=1 → r=1, V_G=4 → c=4.
        assert!((c.commute_distance(0, 1) - 4.0).abs() < 1e-8);
        assert!((c.commute_distance(2, 3) - 4.0).abs() < 1e-8);
        // Across components: finite pseudoinverse extension, larger than
        // the in-component resistance scale.
        let cross = c.commute_distance(0, 2);
        assert!(cross.is_finite());
        assert!(cross > 0.0);
    }

    #[test]
    fn full_matrix_agrees_with_queries() {
        let g = path(4);
        let c = ExactCommute::compute(&g).unwrap();
        let m = c.full_matrix();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), c.commute_distance(i, j));
            }
        }
    }

    #[test]
    fn apply_delta_tracks_fresh_build() {
        let old = WeightedGraph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (0, 4, 1.5),
            ],
        )
        .unwrap();
        // Weight bump, an insertion and a removal, all non-structural.
        let new = WeightedGraph::from_edges(
            5,
            &[
                (0, 1, 1.0),
                (1, 2, 2.6),
                (2, 3, 1.0),
                (3, 4, 0.5),
                (0, 4, 1.5),
                (1, 3, 0.7),
            ],
        )
        .unwrap();
        let mut upd = ExactCommute::compute(&old).unwrap();
        let delta = EdgeDelta::between(&old, &new);
        assert_eq!(
            upd.apply_delta(&delta).unwrap(),
            UpdateOutcome::Applied { changes: 2 }
        );
        let fresh = ExactCommute::compute(&new).unwrap();
        assert_eq!(upd.volume().to_bits(), fresh.volume().to_bits());
        for i in 0..5 {
            for j in 0..5 {
                let (a, b) = (upd.commute_distance(i, j), fresh.commute_distance(i, j));
                assert!(
                    (a - b).abs() <= crate::update::UPDATE_REL_TOL * (1.0 + b),
                    "c({i},{j}): updated {a} vs fresh {b}"
                );
            }
        }
    }

    #[test]
    fn apply_delta_declines_structural_and_degenerate() {
        let old = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let mut upd = ExactCommute::compute(&old).unwrap();

        // Bridge removal → structural (detected by the delta itself).
        let split = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let delta = EdgeDelta::between(&old, &split);
        assert_eq!(
            ExactCommute::compute(&old)
                .unwrap()
                .apply_delta(&delta)
                .unwrap(),
            UpdateOutcome::RebuildRequired(RebuildReason::Structural)
        );

        // Mismatched oracle/delta dimensions are an error, not a fallback.
        let small = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let bumped = WeightedGraph::from_edges(3, &[(0, 1, 2.0), (1, 2, 1.0)]).unwrap();
        let d3 = EdgeDelta::between(&small, &bumped);
        assert!(upd.apply_delta(&d3).is_err());
    }

    #[test]
    fn stronger_coupling_shrinks_commute_distance() {
        let weak = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let strong = WeightedGraph::from_edges(3, &[(0, 1, 4.0), (1, 2, 1.0)]).unwrap();
        let cw = ExactCommute::compute(&weak).unwrap();
        let cs = ExactCommute::compute(&strong).unwrap();
        assert!(cs.resistance(0, 1) < cw.resistance(0, 1));
    }
}
