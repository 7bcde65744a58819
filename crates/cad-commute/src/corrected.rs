//! Amplified (von Luxburg-corrected) commute distance.
//!
//! On large dense graphs the raw commute time degenerates:
//! `r_eff(i, j) → 1/d_i + 1/d_j`, which contains no structural
//! information (von Luxburg, Radl & Hein, *Hitting and commute times in
//! large random neighborhood graphs*). The amplified commute distance
//! removes the degenerate part:
//!
//! ```text
//! r_amp(i, j) = r_eff(i, j) − 1/d_i − 1/d_j + 2 w_ij / (d_i d_j)
//! ```
//!
//! The CAD paper's evaluation graphs are sparse enough that the raw
//! commute time works (and it is what the paper uses — so it is what
//! [`crate::CommuteTimeEngine`] uses); this module ships the corrected
//! variant for the dense regimes a practitioner will eventually hit,
//! with a test demonstrating exactly the failure it repairs.

use crate::exact::ExactCommute;
use crate::update::{EdgeDelta, UpdatableOracle, UpdateOutcome};
use crate::Result;
use cad_graph::WeightedGraph;

/// Exact amplified commute distances for one graph instance.
#[derive(Debug, Clone)]
pub struct CorrectedCommute {
    exact: ExactCommute,
    degrees: Vec<f64>,
    /// Edge weights needed for the local `2w/(d_i d_j)` term.
    adjacency: cad_linalg::CsrMatrix,
    build_stats: cad_obs::OracleBuildStats,
}

impl CorrectedCommute {
    /// Compute from a graph (exact `O(n³)` path).
    pub fn compute(g: &WeightedGraph) -> Result<Self> {
        let (exact, build_secs) = cad_obs::time_it(|| ExactCommute::compute(g));
        Ok(CorrectedCommute {
            exact: exact?,
            degrees: g.degrees(),
            adjacency: g.adjacency().clone(),
            build_stats: cad_obs::OracleBuildStats::direct("corrected", build_secs),
        })
    }

    /// What the construction cost.
    pub fn build_stats(&self) -> &cad_obs::OracleBuildStats {
        &self.build_stats
    }

    /// The inner exact oracle.
    pub(crate) fn exact(&self) -> &ExactCommute {
        &self.exact
    }

    /// Serialization view: `(inner exact oracle, degrees, adjacency)`.
    pub(crate) fn persist_parts(&self) -> (&ExactCommute, &[f64], &cad_linalg::CsrMatrix) {
        (&self.exact, &self.degrees, &self.adjacency)
    }

    /// Rebuild from stored parts (bit-identical queries, zero-cost
    /// build stats).
    pub(crate) fn from_persist(
        exact: ExactCommute,
        degrees: Vec<f64>,
        adjacency: cad_linalg::CsrMatrix,
    ) -> Self {
        CorrectedCommute {
            exact,
            degrees,
            adjacency,
            build_stats: cad_obs::OracleBuildStats::direct("corrected", 0.0),
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.exact.n_nodes()
    }

    /// Graph volume `V_G`.
    pub fn volume(&self) -> f64 {
        self.exact.volume()
    }

    /// The raw effective resistance (for comparison).
    pub fn raw_resistance(&self, i: usize, j: usize) -> f64 {
        self.exact.resistance(i, j)
    }

    /// The amplified resistance `r_amp(i, j)` (clamped at 0; it is
    /// non-negative up to rounding for i ≠ j).
    pub fn amplified(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (di, dj) = (self.degrees[i], self.degrees[j]);
        if di <= 0.0 || dj <= 0.0 {
            // Isolated endpoint: no degeneracy to remove.
            return self.exact.resistance(i, j);
        }
        let w = self.adjacency.get(i, j);
        (self.exact.resistance(i, j) - 1.0 / di - 1.0 / dj + 2.0 * w / (di * dj)).max(0.0)
    }
}

impl UpdatableOracle for CorrectedCommute {
    /// Delegates the `L⁺` maintenance to the inner exact oracle, then
    /// refreshes the local degree/adjacency views from the new snapshot
    /// (cheap relative to the rank-1 updates).
    fn apply_delta(&mut self, delta: &EdgeDelta) -> Result<UpdateOutcome> {
        let outcome = self.exact.apply_delta(delta)?;
        if let UpdateOutcome::Applied { .. } = outcome {
            self.degrees = delta.new.degrees();
            self.adjacency = delta.new.adjacency().clone();
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two dense cliques joined by a handful of bridges — the regime
    /// where raw resistance starts collapsing toward `1/d_i + 1/d_j`.
    fn dumbbell(k: usize, bridges: usize) -> WeightedGraph {
        let mut edges = Vec::new();
        for base in [0, k] {
            for i in 0..k {
                for j in (i + 1)..k {
                    edges.push((base + i, base + j, 1.0));
                }
            }
        }
        for b in 0..bridges {
            edges.push((b, k + b, 1.0));
        }
        WeightedGraph::from_edges(2 * k, &edges).expect("dumbbell")
    }

    #[test]
    fn correction_amplifies_cluster_contrast() {
        let g = dumbbell(20, 4);
        let c = CorrectedCommute::compute(&g).unwrap();
        // Pick non-bridge nodes on both sides.
        let (a, b, cross) = (10, 11, 30);
        let raw_ratio = c.raw_resistance(a, cross) / c.raw_resistance(a, b);
        let amp_ratio = c.amplified(a, cross) / c.amplified(a, b).max(1e-12);
        assert!(
            amp_ratio > 3.0 * raw_ratio,
            "correction should sharpen the cross/intra contrast: raw {raw_ratio:.2}, amplified {amp_ratio:.2}"
        );
    }

    #[test]
    fn raw_resistance_is_degree_dominated_in_cliques() {
        // Inside one dense clique, r_eff ≈ 1/d_i + 1/d_j: the degenerate
        // part is most of the value, so the amplified distance is small.
        let g = dumbbell(20, 4);
        let c = CorrectedCommute::compute(&g).unwrap();
        let raw = c.raw_resistance(5, 6);
        let local = 1.0 / 19.0 + 1.0 / 19.0; // intra degrees ≈ 19
        assert!(
            (raw - local).abs() < 0.4 * raw,
            "raw {raw} should be near the degenerate part {local}"
        );
        assert!(c.amplified(5, 6) < 0.5 * raw);
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let g = dumbbell(8, 2);
        let c = CorrectedCommute::compute(&g).unwrap();
        for i in 0..16 {
            assert_eq!(c.amplified(i, i), 0.0);
            for j in 0..16 {
                assert!((c.amplified(i, j) - c.amplified(j, i)).abs() < 1e-10);
                assert!(c.amplified(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn isolated_nodes_fall_back_to_raw() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0)]).unwrap();
        let c = CorrectedCommute::compute(&g).unwrap();
        assert_eq!(c.amplified(0, 2), c.raw_resistance(0, 2));
    }
}
