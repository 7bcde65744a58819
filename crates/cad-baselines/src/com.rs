//! COM — commute-time-difference ablation (paper §3.4).
//!
//! Scores node pairs by `|c_{t+1}(i,j) − c_t(i,j)|` alone. Structural
//! changes ripple through the commute times of *many* node pairs
//! (everything on the far side of a weakened bridge moves, every pair
//! across a newly-bridged cut gets closer), so COM floods the ranking
//! with affected-but-innocent pairs — the paper's second motivation for
//! the product score.
//!
//! The paper's formulation scores the complete edge set `E` (all `n²`
//! pairs); [`ComSupport::AllPairs`] is therefore the default for
//! accuracy experiments. [`ComSupport::EdgeUnion`] restricts to pairs
//! with non-zero weight at either instant, the `O(m)` variant whose
//! runtime is comparable to CAD's (used in the scalability study).

use crate::Result;
use cad_commute::{CommuteTimeEngine, EngineOptions};
use cad_core::{CadDetector, CadOptions, NodeScorer, ScoreKind};
use cad_graph::GraphSequence;

/// Which pairs COM scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComSupport {
    /// All `n(n−1)/2` pairs — the paper's definition (`O(n²)` scoring).
    #[default]
    AllPairs,
    /// Pairs with non-zero weight at `t` or `t+1` (`O(m)` scoring).
    EdgeUnion,
}

/// The COM baseline.
#[derive(Debug, Clone)]
pub struct ComDetector {
    engine: EngineOptions,
    support: ComSupport,
    threads: usize,
    inner: CadDetector,
}

impl Default for ComDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl ComDetector {
    /// Create the COM detector with the default (auto) commute engine
    /// and all-pairs support.
    pub fn new() -> Self {
        Self::with_engine(EngineOptions::default())
    }

    /// Create with an explicit commute-time engine configuration.
    pub fn with_engine(engine: EngineOptions) -> Self {
        Self::with_support(engine, ComSupport::default())
    }

    /// Create with explicit engine and support.
    pub fn with_support(engine: EngineOptions, support: ComSupport) -> Self {
        Self::with_threads(engine, support, 1)
    }

    /// Create with explicit engine, support, and worker-thread count
    /// (1 = sequential, 0 = one per core; output is thread-invariant).
    pub fn with_threads(engine: EngineOptions, support: ComSupport, threads: usize) -> Self {
        ComDetector {
            engine,
            support,
            threads,
            inner: CadDetector::new(CadOptions {
                engine,
                kind: ScoreKind::Com,
                threads,
                partition: None,
            }),
        }
    }

    /// Access the underlying `O(m)` pipeline (thresholded detection over
    /// the edge-union support).
    pub fn pipeline(&self) -> &CadDetector {
        &self.inner
    }
}

impl NodeScorer for ComDetector {
    fn name(&self) -> &'static str {
        "COM"
    }

    fn node_scores(&self, seq: &GraphSequence) -> Result<Vec<Vec<f64>>> {
        let _span = cad_obs::span!("baseline_com");
        match self.support {
            ComSupport::EdgeUnion => self.inner.node_scores(seq),
            ComSupport::AllPairs => {
                let n = seq.n_nodes();
                // Oracles come from the shared factory — COM keeps no
                // distance tables of its own — and stream through the
                // same build-next, score-pair, drop-previous loop as
                // CAD, with the O(n²) per-transition accumulations on
                // the cad-linalg worker threads.
                cad_linalg::par::par_adjacent_pairs(
                    seq.len(),
                    self.threads,
                    |t| CommuteTimeEngine::compute(seq.graph(t), &self.engine),
                    |_, _| {},
                    |_, e0, e1| {
                        let mut scores = vec![0.0; n];
                        for i in 0..n {
                            for j in (i + 1)..n {
                                let d =
                                    (e1.commute_distance(i, j) - e0.commute_distance(i, j)).abs();
                                scores[i] += d;
                                scores[j] += d;
                            }
                        }
                        Ok(scores)
                    },
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_graph::WeightedGraph;

    fn bridge_collapse_seq() -> GraphSequence {
        let g0 = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (0, 2, 2.0),
                (1, 2, 2.0),
                (3, 4, 2.0),
                (3, 5, 2.0),
                (4, 5, 2.0),
                (2, 3, 2.0),
            ],
        )
        .unwrap();
        let g1 = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 2.0),
                (0, 2, 2.0),
                (1, 2, 2.0),
                (3, 4, 2.0),
                (3, 5, 2.0),
                (4, 5, 2.0),
                (2, 3, 0.1), // bridge collapses
            ],
        )
        .unwrap();
        GraphSequence::new(vec![g0, g1]).unwrap()
    }

    #[test]
    fn flags_unchanged_nodes_affected_by_structure() {
        let seq = bridge_collapse_seq();
        let ns = ComDetector::new().node_scores(&seq).unwrap();
        // Node 4's edges never changed weight, yet COM scores it high —
        // comparable to the bridge endpoints (the flooding failure mode).
        assert!(ns[0][4] > 0.0, "{:?}", ns[0]);
        let max = ns[0].iter().cloned().fold(0.0f64, f64::max);
        assert!(ns[0][4] > 0.3 * max, "COM should flood: {:?}", ns[0]);
        // CAD, in contrast, scores node 4 exactly zero.
        let cad = CadDetector::default().node_scores(&seq).unwrap();
        assert_eq!(cad[0][4], 0.0);
    }

    #[test]
    fn edge_union_support_is_sparser() {
        let seq = bridge_collapse_seq();
        let all = ComDetector::new().node_scores(&seq).unwrap();
        let union = ComDetector::with_support(EngineOptions::default(), ComSupport::EdgeUnion)
            .node_scores(&seq)
            .unwrap();
        // All-pairs accumulates at least as much mass everywhere.
        for (a, u) in all[0].iter().zip(&union[0]) {
            assert!(a + 1e-12 >= *u, "{a} < {u}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let seq = bridge_collapse_seq();
        let serial = ComDetector::new().node_scores(&seq).unwrap();
        for threads in [2, 8] {
            let par =
                ComDetector::with_threads(EngineOptions::default(), ComSupport::AllPairs, threads)
                    .node_scores(&seq)
                    .unwrap();
            for (a, b) in serial[0].iter().zip(&par[0]) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn name_is_com() {
        assert_eq!(ComDetector::new().name(), "COM");
    }
}
