//! Per-edge anomaly scores `ΔE_t` (paper §2.5 / §3.2).

use crate::Result;
use cad_commute::DistanceOracle;
use cad_graph::GraphSequence;

/// Which factorization of the edge score to compute.
///
/// `Cad` is the paper's contribution; `Adj` and `Com` are the two
/// single-factor ablations discussed in §3.4 and evaluated as baselines
/// in Figure 6 (both satisfy the decomposability condition (2) but flag
/// benign edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreKind {
    /// `|ΔA| · |Δc|` — weight change times commute-time change.
    Cad,
    /// `|ΔA|` only.
    Adj,
    /// `|Δc|` only.
    Com,
}

impl ScoreKind {
    /// Short method name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreKind::Cad => "CAD",
            ScoreKind::Adj => "ADJ",
            ScoreKind::Com => "COM",
        }
    }
}

/// Score of one candidate edge at one transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeScore {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// The anomaly score (`ΔE_t` for the chosen [`ScoreKind`]).
    pub score: f64,
    /// `A_{t+1}(u, v) − A_t(u, v)` (signed).
    pub d_weight: f64,
    /// `c_{t+1}(u, v) − c_t(u, v)` (signed).
    pub d_commute: f64,
}

/// ADJ scores for transition `t → t+1`, sorted descending.
///
/// ADJ never looks at commute times, so this path skips engine
/// construction entirely — that is what makes ADJ the cheapest method in
/// the paper's scalability study (§4.1.3).
pub fn adj_transition_scores(seq: &GraphSequence, t: usize) -> Vec<EdgeScore> {
    let mut out: Vec<EdgeScore> = seq
        .changed_edges(t)
        .into_iter()
        .map(|(u, v, w_t, w_t1)| EdgeScore {
            u,
            v,
            score: (w_t1 - w_t).abs(),
            d_weight: w_t1 - w_t,
            d_commute: 0.0,
        })
        .collect();
    out.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    out
}

/// Compute edge scores for transition `t → t+1`, sorted descending.
///
/// The support is the set of edges whose weight or presence changed plus
/// (for [`ScoreKind::Com`]) every edge present at either instant: a CAD
/// or ADJ score is zero wherever `ΔA = 0`, so restricting to changed
/// edges loses nothing and keeps scoring `O(m)` — the key to the paper's
/// `O(n log n + m log m)` per-transition cost (§3.3). For COM the score
/// can be non-zero on unchanged edges; the paper keeps its evaluation to
/// the `O(m)` edge support as well (its COM runtime equals CAD's), which
/// is what we do.
pub fn transition_edge_scores(
    seq: &GraphSequence,
    t: usize,
    engine_t: &dyn DistanceOracle,
    engine_t1: &dyn DistanceOracle,
    kind: ScoreKind,
) -> Result<Vec<EdgeScore>> {
    pair_edge_scores(seq.graph(t), seq.graph(t + 1), engine_t, engine_t1, kind)
}

/// Like [`transition_edge_scores`] for an explicit pair of graph
/// instances — the entry point of the online detector, which never holds
/// a full [`GraphSequence`].
pub fn pair_edge_scores(
    g_t: &cad_graph::WeightedGraph,
    g_t1: &cad_graph::WeightedGraph,
    engine_t: &dyn DistanceOracle,
    engine_t1: &dyn DistanceOracle,
    kind: ScoreKind,
) -> Result<Vec<EdgeScore>> {
    if g_t.n_nodes() != g_t1.n_nodes() {
        return Err(cad_graph::GraphError::MixedNodeCounts {
            expected: g_t.n_nodes(),
            found: g_t1.n_nodes(),
            at: 1,
        });
    }
    let mut out = Vec::new();
    g_t.for_each_edge_pair(g_t1, |u, v, w_t, w_t1| {
        // CAD and ADJ score the changed edges (`w_t != w_t1`, exactly
        // where `w_t1 − w_t ≠ 0`); COM scores the union of both supports.
        let scored = match kind {
            ScoreKind::Cad | ScoreKind::Adj => w_t != w_t1,
            ScoreKind::Com => w_t != 0.0 || w_t1 != 0.0,
        };
        if !scored {
            return;
        }
        let d_weight = w_t1 - w_t;
        let d_commute = engine_t1.distance(u, v) - engine_t.distance(u, v);
        let score = match kind {
            ScoreKind::Cad => d_weight.abs() * d_commute.abs(),
            ScoreKind::Adj => d_weight.abs(),
            ScoreKind::Com => d_commute.abs(),
        };
        out.push(EdgeScore {
            u,
            v,
            score,
            d_weight,
            d_commute,
        });
    });

    out.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_commute::{CommuteTimeEngine, EngineOptions, SharedOracle};
    use cad_graph::WeightedGraph;

    fn fixture() -> (GraphSequence, SharedOracle, SharedOracle) {
        // Path 0-1-2-3 at t; at t+1 a shortcut edge {0,3} appears and
        // {1,2} strengthens slightly.
        let g0 = WeightedGraph::from_edges(4, &[(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)]).unwrap();
        let g1 =
            WeightedGraph::from_edges(4, &[(0, 1, 2.0), (1, 2, 2.2), (2, 3, 2.0), (0, 3, 1.0)])
                .unwrap();
        let seq = GraphSequence::new(vec![g0, g1]).unwrap();
        let e0 = CommuteTimeEngine::compute(seq.graph(0), &EngineOptions::Exact).unwrap();
        let e1 = CommuteTimeEngine::compute(seq.graph(1), &EngineOptions::Exact).unwrap();
        (seq, e0, e1)
    }

    #[test]
    fn cad_ranks_bridge_edge_first() {
        let (seq, e0, e1) = fixture();
        let scores =
            transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), ScoreKind::Cad).unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!((scores[0].u, scores[0].v), (0, 3));
        assert!(scores[0].score > 5.0 * scores[1].score);
    }

    #[test]
    fn score_factors_recorded() {
        let (seq, e0, e1) = fixture();
        let scores =
            transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), ScoreKind::Cad).unwrap();
        let bridge = scores.iter().find(|s| (s.u, s.v) == (0, 3)).unwrap();
        assert_eq!(bridge.d_weight, 1.0);
        assert!(bridge.d_commute < 0.0, "new edge shrinks commute distance");
        assert!((bridge.score - bridge.d_weight.abs() * bridge.d_commute.abs()).abs() < 1e-12);
    }

    #[test]
    fn adj_ignores_structure() {
        let (seq, e0, e1) = fixture();
        let scores =
            transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), ScoreKind::Adj).unwrap();
        let bridge = scores.iter().find(|s| (s.u, s.v) == (0, 3)).unwrap();
        let benign = scores.iter().find(|s| (s.u, s.v) == (1, 2)).unwrap();
        assert_eq!(bridge.score, 1.0);
        assert!((benign.score - 0.2).abs() < 1e-12);
    }

    #[test]
    fn com_covers_unchanged_edges() {
        let (seq, e0, e1) = fixture();
        let scores =
            transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), ScoreKind::Com).unwrap();
        // All four union edges scored, including unchanged {0,1}, {2,3}.
        assert_eq!(scores.len(), 4);
        let unchanged = scores.iter().find(|s| (s.u, s.v) == (0, 1)).unwrap();
        assert!(
            unchanged.score > 0.0,
            "commute time changed even where weight did not"
        );
    }

    #[test]
    fn no_changes_no_cad_scores() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let seq = GraphSequence::new(vec![g.clone(), g]).unwrap();
        let e0 = CommuteTimeEngine::compute(seq.graph(0), &EngineOptions::Exact).unwrap();
        let e1 = CommuteTimeEngine::compute(seq.graph(1), &EngineOptions::Exact).unwrap();
        let scores =
            transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), ScoreKind::Cad).unwrap();
        assert!(scores.is_empty());
    }

    #[test]
    fn scores_sorted_descending() {
        let (seq, e0, e1) = fixture();
        for kind in [ScoreKind::Cad, ScoreKind::Adj, ScoreKind::Com] {
            let scores = transition_edge_scores(&seq, 0, e0.as_ref(), e1.as_ref(), kind).unwrap();
            assert!(
                scores.windows(2).all(|w| w[0].score >= w[1].score),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(ScoreKind::Cad.name(), "CAD");
        assert_eq!(ScoreKind::Adj.name(), "ADJ");
        assert_eq!(ScoreKind::Com.name(), "COM");
    }
}
