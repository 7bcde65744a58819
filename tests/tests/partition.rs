//! Partitioned-vs-unpartitioned detection contracts for the exact
//! engine (the `cad-part` crate wired through `cad-core`):
//!
//! * on multi-component graphs the partitioned detector reports
//!   **identical anomaly sets** (same edges, same nodes, per
//!   transition) to the monolithic detector. A component that fits one
//!   block is solved whole, exactly as the monolithic per-component
//!   `L⁺` does; a larger one is split and stitched within tolerance;
//! * on connected graphs split by the BFS partitioner, every edge score
//!   tracks the monolithic score within the documented
//!   [`cad_part::PART_REL_TOL`] bound `|part − mono| ≤ TOL·(1 + |mono|)`;
//! * both contracts hold at 1 and at 4 worker threads.
//!
//! Other engines have no block formulation and build monolithically
//! under a partition spec (`cad-part`'s unit tests pin that).
//!
//! The anomaly-set comparisons pick δ at the midpoint of the largest
//! score gap of the *monolithic* run, so a sub-tolerance score wobble
//! can never flip an edge across the threshold and fail the test for a
//! reason the contract permits.

use cad_commute::{EngineOptions, PartitionSpec};
use cad_core::{CadDetector, CadOptions, EdgeScore};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_part::PART_REL_TOL;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

fn detector(threads: usize, partition: Option<PartitionSpec>) -> CadDetector {
    CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        threads,
        partition,
        ..Default::default()
    })
}

/// δ at the midpoint of the largest gap of the scores (0 included), so
/// both sides of the threshold sit half a gap away from it.
fn gap_midpoint_delta(scored: &[Vec<EdgeScore>]) -> f64 {
    let mut s: Vec<f64> = scored.iter().flatten().map(|e| e.score).collect();
    s.push(0.0);
    s.sort_by(f64::total_cmp);
    s.dedup();
    let mut best_gap = -1.0;
    let mut delta = 1.0;
    for w in s.windows(2) {
        let gap = w[1] - w[0];
        if gap > best_gap {
            best_gap = gap;
            delta = 0.5 * (w[0] + w[1]);
        }
    }
    delta
}

/// Sequences of graphs with **two path components** (sizes `n1`, `n2`)
/// and per-instance weight jitter; one instance swaps in a heavy chord
/// inside the first component so some transition is genuinely anomalous.
fn disconnected_sequence_strategy() -> impl Strategy<Value = GraphSequence> {
    (
        4usize..7,
        4usize..7,
        3usize..5,
        proptest::collection::vec(0.25f64..4.0, 48),
    )
        .prop_map(|(n1, n2, len, weights)| {
            let n = n1 + n2;
            let mut w = weights.into_iter().cycle();
            let graphs: Vec<WeightedGraph> = (0..len)
                .map(|t| {
                    let mut edges = Vec::new();
                    for i in 0..n1 - 1 {
                        edges.push((i, i + 1, w.next().unwrap()));
                    }
                    for i in n1..n - 1 {
                        edges.push((i, i + 1, w.next().unwrap()));
                    }
                    if t == len / 2 {
                        // The anomaly: a strong chord shortcuts the
                        // first component for exactly one instance.
                        edges.push((0, n1 - 1, 5.0));
                    }
                    WeightedGraph::from_edges(n, &edges).unwrap()
                })
                .collect();
            GraphSequence::new(graphs).unwrap()
        })
}

/// Connected sequences: a path backbone plus deterministic
/// pseudo-random chords (the idiom `store.rs` uses).
fn connected_sequence_strategy() -> impl Strategy<Value = GraphSequence> {
    (
        6usize..11,
        2usize..4,
        proptest::collection::vec(0.25f64..4.0, 40),
        0u64..1_000_000_000,
    )
        .prop_map(|(n, len, weights, salt)| {
            let mut w = weights.into_iter().cycle();
            let graphs: Vec<WeightedGraph> = (0..len)
                .map(|t| {
                    let mut edges = Vec::new();
                    for i in 0..n - 1 {
                        edges.push((i, i + 1, w.next().unwrap()));
                    }
                    for i in 0..n {
                        for j in (i + 2)..n {
                            let h = salt
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add((t * n * n + i * n + j) as u64);
                            if (h >> 33) % 3 == 0 {
                                edges.push((i, j, w.next().unwrap()));
                            }
                        }
                    }
                    WeightedGraph::from_edges(n, &edges).unwrap()
                })
                .collect();
            GraphSequence::new(graphs).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On a multi-component graph the partitioned detector finds the
    /// same anomalous edge sets and node sets as the monolithic one, at
    /// 1 and 4 threads.
    #[test]
    fn components_mode_matches_monolithic_anomaly_sets(seq in disconnected_sequence_strategy()) {
        let spec = PartitionSpec { blocks: 2 };
        for threads in [1usize, 4] {
                let mono = detector(threads, None);
                let part = detector(threads, Some(spec));
                let delta = gap_midpoint_delta(&mono.score_sequence(&seq).expect("mono scores"));
                let a = mono.detect(&seq, delta).expect("mono detect");
                let b = part.detect(&seq, delta).expect("part detect");
                prop_assert_eq!(a.transitions.len(), b.transitions.len());
                for (ta, tb) in a.transitions.iter().zip(&b.transitions) {
                    let ea: BTreeSet<(usize, usize)> =
                        ta.edges.iter().map(|e| (e.u, e.v)).collect();
                    let eb: BTreeSet<(usize, usize)> =
                        tb.edges.iter().map(|e| (e.u, e.v)).collect();
                    prop_assert!(
                        ea == eb,
                        "edge sets differ at t={}: {ea:?} vs {eb:?} ({threads} threads)",
                        ta.t
                    );
                    let na: BTreeSet<usize> = ta.nodes.iter().copied().collect();
                    let nb: BTreeSet<usize> = tb.nodes.iter().copied().collect();
                    prop_assert!(na == nb, "node sets differ at t={}: {na:?} vs {nb:?}", ta.t);
                }
        }
    }

    /// BFS splits of connected graphs track the monolithic scores
    /// within `PART_REL_TOL`, edge by edge, at 1 and 4 threads.
    #[test]
    fn bfs_split_scores_within_part_rel_tol(seq in connected_sequence_strategy(), blocks in 2usize..4) {
        let spec = PartitionSpec { blocks };
        for threads in [1usize, 4] {
                let mono = detector(threads, None);
                let part = detector(threads, Some(spec));
                let a = mono.score_sequence(&seq).expect("mono scores");
                let b = part.score_sequence(&seq).expect("part scores");
                prop_assert_eq!(a.len(), b.len());
                for (t, (sa, sb)) in a.iter().zip(&b).enumerate() {
                    prop_assert_eq!(sa.len(), sb.len());
                    let by_edge: HashMap<(usize, usize), f64> =
                        sa.iter().map(|e| ((e.u, e.v), e.score)).collect();
                    for e in sb {
                        let mono_score = by_edge[&(e.u, e.v)];
                        let err = (e.score - mono_score).abs();
                        prop_assert!(
                            err <= PART_REL_TOL * (1.0 + mono_score.abs()),
                            "t={t} edge ({}, {}): partitioned {} vs monolithic {} \
                             (err {err:.3e} > tol, {blocks} blocks, {threads} threads)",
                            e.u, e.v, e.score, mono_score
                        );
                    }
                }
        }
    }
}
