//! Property-based tests of the commute-time engines on randomized
//! graphs — the invariants behind paper eq. 3.

use cad_commute::{
    CommuteEmbedding, CorrectedCommute, DistanceOracle, EmbeddingOptions, ExactCommute,
};
use cad_graph::WeightedGraph;
use proptest::prelude::*;

/// Strategy: a random connected weighted graph on `n` nodes — a random
/// spanning-tree backbone plus extra random edges.
fn connected_graph(n: usize) -> impl Strategy<Value = WeightedGraph> {
    let backbone = proptest::collection::vec(0.2f64..3.0, n - 1);
    let extras = proptest::collection::vec((0..n as u32, 0..n as u32, 0.2f64..3.0), 0..12);
    (backbone, extras).prop_map(move |(spine, extras)| {
        let mut edges: Vec<(usize, usize, f64)> = spine
            .into_iter()
            .enumerate()
            .map(|(i, w)| (i, i + 1, w))
            .collect();
        for (u, v, w) in extras {
            let (u, v) = (u as usize, v as usize);
            if u != v {
                edges.push((u, v, w));
            }
        }
        WeightedGraph::from_edges(n, &edges).expect("valid random graph")
    })
}

/// Strategy: a graph on `n` nodes with random edges only, so it is
/// often disconnected and may hold isolated nodes.
fn any_graph(n: usize) -> impl Strategy<Value = WeightedGraph> {
    proptest::collection::vec((0..n as u32, 0..n as u32, 0.2f64..3.0), 0..3 * n).prop_map(
        move |edges| {
            let edges: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, w)| (u as usize, v as usize, w))
                .collect();
            WeightedGraph::from_edges(n, &edges).expect("valid random graph")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fresh_exact_and_corrected_distances_are_bitwise_symmetric(
        connected in connected_graph(40),
        any in any_graph(40),
    ) {
        for g in [&connected, &any] {
            let exact = ExactCommute::compute(g).expect("exact");
            let corrected = CorrectedCommute::compute(g).expect("corrected");
            let n = g.n_nodes();
            for u in 0..n {
                for v in 0..u {
                    let (a, b) = (exact.commute_distance(u, v), exact.commute_distance(v, u));
                    prop_assert!(a.to_bits() == b.to_bits(), "exact c({u},{v}) {a} vs c({v},{u}) {b}");
                    let (a, b) = (corrected.distance(u, v), corrected.distance(v, u));
                    prop_assert!(a.to_bits() == b.to_bits(), "corrected d({u},{v}) {a} vs d({v},{u}) {b}");
                }
            }
        }
    }

    #[test]
    fn commute_time_is_a_metric(g in connected_graph(9)) {
        let c = ExactCommute::compute(&g).expect("exact");
        let n = g.n_nodes();
        for i in 0..n {
            prop_assert_eq!(c.commute_distance(i, i), 0.0);
            for j in 0..n {
                let d_ij = c.commute_distance(i, j);
                prop_assert!(d_ij >= 0.0);
                prop_assert!((d_ij - c.commute_distance(j, i)).abs() < 1e-9);
                if i != j {
                    prop_assert!(d_ij > 0.0);
                }
                for k in 0..n {
                    prop_assert!(
                        d_ij <= c.commute_distance(i, k) + c.commute_distance(k, j) + 1e-9
                    );
                }
            }
        }
    }

    #[test]
    fn commute_equals_volume_times_resistance(g in connected_graph(8)) {
        let c = ExactCommute::compute(&g).expect("exact");
        let vg = g.volume();
        for i in 0..8 {
            for j in 0..8 {
                let want = vg * c.resistance(i, j);
                prop_assert!((c.commute_distance(i, j) - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn resistance_bounded_by_direct_edge(g in connected_graph(8)) {
        // Rayleigh monotonicity corollary: r_eff(i,j) ≤ 1/w(i,j) for any
        // direct edge.
        let c = ExactCommute::compute(&g).expect("exact");
        for (u, v, w) in g.edges() {
            prop_assert!(
                c.resistance(u, v) <= 1.0 / w + 1e-9,
                "r({u},{v}) = {} > 1/w = {}", c.resistance(u, v), 1.0 / w
            );
        }
    }

    #[test]
    fn adding_an_edge_never_increases_resistance(g in connected_graph(8)) {
        // Rayleigh monotonicity: extra conductance can only shrink
        // effective resistances.
        let before = ExactCommute::compute(&g).expect("exact");
        let mut edges: Vec<_> = g.edges().collect();
        edges.push((0, 7, 1.0));
        let denser = WeightedGraph::from_edges(8, &edges).expect("valid");
        let after = ExactCommute::compute(&denser).expect("exact");
        for i in 0..8 {
            for j in 0..8 {
                prop_assert!(
                    after.resistance(i, j) <= before.resistance(i, j) + 1e-9,
                    "r({i},{j}) grew: {} -> {}",
                    before.resistance(i, j),
                    after.resistance(i, j)
                );
            }
        }
    }

    #[test]
    fn embedding_tracks_exact_within_jl_bound(g in connected_graph(8)) {
        let exact = ExactCommute::compute(&g).expect("exact");
        let emb = CommuteEmbedding::compute(
            &g,
            &EmbeddingOptions { k: 512, seed: 11, ..Default::default() },
        )
        .expect("embedding");
        for i in 0..8 {
            for j in (i + 1)..8 {
                let e = exact.resistance(i, j);
                let a = emb.resistance(i, j);
                // k = 512 → ε ≈ sqrt(8 ln n / k) ≈ 0.18; allow headroom.
                prop_assert!(
                    (a - e).abs() <= 0.35 * e,
                    "r({i},{j}): approx {a} vs exact {e}"
                );
            }
        }
    }

    #[test]
    fn uniform_weight_scaling_preserves_resistance_ratios(
        g in connected_graph(7),
        scale in 0.5f64..4.0,
    ) {
        // r_eff scales by 1/s under uniform weight scaling; commute time
        // (V_G·r) is invariant.
        let scaled_edges: Vec<_> =
            g.edges().map(|(u, v, w)| (u, v, w * scale)).collect();
        let gs = WeightedGraph::from_edges(7, &scaled_edges).expect("valid");
        let c0 = ExactCommute::compute(&g).expect("exact");
        let c1 = ExactCommute::compute(&gs).expect("exact");
        for i in 0..7 {
            for j in 0..7 {
                prop_assert!(
                    (c1.resistance(i, j) - c0.resistance(i, j) / scale).abs()
                        < 1e-8 * (1.0 + c0.resistance(i, j)),
                );
                prop_assert!(
                    (c1.commute_distance(i, j) - c0.commute_distance(i, j)).abs()
                        < 1e-7 * (1.0 + c0.commute_distance(i, j)),
                );
            }
        }
    }
}
