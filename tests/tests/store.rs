//! Storage-layer integration contracts (the `cad-store` crate):
//!
//! * packing a sequence to disk and loading it back feeds the detector
//!   the *same bits* — scores from the loaded sequence are bit-identical
//!   to scores from the in-memory original, for every commute engine and
//!   at both 1 and 4 worker threads (property-tested over random
//!   connected sequences);
//! * a content-addressed oracle cache makes a warm `detect` run build
//!   zero oracles (asserted on the `commute.oracle_builds` counter)
//!   while producing a bit-identical result;
//! * a cache keyed on a different engine or different snapshot never
//!   hits.
//!
//! The cache tests run each detection under a private
//! [`cad_obs::Registry`] ([`metered`]) and read its counters, so no
//! other test's oracle builds can show up in their counts (the pattern
//! set by `telemetry.rs`).

use cad_commute::{EmbeddingOptions, EngineOptions};
use cad_core::{CadDetector, CadOptions};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_obs::{Counter, Registry};
use cad_store::OracleStore;
use proptest::prelude::*;
use std::sync::Arc;

/// Run `f` under a fresh private registry; return its result and the
/// registry it recorded into.
fn metered<R>(f: impl FnOnce() -> R) -> (R, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    let out = {
        let _metrics = reg.enter();
        f()
    };
    (out, reg)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("cad-store-itests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    dir
}

/// The four engines the acceptance contract names. Small `k` keeps the
/// embedding cheap; the seed default makes it deterministic.
fn engines() -> Vec<EngineOptions> {
    vec![
        EngineOptions::Exact,
        EngineOptions::Approximate(EmbeddingOptions {
            k: 6,
            ..Default::default()
        }),
        EngineOptions::ShortestPath,
        EngineOptions::Corrected,
    ]
}

/// A strategy for short sequences of small *connected* graphs: a path
/// backbone guarantees connectivity, extra chords and per-instance
/// weight jitter make the transitions non-trivial.
fn sequence_strategy() -> impl Strategy<Value = GraphSequence> {
    (
        4usize..9,
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
                    // Deterministic pseudo-random chords from the salt.
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Acceptance contract: for every engine, pack → load → score is
    /// bit-identical to score on the in-memory sequence, at 1 and at 4
    /// threads.
    #[test]
    fn pack_load_score_is_bit_identical_for_every_engine(seq in sequence_strategy()) {
        let dir = std::env::temp_dir().join("cad-store-itests");
        std::fs::create_dir_all(&dir).expect("mk temp dir");
        let path = dir.join(format!("prop-{}.cadpack", std::process::id()));
        cad_store::write_pack(&path, &seq, "prop").expect("pack");
        let loaded = cad_store::read_pack(&path).expect("load");
        prop_assert_eq!(loaded.len(), seq.len());

        for engine in engines() {
            for threads in [1usize, 4] {
                let det = CadDetector::new(CadOptions {
                    engine,
                    threads,
                    ..Default::default()
                });
                let direct = det.score_sequence(&seq).expect("score original");
                let via_pack = det.score_sequence(&loaded).expect("score loaded");
                prop_assert_eq!(direct.len(), via_pack.len());
                for (a, b) in direct.iter().zip(&via_pack) {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!((x.u, x.v), (y.u, y.v));
                        prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                    }
                }
            }
        }
    }
}

/// Two triangle clusters joined by a weak link; `bridge > 0` adds the
/// cross-cluster edge whose appearance is the anomaly. `base` jitters
/// the intra-cluster weight so every instance is byte-distinct — the
/// cache keys on snapshot bytes, and identical snapshots would share
/// an artifact, muddying the hit/miss accounting the tests assert.
fn instance(bridge: f64, base: f64) -> WeightedGraph {
    let mut edges = vec![
        (0, 1, base),
        (0, 2, 3.0),
        (1, 2, 3.0),
        (3, 4, 3.0),
        (3, 5, 3.0),
        (4, 5, 3.0),
        (2, 3, 0.2),
    ];
    if bridge > 0.0 {
        edges.push((0, 5, bridge));
    }
    WeightedGraph::from_edges(6, &edges).unwrap()
}

fn bridge_sequence() -> GraphSequence {
    GraphSequence::new(vec![
        instance(0.0, 3.0),
        instance(0.0, 3.01),
        instance(1.5, 3.02),
        instance(0.0, 3.03),
    ])
    .unwrap()
}

/// Acceptance contract: a warm-cache `detect` performs **zero** oracle
/// builds — every oracle is deserialized from the store — and the
/// result is bit-identical to the cold run.
#[test]
fn warm_cache_detect_builds_zero_oracles() {
    let seq = bridge_sequence();
    let store: Arc<dyn cad_commute::OracleProvider> =
        Arc::new(OracleStore::open(temp_dir("warm")).unwrap());
    let det = CadDetector::new(CadOptions::default()).with_provider(store);

    let (cold, reg) = metered(|| det.detect(&seq, 0.4).unwrap());
    assert_eq!(
        reg.counter(Counter::OracleBuilds),
        seq.len() as u64,
        "cold run builds one oracle per instance"
    );
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);
    assert_eq!(reg.counter(Counter::StoreCacheHits), 0);

    let (warm, reg) = metered(|| det.detect(&seq, 0.4).unwrap());
    assert_eq!(
        reg.counter(Counter::OracleBuilds),
        0,
        "warm run must not build any oracle"
    );
    assert_eq!(reg.counter(Counter::StoreCacheHits), seq.len() as u64);
    assert_eq!(reg.counter(Counter::StoreCacheMisses), 0);
    assert!(
        reg.counter(Counter::StoreBytesRead) > 0,
        "warm run reads artifacts from disk"
    );

    assert_eq!(cold.transitions.len(), warm.transitions.len());
    for (c, w) in cold.transitions.iter().zip(&warm.transitions) {
        assert_eq!(c.nodes, w.nodes);
        assert_eq!(c.edges.len(), w.edges.len());
        for (a, b) in c.edges.iter().zip(&w.edges) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.d_commute.to_bits(), b.d_commute.to_bits());
        }
    }
}

/// Mirror of [`cache_keys_separate_engines_and_snapshots`] for the
/// partition layout: a cache populated by the monolithic oracle never
/// serves a partitioned request, two different layouts never share
/// artifacts, and re-running one layout hits every artifact it wrote.
#[test]
fn cache_keys_separate_partition_layouts() {
    let seq = bridge_sequence();
    let store: Arc<dyn cad_commute::OracleProvider> =
        Arc::new(OracleStore::open(temp_dir("part-keys")).unwrap());

    // Monolithic exact populates the unpartitioned namespace.
    let mono = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        ..Default::default()
    })
    .with_provider(Arc::clone(&store));
    let (_, reg) = metered(|| mono.detect(&seq, 0.4).unwrap());
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);

    // Same engine, same snapshots, but a partition layout: all misses.
    let two_blocks = cad_commute::PartitionSpec { blocks: 2 };
    let part = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        partition: Some(two_blocks),
        ..Default::default()
    })
    .with_provider(Arc::clone(&store));
    let (_, reg) = metered(|| part.detect(&seq, 0.4).unwrap());
    assert_eq!(
        reg.counter(Counter::StoreCacheHits),
        0,
        "partition layout is part of the key"
    );
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);

    // The same layout again: every artifact hits.
    let (_, reg) = metered(|| part.detect(&seq, 0.4).unwrap());
    assert_eq!(reg.counter(Counter::StoreCacheHits), seq.len() as u64);
    assert_eq!(reg.counter(Counter::StoreCacheMisses), 0);

    // A different block count is a different layout: all misses again.
    let three_blocks = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        partition: Some(cad_commute::PartitionSpec { blocks: 3 }),
        ..Default::default()
    })
    .with_provider(Arc::clone(&store));
    let (_, reg) = metered(|| three_blocks.detect(&seq, 0.4).unwrap());
    assert_eq!(
        reg.counter(Counter::StoreCacheHits),
        0,
        "block count is part of the key"
    );
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);
}

/// A cache populated by one engine never serves another engine's
/// request, and a perturbed snapshot never hits a stale artifact.
#[test]
fn cache_keys_separate_engines_and_snapshots() {
    let seq = bridge_sequence();
    let store: Arc<dyn cad_commute::OracleProvider> =
        Arc::new(OracleStore::open(temp_dir("keys")).unwrap());

    let exact = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        ..Default::default()
    })
    .with_provider(Arc::clone(&store));
    let (_, reg) = metered(|| exact.detect(&seq, 0.4).unwrap());
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);

    // Different engine, same snapshots: all misses.
    let corrected = CadDetector::new(CadOptions {
        engine: EngineOptions::Corrected,
        ..Default::default()
    })
    .with_provider(Arc::clone(&store));
    let (_, reg) = metered(|| corrected.detect(&seq, 0.4).unwrap());
    assert_eq!(
        reg.counter(Counter::StoreCacheHits),
        0,
        "engine is part of the key"
    );
    assert_eq!(reg.counter(Counter::StoreCacheMisses), seq.len() as u64);

    // Same engine, one perturbed snapshot: exactly the unchanged
    // instances hit.
    let mut graphs: Vec<WeightedGraph> = (0..seq.len()).map(|t| seq.graph(t).clone()).collect();
    graphs[2] = instance(1.5000001, 3.02);
    let perturbed = GraphSequence::new(graphs).unwrap();
    let (_, reg) = metered(|| exact.detect(&perturbed, 0.4).unwrap());
    assert_eq!(reg.counter(Counter::StoreCacheHits), 3);
    assert_eq!(
        reg.counter(Counter::StoreCacheMisses),
        1,
        "only the perturbed snapshot rebuilds"
    );
}
