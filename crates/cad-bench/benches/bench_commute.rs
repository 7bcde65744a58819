//! Criterion benchmarks behind **Figure 5**: exact vs approximate
//! commute-time computation, and the approximate engine's cost as a
//! function of the embedding dimension `k` (the paper's `k_RP`).
//!
//! Three more groups time the alternatives to a cold oracle build on
//! the n = 300 GMM benchmark instance: a warm load from the oracle
//! store, a block-partitioned exact build, and an in-place weight-only
//! delta update. The partitioned comparison adds sparse points: a
//! 50×50 grid, which has small BFS cuts, and a disconnected random
//! graph with m = n. The update comparison adds a sweep over the delta
//! size `k` at n = 200, 300 and 400 for the exact engine, the
//! measurement behind the online detector's update-or-rebuild price.

use cad_commute::{
    CommuteEmbedding, CommuteTimeEngine, EdgeDelta, EmbeddingOptions, EngineOptions, ExactCommute,
    PartitionSpec, UpdatableOracle,
};
use cad_datasets::{GmmBenchmark, GmmBenchmarkOptions};
use cad_graph::generators::gmm::{sample_gmm, similarity_graph, GmmParams};
use cad_graph::generators::{grid_graph, sparse_random_graph};
use cad_graph::WeightedGraph;
use cad_part::PartitionedOracle;
use cad_store::{cache_key, OracleStore};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn kernel_graph(n: usize) -> WeightedGraph {
    let (pts, _) = sample_gmm(n, &GmmParams::default(), 7);
    similarity_graph(&pts, 1e-3).expect("kernel graph")
}

fn bench_exact_vs_approx(c: &mut Criterion) {
    let g = kernel_graph(300);
    let mut grp = c.benchmark_group("commute_exact_vs_approx_n300");
    grp.sample_size(10);
    grp.bench_function("exact_pinv", |b| {
        b.iter(|| ExactCommute::compute(black_box(&g)).expect("exact"))
    });
    grp.bench_function("embedding_k50", |b| {
        b.iter(|| {
            CommuteEmbedding::compute(
                black_box(&g),
                &EmbeddingOptions {
                    k: 50,
                    ..Default::default()
                },
            )
            .expect("embedding")
        })
    });
    grp.finish();
}

fn bench_embedding_vs_k(c: &mut Criterion) {
    let g = kernel_graph(400);
    let mut grp = c.benchmark_group("embedding_vs_k_n400");
    grp.sample_size(10);
    for k in [5usize, 10, 25, 50, 100] {
        grp.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                CommuteEmbedding::compute(
                    &g,
                    &EmbeddingOptions {
                        k,
                        ..Default::default()
                    },
                )
                .expect("embedding")
            })
        });
    }
    grp.finish();
}

fn bench_embedding_threads(c: &mut Criterion) {
    let g = kernel_graph(400);
    let mut grp = c.benchmark_group("embedding_threads_n400_k50");
    grp.sample_size(10);
    for threads in [1usize, 2, 4] {
        grp.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    CommuteEmbedding::compute(
                        &g,
                        &EmbeddingOptions {
                            k: 50,
                            threads,
                            ..Default::default()
                        },
                    )
                    .expect("embedding")
                })
            },
        );
    }
    grp.finish();
}

fn bench_query_cost(c: &mut Criterion) {
    let g = kernel_graph(300);
    let exact = ExactCommute::compute(&g).expect("exact");
    let emb = CommuteEmbedding::compute(
        &g,
        &EmbeddingOptions {
            k: 50,
            ..Default::default()
        },
    )
    .expect("embedding");
    let mut grp = c.benchmark_group("commute_query");
    grp.bench_function("exact_lookup", |b| {
        b.iter(|| black_box(exact.commute_distance(black_box(10), black_box(200))))
    });
    grp.bench_function("embedding_k50_distance", |b| {
        b.iter(|| black_box(emb.commute_distance(black_box(10), black_box(200))))
    });
    grp.finish();
}

/// Instance 0 of the seed-7 n = 300 GMM benchmark realization.
fn gmm_instance() -> WeightedGraph {
    let mut opts = GmmBenchmarkOptions::with_n(300);
    opts.seed = 7;
    let bench = GmmBenchmark::generate(&opts).expect("GMM realization");
    bench.seq.graph(0).clone()
}

fn backends() -> [(&'static str, EngineOptions); 3] {
    [
        ("exact", EngineOptions::Exact),
        (
            "embedding_k25",
            EngineOptions::Approximate(EmbeddingOptions {
                k: 25,
                ..Default::default()
            }),
        ),
        ("corrected", EngineOptions::Corrected),
    ]
}

fn bench_store_cold_vs_warm(c: &mut Criterion) {
    let g = gmm_instance();
    let dir = std::env::temp_dir().join(format!("cad-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = OracleStore::open(&dir).expect("open oracle store");
    let mut grp = c.benchmark_group("store_cold_vs_warm_n300");
    grp.sample_size(10);
    for (label, engine) in &backends() {
        let artifact = store.artifact_path(&cache_key(&g, engine));
        // Cold: miss, build, persist.
        grp.bench_function(format!("{label}/cold_build"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_file(&artifact);
                store.get_or_build(&g, engine).expect("cold")
            })
        });
        // Warm: read, checksum and decode the persisted artifact.
        grp.bench_function(format!("{label}/warm_load"), |b| {
            b.iter(|| store.get_or_build(&g, engine).expect("warm"))
        });
    }
    grp.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_partitioned_vs_monolithic(c: &mut Criterion) {
    let exact = EngineOptions::Exact;
    let monolithic = |g: &WeightedGraph| CommuteTimeEngine::compute(g, &exact).expect("monolithic");
    let partitioned = |g: &WeightedGraph, blocks| {
        PartitionedOracle::build(g, &exact, PartitionSpec { blocks }, 1).expect("partitioned")
    };

    let g = gmm_instance();
    let mut grp = c.benchmark_group("partitioned_vs_monolithic_n300");
    grp.sample_size(10);
    grp.bench_function("exact/monolithic", |b| b.iter(|| monolithic(black_box(&g))));
    grp.bench_function("exact/partitioned_4", |b| {
        b.iter(|| partitioned(black_box(&g), 4))
    });
    grp.finish();

    let grid = grid_graph(50, 50, 1.0).expect("grid");
    let rand1 = sparse_random_graph(1024, 1024, 7).expect("random graph");
    let mut grp = c.benchmark_group("partitioned_vs_monolithic_sparse");
    grp.sample_size(3);
    grp.bench_function("grid_50x50/exact/monolithic", |b| {
        b.iter(|| monolithic(black_box(&grid)))
    });
    for blocks in [4, 16] {
        grp.bench_function(format!("grid_50x50/exact/partitioned_{blocks}"), |b| {
            b.iter(|| partitioned(black_box(&grid), blocks))
        });
    }
    grp.bench_function("rand1_n1024/exact/monolithic", |b| {
        b.iter(|| monolithic(black_box(&rand1)))
    });
    grp.finish();
}

/// `g` with `k` edge weights scaled by 1.2, spread evenly over the edge
/// list: a weight-only delta of exactly `k` changes.
fn reweighted(g: &WeightedGraph, k: usize) -> WeightedGraph {
    let m = g.n_edges();
    assert!(k <= m, "{k} changes on {m} edges");
    let edges: Vec<(usize, usize, f64)> = g
        .edges()
        .enumerate()
        .map(|(i, (u, v, w))| (u, v, if (i * k) % m < k { w * 1.2 } else { w }))
        .collect();
    WeightedGraph::from_edges(g.n_nodes(), &edges).expect("reweighted")
}

fn bench_update_vs_rebuild(c: &mut Criterion) {
    let g = gmm_instance();
    // Scale every fifth edge weight: the small weight-only delta an
    // incremental stream sees.
    let perturbed = reweighted(&g, g.n_edges().div_ceil(5));
    let delta = EdgeDelta::between(&g, &perturbed);
    assert!(!delta.structural, "weight-only perturbation");
    let mut grp = c.benchmark_group("update_vs_rebuild_n300");
    grp.sample_size(10);
    for (label, engine) in &backends() {
        let mut base = CommuteTimeEngine::compute(&g, engine).expect("base oracle");
        grp.bench_function(format!("{label}/cold_build"), |b| {
            b.iter(|| CommuteTimeEngine::compute(black_box(&perturbed), engine).expect("cold"))
        });
        // A backend that cannot update in place (the embedding) rebuilds
        // on every push: its cold build is the whole price.
        if base.as_updatable().is_none() {
            continue;
        }
        // `apply_delta` mutates, so each iteration updates a fresh clone
        // (an O(n²) copy at most, small next to either side).
        grp.bench_function(format!("{label}/clone_apply_delta"), |b| {
            b.iter(|| {
                let mut oracle = base.clone_box();
                oracle
                    .as_updatable()
                    .expect("updatable backend")
                    .apply_delta(&delta)
                    .expect("apply_delta");
                oracle
            })
        });
    }
    grp.finish();

    // The exact path's price: a clone plus `k` Sherman–Morrison steps
    // (about k·n²) against a cold `laplacian_pinv` build (about n³),
    // sweeping `k` in multiples of n/8. Where the two cross, as a
    // multiple of n, is `SM_REBUILD_CHANGES_PER_NODE`.
    for n in [200, 300, 400] {
        let g = kernel_graph(n);
        let base = ExactCommute::compute(&g).expect("base oracle");
        let mut grp = c.benchmark_group(format!("update_vs_rebuild_k_sweep_n{n}"));
        grp.sample_size(10);
        grp.bench_function("cold_build", |b| {
            b.iter(|| ExactCommute::compute(black_box(&g)).expect("cold"))
        });
        for eighths in 1..=10 {
            let k = eighths * n / 8;
            let next = reweighted(&g, k);
            let delta = EdgeDelta::between(&g, &next);
            assert_eq!(delta.changes.len(), k);
            grp.bench_function(format!("clone_apply_k{k}"), |b| {
                b.iter(|| {
                    let mut oracle = base.clone();
                    oracle.apply_delta(&delta).expect("apply_delta");
                    oracle
                })
            });
        }
        grp.finish();
    }
}

criterion_group!(
    benches,
    bench_exact_vs_approx,
    bench_embedding_vs_k,
    bench_embedding_threads,
    bench_query_cost,
    bench_store_cold_vs_warm,
    bench_partitioned_vs_monolithic,
    bench_update_vs_rebuild
);
criterion_main!(benches);
