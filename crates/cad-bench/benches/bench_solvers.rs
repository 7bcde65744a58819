//! Ablation benchmark called out in DESIGN.md: the Laplacian-solver
//! preconditioners (none / Jacobi / IC(0) / spanning tree) across the
//! two graph families that stress them differently — kernel-similarity
//! cluster graphs (well-conditioned, diagonal methods fine) and
//! threshold-regime sparse random graphs (filament-heavy, where the tree
//! preconditioner substitutes for the paper's Spielman–Teng solver).
//! A last group times the commute embedding's k = 50 sketch solves one
//! row at a time against eight-row lockstep panels.

use cad_commute::{sketch_rhs_panel, EmbeddingOptions};
use cad_graph::generators::gmm::{sample_gmm, similarity_graph, GmmParams};
use cad_graph::generators::random::sparse_random_graph;
use cad_graph::WeightedGraph;
use cad_linalg::solve::laplacian::PrecondKind;
use cad_linalg::solve::{CgOptions, LaplacianSolver, LaplacianSolverOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn solve_with(g: &WeightedGraph, precond: PrecondKind) {
    let l = g.laplacian();
    let solver = LaplacianSolver::new(
        &l,
        LaplacianSolverOptions {
            precond,
            cg: CgOptions {
                tol: 1e-6,
                max_iter: None,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("solver setup");
    // A mean-free RHS similar to the embedding's incidence rows.
    let n = g.n_nodes();
    let b: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let x = solver.solve(&b).expect("solve");
    std::hint::black_box(x);
}

fn bench_preconditioners(c: &mut Criterion) {
    let (pts, _) = sample_gmm(600, &GmmParams::default(), 3);
    let cluster = similarity_graph(&pts, 1e-3).expect("cluster graph");
    let random = sparse_random_graph(5_000, 5_000, 3).expect("random graph");

    let kinds = [
        ("none", PrecondKind::None),
        ("jacobi", PrecondKind::Jacobi),
        ("ic0", PrecondKind::IncompleteCholesky),
        ("tree", PrecondKind::SpanningTree),
    ];

    let mut grp = c.benchmark_group("laplacian_solve_cluster_n600");
    grp.sample_size(10);
    for (name, kind) in kinds {
        grp.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            b.iter(|| solve_with(&cluster, kind))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("laplacian_solve_random_n5000");
    grp.sample_size(10);
    for (name, kind) in kinds {
        grp.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            b.iter(|| solve_with(&random, kind))
        });
    }
    grp.finish();
}

/// The embedding's k = 50 solves (default options: Jacobi, tol 1e-8) on
/// the same solver and right-hand sides, per row and as 8-wide panels.
/// Both produce bit-identical solutions; only the passes over `L` differ.
fn bench_panel_vs_per_row(c: &mut Criterion) {
    const W: usize = 8;
    let g = sparse_random_graph(10_000, 40_000, 3).expect("random graph");
    let opts = EmbeddingOptions::default();
    let solver = LaplacianSolver::new(&g.laplacian(), opts.solver).expect("solver setup");
    let rows: Vec<Vec<f64>> = (0..opts.k)
        .map(|r| sketch_rhs_panel::<1>(&g, &opts, r))
        .collect();
    let panels: Vec<(Vec<f64>, usize)> = (0..opts.k)
        .step_by(W)
        .map(|r| (sketch_rhs_panel::<W>(&g, &opts, r), W.min(opts.k - r)))
        .collect();

    let mut grp = c.benchmark_group("embedding_solves_k50_random_n10000");
    grp.sample_size(5);
    grp.bench_function("per_row", |b| {
        b.iter(|| {
            for y in &rows {
                std::hint::black_box(solver.solve_stats(y).expect("solve"));
            }
        })
    });
    grp.bench_function("panel8", |b| {
        b.iter(|| {
            for (y, lanes) in &panels {
                std::hint::black_box(solver.solve_panel::<W>(y.clone(), *lanes).expect("solve"));
            }
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_preconditioners, bench_panel_vs_per_row);
criterion_main!(benches);
