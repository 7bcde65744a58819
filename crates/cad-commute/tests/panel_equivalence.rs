//! The commute embedding solves its sketch rows as lockstep PCG panels.
//! These tests pin that the panels change nothing observable:
//!
//! * coordinates and per-row PCG records are bit-identical to solving
//!   each row on its own (the per-row reference below), at 1 and 4
//!   threads;
//! * they also equal fixed digests, across preconditioners, solver
//!   kinds, disconnected graphs and `k` not a multiple of the panel
//!   width (so the last panel runs 1, 2, 4 or 8 wide);
//! * the per-build deltas of `linalg.spmv`, `linalg.cg_solves`,
//!   `linalg.cg_iterations` and `linalg.jl_projections` equal the
//!   recorded values.
//!
//! The digests and counts were recorded from the per-row implementation
//! the panels replaced, and re-recorded once when the sketch signs moved
//! from edge positions to pair keys and the default tolerance to
//! `SKETCH_SOLVE_TOL`; the per-row equality held across both.
//!
//! Each measured build records into a private [`Registry`].

use cad_commute::{sketch_rhs_panel, CommuteEmbedding, EmbeddingOptions};
use cad_graph::generators::random::sparse_random_graph;
use cad_graph::WeightedGraph;
use cad_linalg::solve::laplacian::PrecondKind;
use cad_linalg::solve::{CgOptions, LaplacianSolver, LaplacianSolverOptions, SolverKind};
use cad_obs::{Counter, Registry};
use std::sync::Arc;

fn fnv(h: &mut u64, w: u64) {
    for b in w.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn coords_digest(e: &CommuteEmbedding) -> u64 {
    let mut h = 0xcbf29ce484222325;
    for i in 0..e.n_nodes() {
        for &c in e.coords(i) {
            fnv(&mut h, c.to_bits());
        }
    }
    h
}

fn stats_digest(solves: &[cad_obs::SolveStats]) -> u64 {
    let mut h = 0xcbf29ce484222325;
    for s in solves {
        fnv(&mut h, s.iterations as u64);
        fnv(&mut h, s.relative_residual.to_bits());
        fnv(&mut h, s.converged as u64);
        for t in &s.residual_trace {
            fnv(&mut h, t.to_bits());
        }
    }
    h
}

/// `f`'s result and its
/// `[linalg.spmv, linalg.cg_solves, linalg.cg_iterations, linalg.jl_projections]`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    let reg = Arc::new(Registry::new());
    let out = {
        let _metrics = reg.enter();
        f()
    };
    let counters = [
        Counter::Spmv,
        Counter::CgSolves,
        Counter::CgIterations,
        Counter::JlProjections,
    ];
    (out, counters.map(|c| reg.counter(c)))
}

fn base_graph() -> WeightedGraph {
    sparse_random_graph(400, 1600, 7).unwrap()
}

/// Two random components, a path, and isolated nodes 150..160, 315..320.
fn disconnected_graph() -> WeightedGraph {
    let a = sparse_random_graph(150, 450, 3).unwrap();
    let mut edges: Vec<(usize, usize, f64)> = a.edges().collect();
    for (u, v, w) in a.edges() {
        if (u + v) % 3 == 0 {
            edges.push((u + 160, v + 160, w * 0.5));
        }
    }
    for i in 0..4 {
        edges.push((310 + i, 311 + i, 1.0 + i as f64));
    }
    WeightedGraph::from_edges(320, &edges).unwrap()
}

struct Case {
    name: &'static str,
    graph: WeightedGraph,
    opts: EmbeddingOptions,
    coords: u64,
    stats: u64,
    counters: [u64; 4],
}

/// Recorded digests and counter deltas.
fn cases() -> Vec<Case> {
    let solver = |kind, precond, cap| LaplacianSolverOptions {
        kind,
        precond,
        cg: CgOptions {
            residual_trace_cap: cap,
            ..Default::default()
        },
    };
    let opts = |k, seed, solver| EmbeddingOptions {
        k,
        seed,
        solver,
        threads: 1,
    };
    vec![
        Case {
            name: "sparse400-default",
            graph: base_graph(),
            opts: EmbeddingOptions::default(),
            coords: 0x1e940b07fed790ee,
            stats: 0xa9327162e6bfca89,
            counters: [875, 50, 875, 50],
        },
        Case {
            name: "sparse400-default-k12",
            graph: base_graph(),
            opts: EmbeddingOptions {
                k: 12,
                ..Default::default()
            },
            coords: 0xe6aaeb3ce93fa138,
            stats: 0x192c143033fd61a3,
            counters: [212, 12, 212, 12],
        },
        Case {
            name: "disc-ic0-k13",
            graph: disconnected_graph(),
            opts: opts(
                13,
                5,
                solver(SolverKind::Grounded, PrecondKind::IncompleteCholesky, 0),
            ),
            coords: 0xe2db21f039981573,
            stats: 0x02a9de5b6fc14711,
            counters: [485, 13, 485, 13],
        },
        Case {
            name: "disc-tree-reg-k9",
            graph: disconnected_graph(),
            opts: opts(
                9,
                6,
                solver(SolverKind::Regularized(1e-3), PrecondKind::SpanningTree, 0),
            ),
            coords: 0x4953c019c51a57e7,
            stats: 0x6594d2f92929bf57,
            counters: [505, 9, 505, 9],
        },
        Case {
            name: "sparse400-none-k8-trace",
            graph: base_graph(),
            opts: opts(8, 9, solver(SolverKind::Grounded, PrecondKind::None, 4)),
            coords: 0x9f4ef00c0bb09b4e,
            stats: 0xb25a0af8e353bde0,
            counters: [355, 8, 355, 8],
        },
        Case {
            name: "disc-jacobi-reg-k50",
            graph: disconnected_graph(),
            opts: EmbeddingOptions {
                solver: solver(SolverKind::Regularized(1e-6), PrecondKind::Jacobi, 0),
                ..Default::default()
            },
            coords: 0xc4e5dfa29f71f530,
            stats: 0xa334540e21fb3172,
            counters: [8186, 50, 8186, 50],
        },
    ]
}

/// The per-row path: one right-hand side and one single-vector solve per
/// sketch row.
fn per_row(g: &WeightedGraph, opts: &EmbeddingOptions) -> (Vec<f64>, Vec<cad_obs::SolveStats>) {
    let (n, k) = (g.n_nodes(), opts.k);
    let solver = LaplacianSolver::new(&g.laplacian(), opts.solver).unwrap();
    let mut coords = vec![0.0; n * k];
    let mut solves = Vec::new();
    for row in 0..k {
        let y = sketch_rhs_panel::<1>(g, opts, row);
        let (x, stats) = solver.solve_stats(&y).unwrap();
        for (i, xi) in x.into_iter().enumerate() {
            coords[i * k + row] = xi;
        }
        solves.push(stats);
    }
    (coords, solves)
}

fn flat(e: &CommuteEmbedding) -> Vec<u64> {
    (0..e.n_nodes())
        .flat_map(|i| e.coords(i).iter().map(|c| c.to_bits()))
        .collect()
}

#[test]
fn compute_matches_per_row_and_recorded_digests() {
    for case in cases() {
        let (reference, ref_solves) = per_row(&case.graph, &case.opts);
        let reference: Vec<u64> = reference.iter().map(|c| c.to_bits()).collect();
        for threads in [1usize, 4] {
            let opts = EmbeddingOptions {
                threads,
                ..case.opts
            };
            let (emb, deltas) = counted(|| CommuteEmbedding::compute(&case.graph, &opts).unwrap());
            let name = format!("{} threads={threads}", case.name);
            assert!(flat(&emb) == reference, "{name}: coordinates differ");
            assert_eq!(emb.build_stats().solves, ref_solves, "{name}");
            assert_eq!(coords_digest(&emb), case.coords, "{name}: coords digest");
            assert_eq!(
                stats_digest(&emb.build_stats().solves),
                case.stats,
                "{name}: stats digest"
            );
            assert_eq!(deltas, case.counters, "{name}: counter deltas");
        }
    }
}
