//! The commute embedding solves its sketch rows as lockstep PCG panels.
//! These tests pin that the panels change nothing observable:
//!
//! * coordinates and per-row PCG records are bit-identical to solving
//!   each row on its own (the per-row reference below), for `compute`
//!   and `apply_delta`, at 1 and 4 threads;
//! * they also equal fixed digests recorded from the per-row
//!   implementation the panels replaced, across preconditioners,
//!   solver kinds, disconnected graphs and `k` not a multiple of the
//!   panel width;
//! * the per-build deltas of `linalg.spmv`, `linalg.cg_solves`,
//!   `linalg.cg_iterations` and `linalg.jl_projections` equal the
//!   values that implementation produced.
//!
//! Each measured build records into a private [`Registry`].

use cad_commute::{
    sketch_rhs_panel, CommuteEmbedding, EdgeDelta, EmbeddingOptions, UpdatableOracle,
};
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

/// `base_graph` with four weights scaled and two edges added.
fn changed_graph() -> WeightedGraph {
    let g = base_graph();
    let mut edges: Vec<(usize, usize, f64)> = g.edges().collect();
    for i in [0usize, 10, 20, 300] {
        edges[i].2 *= 1.5;
    }
    let mut added = 0;
    'outer: for u in 0..400 {
        for v in (u + 2)..400 {
            if g.adjacency().get(u, v) == 0.0 {
                edges.push((u, v, 2.5));
                added += 1;
                if added == 2 {
                    break 'outer;
                }
                continue 'outer;
            }
        }
    }
    WeightedGraph::from_edges(400, &edges).unwrap()
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

/// Digests and counter deltas recorded from the per-row implementation.
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
            coords: 0x9ad1e1578af772aa,
            stats: 0xf52ec98575c63676,
            counters: [1400, 50, 1400, 50],
        },
        Case {
            name: "disc-ic0-k13",
            graph: disconnected_graph(),
            opts: opts(
                13,
                5,
                solver(SolverKind::Grounded, PrecondKind::IncompleteCholesky, 0),
            ),
            coords: 0xd4109c58fd196525,
            stats: 0x70349173f2819502,
            counters: [487, 13, 487, 13],
        },
        Case {
            name: "disc-tree-reg-k9",
            graph: disconnected_graph(),
            opts: opts(
                9,
                6,
                solver(SolverKind::Regularized(1e-3), PrecondKind::SpanningTree, 0),
            ),
            coords: 0x0c6d7a9f9f1cca1c,
            stats: 0xb09ebb8ba301d87f,
            counters: [502, 9, 502, 9],
        },
        Case {
            name: "sparse400-none-k8-trace",
            graph: base_graph(),
            opts: opts(8, 9, solver(SolverKind::Grounded, PrecondKind::None, 4)),
            coords: 0x57e2d78c3467ae8a,
            stats: 0xd20b71429a99a47b,
            counters: [355, 8, 355, 8],
        },
        Case {
            name: "disc-jacobi-reg-k50",
            graph: disconnected_graph(),
            opts: EmbeddingOptions {
                solver: solver(SolverKind::Regularized(1e-6), PrecondKind::Jacobi, 0),
                ..Default::default()
            },
            coords: 0x0f7034b2aa08ea72,
            stats: 0x2d264a1ba590e5cd,
            counters: [7910, 50, 7910, 50],
        },
    ]
}

/// The per-row path: one right-hand side and one single-vector solve per
/// sketch row, warm-started from `x0` (row-major `n × k`) when given.
fn per_row(
    g: &WeightedGraph,
    opts: &EmbeddingOptions,
    x0: Option<&[f64]>,
) -> (Vec<f64>, Vec<cad_obs::SolveStats>) {
    let (n, k) = (g.n_nodes(), opts.k);
    let solver = LaplacianSolver::new(&g.laplacian(), opts.solver).unwrap();
    let mut coords = vec![0.0; n * k];
    let mut solves = Vec::new();
    for row in 0..k {
        let y = sketch_rhs_panel::<1>(g, opts, row);
        let (x, stats) = match x0 {
            None => solver.solve_stats(&y),
            Some(x0) => {
                let guess: Vec<f64> = (0..n).map(|i| x0[i * k + row]).collect();
                solver.solve_from_stats(&y, &guess)
            }
        }
        .unwrap();
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
        let (reference, ref_solves) = per_row(&case.graph, &case.opts, None);
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

#[test]
fn apply_delta_matches_per_row_and_recorded_digest() {
    let (old, new) = (base_graph(), changed_graph());
    for threads in [1usize, 4] {
        let opts = EmbeddingOptions {
            threads,
            ..Default::default()
        };
        let mut emb = CommuteEmbedding::compute(&old, &opts).unwrap();
        let start: Vec<f64> = (0..old.n_nodes())
            .flat_map(|i| emb.coords(i).to_vec())
            .collect();
        let (reference, _) = per_row(&new, &opts, Some(&start));
        let (outcome, deltas) = counted(|| emb.apply_delta(&EdgeDelta::between(&old, &new)));
        assert_eq!(
            outcome.unwrap(),
            cad_commute::UpdateOutcome::Applied { changes: 6 }
        );
        let reference: Vec<u64> = reference.iter().map(|c| c.to_bits()).collect();
        assert!(
            flat(&emb) == reference,
            "threads={threads}: coordinates differ"
        );
        assert_eq!(coords_digest(&emb), 0x68b0d925e3690300, "threads={threads}");
        // One extra SpMV per row: the warm start's initial residual.
        assert_eq!(deltas, [1459, 50, 1409, 50], "threads={threads}");
    }
}
