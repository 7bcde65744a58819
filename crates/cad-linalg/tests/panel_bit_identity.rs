//! `LaplacianSolver::solve_panel` against per-column `solve_stats` /
//! `solve_from_stats`: the solutions, every `SolveStats` field and the
//! telemetry must be bit-identical, for every preconditioner and solver
//! kind, on graphs with several components and isolated nodes, with
//! all-zero right-hand sides and padded panels.
//!
//! Telemetry is read from a private [`Registry`] per measured call.

use cad_linalg::solve::laplacian::PrecondKind;
use cad_linalg::solve::{CgOptions, LaplacianSolver, LaplacianSolverOptions, SolverKind};
use cad_linalg::sparse::CsrMatrix;
use cad_obs::{Counter, Hist, Registry, SolveStats};
use proptest::prelude::*;
use std::sync::Arc;

const W: usize = 8;

const PRECONDS: [PrecondKind; 4] = [
    PrecondKind::Jacobi,
    PrecondKind::IncompleteCholesky,
    PrecondKind::SpanningTree,
    PrecondKind::None,
];

/// Laplacian of the given weighted edges over `n` nodes (self-loops and
/// out-of-range endpoints dropped; duplicates sum).
fn laplacian(n: usize, edges: &[(u32, u32, f64)]) -> CsrMatrix {
    let mut tri = Vec::new();
    for &(u, v, w) in edges {
        if (u as usize) < n && (v as usize) < n && u != v {
            tri.extend([(u, v, -w), (v, u, -w), (u, u, w), (v, v, w)]);
        }
    }
    CsrMatrix::from_triplets(n, n, &tri)
}

/// Column `j` of a row-major `n × width` panel.
fn column(panel: &[f64], width: usize, j: usize) -> Vec<f64> {
    panel.chunks_exact(width).map(|row| row[j]).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn stats_bits(s: &SolveStats) -> (usize, u64, bool, Vec<u64>) {
    (
        s.iterations,
        s.relative_residual.to_bits(),
        s.converged,
        bits(&s.residual_trace),
    )
}

/// `[linalg.spmv, linalg.cg_solves, linalg.cg_iterations]` and the two
/// CG histograms recorded by `f`.
fn telemetry(f: impl FnOnce()) -> ([u64; 3], cad_obs::Histogram, cad_obs::Histogram) {
    let reg = Arc::new(Registry::new());
    {
        let _metrics = reg.enter();
        f();
    }
    (
        [Counter::Spmv, Counter::CgSolves, Counter::CgIterations].map(|c| reg.counter(c)),
        reg.histogram(Hist::CgIterations),
        reg.histogram(Hist::CgResiduals),
    )
}

/// Solve the `k` columns of the row-major `n × k` matrices `b` (and
/// `x0`) per column and as `W`-wide panels, and compare everything.
fn compare(
    solver: &LaplacianSolver,
    n: usize,
    k: usize,
    b: &[f64],
    x0: Option<&[f64]>,
) -> Result<(), String> {
    let mut single = Vec::new();
    let single_tel = telemetry(|| {
        for j in 0..k {
            let bj = column(b, k, j);
            single.push(match x0 {
                None => solver.solve_stats(&bj),
                Some(x0) => solver.solve_from_stats(&bj, &column(x0, k, j)),
            });
        }
    });
    let mut panels = Vec::new();
    let panel_tel = telemetry(|| {
        for row0 in (0..k).step_by(W) {
            let lanes = W.min(k - row0);
            // Padding lanes carry junk that must not leak into any lane.
            let pack = |m: &[f64]| -> Vec<f64> {
                (0..n * W)
                    .map(|idx| {
                        let (i, j) = (idx / W, idx % W);
                        if j < lanes {
                            m[i * k + row0 + j]
                        } else {
                            1e3 + idx as f64
                        }
                    })
                    .collect()
            };
            panels.push(solver.solve_panel::<W>(pack(b), x0.map(pack), lanes));
        }
    });
    for (p, panel) in panels.into_iter().enumerate() {
        let (x, stats) = panel.map_err(|e| format!("panel {p}: {e}"))?;
        prop_assert_eq!(stats.len(), W.min(k - p * W));
        for (j, s) in stats.iter().enumerate() {
            let col = p * W + j;
            let (xs, ss) = single[col].as_ref().map_err(|e| e.to_string())?;
            prop_assert!(
                bits(&column(&x, W, j)) == bits(xs),
                "column {col}: solutions differ"
            );
            prop_assert_eq!(stats_bits(s), stats_bits(ss));
        }
    }
    prop_assert_eq!(panel_tel.0, single_tel.0);
    prop_assert_eq!(panel_tel.1, single_tel.1);
    prop_assert!(
        panel_tel.2.sum.to_bits() == single_tel.2.sum.to_bits(),
        "residual histogram sums differ"
    );
    prop_assert_eq!(panel_tel.2, single_tel.2);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs (often disconnected, with isolated nodes), k drawn
    /// from {1, 7, 8, 9, 50}, every third column of b all-zero, cold and
    /// warm starts, capped and uncapped iterations, traced residuals.
    #[test]
    fn panel_solve_is_bit_identical_to_per_column(
        n in 2usize..36,
        edges in proptest::collection::vec((0u32..36, 0u32..36, 0.1f64..4.0), 0..90),
        values in proptest::collection::vec(-1.0f64..1.0, 3600),
        picks in (0usize..5, 0usize..3),
    ) {
        let (k_pick, cap_pick) = picks;
        let k = [1, 7, 8, 9, 50][k_pick];
        let max_iter = [None, Some(0), Some(3)][cap_pick];
        let l = laplacian(n, &edges);
        let mut vals = values.iter().cycle();
        let mut b: Vec<f64> = (0..n * k).map(|_| *vals.next().unwrap()).collect();
        for (idx, v) in b.iter_mut().enumerate() {
            if (idx % k) % 3 == 2 {
                *v = 0.0;
            }
        }
        let x0: Vec<f64> = (0..n * k).map(|_| *vals.next().unwrap()).collect();
        for kind in [SolverKind::Grounded, SolverKind::Regularized(1e-3)] {
            for precond in PRECONDS {
                let solver = LaplacianSolver::new(&l, LaplacianSolverOptions {
                    kind,
                    precond,
                    cg: CgOptions { tol: 1e-10, max_iter, residual_trace_cap: 4 },
                })
                .unwrap();
                compare(&solver, n, k, &b, None)?;
                compare(&solver, n, k, &b, Some(&x0))?;
            }
        }
    }
}

/// A traced request records one `laplacian_solve` event per column, with
/// the column's iteration count, whether it was solved alone or in a
/// panel.
#[test]
fn traced_panel_records_one_event_per_column() {
    let reg = Arc::new(Registry::new());
    let _metrics = reg.enter();
    let edges: Vec<(u32, u32, f64)> = (0..30).map(|i| (i, (i * 7 + 3) % 31, 1.0)).collect();
    let (n, k) = (31, 11);
    let solver =
        LaplacianSolver::new(&laplacian(n, &edges), LaplacianSolverOptions::default()).unwrap();
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
    let _trace = cad_obs::trace::set_current(cad_obs::trace::TraceCtx::mint(0));
    let trace_id = cad_obs::trace::current().trace_id;
    let events = || -> Vec<u64> {
        reg.events()
            .snapshot(usize::MAX)
            .events
            .into_iter()
            .filter(|e| e.trace_id == trace_id && e.name == "laplacian_solve")
            .map(|e| e.detail)
            .collect()
    };
    let single: Vec<u64> = (0..k)
        .map(|j| solver.solve_stats(&column(&b, k, j)).unwrap().1.iterations as u64)
        .collect();
    assert_eq!(events(), single);
    for row0 in (0..k).step_by(W) {
        let lanes = W.min(k - row0);
        let panel: Vec<f64> = (0..n * W)
            .map(|idx| {
                let (i, j) = (idx / W, idx % W);
                if j < lanes {
                    b[i * k + row0 + j]
                } else {
                    0.0
                }
            })
            .collect();
        solver.solve_panel::<W>(panel, None, lanes).unwrap();
    }
    let all = events();
    assert_eq!(all.len(), 2 * k);
    assert_eq!(all[k..], single[..]);
}
