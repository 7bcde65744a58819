//! The linear-algebra layer measured on a workload's own graphs: one
//! `LaplacianSolver::new` per graph and `k` `solve_stats` calls on the
//! Rademacher right-hand sides the commute embedding builds (default
//! `EmbeddingOptions`), each inside a span.

use crate::report::RunReport;
use crate::trace::Tracer;
use cad_commute::EmbeddingOptions;
use cad_graph::WeightedGraph;
use cad_linalg::rp::RademacherSource;
use cad_linalg::solve::LaplacianSolver;

/// Probe every graph in `graphs` and add the `linalg.*` metrics.
pub fn linalg(tracer: &Tracer, graphs: &[&WeightedGraph], report: &mut RunReport) {
    let opts = EmbeddingOptions::default();
    let inv_sqrt_k = 1.0 / (opts.k as f64).sqrt();
    let signs = RademacherSource::new(opts.seed);
    let (mut iterations, mut unconverged) = (Vec::new(), 0usize);
    for (op, g) in graphs.iter().enumerate() {
        let laplacian = g.laplacian();
        let solver = tracer.span("LaplacianSolver::new", None, op as u64, |_| {
            LaplacianSolver::new(&laplacian, opts.solver)
        });
        let solver = match solver {
            Ok(s) => s,
            Err(e) => {
                report.problem(format!("LaplacianSolver::new failed: {e}"));
                return;
            }
        };
        for row in 0..opts.k {
            let mut y = vec![0.0; g.n_nodes()];
            for (e, (u, v, w)) in g.edges().enumerate() {
                let s = signs.sign(row as u64, e as u64) * inv_sqrt_k * w.sqrt();
                y[u] += s;
                y[v] -= s;
            }
            match tracer.span("solve_stats", None, op as u64, |_| solver.solve_stats(&y)) {
                Ok((_, stats)) => {
                    iterations.push(stats.iterations as f64);
                    unconverged += usize::from(!stats.converged);
                }
                Err(e) => {
                    report.problem(format!("solve_stats failed: {e}"));
                    return;
                }
            }
        }
    }
    report.add_dist(
        "linalg.solver_setup_s",
        "s",
        &tracer.durations("LaplacianSolver::new"),
        "LaplacianSolver::new",
    );
    report.add_dist(
        "linalg.solve_s",
        "s",
        &tracer.durations("solve_stats"),
        "solve_stats",
    );
    let mean = iterations.iter().sum::<f64>() / iterations.len().max(1) as f64;
    report.add(
        "linalg.iters_per_solve",
        "count",
        mean,
        iterations.len(),
        "mean",
    );
    report.add(
        "linalg.unconverged_solves",
        "count",
        unconverged as f64,
        iterations.len(),
        "",
    );
}

/// Time `CommuteTimeEngine::compute` once per graph (the serving
/// workloads' fresh builds are too rare to time from replies alone) and
/// add `commute.build_s`.
pub fn commute_build(
    tracer: &Tracer,
    graphs: &[WeightedGraph],
    engine: &cad_commute::EngineOptions,
    report: &mut RunReport,
) {
    for (op, g) in graphs.iter().enumerate() {
        let built = tracer.span("CommuteTimeEngine::compute", None, op as u64, |_| {
            cad_commute::CommuteTimeEngine::compute(g, engine)
        });
        if let Err(e) = built {
            report.problem(format!("CommuteTimeEngine::compute failed: {e}"));
            return;
        }
    }
    report.add_dist(
        "commute.build_s",
        "s",
        &tracer.durations("CommuteTimeEngine::compute"),
        "CommuteTimeEngine::compute on the session graphs",
    );
}
