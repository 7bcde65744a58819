//! Reproduces the **§4.1.3 scalability study**: per-instance runtimes of
//! CAD, COM, ACT, ADJ and CLC on sparse random graphs (`m = n`,
//! sparsity 1/n, as in the paper).
//!
//! ```text
//! cargo run --release -p cad-bench --bin exp_scalability -- \
//!     [--max-n 100000] [--clc-cap 5000] [--reps 3] [--seed 42] [--threads 1]
//! ```
//!
//! Paper findings at `n = 10⁷`: CAD ≈ COM ≈ 5 min, ACT ≈ 1 min,
//! ADJ ≈ 10 s; CLC ≈ CAD/3 at `m = n` but degrades sharply with
//! density. The reproduction target is the ordering and the near-linear
//! growth of CAD (its `O(n log n)` claim), not wall-clock parity with
//! the authors' 2010-era Xeon. CLC is an all-pairs-shortest-path method;
//! above `--clc-cap` nodes it is skipped (the paper's "approximately one
//! third the time of CAD" is not reachable with exact closeness — see
//! EXPERIMENTS.md).

use cad_baselines::{ActDetector, AdjDetector, ClcDetector, ComDetector, ComSupport};
use cad_bench::{time_it, Args, Table};
use cad_commute::{EmbeddingOptions, EngineOptions};
use cad_core::{CadDetector, CadOptions, NodeScorer};
use cad_graph::generators::random::sparse_random_graph;
use cad_graph::{GraphSequence, WeightedGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A two-instance sequence: a sparse random graph and a lightly edited
/// copy (1% of edges reweighted, a few added), so every detector has a
/// realistic transition to process.
fn workload(n: usize, seed: u64) -> GraphSequence {
    let g0 = sparse_random_graph(n, n, seed).expect("valid size");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let mut edges: Vec<(usize, usize, f64)> = g0.edges().collect();
    for e in edges.iter_mut() {
        if rng.random::<f64>() < 0.01 {
            e.2 = 1.0 - rng.random::<f64>();
        }
    }
    for _ in 0..(n / 100).max(1) {
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        edges.push((u, v, 1.0 - rng.random::<f64>()));
    }
    let g1 = WeightedGraph::from_edges(n, &edges).expect("valid edits");
    GraphSequence::new(vec![g0, g1]).expect("two instances")
}

fn main() {
    let args = Args::from_env();
    args.apply_verbosity();
    let max_n = args.get("max-n", 100_000usize);
    let clc_cap = args.get("clc-cap", 5_000usize);
    let reps = args.get("reps", 1usize).max(1);
    let seed = args.get("seed", 42u64);
    // Worker threads for oracle builds and scoring (0 = one per core).
    // Purely a wall-clock knob: the scores are thread-count invariant.
    let threads = args.get("threads", 1usize);

    // k = 10 per the paper's §4.1.3 choice ("we select k=10"). The
    // spanning-tree preconditioner stands in for the paper's
    // Spielman-Teng solver on these filament-heavy random graphs; rows
    // are solved to the default `SKETCH_SOLVE_TOL`.
    let defaults = EmbeddingOptions::default();
    let embedding = EmbeddingOptions {
        k: 10,
        solver: cad_linalg::solve::LaplacianSolverOptions {
            precond: cad_linalg::solve::laplacian::PrecondKind::SpanningTree,
            ..defaults.solver
        },
        ..defaults
    };
    let approx = EngineOptions::Approximate(embedding);
    let cad = CadDetector::new(CadOptions {
        engine: approx,
        threads,
        ..Default::default()
    });
    let com = ComDetector::with_threads(approx, ComSupport::EdgeUnion, threads);
    let act = ActDetector::with_window(1);
    let adj = AdjDetector::new();
    let clc = ClcDetector::new();

    let sizes: Vec<usize> = [
        1_000usize, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
    ]
    .into_iter()
    .filter(|&n| n <= max_n)
    .collect();

    println!("== §4.1.3 scalability: seconds per graph instance (m = n) ==");
    let mut t = Table::new(&["n", "CAD", "COM", "ACT", "ADJ", "CLC"]);
    let mut cad_secs: Vec<(usize, f64)> = Vec::new();
    let mut last_row: Option<[f64; 5]> = None;
    for &n in &sizes {
        let seq = workload(n, seed);
        let run = |m: &dyn NodeScorer| -> f64 {
            let mut total = 0.0;
            for _ in 0..reps {
                let (r, secs) = time_it(|| m.node_scores(&seq).expect("scores"));
                drop(r);
                total += secs;
            }
            // Two instances processed per call.
            total / (reps as f64 * seq.len() as f64)
        };
        let s_cad = run(&cad);
        let s_com = run(&com);
        let s_act = run(&act);
        let s_adj = run(&adj);
        let s_clc = if n <= clc_cap { run(&clc) } else { f64::NAN };
        cad_secs.push((n, s_cad));
        last_row = Some([s_cad, s_com, s_act, s_adj, s_clc]);
        t.row(&[
            n.to_string(),
            format!("{s_cad:.3}"),
            format!("{s_com:.3}"),
            format!("{s_act:.3}"),
            format!("{s_adj:.3}"),
            if s_clc.is_nan() {
                "skipped".into()
            } else {
                format!("{s_clc:.3}")
            },
        ]);
        cad_obs::progress!("n = {n} done");
    }
    t.print();

    // Reproduction contract on the largest size measured:
    // ADJ fastest, ACT below CAD, COM within ~3x of CAD (it runs the
    // same embedding), and CAD's growth near-linear.
    let row = last_row.expect("at least one size");
    let (s_cad, s_com, s_act, s_adj) = (row[0], row[1], row[2], row[3]);
    assert!(s_adj <= s_cad, "ADJ ({s_adj}s) must be the cheapest");
    assert!(
        s_act <= s_cad * 1.2,
        "ACT ({s_act}s) should undercut CAD ({s_cad}s)"
    );
    assert!(
        s_com <= 3.0 * s_cad + 0.05 && s_cad <= 3.0 * s_com + 0.05,
        "CAD ({s_cad}s) and COM ({s_com}s) share the embedding cost"
    );
    if cad_secs.len() >= 3 {
        let (n0, t0) = cad_secs[cad_secs.len() - 3];
        let (n1, t1) = cad_secs[cad_secs.len() - 1];
        let growth = t1 / t0.max(1e-9);
        let size_ratio = n1 as f64 / n0 as f64;
        let exponent = growth.ln() / size_ratio.ln();
        println!(
            "\nCAD empirical scaling ~ n^{exponent:.2} over the last {size_ratio:.0}x \
             (paper: O(n log n) with a Spielman-Teng solver; our PCG substitution \
             lands at ~n^1.5-1.8 on this threshold-regime workload)"
        );
        assert!(
            exponent < 1.9,
            "CAD scaling n^{exponent:.2} worse than the documented PCG bound"
        );
    }
    println!("scalability shape checks passed");
}
