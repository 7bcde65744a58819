//! Reproduces **Figure 5** of the paper: AUC of CAD on the §4.1 GMM
//! benchmark as a function of the commute-time embedding dimension `k`.
//!
//! ```text
//! cargo run --release -p cad-bench --bin exp_fig5 -- \
//!     [--n 500] [--trials 5] [--seed 0x6A11]
//! ```
//!
//! Paper finding: "the performance of CAD is invariant to the choice of
//! k for values of k > 10". The reproduction sweeps
//! `k ∈ {2, 5, 10, 25, 50, 100}` with the approximate engine (the exact
//! engine's AUC is printed as the `k = ∞` reference) and asserts the
//! plateau: every `k > 10` lands within 0.004 AUC of exact, and smaller
//! `k` within a per-`k` bound.

use cad_bench::{Args, Table};
use cad_commute::{EmbeddingOptions, EngineOptions};
use cad_core::{CadDetector, CadOptions, NodeScorer};
use cad_datasets::{GmmBenchmark, GmmBenchmarkOptions};
use cad_eval::auc;

fn main() {
    let args = Args::from_env();
    args.apply_verbosity();
    let n = args.get("n", 500usize);
    let trials = args.get("trials", 5usize);
    let mut base = GmmBenchmarkOptions::with_n(n);
    base.seed = args.get("seed", base.seed);

    let ks = [2usize, 5, 10, 25, 50, 100];
    let mut mean_auc = vec![0.0f64; ks.len()];
    let mut exact_auc = 0.0f64;

    for trial in 0..trials {
        let mut opts = base.clone();
        opts.seed = base.seed.wrapping_add(trial as u64);
        let bench = GmmBenchmark::generate(&opts).expect("benchmark realization");

        let exact = CadDetector::new(CadOptions {
            engine: EngineOptions::Exact,
            ..Default::default()
        });
        let scores = exact.node_scores(&bench.seq).expect("exact scores");
        exact_auc += auc(&scores[0], &bench.node_labels);

        for (ki, &k) in ks.iter().enumerate() {
            let det = CadDetector::new(CadOptions {
                engine: EngineOptions::Approximate(EmbeddingOptions {
                    k,
                    seed: 0xF165 + trial as u64,
                    ..Default::default()
                }),
                ..Default::default()
            });
            let scores = det.node_scores(&bench.seq).expect("approximate scores");
            mean_auc[ki] += auc(&scores[0], &bench.node_labels);
        }
        cad_obs::progress!("trial {trial} done");
    }
    for a in &mut mean_auc {
        *a /= trials as f64;
    }
    exact_auc /= trials as f64;

    println!("== Figure 5: AUC vs embedding dimension k (n={n}, {trials} trials) ==");
    let mut t = Table::new(&["k", "mean AUC"]);
    for (ki, &k) in ks.iter().enumerate() {
        t.row(&[k.to_string(), format!("{:.3}", mean_auc[ki])]);
    }
    t.row(&["exact".into(), format!("{exact_auc:.3}")]);
    t.print();

    // Reproduction contract: plateau above k = 10, and a bounded AUC gap
    // to exact at every k. With pair-keyed signs solved to
    // `SKETCH_SOLVE_TOL` the default run's gaps are 0.046, 0.011, 0.006
    // and at most 0.001 above k = 10 (EXPERIMENTS.md); a 1e-3 solve
    // tolerance or signs keyed by edge position exceed these bounds.
    let max_gap = |k: usize| match k {
        0..=2 => 0.06,
        3..=5 => 0.035,
        6..=10 => 0.015,
        _ => 0.004,
    };
    for (ki, &k) in ks.iter().enumerate() {
        let gap = exact_auc - mean_auc[ki];
        assert!(
            gap < max_gap(k) && (k <= 10 || gap > -max_gap(k)),
            "k = {k}: AUC {:.4} is {gap:.4} off exact {exact_auc:.4}",
            mean_auc[ki]
        );
    }
    assert!(
        exact_auc > 0.75,
        "CAD should be far above chance: {exact_auc:.3}"
    );
    println!("\nfigure-5 shape checks passed (AUC invariant for k > 10)");
}
