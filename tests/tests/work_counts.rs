//! The exact work-count gate: the hard regression check on how much
//! work the commute-time stack does, independent of wall time.
//!
//! One fixed-seed run of every oracle path — monolithic builds,
//! partitioned builds, the oracle store cold and warm, one in-place
//! delta update per updatable backend, and short streaming runs in the
//! incremental and auto update modes — records into a private
//! [`Registry`]. Every [`cad_obs::Counter`] value, every labeled-counter
//! cell and every [`cad_obs::Hist`] observation count then has to match [`EXPECTED`]
//! exactly, at 1 and at 4 worker threads. One extra SpMV, CG iteration,
//! oracle build or rebuild fallback fails the test and names the metric.
//!
//! Re-recording: when a change alters the work on purpose, paste the
//! table the failure prints over [`EXPECTED`] and say in CHANGES.md
//! which counts moved and why.

use cad_commute::{
    CommuteTimeEngine, EdgeDelta, EmbeddingOptions, EngineOptions, PartitionSpec, UpdateOutcome,
};
use cad_core::{CadOptions, OnlineCad, ThresholdMode, UpdateMode};
use cad_datasets::{GmmBenchmark, GmmBenchmarkOptions};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_obs::Registry;
use cad_part::PartitionedOracle;
use cad_store::OracleStore;
use std::sync::Arc;

/// The committed table: one `kind name value` line per counter,
/// labeled-counter cell and histogram observation count.
const EXPECTED: &str = "\
counter linalg.spmv 1910
counter linalg.cg_solves 80
counter linalg.cg_iterations 1900
counter linalg.jl_projections 80
counter commute.oracle_builds 82
counter commute.incremental_updates 60
counter commute.rebuild_fallbacks 59
counter store.cache_hits 6
counter store.cache_misses 6
counter store.bytes_read 633638
counter serve.requests 0
counter serve.rejected_backpressure 0
counter part.blocks 8
counter part.boundary_edges 2458
counter part.block_solves 8
counter journal.appends 0
counter journal.bytes_written 0
counter journal.compactions 0
counter journal.recovered_sessions 0
counter journal.torn_tails 0
counter serve.rate_limited 0
labeled commute.rebuild_fallbacks{reason=structural} 4
labeled commute.rebuild_fallbacks{reason=degenerate} 0
labeled commute.rebuild_fallbacks{reason=unsupported} 2
labeled commute.rebuild_fallbacks{reason=refresh} 1
labeled commute.rebuild_fallbacks{reason=cost} 52
labeled commute.rebuild_fallbacks{reason=other} 0
hist cg_iterations 80
hist cg_residuals 80
hist oracle_build_secs 82
hist oracle_update_secs 60
hist transition_score_secs 119
hist pack_io_secs 12
hist serve_push_secs 0
hist serve_create_secs 0
hist serve_admin_secs 0
hist serve_queue_wait_secs 0
hist journal_append_secs 0
hist journal_fsync_secs 0
";

/// The three commute backends; the embedding solves on `threads`
/// workers.
fn backends(threads: usize) -> [(&'static str, EngineOptions); 3] {
    [
        ("exact", EngineOptions::Exact),
        (
            "embedding",
            EngineOptions::Approximate(EmbeddingOptions {
                k: 10,
                threads,
                ..Default::default()
            }),
        ),
        ("corrected", EngineOptions::Corrected),
    ]
}

/// Two 8-node weighted rings with chords, nudged per instance so every
/// step is a weight-only delta. A bridge joins the rings at instance 3
/// only, so instances 3 and 4 arrive as structural deltas. Most of the
/// other steps change 16 of the 32 weights, past the exact oracle's
/// update-or-rebuild price (2/3 · 16 nodes), and rebuild for cost;
/// [`quiet_stream`] keeps the auto-mode refresh covered.
fn stream() -> Vec<WeightedGraph> {
    (0..40)
        .map(|t| {
            let mut edges = Vec::new();
            for base in [0, 8] {
                for i in 0..8 {
                    edges.push((base + i, base + (i + 1) % 8, 1.0));
                    edges.push((base + i, base + (i + 3) % 8, 0.5));
                }
            }
            for (e, edge) in edges.iter_mut().enumerate() {
                if e % 4 == t % 4 {
                    edge.2 *= 1.0 + 0.01 * (t % 7) as f64;
                }
            }
            if t == 3 {
                edges.push((7, 8, 0.3));
            }
            WeightedGraph::from_edges(16, &edges).expect("stream edges")
        })
        .collect()
}

/// The first instance of [`stream`] with one edge weight raised per
/// step: consecutive instances differ in two weights, below the exact
/// oracle's update-or-rebuild price, so auto mode updates in place
/// until its refresh.
fn quiet_stream() -> Vec<WeightedGraph> {
    let base: Vec<(usize, usize, f64)> = stream()[0].edges().collect();
    (0..40)
        .map(|t| {
            let mut edges = base.clone();
            edges[t % base.len()].2 *= 1.1;
            WeightedGraph::from_edges(16, &edges).expect("quiet stream edges")
        })
        .collect()
}

/// Push `graphs` through a fixed-threshold `OnlineCad`.
fn run_graphs(
    graphs: Vec<WeightedGraph>,
    engine: EngineOptions,
    update_mode: UpdateMode,
    threads: usize,
) {
    let opts = CadOptions {
        engine,
        threads,
        ..Default::default()
    };
    let mut cad =
        OnlineCad::with_mode(opts, ThresholdMode::Fixed(1.0)).with_update_mode(update_mode);
    for g in graphs {
        cad.push(g).expect("push");
    }
}

/// Push the first `len` instances of [`stream`].
fn run_stream(engine: EngineOptions, update_mode: UpdateMode, threads: usize, len: usize) {
    run_graphs(
        stream().into_iter().take(len).collect(),
        engine,
        update_mode,
        threads,
    );
}

/// Run every pass at `threads` workers under a fresh registry.
fn record(seq: &GraphSequence, threads: usize) -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    let metrics = reg.enter();
    let backends = backends(threads);

    for (_, engine) in &backends {
        for g in seq.graphs() {
            CommuteTimeEngine::compute(g, engine).expect("monolithic build");
        }
    }

    // The embedding has no block formulation: its partitioned request
    // builds monolithically.
    let spec = PartitionSpec { blocks: 4 };
    for (_, engine) in &backends[..2] {
        for g in seq.graphs() {
            PartitionedOracle::build(g, engine, spec, threads).expect("partitioned build");
        }
    }

    let dir =
        std::env::temp_dir().join(format!("cad-work-counts-{}-{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = OracleStore::open(&dir).expect("open oracle store");
    for (_, engine) in &backends {
        // Cold (miss, build, persist), then warm (artifact load).
        for _pass in 0..2 {
            for g in seq.graphs() {
                store.get_or_build(g, engine).expect("store oracle");
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove store dir");

    // Scale every fifth edge weight of instance 0: a weight-only delta
    // each updatable backend folds in place.
    let g0 = seq.graph(0);
    let edges: Vec<(usize, usize, f64)> = g0
        .edges()
        .enumerate()
        .map(|(i, (u, v, w))| (u, v, if i % 5 == 0 { w * 1.2 } else { w }))
        .collect();
    let perturbed = WeightedGraph::from_edges(g0.n_nodes(), &edges).expect("perturbed");
    let delta = EdgeDelta::between(g0, &perturbed);
    assert!(!delta.structural, "weight-only perturbation");
    for (label, engine) in &backends {
        let mut oracle = CommuteTimeEngine::compute(g0, engine).expect("base oracle");
        let outcome = oracle
            .as_updatable()
            .expect("updatable backend")
            .apply_delta(&delta)
            .expect("apply_delta");
        assert!(
            matches!(outcome, UpdateOutcome::Applied { .. }),
            "{label}: a weight-only delta must update in place"
        );
    }

    run_stream(EngineOptions::Exact, UpdateMode::Incremental, threads, 40);
    run_stream(EngineOptions::Exact, UpdateMode::Auto, threads, 40);
    run_graphs(
        quiet_stream(),
        EngineOptions::Exact,
        UpdateMode::Auto,
        threads,
    );
    // The shortest-path table cannot update in place.
    run_stream(
        EngineOptions::ShortestPath,
        UpdateMode::Incremental,
        threads,
        3,
    );
    drop(metrics);
    reg
}

/// Render the gated cells of `reg` as the committed table format.
fn table(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("counter {name} {value}\n"));
    }
    for family in &snap.labeled_counters {
        for (value, n) in &family.cells {
            out.push_str(&format!(
                "labeled {}{{{}={value}}} {n}\n",
                family.name, family.label
            ));
        }
    }
    for (name, hist) in &snap.histograms {
        out.push_str(&format!("hist {name} {}\n", hist.count));
    }
    out
}

/// Fail with every differing cell named, then the whole new table.
fn assert_table(actual: &str, threads: usize) {
    if actual == EXPECTED {
        return;
    }
    fn cells(t: &str) -> Vec<(&str, &str)> {
        t.lines().filter_map(|l| l.rsplit_once(' ')).collect()
    }
    let expected = cells(EXPECTED);
    let actual_cells = cells(actual);
    let mut diffs = String::new();
    for (key, value) in &actual_cells {
        match expected.iter().find(|(k, _)| k == key) {
            Some((_, want)) if want == value => {}
            Some((_, want)) => diffs.push_str(&format!("  {key}: expected {want}, got {value}\n")),
            None => diffs.push_str(&format!("  {key}: new cell, got {value}\n")),
        }
    }
    for (key, want) in &expected {
        if !actual_cells.iter().any(|(k, _)| k == key) {
            diffs.push_str(&format!("  {key}: expected {want}, cell is gone\n"));
        }
    }
    panic!(
        "work counts at {threads} thread(s) differ from the committed table:\n{diffs}\n\
         Full table to re-record (paste over EXPECTED in tests/tests/work_counts.rs):\n\
         const EXPECTED: &str = \"\\\n{actual}\";\n"
    );
}

#[test]
fn work_counts_match_the_committed_table_at_1_and_4_threads() {
    let mut opts = GmmBenchmarkOptions::with_n(120);
    opts.seed = 7;
    let seq = GmmBenchmark::generate(&opts).expect("GMM realization").seq;
    for threads in [1, 4] {
        assert_table(&table(&record(&seq, threads)), threads);
    }
}
