//! Writes `BENCH_commute.json` at the repo root: a schema-versioned
//! cad-obs report benchmarking every commute-distance oracle backend on
//! the §4.1 GMM workload (per-instance build times, PCG iteration and
//! residual digests, SpMV counts).
//!
//! ```text
//! cargo run --release -p cad-bench --bin bench_report -- \
//!     [--n 300] [--k 25] [--seed 7] [--threads 1] \
//!     [--out BENCH_commute.json] [--store-dir <dir>] [--quiet]
//! ```
//!
//! The **first** pass builds block-partitioned oracles (`--partition`,
//! default 4 blocks) for the exact and embedding backends and records
//! per-instance build times (`part.build_secs.<backend>`), the
//! per-block solve histograms (flattened as
//! `part_block_solve_secs{block=...}` rows) and the heap peak at the
//! end of the pass (`part.peak_heap_bytes`). It runs before any
//! monolithic build on purpose: the counting allocator's peak is
//! process-monotone, so the partitioned peak is only meaningful while
//! no monolithic oracle has yet materialized its dense matrices —
//! compare `part.peak_heap_bytes` against the report's final
//! `memory.heap_peak_bytes` to see the partitioned memory headroom.
//!
//! A second pass runs every backend through the `cad-store` oracle
//! cache twice — cold (miss + build + persist) and warm (artifact
//! load) — and records both as `store.cold_build_secs.<backend>` /
//! `store.warm_load_secs.<backend>` summaries. Without `--store-dir`
//! the cache lives in a throwaway temp directory that is wiped first,
//! so the cold pass is genuinely cold; an explicit `--store-dir` is
//! used as-is (point it at a warm cache to measure only loads).
//!
//! The output validates against the `cad validate-report` schema; see
//! EXPERIMENTS.md for the field-by-field description.

use cad_bench::Args;
use cad_commute::{CommuteTimeEngine, EmbeddingOptions, EngineOptions, OracleProvider};
use cad_datasets::{GmmBenchmark, GmmBenchmarkOptions};
use cad_store::OracleStore;

/// Count every heap event so the report's `memory` section and the
/// per-backend allocation summaries are exact, not sampled.
#[global_allocator]
static ALLOC: cad_obs::CountingAlloc = cad_obs::CountingAlloc::new();

fn main() {
    let args = Args::from_env();
    args.apply_verbosity();
    let n = args.get("n", 300usize);
    let k = args.get("k", 25usize);
    let seed = args.get("seed", 7u64);
    let threads = args.get("threads", 1usize);
    let out = args.get(
        "out",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_commute.json").to_string(),
    );

    let mut opts = GmmBenchmarkOptions::with_n(n);
    opts.seed = seed;
    let bench = GmmBenchmark::generate(&opts).expect("benchmark realization");
    let seq = bench.seq;

    let backends: [(&str, EngineOptions); 3] = [
        ("exact", EngineOptions::Exact),
        (
            "embedding",
            EngineOptions::Approximate(EmbeddingOptions {
                k,
                threads,
                ..Default::default()
            }),
        ),
        ("corrected", EngineOptions::Corrected),
    ];

    let mut report = cad_obs::Report::new("bench_commute");

    // Block-partitioned pass FIRST (see the module docs): the heap peak
    // never decreases, so measuring the partitioned footprint after a
    // monolithic build would just read back the monolithic peak.
    let part_spec = cad_commute::PartitionSpec {
        blocks: args.get("partition", 4usize),
        mode: cad_commute::PartitionMode::Auto,
    };
    for (label, engine) in &backends[..2] {
        let _span = cad_obs::span!("bench_partitioned");
        let times: Vec<f64> = seq
            .graphs()
            .iter()
            .map(|g| {
                cad_obs::time_it(|| {
                    cad_part::PartitionedOracle::build(g, engine, part_spec, threads)
                        .expect("partitioned build")
                })
                .1
            })
            .collect();
        let s = cad_obs::Summary::of(times);
        cad_obs::progress!(
            "partitioned/{label}: mean build {:.3}s over {} instances ({} blocks)",
            s.mean(),
            seq.len(),
            part_spec.blocks
        );
        report
            .summaries
            .insert(format!("part.build_secs.{label}"), s);
    }
    report.summaries.insert(
        "part.peak_heap_bytes".to_string(),
        cad_obs::Summary::of([cad_obs::alloc::stats().heap_peak_bytes as f64]),
    );

    for (label, engine) in &backends {
        let _span = cad_obs::span!("bench_backend");
        let mem_before = cad_obs::alloc::stats();
        for (t, g) in seq.graphs().iter().enumerate() {
            let (oracle, secs) =
                cad_obs::time_it(|| CommuteTimeEngine::compute(g, engine).expect("oracle build"));
            let stats = oracle
                .build_stats()
                .cloned()
                .unwrap_or_else(|| cad_obs::OracleBuildStats::direct(oracle.kind().name(), secs));
            report.instances.push(cad_obs::InstanceReport {
                t: t as u64,
                backend: stats.backend.to_string(),
                build_secs: secs,
                jl_dim: stats.jl_dim.map(|d| d as u64),
                n_solves: stats.solves.len() as u64,
                iterations: stats.iteration_summary(),
                residuals: stats.residual_summary(),
            });
            for (row, s) in stats.solves.iter().enumerate() {
                report.solves.push(cad_obs::SolveReport {
                    context: format!("{label}/instance={t}/row={row}"),
                    iterations: s.iterations as u64,
                    residual: s.relative_residual,
                    converged: s.converged,
                    residual_trace: s.residual_trace.clone(),
                });
            }
            cad_obs::progress!("{label}: instance {t} built in {secs:.3}s");
        }
        // Allocation cost per instance build (counting allocator delta
        // over the whole backend pass, divided evenly).
        let mem_after = cad_obs::alloc::stats();
        let builds = seq.len() as f64;
        report.summaries.insert(
            format!("mem.allocs_per_build.{label}"),
            cad_obs::Summary::of([(mem_after.allocs - mem_before.allocs) as f64 / builds]),
        );
        report.summaries.insert(
            format!("mem.bytes_per_build.{label}"),
            cad_obs::Summary::of([
                (mem_after.bytes_allocated - mem_before.bytes_allocated) as f64 / builds,
            ]),
        );
    }
    // Cold vs. warm oracle acquisition through the content-addressed
    // store: the first pass builds and persists every artifact, the
    // second deserializes them. Both are per-instance timings.
    let store_dir = match args.has("store-dir") {
        true => std::path::PathBuf::from(args.get("store-dir", String::new())),
        false => {
            let dir = std::env::temp_dir().join(format!("cad-bench-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }
    };
    let store = OracleStore::open(&store_dir).expect("open oracle store");
    for (label, engine) in &backends {
        let _span = cad_obs::span!("bench_store_backend");
        let timed_pass = || -> Vec<f64> {
            seq.graphs()
                .iter()
                .enumerate()
                .map(|(t, g)| cad_obs::time_it(|| store.oracle(t, g, engine).expect("oracle")).1)
                .collect()
        };
        let cold = timed_pass();
        let warm = timed_pass();
        let (c, w) = (cad_obs::Summary::of(cold), cad_obs::Summary::of(warm));
        cad_obs::progress!(
            "{label}: store cold mean {:.3}s, warm mean {:.3}s over {} instances",
            c.mean(),
            w.mean(),
            seq.len()
        );
        report
            .summaries
            .insert(format!("store.cold_build_secs.{label}"), c);
        report
            .summaries
            .insert(format!("store.warm_load_secs.{label}"), w);
    }

    // Cold build vs incremental update: perturb a few edge weights of
    // instance 0 (the small-delta workload `--update-mode incremental`
    // targets) and time `apply_delta` against a from-scratch build of
    // the perturbed graph, per updatable backend.
    let g0 = &seq.graphs()[0];
    let perturbed_edges: Vec<(usize, usize, f64)> = g0
        .edges()
        .enumerate()
        .map(|(idx, (u, v, w))| {
            let scale = if idx % 5 == 0 { 1.2 } else { 1.0 };
            (u, v, w * scale)
        })
        .collect();
    let perturbed =
        cad_graph::WeightedGraph::from_edges(g0.n_nodes(), &perturbed_edges).expect("perturbed");
    let delta = cad_commute::EdgeDelta::between(g0, &perturbed);
    assert!(!delta.structural, "weight-only perturbation");
    for (label, engine) in &backends {
        let base = CommuteTimeEngine::compute(g0, engine).expect("base oracle");
        let (_, cold_secs) =
            cad_obs::time_it(|| CommuteTimeEngine::compute(&perturbed, engine).expect("cold"));
        let mut candidate = base.clone_box();
        let (outcome, update_secs) = cad_obs::time_it(|| {
            candidate
                .as_updatable()
                .expect("updatable backend")
                .apply_delta(&delta)
                .expect("apply_delta")
        });
        assert!(
            matches!(outcome, cad_commute::UpdateOutcome::Applied { .. }),
            "{label}: weight-only delta must update in place"
        );
        cad_obs::progress!(
            "{label}: cold build {cold_secs:.4}s vs incremental update {update_secs:.4}s"
        );
        report.summaries.insert(
            format!("update.cold_build_secs.{label}"),
            cad_obs::Summary::of([cold_secs]),
        );
        report.summaries.insert(
            format!("update.incremental_update_secs.{label}"),
            cad_obs::Summary::of([update_secs]),
        );
    }

    report.absorb_snapshot(&cad_obs::with_current(cad_obs::Registry::snapshot));
    // The worker-thread count is part of the measurement conditions:
    // record it so bench-diff compares like with like.
    report
        .counters
        .insert("bench.threads".to_string(), threads as u64);
    report.capture_memory();
    std::fs::write(&out, report.to_json_string()).expect("write report");
    println!(
        "wrote {out} (n = {n}, k = {k}, threads = {threads}, {} instance builds, {} solves, \
         peak heap {} bytes)",
        report.instances.len(),
        report.solves.len(),
        report.memory.heap_peak_bytes
    );
}
