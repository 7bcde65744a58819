//! The batch workloads: `.cadpack` inputs decoded with
//! `cad_store::read_pack` and detected with
//! `CadDetector::detect_top_l`.
//!
//! The untraced run times setup (pack decode, repeated) and whole
//! detection jobs. The traced run composes the public calls
//! `CadDetector` makes — `read_pack`, `CommuteTimeEngine::compute` over
//! `par_map_result`, `transition_edge_scores` over
//! `par_tabulate_result`, `apply_policy` — with a span around each, and
//! checks its anomaly sets are bit-identical to the untraced ones.

use crate::inputs;
use crate::probe;
use crate::report::RunReport;
use crate::stats::Dist;
use crate::trace::Tracer;
use crate::workload::{
    derive_seed, DenseParams, SparseParams, Workload, BATCH_THREADS, DENSE, SPARSE,
};
use cad_commute::{CommuteTimeEngine, EngineOptions};
use cad_core::threshold::apply_policy;
use cad_core::{
    transition_edge_scores, CadDetector, CadOptions, DetectionResult, ThresholdPolicy,
    TransitionAnomalies,
};
use cad_graph::{GraphSequence, WeightedGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times the setup (every pack decoded) is repeated; its median is
/// `setup_s`.
const SETUP_REPEATS: usize = 3;

/// Fewest timed jobs a run makes.
const MIN_JOBS: usize = 3;

/// Write the `sparse-batch` inputs: one sequence of sparse random
/// graphs in which each transition redraws a share of the base edge
/// weights (benign) and adds heavy edges between unconnected pairs
/// (planted; they persist), plus the planted list.
pub fn gen_sparse(p: &SparseParams, seed: u64, dir: &Path) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let base = cad_graph::generators::random::sparse_random_graph(
        p.n,
        p.edges_per_node * p.n,
        derive_seed(seed, 1),
    )
    .map_err(|e| err(&e))?;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 2));
    let mut edges: Vec<(usize, usize, f64)> = base.edges().collect();
    let n_base = edges.len();
    let mut present: HashSet<(usize, usize)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
    let mut graphs = vec![base];
    let mut planted = Vec::new();
    for t in 1..p.instances {
        for _ in 0..n_base * p.redraw_per_mille / 1000 {
            let i = rng.random_range(0..n_base);
            edges[i].2 = 1.0 - rng.random::<f64>();
        }
        let mut added = 0;
        while added < p.planted_per_step {
            let (a, b) = (rng.random_range(0..p.n), rng.random_range(0..p.n));
            if a == b || !present.insert((a.min(b), a.max(b))) {
                continue;
            }
            edges.push((a.min(b), a.max(b), p.planted_weight));
            planted.push(vec![t - 1, a.min(b), a.max(b)]);
            added += 1;
        }
        graphs.push(WeightedGraph::from_edges(p.n, &edges).map_err(|e| err(&e))?);
    }
    let seq = GraphSequence::new(graphs).map_err(|e| err(&e))?;
    cad_store::write_pack(&dir.join("seq.cadpack"), &seq, "sparse-batch").map_err(|e| err(&e))?;
    inputs::write_lines(&dir.join("planted.txt"), &planted).map_err(|e| err(&e))
}

/// Write the `dense-batch` inputs: one `.cadpack` per GMM benchmark
/// realization (paper §4.1), plus each realization's anomalous nodes.
pub fn gen_dense(p: &DenseParams, seed: u64, dir: &Path) -> Result<(), String> {
    let mut labels = Vec::new();
    for r in 0..p.realizations {
        let mut opts = cad_datasets::gmm::GmmBenchmarkOptions::with_n(p.n);
        opts.seed = derive_seed(seed, 100 + r as u64);
        let b = cad_datasets::gmm::GmmBenchmark::generate(&opts).map_err(|e| e.to_string())?;
        cad_store::write_pack(
            &dir.join(format!("real-{r:03}.cadpack")),
            &b.seq,
            "dense-batch",
        )
        .map_err(|e| e.to_string())?;
        labels.extend((0..p.n).filter(|&i| b.node_labels[i]).map(|i| vec![r, i]));
    }
    inputs::write_lines(&dir.join("planted.txt"), &labels).map_err(|e| e.to_string())
}

/// One detection job's input: a pack, the target `l`, and the planted
/// anomalous nodes of each transition.
struct Case {
    pack: PathBuf,
    l: usize,
    planted: Vec<HashSet<usize>>,
}

/// The cases of a batch workload, its detector options, and the
/// seconds one job is expected to take.
fn cases(w: Workload, dir: &Path) -> Result<(Vec<Case>, CadOptions, f64), String> {
    let rows = inputs::read_lines(&dir.join("planted.txt"))?;
    let opts = CadOptions {
        threads: BATCH_THREADS,
        ..Default::default()
    };
    if w == Workload::SparseBatch {
        let mut planted = vec![HashSet::new(); SPARSE.instances - 1];
        for r in &rows {
            planted[r[0]].extend([r[1], r[2]]);
        }
        let case = Case {
            pack: dir.join("seq.cadpack"),
            l: SPARSE.l,
            planted,
        };
        return Ok((vec![case], opts, SPARSE.job_secs));
    }
    let cases = (0..DENSE.realizations)
        .map(|r| {
            let nodes: HashSet<usize> = rows.iter().filter(|x| x[0] == r).map(|x| x[1]).collect();
            Case {
                pack: dir.join(format!("real-{r:03}.cadpack")),
                l: nodes.len(),
                planted: vec![nodes],
            }
        })
        .collect();
    let exact = CadOptions {
        engine: EngineOptions::Exact,
        ..opts
    };
    Ok((cases, exact, DENSE.job_secs))
}

/// A bit-exact digest of a detection result: δ and every transition's
/// anomaly set.
fn digest(delta: Option<f64>, transitions: &[TransitionAnomalies]) -> u64 {
    let per_transition = transitions.iter().map(|t| {
        let edges: Vec<_> = t
            .edges
            .iter()
            .map(|e| (e.u, e.v, e.score, e.d_weight, e.d_commute))
            .collect();
        crate::transition_digest(&edges, &t.nodes)
    });
    crate::digest(std::iter::once(delta.map_or(u64::MAX, f64::to_bits)).chain(per_transition))
}

/// Planted nodes found, and planted nodes in total.
fn recall_counts(case: &Case, transitions: &[TransitionAnomalies]) -> (usize, usize) {
    let found = case
        .planted
        .iter()
        .zip(transitions)
        .map(|(want, got)| got.nodes.iter().filter(|n| want.contains(n)).count())
        .sum();
    (found, case.planted.iter().map(HashSet::len).sum())
}

fn decode(pack: &Path) -> Result<GraphSequence, String> {
    cad_store::read_pack(pack).map_err(|e| format!("{}: {e}", pack.display()))
}

/// Decode every pack [`SETUP_REPEATS`] times; returns the median time
/// of one full decode.
fn measure_setup(cases: &[Case]) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        for c in cases {
            drop(std::hint::black_box(decode(&c.pack)?));
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&times))
}

/// The untraced jobs of one phase.
struct Jobs {
    /// Wall time of each `detect_top_l`, seconds.
    secs: Vec<f64>,
    /// Result digest per case (first pass).
    digests: Vec<u64>,
    /// Transitions per job.
    transitions: usize,
    /// Planted nodes found / planted, over one pass.
    recall: (usize, usize),
    /// Allocations and bytes allocated during the jobs.
    allocs: u64,
    bytes: u64,
}

/// Run `n_jobs` `detect_top_l` jobs, cycling over the cases (at least
/// one full pass). Job times exclude decoding; a repeated case must
/// produce the same bits every time.
fn untraced_jobs(cases: &[Case], opts: CadOptions, n_jobs: usize, report: &mut RunReport) -> Jobs {
    let det = CadDetector::new(opts);
    let single = match cases {
        [only] => decode(&only.pack).ok(),
        _ => None,
    };
    let mut jobs = Jobs {
        secs: Vec::new(),
        digests: Vec::new(),
        transitions: 0,
        recall: (0, 0),
        allocs: 0,
        bytes: 0,
    };
    let mem0 = cad_obs::alloc::stats();
    for job in 0..n_jobs.max(cases.len()) {
        let (i, case) = (job % cases.len(), &cases[job % cases.len()]);
        report.attempted += 1;
        let decoded;
        let seq = match &single {
            Some(s) => s,
            None => match decode(&case.pack) {
                Ok(s) => {
                    decoded = s;
                    &decoded
                }
                Err(e) => {
                    report.failed += 1;
                    report.problem(e);
                    continue;
                }
            },
        };
        let t0 = Instant::now();
        let res = det.detect_top_l(seq, case.l);
        let secs = t0.elapsed().as_secs_f64();
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("detect_top_l failed: {e}"));
                continue;
            }
        };
        jobs.secs.push(secs);
        jobs.transitions = seq.n_transitions();
        let d = digest(res.delta, &res.transitions);
        if job < cases.len() {
            jobs.digests.push(d);
            let (found, total) = recall_counts(case, &res.transitions);
            jobs.recall.0 += found;
            jobs.recall.1 += total;
        } else if jobs.digests.get(i) != Some(&d) {
            report.failed += 1;
            report.problem(format!("job {i} changed its output on a repeat"));
        }
    }
    let mem1 = cad_obs::alloc::stats();
    jobs.allocs = mem1.allocs - mem0.allocs;
    jobs.bytes = mem1.bytes_allocated - mem0.bytes_allocated;
    jobs
}

/// Jobs that fill `budget` seconds at `job_secs` each, at least `min`.
fn job_count(budget: f64, job_secs: f64, min: usize) -> usize {
    ((budget / job_secs).round() as usize).max(min)
}

/// The traced composition of one job; returns the same result
/// `detect_top_l` would.
fn traced_job(
    tracer: &Tracer,
    case: &Case,
    opts: &CadOptions,
    op: u64,
) -> Result<(DetectionResult, Vec<usize>), String> {
    let seq = tracer.span("read_pack", None, op, |_| decode(&case.pack))?;
    tracer.span("job", None, op, |job| {
        let engines = tracer.span("build_oracles", Some(job), op, |parent| {
            cad_linalg::par::par_map_result(seq.graphs(), opts.threads, |_, g| {
                tracer.span("CommuteTimeEngine::compute", Some(parent), op, |_| {
                    CommuteTimeEngine::compute(g, &opts.engine)
                })
            })
        });
        let engines = engines.map_err(|e| format!("CommuteTimeEngine::compute failed: {e}"))?;
        let scored = tracer.span("score_transitions", Some(job), op, |parent| {
            cad_linalg::par::par_tabulate_result(seq.n_transitions(), opts.threads, |t| {
                tracer.span("transition_edge_scores", Some(parent), op, |_| {
                    transition_edge_scores(
                        &seq,
                        t,
                        engines[t].as_ref(),
                        engines[t + 1].as_ref(),
                        opts.kind,
                    )
                })
            })
        });
        let scored = scored.map_err(|e| format!("transition_edge_scores failed: {e}"))?;
        let (delta, counts) = tracer.span("apply_policy", Some(job), op, |_| {
            apply_policy(
                &scored,
                seq.n_nodes(),
                seq.n_transitions(),
                ThresholdPolicy::TargetNodesPerTransition(case.l),
            )
        });
        let scored_edges = scored.iter().map(Vec::len).collect();
        let transitions = scored
            .into_iter()
            .zip(counts)
            .enumerate()
            .map(|(t, (scores, k))| {
                let edges: Vec<_> = scores.into_iter().take(k).collect();
                let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
                nodes.sort_unstable();
                nodes.dedup();
                TransitionAnomalies { t, edges, nodes }
            })
            .collect();
        Ok((DetectionResult { delta, transitions }, scored_edges))
    })
}

/// Run a batch workload; `seconds` is the run's measuring budget.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, out: &Path) -> RunReport {
    let mut report = RunReport::new(w, seed, traced);
    let (cases, opts, job_secs) = match inputs::ensure(w, seed).and_then(|dir| cases(w, &dir)) {
        Ok(c) => c,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    let setup = match measure_setup(&cases) {
        Ok(s) => s,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    if traced {
        let n_jobs = job_count(0.3 * seconds, job_secs, 2);
        run_traced(&cases, opts, n_jobs, out, &mut report);
        return report;
    }
    let n_jobs = job_count(0.85 * seconds, job_secs, MIN_JOBS);
    let sampler = crate::heap::HeapSampler::start();
    let jobs = untraced_jobs(&cases, opts, n_jobs, &mut report);
    let heap = sampler.finish();
    let Some(d) = Dist::of(&jobs.secs) else {
        return report;
    };
    let what = if cases.len() == 1 { "pack" } else { "packs" };
    report.add(
        "setup_s",
        "s",
        setup,
        SETUP_REPEATS,
        &format!("median decode of all {} {what}", cases.len()),
    );
    report.add(
        "transitions_per_s",
        "1/s",
        jobs.transitions as f64 / d.p50,
        d.n,
        &format!("{} transitions per job / median job", jobs.transitions),
    );
    report.add(
        "latency_p50_ms",
        "ms",
        1e3 * d.p50,
        d.n,
        "median detect_top_l job",
    );
    report.add(
        "latency_tail_ms",
        "ms",
        1e3 * d.tail,
        d.n,
        &format!("{} of detect_top_l jobs", d.tail_label()),
    );
    crate::heap::report(&heap, &mut report);
    let recall = jobs.recall.0 as f64 / jobs.recall.1.max(1) as f64;
    report.add(
        "planted_recall",
        "fraction",
        recall,
        jobs.recall.1,
        "planted anomalous nodes flagged",
    );
    if recall < w.recall_floor() {
        report.problem(format!(
            "planted_recall {recall:.4} below the floor {:.4}",
            w.recall_floor()
        ));
    }
    report
}

/// The traced run: untraced reference jobs, the same jobs composed and
/// traced, then the linear-algebra probe on the first case's graphs.
fn run_traced(cases: &[Case], opts: CadOptions, n_jobs: usize, out: &Path, report: &mut RunReport) {
    let reference = untraced_jobs(cases, opts, n_jobs, report);
    let tracer = Tracer::new();
    let mut scored_edges = Vec::new();
    for job in 0..reference.secs.len() {
        let i = job % cases.len();
        report.attempted += 1;
        match traced_job(&tracer, &cases[i], &opts, job as u64) {
            Ok((res, scored)) => {
                if Some(&digest(res.delta, &res.transitions)) != reference.digests.get(i) {
                    report.failed += 1;
                    report.problem(format!("traced job {job} differs from detect_top_l"));
                }
                scored_edges.extend(scored.into_iter().map(|s| s as f64));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(e);
            }
        }
    }
    let traced_secs = tracer.durations("job");
    match decode(&cases[0].pack) {
        Ok(seq) => {
            let graphs: Vec<&WeightedGraph> = seq.graphs().iter().take(2).collect();
            probe::linalg(&tracer, &graphs, report);
        }
        Err(e) => report.problem(e),
    }

    let jobs = reference.secs.len().max(1) as f64;
    let spans = |name: &str| tracer.durations(name);
    report.add_dist("store.pack_decode_s", "s", &spans("read_pack"), "read_pack");
    let builds = spans("CommuteTimeEngine::compute");
    report.add_dist(
        "commute.build_s",
        "s",
        &builds,
        "CommuteTimeEngine::compute",
    );
    report.add(
        "commute.builds_per_op",
        "count",
        builds.len() as f64 / traced_secs.len().max(1) as f64,
        builds.len(),
        "oracle builds per job",
    );
    report.add_dist(
        "core.score_s",
        "s",
        &spans("transition_edge_scores"),
        "transition_edge_scores",
    );
    let mean_scored = scored_edges.iter().sum::<f64>() / scored_edges.len().max(1) as f64;
    report.add(
        "core.scored_edges",
        "count",
        mean_scored,
        scored_edges.len(),
        "mean per transition",
    );
    report.add_dist(
        "core.threshold_s",
        "s",
        &spans("apply_policy"),
        "apply_policy",
    );
    report.add_dist(
        "op.unattributed_s",
        "s",
        &tracer.self_times("job"),
        "job time outside its child spans",
    );
    report.add(
        "mem.allocs_per_op",
        "count",
        reference.allocs as f64 / jobs,
        reference.secs.len(),
        "per untraced job",
    );
    report.add(
        "mem.bytes_per_op",
        "bytes",
        reference.bytes as f64 / jobs,
        reference.secs.len(),
        "per untraced job",
    );
    if let (Some(t), Some(u)) = (Dist::of(&traced_secs), Dist::of(&reference.secs)) {
        report.add(
            "trace.overhead_pct",
            "%",
            100.0 * (t.p50 / u.p50 - 1.0),
            t.n,
            "median traced job / median untraced job - 1",
        );
    }
    if let Err(e) = std::fs::write(
        out.join(format!("{}.trace.json", report.workload)),
        tracer.chrome_json(),
    ) {
        report.problem(format!("cannot write the trace: {e}"));
    }
}
