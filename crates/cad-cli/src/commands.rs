//! Command implementations for the `cad` binary.

use crate::cli::{Cli, Command, EngineArg, JournalAction, KindArg, UpdateModeArg};
use cad_commute::{EmbeddingOptions, EngineOptions, PartitionSpec};
use cad_core::{CadDetector, CadOptions, ScoreKind, ThresholdMode, ThresholdPolicy, UpdateMode};
use cad_graph::io::{read_sequence, write_sequence};
use cad_graph::GraphSequence;
use std::fs::File;
use std::io::Write;

/// Top-level error for CLI runs.
#[derive(Debug)]
pub enum CliError {
    /// Filesystem problem.
    Io(std::io::Error),
    /// Parse / graph / numerical problem.
    Graph(cad_graph::GraphError),
    /// Bad user input not caught at flag parsing.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<cad_graph::GraphError> for CliError {
    fn from(e: cad_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

pub(crate) fn engine_options(engine: EngineArg, k: usize) -> EngineOptions {
    engine_options_traced(engine, k, 0)
}

/// Like [`engine_options`], with per-solve residual tracing: keep the
/// last `residual_trace_cap` relative residuals of every PCG solve
/// (surfaced in the v4 report's `solves[].residual_trace`). Purely
/// observational — the solve path and its output are unchanged.
pub(crate) fn engine_options_traced(
    engine: EngineArg,
    k: usize,
    residual_trace_cap: usize,
) -> EngineOptions {
    let mut solver = cad_linalg::solve::LaplacianSolverOptions::default();
    solver.cg.residual_trace_cap = residual_trace_cap;
    let embedding = EmbeddingOptions {
        k,
        solver,
        ..Default::default()
    };
    match engine {
        EngineArg::Auto => EngineOptions::Auto {
            threshold: 512,
            embedding,
        },
        EngineArg::Exact => EngineOptions::Exact,
        EngineArg::Approx => EngineOptions::Approximate(embedding),
        EngineArg::Corrected => EngineOptions::Corrected,
    }
}

pub(crate) fn update_mode(mode: UpdateModeArg) -> UpdateMode {
    match mode {
        UpdateModeArg::Rebuild => UpdateMode::Rebuild,
        UpdateModeArg::Incremental => UpdateMode::Incremental,
        UpdateModeArg::Auto => UpdateMode::Auto,
    }
}

pub(crate) fn score_kind(kind: KindArg) -> ScoreKind {
    match kind {
        KindArg::Cad => ScoreKind::Cad,
        KindArg::Adj => ScoreKind::Adj,
        KindArg::Com => ScoreKind::Com,
    }
}

fn load_sequence(path: &str) -> Result<GraphSequence, CliError> {
    // Packed inputs route through the validated binary reader; anything
    // else is the plain-text sequence format.
    if path.ends_with(".cadpack") {
        let seq = cad_store::read_pack(std::path::Path::new(path))
            .map_err(|e| CliError::Usage(format!("cannot load pack `{path}`: {e}")))?;
        return Ok(seq);
    }
    let file =
        File::open(path).map_err(|e| CliError::Usage(format!("cannot open `{path}`: {e}")))?;
    Ok(read_sequence(file)?)
}

/// Open the oracle cache when `--store-dir` was given.
fn open_store(
    dir: &Option<String>,
) -> Result<Option<std::sync::Arc<cad_store::OracleStore>>, CliError> {
    match dir {
        Some(d) => {
            let store = cad_store::OracleStore::open(std::path::Path::new(d))
                .map_err(|e| CliError::Usage(format!("cannot open store `{d}`: {e}")))?;
            Ok(Some(std::sync::Arc::new(store)))
        }
        None => Ok(None),
    }
}

/// Run one parsed command, writing human-readable output to `out`.
pub fn dispatch(cli: &Cli, out: &mut dyn Write) -> Result<(), CliError> {
    match &cli.command {
        Command::Detect {
            input,
            l,
            delta,
            kind,
            engine,
            k,
            threads,
            trace,
            metrics_json,
            store_dir,
            profile,
            partition,
        } => {
            let seq = load_sequence(input)?;
            // Any observability sink opts into per-solve residual
            // traces; the bounded ring never perturbs the solves.
            let residual_cap = if *trace || metrics_json.is_some() || profile.is_some() {
                DETECT_RESIDUAL_TRACE_CAP
            } else {
                0
            };
            let mut det = CadDetector::new(CadOptions {
                engine: engine_options_traced(*engine, *k, residual_cap),
                kind: score_kind(*kind),
                threads: *threads,
                partition: partition.map(|blocks| PartitionSpec { blocks }),
            });
            if let Some(store) = open_store(store_dir)? {
                det = det.with_provider(store);
            }
            let policy = match (l, delta) {
                (_, Some(d)) => ThresholdPolicy::Fixed(*d),
                (Some(l), None) => ThresholdPolicy::TargetNodesPerTransition(*l),
                (None, None) => ThresholdPolicy::TargetNodesPerTransition(5),
            };
            // With `--profile` an ambient trace context is installed so
            // trace-gated events (e.g. laplacian_solve span closes)
            // reach the flight recorder for the timeline.
            let _trace_guard = profile
                .as_ref()
                .map(|_| cad_obs::trace::set_current(cad_obs::TraceCtx::mint(0)));
            let (result, metrics) = det.detect_with_policy_metered(&seq, policy)?;
            if *trace || metrics_json.is_some() {
                let report = build_report(&result, &metrics);
                if *trace {
                    eprint!("{}", report.render_trace());
                }
                if let Some(path) = metrics_json {
                    std::fs::write(path, report.to_json_string())?;
                    writeln!(out, "metrics report written to {path}")?;
                }
            }
            let delta_text = match result.delta {
                Some(d) => format!("{d:.6}"),
                None => "n/a".to_string(),
            };
            writeln!(
                out,
                "{} nodes, {} instances, {} transitions; δ = {}",
                seq.n_nodes(),
                seq.len(),
                seq.n_transitions(),
                delta_text
            )?;
            for tr in &result.transitions {
                if tr.edges.is_empty() {
                    continue;
                }
                writeln!(out, "transition {} -> {}:", tr.t, tr.t + 1)?;
                let explanations =
                    cad_core::explain_transition(&tr.edges, seq.graph(tr.t), seq.graph(tr.t + 1));
                for (e, x) in tr.edges.iter().zip(&explanations) {
                    writeln!(
                        out,
                        "  edge {} {}  score {:.6}  d_weight {:+.4}  d_commute {:+.4}  [{}]",
                        e.u,
                        e.v,
                        e.score,
                        e.d_weight,
                        e.d_commute,
                        x.case.label()
                    )?;
                }
                let nodes: Vec<String> = tr.nodes.iter().map(|n| n.to_string()).collect();
                writeln!(out, "  nodes: {}", nodes.join(" "))?;
            }
            let quiet = result
                .transitions
                .iter()
                .filter(|t| t.edges.is_empty())
                .count();
            writeln!(out, "{quiet} quiet transitions")?;
            if let Some(path) = profile {
                write_profile(path)?;
                eprintln!("profile written to {path}");
            }
            Ok(())
        }
        Command::Score {
            input,
            kind,
            top,
            threads,
        } => {
            let seq = load_sequence(input)?;
            let det = CadDetector::new(CadOptions {
                engine: EngineOptions::default(),
                kind: score_kind(*kind),
                threads: *threads,
                partition: None,
            });
            let scored = det.score_sequence(&seq)?;
            for (t, scores) in scored.iter().enumerate() {
                writeln!(
                    out,
                    "transition {t} -> {} ({} scored edges):",
                    t + 1,
                    scores.len()
                )?;
                for e in scores.iter().take(*top) {
                    writeln!(out, "  {} {}  {:.6}", e.u, e.v, e.score)?;
                }
            }
            Ok(())
        }
        Command::Generate {
            dataset,
            out: out_path,
            seed,
        } => {
            let seq = generate_dataset(dataset, *seed)?;
            match out_path {
                Some(path) => {
                    let file = File::create(path)?;
                    write_sequence(file, &seq)?;
                    writeln!(
                        out,
                        "wrote {} instances over {} nodes to {path}",
                        seq.len(),
                        seq.n_nodes()
                    )?;
                }
                None => write_sequence(out, &seq)?,
            }
            Ok(())
        }
        Command::Watch {
            input,
            l,
            delta,
            kind,
            engine,
            k,
            events,
            metrics_addr,
            max_instances,
            poll_ms,
            hold_ms,
            store_dir,
            update_mode: upd,
            access_log,
        } => {
            let mode = match (l, delta) {
                (_, Some(d)) => ThresholdMode::Fixed(*d),
                (Some(l), None) => ThresholdMode::TargetNodes(*l),
                (None, None) => ThresholdMode::TargetNodes(5),
            };
            let cfg = crate::watch::WatchConfig {
                mode,
                events: events.clone(),
                metrics_addr: metrics_addr.clone(),
                max_instances: *max_instances,
                poll_ms: *poll_ms,
                hold_ms: *hold_ms,
                store_dir: store_dir.clone(),
                update_mode: update_mode(*upd),
                access_log: access_log.clone(),
            };
            if access_log.is_some() {
                // Same crash story as serve: an operator who asked for
                // an access log gets the flight recorder on panic too.
                let default_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let _ =
                        cad_obs::with_current(|r| r.events().dump(&mut std::io::stderr().lock()));
                    default_hook(info);
                }));
            }
            crate::watch::run_watch(input, *kind, *engine, *k, &cfg, out)
        }
        Command::Pack {
            input,
            out: dest,
            label,
        } => {
            let seq = load_sequence(input)?;
            let bytes = cad_store::write_pack(std::path::Path::new(dest), &seq, label)
                .map_err(|e| CliError::Usage(format!("cannot write pack `{dest}`: {e}")))?;
            writeln!(
                out,
                "packed {} instances over {} nodes into {dest} ({bytes} bytes)",
                seq.len(),
                seq.n_nodes()
            )?;
            Ok(())
        }
        Command::Inspect { input } => {
            let info = cad_store::inspect_pack(std::path::Path::new(input))
                .map_err(|e| CliError::Usage(format!("cannot inspect `{input}`: {e}")))?;
            writeln!(out, "pack: {input}")?;
            writeln!(out, "  format version : {}", info.version)?;
            writeln!(out, "  label          : {:?}", info.meta.label)?;
            writeln!(out, "  nodes          : {}", info.meta.n_nodes)?;
            writeln!(out, "  instances      : {}", info.meta.n_instances)?;
            writeln!(out, "  base edges     : {}", info.base_edges)?;
            writeln!(out, "  delta edges    : {:?}", info.delta_edges)?;
            writeln!(out, "  file bytes     : {}", info.file_bytes)?;
            writeln!(out, "  integrity      : all section checksums ok")?;
            Ok(())
        }
        Command::Serve {
            addr,
            workers,
            max_body,
            max_sessions,
            store_dir,
            update_mode: upd,
            access_log,
            journal_dir,
            journal_fsync,
            max_push_rps,
        } => {
            let mut journal = cad_journal::JournalConfig::default();
            if let Some(name) = journal_fsync {
                journal.fsync = cad_journal::FsyncPolicy::from_name(name)
                    .ok_or_else(|| CliError::Usage(format!("unknown --journal-fsync `{name}`")))?;
            }
            let cfg = cad_serve::ServeConfig {
                addr: addr.clone(),
                workers: *workers,
                max_body_bytes: *max_body,
                max_sessions: *max_sessions,
                store_dir: store_dir.clone().map(std::path::PathBuf::from),
                update_mode: update_mode(*upd),
                access_log: access_log.clone(),
                journal_dir: journal_dir.clone().map(std::path::PathBuf::from),
                journal,
                max_push_rps: *max_push_rps,
                ..Default::default()
            };
            // A crash should leave the last-seconds story behind: dump
            // the flight-recorder ring to stderr before unwinding.
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let _ = cad_obs::with_current(|r| r.events().dump(&mut std::io::stderr().lock()));
                default_hook(info);
            }));
            let server = cad_serve::Server::start(cfg)
                .map_err(|e| CliError::Usage(format!("cannot start server: {e}")))?;
            if let Some(log) = server.access_log() {
                // Panicking must not strand buffered access-log lines:
                // flush and fsync them before the recorder dump above
                // (the previous hook) runs.
                let prev_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    log.sync();
                    prev_hook(info);
                }));
            }
            if let Some(dir) = journal_dir {
                writeln!(
                    out,
                    "recovered {} session(s) from {dir}",
                    server.recovered_sessions()
                )?;
            }
            writeln!(out, "serving detection API at http://{}", server.addr())?;
            out.flush()?;
            server.serve_until_shutdown();
            writeln!(out, "drained; all sessions closed")?;
            Ok(())
        }
        Command::StoreGc {
            store_dir,
            max_bytes,
        } => {
            let store = cad_store::OracleStore::open(std::path::Path::new(store_dir))
                .map_err(|e| CliError::Usage(format!("cannot open store `{store_dir}`: {e}")))?;
            let stats = store
                .gc(*max_bytes)
                .map_err(|e| CliError::Usage(format!("gc failed in `{store_dir}`: {e}")))?;
            writeln!(
                out,
                "reclaimed {} bytes ({} files); kept {} bytes ({} files)",
                stats.bytes_reclaimed, stats.files_removed, stats.bytes_kept, stats.files_kept
            )?;
            Ok(())
        }
        Command::Journal { action, dir } => {
            let root = std::path::Path::new(dir);
            match action {
                JournalAction::Inspect => {
                    let infos = cad_journal::inspect_root(root).map_err(|e| {
                        CliError::Usage(format!("cannot inspect journals in `{dir}`: {e}"))
                    })?;
                    if infos.is_empty() {
                        writeln!(out, "no session journals under {dir}")?;
                        return Ok(());
                    }
                    for info in &infos {
                        let bytes: u64 = info.segments.iter().map(|&(_, b)| b).sum();
                        writeln!(out, "session {}:", info.session_id)?;
                        write!(out, "  segments  : {} ({bytes} bytes)", info.segments.len())?;
                        if info.stale_segments > 0 {
                            write!(out, " + {} stale pre-checkpoint", info.stale_segments)?;
                        }
                        writeln!(out)?;
                        writeln!(
                            out,
                            "  records   : {} create, {} delta, {} delete, {} checkpoint",
                            info.counts[0], info.counts[1], info.counts[2], info.counts[3]
                        )?;
                        writeln!(
                            out,
                            "  torn tail : {}",
                            if info.torn_tail {
                                "yes (dropped on recovery)"
                            } else {
                                "no"
                            }
                        )?;
                    }
                    Ok(())
                }
                JournalAction::Compact => {
                    let recovered = cad_journal::recover_root(root).map_err(|e| {
                        CliError::Usage(format!("cannot recover journals in `{dir}`: {e}"))
                    })?;
                    if recovered.is_empty() {
                        writeln!(out, "no session journals under {dir}")?;
                        return Ok(());
                    }
                    for rec in &recovered {
                        let sid = rec.session_id;
                        // Replay offline (no oracle cache — the state we
                        // checkpoint is engine-independent) and collapse
                        // the whole record stream into one checkpoint.
                        let rs = cad_serve::replay(rec, None)
                            .map_err(|e| CliError::Usage(format!("session {sid}: {e}")))?;
                        let checkpoint = cad_serve::journal::encode_checkpoint(
                            &rs.spec_json,
                            &rs.online.state(),
                        );
                        let mut journal = cad_journal::SessionJournal::open(
                            root,
                            cad_journal::JournalConfig::default(),
                            rec,
                        )
                        .map_err(|e| {
                            CliError::Usage(format!("session {sid}: cannot reopen journal: {e}"))
                        })?;
                        journal.compact(&checkpoint).map_err(|e| {
                            CliError::Usage(format!("session {sid}: compaction failed: {e}"))
                        })?;
                        writeln!(
                            out,
                            "session {sid}: {} records, {} -> {} bytes",
                            rec.records.len(),
                            rec.total_bytes,
                            journal.total_bytes()
                        )?;
                    }
                    Ok(())
                }
            }
        }
        Command::Profile {
            inner,
            out: trace_out,
        } => {
            // Install an ambient trace context so gated instrumentation
            // (laplacian_solve, span close events) records while the
            // wrapped command runs; its own output is untouched.
            let guard = cad_obs::trace::set_current(cad_obs::TraceCtx::mint(0));
            let inner_cli = Cli {
                command: (**inner).clone(),
            };
            // The whole wrapped command runs inside one traced span, so
            // even a batch run (which never touches the flight recorder
            // on its own) leaves a span-close record carrying the trace
            // id — the timeline's flow anchor.
            let result = {
                let _span = cad_obs::TraceSpan::enter("command");
                dispatch(&inner_cli, out)
            };
            drop(guard);
            write_profile(trace_out)?;
            eprintln!("profile written to {trace_out}");
            result
        }
        Command::ValidateReport { input } => {
            let text = std::fs::read_to_string(input)
                .map_err(|e| CliError::Usage(format!("cannot open `{input}`: {e}")))?;
            let value = cad_obs::parse_json(&text)
                .map_err(|e| CliError::Usage(format!("`{input}` is not valid JSON: {e}")))?;
            match cad_obs::Report::validate_json(&value) {
                Ok(()) => {
                    let report = cad_obs::Report::from_json(&value)
                        .map_err(|e| CliError::Usage(format!("`{input}`: {e}")))?;
                    writeln!(
                        out,
                        "valid report (schema_version {}, tool `{}`): {} phases, \
                         {} instances, {} transitions, {} solves",
                        report.schema_version,
                        report.tool,
                        report.phases.len(),
                        report.instances.len(),
                        report.transitions.len(),
                        report.solves.len()
                    )?;
                    Ok(())
                }
                Err(errs) => Err(CliError::Usage(format!(
                    "`{input}` failed schema validation:\n  {}",
                    errs.join("\n  ")
                ))),
            }
        }
    }
}

/// How many trailing per-iteration residuals each traced PCG solve
/// keeps (bounded ring; see `CgOptions::residual_trace_cap`).
const DETECT_RESIDUAL_TRACE_CAP: usize = 32;

/// Render the registry's span aggregates + flight recorder as a
/// Chrome-trace/Perfetto trace-event JSON file.
fn write_profile(path: &str) -> Result<(), CliError> {
    let doc = cad_obs::profile::capture(cad_obs::RING_CAPACITY);
    std::fs::write(path, doc.compact())?;
    Ok(())
}

/// Assemble the machine-readable run report: detection metrics (merged
/// deterministically on the coordinator), the registry's span
/// aggregates, counters, gauges and labeled counters. Its histograms
/// are rebuilt from per-item records (bit-identical for any thread
/// count), so the live histograms are left out.
fn build_report(
    result: &cad_core::DetectionResult,
    metrics: &cad_core::DetectionMetrics,
) -> cad_obs::Report {
    let mut report = cad_obs::Report::new("cad detect");
    let snap = cad_obs::with_current(cad_obs::Registry::snapshot);
    report.absorb_snapshot(&snap);
    report.histograms.clear();
    for fam in snap.labeled_counters {
        report.labels.insert(
            fam.name.to_string(),
            cad_obs::LabelFamily {
                label: fam.label.to_string(),
                values: fam
                    .cells
                    .into_iter()
                    .map(|(value, count)| (value.to_string(), count))
                    .collect(),
            },
        );
    }
    metrics.fill_report(&mut report);
    report.capture_memory();
    report.counters.insert(
        "detect.anomalous_nodes".to_string(),
        result.total_nodes() as u64,
    );
    report.counters.insert(
        "detect.anomalous_transitions".to_string(),
        result.anomalous_transitions().len() as u64,
    );
    if let Some(delta) = result.delta {
        report
            .summaries
            .insert("detect.delta".to_string(), cad_obs::Summary::of([delta]));
    }
    report
}

fn generate_dataset(name: &str, seed: u64) -> Result<GraphSequence, CliError> {
    use cad_datasets::*;
    let seq = match name {
        "toy" => cad_graph::generators::toy::toy_example().seq,
        "gmm" => {
            let mut opts = GmmBenchmarkOptions::with_n(300);
            opts.seed = seed;
            GmmBenchmark::generate(&opts)?.seq
        }
        "enron" => {
            EnronSim::generate(&EnronSimOptions {
                seed,
                ..Default::default()
            })?
            .seq
        }
        "dblp" => {
            DblpSim::generate(&DblpSimOptions {
                seed,
                ..Default::default()
            })?
            .seq
        }
        "precip" => {
            PrecipSim::generate(&PrecipSimOptions {
                seed,
                ..Default::default()
            })?
            .seq
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset `{other}` (toy|gmm|enron|dblp|precip)"
            )))
        }
    };
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn run_str(cmd: &str) -> (i32, String) {
        let mut out = Vec::new();
        let code = run(cmd.split_whitespace().map(String::from), &mut out);
        (code, String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cad-cli-tests");
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_detect_roundtrip() {
        let path = tmp("toy-seq.txt");
        let (code, msg) = run_str(&format!("generate --dataset toy --out {path}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("17 nodes"));

        let (code, report) = run_str(&format!("detect --input {path} --l 6 --engine exact"));
        assert_eq!(code, 0, "{report}");
        // The toy example's three anomalous edges appear (b4=3, b5=4 etc.
        // use raw indices: b1=0, r1=8; b4=3, b5=4; r7=14, r8=15).
        assert!(report.contains("edge 0 8"), "{report}");
        assert!(report.contains("edge 3 4"), "{report}");
        assert!(report.contains("edge 14 15"), "{report}");
    }

    #[test]
    fn score_lists_ranked_edges() {
        let path = tmp("toy-seq2.txt");
        run_str(&format!("generate --dataset toy --out {path}"));
        let (code, report) = run_str(&format!("score --input {path} --top 2"));
        assert_eq!(code, 0, "{report}");
        assert!(
            report.contains("transition 0 -> 1 (5 scored edges)"),
            "{report}"
        );
    }

    #[test]
    fn generate_to_stdout() {
        let (code, text) = run_str("generate --dataset toy");
        assert_eq!(code, 0);
        assert!(text.starts_with("nodes 17"), "{text}");
        assert!(text.matches("instance").count() == 2);
    }

    #[test]
    fn missing_file_is_a_usage_error() {
        let (code, msg) = run_str("detect --input /definitely/not/here.txt");
        assert_eq!(code, 1);
        assert!(msg.contains("cannot open"), "{msg}");
    }

    #[test]
    fn unknown_dataset_rejected() {
        let (code, msg) = run_str("generate --dataset mars");
        assert_eq!(code, 1);
        assert!(msg.contains("unknown dataset"));
    }

    #[test]
    fn bad_flags_exit_2() {
        let (code, msg) = run_str("detect");
        assert_eq!(code, 2);
        assert!(msg.contains("--input"));
    }

    #[test]
    fn threads_flag_gives_identical_report() {
        let path = tmp("toy-seq4.txt");
        run_str(&format!("generate --dataset toy --out {path}"));
        let (code, serial) = run_str(&format!("detect --input {path} --l 6 --threads 1"));
        assert_eq!(code, 0, "{serial}");
        let (code, par) = run_str(&format!("detect --input {path} --l 6 --threads 4"));
        assert_eq!(code, 0, "{par}");
        assert_eq!(serial, par, "output must be thread-count invariant");
    }

    #[test]
    fn partitioned_detect_runs() {
        let path = tmp("toy-seq-part.txt");
        run_str(&format!("generate --dataset toy --out {path}"));
        let (code, report) = run_str(&format!(
            "detect --input {path} --l 6 --engine exact --partition 3"
        ));
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("transition 0 -> 1"), "{report}");
        // The toy example's anomalous edges survive partitioning.
        assert!(report.contains("edge 0 8"), "{report}");
        let (code, report) = run_str(&format!(
            "detect --input {path} --l 6 --engine exact --partition 2"
        ));
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("edge 0 8"), "{report}");
        // The retired block-forming knob is a usage error.
        let (code, report) = run_str(&format!(
            "detect --input {path} --l 6 --engine exact --partition 2 --partition-mode bfs"
        ));
        assert_eq!(code, 2, "{report}");
        assert!(
            report.contains("unknown flag `--partition-mode`"),
            "{report}"
        );
    }

    #[test]
    fn corrected_engine_runs() {
        let path = tmp("toy-seq5.txt");
        run_str(&format!("generate --dataset toy --out {path}"));
        let (code, report) = run_str(&format!("detect --input {path} --l 6 --engine corrected"));
        assert_eq!(code, 0, "{report}");
        assert!(report.contains("transition 0 -> 1"), "{report}");
    }

    #[test]
    fn metrics_json_writes_validatable_report() {
        let seq = tmp("toy-seq6.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let report_path = tmp("report6.json");
        let (code, msg) = run_str(&format!(
            "detect --input {seq} --l 6 --metrics-json {report_path}"
        ));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("metrics report written"), "{msg}");

        // The written file parses and reconstructs losslessly.
        let text = std::fs::read_to_string(&report_path).expect("report file");
        let value = cad_obs::parse_json(&text).expect("valid json");
        let report = cad_obs::Report::from_json(&value).expect("valid schema");
        assert_eq!(report.schema_version, cad_obs::SCHEMA_VERSION);
        assert_eq!(report.tool, "cad detect");
        assert_eq!(report.instances.len(), 2, "toy has two instances");
        assert_eq!(report.transitions.len(), 1);
        assert!(report.counters.contains_key("linalg.spmv"));
        assert!(report.summaries.contains_key("detect.scores"));

        // And the validate-report subcommand accepts it.
        let (code, msg) = run_str(&format!("validate-report --input {report_path}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("valid report (schema_version 4"), "{msg}");
    }

    #[test]
    fn validate_report_rejects_garbage() {
        let bad = tmp("bad-report.json");
        std::fs::write(&bad, "not json at all").unwrap();
        let (code, msg) = run_str(&format!("validate-report --input {bad}"));
        assert_eq!(code, 1);
        assert!(msg.contains("not valid JSON"), "{msg}");

        // Valid JSON, wrong schema.
        std::fs::write(&bad, "{\"schema_version\": \"nope\"}").unwrap();
        let (code, msg) = run_str(&format!("validate-report --input {bad}"));
        assert_eq!(code, 1);
        assert!(msg.contains("failed schema validation"), "{msg}");
    }

    #[test]
    fn trace_flag_runs_clean() {
        let seq = tmp("toy-seq7.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let (code, msg) = run_str(&format!("detect --input {seq} --l 6 --trace"));
        assert_eq!(code, 0, "{msg}");
        // stdout stays the normal anomaly report; the tree goes to stderr.
        assert!(msg.contains("transition 0 -> 1"), "{msg}");
    }

    #[test]
    fn profile_flag_leaves_detection_output_bit_identical() {
        let seq = tmp("toy-seq-prof.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let trace = tmp("prof-detect.json");
        let (code, plain) = run_str(&format!("detect --input {seq} --l 6"));
        assert_eq!(code, 0, "{plain}");
        let (code, profiled) = run_str(&format!("detect --input {seq} --l 6 --profile {trace}"));
        assert_eq!(code, 0, "{profiled}");
        // The profile notice goes to stderr; stdout must be the same
        // bytes with profiling on or off.
        assert_eq!(plain, profiled, "profiling must not perturb detection");
        let text = std::fs::read_to_string(&trace).expect("trace file");
        assert!(cad_obs::parse_json(&text).is_ok(), "trace is JSON: {text}");
    }

    #[test]
    fn profile_command_wraps_detect_and_writes_a_perfetto_trace() {
        let seq = tmp("toy-seq-profcmd.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let trace = tmp("profcmd.json");
        let (code, msg) = run_str(&format!("profile detect --input {seq} --l 6 --out {trace}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("transition 0 -> 1"), "{msg}");
        let text = std::fs::read_to_string(&trace).expect("trace file");
        let v = cad_obs::parse_json(&text).expect("valid trace-event json");
        let events = v
            .get("traceEvents")
            .and_then(cad_obs::Json::as_arr)
            .expect("traceEvents");
        // Aggregates lay child span paths (detect/...) inside their
        // parents, so a detect run always yields nested "X" events.
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(cad_obs::Json::as_str) == Some("X")
                    && e.get("name")
                        .and_then(cad_obs::Json::as_str)
                        .is_some_and(|n| n.contains('/'))
            }),
            "expected a nested duration event: {text}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("bind_id").and_then(cad_obs::Json::as_str).is_some()),
            "expected at least one flow binding: {text}"
        );
    }

    #[test]
    fn pack_inspect_detect_roundtrip() {
        let seq = tmp("toy-seq8.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let pack = tmp("toy-seq8.cadpack");
        let (code, msg) = run_str(&format!("pack --input {seq} --out {pack} --label toy"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("packed 2 instances over 17 nodes"), "{msg}");

        let (code, msg) = run_str(&format!("inspect --input {pack}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("instances      : 2"), "{msg}");
        assert!(msg.contains("nodes          : 17"), "{msg}");
        assert!(msg.contains("label          : \"toy\""), "{msg}");
        assert!(msg.contains("all section checksums ok"), "{msg}");

        // Detection on the pack matches detection on the text file.
        let (code, from_text) = run_str(&format!("detect --input {seq} --l 6 --engine exact"));
        assert_eq!(code, 0, "{from_text}");
        let (code, from_pack) = run_str(&format!("detect --input {pack} --l 6 --engine exact"));
        assert_eq!(code, 0, "{from_pack}");
        assert_eq!(from_text, from_pack, "pack must be a lossless input");
    }

    #[test]
    fn inspect_rejects_corrupt_pack() {
        let seq = tmp("toy-seq9.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let pack = tmp("toy-seq9.cadpack");
        run_str(&format!("pack --input {seq} --out {pack}"));
        let mut bytes = std::fs::read(&pack).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&pack, &bytes).unwrap();
        let (code, msg) = run_str(&format!("inspect --input {pack}"));
        assert_eq!(code, 1);
        assert!(msg.contains("cannot inspect"), "{msg}");
        let (code, msg) = run_str(&format!("detect --input {pack} --l 6"));
        assert_eq!(code, 1);
        assert!(msg.contains("cannot load pack"), "{msg}");
    }

    #[test]
    fn store_dir_caches_across_runs() {
        let seq = tmp("toy-seq10.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let store = tmp("store10");
        let _ = std::fs::remove_dir_all(&store);
        let (code, cold) = run_str(&format!(
            "detect --input {seq} --l 6 --engine exact --store-dir {store}"
        ));
        assert_eq!(code, 0, "{cold}");
        let (code, warm) = run_str(&format!(
            "detect --input {seq} --l 6 --engine exact --store-dir {store}"
        ));
        assert_eq!(code, 0, "{warm}");
        assert_eq!(cold, warm, "cache reuse must not change the output");
        // The store directory holds one artifact per distinct snapshot.
        let n = std::fs::read_dir(std::path::Path::new(&store).join("oracles"))
            .unwrap()
            .count();
        assert_eq!(n, 2, "toy has two distinct instances");
    }

    #[test]
    fn store_gc_trims_the_cache() {
        let seq = tmp("toy-seq11.txt");
        run_str(&format!("generate --dataset toy --out {seq}"));
        let store = tmp("store11");
        let _ = std::fs::remove_dir_all(&store);
        let (code, msg) = run_str(&format!(
            "detect --input {seq} --l 6 --engine exact --store-dir {store}"
        ));
        assert_eq!(code, 0, "{msg}");

        // A zero budget evicts every artifact and reports the bytes.
        let (code, msg) = run_str(&format!("store gc --store-dir {store} --max-bytes 0"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("(2 files)"), "{msg}");
        assert!(msg.contains("kept 0 bytes (0 files)"), "{msg}");
        let n = std::fs::read_dir(std::path::Path::new(&store).join("oracles"))
            .unwrap()
            .count();
        assert_eq!(n, 0, "gc with zero budget must empty the cache");
    }

    #[test]
    fn journal_inspect_and_compact_cli() {
        let dir = tmp("wal-cli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Both actions handle an empty root gracefully.
        let (code, msg) = run_str(&format!("journal inspect {dir}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("no session journals"), "{msg}");
        let (code, msg) = run_str(&format!("journal compact {dir}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("no session journals"), "{msg}");

        // Forge a journal the way serve writes one: a create record
        // carrying the session spec, then one edge-delta per push.
        let root = std::path::Path::new(&dir);
        let mut j =
            cad_journal::SessionJournal::create(root, 7, cad_journal::JournalConfig::default())
                .unwrap();
        j.append(
            cad_journal::RecordKind::Create,
            br#"{"nodes":6,"delta":0.5,"engine":"exact","update_mode":"rebuild"}"#,
        )
        .unwrap();
        let empty = cad_graph::WeightedGraph::from_edges(6, &[]).unwrap();
        let g1 = cad_graph::WeightedGraph::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 1.0)],
        )
        .unwrap();
        let g2 = cad_graph::WeightedGraph::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 9.0), (3, 4, 1.0), (4, 5, 1.0)],
        )
        .unwrap();
        j.append(
            cad_journal::RecordKind::Delta,
            &cad_store::encode_edge_delta(&empty, &g1),
        )
        .unwrap();
        j.append(
            cad_journal::RecordKind::Delta,
            &cad_store::encode_edge_delta(&g1, &g2),
        )
        .unwrap();
        drop(j);

        let (code, msg) = run_str(&format!("journal inspect {dir}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("session 7:"), "{msg}");
        assert!(msg.contains("1 create, 2 delta"), "{msg}");
        assert!(msg.contains("torn tail : no"), "{msg}");

        let (code, msg) = run_str(&format!("journal compact {dir}"));
        assert_eq!(code, 0, "{msg}");
        assert!(msg.contains("session 7: 3 records"), "{msg}");

        // The compacted journal is a single checkpoint and still
        // replayable/inspectable.
        let (code, msg) = run_str(&format!("journal inspect {dir}"));
        assert_eq!(code, 0, "{msg}");
        assert!(
            msg.contains("0 create, 0 delta, 0 delete, 1 checkpoint"),
            "{msg}"
        );

        let (code, msg) = run_str(&format!("journal inspect {dir}/definitely-missing"));
        assert_eq!(code, 1);
        assert!(msg.contains("cannot inspect"), "{msg}");
    }

    #[test]
    fn fixed_delta_mode() {
        let path = tmp("toy-seq3.txt");
        run_str(&format!("generate --dataset toy --out {path}"));
        let (code, report) = run_str(&format!("detect --input {path} --delta 1e12"));
        assert_eq!(code, 0);
        assert!(report.contains("1 quiet transitions"), "{report}");
    }
}
