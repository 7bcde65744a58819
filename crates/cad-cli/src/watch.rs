//! `cad watch` — streaming detection over arriving graph snapshots.
//!
//! Instances arrive from one of three sources:
//!
//! * **stdin NDJSON** (`--input -`, the default): one snapshot per line,
//!   `{"nodes": N, "edges": [[u, v, w], ...]}`;
//! * **a directory to tail** (`--input <dir>`): snapshot files in the
//!   plain sequence-file format, processed in lexicographic filename
//!   order as they appear (poll interval `--poll-ms`);
//! * **a sequence file to replay** (`--input <seq.txt>`): every
//!   instance of an offline sequence, in order.
//!
//! Each arrival triggers exactly one oracle build ([`OnlineCad`]'s
//! sliding cache keeps `G_t`'s oracle as the next transition's left
//! operand) and, from the second instance on, one scored transition.
//! Every transition appends one NDJSON *event* — timestamp, transition
//! id, δ, anomalous edge/node counts, and a latency breakdown by phase —
//! to `--events` (stdout by default). `--metrics-addr` additionally
//! serves the live counter/histogram registry as Prometheus text plus a
//! `/healthz` liveness probe for the duration of the run.

use crate::cli::{EngineArg, KindArg};
use crate::commands::CliError;
use cad_core::{OnlineCad, StepOracle, ThresholdMode, TransitionAnomalies, UpdateMode};
use cad_graph::io::{read_graph, read_sequence};
use cad_graph::WeightedGraph;
use cad_obs::Json;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Everything `cad watch` needs beyond the detector options.
pub struct WatchConfig {
    /// Threshold mode (fixed δ or running-average target).
    pub mode: ThresholdMode,
    /// Event-log path (append); stdout when `None`.
    pub events: Option<String>,
    /// Exporter bind address, e.g. `127.0.0.1:9184`.
    pub metrics_addr: Option<String>,
    /// Stop after this many instances.
    pub max_instances: Option<usize>,
    /// Directory-tail poll interval.
    pub poll_ms: u64,
    /// Linger after the input ends (lets a scraper catch the final
    /// state before the exporter goes away).
    pub hold_ms: u64,
    /// Oracle-cache directory; no caching when `None`.
    pub store_dir: Option<String>,
    /// Oracle lifecycle (`--update-mode`).
    pub update_mode: UpdateMode,
    /// NDJSON access-log destination: a path (append), `-` for stderr,
    /// disabled when `None`. Same line schema as `cad serve`.
    pub access_log: Option<String>,
}

/// One NDJSON access-log line per processed instance, mirroring the
/// `cad serve` schema (ts_ms, trace_id, method, path, status, worker,
/// queue_wait_secs, handler_secs, update_mode, fallback) so one log
/// pipeline digests both tools. `method` is the fixed verb `WATCH` and
/// `path` addresses the instance index in the stream.
fn access_line(
    ts_ms: u128,
    trace_id: u64,
    instance: usize,
    status: u16,
    handler_secs: f64,
    update_mode: Option<&str>,
    fallback: Option<&str>,
) -> String {
    let mut fields = vec![
        ("ts_ms", Json::Num(ts_ms as f64)),
        ("trace_id", Json::Str(cad_obs::trace::id_hex(trace_id))),
        ("method", Json::Str("WATCH".to_string())),
        ("path", Json::Str(format!("/watch/instances/{instance}"))),
        ("status", Json::Num(status as f64)),
        ("worker", Json::Num(0.0)),
        ("queue_wait_secs", Json::Num(0.0)),
        ("handler_secs", Json::Num(handler_secs)),
    ];
    if let Some(mode) = update_mode {
        fields.push(("update_mode", Json::Str(mode.to_string())));
    }
    if let Some(reason) = fallback {
        fields.push(("fallback", Json::Str(reason.to_string())));
    }
    Json::obj(fields).compact()
}

/// Decode one stdin NDJSON snapshot line with the serve snapshot
/// decoder; unlike a serve push, the line must carry `nodes`.
fn graph_from_ndjson(line: &str) -> Result<WeightedGraph, CliError> {
    cad_serve::decode_snapshot(line.as_bytes(), None).map_err(|e| match e {
        cad_serve::SnapshotError::Malformed(message) => CliError::Usage(message),
        cad_serve::SnapshotError::Graph(g) => CliError::Graph(g),
    })
}

/// One NDJSON event line for a completed transition (no trailing
/// newline). Timestamps are Unix epoch milliseconds. `"trace_id"` is
/// the 16-hex id minted for the instance that completed the
/// transition, matching the flight-recorder events the push emitted.
/// `"mode"` is the oracle path the step actually took (`incremental`
/// or `rebuild`); a fallback additionally names its trigger in
/// `"fallback"` so a storm of rebuilds under `--update-mode
/// incremental` is visible in the log.
#[allow(clippy::too_many_arguments)]
fn event_line(
    ts_ms: u128,
    trace_id: u64,
    tr: &TransitionAnomalies,
    delta: f64,
    n_scored: usize,
    oracle: StepOracle,
    build_secs: f64,
    score_secs: f64,
) -> String {
    let fallback = match oracle.fallback_reason() {
        Some(r) => format!(", \"fallback\": \"{}\"", r.name()),
        None => String::new(),
    };
    let update_secs = match oracle {
        StepOracle::Incremental { update_secs, .. } => update_secs,
        _ => 0.0,
    };
    format!(
        "{{\"ts_ms\": {ts_ms}, \"trace_id\": \"{}\", \"t\": {}, \"delta\": {}, \
         \"n_scored\": {}, \
         \"n_edges\": {}, \"n_nodes\": {}, \"mode\": \"{}\"{fallback}, \
         \"latency\": {{\"build_secs\": {:.6}, \"update_secs\": {:.6}, \
         \"score_secs\": {:.6}, \"total_secs\": {:.6}}}}}",
        cad_obs::trace::id_hex(trace_id),
        tr.t,
        if delta == f64::MAX {
            "null".to_string()
        } else {
            format!("{delta:.6e}")
        },
        n_scored,
        tr.edges.len(),
        tr.nodes.len(),
        oracle.mode_name(),
        build_secs,
        update_secs,
        score_secs,
        build_secs + update_secs + score_secs,
    )
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Drive the streaming detector over a source of instances, emitting
/// one event per transition into `events`. Returns
/// `(instances, transitions)` processed. Factored out of [`run_watch`]
/// so integration tests can feed an in-memory source and sink.
pub fn watch_loop<'w>(
    source: &mut dyn Iterator<Item = Result<WeightedGraph, CliError>>,
    online: &mut OnlineCad,
    events: &mut dyn Write,
    mut access: Option<&mut (dyn Write + 'w)>,
    health: &cad_obs::WatchHealth,
    max_instances: Option<usize>,
) -> Result<(usize, usize), CliError> {
    let mut instances = 0usize;
    let mut transitions = 0usize;
    for g in source {
        // Mint a fresh trace per incoming instance so the oracle
        // update/fallback events this push emits into the flight
        // recorder share an id with the NDJSON event line below.
        let trace = cad_obs::TraceCtx::mint(0);
        let _guard = cad_obs::trace::set_current(trace);
        let (outcome, m) = match g.and_then(|g| Ok(online.push_metered(g)?)) {
            Ok(step) => step,
            Err(CliError::Graph(e)) => {
                // A malformed snapshot (e.g. a vertex id past the
                // stream's vertex-set size) emits the same structured
                // error body the serve endpoint answers with, so log
                // consumers see one schema either way.
                let (status, code) = cad_serve::graph_error_code(&e);
                let body = cad_obs::http::error_body(code, &e.to_string());
                events.write_all(body.as_bytes())?;
                events.flush()?;
                if let Some(w) = access.as_deref_mut() {
                    let line =
                        access_line(now_ms(), trace.trace_id, instances, status, 0.0, None, None);
                    writeln!(w, "{line}")?;
                    w.flush()?;
                }
                return Err(CliError::Graph(e));
            }
            Err(other) => return Err(other),
        };
        if let Some(w) = access.as_deref_mut() {
            let update_secs = match m.oracle {
                StepOracle::Incremental { update_secs, .. } => update_secs,
                _ => 0.0,
            };
            let line = access_line(
                now_ms(),
                trace.trace_id,
                instances,
                200,
                m.build.build_secs + update_secs + m.score_secs,
                Some(m.oracle.mode_name()),
                m.oracle.fallback_reason().map(|r| r.name()),
            );
            writeln!(w, "{line}")?;
            w.flush()?;
        }
        instances += 1;
        if let Some(tr) = outcome {
            transitions += 1;
            health.mark_transition();
            let line = event_line(
                now_ms(),
                trace.trace_id,
                &tr,
                online.delta(),
                m.n_scored,
                m.oracle,
                m.build.build_secs,
                m.score_secs,
            );
            writeln!(events, "{line}")?;
            events.flush()?;
        }
        if max_instances.is_some_and(|max| instances >= max) {
            break;
        }
    }
    Ok((instances, transitions))
}

/// A directory tail: yields snapshot files in lexicographic filename
/// order as they appear, polling until `max_instances` are seen.
///
/// Dotfiles and `*.tmp` files are invisible to the tail, so producers
/// get atomic visibility by writing to `.snap.tmp` (or any hidden/tmp
/// name) and renaming into place — the tail never observes a snapshot
/// mid-write.
struct DirTail {
    dir: String,
    seen: BTreeSet<String>,
    queue: Vec<String>,
    poll: Duration,
    remaining: Option<usize>,
}

/// Should the directory tail consider this filename at all?
fn tailable(name: &str) -> bool {
    !name.starts_with('.') && !name.ends_with(".tmp")
}

impl Iterator for DirTail {
    type Item = Result<WeightedGraph, CliError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(0) = self.remaining {
            return None;
        }
        loop {
            if let Some(path) = self.queue.pop() {
                if let Some(r) = self.remaining.as_mut() {
                    *r -= 1;
                }
                let g = match File::open(&path) {
                    Ok(f) => read_graph(f)
                        .map_err(|e| CliError::Usage(format!("snapshot `{path}` unreadable: {e}"))),
                    Err(e) => Err(CliError::Usage(format!("cannot open `{path}`: {e}"))),
                };
                return Some(g);
            }
            let mut fresh: Vec<String> = match std::fs::read_dir(&self.dir) {
                Ok(entries) => entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter(|e| tailable(&e.file_name().to_string_lossy()))
                    .map(|e| e.path().to_string_lossy().into_owned())
                    .filter(|p| !self.seen.contains(p))
                    .collect(),
                Err(e) => return Some(Err(CliError::Io(e))),
            };
            if fresh.is_empty() {
                std::thread::sleep(self.poll);
                continue;
            }
            // Lexicographic arrival order; pop() takes from the back,
            // so sort descending.
            fresh.sort_unstable_by(|a, b| b.cmp(a));
            for p in &fresh {
                self.seen.insert(p.clone());
            }
            self.queue = fresh;
        }
    }
}

/// Run the full `cad watch` command. The `--l`/`--delta` flags have
/// already been folded into `cfg.mode` by the dispatcher.
pub fn run_watch(
    input: &str,
    kind: KindArg,
    engine: EngineArg,
    k: usize,
    cfg: &WatchConfig,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let opts = cad_core::CadOptions {
        engine: crate::commands::engine_options(engine, k),
        kind: crate::commands::score_kind(kind),
        threads: 1,
        partition: None,
    };
    let mut online = OnlineCad::with_mode(opts, cfg.mode).with_update_mode(cfg.update_mode);
    if let Some(dir) = &cfg.store_dir {
        let store = cad_store::OracleStore::open(Path::new(dir))
            .map_err(|e| CliError::Usage(format!("cannot open store `{dir}`: {e}")))?;
        online = online.with_provider(Arc::new(store));
    }
    let health = Arc::new(cad_obs::WatchHealth::new());
    let server = match &cfg.metrics_addr {
        Some(addr) => {
            let s = cad_obs::MetricsServer::start(addr, Arc::clone(&health))?;
            cad_obs::progress!("serving /metrics and /healthz at http://{}", s.addr());
            Some(s)
        }
        None => None,
    };
    let mut event_sink: Box<dyn Write + '_> = match &cfg.events {
        Some(path) => Box::new(File::options().create(true).append(true).open(path)?),
        None => Box::new(&mut *out),
    };
    // Same destination convention as `cad serve --access-log`: `-` means
    // stderr (keeps stdout clean for events/summary), else append to a
    // file so successive runs accumulate one audit trail.
    let mut access_sink: Option<Box<dyn Write>> = match &cfg.access_log {
        Some(p) if p == "-" => Some(Box::new(std::io::stderr())),
        Some(p) => Some(Box::new(File::options().create(true).append(true).open(p)?)),
        None => None,
    };

    let path = Path::new(input);
    let (instances, transitions) = if input == "-" {
        let stdin = std::io::stdin();
        let mut source = stdin.lock().lines().filter_map(|line| match line {
            Ok(l) if l.trim().is_empty() => None,
            Ok(l) => Some(graph_from_ndjson(&l)),
            Err(e) => Some(Err(CliError::Io(e))),
        });
        watch_loop(
            &mut source,
            &mut online,
            &mut event_sink,
            access_sink.as_deref_mut(),
            &health,
            cfg.max_instances,
        )?
    } else if path.is_dir() {
        let mut source = DirTail {
            dir: input.to_string(),
            seen: BTreeSet::new(),
            queue: Vec::new(),
            poll: Duration::from_millis(cfg.poll_ms),
            remaining: cfg.max_instances,
        };
        watch_loop(
            &mut source,
            &mut online,
            &mut event_sink,
            access_sink.as_deref_mut(),
            &health,
            cfg.max_instances,
        )?
    } else {
        let file = File::open(input)
            .map_err(|e| CliError::Usage(format!("cannot open `{input}`: {e}")))?;
        let seq = read_sequence(file)?;
        let mut source = seq.graphs().iter().cloned().map(Ok);
        watch_loop(
            &mut source,
            &mut online,
            &mut event_sink,
            access_sink.as_deref_mut(),
            &health,
            cfg.max_instances,
        )?
    };

    drop(event_sink);
    if cfg.hold_ms > 0 {
        std::thread::sleep(Duration::from_millis(cfg.hold_ms));
    }
    if let Some(s) = server {
        s.shutdown();
    }
    cad_obs::progress!("watch done: {instances} instances, {transitions} transitions");
    // When events go to a file, stdout still gets a one-line summary.
    if cfg.events.is_some() {
        writeln!(out, "{instances} instances, {transitions} transitions")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_core::CadOptions;

    fn instance(bridge: f64) -> WeightedGraph {
        let mut edges = vec![
            (0, 1, 3.0),
            (0, 2, 3.0),
            (1, 2, 3.0),
            (3, 4, 3.0),
            (3, 5, 3.0),
            (4, 5, 3.0),
            (2, 3, 0.2),
        ];
        if bridge > 0.0 {
            edges.push((0, 5, bridge));
        }
        WeightedGraph::from_edges(6, &edges).unwrap()
    }

    #[test]
    fn ndjson_snapshot_parses() {
        let g = graph_from_ndjson(r#"{"nodes": 4, "edges": [[0, 1, 1.5], [2, 3, 0.25]]}"#).unwrap();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.edges().count(), 2);

        assert!(graph_from_ndjson("not json").is_err());
        assert!(graph_from_ndjson(r#"{"edges": []}"#).is_err());
        assert!(graph_from_ndjson(r#"{"nodes": 2, "edges": [[0, 1]]}"#).is_err());
    }

    #[test]
    fn event_lines_are_valid_single_line_json() {
        let tr = TransitionAnomalies {
            t: 3,
            edges: Vec::new(),
            nodes: Vec::new(),
        };
        let line = event_line(
            1234,
            0xdead_beef_0042,
            &tr,
            0.5,
            7,
            StepOracle::Rebuilt,
            0.001,
            0.0005,
        );
        assert!(!line.contains('\n'));
        let v = cad_obs::parse_json(&line).expect("event parses");
        assert_eq!(v.get("t").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n_scored").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("trace_id").and_then(Json::as_str),
            Some("0000deadbeef0042")
        );
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("rebuild"));
        assert!(v.get("fallback").is_none(), "a plain rebuild has no reason");
        assert!(v.get("latency").and_then(|l| l.get("total_secs")).is_some());
        // δ before first calibration serializes as null.
        let line = event_line(0, 1, &tr, f64::MAX, 0, StepOracle::Rebuilt, 0.0, 0.0);
        let v = cad_obs::parse_json(&line).expect("parses");
        assert!(matches!(v.get("delta"), Some(Json::Null)));

        // An incremental step reports its mode and update latency.
        let step = StepOracle::Incremental {
            update_secs: 0.002,
            changes: 3,
        };
        let line = event_line(0, 1, &tr, 0.5, 7, step, 0.0, 0.0005);
        let v = cad_obs::parse_json(&line).expect("parses");
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("incremental"));
        let latency = v.get("latency").unwrap();
        let upd = latency.get("update_secs").and_then(Json::as_f64).unwrap();
        assert!((upd - 0.002).abs() < 1e-9);

        // A fallback names its trigger.
        let step = StepOracle::Fallback(cad_commute::RebuildReason::Structural);
        let line = event_line(0, 1, &tr, 0.5, 7, step, 0.001, 0.0005);
        let v = cad_obs::parse_json(&line).expect("parses");
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("rebuild"));
        assert_eq!(v.get("fallback").and_then(Json::as_str), Some("structural"));
    }

    #[test]
    fn incremental_watch_events_report_the_mode_taken() {
        let graphs = vec![instance(0.0), instance(0.0), instance(1.5)];
        let mut source = graphs.into_iter().map(Ok);
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4))
            .with_update_mode(UpdateMode::Incremental);
        let mut sink = Vec::new();
        let health = cad_obs::WatchHealth::new();
        let (instances, transitions) =
            watch_loop(&mut source, &mut online, &mut sink, None, &health, None).unwrap();
        assert_eq!((instances, transitions), (3, 2));
        let text = String::from_utf8(sink).unwrap();
        for line in text.lines() {
            let v = cad_obs::parse_json(line).unwrap();
            assert_eq!(
                v.get("mode").and_then(Json::as_str),
                Some("incremental"),
                "weight-only deltas stay incremental: {line}"
            );
        }
    }

    #[test]
    fn watch_loop_emits_one_event_per_transition() {
        let graphs = vec![instance(0.0), instance(0.0), instance(1.5)];
        let mut source = graphs.into_iter().map(Ok);
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
        let mut sink = Vec::new();
        let health = cad_obs::WatchHealth::new();
        let (instances, transitions) =
            watch_loop(&mut source, &mut online, &mut sink, None, &health, None).unwrap();
        assert_eq!(instances, 3);
        assert_eq!(transitions, 2);
        assert_eq!(health.transitions(), 2);
        let text = String::from_utf8(sink).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(cad_obs::parse_json(line).is_ok(), "bad event: {line}");
        }
        // The bridge transition flags the cross-cluster edge.
        let last = cad_obs::parse_json(lines[1]).unwrap();
        assert_eq!(last.get("t").and_then(Json::as_u64), Some(1));
        assert_eq!(last.get("n_edges").and_then(Json::as_u64), Some(1));
        assert_eq!(last.get("n_nodes").and_then(Json::as_u64), Some(2));
    }

    fn snapshot_text(w: f64) -> String {
        format!("nodes 3\ninstance\n0 1 {w}\n1 2 {w}\n")
    }

    fn tail_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cad-watch-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mk tail dir");
        dir
    }

    #[test]
    fn dir_tail_orders_lexicographically_not_by_arrival() {
        let dir = tail_dir("order");
        // Created newest-name-first: arrival order is 02 then 01, but
        // the tail must still deliver 01 before 02.
        std::fs::write(dir.join("02.snap"), snapshot_text(2.0)).unwrap();
        std::fs::write(dir.join("01.snap"), snapshot_text(1.0)).unwrap();
        let mut tail = DirTail {
            dir: dir.to_string_lossy().into_owned(),
            seen: BTreeSet::new(),
            queue: Vec::new(),
            poll: Duration::from_millis(1),
            remaining: Some(3),
        };
        let first = tail.next().unwrap().unwrap();
        let second = tail.next().unwrap().unwrap();
        assert_eq!(first.weight(0, 1), 1.0, "01.snap comes first");
        assert_eq!(second.weight(0, 1), 2.0);
        // A later arrival with an earlier name still gets processed
        // (queue refills once drained).
        std::fs::write(dir.join("00.snap"), snapshot_text(0.5)).unwrap();
        let third = tail.next().unwrap().unwrap();
        assert_eq!(third.weight(0, 1), 0.5);
        assert!(tail.next().is_none(), "remaining budget exhausted");
    }

    #[test]
    fn dir_tail_ignores_tmp_and_hidden_files_until_renamed() {
        let dir = tail_dir("partial");
        // A producer mid-write: truncated content under a .tmp name and
        // a hidden scratch file. Neither may reach the detector.
        std::fs::write(dir.join("01.snap.tmp"), "nodes 3\ninstance\n0 1").unwrap();
        std::fs::write(dir.join(".scratch"), "garbage").unwrap();
        std::fs::write(dir.join("02.snap"), snapshot_text(2.0)).unwrap();
        let mut tail = DirTail {
            dir: dir.to_string_lossy().into_owned(),
            seen: BTreeSet::new(),
            queue: Vec::new(),
            poll: Duration::from_millis(1),
            remaining: Some(2),
        };
        let first = tail.next().unwrap().unwrap();
        assert_eq!(first.weight(0, 1), 2.0, "tmp file skipped");
        // The producer finishes: write-then-rename makes the complete
        // snapshot visible atomically, and it is read intact.
        std::fs::write(dir.join("01.snap.tmp"), snapshot_text(1.0)).unwrap();
        std::fs::rename(dir.join("01.snap.tmp"), dir.join("01.snap")).unwrap();
        let second = tail.next().unwrap().unwrap();
        assert_eq!(second.weight(0, 1), 1.0);
        assert!(tail.next().is_none());
    }

    #[test]
    fn bad_snapshots_leave_a_structured_error_event() {
        // A vertex id past the stream's vertex set: the loop fails, but
        // the event log's last line is the serve-endpoint error schema.
        let mut source = vec![
            Ok(instance(0.0)),
            graph_from_ndjson(r#"{"nodes": 6, "edges": [[0, 9, 1.0]]}"#),
        ]
        .into_iter();
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
        let mut sink = Vec::new();
        let health = cad_obs::WatchHealth::new();
        let err = watch_loop(&mut source, &mut online, &mut sink, None, &health, None).unwrap_err();
        assert!(matches!(
            err,
            CliError::Graph(cad_graph::GraphError::NodeOutOfRange { node: 9, .. })
        ));
        let text = String::from_utf8(sink).unwrap();
        let last = text.lines().last().expect("an error event");
        let v = cad_obs::parse_json(last).expect("structured error parses");
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("node_out_of_range")
        );

        // A snapshot whose vertex-set size disagrees with the stream's
        // trips the same path from inside the detector.
        let mut source = vec![
            Ok(instance(0.0)),
            Ok(WeightedGraph::from_edges(5, &[(0, 1, 1.0)]).unwrap()),
        ]
        .into_iter();
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
        let mut sink = Vec::new();
        watch_loop(&mut source, &mut online, &mut sink, None, &health, None).unwrap_err();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("\"mixed_node_counts\""), "{text}");
    }

    #[test]
    fn access_log_gets_one_serve_schema_line_per_instance() {
        let graphs = vec![instance(0.0), instance(0.0), instance(1.5)];
        let mut source = graphs.into_iter().map(Ok);
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4))
            .with_update_mode(UpdateMode::Incremental);
        let mut sink = Vec::new();
        let mut access = Vec::new();
        let health = cad_obs::WatchHealth::new();
        let (instances, _) = watch_loop(
            &mut source,
            &mut online,
            &mut sink,
            Some(&mut access),
            &health,
            None,
        )
        .unwrap();
        assert_eq!(instances, 3);
        let text = String::from_utf8(access).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one access line per instance: {text}");
        for (i, line) in lines.iter().enumerate() {
            let v = cad_obs::parse_json(line).expect("access line parses");
            // Field parity with the serve access log.
            for key in [
                "ts_ms",
                "trace_id",
                "method",
                "path",
                "status",
                "worker",
                "queue_wait_secs",
                "handler_secs",
                "update_mode",
            ] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
            assert_eq!(v.get("method").and_then(Json::as_str), Some("WATCH"));
            assert_eq!(v.get("status").and_then(Json::as_u64), Some(200));
            assert_eq!(
                v.get("path").and_then(Json::as_str),
                Some(format!("/watch/instances/{i}").as_str())
            );
            let id = v.get("trace_id").and_then(Json::as_str).unwrap();
            assert_eq!(id.len(), 16, "16-hex trace id: {id}");
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(
                v.get("handler_secs").and_then(Json::as_f64).unwrap() >= 0.0,
                "{line}"
            );
        }
    }

    #[test]
    fn a_failing_instance_still_leaves_an_access_line_with_its_status() {
        let mut source = vec![
            Ok(instance(0.0)),
            graph_from_ndjson(r#"{"nodes": 6, "edges": [[0, 9, 1.0]]}"#),
        ]
        .into_iter();
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
        let mut sink = Vec::new();
        let mut access = Vec::new();
        let health = cad_obs::WatchHealth::new();
        watch_loop(
            &mut source,
            &mut online,
            &mut sink,
            Some(&mut access),
            &health,
            None,
        )
        .unwrap_err();
        let text = String::from_utf8(access).unwrap();
        let last = text.lines().last().expect("an access line for the failure");
        let v = cad_obs::parse_json(last).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_u64), Some(422), "{last}");
    }

    #[test]
    fn watch_loop_respects_max_instances() {
        let graphs = vec![instance(0.0); 10];
        let mut source = graphs.into_iter().map(Ok);
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
        let mut sink = Vec::new();
        let health = cad_obs::WatchHealth::new();
        let (instances, transitions) =
            watch_loop(&mut source, &mut online, &mut sink, None, &health, Some(4)).unwrap();
        assert_eq!(instances, 4);
        assert_eq!(transitions, 3);
    }
}
