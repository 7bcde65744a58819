//! The machine-readable run report and its stable schema.
//!
//! A [`Report`] is the single artifact a run leaves behind: per-phase
//! wall-times (from the span registry), counters, per-instance
//! oracle-build records, per-transition scoring records, and the
//! convergence record of every iterative solve. It serializes to a
//! schema-versioned JSON document (`schema_version` = [`SCHEMA_VERSION`])
//! so CI and future PRs can diff runs; [`Report::validate_json`] is the
//! authoritative schema check used by `cad validate-report` and CI.
//!
//! Schema stability contract: fields are only ever *added*;
//! removing/renaming a field or changing a type bumps
//! [`SCHEMA_VERSION`].

use crate::hist::Histogram;
use crate::json::Json;
use crate::metrics::{MetricsSnapshot, SpanStat};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Version of the JSON report schema emitted by this crate.
///
/// v1 (PR 2): phases/counters/summaries/instances/transitions/solves.
/// v2 (PR 3): adds the `histograms` section (log-bucketed latency and
/// convergence distributions with p50/p90/p99).
/// v3 (PR 7): adds the `gauges` section (point-in-time levels such as
/// queue depth) and the `labels` section (labeled counter families such
/// as `commute.rebuild_fallbacks` split by reason).
/// v4 (PR 8): adds the `memory` section (counting-allocator totals:
/// allocs/frees/bytes plus live heap level and high-water mark) and the
/// optional per-solve `residual_trace` array (bounded per-iteration
/// relative residuals, opt-in via the solver's trace cap).
///
/// Every producer writes v4 and [`Report::validate_json`] accepts only
/// v4.
pub const SCHEMA_VERSION: u64 = 4;

/// Host description captured into every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Available logical CPUs.
    pub cpus: u64,
}

impl HostInfo {
    /// Capture the current host.
    pub fn capture() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// One per-instance oracle-build record.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceReport {
    /// Instance index `t`.
    pub t: u64,
    /// Oracle backend name (`"exact"`, `"embedding"`, ...).
    pub backend: String,
    /// Wall-clock build seconds.
    pub build_secs: f64,
    /// JL projection dimension (embedding backend only).
    pub jl_dim: Option<u64>,
    /// Number of iterative solves performed during the build.
    pub n_solves: u64,
    /// Iteration counts over those solves.
    pub iterations: Summary,
    /// Final relative residuals over those solves.
    pub residuals: Summary,
}

/// One per-transition scoring record.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionReport {
    /// Transition index `t` (between instances `t` and `t+1`).
    pub t: u64,
    /// Wall-clock seconds spent scoring this transition.
    pub score_secs: f64,
    /// Number of candidate edges scored.
    pub n_scored: u64,
    /// Edges in the anomalous set `E_t`.
    pub n_edges_flagged: u64,
    /// Nodes in the anomalous set `V_t`.
    pub n_nodes_flagged: u64,
    /// Distribution of the `ΔE` scores at this transition.
    pub score: Summary,
}

/// One labeled-counter family in the report: the label key
/// plus the per-value cells, e.g. `{label: "reason", values: {"structural": 2}}`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelFamily {
    /// The label key (e.g. `"reason"`, `"engine"`).
    pub label: String,
    /// Counter value per label value, sorted by label value.
    pub values: BTreeMap<String, u64>,
}

/// Convergence record of one solve, with its pipeline context.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Where the solve happened (e.g. `"instance=3/row=7"`).
    pub context: String,
    /// Iterations performed.
    pub iterations: u64,
    /// Final relative residual.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Per-iteration relative residuals (schema v4+, opt-in): the tail
    /// of the solve's convergence curve, bounded by the solver's trace
    /// cap. Empty when tracing was off; omitted from JSON when empty.
    pub residual_trace: Vec<f64>,
}

/// The `memory` section of a schema-v4 report: counting-allocator
/// totals captured at emission time ([`crate::alloc::stats`]). All
/// zeros when the emitting binary did not install the counting
/// allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryReport {
    /// Successful heap allocations.
    pub allocs: u64,
    /// Heap deallocations.
    pub frees: u64,
    /// Total bytes ever allocated.
    pub bytes_allocated: u64,
    /// Total bytes ever freed.
    pub bytes_freed: u64,
    /// Live heap bytes at emission.
    pub heap_bytes: u64,
    /// High-water mark of the live heap.
    pub heap_peak_bytes: u64,
}

impl MemoryReport {
    /// Capture the current allocator counters.
    pub fn capture() -> Self {
        let m = crate::alloc::stats();
        MemoryReport {
            allocs: m.allocs,
            frees: m.frees,
            bytes_allocated: m.bytes_allocated,
            bytes_freed: m.bytes_freed,
            heap_bytes: m.heap_bytes,
            heap_peak_bytes: m.heap_peak_bytes,
        }
    }
}

/// A complete observability report for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version ([`SCHEMA_VERSION`] on emission).
    pub schema_version: u64,
    /// Which tool produced the report (`"cad detect"`, ...).
    pub tool: String,
    /// Host description.
    pub host: HostInfo,
    /// Span aggregates, keyed by slash-separated path.
    pub phases: BTreeMap<String, SpanStat>,
    /// Named event counters.
    pub counters: BTreeMap<String, u64>,
    /// Named value summaries.
    pub summaries: BTreeMap<String, Summary>,
    /// Named value distributions.
    pub histograms: BTreeMap<String, Histogram>,
    /// Point-in-time level metrics, captured at report-emission time.
    pub gauges: BTreeMap<String, u64>,
    /// Labeled counter families.
    pub labels: BTreeMap<String, LabelFamily>,
    /// Counting-allocator totals at emission (zeroed for binaries
    /// without the allocator).
    pub memory: MemoryReport,
    /// Per-instance oracle-build records.
    pub instances: Vec<InstanceReport>,
    /// Per-transition scoring records.
    pub transitions: Vec<TransitionReport>,
    /// Every iterative solve of the run, in pipeline order.
    pub solves: Vec<SolveReport>,
}

impl Report {
    /// An empty report for `tool` on the current host.
    pub fn new(tool: &str) -> Self {
        Report {
            schema_version: SCHEMA_VERSION,
            tool: tool.to_string(),
            host: HostInfo::capture(),
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            summaries: BTreeMap::new(),
            histograms: BTreeMap::new(),
            gauges: BTreeMap::new(),
            labels: BTreeMap::new(),
            memory: MemoryReport::default(),
            instances: Vec::new(),
            transitions: Vec::new(),
            solves: Vec::new(),
        }
    }

    /// Stamp the `memory` section from the live allocator counters.
    pub fn capture_memory(&mut self) {
        self.memory = MemoryReport::capture();
    }

    /// Fold a registry snapshot into the report: span aggregates into
    /// `phases` and counters added in; histograms and gauges set. Labeled
    /// histogram cells with samples flatten to `name{label=value}` rows
    /// (one per block for `part_block_solve_secs`).
    pub fn absorb_snapshot(&mut self, snap: &MetricsSnapshot) {
        for (k, v) in &snap.spans {
            let stat = self.phases.entry(k.clone()).or_default();
            stat.calls += v.calls;
            stat.total_secs += v.total_secs;
        }
        for &(name, v) in &snap.counters {
            *self.counters.entry(name.to_string()).or_insert(0) += v;
        }
        for (name, h) in &snap.histograms {
            self.histograms.insert(name.to_string(), h.clone());
        }
        for fam in &snap.labeled_histograms {
            for (value, h) in fam.cells.iter().filter(|(_, h)| h.count > 0) {
                self.histograms
                    .insert(format!("{}{{{}={value}}}", fam.name, fam.label), h.clone());
            }
        }
        for &(name, v) in &snap.gauges {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Serialize to the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(self.schema_version as f64)),
            ("tool", Json::Str(self.tool.clone())),
            (
                "host",
                Json::obj(vec![
                    ("os", Json::Str(self.host.os.clone())),
                    ("arch", Json::Str(self.host.arch.clone())),
                    ("cpus", Json::Num(self.host.cpus as f64)),
                ]),
            ),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(path, s)| {
                            Json::obj(vec![
                                ("path", Json::Str(path.clone())),
                                ("calls", Json::Num(s.calls as f64)),
                                ("secs", Json::Num(s.total_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "summaries",
                Json::Obj(
                    self.summaries
                        .iter()
                        .map(|(k, s)| (k.clone(), summary_json(s)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), histogram_json(h)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "labels",
                Json::Obj(
                    self.labels
                        .iter()
                        .map(|(k, fam)| {
                            (
                                k.clone(),
                                Json::obj(vec![
                                    ("label", Json::Str(fam.label.clone())),
                                    (
                                        "values",
                                        Json::Obj(
                                            fam.values
                                                .iter()
                                                .map(|(v, c)| (v.clone(), Json::Num(*c as f64)))
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "memory",
                Json::obj(vec![
                    ("allocs", Json::Num(self.memory.allocs as f64)),
                    ("frees", Json::Num(self.memory.frees as f64)),
                    (
                        "bytes_allocated",
                        Json::Num(self.memory.bytes_allocated as f64),
                    ),
                    ("bytes_freed", Json::Num(self.memory.bytes_freed as f64)),
                    ("heap_bytes", Json::Num(self.memory.heap_bytes as f64)),
                    (
                        "heap_peak_bytes",
                        Json::Num(self.memory.heap_peak_bytes as f64),
                    ),
                ]),
            ),
            (
                "instances",
                Json::Arr(
                    self.instances
                        .iter()
                        .map(|i| {
                            Json::obj(vec![
                                ("t", Json::Num(i.t as f64)),
                                ("backend", Json::Str(i.backend.clone())),
                                ("build_secs", Json::Num(i.build_secs)),
                                (
                                    "jl_dim",
                                    i.jl_dim.map_or(Json::Null, |k| Json::Num(k as f64)),
                                ),
                                ("n_solves", Json::Num(i.n_solves as f64)),
                                ("iterations", summary_json(&i.iterations)),
                                ("residuals", summary_json(&i.residuals)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "transitions",
                Json::Arr(
                    self.transitions
                        .iter()
                        .map(|tr| {
                            Json::obj(vec![
                                ("t", Json::Num(tr.t as f64)),
                                ("score_secs", Json::Num(tr.score_secs)),
                                ("n_scored", Json::Num(tr.n_scored as f64)),
                                ("n_edges_flagged", Json::Num(tr.n_edges_flagged as f64)),
                                ("n_nodes_flagged", Json::Num(tr.n_nodes_flagged as f64)),
                                ("score", summary_json(&tr.score)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "solves",
                Json::Arr(
                    self.solves
                        .iter()
                        .map(|s| {
                            let mut fields = vec![
                                ("context", Json::Str(s.context.clone())),
                                ("iterations", Json::Num(s.iterations as f64)),
                                ("residual", Json::Num(s.residual)),
                                ("converged", Json::Bool(s.converged)),
                            ];
                            if !s.residual_trace.is_empty() {
                                fields.push((
                                    "residual_trace",
                                    Json::Arr(
                                        s.residual_trace.iter().map(|&r| Json::Num(r)).collect(),
                                    ),
                                ));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialize to a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Rebuild a report from its JSON document (inverse of
    /// [`Report::to_json`] for schema-valid input).
    pub fn from_json(v: &Json) -> Result<Report, String> {
        Report::validate_json(v).map_err(|errs| errs.join("; "))?;
        let host = v.get("host").expect("validated");
        let mut phases = BTreeMap::new();
        for p in v.get("phases").and_then(Json::as_arr).expect("validated") {
            phases.insert(
                p.get("path")
                    .and_then(Json::as_str)
                    .expect("validated")
                    .to_string(),
                SpanStat {
                    calls: p.get("calls").and_then(Json::as_u64).expect("validated"),
                    total_secs: p.get("secs").and_then(Json::as_f64).expect("validated"),
                },
            );
        }
        let mut counters = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("counters") {
            for (k, n) in pairs {
                counters.insert(k.clone(), n.as_u64().ok_or("counter not a u64")?);
            }
        }
        let mut summaries = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("summaries") {
            for (k, s) in pairs {
                summaries.insert(k.clone(), summary_from_json(s)?);
            }
        }
        let mut histograms = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("histograms") {
            for (k, h) in pairs {
                histograms.insert(k.clone(), histogram_from_json(h)?);
            }
        }
        let mut gauges = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("gauges") {
            for (k, n) in pairs {
                gauges.insert(k.clone(), n.as_u64().ok_or("gauge not a u64")?);
            }
        }
        let mut labels = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = v.get("labels") {
            for (k, fam) in pairs {
                labels.insert(k.clone(), label_family_from_json(fam)?);
            }
        }
        let memory = memory_from_json(v.get("memory").expect("validated"))?;
        let instances = v
            .get("instances")
            .and_then(Json::as_arr)
            .expect("validated")
            .iter()
            .map(|i| {
                Ok(InstanceReport {
                    t: i.get("t").and_then(Json::as_u64).expect("validated"),
                    backend: i
                        .get("backend")
                        .and_then(Json::as_str)
                        .expect("validated")
                        .to_string(),
                    build_secs: i
                        .get("build_secs")
                        .and_then(Json::as_f64)
                        .expect("validated"),
                    jl_dim: i.get("jl_dim").and_then(Json::as_u64),
                    n_solves: i.get("n_solves").and_then(Json::as_u64).expect("validated"),
                    iterations: summary_from_json(i.get("iterations").expect("validated"))?,
                    residuals: summary_from_json(i.get("residuals").expect("validated"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let transitions = v
            .get("transitions")
            .and_then(Json::as_arr)
            .expect("validated")
            .iter()
            .map(|t| {
                Ok(TransitionReport {
                    t: t.get("t").and_then(Json::as_u64).expect("validated"),
                    score_secs: t
                        .get("score_secs")
                        .and_then(Json::as_f64)
                        .expect("validated"),
                    n_scored: t.get("n_scored").and_then(Json::as_u64).expect("validated"),
                    n_edges_flagged: t
                        .get("n_edges_flagged")
                        .and_then(Json::as_u64)
                        .expect("validated"),
                    n_nodes_flagged: t
                        .get("n_nodes_flagged")
                        .and_then(Json::as_u64)
                        .expect("validated"),
                    score: summary_from_json(t.get("score").expect("validated"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let solves = v
            .get("solves")
            .and_then(Json::as_arr)
            .expect("validated")
            .iter()
            .map(|s| SolveReport {
                context: s
                    .get("context")
                    .and_then(Json::as_str)
                    .expect("validated")
                    .to_string(),
                iterations: s
                    .get("iterations")
                    .and_then(Json::as_u64)
                    .expect("validated"),
                residual: s.get("residual").and_then(Json::as_f64).expect("validated"),
                converged: s
                    .get("converged")
                    .and_then(Json::as_bool)
                    .expect("validated"),
                residual_trace: s
                    .get("residual_trace")
                    .and_then(Json::as_arr)
                    .map(|arr| arr.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default(),
            })
            .collect();
        Ok(Report {
            schema_version: v
                .get("schema_version")
                .and_then(Json::as_u64)
                .expect("validated"),
            tool: v
                .get("tool")
                .and_then(Json::as_str)
                .expect("validated")
                .to_string(),
            host: HostInfo {
                os: host
                    .get("os")
                    .and_then(Json::as_str)
                    .expect("validated")
                    .to_string(),
                arch: host
                    .get("arch")
                    .and_then(Json::as_str)
                    .expect("validated")
                    .to_string(),
                cpus: host.get("cpus").and_then(Json::as_u64).expect("validated"),
            },
            phases,
            counters,
            summaries,
            histograms,
            gauges,
            labels,
            memory,
            instances,
            transitions,
            solves,
        })
    }

    /// Validate a JSON document against the report schema. Returns every
    /// violation found (empty `Ok` means schema-valid).
    pub fn validate_json(v: &Json) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let mut need = |field: &str, ok: bool, why: &str| {
            if !ok {
                errs.push(format!("{field}: {why}"));
            }
        };
        let version = v.get("schema_version").and_then(Json::as_u64);
        match version {
            None => need("schema_version", false, "missing or not an integer"),
            Some(ver) if ver != SCHEMA_VERSION => need(
                "schema_version",
                false,
                &format!("{ver} unsupported (expected {SCHEMA_VERSION})"),
            ),
            Some(_) => {}
        }
        need(
            "tool",
            v.get("tool").and_then(Json::as_str).is_some(),
            "missing string",
        );
        match v.get("host") {
            None => need("host", false, "missing"),
            Some(h) => {
                need(
                    "host.os",
                    h.get("os").and_then(Json::as_str).is_some(),
                    "missing string",
                );
                need(
                    "host.arch",
                    h.get("arch").and_then(Json::as_str).is_some(),
                    "missing string",
                );
                need(
                    "host.cpus",
                    h.get("cpus").and_then(Json::as_u64).is_some(),
                    "missing integer",
                );
            }
        }
        match v.get("phases").and_then(Json::as_arr) {
            None => need("phases", false, "missing array"),
            Some(items) => {
                for (i, p) in items.iter().enumerate() {
                    need(
                        &format!("phases[{i}].path"),
                        p.get("path").and_then(Json::as_str).is_some(),
                        "missing string",
                    );
                    need(
                        &format!("phases[{i}].calls"),
                        p.get("calls").and_then(Json::as_u64).is_some(),
                        "missing integer",
                    );
                    need(
                        &format!("phases[{i}].secs"),
                        p.get("secs").and_then(Json::as_f64).is_some(),
                        "missing number",
                    );
                }
            }
        }
        need(
            "counters",
            matches!(v.get("counters"), Some(Json::Obj(_))),
            "missing object",
        );
        need(
            "summaries",
            matches!(v.get("summaries"), Some(Json::Obj(_))),
            "missing object",
        );
        match v.get("histograms") {
            Some(Json::Obj(pairs)) => {
                for (k, h) in pairs {
                    if let Err(e) = histogram_from_json(h) {
                        need(&format!("histograms.{k}"), false, &e);
                    }
                }
            }
            Some(_) => need("histograms", false, "not an object"),
            None => need("histograms", false, "missing object"),
        }
        match v.get("gauges") {
            Some(Json::Obj(pairs)) => {
                for (k, n) in pairs {
                    need(
                        &format!("gauges.{k}"),
                        n.as_u64().is_some(),
                        "not an integer",
                    );
                }
            }
            Some(_) => need("gauges", false, "not an object"),
            None => need("gauges", false, "missing object"),
        }
        match v.get("labels") {
            Some(Json::Obj(pairs)) => {
                for (k, fam) in pairs {
                    if let Err(e) = label_family_from_json(fam) {
                        need(&format!("labels.{k}"), false, &e);
                    }
                }
            }
            Some(_) => need("labels", false, "not an object"),
            None => need("labels", false, "missing object"),
        }
        match v.get("memory") {
            Some(m) => {
                if let Err(e) = memory_from_json(m) {
                    need("memory", false, &e);
                }
            }
            None => need("memory", false, "missing object"),
        }
        match v.get("instances").and_then(Json::as_arr) {
            None => need("instances", false, "missing array"),
            Some(items) => {
                for (i, inst) in items.iter().enumerate() {
                    let at = |f: &str| format!("instances[{i}].{f}");
                    need(
                        &at("t"),
                        inst.get("t").and_then(Json::as_u64).is_some(),
                        "missing integer",
                    );
                    need(
                        &at("backend"),
                        inst.get("backend").and_then(Json::as_str).is_some(),
                        "missing string",
                    );
                    need(
                        &at("build_secs"),
                        inst.get("build_secs").and_then(Json::as_f64).is_some(),
                        "missing number",
                    );
                    need(
                        &at("n_solves"),
                        inst.get("n_solves").and_then(Json::as_u64).is_some(),
                        "missing integer",
                    );
                    for sub in ["iterations", "residuals"] {
                        need(
                            &at(sub),
                            inst.get(sub)
                                .map(|s| summary_from_json(s).is_ok())
                                .unwrap_or(false),
                            "missing summary",
                        );
                    }
                }
            }
        }
        match v.get("transitions").and_then(Json::as_arr) {
            None => need("transitions", false, "missing array"),
            Some(items) => {
                for (i, tr) in items.iter().enumerate() {
                    let at = |f: &str| format!("transitions[{i}].{f}");
                    need(
                        &at("t"),
                        tr.get("t").and_then(Json::as_u64).is_some(),
                        "missing integer",
                    );
                    need(
                        &at("score_secs"),
                        tr.get("score_secs").and_then(Json::as_f64).is_some(),
                        "missing number",
                    );
                    for f in ["n_scored", "n_edges_flagged", "n_nodes_flagged"] {
                        need(
                            &at(f),
                            tr.get(f).and_then(Json::as_u64).is_some(),
                            "missing integer",
                        );
                    }
                    need(
                        &at("score"),
                        tr.get("score")
                            .map(|s| summary_from_json(s).is_ok())
                            .unwrap_or(false),
                        "missing summary",
                    );
                }
            }
        }
        match v.get("solves").and_then(Json::as_arr) {
            None => need("solves", false, "missing array"),
            Some(items) => {
                for (i, s) in items.iter().enumerate() {
                    let at = |f: &str| format!("solves[{i}].{f}");
                    need(
                        &at("context"),
                        s.get("context").and_then(Json::as_str).is_some(),
                        "missing string",
                    );
                    need(
                        &at("iterations"),
                        s.get("iterations").and_then(Json::as_u64).is_some(),
                        "missing integer",
                    );
                    need(
                        &at("residual"),
                        s.get("residual").and_then(Json::as_f64).is_some(),
                        "missing number",
                    );
                    need(
                        &at("converged"),
                        s.get("converged").and_then(Json::as_bool).is_some(),
                        "missing bool",
                    );
                    // Optional (v4+): when present, must be an array of
                    // numbers.
                    if let Some(tr) = s.get("residual_trace") {
                        need(
                            &at("residual_trace"),
                            tr.as_arr()
                                .is_some_and(|a| a.iter().all(|r| r.as_f64().is_some())),
                            "not an array of numbers",
                        );
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Render the human-readable summary printed by `--trace`: a nested
    /// per-phase timing tree followed by instance/transition/solver
    /// digests.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("== run phases (wall-clock) ==\n");
        // Paths are slash-separated; BTreeMap order sorts parents before
        // their children, so indentation by depth renders the tree.
        for (path, stat) in &self.phases {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth + 1), name);
            out.push_str(&format!(
                "{label:<32} {:>6} call{} {:>10.3}ms\n",
                stat.calls,
                if stat.calls == 1 { " " } else { "s" },
                stat.total_secs * 1e3,
            ));
        }
        if !self.instances.is_empty() {
            out.push_str("\n== per-instance oracle builds ==\n");
            for i in &self.instances {
                out.push_str(&format!(
                    "  t={:<3} {:<13} {:>9.3}ms",
                    i.t,
                    i.backend,
                    i.build_secs * 1e3
                ));
                if i.n_solves > 0 {
                    out.push_str(&format!(
                        "  {} solves, iters mean {:.1} max {:.0}, residual max {:.2e}",
                        i.n_solves,
                        i.iterations.mean(),
                        i.iterations.max,
                        i.residuals.max,
                    ));
                }
                out.push('\n');
            }
        }
        if !self.transitions.is_empty() {
            out.push_str("\n== per-transition scoring ==\n");
            for t in &self.transitions {
                out.push_str(&format!(
                    "  t={:<3} {:>9.3}ms  {} scored, {} edges / {} nodes flagged, ΔE max {:.4}\n",
                    t.t,
                    t.score_secs * 1e3,
                    t.n_scored,
                    t.n_edges_flagged,
                    t.n_nodes_flagged,
                    if t.score.count == 0 { 0.0 } else { t.score.max },
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n== histograms ==\n");
            for (k, h) in &self.histograms {
                if h.count == 0 {
                    out.push_str(&format!("  {k:<24} (empty)\n"));
                } else {
                    out.push_str(&format!(
                        "  {k:<24} n={:<6} p50 {:.3e}  p90 {:.3e}  p99 {:.3e}  max {:.3e}\n",
                        h.count,
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.max,
                    ));
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\n== counters ==\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n== gauges (at emission) ==\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.labels.is_empty() {
            out.push_str("\n== labeled counters ==\n");
            for (k, fam) in &self.labels {
                for (val, c) in &fam.values {
                    let cell = format!("{k}{{{}={val}}}", fam.label);
                    out.push_str(&format!("  {cell:<40} {c}\n"));
                }
            }
        }
        if self.memory != MemoryReport::default() {
            out.push_str("\n== memory (counting allocator) ==\n");
            out.push_str(&format!(
                "  allocs {} / frees {} ({} live), heap {} B, peak {} B\n",
                self.memory.allocs,
                self.memory.frees,
                self.memory.allocs - self.memory.frees,
                self.memory.heap_bytes,
                self.memory.heap_peak_bytes,
            ));
        }
        out
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj(vec![
        ("count", Json::Num(s.count as f64)),
        ("sum", Json::Num(s.sum)),
        // min/max are +-inf when empty; JSON has no inf, so emit null.
        (
            "min",
            if s.count == 0 {
                Json::Null
            } else {
                Json::Num(s.min)
            },
        ),
        (
            "max",
            if s.count == 0 {
                Json::Null
            } else {
                Json::Num(s.max)
            },
        ),
        ("mean", Json::Num(s.mean())),
    ])
}

/// Histogram document: scalar stats, derived percentiles (for human
/// and dashboard consumption; recomputed on parse) and the sparse
/// non-empty bucket list as `[index, count]` pairs.
fn histogram_json(h: &Histogram) -> Json {
    let empty = h.count == 0;
    Json::obj(vec![
        ("count", Json::Num(h.count as f64)),
        ("sum", Json::Num(h.sum)),
        ("min", if empty { Json::Null } else { Json::Num(h.min) }),
        ("max", if empty { Json::Null } else { Json::Num(h.max) }),
        ("p50", Json::Num(h.p50())),
        ("p90", Json::Num(h.p90())),
        ("p99", Json::Num(h.p99())),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .map(|(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                    .collect(),
            ),
        ),
    ])
}

fn histogram_from_json(v: &Json) -> Result<Histogram, String> {
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("histogram.count missing")?;
    let sum = v
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or("histogram.sum missing")?;
    let mut h = Histogram::new();
    let buckets = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or("histogram.buckets missing")?;
    let mut total = 0u64;
    let mut prev_index: Option<u64> = None;
    for (n, pair) in buckets.iter().enumerate() {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("buckets[{n}] not an [index, count] pair"))?;
        let i = pair[0]
            .as_u64()
            .ok_or_else(|| format!("buckets[{n}] index not an integer"))?;
        let c = pair[1]
            .as_u64()
            .ok_or_else(|| format!("buckets[{n}] count not an integer"))?;
        // The sparse list is emitted in ascending index order; anything
        // else (including a duplicate index) is a malformed document,
        // not something to silently re-sort.
        if let Some(p) = prev_index {
            if i <= p {
                return Err(format!(
                    "buckets[{n}] index {i} not in ascending order (follows {p})"
                ));
            }
        }
        prev_index = Some(i);
        h.set_bucket(i as usize, c)
            .map_err(|e| format!("buckets[{n}]: {e}"))?;
        total += c;
    }
    if total != count {
        return Err(format!(
            "histogram bucket counts sum to {total}, count says {count}"
        ));
    }
    h.count = count;
    h.sum = sum;
    if count > 0 {
        h.min = v
            .get("min")
            .and_then(Json::as_f64)
            .ok_or("histogram.min missing")?;
        h.max = v
            .get("max")
            .and_then(Json::as_f64)
            .ok_or("histogram.max missing")?;
    }
    Ok(h)
}

fn memory_from_json(v: &Json) -> Result<MemoryReport, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("memory section not an object".into());
    }
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("memory.{name} missing or not an integer"))
    };
    Ok(MemoryReport {
        allocs: field("allocs")?,
        frees: field("frees")?,
        bytes_allocated: field("bytes_allocated")?,
        bytes_freed: field("bytes_freed")?,
        heap_bytes: field("heap_bytes")?,
        heap_peak_bytes: field("heap_peak_bytes")?,
    })
}

fn label_family_from_json(v: &Json) -> Result<LabelFamily, String> {
    let label = v
        .get("label")
        .and_then(Json::as_str)
        .ok_or("label family missing `label` string")?
        .to_string();
    let mut values = BTreeMap::new();
    match v.get("values") {
        Some(Json::Obj(pairs)) => {
            for (k, n) in pairs {
                values.insert(
                    k.clone(),
                    n.as_u64()
                        .ok_or_else(|| format!("label value `{k}` not a u64"))?,
                );
            }
        }
        _ => return Err("label family missing `values` object".into()),
    }
    Ok(LabelFamily { label, values })
}

fn summary_from_json(v: &Json) -> Result<Summary, String> {
    let count = v
        .get("count")
        .and_then(Json::as_u64)
        .ok_or("summary.count missing")?;
    let sum = v
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or("summary.sum missing")?;
    if count == 0 {
        return Ok(Summary::new());
    }
    Ok(Summary {
        count,
        sum,
        min: v
            .get("min")
            .and_then(Json::as_f64)
            .ok_or("summary.min missing")?,
        max: v
            .get("max")
            .and_then(Json::as_f64)
            .ok_or("summary.max missing")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("cad detect");
        r.phases.insert(
            "detect".into(),
            SpanStat {
                calls: 1,
                total_secs: 0.5,
            },
        );
        r.phases.insert(
            "detect/oracle_build".into(),
            SpanStat {
                calls: 2,
                total_secs: 0.4,
            },
        );
        r.counters.insert("linalg.spmv".into(), 123);
        r.summaries.insert("score".into(), Summary::of([0.5, 2.0]));
        r.histograms.insert(
            "cg_iterations".into(),
            Histogram::of([10.0, 12.0, 12.0, 40.0]),
        );
        r.histograms.insert("empty_series".into(), Histogram::new());
        r.gauges.insert("serve.queue_depth".into(), 2);
        r.gauges.insert("serve.sessions_active".into(), 1);
        r.labels.insert(
            "commute.rebuild_fallbacks".into(),
            LabelFamily {
                label: "reason".into(),
                values: [("structural".to_string(), 2), ("degenerate".to_string(), 1)]
                    .into_iter()
                    .collect(),
            },
        );
        r.instances.push(InstanceReport {
            t: 0,
            backend: "embedding".into(),
            build_secs: 0.2,
            jl_dim: Some(16),
            n_solves: 2,
            iterations: Summary::of([10.0, 12.0]),
            residuals: Summary::of([1e-9, 2e-9]),
        });
        r.transitions.push(TransitionReport {
            t: 0,
            score_secs: 0.01,
            n_scored: 5,
            n_edges_flagged: 2,
            n_nodes_flagged: 3,
            score: Summary::of([0.5, 2.0]),
        });
        r.memory = MemoryReport {
            allocs: 100,
            frees: 90,
            bytes_allocated: 65536,
            bytes_freed: 32768,
            heap_bytes: 32768,
            heap_peak_bytes: 40960,
        };
        r.solves.push(SolveReport {
            context: "instance=0/row=0".into(),
            iterations: 10,
            residual: 1e-9,
            converged: true,
            residual_trace: vec![0.4375, 0.1, 1e-5, 1e-9],
        });
        r.solves.push(SolveReport {
            context: "instance=0/row=1".into(),
            iterations: 9,
            residual: 2e-9,
            converged: true,
            residual_trace: Vec::new(),
        });
        r
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let r = sample();
        let text = r.to_json_string();
        let back = Report::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn emitted_report_validates() {
        let r = sample();
        let v = crate::json::parse(&r.to_json_string()).unwrap();
        assert!(Report::validate_json(&v).is_ok());
    }

    #[test]
    fn validation_reports_missing_fields() {
        let v = crate::json::parse(r#"{"schema_version": 1}"#).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(errs.iter().any(|e| e.starts_with("tool")), "{errs:?}");
        assert!(errs.iter().any(|e| e.starts_with("host")), "{errs:?}");
        assert!(errs.iter().any(|e| e.starts_with("solves")), "{errs:?}");
    }

    #[test]
    fn validation_rejects_wrong_schema_version() {
        let mut r = sample();
        r.schema_version = 99;
        let v = crate::json::parse(&r.to_json_string()).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(errs[0].contains("unsupported"), "{errs:?}");

        // A complete v3 document is no longer accepted either: v4 is
        // the one schema.
        let mut r = sample();
        r.schema_version = 3;
        let text = r
            .to_json_string()
            .replacen("\"memory\": {", "\"memory_gone\": {", 1);
        let v3 = crate::json::parse(&text).unwrap();
        let errs = Report::validate_json(&v3).unwrap_err();
        assert!(errs[0].contains("3 unsupported"), "{errs:?}");
        assert!(Report::from_json(&v3).is_err());
    }

    #[test]
    fn memory_and_residual_traces_round_trip_and_reject_corruption() {
        let r = sample();
        let text = r.to_json_string();
        let back = Report::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.memory.heap_peak_bytes, 40960);
        assert_eq!(back.solves[0].residual_trace.len(), 4);
        assert!(
            back.solves[1].residual_trace.is_empty(),
            "untraced solves omit the array and parse back empty"
        );
        assert!(
            !text.contains("\"residual_trace\": []"),
            "empty traces must be omitted, not emitted"
        );

        // A non-integer memory field is a schema error.
        let bad = text.replacen(
            "\"heap_peak_bytes\": 40960",
            "\"heap_peak_bytes\": \"lots\"",
            1,
        );
        let v = crate::json::parse(&bad).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("heap_peak_bytes")),
            "{errs:?}"
        );

        // A residual trace holding a non-number is rejected. (0.4375
        // is unique to the trace in the sample document — emitted as
        // 17-digit scientific notation — so the replacement cannot
        // land in a summary instead.)
        let bad2 = text.replacen("4.37500000000000000e-1", "\"fast\"", 1);
        assert_ne!(bad2, text, "trace head must be present to corrupt");
        let v2 = crate::json::parse(&bad2).unwrap();
        let errs = Report::validate_json(&v2).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("residual_trace")),
            "{errs:?}"
        );
    }

    #[test]
    fn gauges_and_labels_round_trip_and_reject_corruption() {
        let r = sample();
        let text = r.to_json_string();
        let back = Report::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.gauges["serve.queue_depth"], 2);
        assert_eq!(
            back.labels["commute.rebuild_fallbacks"].values["structural"],
            2
        );

        // A non-integer gauge is a schema error attributed to its key.
        let bad = text.replacen(
            "\"serve.queue_depth\": 2",
            "\"serve.queue_depth\": \"two\"",
            1,
        );
        let v = crate::json::parse(&bad).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("gauges.serve.queue_depth")),
            "{errs:?}"
        );

        // A label family without its `values` object is rejected.
        let bad2 = text.replacen("\"values\": {", "\"values_gone\": {", 1);
        let v2 = crate::json::parse(&bad2).unwrap();
        let errs = Report::validate_json(&v2).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("labels.commute.rebuild_fallbacks")),
            "{errs:?}"
        );
        assert!(Report::from_json(&v2).is_err());
    }

    #[test]
    fn histogram_round_trips_and_rejects_corruption() {
        let r = sample();
        let back = Report::from_json(&crate::json::parse(&r.to_json_string()).unwrap()).unwrap();
        assert_eq!(back.histograms, r.histograms);
        let h = &back.histograms["cg_iterations"];
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 40.0);

        // Bucket counts disagreeing with `count` is a schema error.
        let text = r
            .to_json_string()
            .replacen("\"count\": 4,", "\"count\": 5,", 1);
        let v = crate::json::parse(&text).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("sum to")), "{errs:?}");
    }

    #[test]
    fn histogram_bucket_order_is_enforced() {
        // Ascending sparse indices are exactly what the emitter writes:
        // accepted.
        let mk = |buckets: &str| {
            let mut r = Report::new("t");
            r.histograms
                .insert("h".into(), Histogram::of([10.0, 12.0, 12.0]));
            let text = r.to_json_string();
            let start = text.find("\"buckets\": [").unwrap();
            // The sparse list is a nested (and pretty-printed) array:
            // scan for its matching close bracket rather than the
            // first `]`, which only closes an [index, count] pair.
            let open = start + "\"buckets\": ".len();
            let mut depth = 0usize;
            let mut end = open;
            for (i, b) in text.as_bytes()[open..].iter().enumerate() {
                match b {
                    b'[' => depth += 1,
                    b']' => {
                        depth -= 1;
                        if depth == 0 {
                            end = open + i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            assert!(end > open, "unterminated buckets array");
            format!("{}\"buckets\": {}{}", &text[..start], buckets, &text[end..])
        };
        // Histogram::of([10,12,12]) lands in two distinct buckets; find
        // their real indices so the synthetic lists stay count-consistent.
        let h = Histogram::of([10.0, 12.0, 12.0]);
        let idx: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        assert_eq!(idx.len(), 2);
        let (lo, hi) = (idx[0], idx[1]);

        let ascending = mk(&format!("[[{}, {}], [{}, {}]]", lo.0, lo.1, hi.0, hi.1));
        let v = crate::json::parse(&ascending).unwrap();
        assert_eq!(Report::validate_json(&v), Ok(()));
        assert!(Report::from_json(&v).is_ok());

        // The same pairs swapped out of ascending index order: rejected
        // by both the validator and the parser.
        let descending = mk(&format!("[[{}, {}], [{}, {}]]", hi.0, hi.1, lo.0, lo.1));
        let v = crate::json::parse(&descending).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
        assert!(Report::from_json(&v).is_err());

        // A duplicated index is equally malformed.
        let duplicate = mk(&format!(
            "[[{}, {}], [{}, 1], [{}, {}]]",
            lo.0,
            lo.1 - 1,
            lo.0,
            hi.0,
            hi.1
        ));
        let v = crate::json::parse(&duplicate).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
    }

    #[test]
    fn incremental_update_metrics_validate_and_reject_corruption() {
        // A report carrying the incremental-update telemetry — the
        // counters `commute.incremental_updates` /
        // `commute.rebuild_fallbacks` and the `oracle_update_secs`
        // histogram — passes validation and round-trips.
        let mut r = Report::new("t");
        r.counters.insert("commute.incremental_updates".into(), 7);
        r.counters.insert("commute.rebuild_fallbacks".into(), 2);
        r.histograms.insert(
            "oracle_update_secs".into(),
            Histogram::of([0.002, 0.004, 0.004]),
        );
        let text = r.to_json_string();
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(Report::validate_json(&v), Ok(()));
        let back = Report::from_json(&v).unwrap();
        assert_eq!(back.counters["commute.incremental_updates"], 7);
        assert_eq!(back.counters["commute.rebuild_fallbacks"], 2);
        assert_eq!(back.histograms["oracle_update_secs"].count, 3);

        // A corrupted oracle_update_secs histogram (count disagreeing
        // with its buckets) is rejected, attributed to the right key.
        let bad = text.replacen("\"count\": 3,", "\"count\": 4,", 1);
        let v = crate::json::parse(&bad).unwrap();
        let errs = Report::validate_json(&v).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("oracle_update_secs") && e.contains("sum to")),
            "{errs:?}"
        );

        // A non-integer fallback counter is rejected by the parser.
        let bad2 = text.replacen(
            "\"commute.rebuild_fallbacks\": 2",
            "\"commute.rebuild_fallbacks\": \"two\"",
            1,
        );
        let v2 = crate::json::parse(&bad2).unwrap();
        assert!(Report::from_json(&v2).is_err());
    }

    #[test]
    fn empty_summary_round_trips_via_null_min_max() {
        let mut r = Report::new("t");
        r.summaries.insert("empty".into(), Summary::new());
        let back = Report::from_json(&crate::json::parse(&r.to_json_string()).unwrap()).unwrap();
        assert_eq!(back.summaries["empty"], Summary::new());
    }

    #[test]
    fn absorb_snapshot_merges() {
        use crate::{Counter, Gauge, Hist, LabeledHist};
        let reg = crate::Registry::new();
        reg.count(Counter::Spmv, 2);
        reg.gauge_add(Gauge::ServeSessionsActive, 3);
        reg.observe(Hist::CgIterations, 4.0);
        reg.observe_labeled(LabeledHist::PartBlockSolveSecs, "1", 0.5);
        reg.record_span("a/b", 0.25);
        let mut r = Report::new("t");
        r.absorb_snapshot(&reg.snapshot());
        r.absorb_snapshot(&reg.snapshot());
        assert_eq!(r.counters["linalg.spmv"], 4);
        assert_eq!(r.counters.len(), Counter::ALL.len());
        assert_eq!(r.phases["a/b"].calls, 2);
        assert_eq!(r.gauges["serve.sessions_active"], 3);
        assert_eq!(r.histograms["cg_iterations"].count, 1);
        assert_eq!(r.histograms["part_block_solve_secs{block=1}"].count, 1);
        // Empty labeled cells add no rows.
        assert!(!r.histograms.contains_key("part_block_solve_secs{block=0}"));
        assert!(r.labels.is_empty());
    }

    #[test]
    fn trace_render_shows_tree_and_sections() {
        let text = sample().render_trace();
        assert!(text.contains("run phases"));
        // Child is indented deeper than its parent.
        let parent = text
            .lines()
            .find(|l| l.trim_start().starts_with("detect "))
            .unwrap();
        let child = text
            .lines()
            .find(|l| l.trim_start().starts_with("oracle_build"))
            .unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(child) > indent(parent), "{text}");
        assert!(text.contains("per-instance oracle builds"));
        assert!(text.contains("per-transition scoring"));
        assert!(text.contains("linalg.spmv"));
    }
}
