//! `cad bench-diff` — the benchmark regression gate.
//!
//! Compares two schema-versioned bench reports (as written by
//! `bench_report` or `cad detect --metrics-json`) metric by metric:
//!
//! * **name/schema mismatches are hard errors** (exit 1): a counter,
//!   summary, histogram, or phase present in one report but not the
//!   other means the two runs measured different things and no ratio is
//!   meaningful;
//! * **wall-time metrics gate the exit code**: phase totals and
//!   per-backend oracle-build sums are compared as `new / old` ratios,
//!   and any ratio past `--threshold` (default 1.3×) makes the command
//!   exit 4 ([`CliError::BenchRegression`]) so CI can soft-fail on
//!   noisy 1-core runners while hard-failing on real errors;
//! * **counts are informational**: event counters are printed in the
//!   ratio table (a drifting count is a determinism smell worth eyes)
//!   but never gate, since workload-size changes are legitimate;
//! * **gauges and labels are first-class**: gauge names and labeled-counter
//!   cells (family label keys and per-value cells) must match exactly —
//!   a missing `mem.heap_peak_bytes` gauge or a vanished
//!   `engine=exact` cell is a schema drift, not a perf delta — while
//!   labeled-histogram cells (flattened as `name{label=value}` rows)
//!   gate on their wall-time sums like any other latency metric;
//! * **`memory` is informational**: allocator totals are printed as
//!   ratio rows but never gate, since a binary without the counting
//!   allocator reports all zeros and allocation counts legitimately
//!   track workload size.
//!
//! `--update` skips the comparison and blesses `<new>` as the baseline
//! by copying it over `<old>`.

use crate::commands::CliError;
use std::io::Write;

/// Wall-times below this floor (seconds) never gate: at micro scale the
/// scheduler noise on a shared runner dwarfs any real regression.
const NOISE_FLOOR_SECS: f64 = 1e-3;

fn load_report(path: &str) -> Result<cad_obs::Report, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot open `{path}`: {e}")))?;
    let value = cad_obs::parse_json(&text)
        .map_err(|e| CliError::Usage(format!("`{path}` is not valid JSON: {e}")))?;
    cad_obs::Report::validate_json(&value).map_err(|errs| {
        CliError::Usage(format!(
            "`{path}` failed schema validation:\n  {}",
            errs.join("\n  ")
        ))
    })?;
    cad_obs::Report::from_json(&value).map_err(|e| CliError::Usage(format!("`{path}`: {e}")))
}

/// Whether a metric name belongs to the block-partition telemetry
/// namespace (`part.blocks`, `part_block_solve_secs{block=0}`, ...).
fn is_part_metric(name: &str) -> bool {
    name.starts_with("part.") || name.starts_with("part_")
}

/// Require identical key sets in one metric namespace. With
/// `allow_part_additions`, names in the `part.*` telemetry namespace
/// that appear only in the new report are tolerated — a baseline
/// predating the partitioned oracle gains them on the first partitioned
/// run, which is an addition, not a drift.
fn check_names<'a>(
    kind: &str,
    old: impl Iterator<Item = &'a String>,
    new: impl Iterator<Item = &'a String>,
    allow_part_additions: bool,
) -> Result<(), CliError> {
    let old: std::collections::BTreeSet<&String> = old.collect();
    let new: std::collections::BTreeSet<&String> = new.collect();
    let missing: Vec<&str> = old.difference(&new).map(|s| s.as_str()).collect();
    let extra: Vec<&str> = new
        .difference(&old)
        .map(|s| s.as_str())
        .filter(|s| !(allow_part_additions && is_part_metric(s)))
        .collect();
    if missing.is_empty() && extra.is_empty() {
        return Ok(());
    }
    let mut msg = format!("{kind} name sets differ:");
    if !missing.is_empty() {
        msg.push_str(&format!(" missing in new: [{}]", missing.join(", ")));
    }
    if !extra.is_empty() {
        msg.push_str(&format!(" extra in new: [{}]", extra.join(", ")));
    }
    Err(CliError::Usage(msg))
}

/// One row of the comparison table.
struct Row {
    name: String,
    old: f64,
    new: f64,
    /// Wall-time rows gate the exit code; count rows are informational.
    gated: bool,
}

impl Row {
    fn ratio(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.new / self.old
        }
    }

    /// A gated row regresses when `new` exceeds the threshold multiple
    /// of `old`, with both ends clamped to the noise floor.
    fn regressed(&self, threshold: f64) -> bool {
        self.gated
            && self.new > NOISE_FLOOR_SECS
            && self.new > threshold * self.old.max(NOISE_FLOOR_SECS)
    }
}

/// Per-backend oracle-build wall-time sums over the instance records.
fn build_sums(report: &cad_obs::Report) -> std::collections::BTreeMap<String, f64> {
    let mut sums = std::collections::BTreeMap::new();
    for inst in &report.instances {
        *sums.entry(inst.backend.clone()).or_insert(0.0) += inst.build_secs;
    }
    sums
}

/// Run the comparison. See the module docs for the contract.
pub fn run_bench_diff(
    old_path: &str,
    new_path: &str,
    threshold: f64,
    update: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if update {
        // Bless: the candidate becomes the committed baseline. `part.*`
        // counter/histogram additions are what blessing a first
        // partitioned run looks like, so they pass; any *other*
        // counter/histogram name drift against a readable baseline is
        // still refused — blessing should not silently paper over a
        // renamed metric. A missing or unreadable baseline blesses
        // unconditionally (first-time baseline).
        let new = load_report(new_path)?; // still refuse to bless garbage
        if let Ok(old) = load_report(old_path) {
            check_names("counter", old.counters.keys(), new.counters.keys(), true)?;
            check_names(
                "histogram",
                old.histograms.keys(),
                new.histograms.keys(),
                true,
            )?;
        }
        std::fs::copy(new_path, old_path)?;
        writeln!(out, "blessed {new_path} as the new baseline {old_path}")?;
        return Ok(());
    }
    let old = load_report(old_path)?;
    let new = load_report(new_path)?;

    check_names("counter", old.counters.keys(), new.counters.keys(), false)?;
    check_names("summary", old.summaries.keys(), new.summaries.keys(), false)?;
    check_names(
        "histogram",
        old.histograms.keys(),
        new.histograms.keys(),
        false,
    )?;
    check_names("phase", old.phases.keys(), new.phases.keys(), false)?;
    check_names("gauge", old.gauges.keys(), new.gauges.keys(), false)?;
    check_names("label family", old.labels.keys(), new.labels.keys(), false)?;
    for (family, old_cells) in &old.labels {
        // Same family on both sides (checked above); now the cells.
        check_names(
            &format!("label cell ({family})"),
            old_cells.values.keys(),
            new.labels[family].values.keys(),
            false,
        )?;
    }
    let old_builds = build_sums(&old);
    let new_builds = build_sums(&new);
    check_names("backend", old_builds.keys(), new_builds.keys(), false)?;

    let mut rows: Vec<Row> = Vec::new();
    for (path, stat) in &old.phases {
        rows.push(Row {
            name: format!("phase/{path}"),
            old: stat.total_secs,
            new: new.phases[path].total_secs,
            gated: true,
        });
    }
    for (backend, secs) in &old_builds {
        rows.push(Row {
            name: format!("build/{backend}"),
            old: *secs,
            new: new_builds[backend],
            gated: true,
        });
    }
    // Labeled-histogram cells arrive flattened as `name{label=value}`
    // histogram keys; their per-cell wall-time sums gate so a latency
    // regression confined to one engine cannot hide inside an
    // unchanged aggregate.
    for (name, h) in &old.histograms {
        if name.contains('{') {
            rows.push(Row {
                name: format!("cell/{name}"),
                old: h.sum,
                new: new.histograms[name].sum,
                gated: true,
            });
        }
    }
    for (name, value) in &old.counters {
        rows.push(Row {
            name: format!("counter/{name}"),
            old: *value as f64,
            new: new.counters[name] as f64,
            gated: false,
        });
    }
    for (name, value) in &old.gauges {
        rows.push(Row {
            name: format!("gauge/{name}"),
            old: *value as f64,
            new: new.gauges[name] as f64,
            gated: false,
        });
    }
    // Allocator totals: informational — a binary without the counting
    // allocator reports zeros, and allocation counts scale with workload
    // size.
    if old.memory != cad_obs::MemoryReport::default()
        || new.memory != cad_obs::MemoryReport::default()
    {
        for (name, o, n) in [
            ("allocs", old.memory.allocs, new.memory.allocs),
            (
                "bytes_allocated",
                old.memory.bytes_allocated,
                new.memory.bytes_allocated,
            ),
            ("heap_bytes", old.memory.heap_bytes, new.memory.heap_bytes),
            (
                "heap_peak_bytes",
                old.memory.heap_peak_bytes,
                new.memory.heap_peak_bytes,
            ),
        ] {
            rows.push(Row {
                name: format!("memory/{name}"),
                old: o as f64,
                new: n as f64,
                gated: false,
            });
        }
    }

    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(6).max(6);
    writeln!(
        out,
        "noise floor: wall-times at or below {NOISE_FLOOR_SECS:.0e}s never gate"
    )?;
    writeln!(
        out,
        "{:width$}  {:>12}  {:>12}  {:>7}  gate",
        "metric", "old", "new", "ratio"
    )?;
    let mut regressions = Vec::new();
    for row in &rows {
        let status = if row.regressed(threshold) {
            regressions.push(row.name.clone());
            "REGRESSED"
        } else if !row.gated {
            "info"
        } else if row.old.max(row.new) <= NOISE_FLOOR_SECS {
            "noise"
        } else {
            "ok"
        };
        writeln!(
            out,
            "{:width$}  {:>12.6}  {:>12.6}  {:>6.3}x  {status}",
            row.name,
            row.old,
            row.new,
            row.ratio()
        )?;
    }
    if regressions.is_empty() {
        writeln!(
            out,
            "no wall-time metric regressed past {threshold:.2}x ({} compared)",
            rows.len()
        )?;
        Ok(())
    } else {
        Err(CliError::BenchRegression(format!(
            "{} wall-time metric(s) regressed past {threshold:.2}x: {}\n\
             (re-bless with `cad bench-diff {old_path} {new_path} --update` if intended)",
            regressions.len(),
            regressions.join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(phase_secs: f64, build_secs: f64, counter: u64) -> String {
        let mut r = cad_obs::Report::new("bench_test");
        r.phases.insert(
            "detect".into(),
            cad_obs::SpanStat {
                calls: 1,
                total_secs: phase_secs,
            },
        );
        r.counters.insert("linalg.spmv".into(), counter);
        r.instances.push(cad_obs::InstanceReport {
            t: 0,
            backend: "exact".into(),
            build_secs,
            jl_dim: None,
            n_solves: 0,
            iterations: cad_obs::Summary::default(),
            residuals: cad_obs::Summary::default(),
        });
        r.to_json_string()
    }

    fn tmp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("cad-bench-diff-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name).to_string_lossy().into_owned();
        std::fs::write(&path, content).unwrap();
        path
    }

    fn diff(old: &str, new: &str, threshold: f64) -> (Result<(), CliError>, String) {
        let mut out = Vec::new();
        let r = run_bench_diff(old, new, threshold, false, &mut out);
        (r, String::from_utf8(out).unwrap())
    }

    #[test]
    fn identical_reports_pass() {
        let text = report_with(0.1, 0.05, 100);
        let old = tmp("id-old.json", &text);
        let new = tmp("id-new.json", &text);
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "{table}");
        assert!(table.contains("no wall-time metric regressed"), "{table}");
        assert!(table.contains("phase/detect"), "{table}");
        assert!(table.contains("build/exact"), "{table}");
    }

    #[test]
    fn regression_past_threshold_fails() {
        let old = tmp("reg-old.json", &report_with(0.1, 0.05, 100));
        let new = tmp("reg-new.json", &report_with(0.25, 0.05, 100));
        let (r, table) = diff(&old, &new, 1.3);
        match r {
            Err(CliError::BenchRegression(msg)) => {
                assert!(msg.contains("phase/detect"), "{msg}")
            }
            other => panic!("expected regression, got {other:?}\n{table}"),
        }
        assert!(table.contains("REGRESSED"), "{table}");
    }

    #[test]
    fn counter_drift_is_informational() {
        let old = tmp("cnt-old.json", &report_with(0.1, 0.05, 100));
        let new = tmp("cnt-new.json", &report_with(0.1, 0.05, 100_000));
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "counters must not gate: {table}");
        assert!(table.contains("info"), "{table}");
    }

    #[test]
    fn sub_noise_times_never_gate() {
        let old = tmp("ns-old.json", &report_with(0.00001, 0.00002, 7));
        let new = tmp("ns-new.json", &report_with(0.00009, 0.00001, 7));
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "sub-millisecond noise must pass: {table}");
        assert!(table.contains("noise"), "{table}");
    }

    #[test]
    fn header_prints_the_noise_floor() {
        let text = report_with(0.1, 0.05, 100);
        let old = tmp("nf-old.json", &text);
        let new = tmp("nf-new.json", &text);
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "{table}");
        assert!(
            table.contains("noise floor") && table.contains("1e-3"),
            "header must state the floor value: {table}"
        );
    }

    #[test]
    fn exact_noise_floor_boundary_never_gates() {
        // `regressed` uses a strict `>` against the floor: a new time of
        // exactly 1ms is still noise, even against a near-zero baseline.
        let at_floor = Row {
            name: "phase/x".into(),
            old: 1e-9,
            new: NOISE_FLOOR_SECS,
            gated: true,
        };
        assert!(!at_floor.regressed(1.3), "exactly 1ms must not gate");
        // One ULP above the floor is past it; with old clamped up to the
        // floor the threshold comparison takes over (still not enough
        // to regress at 1.3x)...
        let just_above = Row {
            name: "phase/x".into(),
            old: 1e-9,
            new: NOISE_FLOOR_SECS * (1.0 + f64::EPSILON),
            gated: true,
        };
        assert!(!just_above.regressed(1.3), "needs threshold x floor");
        // ...while clearing threshold * floor does regress.
        let past = Row {
            name: "phase/x".into(),
            old: 1e-9,
            new: 1.3f64 * NOISE_FLOOR_SECS + 1e-12,
            gated: true,
        };
        assert!(past.regressed(1.3));
        // And an old time exactly at the floor is clamped, not zeroed:
        // new must exceed threshold * floor, not threshold * 0.
        let old_at_floor = Row {
            name: "phase/x".into(),
            old: NOISE_FLOOR_SECS,
            new: 1.2e-3,
            gated: true,
        };
        assert!(!old_at_floor.regressed(1.3));
    }

    #[test]
    fn name_mismatch_is_a_hard_error() {
        let old = tmp("nm-old.json", &report_with(0.1, 0.05, 100));
        let mut r = cad_obs::Report::new("bench_test");
        r.phases.insert(
            "renamed_phase".into(),
            cad_obs::SpanStat {
                calls: 1,
                total_secs: 0.1,
            },
        );
        r.counters.insert("linalg.spmv".into(), 100);
        let new = tmp("nm-new.json", &r.to_json_string());
        let (result, _) = diff(&old, &new, 1.3);
        match result {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("name sets differ"), "{msg}")
            }
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn gauge_name_mismatch_is_a_hard_error_but_drift_is_informational() {
        let with_gauges = |heap: u64, extra: bool| {
            let mut r = cad_obs::Report::new("bench_test");
            r.gauges.insert("mem.heap_peak_bytes".into(), heap);
            if extra {
                r.gauges.insert("sessions.active".into(), 3);
            }
            r.to_json_string()
        };
        // A gauge present in only one report: schema drift, exit 1.
        let old = tmp("gg-old.json", &with_gauges(1000, false));
        let new = tmp("gg-new.json", &with_gauges(1000, true));
        let (result, _) = diff(&old, &new, 1.3);
        match result {
            Err(CliError::Usage(msg)) => {
                assert!(
                    msg.contains("gauge name sets differ") && msg.contains("sessions.active"),
                    "{msg}"
                )
            }
            other => panic!("expected usage error, got {other:?}"),
        }
        // Same names, 100x the value: informational only.
        let old = tmp("gd-old.json", &with_gauges(1000, true));
        let new = tmp("gd-new.json", &with_gauges(100_000, true));
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "gauges must not gate: {table}");
        assert!(table.contains("gauge/mem.heap_peak_bytes"), "{table}");
    }

    #[test]
    fn labeled_histogram_cells_gate_and_label_cells_must_match() {
        let with_cell = |secs: f64, value: &str| {
            let mut r = cad_obs::Report::new("bench_test");
            r.histograms.insert(
                format!("serve_push_secs{{engine={value}}}"),
                cad_obs::Histogram::of([secs]),
            );
            let mut fam = cad_obs::LabelFamily {
                label: "reason".into(),
                values: std::collections::BTreeMap::new(),
            };
            fam.values.insert(value.to_string(), 2);
            r.labels.insert("fallbacks".into(), fam);
            r.to_json_string()
        };
        // A 10x regression confined to one engine cell gates.
        let old = tmp("lc-old.json", &with_cell(0.01, "exact"));
        let new = tmp("lc-new.json", &with_cell(0.1, "exact"));
        let (result, table) = diff(&old, &new, 1.3);
        match result {
            Err(CliError::BenchRegression(msg)) => {
                assert!(msg.contains("cell/serve_push_secs{engine=exact}"), "{msg}")
            }
            other => panic!("expected regression, got {other:?}\n{table}"),
        }
        // A renamed labeled-counter cell is a hard error.
        let old = tmp("lv-old.json", &with_cell(0.01, "exact"));
        let new = tmp("lv-new.json", &with_cell(0.01, "cg"));
        let (result, _) = diff(&old, &new, 1.3);
        assert!(
            matches!(result, Err(CliError::Usage(_))),
            "cell rename must be a hard error, got {result:?}"
        );
    }

    #[test]
    fn memory_section_is_informational_even_against_a_v3_baseline() {
        // Old report: a zeroed memory section (no counting allocator).
        let old = tmp("mm-old.json", &report_with(0.1, 0.05, 100));
        let mut r = cad_obs::Report::new("bench_test");
        r.phases.insert(
            "detect".into(),
            cad_obs::SpanStat {
                calls: 1,
                total_secs: 0.1,
            },
        );
        r.counters.insert("linalg.spmv".into(), 100);
        r.instances.push(cad_obs::InstanceReport {
            t: 0,
            backend: "exact".into(),
            build_secs: 0.05,
            jl_dim: None,
            n_solves: 0,
            iterations: cad_obs::Summary::default(),
            residuals: cad_obs::Summary::default(),
        });
        r.memory = cad_obs::MemoryReport {
            allocs: 10_000,
            frees: 9_000,
            bytes_allocated: 1 << 20,
            bytes_freed: 1 << 19,
            heap_bytes: 1 << 19,
            heap_peak_bytes: 1 << 20,
        };
        let new = tmp("mm-new.json", &r.to_json_string());
        let (result, table) = diff(&old, &new, 1.3);
        assert!(result.is_ok(), "memory must not gate: {table}");
        assert!(table.contains("memory/heap_peak_bytes"), "{table}");
    }

    #[test]
    fn part_additions_bless_with_update_but_hard_fail_without() {
        // The new report measured the same run plus the partitioned
        // oracle's telemetry: part.* counter and histogram additions.
        let with_part = |part: bool| {
            let mut r = cad_obs::Report::new("bench_test");
            r.phases.insert(
                "detect".into(),
                cad_obs::SpanStat {
                    calls: 1,
                    total_secs: 0.1,
                },
            );
            r.counters.insert("linalg.spmv".into(), 100);
            if part {
                r.counters.insert("part.blocks".into(), 4);
                r.counters.insert("part.block_solves".into(), 4);
                r.histograms.insert(
                    "part_block_solve_secs{block=0}".into(),
                    cad_obs::Histogram::of([0.01]),
                );
            }
            r.to_json_string()
        };
        // Without --update: a part.* addition is still a name-set
        // mismatch, exit 1.
        let old = tmp("pt-old.json", &with_part(false));
        let new = tmp("pt-new.json", &with_part(true));
        let (result, _) = diff(&old, &new, 1.3);
        match result {
            Err(CliError::Usage(msg)) => {
                assert!(
                    msg.contains("name sets differ") && msg.contains("part."),
                    "{msg}"
                )
            }
            other => panic!("expected usage error, got {other:?}"),
        }
        // With --update: part.* additions are blessed in.
        let mut out = Vec::new();
        run_bench_diff(&old, &new, 1.3, true, &mut out).unwrap();
        assert_eq!(std::fs::read_to_string(&old).unwrap(), with_part(true));
        // After blessing, the strict diff is clean again.
        let (r, table) = diff(&old, &new, 1.3);
        assert!(r.is_ok(), "{table}");
    }

    #[test]
    fn update_still_refuses_non_part_name_drift() {
        let with_counter = |name: &str| {
            let mut r = cad_obs::Report::new("bench_test");
            r.counters.insert("linalg.spmv".into(), 100);
            r.counters.insert(name.into(), 1);
            r.to_json_string()
        };
        let old_text = with_counter("detect.anomalous_nodes");
        let old = tmp("np-old.json", &old_text);
        let new = tmp("np-new.json", &with_counter("detect.renamed_nodes"));
        let mut out = Vec::new();
        let result = run_bench_diff(&old, &new, 1.3, true, &mut out);
        match result {
            Err(CliError::Usage(msg)) => {
                assert!(msg.contains("name sets differ"), "{msg}")
            }
            other => panic!("expected usage error, got {other:?}"),
        }
        // The refused bless must leave the baseline untouched.
        assert_eq!(std::fs::read_to_string(&old).unwrap(), old_text);
        // A missing baseline blesses unconditionally (first baseline).
        let fresh = std::env::temp_dir()
            .join("cad-bench-diff-tests")
            .join("np-fresh-baseline.json");
        let _ = std::fs::remove_file(&fresh);
        let fresh = fresh.to_string_lossy().into_owned();
        let mut out = Vec::new();
        run_bench_diff(&fresh, &new, 1.3, true, &mut out).unwrap();
        assert!(std::fs::metadata(&fresh).is_ok(), "baseline was created");
    }

    #[test]
    fn update_blesses_baseline() {
        let old = tmp("up-old.json", &report_with(0.1, 0.05, 100));
        let new_text = report_with(0.9, 0.5, 200);
        let new = tmp("up-new.json", &new_text);
        let mut out = Vec::new();
        run_bench_diff(&old, &new, 1.3, true, &mut out).unwrap();
        assert_eq!(std::fs::read_to_string(&old).unwrap(), new_text);
        // After blessing, the diff is clean.
        let (r, _) = diff(&old, &new, 1.3);
        assert!(r.is_ok());
    }
}
