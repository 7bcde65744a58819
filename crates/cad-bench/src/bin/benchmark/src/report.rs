//! Run results: the metric table, the result file, the one-line JSON
//! result, and `summarize` over many result directories.

use crate::stats;
use crate::workload::{self, Workload};
use cad_obs::Json;
use std::path::Path;

/// The end-to-end metrics every untraced run reports (name, unit),
/// as listed in `BENCHMARK.json`: the ones whose run-to-run spread on a
/// 2-vCPU host stays inside the regression bound. Tails and throughput
/// are in the table only (README.md gives their measured spreads).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("heap_mean_mb", "MiB"),
    ("planted_recall", "fraction"),
];

/// The per-layer metrics every traced run reports, as listed in
/// `BENCHMARK.json`: the ones all four workloads exercise.
pub const PER_LAYER: [(&str, &str); 12] = [
    ("store.pack_decode_s", "s"),
    ("linalg.solver_setup_s", "s"),
    ("linalg.solve_s", "s"),
    ("linalg.iters_per_solve", "count"),
    ("commute.build_s", "s"),
    ("commute.builds_per_op", "count"),
    ("core.score_s", "s"),
    ("core.scored_edges", "count"),
    ("op.unattributed_s", "s"),
    ("mem.allocs_per_op", "count"),
    ("mem.bytes_per_op", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`layer.quantity` for per-layer metrics).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// How the value was derived (percentile, source).
    pub note: String,
}

/// Everything one `run` produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations failed, refused, or whose output mismatched.
    pub failed: u64,
    /// Correctness problems beyond per-operation failures.
    pub problems: Vec<String>,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// An empty report for one run.
    pub fn new(w: Workload, seed: u64, traced: bool) -> RunReport {
        RunReport {
            workload: w.name().to_string(),
            seed,
            traced,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Add one metric.
    pub fn add(&mut self, name: &str, unit: &str, value: f64, samples: usize, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
            note: note.to_string(),
        });
    }

    /// Add a distribution: its median as `<name>` and its tail as
    /// `<name>.<p99|p95|...|max>`; nothing when there are no samples.
    pub fn add_dist(&mut self, name: &str, unit: &str, values: &[f64], source: &str) {
        if let Some(d) = stats::Dist::of(values) {
            self.add(name, unit, d.p50, d.n, &format!("p50 of {source}"));
            let tail = d.tail_label();
            self.add(
                &format!("{name}.{tail}"),
                unit,
                d.tail,
                d.n,
                &format!("{tail} of {source}"),
            );
        }
    }

    /// Record a correctness problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Print the table: every metric by name, value, unit and sample
    /// count, then the correctness verdict.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}, nproc {}) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.nproc
        );
        println!(
            "{:<34} {:>14} {:<9} {:>7}  note",
            "metric", "value", "unit", "n"
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>14} {:<9} {:>7}  {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>14} {:<9} {:>7}  failed, refused or mismatched / attempted",
            "error_rate",
            fmt_value(rate),
            "fraction",
            self.attempted
        );
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        println!("correct: {}", if self.correct() { "yes" } else { "NO" });
    }

    /// The result file's JSON.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.as_str(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.clone())),
                        ("samples", Json::Num(m.samples as f64)),
                        ("note", Json::Str(m.note.clone())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Read a result file back (the fields `summarize` uses).
    pub fn from_json(v: &Json) -> Option<RunReport> {
        let Json::Obj(pairs) = v.get("metrics")? else {
            return None;
        };
        let metrics = pairs
            .iter()
            .map(|(name, m)| Metric {
                name: name.clone(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                samples: m.get("samples").and_then(Json::as_u64).unwrap_or(0) as usize,
                note: String::new(),
            })
            .collect();
        Some(RunReport {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            traced: v.get("traced")?.as_bool()?,
            nproc: v.get("nproc")?.as_u64()? as usize,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            problems: if v.get("correct")?.as_bool()? {
                Vec::new()
            } else {
                vec!["recorded as incorrect".to_string()]
            },
            metrics,
        })
    }

    /// The one-line result: correctness, counts, and the end-to-end
    /// (untraced) or per-layer (traced) metrics. A listed metric the run
    /// did not measure is a correctness problem, never a made-up value.
    pub fn result_line(&mut self) -> String {
        let names: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            match self.get(name).map(|m| m.value).filter(|v| v.is_finite()) {
                Some(value) => metrics.push((
                    name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )),
                None => self.problem(format!("metric {name} was not measured")),
            }
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

/// End-to-end metrics `summarize` also reports, without a bound: too
/// noisy run to run to gate on, still worth comparing.
const UNBOUNDED: [(&str, &str); 4] = [
    ("latency_tail_ms", "lower"),
    ("transitions_per_s", "higher"),
    ("sustainable_rps", "higher"),
    ("peak_heap_mb", "lower"),
];

/// The end-to-end bounds `BENCHMARK.json` fixes: (name, better, bound).
fn read_bounds(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = cad_obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Load the untraced result of `w` from each directory.
fn load(dirs: &[String], w: Workload) -> Vec<RunReport> {
    dirs.iter()
        .filter_map(|d| {
            let text =
                std::fs::read_to_string(Path::new(d).join(format!("{}.json", w.name()))).ok()?;
            RunReport::from_json(&cad_obs::parse_json(&text).ok()?)
        })
        .filter(|r| !r.traced)
        .collect()
}

/// `summarize`: for each workload × end-to-end metric, the median,
/// quartiles and inter-quartile spread (as a share of the median) over
/// the result directories, checked against the bound in
/// `BENCHMARK.json`. With a second set (`base`), also each median's
/// change against the base median, flagged when worse than the bound.
/// [`UNBOUNDED`] metrics follow, unchecked. Returns whether every spread
/// and change is within its bound.
pub fn summarize(dirs: &[String], base: &[String]) -> Result<bool, String> {
    let mut bounds = read_bounds(Path::new("BENCHMARK.json"))?;
    bounds.extend(UNBOUNDED.map(|(n, b)| (n.to_string(), b.to_string(), f64::INFINITY)));
    let mut ok = true;
    println!(
        "{:<22} {:<18} {:>3} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
    for w in workload::ALL {
        let runs = load(dirs, w);
        let base_runs = load(base, w);
        if runs.is_empty() {
            continue;
        }
        let failed = runs
            .iter()
            .filter(|r| !r.problems.is_empty() || r.failed > 0)
            .count();
        if failed > 0 {
            ok = false;
            println!(
                "{:<22} {failed} of {} runs were not correct",
                w.name(),
                runs.len()
            );
        }
        for (name, better, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(name))
                .map(|m| m.value)
                .collect();
            if values.is_empty() {
                continue;
            }
            let med = stats::median(&values);
            let (q1, q3) = stats::quartiles(&values);
            let spread = (q3 - q1) / med.abs();
            // Set-up time is checked by median only, as BENCHMARK.json's
            // acceptance rule does.
            let mut verdict = if spread <= *bound || name == "setup_s" {
                "ok".to_string()
            } else {
                ok = false;
                "WIDE".to_string()
            };
            let base_values: Vec<f64> = base_runs
                .iter()
                .filter_map(|r| r.get(name))
                .map(|m| m.value)
                .collect();
            if !base_values.is_empty() {
                let base_med = stats::median(&base_values);
                let change = (med - base_med) / base_med.abs();
                let worse = if better == "higher" { -change } else { change };
                verdict.push_str(&format!(", {:+.2}% vs base", 100.0 * change));
                if worse > *bound {
                    ok = false;
                    verdict.push_str(" REGRESSED");
                }
            }
            println!(
                "{:<22} {:<18} {:>3} {:>13} {:>13} {:>13} {:>7.2}% {:>5}  {verdict}",
                w.name(),
                name,
                values.len(),
                fmt_value(med),
                fmt_value(q1),
                fmt_value(q3),
                100.0 * spread,
                if bound.is_finite() {
                    format!("{:.0}%", 100.0 * bound)
                } else {
                    "-".to_string()
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_the_runs_report() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let v = cad_obs::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let names: Vec<String> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_reports_listed_metrics_and_flags_missing_ones() {
        let mut r = RunReport::new(Workload::DenseBatch, 3, false);
        r.attempted = 4;
        for (name, unit) in END_TO_END {
            r.add(name, unit, 1.5, 1, "");
        }
        r.add("extra", "s", 2.0, 1, "");
        let line = cad_obs::parse_json(&r.result_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(m)) = line.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(m.len(), END_TO_END.len());

        let mut missing = RunReport::new(Workload::DenseBatch, 3, true);
        missing.attempted = 1;
        let line = cad_obs::parse_json(&missing.result_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}
