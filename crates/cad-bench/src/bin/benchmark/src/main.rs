//! `benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! benchmark gen --seed N [--workload W]
//! benchmark run --workload W --seed N [--seconds S] [--trace [0|1]] [--out DIR]
//! benchmark all --seed N [--seconds S] [--out DIR]
//! benchmark summarize DIR... [--base DIR...]
//! benchmark calibrate --workload W --seed N [--seconds S]
//! ```
//!
//! Flags without a subcommand mean `run`. Each run prints a table of
//! every metric (name, value, unit, sample count), writes the same data
//! to `<out>/<workload>.json`, and ends its output with one JSON line:
//! correctness, operations attempted and failed, and the end-to-end
//! (untraced) or per-layer (traced) metrics listed in `BENCHMARK.json`.
//! It exits nonzero when any correctness check fails. README.md beside
//! this package describes the workloads and metrics.

mod batch;
mod heap;
mod inputs;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use workload::Workload;

/// Exact heap accounting for `peak_heap_mb` and `mem.*_per_op`.
#[global_allocator]
static ALLOC: cad_obs::CountingAlloc = cad_obs::CountingAlloc::new();

/// FNV-1a over 64-bit words: the bit-exact digest the correctness
/// checks compare detection outputs by.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest of one transition's anomaly set: every flagged edge's
/// endpoints and score, weight-change and commute-change bits, then the
/// flagged nodes.
pub fn transition_digest(edges: &[(usize, usize, f64, f64, f64)], nodes: &[usize]) -> u64 {
    let mut words = vec![edges.len() as u64];
    for &(u, v, score, dw, dc) in edges {
        words.extend([
            u as u64,
            v as u64,
            score.to_bits(),
            dw.to_bits(),
            dc.to_bits(),
        ]);
    }
    words.push(nodes.len() as u64);
    words.extend(nodes.iter().map(|&n| n as u64));
    digest(words)
}

/// Default measuring budget of one run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;

/// Parsed command-line flags.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
    base: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        positional: Vec::new(),
        base: Vec::new(),
    };
    let mut in_base = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                f.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if f.seconds.is_nan() || f.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                f.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--base" => in_base = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if in_base => f.base.push(a.clone()),
            _ => f.positional.push(a.clone()),
        }
    }
    Ok(f)
}

/// Where a run writes its result files.
fn out_dir(f: &Flags) -> PathBuf {
    f.out.clone().unwrap_or_else(|| {
        Path::new("target")
            .join("benchmark")
            .join("out")
            .join(f.seed.to_string())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn cli(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", args),
    };
    let f = parse_flags(rest)?;
    match cmd {
        "gen" => {
            let list = f.workload.map_or(workload::ALL.to_vec(), |w| vec![w]);
            for w in list {
                inputs::generate(w, f.seed, |dir| match w {
                    Workload::SparseBatch => batch::gen_sparse(&workload::SPARSE, f.seed, dir),
                    Workload::DenseBatch => batch::gen_dense(&workload::DENSE, f.seed, dir),
                    Workload::SmallDelta => serve::gen_serve(&workload::SMALL_DELTA, f.seed, dir),
                    Workload::Churn => serve::gen_serve(&workload::CHURN, f.seed, dir),
                })?;
            }
            Ok(0)
        }
        "run" => run(&f),
        "all" => all(&f),
        "summarize" => {
            if f.positional.is_empty() {
                return Err("summarize needs result directories".into());
            }
            Ok(if report::summarize(&f.positional, &f.base)? {
                0
            } else {
                1
            })
        }
        "calibrate" => {
            let w = f.workload.ok_or("calibrate needs --workload")?;
            if matches!(w, Workload::SparseBatch | Workload::DenseBatch) {
                return Err("calibrate applies to the serving workloads".into());
            }
            serve::calibrate(w, f.seed, f.seconds)?;
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Run one workload in this process.
fn run(f: &Flags) -> Result<i32, String> {
    let w = f.workload.ok_or("run needs --workload")?;
    let out = out_dir(f);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut report = match w {
        Workload::SparseBatch | Workload::DenseBatch => {
            batch::run(w, f.seed, f.seconds, f.trace, &out)
        }
        Workload::SmallDelta | Workload::Churn => serve::run(w, f.seed, f.seconds, f.trace, &out),
    };
    let line = report.result_line();
    let file = out.join(format!(
        "{}{}.json",
        w.name(),
        if f.trace { ".traced" } else { "" }
    ));
    if let Err(e) = std::fs::write(&file, report.to_json().pretty()) {
        report.problem(format!("cannot write {}: {e}", file.display()));
    }
    report.print_table();
    println!("{line}");
    Ok(if report.correct() { 0 } else { 1 })
}

/// Run every workload, each in its own child process (the allocator's
/// peak never decreases, so memory is per process), then print the
/// end-to-end metrics side by side.
fn all(f: &Flags) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir(f);
    let mut code = 0;
    let mut reports = Vec::new();
    for w in workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", w.name(), "--seed", &f.seed.to_string()])
            .args(["--seconds", &f.seconds.to_string(), "--out"])
            .arg(&out)
            .status()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
        if !status.success() {
            code = 1;
        }
        let file = out.join(format!("{}.json", w.name()));
        let parsed = std::fs::read_to_string(&file)
            .ok()
            .and_then(|t| cad_obs::parse_json(&t).ok())
            .and_then(|v| report::RunReport::from_json(&v));
        match parsed {
            Some(r) => reports.push(r),
            None => code = 1,
        }
    }
    println!("== all workloads, seed {} ==", f.seed);
    print!("{:<18} {:<9}", "metric", "unit");
    for r in &reports {
        print!(" {:>22}", r.workload);
    }
    println!();
    for (name, unit) in report::END_TO_END {
        print!("{name:<18} {unit:<9}");
        for r in &reports {
            match r.get(name) {
                Some(m) => print!(" {:>22}", format!("{:.6} (n={})", m.value, m.samples)),
                None => print!(" {:>22}", "-"),
            }
        }
        println!();
    }
    print!("{:<18} {:<9}", "correct", "");
    for r in &reports {
        print!(
            " {:>22}",
            if r.problems.is_empty() && r.failed == 0 {
                "yes"
            } else {
                "NO"
            }
        );
    }
    println!();
    Ok(code)
}
