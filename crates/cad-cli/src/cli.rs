//! Argument parsing for the `cad` binary (dependency-free).

use std::collections::HashMap;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
cad — localize anomalous changes in time-evolving graphs (SIGMOD'14 CAD)

USAGE:
  cad detect   --input <seq.txt|pack.cadpack> [--l <n> | --delta <x>]
               [--kind cad|adj|com] [--engine auto|exact|approx|corrected]
               [--k <dim>] [--threads <n>] [--trace] [--profile <trace.json>]
               [--metrics-json <report.json>] [--store-dir <dir>]
               [--partition <blocks>]
  cad score    --input <seq.txt> [--kind cad|adj|com] [--top <n>] [--threads <n>]
  cad watch    [--input -|<dir>|<seq.txt>] [--l <n> | --delta <x>]
               [--kind cad|adj|com] [--engine auto|exact|approx|corrected]
               [--k <dim>] [--events <log.ndjson>] [--metrics-addr <ip:port>]
               [--max-instances <n>] [--poll-ms <ms>] [--hold-ms <ms>]
               [--store-dir <dir>] [--update-mode rebuild|incremental|auto]
               [--access-log <path|->]
  cad profile  <command and its flags> [--out <trace.json>]
  cad serve    [--addr <ip:port>] [--workers <n>] [--max-body <bytes>]
               [--max-sessions <n>] [--store-dir <dir>]
               [--update-mode rebuild|incremental|auto]
               [--access-log <path|->] [--journal-dir <dir>]
               [--journal-fsync always|never|every-<n>]
               [--max-push-rps <rate>]
  cad generate --dataset toy|gmm|enron|dblp|precip [--out <seq.txt>] [--seed <s>]
  cad pack     --input <seq.txt> --out <pack.cadpack> [--label <text>]
  cad inspect  --input <pack.cadpack>
  cad store    gc --store-dir <dir> --max-bytes <n>
  cad journal  inspect|compact <journal-dir>
  cad validate-report --input <report.json>

The input format is a plain edge list:
  nodes 17
  instance
  0 1 3.0
  ...
  instance
  ...

detect   prints the anomalous edge/node sets per transition
score    prints ranked edge scores per transition
watch    streams instances (stdin NDJSON `-`, a directory to tail, or a
         sequence file to replay), detects per arriving transition with a
         sliding oracle cache, and appends one NDJSON event per
         transition; --metrics-addr serves Prometheus /metrics + /healthz
serve    runs the HTTP detection service: POST /v1/sequences creates a
         session, POST /v1/sequences/{id}/snapshots pushes instances
         (JSON edge lists or binary .cadpack edge deltas) and returns
         the transition's anomaly set; GET /metrics, GET /healthz and
         POST /v1/shutdown (graceful drain) round it out. A full worker
         queue answers 503 + Retry-After instead of queueing unboundedly.
         --access-log appends one NDJSON line per request (trace id,
         status, queue wait, latency); GET /v1/debug/trace?limit=N dumps
         the newest flight-recorder events
generate writes a synthetic workload (for trying the tool end to end)
pack     converts a sequence file into a compact checksummed binary
         `.cadpack` (base snapshot + per-transition edge deltas);
         detect accepts `.cadpack` inputs directly
inspect  prints a pack's header, sizes and integrity status without
         loading the graphs into a detector
store gc shrinks a --store-dir oracle cache to --max-bytes by deleting
         the least-recently-used artifacts first, printing what it freed
journal inspect prints every session journal under <journal-dir>
         (segments, record counts, torn tails) without modifying it;
         journal compact replays each session offline and rewrites its
         journal down to a single checkpoint segment — the same
         compaction serve runs in the background, forced now
validate-report checks a --metrics-json report against the schema
profile  runs the wrapped command with tracing active and writes a
         Chrome-trace/Perfetto timeline (trace-event JSON) of its spans
         and flight-recorder events to --out (default trace.json; when
         the trailing flags are `--out <path>` they belong to profile,
         everything else is passed to the wrapped command verbatim)

--trace prints a nested per-phase timing tree (plus solver and scoring
digests) to stderr after detection; --metrics-json writes the same data
as a schema-versioned machine-readable JSON report; --profile <path>
additionally writes the Perfetto timeline of the run (detection output
is bit-identical with or without it).

--partition <blocks> splits each graph into about <blocks> blocks along
a BFS order and solves each block independently (block-partitioned
exact oracle). A component smaller than one block stays whole and is
exact; split components stitch cross-block distances through a boundary
interface solve and track the monolithic oracle to a documented
relative tolerance. Only the exact engine is partitioned; the others
build monolithically.

--store-dir <dir> keeps a content-addressed oracle cache in <dir>:
detect/watch reuse an oracle artifact whenever the (snapshot, engine,
parameters) key matches a previous build, skipping the build entirely.

--journal-dir <dir> makes serve durable: each session appends its
lifecycle (create, per-push edge delta, delete) to a per-session
write-ahead log under <dir> before the response is sent, and a restart
replays the journals to rebuild every session bit-identically — a torn
record from a crash is dropped at the last complete frame.
--journal-fsync picks when appends reach the disk: `always` (the
default) survives power loss, `every-<n>` bounds loss to n records,
`never` leaves flushing to the OS (sealed segments still sync).
--max-push-rps <rate> rate-limits snapshot pushes per session with a
token bucket; over-limit pushes get 429 + Retry-After.

--update-mode picks the oracle lifecycle for streaming detection
(watch, and the serve default new sessions inherit): `rebuild` builds a
fresh oracle per snapshot (the default; bit-identical to batch),
`incremental` applies each edge delta to the previous oracle in place
(falling back to a rebuild on structural changes, and on exact deltas
of 0.45 · n or more changed edges, where rebuilding is cheaper), `auto`
is incremental with a periodic full refresh.";

/// Which detector scoring to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KindArg {
    /// The CAD product score.
    #[default]
    Cad,
    /// Weight change only.
    Adj,
    /// Commute change only.
    Com,
}

/// Which commute engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineArg {
    /// Exact below 512 nodes, embedding above.
    #[default]
    Auto,
    /// Always exact.
    Exact,
    /// Always the embedding.
    Approx,
    /// Exact amplified (von Luxburg-corrected) commute distance.
    Corrected,
}

/// Oracle lifecycle for streaming detection (`--update-mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateModeArg {
    /// Fresh oracle per snapshot (bit-identical to batch).
    #[default]
    Rebuild,
    /// Delta-update the previous oracle; rebuild only on fallback.
    Incremental,
    /// Incremental with a periodic full refresh.
    Auto,
}

/// The `cad journal` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalAction {
    /// Summarize every session journal without modifying anything.
    Inspect,
    /// Replay each session and rewrite its journal to one checkpoint.
    Compact,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run detection and print anomaly sets.
    Detect {
        /// Input sequence path.
        input: String,
        /// Target nodes/transition (`--l`); mutually exclusive with delta.
        l: Option<usize>,
        /// Explicit threshold (`--delta`).
        delta: Option<f64>,
        /// Score kind.
        kind: KindArg,
        /// Engine selection.
        engine: EngineArg,
        /// Embedding dimension.
        k: usize,
        /// Worker threads (1 = sequential, 0 = one per core).
        threads: usize,
        /// Print the per-phase timing tree after detection (`--trace`).
        trace: bool,
        /// Write the machine-readable JSON report here
        /// (`--metrics-json <path>`).
        metrics_json: Option<String>,
        /// Oracle-cache directory (`--store-dir`); no caching when
        /// absent.
        store_dir: Option<String>,
        /// Write a Chrome-trace/Perfetto timeline of the run here
        /// (`--profile <path>`).
        profile: Option<String>,
        /// Block-partitioned oracle target block count (`--partition`);
        /// monolithic when absent.
        partition: Option<usize>,
    },
    /// Print ranked edge scores.
    Score {
        /// Input sequence path.
        input: String,
        /// Score kind.
        kind: KindArg,
        /// How many edges to print per transition.
        top: usize,
        /// Worker threads (1 = sequential, 0 = one per core).
        threads: usize,
    },
    /// Write a synthetic workload.
    Generate {
        /// Dataset name.
        dataset: String,
        /// Output path (stdout when absent).
        out: Option<String>,
        /// Generator seed.
        seed: u64,
    },
    /// Validate a `--metrics-json` report against the schema.
    ValidateReport {
        /// Report path.
        input: String,
    },
    /// Stream instances and detect per arriving transition.
    Watch {
        /// `-` for stdin NDJSON, a directory to tail, or a sequence
        /// file to replay.
        input: String,
        /// Target nodes/transition (`--l`); mutually exclusive with delta.
        l: Option<usize>,
        /// Fixed threshold (`--delta`).
        delta: Option<f64>,
        /// Score kind.
        kind: KindArg,
        /// Engine selection.
        engine: EngineArg,
        /// Embedding dimension.
        k: usize,
        /// Append NDJSON events here (stdout when absent).
        events: Option<String>,
        /// Serve Prometheus `/metrics` + `/healthz` at this address.
        metrics_addr: Option<String>,
        /// Stop after this many instances (endless when absent).
        max_instances: Option<usize>,
        /// Directory-tail poll interval in milliseconds.
        poll_ms: u64,
        /// Keep the process (and exporter) alive this long after the
        /// input ends.
        hold_ms: u64,
        /// Oracle-cache directory (`--store-dir`); no caching when
        /// absent.
        store_dir: Option<String>,
        /// Oracle lifecycle (`--update-mode`).
        update_mode: UpdateModeArg,
        /// NDJSON access-log destination (`--access-log`): a file path,
        /// `-` for stderr, disabled when absent.
        access_log: Option<String>,
    },
    /// Convert a sequence file into a `.cadpack`.
    Pack {
        /// Input sequence path.
        input: String,
        /// Output pack path.
        out: String,
        /// Free-form label stored in the pack header.
        label: String,
    },
    /// Print a pack's header and integrity status.
    Inspect {
        /// Pack path.
        input: String,
    },
    /// Run the HTTP detection service.
    Serve {
        /// Listen address (`--addr`), e.g. `127.0.0.1:8080`; port 0
        /// picks a free port.
        addr: String,
        /// Worker-thread count (`--workers`).
        workers: usize,
        /// Maximum request body size in bytes (`--max-body`).
        max_body: usize,
        /// Maximum live sessions (`--max-sessions`).
        max_sessions: usize,
        /// Oracle-cache directory (`--store-dir`); no caching when
        /// absent.
        store_dir: Option<String>,
        /// Default oracle lifecycle for new sessions (`--update-mode`).
        update_mode: UpdateModeArg,
        /// NDJSON access-log destination (`--access-log`): a file path,
        /// `-` for stderr, disabled when absent.
        access_log: Option<String>,
        /// Write-ahead-log root (`--journal-dir`); sessions are not
        /// durable when absent.
        journal_dir: Option<String>,
        /// Journal fsync policy name (`--journal-fsync`):
        /// `always` | `never` | `every-<n>`.
        journal_fsync: Option<String>,
        /// Per-session push rate limit in requests/second
        /// (`--max-push-rps`); unlimited when absent.
        max_push_rps: Option<f64>,
    },
    /// Shrink an oracle cache to a byte budget (LRU eviction).
    StoreGc {
        /// Cache directory (`--store-dir`).
        store_dir: String,
        /// Byte budget the cache is trimmed down to (`--max-bytes`).
        max_bytes: u64,
    },
    /// Inspect or compact the write-ahead journals under a directory.
    Journal {
        /// What to do with the journals.
        action: JournalAction,
        /// Journal root directory (`serve --journal-dir`).
        dir: String,
    },
    /// Run another command under tracing and write its timeline.
    Profile {
        /// The wrapped command.
        inner: Box<Command>,
        /// Trace-event JSON output path (`--out`).
        out: String,
    },
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The selected command.
    pub command: Command,
}

impl Cli {
    /// Parse a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut iter = args.into_iter();
        let sub = iter.next().ok_or_else(|| USAGE.to_string())?;
        if sub == "--help" || sub == "-h" || sub == "help" {
            return Err(USAGE.to_string());
        }
        if sub == "profile" {
            // Everything after `profile` is the wrapped command, except
            // a *trailing* `--out <path>` pair, which names the trace
            // file (trailing so a wrapped `generate --out ...` keeps
            // its own flag).
            let mut rest: Vec<String> = iter.collect();
            let mut out = "trace.json".to_string();
            if rest.len() >= 2 && rest[rest.len() - 2] == "--out" {
                out = rest.pop().expect("length checked");
                rest.pop();
            }
            match rest.first().map(String::as_str) {
                None => return Err(format!("profile needs a command to run\n\n{USAGE}")),
                Some("profile") => {
                    return Err(format!("profile cannot wrap itself\n\n{USAGE}"));
                }
                Some(_) => {}
            }
            let inner = Cli::parse(rest)?;
            return Ok(Cli {
                command: Command::Profile {
                    inner: Box::new(inner.command),
                    out,
                },
            });
        }
        // Flags that are bare switches (no value token follows).
        const SWITCHES: &[&str] = &["trace"];
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut positionals: Vec<String> = Vec::new();
        let mut pending: Option<String> = None;
        for tok in iter {
            match pending.take() {
                Some(key) => {
                    flags.insert(key, tok);
                }
                None => match tok.strip_prefix("--") {
                    Some(key) => {
                        if SWITCHES.contains(&key) {
                            flags.insert(key.to_string(), "true".to_string());
                        } else {
                            pending = Some(key.to_string());
                        }
                    }
                    None => positionals.push(tok),
                },
            }
        }
        if let Some(key) = pending {
            return Err(format!("flag `--{key}` is missing a value\n\n{USAGE}"));
        }
        // Only store (the `gc` action) and journal (action + directory)
        // take positional operands.
        if sub != "store" && sub != "journal" {
            if let Some(p) = positionals.first() {
                return Err(format!("unexpected argument `{p}`\n\n{USAGE}"));
            }
        }

        // A misspelt or retired flag is a usage error, never ignored.
        let known = match sub.as_str() {
            "detect" => "input l delta kind engine k threads trace metrics-json store-dir profile partition",
            "watch" => "input l delta kind engine k events metrics-addr max-instances poll-ms hold-ms store-dir update-mode access-log",
            "serve" => "addr workers max-body max-sessions store-dir update-mode access-log journal-dir journal-fsync max-push-rps",
            "score" => "input kind top threads",
            "generate" => "dataset out seed",
            "pack" => "input out label",
            "inspect" | "validate-report" => "input",
            "store" => "store-dir max-bytes",
            "journal" => "",
            other => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
        };
        let unknown = flags
            .keys()
            .filter(|k| !known.split(' ').any(|f| f == k.as_str()));
        if let Some(bad) = unknown.min() {
            return Err(format!("unknown flag `--{bad}` for `{sub}`\n\n{USAGE}"));
        }

        let get = |k: &str| flags.get(k).cloned();
        let parse_threads = |flags: &HashMap<String, String>| -> Result<usize, String> {
            match flags.get("threads") {
                Some(v) => v.parse().map_err(|_| format!("invalid --threads `{v}`")),
                None => Ok(1),
            }
        };
        let parse_kind = |flags: &HashMap<String, String>| -> Result<KindArg, String> {
            match flags.get("kind").map(String::as_str) {
                None | Some("cad") => Ok(KindArg::Cad),
                Some("adj") => Ok(KindArg::Adj),
                Some("com") => Ok(KindArg::Com),
                Some(other) => Err(format!("unknown --kind `{other}` (cad|adj|com)")),
            }
        };
        let parse_engine = |flags: &HashMap<String, String>| -> Result<EngineArg, String> {
            match flags.get("engine").map(String::as_str) {
                None | Some("auto") => Ok(EngineArg::Auto),
                Some("exact") => Ok(EngineArg::Exact),
                Some("approx") => Ok(EngineArg::Approx),
                Some("corrected") => Ok(EngineArg::Corrected),
                Some(other) => Err(format!(
                    "unknown --engine `{other}` (auto|exact|approx|corrected)"
                )),
            }
        };
        let parse_l_delta =
            |flags: &HashMap<String, String>| -> Result<(Option<usize>, Option<f64>), String> {
                let l = match flags.get("l") {
                    Some(v) => Some(v.parse().map_err(|_| format!("invalid --l `{v}`"))?),
                    None => None,
                };
                let delta = match flags.get("delta") {
                    Some(v) => Some(v.parse().map_err(|_| format!("invalid --delta `{v}`"))?),
                    None => None,
                };
                if l.is_some() && delta.is_some() {
                    return Err("--l and --delta are mutually exclusive".into());
                }
                Ok((l, delta))
            };
        let parse_update_mode = |flags: &HashMap<String, String>| -> Result<UpdateModeArg, String> {
            match flags.get("update-mode").map(String::as_str) {
                None | Some("rebuild") => Ok(UpdateModeArg::Rebuild),
                Some("incremental") => Ok(UpdateModeArg::Incremental),
                Some("auto") => Ok(UpdateModeArg::Auto),
                Some(other) => Err(format!(
                    "unknown --update-mode `{other}` (rebuild|incremental|auto)"
                )),
            }
        };
        let parse_partition = |flags: &HashMap<String, String>| -> Result<Option<usize>, String> {
            match flags.get("partition") {
                Some(v) => {
                    let b: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --partition `{v}`"))?;
                    if b == 0 {
                        return Err("--partition must be ≥ 1".into());
                    }
                    Ok(Some(b))
                }
                None => Ok(None),
            }
        };
        let parse_k = |flags: &HashMap<String, String>| -> Result<usize, String> {
            match flags.get("k") {
                Some(v) => v.parse().map_err(|_| format!("invalid --k `{v}`")),
                None => Ok(50),
            }
        };

        let command = match sub.as_str() {
            "detect" => {
                let input =
                    get("input").ok_or_else(|| format!("detect needs --input\n\n{USAGE}"))?;
                let (l, delta) = parse_l_delta(&flags)?;
                let partition = parse_partition(&flags)?;
                Command::Detect {
                    input,
                    l,
                    delta,
                    kind: parse_kind(&flags)?,
                    engine: parse_engine(&flags)?,
                    k: parse_k(&flags)?,
                    threads: parse_threads(&flags)?,
                    trace: flags.contains_key("trace"),
                    metrics_json: get("metrics-json"),
                    store_dir: get("store-dir"),
                    profile: get("profile"),
                    partition,
                }
            }
            "watch" => {
                let (l, delta) = parse_l_delta(&flags)?;
                let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
                    match flags.get(key) {
                        Some(v) => v.parse().map_err(|_| format!("invalid --{key} `{v}`")),
                        None => Ok(default),
                    }
                };
                let max_instances = match get("max-instances") {
                    Some(v) => Some(
                        v.parse()
                            .map_err(|_| format!("invalid --max-instances `{v}`"))?,
                    ),
                    None => None,
                };
                Command::Watch {
                    input: get("input").unwrap_or_else(|| "-".to_string()),
                    l,
                    delta,
                    kind: parse_kind(&flags)?,
                    engine: parse_engine(&flags)?,
                    k: parse_k(&flags)?,
                    events: get("events"),
                    metrics_addr: get("metrics-addr"),
                    max_instances,
                    poll_ms: parse_u64("poll-ms", 200)?,
                    hold_ms: parse_u64("hold-ms", 0)?,
                    store_dir: get("store-dir"),
                    update_mode: parse_update_mode(&flags)?,
                    access_log: get("access-log"),
                }
            }
            "pack" => {
                let input = get("input").ok_or_else(|| format!("pack needs --input\n\n{USAGE}"))?;
                let out = get("out").ok_or_else(|| format!("pack needs --out\n\n{USAGE}"))?;
                Command::Pack {
                    input,
                    out,
                    label: get("label").unwrap_or_default(),
                }
            }
            "inspect" => {
                let input =
                    get("input").ok_or_else(|| format!("inspect needs --input\n\n{USAGE}"))?;
                Command::Inspect { input }
            }
            "score" => {
                let input =
                    get("input").ok_or_else(|| format!("score needs --input\n\n{USAGE}"))?;
                let top = match get("top") {
                    Some(v) => v.parse().map_err(|_| format!("invalid --top `{v}`"))?,
                    None => 20,
                };
                Command::Score {
                    input,
                    kind: parse_kind(&flags)?,
                    top,
                    threads: parse_threads(&flags)?,
                }
            }
            "generate" => {
                let dataset =
                    get("dataset").ok_or_else(|| format!("generate needs --dataset\n\n{USAGE}"))?;
                let seed = match get("seed") {
                    Some(v) => v.parse().map_err(|_| format!("invalid --seed `{v}`"))?,
                    None => 7,
                };
                Command::Generate {
                    dataset,
                    out: get("out"),
                    seed,
                }
            }
            "serve" => {
                let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
                    match flags.get(key) {
                        Some(v) => v.parse().map_err(|_| format!("invalid --{key} `{v}`")),
                        None => Ok(default),
                    }
                };
                let workers = parse_usize("workers", 4)?;
                if workers == 0 {
                    return Err("--workers must be ≥ 1".into());
                }
                let journal_dir = get("journal-dir");
                let journal_fsync = match get("journal-fsync") {
                    None => None,
                    Some(v) => {
                        // Mirrors cad-journal's FsyncPolicy::from_name
                        // grammar so bad values fail at flag parsing.
                        let every = v
                            .strip_prefix("every-")
                            .and_then(|n| n.parse::<u32>().ok())
                            .is_some_and(|n| n >= 1);
                        if !(v == "always" || v == "never" || every) {
                            return Err(format!(
                                "unknown --journal-fsync `{v}` (always|never|every-<n>)"
                            ));
                        }
                        if journal_dir.is_none() {
                            return Err("--journal-fsync requires --journal-dir <dir>".into());
                        }
                        Some(v)
                    }
                };
                let max_push_rps = match get("max-push-rps") {
                    None => None,
                    Some(v) => {
                        let r: f64 = v
                            .parse()
                            .map_err(|_| format!("invalid --max-push-rps `{v}`"))?;
                        if !(r.is_finite() && r > 0.0) {
                            return Err(format!("--max-push-rps must be > 0, got `{v}`"));
                        }
                        Some(r)
                    }
                };
                Command::Serve {
                    addr: get("addr").unwrap_or_else(|| "127.0.0.1:8080".to_string()),
                    workers,
                    max_body: parse_usize("max-body", 4 * 1024 * 1024)?,
                    max_sessions: parse_usize("max-sessions", 256)?,
                    store_dir: get("store-dir"),
                    update_mode: parse_update_mode(&flags)?,
                    access_log: get("access-log"),
                    journal_dir,
                    journal_fsync,
                    max_push_rps,
                }
            }
            "journal" => {
                let action = match positionals.first().map(String::as_str) {
                    Some("inspect") => JournalAction::Inspect,
                    Some("compact") => JournalAction::Compact,
                    _ => {
                        return Err(format!(
                            "journal needs `inspect <dir>` or `compact <dir>`\n\n{USAGE}"
                        ))
                    }
                };
                if positionals.len() != 2 {
                    return Err(format!(
                        "journal {} needs exactly one <journal-dir>, got {}\n\n{USAGE}",
                        positionals[0],
                        positionals.len() - 1
                    ));
                }
                Command::Journal {
                    action,
                    dir: positionals[1].clone(),
                }
            }
            "store" => {
                match positionals.first().map(String::as_str) {
                    Some("gc") if positionals.len() == 1 => {}
                    _ => return Err(format!("store needs the `gc` action\n\n{USAGE}")),
                }
                let store_dir = get("store-dir")
                    .ok_or_else(|| format!("store gc needs --store-dir\n\n{USAGE}"))?;
                let max_bytes = match get("max-bytes") {
                    Some(v) => v
                        .parse()
                        .map_err(|_| format!("invalid --max-bytes `{v}`"))?,
                    None => return Err(format!("store gc needs --max-bytes\n\n{USAGE}")),
                };
                Command::StoreGc {
                    store_dir,
                    max_bytes,
                }
            }
            "validate-report" => {
                let input = get("input")
                    .ok_or_else(|| format!("validate-report needs --input\n\n{USAGE}"))?;
                Command::ValidateReport { input }
            }
            _ => unreachable!("unknown commands are rejected with their flags"),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cli, String> {
        Cli::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn detect_defaults() {
        let cli = parse("detect --input seq.txt").unwrap();
        match cli.command {
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
                assert_eq!(input, "seq.txt");
                assert_eq!(store_dir, None);
                assert_eq!(l, None);
                assert_eq!(delta, None);
                assert_eq!(kind, KindArg::Cad);
                assert_eq!(engine, EngineArg::Auto);
                assert_eq!(k, 50);
                assert_eq!(threads, 1);
                assert!(!trace);
                assert_eq!(metrics_json, None);
                assert_eq!(profile, None);
                assert_eq!(partition, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn trace_and_metrics_json_parse() {
        let cli = parse("detect --input s.txt --trace --metrics-json out.json --l 3").unwrap();
        match cli.command {
            Command::Detect {
                trace,
                metrics_json,
                l,
                ..
            } => {
                assert!(trace);
                assert_eq!(metrics_json.as_deref(), Some("out.json"));
                assert_eq!(l, Some(3), "switch must not swallow later flags");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn validate_report_parses() {
        let cli = parse("validate-report --input report.json").unwrap();
        assert_eq!(
            cli.command,
            Command::ValidateReport {
                input: "report.json".into()
            }
        );
        assert!(parse("validate-report").unwrap_err().contains("--input"));
    }

    #[test]
    fn detect_full_flags() {
        let cli = parse("detect --input s.txt --l 5 --kind com --engine approx --k 32 --threads 4")
            .unwrap();
        match cli.command {
            Command::Detect {
                l,
                kind,
                engine,
                k,
                threads,
                ..
            } => {
                assert_eq!(l, Some(5));
                assert_eq!(kind, KindArg::Com);
                assert_eq!(engine, EngineArg::Approx);
                assert_eq!(k, 32);
                assert_eq!(threads, 4);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn corrected_engine_parses() {
        let cli = parse("detect --input s.txt --engine corrected").unwrap();
        assert!(matches!(
            cli.command,
            Command::Detect {
                engine: EngineArg::Corrected,
                ..
            }
        ));
    }

    #[test]
    fn partition_flags_parse() {
        assert!(matches!(
            parse("detect --input s.txt --partition 4").unwrap().command,
            Command::Detect {
                partition: Some(4),
                ..
            }
        ));
        assert!(parse("detect --input s.txt --partition 0")
            .unwrap_err()
            .contains("≥ 1"));
        assert!(parse("detect --input s.txt --partition x")
            .unwrap_err()
            .contains("--partition"));
        // The retired block-forming knob is an unknown flag now.
        for line in [
            "detect --input s.txt --partition-mode bfs",
            "detect --input s.txt --partition 2 --partition-mode components",
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains("unknown flag `--partition-mode`"), "{err}");
        }
    }

    #[test]
    fn l_and_delta_exclusive() {
        assert!(parse("detect --input s --l 5 --delta 2.0").is_err());
    }

    #[test]
    fn score_and_generate() {
        assert!(matches!(
            parse("score --input s.txt --top 5").unwrap().command,
            Command::Score { top: 5, .. }
        ));
        assert!(matches!(
            parse("generate --dataset toy --seed 9").unwrap().command,
            Command::Generate { seed: 9, .. }
        ));
    }

    #[test]
    fn watch_defaults_and_flags() {
        let cli = parse("watch").unwrap();
        match cli.command {
            Command::Watch {
                input,
                l,
                delta,
                events,
                metrics_addr,
                max_instances,
                poll_ms,
                hold_ms,
                ..
            } => {
                assert_eq!(input, "-");
                assert_eq!((l, delta), (None, None));
                assert_eq!(events, None);
                assert_eq!(metrics_addr, None);
                assert_eq!(max_instances, None);
                assert_eq!(poll_ms, 200);
                assert_eq!(hold_ms, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            parse("watch").unwrap().command,
            Command::Watch {
                update_mode: UpdateModeArg::Rebuild,
                ..
            }
        ));
        let cli = parse(
            "watch --input snaps --delta 0.5 --events ev.ndjson \
             --metrics-addr 127.0.0.1:9184 --max-instances 10 --poll-ms 50 --hold-ms 250 \
             --update-mode incremental",
        )
        .unwrap();
        match cli.command {
            Command::Watch {
                input,
                delta,
                events,
                metrics_addr,
                max_instances,
                poll_ms,
                hold_ms,
                update_mode,
                ..
            } => {
                assert_eq!(input, "snaps");
                assert_eq!(delta, Some(0.5));
                assert_eq!(events.as_deref(), Some("ev.ndjson"));
                assert_eq!(metrics_addr.as_deref(), Some("127.0.0.1:9184"));
                assert_eq!(max_instances, Some(10));
                assert_eq!(poll_ms, 50);
                assert_eq!(hold_ms, 250);
                assert_eq!(update_mode, UpdateModeArg::Incremental);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse("watch --l 3 --delta 1.0").is_err());
        assert!(parse("watch --update-mode warp")
            .unwrap_err()
            .contains("--update-mode"));
        assert!(matches!(
            parse("watch").unwrap().command,
            Command::Watch {
                access_log: None,
                ..
            }
        ));
        assert!(matches!(
            parse("watch --access-log -").unwrap().command,
            Command::Watch { access_log: Some(dest), .. } if dest == "-"
        ));
    }

    #[test]
    fn profile_wraps_a_command_and_takes_a_trailing_out() {
        let cli = parse("profile detect --input s.txt --l 3 --out run.json").unwrap();
        match cli.command {
            Command::Profile { inner, out } => {
                assert_eq!(out, "run.json");
                assert!(matches!(
                    *inner,
                    Command::Detect { ref input, l: Some(3), .. } if input == "s.txt"
                ));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --out defaults to trace.json.
        assert!(matches!(
            parse("profile detect --input s.txt").unwrap().command,
            Command::Profile { out, .. } if out == "trace.json"
        ));
        // A non-trailing --out belongs to the wrapped command.
        match parse("profile generate --dataset toy --out seq.txt --seed 3")
            .unwrap()
            .command
        {
            Command::Profile { inner, out } => {
                assert_eq!(out, "trace.json");
                assert!(matches!(
                    *inner,
                    Command::Generate { out: Some(ref p), .. } if p == "seq.txt"
                ));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse("profile").unwrap_err().contains("needs a command"));
        assert!(parse("profile profile detect --input s")
            .unwrap_err()
            .contains("cannot wrap itself"));
        // Bad inner commands surface the inner parse error.
        assert!(parse("profile detect").unwrap_err().contains("--input"));
    }

    #[test]
    fn detect_profile_flag_parses() {
        assert!(matches!(
            parse("detect --input s.txt --profile tl.json").unwrap().command,
            Command::Detect { profile: Some(p), .. } if p == "tl.json"
        ));
    }

    #[test]
    fn pack_and_inspect_parse() {
        let cli = parse("pack --input seq.txt --out seq.cadpack --label nightly").unwrap();
        assert_eq!(
            cli.command,
            Command::Pack {
                input: "seq.txt".into(),
                out: "seq.cadpack".into(),
                label: "nightly".into(),
            }
        );
        // Label defaults to empty.
        assert!(matches!(
            parse("pack --input a --out b").unwrap().command,
            Command::Pack { label, .. } if label.is_empty()
        ));
        assert!(parse("pack --input a").unwrap_err().contains("--out"));
        assert!(parse("pack --out b").unwrap_err().contains("--input"));

        let cli = parse("inspect --input seq.cadpack").unwrap();
        assert_eq!(
            cli.command,
            Command::Inspect {
                input: "seq.cadpack".into()
            }
        );
        assert!(parse("inspect").unwrap_err().contains("--input"));
    }

    #[test]
    fn store_dir_parses_on_detect_and_watch() {
        assert!(matches!(
            parse("detect --input s.txt --store-dir cache").unwrap().command,
            Command::Detect { store_dir: Some(d), .. } if d == "cache"
        ));
        assert!(matches!(
            parse("watch --input snaps --store-dir cache").unwrap().command,
            Command::Watch { store_dir: Some(d), .. } if d == "cache"
        ));
        assert!(matches!(
            parse("watch").unwrap().command,
            Command::Watch {
                store_dir: None,
                ..
            }
        ));
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cli = parse("serve").unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 4,
                max_body: 4 * 1024 * 1024,
                max_sessions: 256,
                store_dir: None,
                update_mode: UpdateModeArg::Rebuild,
                access_log: None,
                journal_dir: None,
                journal_fsync: None,
                max_push_rps: None,
            }
        );
        let cli = parse(
            "serve --addr 0.0.0.0:9000 --workers 8 --max-body 1024 \
             --max-sessions 2 --store-dir cache --update-mode auto \
             --access-log - --journal-dir wal --journal-fsync every-8 \
             --max-push-rps 2.5",
        )
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                max_body: 1024,
                max_sessions: 2,
                store_dir: Some("cache".into()),
                update_mode: UpdateModeArg::Auto,
                access_log: Some("-".into()),
                journal_dir: Some("wal".into()),
                journal_fsync: Some("every-8".into()),
                max_push_rps: Some(2.5),
            }
        );
        assert!(parse("serve --workers 0").unwrap_err().contains("workers"));
        assert!(parse("serve --max-body x")
            .unwrap_err()
            .contains("--max-body"));
        assert!(parse("serve stray")
            .unwrap_err()
            .contains("unexpected argument"));
    }

    #[test]
    fn serve_journal_flags_validated() {
        // Every fsync grammar production parses (with a journal dir).
        for policy in ["always", "never", "every-1", "every-64"] {
            assert!(matches!(
                parse(&format!("serve --journal-dir wal --journal-fsync {policy}"))
                    .unwrap()
                    .command,
                Command::Serve { journal_fsync: Some(p), .. } if p == policy
            ));
        }
        assert!(parse("serve --journal-dir wal --journal-fsync sometimes")
            .unwrap_err()
            .contains("--journal-fsync"));
        assert!(parse("serve --journal-dir wal --journal-fsync every-0")
            .unwrap_err()
            .contains("--journal-fsync"));
        // Fsync policy without a journal is a usage error.
        assert!(parse("serve --journal-fsync always")
            .unwrap_err()
            .contains("requires --journal-dir"));
        assert!(parse("serve --max-push-rps 0")
            .unwrap_err()
            .contains("--max-push-rps"));
        assert!(parse("serve --max-push-rps nan")
            .unwrap_err()
            .contains("--max-push-rps"));
        assert!(parse("serve --max-push-rps x")
            .unwrap_err()
            .contains("--max-push-rps"));
    }

    #[test]
    fn journal_subcommand_parses() {
        assert_eq!(
            parse("journal inspect wal").unwrap().command,
            Command::Journal {
                action: JournalAction::Inspect,
                dir: "wal".into(),
            }
        );
        assert_eq!(
            parse("journal compact wal").unwrap().command,
            Command::Journal {
                action: JournalAction::Compact,
                dir: "wal".into(),
            }
        );
        assert!(parse("journal").unwrap_err().contains("inspect <dir>"));
        assert!(parse("journal prune wal")
            .unwrap_err()
            .contains("inspect <dir>"));
        assert!(parse("journal inspect")
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse("journal compact a b")
            .unwrap_err()
            .contains("exactly one"));
    }

    #[test]
    fn store_gc_parses() {
        let cli = parse("store gc --store-dir cache --max-bytes 4096").unwrap();
        assert_eq!(
            cli.command,
            Command::StoreGc {
                store_dir: "cache".into(),
                max_bytes: 4096,
            }
        );
        assert!(parse("store").unwrap_err().contains("gc"));
        assert!(parse("store prune --store-dir c --max-bytes 1")
            .unwrap_err()
            .contains("gc"));
        assert!(parse("store gc --max-bytes 1")
            .unwrap_err()
            .contains("--store-dir"));
        assert!(parse("store gc --store-dir c")
            .unwrap_err()
            .contains("--max-bytes"));
        assert!(parse("store gc --store-dir c --max-bytes tiny")
            .unwrap_err()
            .contains("--max-bytes"));
    }

    #[test]
    fn positionals_rejected_outside_bench_diff() {
        assert!(parse("detect stray --input s.txt")
            .unwrap_err()
            .contains("unexpected argument `stray`"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse("frobnicate").unwrap_err().contains("unknown command"));
        assert!(parse("frobnicate --input x")
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse("score --input s.txt --engine exact")
            .unwrap_err()
            .contains("unknown flag `--engine` for `score`"));
        // The retired report comparator is gone from the command surface.
        assert!(parse("bench-diff")
            .unwrap_err()
            .contains("unknown command `bench-diff`"));
        assert!(parse("detect").unwrap_err().contains("--input"));
        assert!(parse("detect --input")
            .unwrap_err()
            .contains("missing a value"));
        assert!(parse("help").unwrap_err().contains("USAGE"));
        assert!(parse("detect --input s --engine warp")
            .unwrap_err()
            .contains("--engine"));
        assert!(parse("detect --input s --kind x")
            .unwrap_err()
            .contains("--kind"));
        assert!(parse("detect --input s --threads x")
            .unwrap_err()
            .contains("--threads"));
    }
}
