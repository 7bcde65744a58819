//! `cad-obs` — zero-dependency observability for the CAD pipeline.
//!
//! One small crate at the bottom of the workspace dependency graph
//! provides every layer with the same vocabulary:
//!
//! * [`metrics`] — the one metrics [`Registry`]: counters, gauges,
//!   histograms, labeled families, span aggregates and the flight
//!   recorder, indexed by the [`Counter`]/[`Gauge`]/[`Hist`]/
//!   [`LabeledCounter`]/[`LabeledHist`] enums. Recording goes to the
//!   calling thread's current registry (a scoped one, else the process
//!   default); see the module docs for how threads hand it on.
//! * [`span!`] — RAII wall-clock spans with per-thread nesting, fed into
//!   the current registry's span aggregates.
//! * [`hist`] — log-bucketed latency/value [`Histogram`]s: a
//!   deterministic value type for reports and a lock-free
//!   [`AtomicHistogram`] twin backing the registry's histogram cells.
//! * [`trace`] — per-request [`TraceCtx`] (trace id + session id +
//!   explicit child-span stack) installed thread-locally by `cad-serve`
//!   and read back by every layer below for event attribution.
//! * [`events`] — the lock-free bounded flight recorder each registry
//!   owns: a fixed-size ring of structured [`EventRecord`]s (span open/close, errors,
//!   fallbacks, evictions) with overwrite-oldest semantics and an
//!   explicit dropped counter, serving `GET /v1/debug/trace`.
//! * [`http`] — shared hand-rolled HTTP/1.1 plumbing (request parsing
//!   with header/body caps, timeouts, keep-alive, structured error
//!   bodies) used by the `/metrics` exporter and the `cad-serve`
//!   detection service.
//! * [`export`] — Prometheus text-exposition rendering and the
//!   hand-rolled `/metrics` + `/healthz` HTTP server for `cad watch`.
//! * [`alloc`] — the counting `#[global_allocator]` wrapper: exact,
//!   lock-free heap accounting (allocs/frees/bytes, live level and
//!   high-water mark) feeding the `mem.*` gauges and the report's
//!   `memory` section.
//! * [`profile`] — the Chrome-trace/Perfetto timeline exporter:
//!   renders the span registry plus the flight-recorder ring as
//!   trace-event JSON (`cad profile`, `GET /v1/debug/profile`).
//! * [`stats`] — typed result-side statistics ([`SolveStats`],
//!   [`Summary`], [`OracleBuildStats`]) that travel *with* computation
//!   results so aggregates stay deterministic under parallelism.
//! * [`report`] — the schema-versioned machine-readable run [`Report`]
//!   (JSON via `--metrics-json`) and the human tree summary (`--trace`).
//! * [`json`] — a hand-rolled, dependency-free JSON value, printer and
//!   parser with exact f64 round-tripping.
//! * [`progress!`] — the uniform stderr progress sink for long-running
//!   binaries.
//! * [`clock`] — `time_it`/`time_mean` wall-clock helpers.
//!
//! The crate deliberately has **no dependencies** (std only) so every
//! other crate — including `cad-linalg` at the base of the numeric
//! stack — can use it without cycles or new external requirements.

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod events;
pub mod export;
pub mod hist;
pub mod http;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod report;
pub mod span;
pub mod stats;
pub mod trace;

pub use alloc::{CountingAlloc, MemoryStats};
pub use clock::{time_it, time_mean};
pub use events::{EventKind, EventRecord, FlightRecorder, RingSnapshot, RING_CAPACITY};
pub use export::{render_prometheus, MetricsServer, WatchHealth};
pub use hist::{AtomicHistogram, Histogram};
pub use json::{parse as parse_json, Json};
pub use metrics::{
    count, count_labeled, counters, current, gauge_add, observe, observe_labeled, with_current,
    Counter, Entered, FamilySnapshot, Gauge, Hist, LabeledCounter, LabeledHist, MetricsSnapshot,
    Registry, RegistryHandle, SpanStat,
};
pub use progress::{set_verbosity, verbosity, Verbosity};
pub use report::{
    HostInfo, InstanceReport, LabelFamily, MemoryReport, Report, SolveReport, TransitionReport,
    SCHEMA_VERSION,
};
pub use span::SpanGuard;
pub use stats::{OracleBuildStats, SolveStats, Summary};
pub use trace::{TraceCtx, TraceGuard, TraceSpan};
