//! The metrics registry: one table-driven [`Registry`] value holding
//! every counter, gauge, histogram, labeled family, span aggregate and
//! the flight-recorder ring.
//!
//! Each metric kind is an enum ([`Counter`], [`Gauge`], [`Hist`],
//! [`LabeledCounter`], [`LabeledHist`]) whose variants index fixed
//! atomic arrays inside the registry; the variant's stable
//! report/exposition name sits next to it in one table. Adding a
//! metric means adding one variant and its name.
//!
//! # Scoping
//!
//! Recording calls ([`count`], [`observe`], spans, events, …) go to the
//! calling thread's *current* registry: the one made current by an
//! [`Entered`] guard ([`Registry::enter`], [`RegistryHandle::enter`]),
//! or else the process default — a `static`, so production code never
//! allocates a registry and binaries, `/metrics` and reports all see
//! the one process-wide set of metrics. Code that spawns threads hands
//! its registry on ([`current`] on the spawning thread, `enter` on the
//! spawned one): `cad_linalg::par` workers, the `cad_serve::Server`
//! threads and the [`crate::MetricsServer`] listener all do. A test
//! builds its own `Arc<Registry>`, runs its code under it and asserts
//! on it without locks.
//!
//! Integer adds commute, so counters and histogram buckets are exact
//! no matter how many worker threads race on them.

use crate::events::FlightRecorder;
use crate::hist::{AtomicHistogram, Histogram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Declares a metric enum with its name table: every variant, its
/// stable report/exposition name, [`Counter::ALL`]-style declaration
/// order and a `name()` lookup.
macro_rules! metric_table {
    ($(#[$doc:meta])* $enum:ident { $($(#[$vdoc:meta])* $var:ident = $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $enum {
            $($(#[$vdoc])* $var,)+
        }

        impl $enum {
            /// Every variant, in declaration (report and exposition) order.
            pub const ALL: &'static [$enum] = &[$($enum::$var),+];

            /// The stable report/exposition name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($enum::$var => $name,)+
                }
            }
        }
    };
}

/// Declares a labeled-family enum: each variant is one family with its
/// name, label key and the bounded set of label values, the last of
/// which is the catch-all for values outside the set. Cardinality is
/// fixed at compile time — the defence against label explosions
/// (DESIGN.md §12).
macro_rules! labeled_table {
    ($(#[$doc:meta])* $enum:ident {
        $($(#[$vdoc:meta])* $var:ident = ($name:literal, $label:literal, [$($value:literal),+ $(,)?] $(,)?),)+
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $enum {
            $($(#[$vdoc])* $var,)+
        }

        impl $enum {
            /// Every family, in declaration (report and exposition) order.
            pub const ALL: &'static [$enum] = &[$($enum::$var),+];

            /// The family's report/exposition name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($enum::$var => $name,)+
                }
            }

            /// The label key.
            pub const fn label(self) -> &'static str {
                match self {
                    $($enum::$var => $label,)+
                }
            }

            /// The allowed label values; the last is the catch-all.
            pub const fn values(self) -> &'static [&'static str] {
                match self {
                    $($enum::$var => &[$($value),+],)+
                }
            }

            /// Cell index of `value` (the catch-all when not in the set).
            fn cell(self, value: &str) -> usize {
                let values = self.values();
                values
                    .iter()
                    .position(|&v| v == value)
                    .unwrap_or(values.len() - 1)
            }
        }
    };
}

metric_table! {
    /// Well-known event counters (monotone; `cad_<name>_total` in the
    /// exposition).
    Counter {
        /// Sparse matrix-vector products performed (`CsrMatrix::matvec*`).
        Spmv = "linalg.spmv",
        /// CG/PCG solves completed.
        CgSolves = "linalg.cg_solves",
        /// Total CG/PCG iterations across all solves.
        CgIterations = "linalg.cg_iterations",
        /// Johnson–Lindenstrauss projection rows solved in the
        /// Khoa–Chawla commute-embedding path.
        JlProjections = "linalg.jl_projections",
        /// Distance oracles built (`CommuteTimeEngine::compute` calls).
        OracleBuilds = "commute.oracle_builds",
        /// Oracle delta updates applied in place (no rebuild).
        IncrementalUpdates = "commute.incremental_updates",
        /// Incremental updates that fell back to a fresh build
        /// (structural delta, degenerate denominator, refresh threshold,
        /// an update priced above a rebuild, or an unsupported backend).
        RebuildFallbacks = "commute.rebuild_fallbacks",
        /// Oracle artifacts served from the content-addressed store cache.
        StoreCacheHits = "store.cache_hits",
        /// Oracle cache lookups that missed and fell back to a fresh build.
        StoreCacheMisses = "store.cache_misses",
        /// Bytes read from `.cadpack` files and cached oracle artifacts.
        StoreBytesRead = "store.bytes_read",
        /// HTTP requests handled by the `cad serve` detection service
        /// (everything that reached the router, any status).
        ServeRequests = "serve.requests",
        /// Connections answered `503` because the serve worker queue was
        /// full (the backpressure contract).
        ServeRejectedBackpressure = "serve.rejected_backpressure",
        /// Blocks realised by partitioned oracle builds (`cad-part`),
        /// summed across builds.
        PartBlocks = "part.blocks",
        /// Cut (cross-block) edges across partitioned oracle builds — the
        /// size of the boundary-vertex interface work.
        PartBoundaryEdges = "part.boundary_edges",
        /// Per-block solve work units completed (block factor /
        /// pseudoinverse builds inside a partitioned oracle build).
        PartBlockSolves = "part.block_solves",
        /// Records appended to per-session write-ahead journals.
        JournalAppends = "journal.appends",
        /// Bytes written to journal segment files (frames + headers).
        JournalBytesWritten = "journal.bytes_written",
        /// Journal compactions completed (checkpoint written, old
        /// segments dropped).
        JournalCompactions = "journal.compactions",
        /// Sessions rebuilt from journals at boot.
        JournalRecoveredSessions = "journal.recovered_sessions",
        /// Torn (truncated) tail frames dropped during journal recovery.
        JournalTornTails = "journal.torn_tails",
        /// Pushes answered `429` by the per-session token-bucket rate
        /// limiter (`--max-push-rps`).
        ServeRateLimited = "serve.rate_limited",
    }
}

metric_table! {
    /// Well-known level metrics: nonnegative quantities that go up *and*
    /// down. Rendered as Prometheus `gauge`s (no `_total` suffix); the
    /// snapshot appends the `mem.*` heap levels read from the counting
    /// allocator ([`crate::alloc`]).
    Gauge {
        /// Accepted connections waiting for a worker.
        ServeQueueDepth = "serve.queue_depth",
        /// Requests currently inside the router.
        ServeInflightRequests = "serve.inflight_requests",
        /// Detection sessions currently alive (raised on create, lowered
        /// on delete/TTL-sweep).
        ServeSessionsActive = "serve.sessions_active",
    }
}

metric_table! {
    /// Well-known live histograms, recorded from the numeric kernels,
    /// the detection loop and the services.
    Hist {
        /// Iterations per CG/PCG solve.
        CgIterations = "cg_iterations",
        /// Final relative residual per CG/PCG solve.
        CgResiduals = "cg_residuals",
        /// Wall-clock seconds per distance-oracle build.
        OracleBuildSecs = "oracle_build_secs",
        /// Wall-clock seconds per in-place oracle delta update (the
        /// incremental sibling of `oracle_build_secs`).
        OracleUpdateSecs = "oracle_update_secs",
        /// Wall-clock seconds per transition scoring pass.
        TransitionScoreSecs = "transition_score_secs",
        /// Wall-clock seconds per `.cadpack`/oracle-cache read or write.
        PackIoSecs = "pack_io_secs",
        /// `cad serve`: wall-clock seconds per `POST .../snapshots`
        /// request (parse + push + respond — the detection hot path).
        ServePushSecs = "serve_push_secs",
        /// `cad serve`: wall-clock seconds per `POST /v1/sequences`
        /// (session creation).
        ServeCreateSecs = "serve_create_secs",
        /// `cad serve`: wall-clock seconds per remaining endpoint
        /// (status, delete, healthz, metrics).
        ServeAdminSecs = "serve_admin_secs",
        /// `cad serve`: seconds an accepted connection waited in the
        /// worker queue before a worker picked it up.
        ServeQueueWaitSecs = "serve_queue_wait_secs",
        /// Journal: wall-clock seconds per record append (frame encode +
        /// write, excluding any fsync).
        JournalAppendSecs = "journal_append_secs",
        /// Journal: wall-clock seconds per `fsync` issued by the
        /// configured durability policy.
        JournalFsyncSecs = "journal_fsync_secs",
    }
}

labeled_table! {
    /// Labeled counter families. A family may share its name with an
    /// unlabeled [`Counter`], which stays the all-values aggregate.
    LabeledCounter {
        /// Rebuild fallbacks split by `RebuildReason` name — the
        /// per-cause view of `commute.rebuild_fallbacks`.
        RebuildFallbacks = (
            "commute.rebuild_fallbacks",
            "reason",
            ["structural", "degenerate", "unsupported", "refresh", "cost", "other"],
        ),
    }
}

labeled_table! {
    /// Labeled histogram families. A family may share its name with an
    /// unlabeled [`Hist`]; the Prometheus renderer groups both under one
    /// `# TYPE` declaration.
    LabeledHist {
        /// Push latency by the oracle backend that served the push
        /// (`engine` label); `serve_push_secs` stays the aggregate.
        ServePushSecs = (
            "serve_push_secs",
            "engine",
            ["exact", "embedding", "shortest-path", "corrected", "other"],
        ),
        /// `cad-part`: wall-clock seconds per per-block solve work unit,
        /// split by block index; blocks past the set land in `other`.
        PartBlockSolveSecs = (
            "part_block_solve_secs",
            "block",
            ["0", "1", "2", "3", "4", "5", "6", "7", "other"],
        ),
    }
}

/// Cells reserved per labeled family (the widest family's value count).
const MAX_LABEL_VALUES: usize = 9;

const _: () = {
    let mut i = 0;
    while i < LabeledCounter::ALL.len() {
        assert!(LabeledCounter::ALL[i].values().len() <= MAX_LABEL_VALUES);
        i += 1;
    }
    let mut i = 0;
    while i < LabeledHist::ALL.len() {
        assert!(LabeledHist::ALL[i].values().len() <= MAX_LABEL_VALUES);
        i += 1;
    }
};

/// Wall-time aggregate of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total wall-clock seconds across those calls.
    pub total_secs: f64,
}

/// Every metric of one scope: fixed atomic cells indexed by the metric
/// enums, the span aggregates and the flight-recorder ring.
pub struct Registry {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    labeled_counters: [[AtomicU64; MAX_LABEL_VALUES]; LabeledCounter::ALL.len()],
    histograms: [AtomicHistogram; Hist::ALL.len()],
    labeled_histograms: [[AtomicHistogram; MAX_LABEL_VALUES]; LabeledHist::ALL.len()],
    spans: Mutex<BTreeMap<String, SpanStat>>,
    events: FlightRecorder,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry (const, for the process default).
    pub const fn new() -> Self {
        Registry {
            counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
            gauges: [const { AtomicU64::new(0) }; Gauge::ALL.len()],
            labeled_counters: [const { [const { AtomicU64::new(0) }; MAX_LABEL_VALUES] };
                LabeledCounter::ALL.len()],
            histograms: [const { AtomicHistogram::new() }; Hist::ALL.len()],
            labeled_histograms: [const { [const { AtomicHistogram::new() }; MAX_LABEL_VALUES] };
                LabeledHist::ALL.len()],
            spans: Mutex::new(BTreeMap::new()),
            events: FlightRecorder::new(),
        }
    }

    /// Make this registry the calling thread's current one until the
    /// guard drops.
    pub fn enter(self: &Arc<Self>) -> Entered {
        enter(Some(Arc::clone(self)))
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// A counter's current value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Move a gauge by `delta`. Callers keep raises and lowerings
    /// balanced; the level does not saturate.
    #[inline]
    pub fn gauge_add(&self, g: Gauge, delta: i64) {
        self.gauges[g as usize].fetch_add(delta as u64, Ordering::Relaxed);
    }

    /// A gauge's current level.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Add one to the cell of a labeled counter family.
    pub fn count_labeled(&self, f: LabeledCounter, value: &str) {
        self.labeled_counters[f as usize][f.cell(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&self, h: Hist, v: f64) {
        self.histograms[h as usize].observe(v);
    }

    /// Point-in-time copy of one histogram.
    pub fn histogram(&self, h: Hist) -> Histogram {
        self.histograms[h as usize].snapshot()
    }

    /// Record one sample into the cell of a labeled histogram family.
    pub fn observe_labeled(&self, f: LabeledHist, value: &str, v: f64) {
        self.labeled_histograms[f as usize][f.cell(value)].observe(v);
    }

    /// Record one completed span occurrence under `path`
    /// (slash-separated nesting, e.g. `detect/oracle_build`).
    pub fn record_span(&self, path: &str, secs: f64) {
        let mut map = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        let stat = map.entry(path.to_string()).or_default();
        stat.calls += 1;
        stat.total_secs += secs;
    }

    /// The flight-recorder ring.
    pub fn events(&self) -> &FlightRecorder {
        &self.events
    }

    /// Immutable copy of everything recorded so far, every section in
    /// declaration order. The gauges end with the `mem.*` levels sampled
    /// from the counting allocator (all zeros when no
    /// [`crate::alloc::CountingAlloc`] is installed).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mem = crate::alloc::stats();
        let mut gauges: Vec<(&'static str, u64)> = Gauge::ALL
            .iter()
            .map(|&g| (g.name(), self.gauge(g)))
            .collect();
        gauges.extend([
            ("mem.heap_bytes", mem.heap_bytes),
            ("mem.heap_peak_bytes", mem.heap_peak_bytes),
            ("mem.allocs", mem.allocs),
            ("mem.frees", mem.frees),
            ("mem.bytes_allocated", mem.bytes_allocated),
        ]);
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.counter(c)))
                .collect(),
            gauges,
            labeled_counters: LabeledCounter::ALL
                .iter()
                .map(|&f| FamilySnapshot {
                    name: f.name(),
                    label: f.label(),
                    cells: f
                        .values()
                        .iter()
                        .zip(&self.labeled_counters[f as usize])
                        .map(|(&v, c)| (v, c.load(Ordering::Relaxed)))
                        .collect(),
                })
                .collect(),
            histograms: Hist::ALL
                .iter()
                .map(|&h| (h.name(), self.histogram(h)))
                .collect(),
            labeled_histograms: LabeledHist::ALL
                .iter()
                .map(|&f| FamilySnapshot {
                    name: f.name(),
                    label: f.label(),
                    cells: f
                        .values()
                        .iter()
                        .zip(&self.labeled_histograms[f as usize])
                        .map(|(&v, h)| (v, h.snapshot()))
                        .collect(),
                })
                .collect(),
            spans: self.spans.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        }
    }
}

/// One labeled family in a [`MetricsSnapshot`]: its name, label key and
/// one cell per allowed label value, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot<T> {
    /// Family name (report/exposition key, dotted form).
    pub name: &'static str,
    /// The label key (e.g. `reason`).
    pub label: &'static str,
    /// `(label value, cell)` pairs.
    pub cells: Vec<(&'static str, T)>,
}

/// A point-in-time copy of a [`Registry`]'s contents, keyed by the
/// stable metric names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Every [`Counter`], declaration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Every [`Gauge`] followed by the `mem.*` allocator levels.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every [`LabeledCounter`] family.
    pub labeled_counters: Vec<FamilySnapshot<u64>>,
    /// Every [`Hist`], declaration order.
    pub histograms: Vec<(&'static str, Histogram)>,
    /// Every [`LabeledHist`] family.
    pub labeled_histograms: Vec<FamilySnapshot<Histogram>>,
    /// Span aggregates keyed by slash-separated path.
    pub spans: BTreeMap<String, SpanStat>,
}

/// The process-default registry: what every thread records into unless
/// a scoped registry is current.
static DEFAULT: Registry = Registry::new();

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// The entered registry, if any (none once thread-local storage is torn
/// down).
fn scoped() -> Option<Arc<Registry>> {
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

/// Run `f` on the calling thread's current registry (the process
/// default unless one was entered).
pub fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    f(scoped().as_deref().unwrap_or(&DEFAULT))
}

/// A handle on the calling thread's current registry, for handing on to
/// threads it spawns: call [`RegistryHandle::enter`] on the new thread.
#[derive(Debug, Clone, Default)]
pub struct RegistryHandle(Option<Arc<Registry>>);

impl RegistryHandle {
    /// Make the handled registry current on the calling thread until the
    /// guard drops.
    pub fn enter(&self) -> Entered {
        enter(self.0.clone())
    }
}

/// The calling thread's current registry.
pub fn current() -> RegistryHandle {
    RegistryHandle(scoped())
}

fn enter(reg: Option<Arc<Registry>>) -> Entered {
    let prev = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), reg));
    Entered {
        prev,
        _not_send: PhantomData,
    }
}

/// Scope guard from [`Registry::enter`] / [`RegistryHandle::enter`]:
/// restores the previously current registry on drop. Bound to the
/// thread that entered.
#[must_use = "the registry is only current while the guard lives"]
#[derive(Debug)]
pub struct Entered {
    prev: Option<Arc<Registry>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Add `n` to a counter of the current registry.
#[inline]
pub fn count(c: Counter, n: u64) {
    with_current(|r| r.count(c, n));
}

/// Move a gauge of the current registry by `delta`.
#[inline]
pub fn gauge_add(g: Gauge, delta: i64) {
    with_current(|r| r.gauge_add(g, delta));
}

/// Add one to a labeled counter cell of the current registry.
pub fn count_labeled(f: LabeledCounter, value: &str) {
    with_current(|r| r.count_labeled(f, value));
}

/// Record a histogram sample into the current registry.
#[inline]
pub fn observe(h: Hist, v: f64) {
    with_current(|r| r.observe(h, v));
}

/// Record a labeled histogram sample into the current registry.
pub fn observe_labeled(f: LabeledHist, value: &str, v: f64) {
    with_current(|r| r.observe_labeled(f, value, v));
}

impl Counter {
    /// This counter's value in the current registry.
    pub fn get(self) -> u64 {
        with_current(|r| r.counter(self))
    }
}

/// Constant-style aliases of [`Counter`] variants, read with
/// [`Counter::get`].
pub mod counters {
    pub use super::Counter::ServeRejectedBackpressure as SERVE_REJECTED_BACKPRESSURE;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names<T>(items: &[(&'static str, T)]) -> Vec<&'static str> {
        items.iter().map(|(n, _)| *n).collect()
    }

    #[test]
    fn fast_counter_accumulates() {
        let r = Registry::new();
        r.count(Counter::Spmv, 1);
        r.count(Counter::Spmv, 4);
        assert_eq!(r.counter(Counter::Spmv), 5);
        assert_eq!(r.counter(Counter::CgSolves), 0);
    }

    #[test]
    fn well_known_counters_have_stable_names() {
        assert_eq!(
            names(&Registry::new().snapshot().counters),
            vec![
                "linalg.spmv",
                "linalg.cg_solves",
                "linalg.cg_iterations",
                "linalg.jl_projections",
                "commute.oracle_builds",
                "commute.incremental_updates",
                "commute.rebuild_fallbacks",
                "store.cache_hits",
                "store.cache_misses",
                "store.bytes_read",
                "serve.requests",
                "serve.rejected_backpressure",
                "part.blocks",
                "part.boundary_edges",
                "part.block_solves",
                "journal.appends",
                "journal.bytes_written",
                "journal.compactions",
                "journal.recovered_sessions",
                "journal.torn_tails",
                "serve.rate_limited"
            ]
        );
    }

    #[test]
    fn well_known_gauges_have_stable_names() {
        assert_eq!(
            names(&Registry::new().snapshot().gauges),
            vec![
                "serve.queue_depth",
                "serve.inflight_requests",
                "serve.sessions_active",
                "mem.heap_bytes",
                "mem.heap_peak_bytes",
                "mem.allocs",
                "mem.frees",
                "mem.bytes_allocated"
            ]
        );
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        r.gauge_add(Gauge::ServeQueueDepth, 1);
        r.gauge_add(Gauge::ServeQueueDepth, 1);
        r.gauge_add(Gauge::ServeQueueDepth, -1);
        assert_eq!(r.gauge(Gauge::ServeQueueDepth), 1);
        r.gauge_add(Gauge::ServeQueueDepth, 6);
        assert_eq!(r.gauge(Gauge::ServeQueueDepth), 7);
        assert_eq!(r.gauge(Gauge::ServeSessionsActive), 0);
    }

    #[test]
    fn labeled_counters_route_by_value_with_catch_all() {
        let r = Registry::new();
        let fam = LabeledCounter::RebuildFallbacks;
        r.count_labeled(fam, "structural");
        r.count_labeled(fam, "structural");
        r.count_labeled(fam, "refresh");
        r.count_labeled(fam, "never-declared");
        assert_eq!(
            r.snapshot().labeled_counters,
            vec![FamilySnapshot {
                name: "commute.rebuild_fallbacks",
                label: "reason",
                cells: vec![
                    ("structural", 2),
                    ("degenerate", 0),
                    ("unsupported", 0),
                    ("refresh", 1),
                    ("cost", 0),
                    ("other", 1)
                ],
            }]
        );
    }

    #[test]
    fn registry_counters_and_histograms() {
        let r = Registry::new();
        r.count(Counter::OracleBuilds, 2);
        r.count(Counter::OracleBuilds, 3);
        r.observe(Hist::OracleBuildSecs, 1.0);
        r.observe(Hist::OracleBuildSecs, 5.0);
        let snap = r.snapshot();
        assert_eq!(snap.counters[Counter::OracleBuilds as usize].1, 5);
        let (name, h) = &snap.histograms[Hist::OracleBuildSecs as usize];
        assert_eq!(*name, "oracle_build_secs");
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 5.0);
    }

    #[test]
    fn registry_spans_aggregate_by_path() {
        let r = Registry::new();
        r.record_span("detect/oracle_build", 0.5);
        r.record_span("detect/oracle_build", 0.25);
        r.record_span("detect", 1.0);
        let snap = r.snapshot();
        assert_eq!(snap.spans["detect/oracle_build"].calls, 2);
        assert!((snap.spans["detect/oracle_build"].total_secs - 0.75).abs() < 1e-12);
        assert_eq!(snap.spans["detect"].calls, 1);
    }

    #[test]
    fn concurrent_fast_counter_is_exact() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        r.count(Counter::CgIterations, 1);
                    }
                });
            }
        });
        assert_eq!(r.counter(Counter::CgIterations), 4000);
    }

    #[test]
    fn recording_goes_to_the_entered_registry_and_nests() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        {
            let _o = outer.enter();
            count(Counter::PartBlocks, 1);
            {
                let _i = inner.enter();
                count(Counter::PartBlocks, 10);
                observe(Hist::PackIoSecs, 0.5);
            }
            count(Counter::PartBlocks, 1);
        }
        assert_eq!(outer.counter(Counter::PartBlocks), 2);
        assert_eq!(inner.counter(Counter::PartBlocks), 10);
        assert_eq!(inner.histogram(Hist::PackIoSecs).count, 1);
        assert_eq!(outer.histogram(Hist::PackIoSecs).count, 0);
    }

    #[test]
    fn handles_carry_the_registry_to_spawned_threads() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        let handle = current();
        std::thread::spawn(move || {
            // A fresh thread starts on the process default...
            assert!(current().0.is_none());
            // ...until the spawner's handle is entered.
            let _g = handle.enter();
            count(Counter::JournalAppends, 3);
            assert_eq!(Counter::JournalAppends.get(), 3);
        })
        .join()
        .unwrap();
        assert_eq!(reg.counter(Counter::JournalAppends), 3);
    }
}
