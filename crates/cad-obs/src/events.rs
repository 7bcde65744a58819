//! The flight recorder: a lock-free bounded ring of structured events.
//!
//! Every notable per-request incident — span open/close, queue waits,
//! oracle update outcomes, rebuild fallbacks, errors, session evictions
//! — is recorded as one fixed-size [`EventRecord`] stamped with the
//! ambient [`crate::trace::TraceCtx`]. The ring holds the newest
//! [`RING_CAPACITY`] records, overwriting the oldest; every overwritten
//! (or superseded-in-flight) record advances an explicit `dropped`
//! counter, so `total = retained + dropped` always balances.
//!
//! The implementation is wait-free for the common path and entirely
//! safe code: a global `fetch_add` claims a sequence number, and each
//! slot is a tiny all-atomic seqlock (odd version = write in flight).
//! Concurrent writers that collide on a slot (two claims a full ring
//! apart) serialize on the version CAS; a writer that finds its slot
//! already taken by a *newer* sequence abandons its write — that record
//! was doomed to be overwritten anyway and is exactly the one the
//! `dropped` counter already charged. Readers ([`FlightRecorder::
//! snapshot`]) validate the version before and after copying a slot and
//! skip records caught mid-write.
//!
//! Event names come from a closed table ([`EVENT_NAMES`]) so a record
//! stays plain-old-data (everything is a `u64`); unknown names map to
//! `"other"`. This is the same bounded-cardinality discipline the
//! labeled Prometheus series follow (DESIGN.md §12).

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of retained records; older ones are overwritten.
pub const RING_CAPACITY: usize = 1024;

/// What happened. The discriminant is stored in the ring, so variants
/// are append-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A trace child span was entered (`secs` is 0).
    SpanOpen = 0,
    /// A trace child span closed; `secs` is its duration.
    SpanClose = 1,
    /// One completed HTTP request; `detail` is the status code.
    Request = 2,
    /// Time a connection spent queued before a worker picked it up.
    QueueWait = 3,
    /// An oracle step outcome; `name` is the mode taken
    /// (`incremental`/`rebuild`), `detail` the change count.
    Update = 4,
    /// An incremental update fell back to a rebuild; `name` is the
    /// [`RebuildReason`](https://docs.rs) name.
    Fallback = 5,
    /// A request failed; `name` is the error code, `detail` the status.
    Error = 6,
    /// A session was evicted or deleted; `detail` is the session id.
    Eviction = 7,
    /// A session was rebuilt from its journal at boot; `name` is
    /// `recovery` (or `torn_tail` when a truncated final frame was
    /// dropped), `detail` the session id, `secs` the replay time.
    Recovery = 8,
    /// A journal was compacted to a checkpoint segment; `detail` is the
    /// session id, `secs` the compaction time.
    Compaction = 9,
}

impl EventKind {
    /// Stable lowercase name (debug endpoint, stderr dumps).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose => "span_close",
            EventKind::Request => "request",
            EventKind::QueueWait => "queue_wait",
            EventKind::Update => "update",
            EventKind::Fallback => "fallback",
            EventKind::Error => "error",
            EventKind::Eviction => "eviction",
            EventKind::Recovery => "recovery",
            EventKind::Compaction => "compaction",
        }
    }

    fn from_code(code: u64) -> EventKind {
        match code {
            1 => EventKind::SpanClose,
            2 => EventKind::Request,
            3 => EventKind::QueueWait,
            4 => EventKind::Update,
            5 => EventKind::Fallback,
            6 => EventKind::Error,
            7 => EventKind::Eviction,
            8 => EventKind::Recovery,
            9 => EventKind::Compaction,
            _ => EventKind::SpanOpen,
        }
    }
}

/// The closed set of event names the ring can carry. Index 0 is the
/// catch-all; instrumentation points passing a name not listed here
/// record as `"other"` (add the name to the table instead).
pub const EVENT_NAMES: &[&str] = &[
    "other",
    // request routes
    "request",
    "queue_wait",
    "push",
    "create",
    "status",
    "delete",
    "admin",
    "debug_trace",
    "debug_profile",
    "metrics",
    "healthz",
    "shutdown",
    "drain",
    // the span `cad profile` wraps around its command
    "command",
    // detector phases
    "oracle_build",
    "oracle_update",
    "score",
    "apply_delta",
    "laplacian_solve",
    // oracle step modes
    "incremental",
    "rebuild",
    // rebuild fallback reasons
    "structural",
    "degenerate",
    "unsupported",
    "refresh",
    "cost",
    // session lifecycle
    "session_created",
    "session_evicted",
    "session_deleted",
    "rejected_backpressure",
    // error codes
    "bad_request",
    "timeout",
    "body_too_large",
    "head_too_large",
    "overloaded",
    "not_found",
    "method_not_allowed",
    "conflict",
    "session_cap",
    "unknown_session",
    "internal",
    "rate_limited",
    // journal lifecycle
    "recovery",
    "torn_tail",
    "compaction",
    "journal_error",
];

fn name_code(name: &str) -> u64 {
    EVENT_NAMES.iter().position(|&n| n == name).unwrap_or(0) as u64
}

fn name_of(code: u64) -> &'static str {
    EVENT_NAMES.get(code as usize).copied().unwrap_or("other")
}

/// One recorded event, as copied out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Global sequence number (monotone; gaps mean dropped records).
    pub seq: u64,
    /// Wall-clock Unix epoch milliseconds at record time.
    pub ts_ms: u64,
    /// The ambient trace id (0 outside a request).
    pub trace_id: u64,
    /// The ambient session id (0 outside a session).
    pub session_id: u64,
    /// What happened.
    pub kind: EventKind,
    /// Name from the closed [`EVENT_NAMES`] table.
    pub name: &'static str,
    /// Duration / wait seconds (0 when not applicable).
    pub secs: f64,
    /// Kind-specific detail (status code, change count, session id...).
    pub detail: u64,
}

impl EventRecord {
    /// The record as a JSON object (debug endpoint, stderr dumps).
    pub fn to_json(&self) -> crate::Json {
        crate::Json::obj(vec![
            ("seq", crate::Json::Num(self.seq as f64)),
            ("ts_ms", crate::Json::Num(self.ts_ms as f64)),
            (
                "trace_id",
                crate::Json::Str(crate::trace::id_hex(self.trace_id)),
            ),
            ("session", crate::Json::Num(self.session_id as f64)),
            ("kind", crate::Json::Str(self.kind.name().to_string())),
            ("name", crate::Json::Str(self.name.to_string())),
            ("secs", crate::Json::Num(self.secs)),
            ("detail", crate::Json::Num(self.detail as f64)),
        ])
    }
}

/// One all-atomic slot. `version` is the seqlock: 0 = never written,
/// odd = write in flight, `2 * seq + 2` = record `seq` committed.
struct Slot {
    version: AtomicU64,
    seq: AtomicU64,
    ts_ms: AtomicU64,
    trace_id: AtomicU64,
    session_id: AtomicU64,
    /// `kind` in the low 8 bits, name code above.
    meta: AtomicU64,
    secs_bits: AtomicU64,
    detail: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            ts_ms: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            session_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            secs_bits: AtomicU64::new(0),
            detail: AtomicU64::new(0),
        }
    }
}

/// A bounded event ring. Each [`crate::Registry`] owns one; [`record`]
/// writes to the current registry's ring.
pub struct FlightRecorder {
    head: AtomicU64,
    dropped: AtomicU64,
    slots: [Slot; RING_CAPACITY],
}

/// A consistent view of the ring: the retained records (oldest first)
/// and the drop accounting at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSnapshot {
    /// Records ever claimed (monotone).
    pub total: u64,
    /// Records lost to overwrite (monotone; `total - dropped` is an
    /// upper bound on what [`RingSnapshot::events`] can hold).
    pub dropped: u64,
    /// The newest retained records, ascending by `seq`.
    pub events: Vec<EventRecord>,
}

/// Record an event into the current registry's ring, stamped with this
/// thread's ambient [`crate::trace::current`] context.
pub fn record(kind: EventKind, name: &str, secs: f64, detail: u64) {
    let ctx = crate::trace::current();
    crate::metrics::with_current(|r| r.events().record_for(ctx, kind, name, secs, detail));
}

/// Wall-clock Unix epoch milliseconds — the timestamp events and
/// access-log lines are stamped with.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// An empty ring (const, for the process-default registry).
    pub const fn new() -> Self {
        FlightRecorder {
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: [const { Slot::new() }; RING_CAPACITY],
        }
    }

    /// Record one event under an explicit trace context.
    pub fn record_for(
        &self,
        ctx: crate::trace::TraceCtx,
        kind: EventKind,
        name: &str,
        secs: f64,
        detail: u64,
    ) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        if seq >= RING_CAPACITY as u64 {
            // Claiming this slot evicts record `seq - RING_CAPACITY`,
            // whether or not its write ever landed.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(seq % RING_CAPACITY as u64) as usize];
        let begin = 2 * seq + 1;
        let end = 2 * seq + 2;
        loop {
            let v = slot.version.load(Ordering::Acquire);
            if v >= end {
                // A writer a full ring ahead already owns this slot;
                // our record is the dropped one.
                return;
            }
            if v % 2 == 1 {
                // An older write is mid-flight; wait it out.
                std::hint::spin_loop();
                continue;
            }
            if slot
                .version
                .compare_exchange(v, begin, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            slot.seq.store(seq, Ordering::Relaxed);
            slot.ts_ms.store(now_ms(), Ordering::Relaxed);
            slot.trace_id.store(ctx.trace_id, Ordering::Relaxed);
            slot.session_id.store(ctx.session_id, Ordering::Relaxed);
            slot.meta
                .store(kind as u64 | (name_code(name) << 8), Ordering::Relaxed);
            slot.secs_bits.store(secs.to_bits(), Ordering::Relaxed);
            slot.detail.store(detail, Ordering::Relaxed);
            slot.version.store(end, Ordering::Release);
            return;
        }
    }

    /// Total records ever claimed.
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records lost to overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The newest `limit` retained records, oldest first, plus the drop
    /// accounting. Records caught mid-write are skipped, never torn.
    pub fn snapshot(&self, limit: usize) -> RingSnapshot {
        let total = self.total();
        let dropped = self.dropped();
        let mut events = Vec::with_capacity(RING_CAPACITY.min(total as usize));
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue;
            }
            let rec = EventRecord {
                seq: slot.seq.load(Ordering::Relaxed),
                ts_ms: slot.ts_ms.load(Ordering::Relaxed),
                trace_id: slot.trace_id.load(Ordering::Relaxed),
                session_id: slot.session_id.load(Ordering::Relaxed),
                kind: EventKind::from_code(slot.meta.load(Ordering::Relaxed) & 0xff),
                name: name_of(slot.meta.load(Ordering::Relaxed) >> 8),
                secs: f64::from_bits(slot.secs_bits.load(Ordering::Relaxed)),
                detail: slot.detail.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) == v1 {
                events.push(rec);
            }
        }
        events.sort_unstable_by_key(|r| r.seq);
        if events.len() > limit {
            events.drain(..events.len() - limit);
        }
        RingSnapshot {
            total,
            dropped,
            events,
        }
    }

    /// Write every retained record as one NDJSON line (plus a final
    /// accounting line) — the drain/panic stderr dump.
    pub fn dump(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let snap = self.snapshot(RING_CAPACITY);
        for rec in &snap.events {
            writeln!(w, "{}", rec.to_json().compact())?;
        }
        writeln!(
            w,
            "{{\"flight_recorder\": {{\"total\": {}, \"retained\": {}, \"dropped\": {}}}}}",
            snap.total,
            snap.events.len(),
            snap.dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCtx;

    fn ctx(trace: u64) -> TraceCtx {
        TraceCtx {
            trace_id: trace,
            session_id: 9,
        }
    }

    #[test]
    fn records_round_trip_with_trace_attribution() {
        let rec = FlightRecorder::new();
        rec.record_for(ctx(0xfeed), EventKind::QueueWait, "queue_wait", 0.25, 0);
        rec.record_for(ctx(0xfeed), EventKind::Update, "incremental", 0.5, 3);
        let snap = rec.snapshot(16);
        assert_eq!(snap.total, 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        let first = &snap.events[0];
        assert_eq!(first.kind, EventKind::QueueWait);
        assert_eq!(first.name, "queue_wait");
        assert_eq!(first.trace_id, 0xfeed);
        assert_eq!(first.session_id, 9);
        assert_eq!(first.secs.to_bits(), 0.25f64.to_bits());
        let second = &snap.events[1];
        assert_eq!(second.name, "incremental");
        assert_eq!(second.detail, 3);
        assert!(second.seq > first.seq);
    }

    #[test]
    fn unknown_names_map_to_other() {
        let rec = FlightRecorder::new();
        rec.record_for(ctx(1), EventKind::Error, "never-in-the-table", 0.0, 500);
        let snap = rec.snapshot(1);
        assert_eq!(snap.events[0].name, "other");
    }

    #[test]
    fn wraparound_overwrites_oldest_and_counts_drops() {
        let rec = FlightRecorder::new();
        let n = RING_CAPACITY as u64 + 37;
        for i in 0..n {
            rec.record_for(ctx(1), EventKind::Request, "request", 0.0, i);
        }
        assert_eq!(rec.total(), n);
        assert_eq!(rec.dropped(), 37);
        let snap = rec.snapshot(RING_CAPACITY);
        assert_eq!(snap.events.len(), RING_CAPACITY);
        // Oldest retained is exactly the first non-dropped sequence.
        assert_eq!(snap.events.first().unwrap().seq, 37);
        assert_eq!(snap.events.last().unwrap().seq, n - 1);
    }

    #[test]
    fn limit_returns_the_newest_in_order() {
        let rec = FlightRecorder::new();
        for i in 0..10u64 {
            rec.record_for(ctx(1), EventKind::Request, "request", 0.0, i);
        }
        let snap = rec.snapshot(3);
        let seqs: Vec<u64> = snap.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert!(rec.snapshot(0).events.is_empty());
    }

    #[test]
    fn event_json_is_compact_and_parseable() {
        let rec = EventRecord {
            seq: 5,
            ts_ms: 1_700_000_000_000,
            trace_id: 0xab,
            session_id: 2,
            kind: EventKind::Fallback,
            name: "structural",
            secs: 0.125,
            detail: 4,
        };
        let line = rec.to_json().compact();
        let v = crate::parse_json(&line).expect("parses");
        assert_eq!(
            v.get("trace_id").and_then(crate::Json::as_str),
            Some("00000000000000ab")
        );
        assert_eq!(
            v.get("kind").and_then(crate::Json::as_str),
            Some("fallback")
        );
        assert_eq!(
            v.get("name").and_then(crate::Json::as_str),
            Some("structural")
        );
        assert_eq!(v.get("detail").and_then(crate::Json::as_u64), Some(4));
    }

    #[test]
    fn dump_writes_ndjson_with_accounting() {
        let rec = FlightRecorder::new();
        rec.record_for(ctx(3), EventKind::Eviction, "session_evicted", 0.0, 11);
        let mut out = Vec::new();
        rec.dump(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(crate::parse_json(lines[0]).is_ok());
        let tail = crate::parse_json(lines[1]).unwrap();
        let acct = tail.get("flight_recorder").expect("accounting");
        assert_eq!(acct.get("total").and_then(crate::Json::as_u64), Some(1));
        assert_eq!(acct.get("dropped").and_then(crate::Json::as_u64), Some(0));
    }
}
