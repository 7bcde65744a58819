//! Chrome-trace / Perfetto timeline export.
//!
//! Renders the two observability stores the process already maintains —
//! the span-registry aggregates ([`crate::metrics::MetricsSnapshot`])
//! and the flight-recorder ring ([`crate::events::RingSnapshot`]) — as
//! [trace-event JSON], the format `chrome://tracing` and
//! <https://ui.perfetto.dev> load directly.
//!
//! Mapping:
//!
//! * [`EventKind::SpanClose`] records become `"X"` *complete* duration
//!   events: `ts` is the span's start (record timestamp minus duration),
//!   `dur` its length, both in microseconds. The track (`tid`) is the
//!   low 32 bits of the ambient trace id, so each request renders as its
//!   own lane; records stamped outside a request share the `untraced`
//!   lane.
//! * [`EventKind::Request`] and [`EventKind::QueueWait`] likewise become
//!   `"X"` events (categories `request` / `queue`).
//! * [`EventKind::Update`], [`EventKind::Fallback`], [`EventKind::Error`]
//!   and [`EventKind::Eviction`] become `"i"` *instant* events
//!   (thread-scoped), with the record detail in `args`.
//! * The trace id doubles as a Perfetto **flow id**: request events
//!   carry `flow_out` and span events `flow_in` with the same
//!   `bind_id` (`0x` + the 16-hex trace id header value), so the viewer
//!   draws arrows from each request to the work it caused.
//! * [`EventKind::SpanOpen`] records are skipped — the matching close
//!   already carries the duration.
//!
//! The span registry holds only aggregates (calls + total seconds), not
//! timestamps, so it is rendered on a synthetic track (`tid` 0,
//! `aggregates`): each slash-joined path becomes an `"X"` event whose
//! children are laid out sequentially starting at the parent's start.
//! Nesting in the viewer therefore mirrors the span paths exactly —
//! `detect/score` always sits inside `detect`.
//!
//! [trace-event JSON]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use crate::events::{EventKind, RingSnapshot};
use crate::metrics::MetricsSnapshot;
use crate::Json;

/// The synthetic track id carrying the span-registry aggregates.
pub const AGGREGATE_TID: u64 = 0;

/// The `pid` all events share (one process, many tracks).
pub const PROFILE_PID: u64 = 1;

/// Snapshot the current registry's flight recorder and span aggregates
/// and render them as one trace-event JSON document. `limit` bounds the
/// number of ring records rendered (newest retained).
pub fn capture(limit: usize) -> Json {
    crate::metrics::with_current(|r| {
        render_trace_events(&r.events().snapshot(limit), &r.snapshot())
    })
}

/// Render explicit snapshots as a trace-event JSON document:
/// `{"displayTimeUnit": "ms", "traceEvents": [...]}`.
pub fn render_trace_events(snap: &RingSnapshot, metrics: &MetricsSnapshot) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(thread_name_event(AGGREGATE_TID, "aggregates"));
    aggregate_events(&mut events, metrics);
    let mut lanes: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in &snap.events {
        if rec.kind == EventKind::SpanOpen {
            continue;
        }
        lanes.entry(lane_tid(rec.trace_id)).or_insert(rec.trace_id);
        events.push(record_event(rec));
    }
    for (tid, trace_id) in &lanes {
        let label = if *trace_id == 0 {
            "untraced".to_string()
        } else {
            format!("trace {}", crate::trace::id_hex(*trace_id))
        };
        events.push(thread_name_event(*tid, &label));
    }
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".to_string())),
        ("traceEvents", Json::Arr(events)),
    ])
}

/// The track a record renders on: the low 32 bits of its trace id,
/// floored at 1 so nothing collides with the aggregates track.
fn lane_tid(trace_id: u64) -> u64 {
    (trace_id & 0xffff_ffff).max(1)
}

fn thread_name_event(tid: u64, label: &str) -> Json {
    Json::obj(vec![
        ("name", Json::Str("thread_name".to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Num(PROFILE_PID as f64)),
        ("tid", Json::Num(tid as f64)),
        (
            "args",
            Json::obj(vec![("name", Json::Str(label.to_string()))]),
        ),
    ])
}

/// Lay the span-registry aggregates out on the synthetic track. Paths
/// arrive lexicographically sorted (BTreeMap), so a parent is always
/// placed before its children; each child starts at its parent's
/// running cursor, which guarantees real nesting in the viewer.
fn aggregate_events(events: &mut Vec<Json>, metrics: &MetricsSnapshot) {
    // path -> (start_us, cursor_us for its next child)
    let mut placed: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut root_cursor = 0.0f64;
    for (path, stat) in &metrics.spans {
        let dur_us = stat.total_secs * 1e6;
        let parent = longest_placed_prefix(path, &placed);
        let start = match parent {
            Some(p) => {
                let slot = placed.get_mut(p).expect("parent placed");
                let start = slot.1;
                slot.1 += dur_us;
                start
            }
            None => {
                let start = root_cursor;
                root_cursor += dur_us;
                start
            }
        };
        placed.insert(path.as_str(), (start, start));
        events.push(Json::obj(vec![
            ("name", Json::Str(path.clone())),
            ("cat", Json::Str("aggregate".to_string())),
            ("ph", Json::Str("X".to_string())),
            ("ts", Json::Num(start)),
            ("dur", Json::Num(dur_us)),
            ("pid", Json::Num(PROFILE_PID as f64)),
            ("tid", Json::Num(AGGREGATE_TID as f64)),
            (
                "args",
                Json::obj(vec![
                    ("calls", Json::Num(stat.calls as f64)),
                    ("total_secs", Json::Num(stat.total_secs)),
                ]),
            ),
        ]));
    }
}

/// The longest proper slash-prefix of `path` already placed, if any.
fn longest_placed_prefix<'a>(
    path: &str,
    placed: &BTreeMap<&'a str, (f64, f64)>,
) -> Option<&'a str> {
    let mut rest = path;
    while let Some(cut) = rest.rfind('/') {
        rest = &path[..cut];
        if let Some((&k, _)) = placed.get_key_value(rest) {
            return Some(k);
        }
    }
    None
}

/// Render one flight-recorder record as its trace event.
fn record_event(rec: &crate::events::EventRecord) -> Json {
    let tid = lane_tid(rec.trace_id);
    let end_us = rec.ts_ms as f64 * 1000.0;
    let mut fields: Vec<(&str, Json)> = vec![("name", Json::Str(rec.name.to_string()))];
    let mut args: Vec<(&str, Json)> = vec![
        ("seq", Json::Num(rec.seq as f64)),
        ("session", Json::Num(rec.session_id as f64)),
        ("trace_id", Json::Str(crate::trace::id_hex(rec.trace_id))),
    ];
    match rec.kind {
        EventKind::SpanClose | EventKind::Request | EventKind::QueueWait => {
            let cat = match rec.kind {
                EventKind::SpanClose => "span",
                EventKind::Request => "request",
                _ => "queue",
            };
            let dur_us = rec.secs * 1e6;
            fields.push(("cat", Json::Str(cat.to_string())));
            fields.push(("ph", Json::Str("X".to_string())));
            fields.push(("ts", Json::Num(end_us - dur_us)));
            fields.push(("dur", Json::Num(dur_us)));
            if rec.trace_id != 0 {
                let flow = if rec.kind == EventKind::Request {
                    "flow_out"
                } else {
                    "flow_in"
                };
                fields.push((flow, Json::Bool(true)));
                fields.push((
                    "bind_id",
                    Json::Str(format!("0x{}", crate::trace::id_hex(rec.trace_id))),
                ));
            }
            if rec.kind == EventKind::Request {
                args.push(("status", Json::Num(rec.detail as f64)));
            }
        }
        _ => {
            fields.push(("cat", Json::Str(rec.kind.name().to_string())));
            fields.push(("ph", Json::Str("i".to_string())));
            fields.push(("s", Json::Str("t".to_string())));
            fields.push(("ts", Json::Num(end_us)));
            args.push(("detail", Json::Num(rec.detail as f64)));
        }
    }
    fields.push(("pid", Json::Num(PROFILE_PID as f64)));
    fields.push(("tid", Json::Num(tid as f64)));
    fields.push(("args", Json::obj(args)));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventRecord;
    use crate::metrics::SpanStat;

    fn span_metrics(spans: &[(&str, u64, f64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            spans: spans
                .iter()
                .map(|&(p, calls, total_secs)| (p.to_string(), SpanStat { calls, total_secs }))
                .collect(),
            ..Default::default()
        }
    }

    fn empty_ring() -> RingSnapshot {
        RingSnapshot {
            total: 0,
            dropped: 0,
            events: Vec::new(),
        }
    }

    fn rec(
        kind: EventKind,
        name: &'static str,
        trace_id: u64,
        ts_ms: u64,
        secs: f64,
    ) -> EventRecord {
        EventRecord {
            seq: 1,
            ts_ms,
            trace_id,
            session_id: 7,
            kind,
            name,
            secs,
            detail: 200,
        }
    }

    fn trace_events(doc: &Json) -> Vec<Json> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .to_vec()
    }

    fn field_f64(ev: &Json, key: &str) -> f64 {
        ev.get(key).and_then(Json::as_f64).expect("numeric field")
    }

    fn find_x<'a>(events: &'a [Json], name: &str) -> &'a Json {
        events
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .unwrap_or_else(|| panic!("no X event named {name}"))
    }

    #[test]
    fn output_is_valid_parseable_trace_event_json() {
        let doc = render_trace_events(&empty_ring(), &span_metrics(&[("detect", 1, 1.0)]));
        let text = doc.compact();
        let back = crate::parse_json(&text).expect("round-trips");
        assert_eq!(
            back.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        assert!(back.get("traceEvents").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn aggregates_nest_children_inside_parents_sequentially() {
        let metrics = span_metrics(&[
            ("detect", 1, 1.0),
            ("detect/build", 1, 0.5),
            ("detect/score", 2, 0.25),
            ("other", 1, 2.0),
        ]);
        let events = trace_events(&render_trace_events(&empty_ring(), &metrics));
        let parent = find_x(&events, "detect");
        let build = find_x(&events, "detect/build");
        let score = find_x(&events, "detect/score");
        let other = find_x(&events, "other");
        let (p0, pd) = (field_f64(parent, "ts"), field_f64(parent, "dur"));
        // First child starts at the parent's start; the next follows it.
        assert_eq!(field_f64(build, "ts"), p0);
        assert_eq!(field_f64(score, "ts"), p0 + field_f64(build, "dur"));
        // Both children end inside the parent interval.
        assert!(field_f64(build, "ts") + field_f64(build, "dur") <= p0 + pd);
        assert!(field_f64(score, "ts") + field_f64(score, "dur") <= p0 + pd);
        // A sibling root is laid out after the first root ends.
        assert_eq!(field_f64(other, "ts"), p0 + pd);
        // All aggregates live on the synthetic track.
        assert_eq!(field_f64(parent, "tid"), AGGREGATE_TID as f64);
        let args = parent.get("args").expect("args");
        assert_eq!(args.get("calls").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn requests_emit_flow_out_and_spans_flow_in_with_matching_bind_id() {
        let ring = RingSnapshot {
            total: 2,
            dropped: 0,
            events: vec![
                rec(EventKind::Request, "push", 0xabcd, 1_000, 0.5),
                rec(EventKind::SpanClose, "laplacian_solve", 0xabcd, 1_000, 0.25),
            ],
        };
        let events = trace_events(&render_trace_events(&ring, &span_metrics(&[])));
        let req = find_x(&events, "push");
        let span = find_x(&events, "laplacian_solve");
        assert_eq!(req.get("flow_out").and_then(Json::as_bool), Some(true));
        assert_eq!(span.get("flow_in").and_then(Json::as_bool), Some(true));
        let bind = req.get("bind_id").and_then(Json::as_str).expect("bind_id");
        assert_eq!(bind, "0x000000000000abcd");
        assert_eq!(span.get("bind_id").and_then(Json::as_str), Some(bind));
        // ts is the start (end minus duration), dur the length, in us.
        assert_eq!(field_f64(req, "ts"), 1_000.0 * 1000.0 - 0.5e6);
        assert_eq!(field_f64(req, "dur"), 0.5e6);
        // Both lanes carry the low 32 bits of the trace id.
        assert_eq!(field_f64(req, "tid"), 0xabcd as f64);
        // Request status code lands in args.
        let args = req.get("args").expect("args");
        assert_eq!(args.get("status").and_then(Json::as_u64), Some(200));
    }

    #[test]
    fn fallbacks_become_instant_events_and_span_opens_are_skipped() {
        let ring = RingSnapshot {
            total: 3,
            dropped: 0,
            events: vec![
                rec(EventKind::SpanOpen, "score", 5, 1_000, 0.0),
                rec(EventKind::Fallback, "structural", 5, 1_000, 0.0),
                rec(EventKind::Eviction, "session_evicted", 0, 1_000, 0.0),
            ],
        };
        let events = trace_events(&render_trace_events(&ring, &span_metrics(&[])));
        assert!(!events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("score")));
        let fb = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("structural"))
            .expect("fallback rendered");
        assert_eq!(fb.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(fb.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(fb.get("cat").and_then(Json::as_str), Some("fallback"));
        let args = fb.get("args").expect("args");
        assert_eq!(args.get("detail").and_then(Json::as_u64), Some(200));
        // The untraced record renders on the floor lane, not tid 0.
        let ev = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("session_evicted"))
            .expect("eviction rendered");
        assert_eq!(field_f64(ev, "tid"), 1.0);
    }

    #[test]
    fn every_lane_gets_a_thread_name_metadata_event() {
        let ring = RingSnapshot {
            total: 1,
            dropped: 0,
            events: vec![rec(EventKind::Request, "push", 0xbeef, 1_000, 0.1)],
        };
        let events = trace_events(&render_trace_events(&ring, &span_metrics(&[])));
        let metas: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2); // aggregates + the request lane
        let names: Vec<&str> = metas
            .iter()
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(names.contains(&"aggregates"));
        assert!(names.contains(&"trace 000000000000beef"));
    }
}
