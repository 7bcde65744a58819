//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, start, end, parent span and operation id (a job
//! index, or a request's trace id). Spans stay in memory and are
//! written once, at the end, as Chrome trace-event JSON ("X" events),
//! which Perfetto opens directly.

use cad_obs::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (a layer call such as `read_pack`).
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Small per-thread lane number.
    pub tid: u64,
    /// Durations attributed to this span without a start time of their
    /// own (e.g. server-side stage times from a response), plus other
    /// numeric annotations.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

fn lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span store poisoned")
    }

    /// Store a finished span; returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` inside a span named `name`; `f` receives the span's index
    /// so the spans it opens can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.record(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent,
            op,
            tid: lane(),
            args: Vec::new(),
        });
        let out = f(id);
        let end = self.now();
        self.lock()[id].end = end;
        out
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of each span named `name`: its duration minus the part
    /// of it that the union of its children's intervals covers.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.lock();
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let mut kids: Vec<(f64, f64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .collect();
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.secs() - covered).max(0.0)
            })
            .collect()
    }

    /// Render every span as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        let spans = self.lock();
        let us = |s: f64| Json::Num((s * 1e6).round());
        let events: Vec<Json> = spans
            .iter()
            .map(|s| {
                let mut args = vec![("op", Json::Num(s.op as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Str(spans[p].name.to_string())));
                }
                args.extend(s.args.iter().map(|&(k, v)| (k, Json::Num(v))));
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("cat", Json::Str("benchmark".to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", us(s.start)),
                    ("dur", us(s.secs())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.tid as f64)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".to_string())),
        ])
        .compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
            tid: 1,
            args: Vec::new(),
        };
        let job = t.record(span("job", 0.0, 10.0, None));
        // Two overlapping children (parallel workers) and one disjoint.
        t.record(span("build", 1.0, 4.0, Some(job)));
        t.record(span("build", 2.0, 5.0, Some(job)));
        t.record(span("score", 6.0, 7.0, Some(job)));
        let self_times = t.self_times("job");
        assert_eq!(self_times.len(), 1);
        assert!((self_times[0] - 5.0).abs() < 1e-12, "{self_times:?}");
        assert_eq!(t.durations("build"), vec![3.0, 3.0]);
        let json = cad_obs::parse_json(&t.chrome_json()).unwrap();
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let t = Tracer::new();
        let inner = t.span("outer", None, 7, |id| {
            t.span("inner", Some(id), 7, |inner| inner)
        });
        let spans = t.lock().clone();
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start <= spans[inner].start && spans[inner].end <= spans[0].end);
    }
}
