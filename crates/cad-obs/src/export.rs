//! Live-telemetry export: Prometheus text rendering and the embedded
//! `/metrics` + `/healthz` HTTP endpoint.
//!
//! Everything here is hand-rolled on `std::net::TcpListener` — one
//! accept thread, HTTP/1.1 `GET` only — on top of the shared
//! [`crate::http`] request plumbing (fragmented-write reassembly,
//! header/body caps, read/write deadlines, keep-alive), because the
//! crate is zero-dependency by contract. The server exists to feed a
//! Prometheus scraper (or a `curl` in CI) during `cad watch`; it is not
//! a general web server and deliberately rejects everything but
//! `GET /metrics` and `GET /healthz`.
//!
//! [`render_prometheus`] snapshots the current [`crate::Registry`] —
//! counters, gauges, histograms, their labeled families and the span
//! aggregates — into Prometheus text-exposition format (version 0.0.4):
//! counters as `cad_<name>_total`, histograms as cumulative
//! `_bucket{le=...}` series plus `_sum`/`_count`, span aggregates as
//! `cad_span_seconds_total{path=...}` / `cad_span_calls_total{path=...}`.

use crate::hist::{bucket_le, Histogram, N_BUCKETS};
use crate::http::{self, HttpLimits};
use crate::metrics::{with_current, Registry};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Turn a dotted metric name into a Prometheus-legal one:
/// `linalg.cg_solves` → `cad_linalg_cg_solves`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("cad_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Format an f64 for the exposition format (`+Inf` for infinity).
fn prom_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v.is_nan() {
        "NaN".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// Append one histogram's sample lines (`_bucket`/`_sum`/`_count`),
/// optionally tagged with a `key="value"` label pair. The `# TYPE`
/// header is the caller's job so labeled and unlabeled series of the
/// same family can share one declaration.
fn render_histogram_series(
    out: &mut String,
    base: &str,
    label: Option<(&str, &str)>,
    h: &Histogram,
) {
    let tag = match label {
        Some((k, v)) => format!("{k}=\"{}\",", escape_label(v)),
        None => String::new(),
    };
    let mut cumulative = 0u64;
    for i in 0..N_BUCKETS {
        let c = h.bucket_counts()[i];
        cumulative += c;
        // Only print boundary buckets plus non-empty ones to keep the
        // payload small; cumulative counts stay correct because `le`
        // series are monotone and the final +Inf bucket is always shown.
        if c > 0 || i == N_BUCKETS - 1 {
            out.push_str(&format!(
                "{base}_bucket{{{tag}le=\"{}\"}} {cumulative}\n",
                prom_f64(bucket_le(i))
            ));
        }
    }
    let plain_tag = match label {
        Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label(v)),
        None => String::new(),
    };
    out.push_str(&format!("{base}_sum{plain_tag} {}\n", prom_f64(h.sum)));
    out.push_str(&format!("{base}_count{plain_tag} {}\n", h.count));
}

fn render_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let base = prom_name(name);
    out.push_str(&format!("# HELP {base} {help}\n"));
    out.push_str(&format!("# TYPE {base} histogram\n"));
    render_histogram_series(out, &base, None, h);
}

/// Render the calling thread's current registry as Prometheus text
/// (exposition format 0.0.4). Deterministic given a fixed registry
/// state: counters, gauges and histograms print in their stable
/// declaration order (labeled series in label-value declaration order),
/// span paths in BTreeMap (lexicographic) order.
pub fn render_prometheus() -> String {
    let snap = with_current(Registry::snapshot);
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base}_total counter\n"));
        out.push_str(&format!("{base}_total {value}\n"));
        // A labeled family with the same name shares this declaration:
        // the unlabeled series stays the all-values aggregate.
        for fam in snap.labeled_counters.iter().filter(|f| f.name == *name) {
            for (val, n) in &fam.cells {
                if *n > 0 {
                    out.push_str(&format!(
                        "{base}_total{{{}=\"{}\"}} {n}\n",
                        fam.label,
                        escape_label(val)
                    ));
                }
            }
        }
    }
    // Labeled counter families without an unlabeled sibling.
    for fam in &snap.labeled_counters {
        if snap.counters.iter().any(|(n, _)| *n == fam.name) {
            continue;
        }
        let base = prom_name(fam.name);
        out.push_str(&format!("# TYPE {base}_total counter\n"));
        for (val, n) in &fam.cells {
            if *n > 0 {
                out.push_str(&format!(
                    "{base}_total{{{}=\"{}\"}} {n}\n",
                    fam.label,
                    escape_label(val)
                ));
            }
        }
    }
    for (name, value) in &snap.gauges {
        let base = prom_name(name);
        out.push_str(&format!("# TYPE {base} gauge\n"));
        out.push_str(&format!("{base} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        render_histogram(&mut out, name, "log-bucketed value distribution", h);
        for fam in snap.labeled_histograms.iter().filter(|f| f.name == *name) {
            for (val, lh) in &fam.cells {
                if lh.count > 0 {
                    render_histogram_series(&mut out, &prom_name(name), Some((fam.label, val)), lh);
                }
            }
        }
    }
    // Labeled histogram families without an unlabeled sibling.
    for fam in &snap.labeled_histograms {
        if snap.histograms.iter().any(|(n, _)| *n == fam.name) {
            continue;
        }
        let base = prom_name(fam.name);
        out.push_str(&format!("# TYPE {base} histogram\n"));
        for (val, lh) in &fam.cells {
            if lh.count > 0 {
                render_histogram_series(&mut out, &base, Some((fam.label, val)), lh);
            }
        }
    }
    if !snap.spans.is_empty() {
        out.push_str("# TYPE cad_span_seconds_total counter\n");
        for (path, stat) in &snap.spans {
            out.push_str(&format!(
                "cad_span_seconds_total{{path=\"{}\"}} {}\n",
                escape_label(path),
                prom_f64(stat.total_secs)
            ));
        }
        out.push_str("# TYPE cad_span_calls_total counter\n");
        for (path, stat) in &snap.spans {
            out.push_str(&format!(
                "cad_span_calls_total{{path=\"{}\"}} {}\n",
                escape_label(path),
                stat.calls
            ));
        }
    }
    out
}

/// Shared liveness state for `/healthz`: when the last transition was
/// processed and how many have been, updated by the watch loop.
#[derive(Debug)]
pub struct WatchHealth {
    start: Instant,
    /// Milliseconds since `start` of the last processed transition
    /// (`u64::MAX` = none yet).
    last_ms: AtomicU64,
    transitions: AtomicU64,
}

impl WatchHealth {
    /// Fresh health state anchored at "now".
    pub fn new() -> Self {
        WatchHealth {
            start: Instant::now(),
            last_ms: AtomicU64::new(u64::MAX),
            transitions: AtomicU64::new(0),
        }
    }

    /// Mark one transition as processed "now".
    pub fn mark_transition(&self) {
        let ms = self.start.elapsed().as_millis() as u64;
        self.last_ms.store(ms, Ordering::Relaxed);
        self.transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Transitions processed so far.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Seconds since the last transition (`None` before the first).
    pub fn last_transition_age_secs(&self) -> Option<f64> {
        let last = self.last_ms.load(Ordering::Relaxed);
        if last == u64::MAX {
            return None;
        }
        let now = self.start.elapsed().as_millis() as u64;
        Some(now.saturating_sub(last) as f64 / 1000.0)
    }

    fn healthz_json(&self) -> String {
        let age = match self.last_transition_age_secs() {
            Some(a) => format!("{a:.3}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"status\": \"ok\", \"transitions\": {}, \"uptime_secs\": {:.3}, \"last_transition_age_secs\": {}}}\n",
            self.transitions(),
            self.start.elapsed().as_secs_f64(),
            age
        )
    }
}

impl Default for WatchHealth {
    fn default() -> Self {
        Self::new()
    }
}

/// The embedded metrics endpoint: one listener thread serving
/// `GET /metrics` (Prometheus text of the registry current when the
/// server started) and `GET /healthz` (JSON liveness).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks a free port — see [`Self::addr`]) and
    /// start serving on a background thread.
    pub fn start(addr: &str, health: Arc<WatchHealth>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let registry = crate::metrics::current();
        let handle = std::thread::Builder::new()
            .name("cad-metrics".into())
            .spawn(move || {
                let _registry = registry.enter();
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // Serve inline: requests are tiny and rare
                        // (scrapes), so one thread is plenty.
                        serve_conn(stream, &health);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Request limits for the scrape endpoint: scrapes are tiny GETs, so
/// the caps are tight and a stalled or oversized peer is cut off fast
/// (431/400/408 via the shared [`http`] module) instead of pinning the
/// single listener thread.
fn scrape_limits() -> HttpLimits {
    HttpLimits {
        max_head_bytes: 4 * 1024,
        max_body_bytes: 4 * 1024,
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
    }
}

/// Serve one connection (possibly several keep-alive requests).
fn serve_conn(mut stream: TcpStream, health: &WatchHealth) {
    let limits = scrape_limits();
    let mut carry = Vec::new();
    loop {
        let req = match http::read_request_pipelined(&mut stream, &limits, &mut carry) {
            Ok(req) => req,
            Err(err) => {
                http::respond_read_error(&mut stream, &err);
                return;
            }
        };
        let (status, content_type, body) = if req.method != "GET" {
            (
                405,
                "application/json",
                http::error_body("method_not_allowed", "only GET is served here"),
            )
        } else {
            match req.path.as_str() {
                "/metrics" => (
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    render_prometheus(),
                ),
                "/healthz" => (200, "application/json", health.healthz_json()),
                _ => (
                    404,
                    "application/json",
                    http::error_body("not_found", &format!("no route for {}", req.path)),
                ),
            }
        };
        // Only successful scrapes keep the connection: an erroring
        // client gets its status and is disconnected rather than
        // holding the single listener thread through keep-alive.
        let keep = req.keep_alive && status == 200;
        if http::write_response(
            &mut stream,
            status,
            content_type,
            body.as_bytes(),
            keep,
            &[],
        )
        .is_err()
            || !keep
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, Gauge, Hist, LabeledCounter, LabeledHist};
    use std::io::{BufRead, Read, Write};

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("linalg.cg_solves"), "cad_linalg_cg_solves");
        assert_eq!(prom_name("oracle_build_secs"), "cad_oracle_build_secs");
    }

    #[test]
    fn prom_f64_formats() {
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
        assert_eq!(prom_f64(3.0), "3");
        assert_eq!(prom_f64(1.25), "1.25e0");
    }

    #[test]
    fn render_contains_counters_and_histogram_series() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        crate::count(Counter::Spmv, 7);
        crate::observe(Hist::CgIterations, 12.0);
        let text = render_prometheus();
        assert!(text.contains("cad_linalg_spmv_total 7\n"), "{text}");
        assert!(text.contains("# TYPE cad_cg_iterations histogram"));
        assert!(text.contains("cad_cg_iterations_bucket{le=\"+Inf\"}"));
        assert!(text.contains("cad_cg_iterations_sum"));
        assert!(text.contains("cad_cg_iterations_count"));
        // Exposition format: every line is `name{labels} value` or a
        // comment; assert no line is empty or malformed.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn render_contains_gauges_and_labeled_series() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        crate::gauge_add(Gauge::ServeQueueDepth, 3);
        crate::count_labeled(LabeledCounter::RebuildFallbacks, "structural");
        crate::observe_labeled(LabeledHist::ServePushSecs, "exact", 0.01);
        let text = render_prometheus();
        assert!(
            text.contains("# TYPE cad_serve_queue_depth gauge"),
            "{text}"
        );
        assert!(text.contains("cad_serve_queue_depth 3"), "{text}");
        assert!(!text.contains("cad_serve_queue_depth_total"), "{text}");
        assert!(
            text.contains("cad_commute_rebuild_fallbacks_total{reason=\"structural\"}"),
            "{text}"
        );
        assert!(
            text.contains("cad_serve_push_secs_bucket{engine=\"exact\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cad_serve_push_secs_count{engine=\"exact\"} 1"),
            "{text}"
        );
        // One TYPE declaration per family, even with labeled siblings.
        let fallback_types = text
            .lines()
            .filter(|l| l.starts_with("# TYPE cad_commute_rebuild_fallbacks_total"))
            .count();
        assert_eq!(fallback_types, 1);
        let push_types = text
            .lines()
            .filter(|l| l.starts_with("# TYPE cad_serve_push_secs"))
            .count();
        assert_eq!(push_types, 1);
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    /// Value of the exposition line starting with `prefix`.
    fn sample(text: &str, prefix: &str) -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    }

    /// A live histogram scraped while writers race on it must agree with
    /// itself: `count` equals its bucket total in every snapshot, and
    /// the rendered `_count` equals the `le="+Inf"` bucket.
    #[test]
    fn live_histogram_scrapes_are_self_consistent() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        let writers_done = std::sync::atomic::AtomicUsize::new(0);
        let (mut scrapes, mut torn) = (0, Vec::new());
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (reg, writers_done) = (&reg, &writers_done);
                s.spawn(move || {
                    for i in 0..400_000u64 {
                        reg.observe(Hist::OracleBuildSecs, (1 + (i + w) % 40) as f64 * 1e-3);
                    }
                    writers_done.fetch_add(1, Ordering::Relaxed);
                });
            }
            while writers_done.load(Ordering::Relaxed) < 2 {
                let h = reg.histogram(Hist::OracleBuildSecs);
                let buckets = h.bucket_counts().iter().sum::<u64>();
                let text = render_prometheus();
                let count = sample(&text, "cad_oracle_build_secs_count ");
                let inf = sample(&text, "cad_oracle_build_secs_bucket{le=\"+Inf\"} ");
                if h.count != buckets || count != inf {
                    torn.push((h.count, buckets, count, inf));
                }
                scrapes += 1;
            }
        });
        assert!(
            torn.is_empty(),
            "{} of {scrapes} scrapes torn: {:?}",
            torn.len(),
            &torn[..torn.len().min(5)]
        );
        assert_eq!(reg.histogram(Hist::OracleBuildSecs).count, 800_000);
    }

    #[test]
    fn server_serves_metrics_healthz_and_404() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&health)).expect("bind");
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("_total"));

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(
            body.contains("\"last_transition_age_secs\": null"),
            "{body}"
        );
        health.mark_transition();
        let (_, body) = http_get(addr, "/healthz");
        assert!(body.contains("\"transitions\": 1"), "{body}");
        assert!(!body.contains("null"), "{body}");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
        // Port is released: a fresh bind to the same port succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok());
        let _ = rebind;
    }

    #[test]
    fn healthz_age_tracks_transitions() {
        let h = WatchHealth::new();
        assert!(h.last_transition_age_secs().is_none());
        h.mark_transition();
        let age = h.last_transition_age_secs().expect("marked");
        assert!((0.0..5.0).contains(&age));
        assert_eq!(h.transitions(), 1);
        // JSON is parseable by our own parser.
        let parsed = crate::parse_json(&h.healthz_json()).expect("healthz json");
        assert_eq!(parsed.get("status").and_then(|j| j.as_str()), Some("ok"));
    }

    #[test]
    fn serve_rejects_non_get() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("write");
        let mut reader = std::io::BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read status line");
        assert!(line.starts_with("HTTP/1.1 405"), "{line}");
        server.shutdown();
    }

    #[test]
    fn serve_survives_fragmented_requests() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        for chunk in [
            "GET /hea",
            "lthz HTTP/1.1\r\n",
            "Host: x\r\nConnec",
            "tion: close\r\n\r\n",
        ] {
            stream.write_all(chunk.as_bytes()).expect("write chunk");
            stream.flush().expect("flush");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"status\": \"ok\""), "{response}");
        server.shutdown();
    }

    #[test]
    fn serve_answers_pipelined_requests_sent_in_one_write() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            )
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 2, "{response}");
        assert!(response.contains("\"status\": \"ok\""), "{response}");
        assert!(response.contains("# TYPE"), "{response}");
        server.shutdown();
    }

    #[test]
    fn serve_rejects_oversized_heads_with_431() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\n")
            .expect("write");
        let padding = format!("X-Padding: {}\r\n", "a".repeat(512));
        // Keep writing headers until the server cuts us off or we are
        // far past the 4 KiB cap.
        for _ in 0..32 {
            if stream.write_all(padding.as_bytes()).is_err() {
                break;
            }
        }
        let _ = stream.write_all(b"\r\n");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        assert!(response.contains("head_too_large"), "{response}");
        server.shutdown();
    }

    #[test]
    fn serve_rejects_garbage_with_400_instead_of_hanging() {
        let health = Arc::new(WatchHealth::new());
        let server = MetricsServer::start("127.0.0.1:0", health).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"\x01\x02garbage that is not http\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("bad_request"), "{response}");
        // The server is still alive and serving after the bad client.
        let (head, _) = http_get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        server.shutdown();
    }
}
