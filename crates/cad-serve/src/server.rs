//! The concurrent HTTP server: accept loop, bounded worker queue,
//! keep-alive connection handling, idle-session sweeper and graceful
//! drain.
//!
//! Threading model:
//!
//! * **one accept thread** pulls connections off the listener and
//!   offers each to a bounded queue. A full queue is answered *from the
//!   accept thread* with `503` + `Retry-After` (and counted in
//!   `serve.rejected_backpressure`) — overload sheds load immediately
//!   instead of queueing unboundedly;
//! * **N worker threads** pop connections and run the keep-alive
//!   request loop (parse → [`crate::router::route`] → respond);
//! * **one sweeper thread** evicts sessions idle past the TTL.
//!
//! Drain ([`Server::drain`]) stops the accept loop (a self-connect
//! wakes it from `accept()`), closes the queue so workers finish
//! already-queued connections and exit, then joins every thread.
//! In-flight requests complete and get their responses; new
//! connections are refused by the closed listener.

use crate::router::{route_queued, Response, RouterCtx};
use crate::session::SessionMap;
use cad_core::UpdateMode;
use cad_journal::JournalConfig;
use cad_obs::http::{self, error_body, HttpLimits, Request};
use cad_obs::{Gauge, Json};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A latched one-way signal: once requested, stays requested.
pub struct Shutdown {
    flag: AtomicBool,
    state: Mutex<()>,
    cv: Condvar,
}

impl Shutdown {
    /// A fresh, untripped signal.
    pub fn new() -> Self {
        Shutdown {
            flag: AtomicBool::new(false),
            state: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Trip the signal and wake every waiter.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        self.cv.notify_all();
    }

    /// Whether the signal has been tripped.
    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Block until tripped.
    pub fn wait(&self) {
        let mut guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while !self.is_requested() {
            guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Block until tripped or `timeout` elapses; returns whether the
    /// signal is tripped.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if self.is_requested() {
            return true;
        }
        let _ = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|p| p.into_inner());
        self.is_requested()
    }
}

impl Default for Shutdown {
    fn default() -> Self {
        Self::new()
    }
}

struct QueueState {
    conns: VecDeque<(TcpStream, Instant)>,
    open: bool,
}

/// The bounded connection queue between the accept thread and workers.
/// Entries carry their enqueue time so the popping worker knows the
/// queue wait; the `serve_queue_depth` gauge tracks the live length.
struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Offer a connection; hands it back when the queue is full (the
    /// caller sheds it with a `503`).
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if !state.open || state.conns.len() >= self.cap {
            return Err(conn);
        }
        state.conns.push_back((conn, Instant::now()));
        cad_obs::gauge_add(Gauge::ServeQueueDepth, 1);
        self.cv.notify_one();
        Ok(())
    }

    /// Pop the next connection and the seconds it waited, blocking
    /// while the queue is open and empty. `None` means closed *and*
    /// drained: time for the worker to exit. Queued connections are
    /// always served, even after close.
    fn pop(&self) -> Option<(TcpStream, f64)> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some((conn, enqueued)) = state.conns.pop_front() {
                cad_obs::gauge_add(Gauge::ServeQueueDepth, -1);
                return Some((conn, enqueued.elapsed().as_secs_f64()));
            }
            if !state.open {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stop accepting pushes and wake every blocked worker.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.open = false;
        self.cv.notify_all();
    }
}

/// Server configuration (`cad serve` flags map onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Connections that may wait for a worker before overflow turns
    /// into `503`s.
    pub queue_depth: usize,
    /// Cap on snapshot/request bodies, in bytes.
    pub max_body_bytes: usize,
    /// Live-session cap (`429` beyond).
    pub max_sessions: usize,
    /// Idle time after which the sweeper drops a session.
    pub session_ttl: Duration,
    /// How often the sweeper scans.
    pub sweep_interval: Duration,
    /// Per-connection socket read deadline (also bounds how long an
    /// idle keep-alive connection can pin a worker).
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
    /// Warm oracle-cache directory shared by every session.
    pub store_dir: Option<PathBuf>,
    /// Default oracle update mode for sessions whose create spec does
    /// not pick one (`--update-mode`).
    pub update_mode: UpdateMode,
    /// Structured NDJSON access log: a file path, `-` for stderr, or
    /// `None` to disable (`--access-log`). One line per request.
    pub access_log: Option<String>,
    /// Per-session write-ahead journal root (`--journal-dir`);
    /// `None` runs unjournaled. On start, every journal found under it
    /// is replayed into a live session before the listener answers.
    pub journal_dir: Option<PathBuf>,
    /// Journal tuning: fsync policy (`--journal-fsync`), rotation and
    /// compaction thresholds.
    pub journal: JournalConfig,
    /// Per-session push rate limit in requests per second
    /// (`--max-push-rps`); `None` is unlimited.
    pub max_push_rps: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 4 * 1024 * 1024,
            max_sessions: 256,
            session_ttl: Duration::from_secs(900),
            sweep_interval: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            store_dir: None,
            update_mode: UpdateMode::default(),
            access_log: None,
            journal_dir: None,
            journal: JournalConfig::default(),
            max_push_rps: None,
        }
    }
}

enum LogSink {
    Stderr,
    File(File),
}

/// Shared handle to the access-log sink. Cloneable so the CLI's panic
/// hook can force buffered lines to the platter after the worker that
/// owned the request is already unwinding.
#[derive(Clone)]
pub struct AccessLog {
    sink: Arc<Mutex<LogSink>>,
}

impl AccessLog {
    fn stderr() -> AccessLog {
        AccessLog {
            sink: Arc::new(Mutex::new(LogSink::Stderr)),
        }
    }

    fn file(file: File) -> AccessLog {
        AccessLog {
            sink: Arc::new(Mutex::new(LogSink::File(file))),
        }
    }

    fn write_line(&self, line: &str) {
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        match &mut *sink {
            LogSink::Stderr => {
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{line}");
                let _ = err.flush();
            }
            LogSink::File(f) => {
                let _ = writeln!(f, "{line}");
                let _ = f.flush();
            }
        }
    }

    /// Flush and fsync the log so every written line survives the
    /// process: called on graceful drain and from the panic hook.
    pub fn sync(&self) {
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        match &mut *sink {
            LogSink::Stderr => {
                let _ = std::io::stderr().lock().flush();
            }
            LogSink::File(f) => {
                let _ = f.flush();
                let _ = f.sync_all();
            }
        }
    }
}

struct Shared {
    queue: ConnQueue,
    ctx: RouterCtx,
    limits: HttpLimits,
    /// The access-log sink, when enabled. One mutex-guarded writer:
    /// lines are small and already formatted when the lock is taken.
    access_log: Option<AccessLog>,
}

/// Write one NDJSON access-log line for a completed request. Every
/// field is observability-only; the detection path never reads it.
fn log_access(shared: &Shared, req: &Request, resp: &Response, worker: usize, queue_wait: f64) {
    let Some(log) = &shared.access_log else {
        return;
    };
    let mut fields = vec![
        ("ts_ms", Json::Num(cad_obs::events::now_ms() as f64)),
        (
            "trace_id",
            Json::Str(cad_obs::trace::id_hex(resp.meta.trace_id)),
        ),
        ("method", Json::Str(req.method.clone())),
        ("path", Json::Str(req.path.clone())),
        ("status", Json::Num(resp.status as f64)),
        ("worker", Json::Num(worker as f64)),
        ("queue_wait_secs", Json::Num(queue_wait)),
        ("handler_secs", Json::Num(resp.meta.handler_secs)),
    ];
    if resp.meta.session_id != 0 {
        fields.push(("session", Json::Num(resp.meta.session_id as f64)));
    }
    if let Some(mode) = resp.meta.update_mode {
        fields.push(("update_mode", Json::Str(mode.to_string())));
    }
    if let Some(reason) = resp.meta.fallback {
        fields.push(("fallback", Json::Str(reason.to_string())));
    }
    let line = Json::obj(fields).compact();
    log.write_line(&line);
}

/// A running detection service.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
    recovered_sessions: usize,
    registry: cad_obs::RegistryHandle,
}

/// Answer an overflow connection with `503 Retry-After: 1` without ever
/// reading its request, then drain a bounded amount of whatever it sent
/// so closing does not RST the response away.
fn reject_busy(mut conn: TcpStream, write_timeout: Duration) {
    cad_obs::count(cad_obs::Counter::ServeRejectedBackpressure, 1);
    let _ = conn.set_write_timeout(Some(write_timeout));
    let body = error_body("overloaded", "worker queue is full; retry shortly");
    if http::write_response(
        &mut conn,
        503,
        "application/json",
        body.as_bytes(),
        false,
        &[("Retry-After", "1".to_string())],
    )
    .is_err()
    {
        return;
    }
    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    for _ in 0..64 {
        match conn.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// The per-connection keep-alive loop a worker runs. `queue_wait` is
/// the seconds the connection sat in the worker queue — charged to the
/// first request only; later keep-alive requests on the same
/// connection never waited.
fn serve_conn(mut conn: TcpStream, shared: &Shared, worker: usize, mut queue_wait: f64) {
    // Bytes a pipelining client sent past the current request.
    let mut carry = Vec::new();
    loop {
        match http::read_request_pipelined(&mut conn, &shared.limits, &mut carry) {
            Ok(req) => {
                cad_obs::gauge_add(Gauge::ServeInflightRequests, 1);
                let wait = queue_wait;
                queue_wait = 0.0;
                let resp = route_queued(&req, &shared.ctx, Some(wait), worker);
                cad_obs::gauge_add(Gauge::ServeInflightRequests, -1);
                // Draining closes after the in-flight response; so does
                // any error status, which keeps framing mistakes from
                // poisoning a reused connection.
                let keep =
                    req.keep_alive && resp.status < 400 && !shared.ctx.shutdown.is_requested();
                let extra: Vec<(&str, String)> =
                    resp.extra.iter().map(|(k, v)| (*k, v.clone())).collect();
                // Log before writing: the moment the response bytes
                // land, the client may race ahead (and tests measure
                // from there), so the write stays the worker's last
                // act on this request.
                log_access(shared, &req, &resp, worker, wait);
                let wrote = http::write_response(
                    &mut conn,
                    resp.status,
                    resp.content_type,
                    &resp.body,
                    keep,
                    &extra,
                );
                if wrote.is_err() || !keep {
                    return;
                }
            }
            Err(err) => {
                if let Some(status) = http::status_for(&err) {
                    let name = match status {
                        408 => "timeout",
                        413 => "body_too_large",
                        431 => "head_too_large",
                        _ => "bad_request",
                    };
                    cad_obs::events::record(cad_obs::EventKind::Error, name, 0.0, status as u64);
                }
                http::respond_read_error(&mut conn, &err);
                return;
            }
        }
    }
}

impl Server {
    /// Bind and start the full thread complement.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let provider: Option<Arc<dyn cad_commute::OracleProvider>> = match &cfg.store_dir {
            Some(dir) => {
                let store = cad_store::OracleStore::open(dir.clone()).map_err(|e| {
                    std::io::Error::other(format!("cannot open store `{}`: {e}", dir.display()))
                })?;
                Some(Arc::new(store))
            }
            None => None,
        };
        let access_log: Option<AccessLog> = match cfg.access_log.as_deref() {
            None => None,
            Some("-") => Some(AccessLog::stderr()),
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| {
                        std::io::Error::other(format!("cannot open access log `{path}`: {e}"))
                    })?;
                Some(AccessLog::file(file))
            }
        };
        let mut sessions = SessionMap::new(cfg.max_sessions).with_update_mode(cfg.update_mode);
        if let Some(rps) = cfg.max_push_rps {
            sessions = sessions.with_push_rps(rps);
        }
        let mut recovered_sessions = 0;
        if let Some(dir) = &cfg.journal_dir {
            std::fs::create_dir_all(dir)?;
            sessions = sessions.with_journal(dir.clone(), cfg.journal.clone());
            // Replay before any thread can touch the registry: boot
            // recovery is single-threaded and either completes or
            // fails the start — a durable server never serves from
            // partial state.
            recovered_sessions =
                crate::journal::recover_all(dir, &cfg.journal, &sessions, provider.clone())
                    .map_err(|e| std::io::Error::other(format!("journal recovery failed: {e}")))?;
        }
        let shared = Arc::new(Shared {
            queue: ConnQueue::new(cfg.queue_depth),
            ctx: RouterCtx {
                sessions,
                provider,
                shutdown: Arc::new(Shutdown::new()),
            },
            limits: HttpLimits {
                max_head_bytes: 8 * 1024,
                max_body_bytes: cfg.max_body_bytes,
                read_timeout: Some(cfg.read_timeout),
                write_timeout: Some(cfg.write_timeout),
            },
            access_log,
        });

        // Every thread records into the registry current here.
        let registry = cad_obs::current();
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let registry = registry.clone();
                std::thread::Builder::new()
                    .name(format!("cad-serve-worker-{i}"))
                    .spawn(move || {
                        let _metrics = registry.enter();
                        while let Some((conn, queue_wait)) = shared.queue.pop() {
                            serve_conn(conn, &shared, i, queue_wait);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let sweeper = {
            let shared = Arc::clone(&shared);
            let ttl = cfg.session_ttl;
            let interval = cfg.sweep_interval;
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("cad-serve-sweeper".to_string())
                .spawn(move || {
                    let _metrics = registry.enter();
                    while !shared.ctx.shutdown.wait_timeout(interval) {
                        shared.ctx.sessions.sweep_idle(ttl);
                        shared.ctx.sessions.compact_journals();
                    }
                })
                .expect("spawn sweeper")
        };

        let accept = {
            let shared = Arc::clone(&shared);
            let write_timeout = cfg.write_timeout;
            let registry = registry.clone();
            std::thread::Builder::new()
                .name("cad-serve-accept".to_string())
                .spawn(move || {
                    let _metrics = registry.enter();
                    for conn in listener.incoming() {
                        let draining = shared.ctx.shutdown.is_requested();
                        let Ok(conn) = conn else {
                            if draining {
                                break;
                            }
                            continue;
                        };
                        if let Err(conn) = shared.queue.try_push(conn) {
                            reject_busy(conn, write_timeout);
                        }
                        // Checked *after* the hand-off: a connection
                        // that raced the drain signal into the backlog
                        // was accepted before shutdown and still gets a
                        // worker, not a reset. (The drain's throwaway
                        // wake-up connection also lands in the queue;
                        // its immediate EOF reads as `Closed` and the
                        // worker moves on.)
                        if draining {
                            break;
                        }
                    }
                })
                .expect("spawn accept")
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
            sweeper: Some(sweeper),
            recovered_sessions,
            registry,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The drain signal (`POST /v1/shutdown` trips the same one).
    pub fn shutdown_signal(&self) -> Arc<Shutdown> {
        Arc::clone(&self.shared.ctx.shutdown)
    }

    /// A clone of the access-log sink handle, for callers (the CLI's
    /// panic hook) that must force it to disk out-of-band.
    pub fn access_log(&self) -> Option<AccessLog> {
        self.shared.access_log.clone()
    }

    /// How many sessions boot-time journal recovery replayed (0 when
    /// running unjournaled or from an empty `--journal-dir`).
    pub fn recovered_sessions(&self) -> usize {
        self.recovered_sessions
    }

    /// Block until something requests shutdown, then drain.
    pub fn serve_until_shutdown(self) {
        self.shared.ctx.shutdown.wait();
        self.drain();
    }

    /// Graceful drain: stop accepting, let in-flight and queued
    /// requests finish with responses, join every thread.
    pub fn drain(mut self) {
        self.shared.ctx.shutdown.request();
        // The accept thread is parked in accept(); a throwaway
        // self-connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
        // Every acknowledged request's line reaches the platter before
        // the process exits: the log is only trustworthy forensics if
        // a crash right after drain cannot eat its tail.
        if let Some(log) = &self.shared.access_log {
            log.sync();
        }
        // Forensic dump: leave the flight recorder's last moments on
        // stderr so a drained process can still be debugged post-hoc.
        // Only when the operator opted into logging — tests and quiet
        // embedders keep their stderr clean.
        if self.shared.access_log.is_some() {
            let _metrics = self.registry.enter();
            let _ = cad_obs::with_current(|r| r.events().dump(&mut std::io::stderr().lock()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_obs::Registry;
    use std::io::{BufRead, BufReader, Write};

    fn test_config() -> ServeConfig {
        ServeConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            sweep_interval: Duration::from_millis(50),
            ..Default::default()
        }
    }

    /// One round-trip on a fresh connection; returns (status, body).
    fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        call_with(addr, method, path, body, &[])
    }

    fn call_with(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        conn.write_all(head.as_bytes()).expect("write head");
        conn.write_all(body).expect("write body");
        read_response(&mut conn)
    }

    fn read_response(conn: &mut TcpStream) -> (u16, String) {
        let mut reader = BufReader::new(conn);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8"))
    }

    #[test]
    fn end_to_end_session_lifecycle_over_tcp() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, body) = call(
            addr,
            "POST",
            "/v1/sequences",
            br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
        );
        assert_eq!(status, 201, "{body}");
        let id = cad_obs::parse_json(&body)
            .unwrap()
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .unwrap();

        let push = format!("/v1/sequences/{id}/snapshots");
        let quiet = br#"{"nodes": 6, "edges": [[0, 1, 3.0], [0, 2, 3.0], [1, 2, 3.0], [3, 4, 3.0], [3, 5, 3.0], [4, 5, 3.0], [2, 3, 0.2]]}"#;
        let (status, body) = call(addr, "POST", &push, quiet);
        assert_eq!(status, 200, "{body}");

        let bridged = br#"{"nodes": 6, "edges": [[0, 1, 3.0], [0, 2, 3.0], [1, 2, 3.0], [3, 4, 3.0], [3, 5, 3.0], [4, 5, 3.0], [2, 3, 0.2], [0, 5, 1.5]]}"#;
        let (status, body) = call(addr, "POST", &push, bridged);
        assert_eq!(status, 200, "{body}");
        let v = cad_obs::parse_json(&body).unwrap();
        let edges = v
            .get("transition")
            .and_then(|t| t.get("edges"))
            .and_then(cad_obs::Json::as_arr)
            .expect("edges");
        assert_eq!(edges.len(), 1);

        let (status, body) = call(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        assert!(body.contains("serve_requests_total"), "{body}");
        assert!(body.contains("serve_sessions_active 1"), "{body}");

        let (status, _) = call(addr, "DELETE", &format!("/v1/sequences/{id}"), b"");
        assert_eq!(status, 200);

        let (status, body) = call(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        server.drain();
    }

    #[test]
    fn deeply_nested_json_is_a_400_and_the_server_stays_up() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, body) = call(
            addr,
            "POST",
            "/v1/sequences",
            br#"{"nodes": 4, "engine": "exact", "delta": 0.4}"#,
        );
        assert_eq!(status, 201, "{body}");
        let id = cad_obs::parse_json(&body)
            .unwrap()
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .unwrap();

        // Well under the body cap, far past the parser's nesting cap: a
        // malformed snapshot (400), then a malformed spec (422 as every
        // unparseable spec is), each answered without killing a worker.
        let deep = "[".repeat(100_000);
        let push = format!("/v1/sequences/{id}/snapshots");
        let (status, body) = call(addr, "POST", &push, deep.as_bytes());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("nesting"), "{body}");
        let (status, body) = call(addr, "POST", "/v1/sequences", deep.as_bytes());
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("nesting"), "{body}");

        let (status, body) = call(addr, "GET", "/healthz", b"");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        server.drain();
    }

    #[test]
    fn drain_completes_in_flight_request_and_refuses_new_connections() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let server = Server::start(test_config()).expect("start");
        let addr = server.addr();

        let (status, body) = call(
            addr,
            "POST",
            "/v1/sequences",
            br#"{"nodes": 3, "delta": 0.5}"#,
        );
        assert_eq!(status, 201, "{body}");
        let id = cad_obs::parse_json(&body)
            .unwrap()
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .unwrap();

        // Start a push but only send half the body...
        let snapshot = br#"{"nodes": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}"#;
        let mut conn = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST /v1/sequences/{id}/snapshots HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            snapshot.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(&snapshot[..10]).unwrap();
        conn.flush().unwrap();

        // ...begin the drain from another thread while it is in flight...
        let drainer = std::thread::spawn(move || server.drain());
        std::thread::sleep(Duration::from_millis(100));

        // ...finish the body: the in-flight request must complete with
        // a real response.
        conn.write_all(&snapshot[10..]).unwrap();
        let (status, body) = read_response(&mut conn);
        assert_eq!(status, 200, "{body}");
        drainer.join().expect("drain finishes");

        // The listener is gone: connecting now fails or yields nothing.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut conn) => {
                let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
                let mut buf = Vec::new();
                let got = conn.read_to_end(&mut buf).unwrap_or(0);
                assert_eq!(got, 0, "drained server must not answer new requests");
            }
        }
    }

    /// Like [`call`] but also returns the raw response header block.
    fn call_with_headers(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> (u16, String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).expect("write head");
        conn.write_all(body).expect("write body");
        let mut reader = BufReader::new(conn);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut headers = String::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .trim_end()
                .strip_prefix("content-length:")
                .map(str::trim)
            {
                content_length = v.parse().expect("length");
            }
            headers.push_str(&line);
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        (status, headers, String::from_utf8(body).expect("utf-8"))
    }

    #[test]
    fn access_log_and_trace_header_attribute_every_request() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let dir = std::env::temp_dir().join(format!("cad-serve-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.ndjson");
        let _ = std::fs::remove_file(&log_path);
        let server = Server::start(ServeConfig {
            access_log: Some(log_path.display().to_string()),
            ..test_config()
        })
        .expect("start");
        let addr = server.addr();

        let (status, headers, body) = call_with_headers(
            addr,
            "POST",
            "/v1/sequences",
            br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
        );
        assert_eq!(status, 201, "{body}");
        let id = cad_obs::parse_json(&body)
            .unwrap()
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .unwrap();
        assert!(
            headers.to_ascii_lowercase().contains("x-cad-trace-id:"),
            "{headers}"
        );

        let push = format!("/v1/sequences/{id}/snapshots");
        let quiet = br#"{"nodes": 6, "edges": [[0, 1, 3.0], [0, 2, 3.0], [1, 2, 3.0], [3, 4, 3.0], [3, 5, 3.0], [4, 5, 3.0], [2, 3, 0.2]]}"#;
        let (status, headers, body) = call_with_headers(addr, "POST", &push, quiet);
        assert_eq!(status, 200, "{body}");
        let trace_hex = headers
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .starts_with("x-cad-trace-id:")
                    .then(|| l.split(':').nth(1).unwrap().trim().to_string())
            })
            .expect("trace header");
        assert_eq!(trace_hex.len(), 16, "{trace_hex}");

        server.drain();

        // One NDJSON line per request, each with a 16-hex trace id; the
        // push's line carries the same id the header announced, plus
        // its update outcome.
        let log = std::fs::read_to_string(&log_path).expect("access log written");
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2, "{log}");
        for line in &lines {
            let v = cad_obs::parse_json(line).expect("valid JSON line");
            let id = v.get("trace_id").and_then(cad_obs::Json::as_str).unwrap();
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(v.get("status").is_some() && v.get("method").is_some());
            assert!(v.get("queue_wait_secs").is_some());
        }
        let push_line = cad_obs::parse_json(lines[1]).unwrap();
        assert_eq!(
            push_line.get("trace_id").and_then(cad_obs::Json::as_str),
            Some(trace_hex.as_str())
        );
        assert_eq!(
            push_line.get("update_mode").and_then(cad_obs::Json::as_str),
            Some("rebuild")
        );
        assert_eq!(
            push_line.get("session").and_then(cad_obs::Json::as_u64),
            Some(id)
        );
        let _ = std::fs::remove_file(&log_path);
    }

    #[test]
    fn ttl_sweeper_evicts_idle_sessions() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let server = Server::start(ServeConfig {
            session_ttl: Duration::from_millis(100),
            sweep_interval: Duration::from_millis(25),
            ..test_config()
        })
        .expect("start");
        let addr = server.addr();
        let (status, body) = call(addr, "POST", "/v1/sequences", br#"{"nodes": 3}"#);
        assert_eq!(status, 201, "{body}");
        let id = cad_obs::parse_json(&body)
            .unwrap()
            .get("id")
            .and_then(cad_obs::Json::as_u64)
            .unwrap();
        let path = format!("/v1/sequences/{id}");
        let (status, _) = call(addr, "GET", &path, b"");
        assert_eq!(status, 200);
        // Let it idle past the TTL; the sweeper reaps it.
        std::thread::sleep(Duration::from_millis(400));
        let (status, _) = call(addr, "GET", &path, b"");
        assert_eq!(status, 404, "idle session must be swept");
        assert_eq!(reg.gauge(Gauge::ServeSessionsActive), 0);
        server.drain();
    }
}
