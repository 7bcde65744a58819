//! Loopback load benchmark for the `cad-serve` HTTP detection service:
//! N concurrent keep-alive clients, each driving its own session with a
//! stream of snapshot pushes, measured end to end from the client side.
//!
//! ```text
//! cargo run --release -p cad-bench --bin bench_serve -- \
//!     [--clients 4] [--instances 40] [--nodes 32] [--workers 4] \
//!     [--out BENCH_serve.json] [--quiet]
//! ```
//!
//! Reports client-observed push latency (`serve.client_push_secs`, with
//! p50/p99 via the histogram) and aggregate throughput
//! (`serve.throughput_rps`), alongside the server-side registry
//! (`serve_push_secs` histogram, `serve.requests` counter, ...) in the
//! same schema-versioned report `bench_report` writes, so `cad
//! bench-diff` can gate regressions on it.
//!
//! A second phase measures the small-delta push workload — snapshots
//! that only wiggle one edge weight — once per oracle update mode
//! (`rebuild` vs `incremental`, over `--delta-nodes` vertices), and
//! records both latency distributions plus their p99 speedup
//! (`serve.small_delta_speedup_p99`).
//!
//! A third phase measures durability: the same single-session workload
//! against an unjournaled server and a `--journal-dir` server with the
//! default fsync-every-append policy, reporting the p99 cost ratio
//! (`serve.journal_overhead_p99`), then restarts from the journals left
//! behind and reports the replay wall time (`journal.recovery_secs`).

use cad_bench::Args;
use cad_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Exact heap accounting for the whole benchmark: the allocator deltas
/// around the push loop become the `mem.*_per_push` columns and the
/// report's `memory` section.
#[global_allocator]
static ALLOC: cad_obs::CountingAlloc = cad_obs::CountingAlloc::new();

/// A keep-alive HTTP/1.1 client on one loopback connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        // Benchmark latencies must reflect server work, not Nagle /
        // delayed-ACK artifacts on the loopback round trip.
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    /// One round trip; returns (status, body).
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> (u16, String) {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req).expect("write request");
        let mut status_line = String::new();
        self.reader.read_line(&mut status_line).expect("status");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
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
        self.reader.read_exact(&mut body).expect("body");
        (status, String::from_utf8(body).expect("utf-8"))
    }
}

/// Snapshot `i` of the workload: a unit-weight ring over `nodes`
/// vertices plus a cross-ring chord whose weight spikes every fifth
/// instance — enough change to keep the detector scoring real work.
fn snapshot_body(nodes: usize, i: usize) -> String {
    let chord = if i % 5 == 2 { 2.0 } else { 0.2 };
    let mut edges: Vec<String> = (0..nodes)
        .map(|u| format!("[{u}, {}, 1.0]", (u + 1) % nodes))
        .collect();
    edges.push(format!("[0, {}, {chord:?}]", nodes / 2));
    format!(r#"{{"nodes": {nodes}, "edges": [{}]}}"#, edges.join(", "))
}

/// Small-delta snapshot `i`: the same ring topology every push, with
/// only the chord's weight wiggling — the workload incremental updates
/// exist for.
fn small_delta_body(nodes: usize, i: usize) -> String {
    let chord = 0.2 + 0.01 * ((i % 7) as f64);
    let mut edges: Vec<String> = (0..nodes)
        .map(|u| format!("[{u}, {}, 1.0]", (u + 1) % nodes))
        .collect();
    edges.push(format!("[0, {}, {chord:?}]", nodes / 2));
    format!(r#"{{"nodes": {nodes}, "edges": [{}]}}"#, edges.join(", "))
}

/// Drive one session of small-delta pushes under the given update mode
/// and return the client-observed per-push latencies.
fn small_delta_run(
    addr: std::net::SocketAddr,
    nodes: usize,
    pushes: usize,
    mode: &str,
) -> Vec<f64> {
    let mut client = Client::connect(addr);
    let spec = format!(
        r#"{{"nodes": {nodes}, "engine": "exact", "delta": 0.4, "update_mode": "{mode}", "label": "small-delta-{mode}"}}"#
    );
    let (status, body) = client.call("POST", "/v1/sequences", spec.as_bytes());
    assert_eq!(status, 201, "create failed: {body}");
    let id = cad_obs::parse_json(&body)
        .expect("json")
        .get("id")
        .and_then(cad_obs::Json::as_u64)
        .expect("id");
    let path = format!("/v1/sequences/{id}/snapshots");
    let mut latencies = Vec::with_capacity(pushes);
    for i in 0..pushes {
        let body = small_delta_body(nodes, i);
        let (resp, secs) = cad_obs::time_it(|| client.call("POST", &path, body.as_bytes()));
        assert_eq!(resp.0, 200, "push {i} failed: {}", resp.1);
        // The first push has no previous oracle; every later one must
        // take the requested path (no fallback storms on this workload).
        if i > 0 && mode == "incremental" {
            let v = cad_obs::parse_json(&resp.1).expect("json");
            assert_eq!(
                v.get("update_mode").and_then(cad_obs::Json::as_str),
                Some("incremental"),
                "push {i} fell back: {}",
                resp.1
            );
        }
        latencies.push(secs);
    }
    let (status, _) = client.call("DELETE", &format!("/v1/sequences/{id}"), b"");
    assert_eq!(status, 200);
    latencies
}

/// One session of `snapshot_body` pushes from a single client, used by
/// the durability phase on both the unjournaled and journaled servers.
/// Skipping the DELETE leaves the session's journal behind for the
/// recovery measurement.
fn durability_run(
    addr: std::net::SocketAddr,
    nodes: usize,
    pushes: usize,
    delete: bool,
) -> Vec<f64> {
    let mut client = Client::connect(addr);
    let spec =
        format!(r#"{{"nodes": {nodes}, "engine": "exact", "delta": 0.4, "label": "durability"}}"#);
    let (status, body) = client.call("POST", "/v1/sequences", spec.as_bytes());
    assert_eq!(status, 201, "create failed: {body}");
    let id = cad_obs::parse_json(&body)
        .expect("json")
        .get("id")
        .and_then(cad_obs::Json::as_u64)
        .expect("id");
    let path = format!("/v1/sequences/{id}/snapshots");
    let mut latencies = Vec::with_capacity(pushes);
    for i in 0..pushes {
        let body = snapshot_body(nodes, i);
        let (resp, secs) = cad_obs::time_it(|| client.call("POST", &path, body.as_bytes()));
        assert_eq!(resp.0, 200, "push {i} failed: {}", resp.1);
        latencies.push(secs);
    }
    if delete {
        let (status, _) = client.call("DELETE", &format!("/v1/sequences/{id}"), b"");
        assert_eq!(status, 200);
    }
    latencies
}

fn main() {
    let args = Args::from_env();
    args.apply_verbosity();
    let clients = args.get("clients", 4usize);
    let instances = args.get("instances", 40usize);
    let nodes = args.get("nodes", 32usize);
    let workers = args.get("workers", 4usize);
    let delta_nodes = args.get("delta-nodes", 160usize);
    let delta_pushes = args.get("delta-pushes", 30usize);
    let out = args.get(
        "out",
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string(),
    );

    let server = Server::start(ServeConfig {
        workers,
        ..Default::default()
    })
    .expect("start server");
    let addr = server.addr();

    let mem_before = cad_obs::alloc::stats();
    let start = Instant::now();
    let handles: Vec<std::thread::JoinHandle<Vec<f64>>> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let spec = format!(
                    r#"{{"nodes": {nodes}, "engine": "exact", "delta": 0.4, "label": "bench-{c}"}}"#
                );
                let (status, body) = client.call("POST", "/v1/sequences", spec.as_bytes());
                assert_eq!(status, 201, "create failed: {body}");
                let id = cad_obs::parse_json(&body)
                    .expect("json")
                    .get("id")
                    .and_then(cad_obs::Json::as_u64)
                    .expect("id");
                let path = format!("/v1/sequences/{id}/snapshots");
                let mut latencies = Vec::with_capacity(instances);
                for i in 0..instances {
                    let body = snapshot_body(nodes, i);
                    let (resp, secs) =
                        cad_obs::time_it(|| client.call("POST", &path, body.as_bytes()));
                    assert_eq!(resp.0, 200, "push {i} failed: {}", resp.1);
                    latencies.push(secs);
                }
                let (status, _) = client.call("DELETE", &format!("/v1/sequences/{id}"), b"");
                assert_eq!(status, 200);
                latencies
            })
        })
        .collect();
    let latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    let mem_after = cad_obs::alloc::stats();

    // Small-delta phase: one session per update mode, sequentially, so
    // the two latency distributions see identical load (none).
    let rebuild_lat = small_delta_run(addr, delta_nodes, delta_pushes, "rebuild");
    let incr_lat = small_delta_run(addr, delta_nodes, delta_pushes, "incremental");
    // Durability baseline on the same (now otherwise idle) server.
    let plain_lat = durability_run(addr, nodes, instances, true);
    server.drain();

    // Durability phase: the identical workload with a write-ahead log
    // under the default fsync-every-append policy, then a restart that
    // replays the journal left behind.
    let journal_dir =
        std::env::temp_dir().join(format!("cad-bench-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let journaled = Server::start(ServeConfig {
        workers,
        journal_dir: Some(journal_dir.clone()),
        ..Default::default()
    })
    .expect("start journaled server");
    let journal_lat = durability_run(journaled.addr(), nodes, instances, false);
    journaled.drain();
    let (restarted, recovery_secs) = cad_obs::time_it(|| {
        Server::start(ServeConfig {
            workers,
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        })
        .expect("restart journaled server")
    });
    restarted.drain();
    let _ = std::fs::remove_dir_all(&journal_dir);

    let pushes = latencies.len();
    let rps = pushes as f64 / wall;
    let client_hist = cad_obs::Histogram::of(latencies.iter().copied());
    let (p50, p99) = (client_hist.p50(), client_hist.p99());

    let mut report = cad_obs::Report::new("bench_serve");
    report.absorb_snapshot(&cad_obs::with_current(cad_obs::Registry::snapshot));
    // The server-side queue-wait distribution, summarized so bench-diff
    // can gate on its mean like any other wall-time metric.
    let queue_wait = report.histograms["serve_queue_wait_secs"].clone();
    report.summaries.insert(
        "serve.queue_wait_secs".to_string(),
        cad_obs::Summary {
            count: queue_wait.count,
            sum: queue_wait.sum,
            min: queue_wait.min,
            max: queue_wait.max,
        },
    );
    report
        .histograms
        .insert("serve.client_push_secs".to_string(), client_hist);
    report.summaries.insert(
        "serve.client_push_secs".to_string(),
        cad_obs::Summary::of(latencies),
    );
    report.summaries.insert(
        "serve.throughput_rps".to_string(),
        cad_obs::Summary::of([rps]),
    );
    // Allocator pressure of the concurrent push phase, normalized per
    // push so the column is comparable across --clients/--instances.
    // Informational in bench-diff (summaries are not latency-gated).
    let allocs_per_push = (mem_after.allocs - mem_before.allocs) as f64 / pushes.max(1) as f64;
    let bytes_per_push =
        (mem_after.bytes_allocated - mem_before.bytes_allocated) as f64 / pushes.max(1) as f64;
    report.summaries.insert(
        "mem.allocs_per_push".to_string(),
        cad_obs::Summary::of([allocs_per_push]),
    );
    report.summaries.insert(
        "mem.bytes_per_push".to_string(),
        cad_obs::Summary::of([bytes_per_push]),
    );
    // Small-delta phase: drop each run's first push (the cold build both
    // modes share) so the distributions compare steady-state pushes.
    let rebuild_hist = cad_obs::Histogram::of(rebuild_lat.iter().skip(1).copied());
    let incr_hist = cad_obs::Histogram::of(incr_lat.iter().skip(1).copied());
    let speedup = rebuild_hist.p99() / incr_hist.p99().max(f64::MIN_POSITIVE);
    report.histograms.insert(
        "serve.small_delta_rebuild_secs".to_string(),
        rebuild_hist.clone(),
    );
    report.histograms.insert(
        "serve.small_delta_incremental_secs".to_string(),
        incr_hist.clone(),
    );
    report.summaries.insert(
        "serve.small_delta_speedup_p99".to_string(),
        cad_obs::Summary::of([speedup]),
    );
    // Durability phase: journaled-vs-plain push cost and recovery time.
    // Both land as summaries (informational, not latency-gated) because
    // fsync cost is the noisiest thing a CI box measures.
    let plain_hist = cad_obs::Histogram::of(plain_lat.iter().copied());
    let journal_hist = cad_obs::Histogram::of(journal_lat.iter().copied());
    let journal_overhead = journal_hist.p99() / plain_hist.p99().max(f64::MIN_POSITIVE);
    report
        .histograms
        .insert("serve.journal_push_secs".to_string(), journal_hist.clone());
    report.summaries.insert(
        "serve.journal_overhead_p99".to_string(),
        cad_obs::Summary::of([journal_overhead]),
    );
    report.summaries.insert(
        "journal.recovery_secs".to_string(),
        cad_obs::Summary::of([recovery_secs]),
    );
    // Measurement conditions, so bench-diff compares like with like.
    for (key, value) in [
        ("bench.serve_clients", clients),
        ("bench.serve_instances", instances),
        ("bench.serve_nodes", nodes),
        ("bench.serve_workers", workers),
        ("bench.serve_delta_nodes", delta_nodes),
        ("bench.serve_delta_pushes", delta_pushes),
    ] {
        report.counters.insert(key.to_string(), value as u64);
    }
    report.capture_memory();
    std::fs::write(&out, report.to_json_string()).expect("write report");
    println!(
        "wrote {out}: {clients} clients x {instances} pushes over {nodes} nodes -> \
         {rps:.1} req/s, p50 {:.1} ms, p99 {:.1} ms, \
         {allocs_per_push:.0} allocs/push, peak heap {} bytes",
        p50 * 1e3,
        p99 * 1e3,
        cad_obs::alloc::stats().heap_peak_bytes,
    );
    println!(
        "small-delta ({delta_nodes} nodes, {} steady-state pushes/mode): \
         rebuild p99 {:.2} ms, incremental p99 {:.2} ms -> {speedup:.1}x",
        delta_pushes - 1,
        rebuild_hist.p99() * 1e3,
        incr_hist.p99() * 1e3
    );
    println!(
        "durability ({instances} pushes, fsync always): plain p99 {:.2} ms, \
         journaled p99 {:.2} ms -> {journal_overhead:.2}x; recovery {:.1} ms",
        plain_hist.p99() * 1e3,
        journal_hist.p99() * 1e3,
        recovery_secs * 1e3
    );
}
