//! End-to-end tests for the `cad-serve` detection service: real TCP
//! connections against a running [`cad_serve::Server`].
//!
//! The anchor test proves the transport claim: a sequence pushed
//! snapshot-by-snapshot over HTTP yields, per transition, *bit-identical*
//! anomaly sets and scores to batch `cad detect` over the same sequence —
//! for every oracle engine.

use cad_commute::{EmbeddingOptions, EngineOptions};
use cad_core::{CadDetector, CadOptions, ScoreKind};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_integration_tests::two_clusters;
use cad_obs::Json;
use cad_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..Default::default()
    }
}

/// One request on a fresh connection; returns (status, headers, body).
fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    send_request(&mut conn, method, path, body);
    read_response(&mut conn)
}

fn send_request(conn: &mut TcpStream, method: &str, path: &str, body: &[u8]) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).expect("write head");
    conn.write_all(body).expect("write body");
}

fn read_response(conn: &mut TcpStream) -> (u16, String, String) {
    let mut reader = BufReader::new(conn);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"))
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

fn json(body: &str) -> Json {
    cad_obs::parse_json(body).unwrap_or_else(|e| panic!("bad json {body:?}: {e}"))
}

/// JSON edge-list body for one snapshot.
fn snapshot_body(g: &WeightedGraph) -> String {
    let list: Vec<String> = g
        .edges()
        .map(|(u, v, w)| format!("[{u}, {v}, {w:?}]"))
        .collect();
    format!(
        r#"{{"nodes": {}, "edges": [{}]}}"#,
        g.n_nodes(),
        list.join(", ")
    )
}

/// The shared workload: two 8-node clusters whose bridge strengthens
/// twice (transitions 1 and 3 are anomalous under a fixed δ).
fn bridge_sequence() -> GraphSequence {
    let graphs: Vec<WeightedGraph> = [0.3, 0.3, 3.0, 0.3, 1.5]
        .iter()
        .map(|&b| two_clusters(8, 3.0, b))
        .collect();
    GraphSequence::new(graphs).expect("valid sequence")
}

fn create_session(addr: SocketAddr, spec: &str) -> u64 {
    let (status, _, body) = call(addr, "POST", "/v1/sequences", spec.as_bytes());
    assert_eq!(status, 201, "{body}");
    json(&body).get("id").and_then(Json::as_u64).expect("id")
}

/// Push every instance of `seq` into session `id`, returning the
/// `transition` JSON of each push from the second on.
fn push_sequence(addr: SocketAddr, id: u64, seq: &GraphSequence) -> Vec<Json> {
    let path = format!("/v1/sequences/{id}/snapshots");
    let mut transitions = Vec::new();
    for (i, g) in seq.graphs().iter().enumerate() {
        let (status, _, body) = call(addr, "POST", &path, snapshot_body(g).as_bytes());
        assert_eq!(status, 200, "push {i}: {body}");
        let v = json(&body);
        assert_eq!(v.get("instance").and_then(Json::as_u64), Some(i as u64));
        match v.get("transition") {
            Some(Json::Null) => assert_eq!(i, 0, "only the first push has no transition"),
            Some(tr) => transitions.push(tr.clone()),
            None => panic!("push {i} response lacks `transition`: {body}"),
        }
    }
    transitions
}

/// Assert an HTTP transition object equals a batch transition bit for
/// bit: edge set, every score component, and the node set.
fn assert_transition_matches(engine: &str, http: &Json, batch: &cad_core::TransitionAnomalies) {
    assert_eq!(
        http.get("t").and_then(Json::as_u64),
        Some(batch.t as u64),
        "[{engine}] transition index"
    );
    let edges = http.get("edges").and_then(Json::as_arr).expect("edges");
    assert_eq!(
        edges.len(),
        batch.edges.len(),
        "[{engine}] edge count at t={}",
        batch.t
    );
    for (got, want) in edges.iter().zip(&batch.edges) {
        assert_eq!(got.get("u").and_then(Json::as_u64), Some(want.u as u64));
        assert_eq!(got.get("v").and_then(Json::as_u64), Some(want.v as u64));
        for (field, expect) in [
            ("score", want.score),
            ("d_weight", want.d_weight),
            ("d_commute", want.d_commute),
        ] {
            let value = got.get(field).and_then(Json::as_f64).expect(field);
            assert_eq!(
                value.to_bits(),
                expect.to_bits(),
                "[{engine}] {field} of edge ({}, {}) at t={} differs: {value:?} vs {expect:?}",
                want.u,
                want.v,
                batch.t
            );
        }
    }
    let nodes: Vec<u64> = http
        .get("nodes")
        .and_then(Json::as_arr)
        .expect("nodes")
        .iter()
        .filter_map(Json::as_u64)
        .collect();
    let want: Vec<u64> = batch.nodes.iter().map(|&n| n as u64).collect();
    assert_eq!(nodes, want, "[{engine}] node set at t={}", batch.t);
}

#[test]
fn http_pushed_sequences_are_bit_identical_to_batch_detect_for_every_engine() {
    let seq = bridge_sequence();
    let delta = 0.4;
    let engines: [(&str, EngineOptions); 4] = [
        ("exact", EngineOptions::Exact),
        (
            "approx",
            EngineOptions::Approximate(EmbeddingOptions {
                k: 6,
                ..Default::default()
            }),
        ),
        ("shortest-path", EngineOptions::ShortestPath),
        ("corrected", EngineOptions::Corrected),
    ];
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    for (name, engine) in engines {
        let batch = CadDetector::new(CadOptions {
            engine,
            kind: ScoreKind::Cad,
            threads: 1,
            partition: None,
        })
        .detect(&seq, delta)
        .expect("batch detection");
        assert!(
            batch.transitions.iter().any(|tr| !tr.edges.is_empty()),
            "[{name}] the workload must flag something or the test is vacuous"
        );

        let spec = format!(r#"{{"nodes": 16, "engine": "{name}", "k": 6, "delta": {delta}}}"#);
        let id = create_session(addr, &spec);
        let transitions = push_sequence(addr, id, &seq);
        assert_eq!(transitions.len(), batch.transitions.len(), "[{name}]");
        for (http, want) in transitions.iter().zip(&batch.transitions) {
            assert_transition_matches(name, http, want);
        }
        let (status, _, _) = call(addr, "DELETE", &format!("/v1/sequences/{id}"), b"");
        assert_eq!(status, 200);
    }
    server.drain();
}

/// The full trace round trip: the push response announces its trace id
/// in `X-Cad-Trace-Id`, `/v1/debug/trace` shows that id's span events
/// (queue wait and update outcome), and the access log carries the same
/// id on the request's NDJSON line.
#[test]
fn trace_ids_round_trip_header_flight_recorder_and_access_log() {
    let dir = std::env::temp_dir().join("cad-integration-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join(format!("trace-roundtrip-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let server = Server::start(ServeConfig {
        access_log: Some(log_path.display().to_string()),
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();

    let id = create_session(addr, r#"{"nodes": 16, "engine": "exact", "delta": 0.4}"#);
    let g = two_clusters(8, 3.0, 0.3);
    let path = format!("/v1/sequences/{id}/snapshots");
    let (status, headers, body) = call(addr, "POST", &path, snapshot_body(&g).as_bytes());
    assert_eq!(status, 200, "{body}");
    let trace_hex = headers
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .starts_with("x-cad-trace-id:")
                .then(|| l.split(':').nth(1).unwrap().trim().to_string())
        })
        .expect("push must answer with X-Cad-Trace-Id");
    assert_eq!(trace_hex.len(), 16, "{trace_hex}");
    assert!(trace_hex.chars().all(|c| c.is_ascii_hexdigit()));

    // The flight recorder attributes this request's events to the id.
    let (status, _, body) = call(addr, "GET", "/v1/debug/trace?limit=256", b"");
    assert_eq!(status, 200, "{body}");
    let events: Vec<Json> = json(&body)
        .get("events")
        .and_then(Json::as_arr)
        .expect("events")
        .iter()
        .filter(|e| e.get("trace_id").and_then(Json::as_str) == Some(trace_hex.as_str()))
        .cloned()
        .collect();
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"queue_wait"), "{kinds:?}");
    assert!(kinds.contains(&"update"), "{kinds:?}");
    assert!(kinds.contains(&"request"), "{kinds:?}");
    for e in &events {
        assert_eq!(e.get("session").and_then(Json::as_u64), Some(id));
    }

    server.drain();

    // The access log's line for the push carries the same trace id.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let push_line = log
        .lines()
        .map(json)
        .find(|v| v.get("path").and_then(Json::as_str) == Some(path.as_str()))
        .expect("push line in access log");
    assert_eq!(
        push_line.get("trace_id").and_then(Json::as_str),
        Some(trace_hex.as_str())
    );
    assert_eq!(
        push_line.get("status").and_then(Json::as_u64),
        Some(200),
        "{log}"
    );
    let _ = std::fs::remove_file(&log_path);
}

/// Observability must be free of observer effects: the same sequence
/// pushed with the access log on and off yields byte-identical
/// transition objects (anomaly sets, every score bit) and the same
/// session aggregates.
#[test]
fn tracing_and_access_logging_never_perturb_detection_results() {
    let seq = bridge_sequence();
    let dir = std::env::temp_dir().join("cad-integration-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join(format!("bit-identity-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&log_path);

    let mut runs = Vec::new();
    for access_log in [None, Some(log_path.display().to_string())] {
        let server = Server::start(ServeConfig {
            access_log,
            ..test_config()
        })
        .expect("start");
        let addr = server.addr();
        let id = create_session(addr, r#"{"nodes": 16, "engine": "exact", "delta": 0.4}"#);
        let transitions = push_sequence(addr, id, &seq);
        let (status, _, body) = call(addr, "GET", &format!("/v1/sequences/{id}"), b"");
        assert_eq!(status, 200, "{body}");
        let mut aggregates = json(&body);
        // The session id may differ between servers; everything else
        // (instances, transitions, nodes, delta) must not.
        if let Json::Obj(ref mut fields) = aggregates {
            fields.retain(|(k, _)| k != "id");
        }
        server.drain();
        runs.push((transitions, aggregates));
    }
    // Wall-clock latency is the one sanctioned nondeterminism in a
    // transition object; everything else must match bit for bit.
    let strip_latency = |v: &Json| -> Json {
        let mut v = v.clone();
        if let Json::Obj(ref mut fields) = v {
            fields.retain(|(k, _)| k != "latency");
        }
        v
    };
    let (ref plain, ref plain_agg) = runs[0];
    let (ref logged, ref logged_agg) = runs[1];
    assert_eq!(
        plain.len(),
        logged.len(),
        "transition count must not depend on logging"
    );
    for (a, b) in plain.iter().zip(logged) {
        assert_eq!(
            strip_latency(a),
            strip_latency(b),
            "transition objects must be identical bit for bit"
        );
    }
    assert_eq!(plain_agg, logged_agg, "session aggregates must match");

    // Both runs also match batch detection exactly — logging did not
    // merely fail consistently.
    let batch = CadDetector::new(CadOptions {
        engine: EngineOptions::Exact,
        kind: ScoreKind::Cad,
        threads: 1,
        partition: None,
    })
    .detect(&seq, 0.4)
    .expect("batch detection");
    for (http, want) in logged.iter().zip(&batch.transitions) {
        assert_transition_matches("exact", http, want);
    }
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn concurrent_sessions_stay_isolated_and_ordered() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();

    // Two clients, two sessions, interleaved pushes from two threads:
    // each stream must see exactly its own sequence's results.
    let handles: Vec<_> = [8usize, 3]
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let graphs: Vec<WeightedGraph> = [0.3, 0.3, 3.0, 0.3, 1.5]
                    .iter()
                    .map(|&b| two_clusters(k, 3.0, b))
                    .collect();
                let seq = GraphSequence::new(graphs).expect("valid sequence");
                let batch = CadDetector::new(CadOptions {
                    engine: EngineOptions::Exact,
                    kind: ScoreKind::Cad,
                    threads: 1,
                    partition: None,
                })
                .detect(&seq, 0.4)
                .expect("batch detection");
                let spec = format!(r#"{{"nodes": {}, "engine": "exact", "delta": 0.4}}"#, 2 * k);
                let id = create_session(addr, &spec);
                let transitions = push_sequence(addr, id, &seq);
                for (http, want) in transitions.iter().zip(&batch.transitions) {
                    assert_transition_matches("exact", http, want);
                }
                // Status reflects this session's stream alone, in order.
                let (status, _, body) = call(addr, "GET", &format!("/v1/sequences/{id}"), b"");
                assert_eq!(status, 200, "{body}");
                let v = json(&body);
                assert_eq!(v.get("nodes").and_then(Json::as_u64), Some(2 * k as u64));
                assert_eq!(v.get("instances").and_then(Json::as_u64), Some(5));
                assert_eq!(v.get("transitions").and_then(Json::as_u64), Some(4));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }
    server.drain();
}

#[test]
fn saturated_queue_sheds_load_with_503_and_counts_it() {
    // One worker, one queue slot: the worker is pinned on a stalled
    // request, the queue slot holds a second connection, and the third
    // must be shed by the accept thread.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..test_config()
    })
    .expect("start");
    let addr = server.addr();
    let rejected_before = cad_obs::counters::SERVE_REJECTED_BACKPRESSURE.get();

    // Stall the only worker: a request head that never finishes.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    stalled.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Fill the single queue slot with an idle connection.
    let parked = TcpStream::connect(addr).expect("connect parked");
    std::thread::sleep(Duration::from_millis(100));

    // The next connection is rejected immediately with 503.
    let (status, headers, body) = call(addr, "GET", "/healthz", b"");
    assert_eq!(status, 503, "{body}");
    assert!(
        headers.to_ascii_lowercase().contains("retry-after"),
        "503 must carry Retry-After: {headers}"
    );
    let v = json(&body);
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("overloaded")
    );
    assert!(
        cad_obs::counters::SERVE_REJECTED_BACKPRESSURE.get() > rejected_before,
        "serve.rejected_backpressure must advance"
    );

    // Release the worker and verify the shed shows up in /metrics.
    stalled
        .write_all(b"Host: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_response(&mut stalled);
    assert_eq!(status, 200, "the stalled request still completes");
    drop(parked);
    // The worker needs a beat to pop and discard the parked connection;
    // until it does the single queue slot is still full and this probe
    // would itself be shed. Retry through that window.
    let mut probe = call(addr, "GET", "/metrics", b"");
    for _ in 0..50 {
        if probe.0 != 503 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        probe = call(addr, "GET", "/metrics", b"");
    }
    let (status, _, metrics) = probe;
    assert_eq!(status, 200);
    assert!(
        metrics.contains("serve_rejected_backpressure_total"),
        "{metrics}"
    );
    server.drain();
}

#[test]
fn shutdown_endpoint_drains_gracefully_but_finishes_in_flight_work() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let id = create_session(addr, r#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#);

    // An in-flight push: head sent, body half sent.
    let snapshot = br#"{"nodes": 6, "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [3, 4, 1.0], [4, 5, 1.0]]}"#;
    let mut inflight = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /v1/sequences/{id}/snapshots HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        snapshot.len()
    );
    inflight.write_all(head.as_bytes()).unwrap();
    inflight.write_all(&snapshot[..20]).unwrap();
    inflight.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // Trip the drain over HTTP, then run the drain to completion in a
    // separate thread (as `cad serve` does after the signal).
    let (status, _, body) = call(addr, "POST", "/v1/shutdown", b"");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json(&body).get("draining").and_then(Json::as_bool),
        Some(true)
    );
    let drainer = std::thread::spawn(move || server.serve_until_shutdown());
    std::thread::sleep(Duration::from_millis(100));

    // The in-flight request still completes with a real response...
    inflight.write_all(&snapshot[20..]).unwrap();
    let (status, _, body) = read_response(&mut inflight);
    assert_eq!(status, 200, "{body}");
    drainer.join().expect("drain finishes");

    // ...and the drained server accepts no new work.
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

#[test]
fn pipelined_requests_sent_in_one_write_get_one_answer_each() {
    let server = Server::start(test_config()).expect("start");
    let addr = server.addr();
    let spec = br#"{"nodes": 4}"#;
    let create = |connection: &str| {
        let mut req = format!(
            "POST /v1/sequences HTTP/1.1\r\nHost: t\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n",
            spec.len()
        )
        .into_bytes();
        req.extend_from_slice(spec);
        req
    };
    let mut both = create("keep-alive");
    both.extend(create("close"));
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(&both).expect("write both requests");
    let mut text = String::new();
    conn.read_to_string(&mut text).expect("read both answers");
    assert_eq!(text.matches("HTTP/1.1 201 Created").count(), 2, "{text}");
    assert_eq!(text.matches("\"id\":").count(), 2, "{text}");
    server.drain();
}
