//! Live-telemetry integration contracts: histogram merges are
//! deterministic under striping (the thread-pool merge pattern), the
//! flight-recorder ring never loses accounting across wraparound or
//! concurrent writers, the streaming watch loop produces exactly the
//! batch detector's anomaly sets while building each oracle exactly
//! once, and the embedded `/metrics` endpoint serves valid Prometheus
//! text for a real run.
//!
//! Every test that reads live telemetry builds its own
//! [`cad_obs::Registry`] (or flight recorder), runs the code under test
//! with it current and asserts on it — the pattern every integration
//! test touching live telemetry follows. Nothing is shared between
//! tests, so they need no locks.

use cad_cli::watch::watch_loop;
use cad_core::{CadDetector, CadOptions, OnlineCad, ThresholdMode};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_obs::{Counter, FlightRecorder, Histogram, Registry};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The coordinator merges per-worker histograms in index order; the
    /// result must not depend on how samples were striped across
    /// workers. Counts, buckets, min and max match sequential recording
    /// exactly; the sum (floating-point, association-dependent) must be
    /// bit-identical across repeated index-order merges, as must every
    /// derived quantile.
    #[test]
    fn striped_histogram_merge_is_deterministic(
        values in proptest::collection::vec(1e-12f64..1e5, 1..80),
    ) {
        let direct = Histogram::of(values.iter().copied());
        let merge_striped = |n_parts: usize| {
            let mut parts = vec![Histogram::new(); n_parts];
            for (i, &v) in values.iter().enumerate() {
                parts[i % n_parts].record(v);
            }
            let mut merged = Histogram::new();
            for p in &parts {
                merged.merge(p);
            }
            merged
        };
        let one = merge_striped(1);
        let four = merge_striped(4);

        prop_assert_eq!(one.count, direct.count);
        prop_assert_eq!(four.count, direct.count);
        prop_assert_eq!(one.bucket_counts(), direct.bucket_counts());
        prop_assert_eq!(four.bucket_counts(), direct.bucket_counts());
        prop_assert_eq!(four.min.to_bits(), direct.min.to_bits());
        prop_assert_eq!(four.max.to_bits(), direct.max.to_bits());
        // 1-way striping is sequential recording, so even the sum matches.
        prop_assert_eq!(one.sum.to_bits(), direct.sum.to_bits());
        // 4-way striping resums in a different association: the contract
        // is repeatability, not equality with the sequential sum.
        let four_again = merge_striped(4);
        prop_assert_eq!(four.sum.to_bits(), four_again.sum.to_bits());
        for q in [0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(four.quantile(q).to_bits(), direct.quantile(q).to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Wraparound bookkeeping: after `n` sequential records the ring
    /// retains the newest `min(n, RING_CAPACITY)` records with
    /// contiguous ascending sequence numbers, and `total - dropped`
    /// equals exactly what was retained — no record is ever lost
    /// without being counted.
    #[test]
    fn flight_recorder_wraparound_never_loses_the_dropped_count(
        n in 1usize..3 * cad_obs::RING_CAPACITY,
    ) {
        let rec = FlightRecorder::new();
        for i in 0..n {
            rec.record_for(
                cad_obs::TraceCtx { trace_id: i as u64 + 1, session_id: 0 },
                cad_obs::EventKind::Request,
                "push",
                0.0,
                i as u64,
            );
        }
        let snap = rec.snapshot(cad_obs::RING_CAPACITY);
        prop_assert_eq!(snap.total, n as u64);
        prop_assert_eq!(
            snap.dropped,
            n.saturating_sub(cad_obs::RING_CAPACITY) as u64
        );
        prop_assert_eq!(snap.events.len(), n.min(cad_obs::RING_CAPACITY));
        prop_assert_eq!(snap.total - snap.dropped, snap.events.len() as u64);
        for (k, ev) in snap.events.iter().enumerate() {
            let expect = (n - snap.events.len() + k) as u64;
            // Retained seqs must be the newest, ascending, and the
            // payload must travel with its seq.
            prop_assert_eq!(ev.seq, expect);
            prop_assert_eq!(ev.detail, expect);
        }
    }

    /// `snapshot(limit)` keeps the newest `limit` records, oldest
    /// first — the `/v1/debug/trace?limit=N` contract.
    #[test]
    fn flight_recorder_limit_returns_the_newest_in_order(
        n in 1usize..2048,
        limit in 0usize..64,
    ) {
        let rec = FlightRecorder::new();
        for i in 0..n {
            rec.record_for(
                cad_obs::TraceCtx { trace_id: 7, session_id: 1 },
                cad_obs::EventKind::Update,
                "incremental",
                0.0,
                i as u64,
            );
        }
        let snap = rec.snapshot(limit);
        let expect_len = limit.min(n).min(cad_obs::RING_CAPACITY);
        prop_assert_eq!(snap.events.len(), expect_len);
        for (k, ev) in snap.events.iter().enumerate() {
            prop_assert_eq!(ev.seq, (n - expect_len + k) as u64);
        }
    }
}

/// Concurrent writers racing through several wraparounds: every claim
/// is counted (`total` exact), eviction accounting balances
/// (`total - dropped == retained`), and no retained record is torn —
/// each event's payload fields still agree with each other.
#[test]
fn flight_recorder_survives_concurrent_writers() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 1500;
    let rec = &FlightRecorder::new();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    rec.record_for(
                        cad_obs::TraceCtx {
                            trace_id: w * 1_000_000 + i + 1,
                            session_id: w,
                        },
                        cad_obs::EventKind::Request,
                        "push",
                        0.0,
                        w * 1_000_000 + i + 1,
                    );
                }
            });
        }
    });
    let total = WRITERS * PER_WRITER;
    let snap = rec.snapshot(cad_obs::RING_CAPACITY);
    assert_eq!(snap.total, total);
    assert_eq!(snap.dropped, total - cad_obs::RING_CAPACITY as u64);
    assert_eq!(snap.events.len(), cad_obs::RING_CAPACITY);
    assert_eq!(snap.total - snap.dropped, snap.events.len() as u64);
    let mut seen = std::collections::BTreeSet::new();
    for ev in &snap.events {
        assert!(seen.insert(ev.seq), "duplicate seq {}", ev.seq);
        // Torn-write detector: trace id, session and detail were all
        // derived from the same (writer, i) pair at record time.
        assert_eq!(ev.trace_id, ev.detail, "torn record at seq {}", ev.seq);
        assert_eq!(
            ev.session_id,
            ev.trace_id / 1_000_000,
            "torn record at seq {}",
            ev.seq
        );
    }
    assert_eq!(
        (*seen.first().unwrap(), *seen.last().unwrap()),
        (total - cad_obs::RING_CAPACITY as u64, total - 1),
        "retained window must be exactly the newest RING_CAPACITY seqs"
    );
}

/// Two triangle clusters joined by a weak link; `bridge > 0` adds the
/// cross-cluster edge whose appearance is the anomaly.
fn instance(bridge: f64) -> WeightedGraph {
    let mut edges = vec![
        (0, 1, 3.0),
        (0, 2, 3.0),
        (1, 2, 3.0),
        (3, 4, 3.0),
        (3, 5, 3.0),
        (4, 5, 3.0),
        (2, 3, 0.2),
    ];
    if bridge > 0.0 {
        edges.push((0, 5, bridge));
    }
    WeightedGraph::from_edges(6, &edges).unwrap()
}

#[test]
fn watch_matches_batch_and_builds_each_oracle_once() {
    let reg = Arc::new(Registry::new());
    let metrics = reg.enter();

    let stream = [0.0, 0.0, 1.5, 1.5, 0.0];
    let graphs: Vec<WeightedGraph> = stream.iter().map(|&b| instance(b)).collect();
    let delta = 0.4;

    let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(delta));
    let mut sets = Vec::new();
    for g in graphs.clone() {
        if let Some(tr) = online.push(g).unwrap() {
            sets.push(tr);
        }
    }
    // The sliding oracle cache: one build per arriving instance, never a
    // rebuild of the cached left operand.
    drop(metrics);
    assert_eq!(
        reg.counter(Counter::OracleBuilds),
        graphs.len() as u64,
        "each arriving instance must build exactly one oracle"
    );

    let batch = CadDetector::new(CadOptions::default())
        .detect(&GraphSequence::new(graphs).unwrap(), delta)
        .unwrap();
    assert_eq!(sets.len(), batch.transitions.len());
    for (on, off) in sets.iter().zip(&batch.transitions) {
        assert_eq!(on.t, off.t);
        assert_eq!(on.nodes, off.nodes, "transition {}", on.t);
        assert_eq!(on.edges.len(), off.edges.len(), "transition {}", on.t);
        for (a, b) in on.edges.iter().zip(&off.edges) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // One write for the whole request; the server may answer-and-close
    // after reading only the request line (e.g. a 404), so a late EPIPE
    // is not an error.
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let _ = stream.write_all(request.as_bytes());
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn metrics_endpoint_serves_prometheus_text_for_a_watch_run() {
    // The endpoint serves the registry current when it starts.
    let reg = Arc::new(Registry::new());
    let _metrics = reg.enter();

    let health = Arc::new(cad_obs::WatchHealth::new());
    let server = cad_obs::MetricsServer::start("127.0.0.1:0", Arc::clone(&health)).unwrap();

    let graphs = vec![instance(0.0), instance(0.0), instance(1.5)];
    let mut source = graphs.into_iter().map(Ok);
    let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.4));
    let mut events = Vec::new();
    let (instances, transitions) =
        watch_loop(&mut source, &mut online, &mut events, None, &health, None).unwrap();
    assert_eq!((instances, transitions), (3, 2));

    let metrics = http_get(server.addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    assert!(
        metrics.contains("cad_commute_oracle_builds_total 3"),
        "counter for the 3 builds missing:\n{metrics}"
    );
    // At least one histogram with the full bucket/sum/count triple.
    assert!(
        metrics.contains("cad_oracle_build_secs_bucket{le=\"+Inf\"} 3"),
        "{metrics}"
    );
    assert!(metrics.contains("cad_oracle_build_secs_sum"), "{metrics}");
    assert!(
        metrics.contains("cad_oracle_build_secs_count 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("cad_transition_score_secs_count 2"),
        "{metrics}"
    );

    let healthz = http_get(server.addr(), "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
    assert!(healthz.contains("\"transitions\": 2"), "{healthz}");

    let missing = http_get(server.addr(), "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    server.shutdown();
}
