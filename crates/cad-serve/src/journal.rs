//! What goes *inside* journal records: the serve-layer semantics over
//! the opaque framing [`cad_journal`] provides.
//!
//! Three payload codecs plus the boot-time replay:
//!
//! * **create** — the resolved session spec re-serialized as the same
//!   JSON shape `POST /v1/sequences` accepts, with the server-default
//!   `update_mode` baked in, so a restarted server with a different
//!   `--update-mode` flag still rebuilds the session it acknowledged;
//! * **delta** — the `.cadpack` edge delta from the previous instance
//!   (or from the empty graph for the first), so replay feeds
//!   [`OnlineCad::push_metered`] the exact graphs the live session saw
//!   and lands on bit-identical state;
//! * **checkpoint** — the spec JSON plus the full [`OnlineState`]
//!   (threshold history as raw `f64` bit patterns, current snapshot as
//!   a delta from the empty graph), written by compaction so replay can
//!   start mid-stream.
//!
//! The recovery invariant: for a fixed spec, session state is a pure
//! function of the pushed graph sequence, so `replay` over the records
//! produces an [`OnlineCad`] whose every subsequent push returns the
//! same bits the uninterrupted session would have returned.

use crate::session::{parse_spec, SessionMap, SessionSpec};
use cad_commute::{EngineOptions, OracleProvider};
use cad_core::{OnlineCad, OnlineState, ScoreKind, ThresholdMode, UpdateMode};
use cad_graph::WeightedGraph;
use cad_journal::{JournalConfig, RecordKind, RecoveredJournal, SessionJournal};
use cad_obs::Json;
use cad_store::varint::{read_u64, write_u64};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

/// Re-serialize a session spec as the create-request JSON shape, with
/// the resolved update mode baked in. [`parse_spec`] round-trips it:
/// numbers go through the exact 17-significant-digit path, so a fixed
/// `delta` comes back bit-identical.
pub fn spec_to_json(spec: &SessionSpec, resolved: UpdateMode) -> String {
    let mut fields = vec![("nodes", num(spec.n_nodes))];
    match &spec.opts.engine {
        EngineOptions::Auto { embedding, .. } => {
            fields.push(("engine", Json::Str("auto".to_string())));
            fields.push(("k", num(embedding.k)));
        }
        EngineOptions::Exact => fields.push(("engine", Json::Str("exact".to_string()))),
        EngineOptions::Approximate(e) => {
            fields.push(("engine", Json::Str("approx".to_string())));
            fields.push(("k", num(e.k)));
        }
        EngineOptions::ShortestPath => {
            fields.push(("engine", Json::Str("shortest-path".to_string())))
        }
        EngineOptions::Corrected => fields.push(("engine", Json::Str("corrected".to_string()))),
    }
    let kind = match spec.opts.kind {
        ScoreKind::Cad => "cad",
        ScoreKind::Adj => "adj",
        ScoreKind::Com => "com",
    };
    fields.push(("kind", Json::Str(kind.to_string())));
    match spec.mode {
        ThresholdMode::Fixed(d) => fields.push(("delta", Json::Num(d))),
        ThresholdMode::TargetNodes(l) => fields.push(("l", num(l))),
    }
    fields.push(("update_mode", Json::Str(resolved.name().to_string())));
    if let Some(p) = &spec.opts.partition {
        fields.push(("partition", num(p.blocks)));
    }
    if !spec.label.is_empty() {
        fields.push(("label", Json::Str(spec.label.clone())));
    }
    Json::obj(fields).compact()
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
    if buf.len() < n {
        return Err(format!("checkpoint truncated reading {what}"));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn read_f64(buf: &mut &[u8], what: &str) -> Result<f64, String> {
    let bytes = take(buf, 8, what)?;
    Ok(f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("8 bytes"),
    )))
}

fn read_varint(buf: &mut &[u8], what: &str) -> Result<u64, String> {
    read_u64(buf).map_err(|e| format!("checkpoint {what}: {e}"))
}

/// Encode a compaction checkpoint: the spec JSON plus the complete
/// [`OnlineState`]. Every `f64` travels as its raw bit pattern, and the
/// current snapshot as an edge delta from the empty graph, so decoding
/// reproduces the state bit-for-bit.
pub fn encode_checkpoint(spec_json: &str, state: &OnlineState) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64(&mut out, spec_json.len() as u64);
    out.extend_from_slice(spec_json.as_bytes());
    write_u64(&mut out, state.seen as u64);
    write_f64(&mut out, state.delta);
    write_u64(&mut out, state.n_nodes.map_or(0, |n| n as u64 + 1));
    write_u64(&mut out, state.history.len() as u64);
    for level in &state.history {
        write_u64(&mut out, level.len() as u64);
        for s in level {
            write_u64(&mut out, s.u as u64);
            write_u64(&mut out, s.v as u64);
            write_f64(&mut out, s.score);
            write_f64(&mut out, s.d_weight);
            write_f64(&mut out, s.d_commute);
        }
    }
    match (&state.prev_graph, state.n_nodes) {
        (Some(g), Some(n)) => {
            out.push(1);
            let empty = WeightedGraph::from_edges(n, &[]).expect("empty graph");
            let delta = cad_store::encode_edge_delta(&empty, g);
            write_u64(&mut out, delta.len() as u64);
            out.extend_from_slice(&delta);
        }
        _ => out.push(0),
    }
    out
}

/// Decode an [`encode_checkpoint`] payload back into the spec JSON and
/// the detector state.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(String, OnlineState), String> {
    let mut buf = bytes;
    let spec_len = read_varint(&mut buf, "spec length")? as usize;
    let spec_json = String::from_utf8(take(&mut buf, spec_len, "spec")?.to_vec())
        .map_err(|_| "checkpoint spec is not UTF-8".to_string())?;
    let seen = read_varint(&mut buf, "seen")? as usize;
    let delta = read_f64(&mut buf, "delta")?;
    let n_nodes = match read_varint(&mut buf, "n_nodes")? {
        0 => None,
        n => Some((n - 1) as usize),
    };
    let n_levels = read_varint(&mut buf, "history length")? as usize;
    let mut history = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        let n_scores = read_varint(&mut buf, "history level length")? as usize;
        let mut level = Vec::with_capacity(n_scores);
        for _ in 0..n_scores {
            let u = read_varint(&mut buf, "score endpoint")? as usize;
            let v = read_varint(&mut buf, "score endpoint")? as usize;
            let score = read_f64(&mut buf, "score")?;
            let d_weight = read_f64(&mut buf, "d_weight")?;
            let d_commute = read_f64(&mut buf, "d_commute")?;
            level.push(cad_core::EdgeScore {
                u,
                v,
                score,
                d_weight,
                d_commute,
            });
        }
        history.push(level);
    }
    let prev_graph = match take(&mut buf, 1, "graph flag")?[0] {
        0 => None,
        1 => {
            let n = n_nodes.ok_or("checkpoint has a graph but no vertex-set size")?;
            let len = read_varint(&mut buf, "graph delta length")? as usize;
            let delta_bytes = take(&mut buf, len, "graph delta")?;
            let edges = cad_store::decode_edge_delta(delta_bytes)
                .map_err(|e| format!("checkpoint graph delta: {e}"))?;
            let empty =
                WeightedGraph::from_edges(n, &[]).map_err(|e| format!("checkpoint graph: {e}"))?;
            Some(
                cad_store::apply_edge_delta(&empty, &edges)
                    .map_err(|e| format!("checkpoint graph: {e}"))?,
            )
        }
        other => return Err(format!("checkpoint graph flag {other} is not 0 or 1")),
    };
    if !buf.is_empty() {
        return Err(format!("{} trailing bytes after checkpoint", buf.len()));
    }
    Ok((
        spec_json,
        OnlineState {
            n_nodes,
            seen,
            delta,
            history,
            prev_graph,
        },
    ))
}

/// One journal replayed back into a ready-to-serve session.
pub struct RecoveredSession {
    /// The session id the journal belongs to.
    pub id: u64,
    /// The parsed spec (update mode resolved).
    pub spec: SessionSpec,
    /// The spec JSON as journaled (re-used for future checkpoints).
    pub spec_json: String,
    /// The detector, advanced through every journaled push; it holds
    /// the latest snapshot, the base for the next edge-delta body.
    pub online: OnlineCad,
    /// Snapshots accepted before the crash.
    pub instances: usize,
}

/// Rebuild a session from its recovered record stream.
///
/// The first record is a create (replay from scratch) or a checkpoint
/// (resume mid-stream); every following delta is applied and pushed
/// through the same [`OnlineCad::push_metered`] path live requests use,
/// so the rebuilt state is bit-identical to the pre-crash session.
pub fn replay(
    rec: &RecoveredJournal,
    provider: Option<Arc<dyn OracleProvider>>,
) -> Result<RecoveredSession, String> {
    let mut records = rec.records.iter();
    let first = records.next().ok_or("journal has no records")?;
    let build = |spec: &SessionSpec| -> Result<OnlineCad, String> {
        let mode = spec
            .update_mode
            .ok_or("journaled spec lacks a resolved update_mode")?;
        let mut online = OnlineCad::with_mode(spec.opts, spec.mode).with_update_mode(mode);
        if let Some(p) = provider.clone() {
            online = online.with_provider(p);
        }
        Ok(online)
    };
    let (spec_json, spec, mut online, mut instances) = match first.kind {
        RecordKind::Create => {
            let spec_json = String::from_utf8(first.payload.clone())
                .map_err(|_| "create record is not UTF-8".to_string())?;
            let spec =
                parse_spec(spec_json.as_bytes()).map_err(|e| format!("create record: {e}"))?;
            let online = build(&spec)?;
            (spec_json, spec, online, 0usize)
        }
        RecordKind::Checkpoint => {
            let (spec_json, state) = decode_checkpoint(&first.payload)?;
            let spec =
                parse_spec(spec_json.as_bytes()).map_err(|e| format!("checkpoint spec: {e}"))?;
            let online = build(&spec)?;
            let online = online
                .resume(state)
                .map_err(|e| format!("checkpoint resume: {e}"))?;
            // `seen` counts transitions; the first push produced none,
            // so a session with a snapshot has accepted one more
            // instance than it has transitions.
            let instances = online.n_transitions() + usize::from(online.last_graph().is_some());
            (spec_json, spec, online, instances)
        }
        other => return Err(format!("journal starts with a {} record", other.name())),
    };
    for r in records {
        match r.kind {
            RecordKind::Delta => {
                let edges = cad_store::decode_edge_delta(&r.payload)
                    .map_err(|e| format!("delta record: {e}"))?;
                let g = match online.last_graph() {
                    Some(base) => cad_store::apply_edge_delta(base, &edges),
                    None => {
                        let empty = WeightedGraph::from_edges(spec.n_nodes, &[])
                            .map_err(|e| format!("delta record: {e}"))?;
                        cad_store::apply_edge_delta(&empty, &edges)
                    }
                }
                .map_err(|e| format!("delta record: {e}"))?;
                online
                    .push_metered(g)
                    .map_err(|e| format!("replayed push rejected: {e}"))?;
                instances += 1;
            }
            other => return Err(format!("unexpected {} record mid-journal", other.name())),
        }
    }
    Ok(RecoveredSession {
        id: rec.session_id,
        spec,
        spec_json,
        online,
        instances,
    })
}

/// Boot-time recovery: read every journal under `root`, replay each
/// into a live session in `sessions`, and reopen its journal for
/// appending. Counts `journal.recovered_sessions` and leaves a
/// `recovery` event per session in the flight recorder.
///
/// Corruption (anything beyond a torn tail) is a hard error: a server
/// asked to be durable must not silently serve partial state.
pub fn recover_all(
    root: &Path,
    cfg: &JournalConfig,
    sessions: &SessionMap,
    provider: Option<Arc<dyn OracleProvider>>,
) -> Result<usize, String> {
    let recovered = cad_journal::recover_root(root).map_err(|e| e.to_string())?;
    let mut n = 0;
    for rec in recovered {
        let t0 = Instant::now();
        let rs = replay(&rec, provider.clone())
            .map_err(|e| format!("session {}: {e}", rec.session_id))?;
        let journal = SessionJournal::open(root, cfg.clone(), &rec)
            .map_err(|e| format!("session {}: reopen failed: {e}", rec.session_id))?;
        sessions
            .restore(rs, journal)
            .map_err(|e| format!("session {}: restore failed: {e:?}", rec.session_id))?;
        cad_obs::count(cad_obs::Counter::JournalRecoveredSessions, 1);
        cad_obs::events::record(
            cad_obs::EventKind::Recovery,
            "recovery",
            t0.elapsed().as_secs_f64(),
            rec.session_id,
        );
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_core::EdgeScore;

    #[test]
    fn spec_json_round_trips_through_parse_spec() {
        for body in [
            br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#.as_slice(),
            br#"{"nodes": 9, "engine": "approx", "k": 6, "l": 3}"#,
            br#"{"nodes": 4, "label": "demo \"quoted\""}"#,
            br#"{"nodes": 8, "engine": "shortest-path", "delta": 0.125}"#,
            br#"{"nodes": 8, "engine": "corrected"}"#,
            br#"{"nodes": 8, "partition": {"blocks": 3, "mode": "bfs"}}"#,
            br#"{"nodes": 6, "delta": 0.30000000000000004}"#,
        ] {
            let spec = parse_spec(body).unwrap();
            let json = spec_to_json(&spec, spec.update_mode.unwrap_or(UpdateMode::Incremental));
            let back = parse_spec(json.as_bytes()).unwrap_or_else(|e| {
                panic!("{json} must re-parse: {e}");
            });
            assert_eq!(back.n_nodes, spec.n_nodes, "{json}");
            assert_eq!(back.label, spec.label, "{json}");
            assert_eq!(back.opts.partition, spec.opts.partition, "{json}");
            assert_eq!(
                format!("{:?}", back.opts.engine),
                format!("{:?}", spec.opts.engine),
                "{json}"
            );
            match (back.mode, spec.mode) {
                (ThresholdMode::Fixed(a), ThresholdMode::Fixed(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{json}")
                }
                (ThresholdMode::TargetNodes(a), ThresholdMode::TargetNodes(b)) => {
                    assert_eq!(a, b, "{json}")
                }
                other => panic!("threshold mode changed: {other:?}"),
            }
            assert!(
                back.update_mode.is_some(),
                "journaled spec pins the update mode: {json}"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1.5), (1, 2, 0.25), (2, 3, 3.0)]).unwrap();
        let state = OnlineState {
            n_nodes: Some(4),
            seen: 7,
            delta: 0.3 + 0.3 + 0.3, // deliberately non-representable
            history: vec![
                vec![EdgeScore {
                    u: 0,
                    v: 1,
                    score: 0.123_456_789_012_345_68,
                    d_weight: -2.5,
                    d_commute: f64::MIN_POSITIVE,
                }],
                vec![],
            ],
            prev_graph: Some(g.clone()),
        };
        let spec_json = r#"{"nodes": 4, "update_mode": "rebuild"}"#;
        let bytes = encode_checkpoint(spec_json, &state);
        let (json2, state2) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(json2, spec_json);
        assert_eq!(state2.n_nodes, Some(4));
        assert_eq!(state2.seen, 7);
        assert_eq!(state2.delta.to_bits(), state.delta.to_bits());
        assert_eq!(state2.history.len(), 2);
        assert_eq!(state2.history[1].len(), 0);
        let (a, b) = (&state.history[0][0], &state2.history[0][0]);
        assert_eq!((a.u, a.v), (b.u, b.v));
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.d_weight.to_bits(), b.d_weight.to_bits());
        assert_eq!(a.d_commute.to_bits(), b.d_commute.to_bits());
        let g2 = state2.prev_graph.expect("graph survives");
        let none = cad_store::encode_edge_delta(&g, &g2);
        let edges = cad_store::decode_edge_delta(&none).unwrap();
        assert!(edges.is_empty(), "graphs must be identical");

        // A stateless checkpoint (no pushes yet) also round-trips.
        let fresh = OnlineState {
            n_nodes: None,
            seen: 0,
            delta: f64::MAX,
            history: Vec::new(),
            prev_graph: None,
        };
        let bytes = encode_checkpoint(spec_json, &fresh);
        let (_, back) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back.n_nodes, None);
        assert!(back.prev_graph.is_none());
        assert_eq!(back.delta.to_bits(), f64::MAX.to_bits());

        // Truncation and trailing garbage are structured errors.
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(9);
        assert!(decode_checkpoint(&long).is_err());
    }
}
