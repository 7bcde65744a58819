//! Request routing for the detection service.
//!
//! One pure-ish entry point, [`route`]: parsed request in, [`Response`]
//! out. All endpoint semantics live here — the server module only moves
//! connections and bytes. Every response body is JSON (one line,
//! NDJSON-compatible) except `/healthz` and `/metrics`; every error
//! uses the shared [`cad_obs::http::error_body`] schema
//! `{"error": {"code": ..., "message": ...}}`.
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | `POST` | `/v1/sequences` | create a session from a JSON spec |
//! | `POST` | `/v1/sequences/{id}/snapshots` | push the next instance |
//! | `GET` | `/v1/sequences/{id}` | session status |
//! | `DELETE` | `/v1/sequences/{id}` | drop the session |
//! | `GET` | `/healthz` | liveness probe |
//! | `GET` | `/metrics` | Prometheus text exposition |
//! | `GET` | `/v1/debug/trace` | flight-recorder snapshot (`?limit=N`) |
//! | `GET` | `/v1/debug/profile` | Chrome-trace timeline (`?limit=N`) |
//! | `POST` | `/v1/shutdown` | request graceful drain |
//!
//! Every request is minted a [`cad_obs::TraceCtx`] installed for the
//! handler's duration, echoed back as `X-Cad-Trace-Id`, and stamped on
//! every flight-recorder event the layers below emit.

use crate::server::Shutdown;
use crate::session::{parse_spec, CreateError, Session, SessionMap};
use crate::snapshot::{decode_snapshot, SnapshotError};
use cad_commute::OracleProvider;
use cad_core::{OnlineStepMetrics, StepOracle, TransitionAnomalies};
use cad_graph::{GraphError, WeightedGraph};
use cad_obs::events::EventKind;
use cad_obs::http::{error_body, Request};
use cad_obs::{Counter, Hist, Json, LabeledHist};
use std::sync::Arc;

/// Request attribution the server's access log needs back from the
/// handler: everything here is observability-only (wall-times and
/// trace ids — the sanctioned nondeterminism) and never feeds the
/// anomaly path.
#[derive(Debug, Clone, Default)]
pub struct ResponseMeta {
    /// The trace id minted for the request (0 when routed outside the
    /// traced entry point).
    pub trace_id: u64,
    /// Session id the request addressed (0 when none).
    pub session_id: u64,
    /// Handler wall-clock seconds (excludes parse and socket writes).
    pub handler_secs: f64,
    /// `"incremental"` / `"rebuild"` for snapshot pushes.
    pub update_mode: Option<&'static str>,
    /// Fallback reason name when a push declined an incremental update.
    pub fallback: Option<&'static str>,
    /// Oracle backend that served a push (labels `serve_push_secs`).
    pub engine: Option<&'static str>,
    /// Closed-table event name overriding the status-derived one for
    /// the error event (e.g. `rate_limited` vs the generic 429 name).
    pub error_event: Option<&'static str>,
}

/// A response ready for [`cad_obs::http::write_response`].
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`).
    pub extra: Vec<(&'static str, String)>,
    /// Access-log attribution fields.
    pub meta: ResponseMeta,
}

impl Response {
    fn json(status: u16, v: Json) -> Response {
        let mut body = v.compact();
        body.push('\n');
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
            meta: ResponseMeta::default(),
        }
    }

    fn error(status: u16, code: &str, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: error_body(code, message).into_bytes(),
            extra: Vec::new(),
            meta: ResponseMeta::default(),
        }
    }
}

/// Everything [`route`] needs besides the request.
pub struct RouterCtx {
    /// The session registry.
    pub sessions: SessionMap,
    /// Warm oracle cache wired into every new session (`--store-dir`).
    pub provider: Option<Arc<dyn OracleProvider>>,
    /// The drain signal `POST /v1/shutdown` trips.
    pub shutdown: Arc<Shutdown>,
}

/// The media type of a binary `.cadpack` edge-delta snapshot body.
pub const DELTA_CONTENT_TYPE: &str = "application/x-cadpack-delta";

fn num(n: usize) -> Json {
    Json::Num(n as f64)
}

/// Serialize a transition (or its absence) exactly: scores go through
/// the 17-significant-digit JSON number path, so a client reading them
/// back sees the same `f64` bits batch detection produces.
fn transition_json(tr: &Option<TransitionAnomalies>, delta: f64, m: &OnlineStepMetrics) -> Json {
    let Some(tr) = tr else {
        return Json::Null;
    };
    let edges: Vec<Json> = tr
        .edges
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("u", num(e.u)),
                ("v", num(e.v)),
                ("score", Json::Num(e.score)),
                ("d_weight", Json::Num(e.d_weight)),
                ("d_commute", Json::Num(e.d_commute)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("t", num(tr.t)),
        (
            "delta",
            if delta == f64::MAX {
                Json::Null
            } else {
                Json::Num(delta)
            },
        ),
        ("n_scored", num(m.n_scored)),
        ("edges", Json::Arr(edges)),
        (
            "nodes",
            Json::Arr(tr.nodes.iter().map(|&n| num(n)).collect()),
        ),
        (
            "latency",
            Json::obj(vec![
                ("build_secs", Json::Num(m.build.build_secs)),
                (
                    "update_secs",
                    match m.oracle {
                        StepOracle::Incremental { update_secs, .. } => Json::Num(update_secs),
                        _ => Json::Num(0.0),
                    },
                ),
                ("score_secs", Json::Num(m.score_secs)),
            ]),
        ),
    ])
}

/// The oracle path this push took: `"update_mode"` is `incremental` or
/// `rebuild`, and a fallback (incremental requested, rebuild taken)
/// additionally names its trigger in `"fallback"` so operators can tell
/// a fallback storm from plain rebuild mode.
fn oracle_json(step: StepOracle) -> Vec<(&'static str, Json)> {
    let mut fields = vec![("update_mode", Json::Str(step.mode_name().to_string()))];
    if let Some(reason) = step.fallback_reason() {
        fields.push(("fallback", Json::Str(reason.name().to_string())));
    }
    fields
}

/// `(status, code)` for a snapshot the detector rejected. Public so
/// `cad watch` can emit the *same* structured error body
/// (`{"error": {"code": ..., ...}}`) for a bad NDJSON snapshot that the
/// serve snapshot endpoint returns for the same defect.
pub fn graph_error_code(e: &GraphError) -> (u16, &'static str) {
    match e {
        GraphError::NodeOutOfRange { .. } => (422, "node_out_of_range"),
        GraphError::MixedNodeCounts { .. } => (422, "mixed_node_counts"),
        GraphError::InvalidWeight { .. } => (422, "invalid_weight"),
        GraphError::SelfLoop { .. } => (422, "self_loop"),
        _ => (422, "invalid_snapshot"),
    }
}

/// Decode a JSON edge-list snapshot ([`crate::snapshot`]) for a session
/// of `session_nodes` vertices.
#[allow(clippy::result_large_err)] // the Err is a cold bad-request path
fn snapshot_from_json(body: &[u8], session_nodes: usize) -> Result<WeightedGraph, Response> {
    decode_snapshot(body, Some(session_nodes)).map_err(|e| match e {
        SnapshotError::Malformed(message) => Response::error(400, "bad_request", &message),
        SnapshotError::Graph(g) => {
            let (status, code) = graph_error_code(&g);
            Response::error(status, code, &g.to_string())
        }
    })
}

/// Decode a binary edge-delta body against the session's latest
/// snapshot.
#[allow(clippy::result_large_err)] // the Err is a cold bad-request path
fn snapshot_from_delta(
    body: &[u8],
    base: Option<&WeightedGraph>,
) -> Result<WeightedGraph, Response> {
    let Some(base) = base else {
        return Err(Response::error(
            422,
            "delta_without_base",
            "an edge-delta body needs a previous snapshot to apply to; \
             send the first snapshot as a JSON edge list",
        ));
    };
    let delta = cad_store::decode_edge_delta(body)
        .map_err(|e| Response::error(400, "bad_delta", &e.to_string()))?;
    cad_store::apply_edge_delta(base, &delta).map_err(|e| match e {
        cad_store::StoreError::Graph(g) => {
            let (status, code) = graph_error_code(&g);
            Response::error(status, code, &g.to_string())
        }
        other => Response::error(400, "bad_delta", &other.to_string()),
    })
}

fn create_session(req: &Request, ctx: &RouterCtx) -> Response {
    let spec = match parse_spec(&req.body) {
        Ok(s) => s,
        Err(msg) => return Response::error(422, "bad_spec", &msg),
    };
    match ctx.sessions.create(spec, ctx.provider.clone()) {
        Ok(session) => Response::json(
            201,
            Json::obj(vec![
                ("id", num(session.id as usize)),
                ("nodes", num(session.n_nodes)),
                ("label", Json::Str(session.label.clone())),
            ]),
        ),
        Err(CreateError::Full { max_sessions }) => {
            let mut resp = Response::error(
                429,
                "too_many_sessions",
                &format!("session cap of {max_sessions} reached; delete one or retry later"),
            );
            resp.extra.push(("Retry-After", "1".to_string()));
            resp
        }
        Err(CreateError::Journal(e)) => {
            let mut resp = Response::error(
                500,
                "journal_error",
                &format!("cannot journal the session create: {e}"),
            );
            resp.meta.error_event = Some("journal_error");
            resp
        }
    }
}

fn push_snapshot(req: &Request, session: &Session) -> Response {
    let _span = cad_obs::TraceSpan::enter("push");
    let mut inner = session.lock();
    if inner.journal_failed {
        let mut resp = Response::error(
            500,
            "journal_error",
            &format!(
                "session {} could not journal an earlier push and no longer accepts pushes; \
                 recreate it, or restart the server to replay its acknowledged pushes",
                session.id
            ),
        );
        resp.meta.error_event = Some("journal_error");
        return resp;
    }
    if let Some(bucket) = inner.bucket.as_mut() {
        if let Err(wait_secs) = bucket.try_take() {
            cad_obs::count(Counter::ServeRateLimited, 1);
            let mut resp = Response::error(
                429,
                "rate_limited",
                &format!(
                    "session {} exceeded its push rate limit; retry in {wait_secs:.3}s",
                    session.id
                ),
            );
            resp.extra.push((
                "Retry-After",
                format!("{}", wait_secs.ceil().max(1.0) as u64),
            ));
            resp.meta.error_event = Some("rate_limited");
            return resp;
        }
    }
    let is_delta = req
        .header("content-type")
        .is_some_and(|ct| ct.split(';').next().map(str::trim) == Some(DELTA_CONTENT_TYPE));
    let g = if is_delta {
        snapshot_from_delta(&req.body, inner.online.last_graph())
    } else {
        snapshot_from_json(&req.body, session.n_nodes)
    };
    let g = match g {
        Ok(g) => g,
        Err(resp) => return resp,
    };
    // The journal delta is encoded from the session's own previous
    // snapshot before the detector takes the new one, so JSON and
    // binary bodies journal identically.
    let journal_delta = inner
        .journal
        .as_ref()
        .map(|_| match inner.online.last_graph() {
            Some(base) => cad_store::encode_edge_delta(base, &g),
            None => {
                let empty = WeightedGraph::from_edges(session.n_nodes, &[])
                    .expect("empty graph is always valid");
                cad_store::encode_edge_delta(&empty, &g)
            }
        });
    match inner.online.push_metered(g) {
        Ok((tr, m)) => {
            // Journal the accepted push before the response exists: a
            // crash after the append replays this instance; a crash
            // before it never acknowledged the push.
            if let (Some(journal), Some(delta)) = (inner.journal.as_mut(), journal_delta) {
                if let Err(e) = journal.append(cad_journal::RecordKind::Delta, &delta) {
                    // The detector already took the instance; later
                    // pushes would build on a state no replay reaches.
                    inner.journal_failed = true;
                    let mut resp = Response::error(
                        500,
                        "journal_error",
                        &format!("cannot journal the push: {e}"),
                    );
                    resp.meta.error_event = Some("journal_error");
                    return resp;
                }
            }
            inner.instances += 1;
            let mut fields = vec![
                ("id", num(session.id as usize)),
                ("instance", num(inner.instances - 1)),
            ];
            fields.extend(oracle_json(m.oracle));
            if let Some(p) = &m.partition {
                fields.push((
                    "partition",
                    Json::obj(vec![
                        ("blocks", num(p.blocks)),
                        ("boundary_edges", num(p.boundary_edges)),
                    ]),
                ));
            }
            fields.push(("transition", transition_json(&tr, inner.online.delta(), &m)));
            let mut resp = Response::json(200, Json::obj(fields));
            resp.meta.update_mode = Some(m.oracle.mode_name());
            resp.meta.fallback = m.oracle.fallback_reason().map(|r| r.name());
            resp.meta.engine = Some(m.build.backend);
            resp
        }
        Err(e) => {
            let (status, code) = graph_error_code(&e);
            Response::error(status, code, &e.to_string())
        }
    }
}

fn session_status(session: &Session) -> Response {
    let inner = session.lock();
    Response::json(
        200,
        Json::obj(vec![
            ("id", num(session.id as usize)),
            ("nodes", num(session.n_nodes)),
            ("label", Json::Str(session.label.clone())),
            ("instances", num(inner.instances)),
            ("transitions", num(inner.online.n_transitions())),
            (
                "delta",
                if inner.online.delta() == f64::MAX {
                    Json::Null
                } else {
                    Json::Num(inner.online.delta())
                },
            ),
        ]),
    )
}

fn not_found(path: &str) -> Response {
    Response::error(404, "not_found", &format!("no route for `{path}`"))
}

fn method_not_allowed(method: &str, path: &str) -> Response {
    Response::error(
        405,
        "method_not_allowed",
        &format!("`{method}` not allowed on `{path}`"),
    )
}

/// Extract a query parameter from a raw request path
/// (`/v1/debug/trace?limit=32`).
fn query_param<'a>(raw_path: &'a str, key: &str) -> Option<&'a str> {
    let query = raw_path.split('?').nth(1)?;
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `GET /v1/debug/trace?limit=N` — the newest `N` flight-recorder
/// events (default 256), oldest first, with the ring's drop accounting.
fn debug_trace(raw_path: &str) -> Response {
    let limit = query_param(raw_path, "limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(256);
    let snap = cad_obs::with_current(|r| r.events().snapshot(limit));
    Response::json(
        200,
        Json::obj(vec![
            ("total", Json::Num(snap.total as f64)),
            ("dropped", Json::Num(snap.dropped as f64)),
            ("retained", num(snap.events.len())),
            (
                "events",
                Json::Arr(snap.events.iter().map(|e| e.to_json()).collect()),
            ),
        ]),
    )
}

/// `GET /v1/debug/profile?limit=N` — the flight recorder and span
/// registry rendered as Chrome trace-event JSON
/// ([`cad_obs::profile`]), ready to drop into Perfetto / `chrome:`
/// `//tracing` without restarting the server. `limit` bounds the
/// flight-recorder events considered (default: the whole ring).
fn debug_profile(raw_path: &str) -> Response {
    let limit = query_param(raw_path, "limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(cad_obs::RING_CAPACITY);
    Response::json(200, cad_obs::profile::capture(limit))
}

/// The closed event-table name for the endpoint a request hit.
fn endpoint_name(segments: &[&str], method: &str) -> &'static str {
    match segments {
        ["healthz"] => "healthz",
        ["metrics"] => "metrics",
        ["v1", "shutdown"] => "shutdown",
        ["v1", "debug", "trace"] => "debug_trace",
        ["v1", "debug", "profile"] => "debug_profile",
        ["v1", "sequences"] => "create",
        ["v1", "sequences", _] if method == "DELETE" => "delete",
        ["v1", "sequences", _] => "status",
        ["v1", "sequences", _, "snapshots"] => "push",
        _ => "other",
    }
}

/// The closed event-table name for an error status.
fn error_event_name(status: u16) -> &'static str {
    match status {
        400 => "bad_request",
        404 => "not_found",
        405 => "method_not_allowed",
        408 => "timeout",
        413 => "body_too_large",
        422 => "bad_request",
        429 => "session_cap",
        431 => "head_too_large",
        500 => "internal",
        503 => "overloaded",
        _ => "other",
    }
}

/// Route one request. Counts `serve.requests`, observes the
/// per-endpoint latency histograms, and runs the handler under a
/// freshly minted [`cad_obs::TraceCtx`] echoed back as
/// `X-Cad-Trace-Id`.
pub fn route(req: &Request, ctx: &RouterCtx) -> Response {
    route_queued(req, ctx, None, 0)
}

/// [`route`] for requests popped off the worker queue: `queue_wait` is
/// the seconds the connection waited for a worker (recorded as a
/// `queue_wait` event and in the `serve_queue_wait_secs` histogram;
/// pass `None` when the request did not cross the queue) and `worker`
/// is the handling worker's index.
pub fn route_queued(
    req: &Request,
    ctx: &RouterCtx,
    queue_wait: Option<f64>,
    worker: usize,
) -> Response {
    cad_obs::count(Counter::ServeRequests, 1);
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let method = req.method.as_str();

    // Attribute everything below — events, counter deltas, solver
    // spans — to this request.
    let session_id = match segments.as_slice() {
        ["v1", "sequences", id, ..] => id.parse::<u64>().unwrap_or(0),
        _ => 0,
    };
    let tr = cad_obs::TraceCtx::mint(session_id);
    let _trace = cad_obs::trace::set_current(tr);
    if let Some(wait) = queue_wait {
        cad_obs::observe(Hist::ServeQueueWaitSecs, wait);
        cad_obs::events::record(EventKind::QueueWait, "queue_wait", wait, worker as u64);
    }
    let endpoint = endpoint_name(&segments, method);
    let (mut resp, secs) = cad_obs::time_it(|| dispatch(req, ctx, path, &segments, method));
    cad_obs::events::record(EventKind::Request, endpoint, secs, resp.status as u64);
    if resp.status >= 400 {
        cad_obs::events::record(
            EventKind::Error,
            resp.meta
                .error_event
                .unwrap_or_else(|| error_event_name(resp.status)),
            0.0,
            resp.status as u64,
        );
    }
    resp.meta.trace_id = tr.trace_id;
    resp.meta.session_id = session_id;
    resp.meta.handler_secs = secs;
    resp.extra.push(("X-Cad-Trace-Id", tr.id_hex()));
    resp
}

/// The endpoint dispatch [`route_queued`] runs under the installed
/// trace.
fn dispatch(
    req: &Request,
    ctx: &RouterCtx,
    path: &str,
    segments: &[&str],
    method: &str,
) -> Response {
    match segments {
        ["healthz"] => {
            let (resp, secs) = cad_obs::time_it(|| match method {
                "GET" => Response {
                    status: 200,
                    content_type: "text/plain; charset=utf-8",
                    body: b"ok\n".to_vec(),
                    extra: Vec::new(),
                    meta: ResponseMeta::default(),
                },
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["metrics"] => {
            let (resp, secs) = cad_obs::time_it(|| match method {
                "GET" => Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: cad_obs::render_prometheus().into_bytes(),
                    extra: Vec::new(),
                    meta: ResponseMeta::default(),
                },
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["v1", "debug", "trace"] => {
            let (resp, secs) = cad_obs::time_it(|| match method {
                "GET" => debug_trace(&req.path),
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["v1", "debug", "profile"] => {
            let (resp, secs) = cad_obs::time_it(|| match method {
                "GET" => debug_profile(&req.path),
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["v1", "shutdown"] => {
            let (resp, secs) = cad_obs::time_it(|| match method {
                "POST" => {
                    ctx.shutdown.request();
                    Response::json(200, Json::obj(vec![("draining", Json::Bool(true))]))
                }
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["v1", "sequences"] => match method {
            "POST" => {
                let (resp, secs) = cad_obs::time_it(|| create_session(req, ctx));
                cad_obs::observe(Hist::ServeCreateSecs, secs);
                resp
            }
            _ => method_not_allowed(method, path),
        },
        ["v1", "sequences", id] => {
            let Ok(id) = id.parse::<u64>() else {
                return not_found(path);
            };
            let Some(session) = ctx.sessions.get(id) else {
                return Response::error(404, "no_such_session", &format!("no session {id}"));
            };
            let (resp, secs) = cad_obs::time_it(|| match method {
                "GET" => session_status(&session),
                "DELETE" => {
                    ctx.sessions.remove(id);
                    Response::json(
                        200,
                        Json::obj(vec![
                            ("id", num(id as usize)),
                            ("deleted", Json::Bool(true)),
                        ]),
                    )
                }
                _ => method_not_allowed(method, path),
            });
            cad_obs::observe(Hist::ServeAdminSecs, secs);
            resp
        }
        ["v1", "sequences", id, "snapshots"] => {
            let Ok(id) = id.parse::<u64>() else {
                return not_found(path);
            };
            match method {
                "POST" => {
                    let Some(session) = ctx.sessions.get(id) else {
                        return Response::error(
                            404,
                            "no_such_session",
                            &format!("no session {id}"),
                        );
                    };
                    let (resp, secs) = cad_obs::time_it(|| push_snapshot(req, &session));
                    cad_obs::observe(Hist::ServePushSecs, secs);
                    if let Some(engine) = resp.meta.engine {
                        cad_obs::observe_labeled(LabeledHist::ServePushSecs, engine, secs);
                    }
                    resp
                }
                _ => method_not_allowed(method, path),
            }
        }
        _ => not_found(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_obs::Registry;

    fn ctx() -> RouterCtx {
        RouterCtx {
            sessions: SessionMap::new(8),
            provider: None,
            shutdown: Arc::new(Shutdown::new()),
        }
    }

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn delta_request(path: &str, body: &[u8]) -> Request {
        let mut req = request("POST", path, body);
        req.headers
            .push(("content-type".to_string(), DELTA_CONTENT_TYPE.to_string()));
        req
    }

    fn parse(resp: &Response) -> Json {
        let text = std::str::from_utf8(&resp.body).expect("utf-8 body");
        cad_obs::parse_json(text).expect("json body")
    }

    fn snapshot_body(bridge: f64) -> String {
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
        let list: Vec<String> = edges
            .iter()
            .map(|(u, v, w)| format!("[{u}, {v}, {w:?}]"))
            .collect();
        format!(r#"{{"nodes": 6, "edges": [{}]}}"#, list.join(", "))
    }

    #[test]
    fn create_push_status_delete_lifecycle() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 201);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();

        let push = format!("/v1/sequences/{id}/snapshots");
        let resp = route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        assert_eq!(resp.status, 200);
        assert!(matches!(parse(&resp).get("transition"), Some(Json::Null)));

        let resp = route(&request("POST", &push, snapshot_body(1.5).as_bytes()), &ctx);
        assert_eq!(resp.status, 200);
        let tr = parse(&resp);
        let tr = tr.get("transition").expect("transition");
        assert_eq!(tr.get("t").and_then(Json::as_u64), Some(0));
        let edges = tr.get("edges").and_then(Json::as_arr).unwrap();
        assert_eq!(edges.len(), 1, "the bridge edge is anomalous");
        assert_eq!(edges[0].get("u").and_then(Json::as_u64), Some(0));
        assert_eq!(edges[0].get("v").and_then(Json::as_u64), Some(5));

        let status_path = format!("/v1/sequences/{id}");
        let resp = route(&request("GET", &status_path, b""), &ctx);
        assert_eq!(resp.status, 200);
        let v = parse(&resp);
        assert_eq!(v.get("instances").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("transitions").and_then(Json::as_u64), Some(1));

        let resp = route(&request("DELETE", &status_path, b""), &ctx);
        assert_eq!(resp.status, 200);
        let resp = route(&request("GET", &status_path, b""), &ctx);
        assert_eq!(resp.status, 404);
        assert_eq!(reg.counter(Counter::ServeRequests), 6);
    }

    #[test]
    fn push_reports_update_mode_and_fallbacks() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4, "update_mode": "incremental"}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 201);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");

        // First snapshot has no previous oracle: always a fresh build.
        let resp = route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        let v = parse(&resp);
        assert_eq!(v.get("update_mode").and_then(Json::as_str), Some("rebuild"));
        assert!(
            v.get("fallback").is_none(),
            "a plain rebuild is no fallback"
        );

        // A weight-only delta is applied in place.
        let resp = route(&request("POST", &push, snapshot_body(1.5).as_bytes()), &ctx);
        let v = parse(&resp);
        assert_eq!(
            v.get("update_mode").and_then(Json::as_str),
            Some("incremental")
        );
        assert!(v.get("fallback").is_none());
        let latency = v.get("transition").unwrap().get("latency").unwrap();
        let upd = latency.get("update_secs").and_then(Json::as_f64).unwrap();
        assert!(upd >= 0.0);

        // Dropping the connector splits the graph: structural fallback.
        let body = r#"{"nodes": 6, "edges": [[0, 1, 3.0], [0, 2, 3.0], [1, 2, 3.0], [3, 4, 3.0], [3, 5, 3.0], [4, 5, 3.0]]}"#;
        let resp = route(&request("POST", &push, body.as_bytes()), &ctx);
        let v = parse(&resp);
        assert_eq!(v.get("update_mode").and_then(Json::as_str), Some("rebuild"));
        assert_eq!(v.get("fallback").and_then(Json::as_str), Some("structural"));
        assert_eq!(reg.counter(Counter::IncrementalUpdates), 1);
        assert_eq!(reg.counter(Counter::RebuildFallbacks), 1);
    }

    #[test]
    fn partitioned_session_reports_layout_on_push() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4, "partition": 2}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 201, "{:?}", parse(&resp));
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");

        // Two triangles, no connector: two components, zero cut edges.
        let body = r#"{"nodes": 6, "edges": [[0, 1, 3.0], [0, 2, 3.0], [1, 2, 3.0], [3, 4, 3.0], [3, 5, 3.0], [4, 5, 3.0]]}"#;
        let resp = route(&request("POST", &push, body.as_bytes()), &ctx);
        assert_eq!(resp.status, 200, "{:?}", parse(&resp));
        let v = parse(&resp);
        let p = v.get("partition").expect("partition object");
        assert_eq!(p.get("blocks").and_then(Json::as_u64), Some(2));
        assert_eq!(p.get("boundary_edges").and_then(Json::as_u64), Some(0));

        // An unpartitioned session's push carries no partition field.
        let resp = route(&request("POST", "/v1/sequences", br#"{"nodes": 6}"#), &ctx);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");
        let resp = route(&request("POST", &push, body.as_bytes()), &ctx);
        assert_eq!(resp.status, 200);
        assert!(parse(&resp).get("partition").is_none());
    }

    #[test]
    fn node_out_of_range_is_the_structured_error() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(&request("POST", "/v1/sequences", br#"{"nodes": 4}"#), &ctx);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");
        let resp = route(
            &request("POST", &push, br#"{"edges": [[0, 9, 1.0]]}"#),
            &ctx,
        );
        assert_eq!(resp.status, 422);
        let v = parse(&resp);
        let e = v.get("error").expect("error object");
        assert_eq!(
            e.get("code").and_then(|j| j.as_str()),
            Some("node_out_of_range")
        );
        // A declared vertex-set size that disagrees with the session is
        // rejected before any edge parsing.
        let resp = route(
            &request("POST", &push, br#"{"nodes": 9, "edges": []}"#),
            &ctx,
        );
        assert_eq!(resp.status, 422);
        let v = parse(&resp);
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(|j| j.as_str()),
            Some("mixed_node_counts")
        );
    }

    #[test]
    fn delta_bodies_apply_against_the_previous_snapshot() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
            ),
            &ctx,
        );
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");

        // A delta with no base is refused with a pointed error.
        let resp = route(&delta_request(&push, b"\x00"), &ctx);
        assert_eq!(resp.status, 422);

        let resp = route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        assert_eq!(resp.status, 200);

        // Now the bridge appears via a binary delta.
        let base = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 3.0),
                (0, 2, 3.0),
                (1, 2, 3.0),
                (3, 4, 3.0),
                (3, 5, 3.0),
                (4, 5, 3.0),
                (2, 3, 0.2),
            ],
        )
        .unwrap();
        let next = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 3.0),
                (0, 2, 3.0),
                (1, 2, 3.0),
                (3, 4, 3.0),
                (3, 5, 3.0),
                (4, 5, 3.0),
                (2, 3, 0.2),
                (0, 5, 1.5),
            ],
        )
        .unwrap();
        let body = cad_store::encode_edge_delta(&base, &next);
        let resp = route(&delta_request(&push, &body), &ctx);
        assert_eq!(resp.status, 200);
        let v = parse(&resp);
        let tr = v.get("transition").expect("transition");
        let edges = tr.get("edges").and_then(Json::as_arr).unwrap();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].get("v").and_then(Json::as_u64), Some(5));

        // Garbage delta bytes are a 400, not a panic.
        let resp = route(&delta_request(&push, b"\xff\xff\xff\xff"), &ctx);
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn unknown_routes_and_methods_are_404_405() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        assert_eq!(route(&request("GET", "/nope", b""), &ctx).status, 404);
        assert_eq!(
            route(&request("GET", "/v1/sequences", b""), &ctx).status,
            405
        );
        assert_eq!(route(&request("PUT", "/healthz", b""), &ctx).status, 405);
        assert_eq!(
            route(&request("GET", "/v1/sequences/abc", b""), &ctx).status,
            404
        );
        assert_eq!(
            route(&request("GET", "/v1/sequences/99", b""), &ctx).status,
            404
        );
        let resp = route(&request("GET", "/metrics", b""), &ctx);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("serve_requests_total"), "{text}");
    }

    #[test]
    fn shutdown_endpoint_trips_the_drain_signal() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        assert!(!ctx.shutdown.is_requested());
        let resp = route(&request("POST", "/v1/shutdown", b""), &ctx);
        assert_eq!(resp.status, 200);
        assert!(ctx.shutdown.is_requested());
    }

    #[test]
    fn requests_carry_trace_ids_into_the_flight_recorder() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
            ),
            &ctx,
        );
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");
        let resp = route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        assert_eq!(resp.status, 200);
        let trace_hex = resp
            .extra
            .iter()
            .find(|(k, _)| *k == "X-Cad-Trace-Id")
            .map(|(_, v)| v.clone())
            .expect("push response carries a trace id");
        assert_eq!(trace_hex.len(), 16);
        assert_eq!(
            resp.meta.trace_id,
            u64::from_str_radix(&trace_hex, 16).unwrap()
        );
        assert_eq!(resp.meta.session_id, id);
        assert_eq!(resp.meta.update_mode, Some("rebuild"));
        assert_eq!(resp.meta.engine, Some("exact"));

        let resp = route(&request("GET", "/v1/debug/trace?limit=64", b""), &ctx);
        assert_eq!(resp.status, 200);
        let v = parse(&resp);
        let events = v.get("events").and_then(Json::as_arr).expect("events");
        let of_trace: Vec<_> = events
            .iter()
            .filter(|e| e.get("trace_id").and_then(Json::as_str) == Some(trace_hex.as_str()))
            .collect();
        // The push's span pair and its request record all carry the id.
        assert!(
            of_trace.iter().any(
                |e| e.get("kind").and_then(Json::as_str) == Some("span_open")
                    && e.get("name").and_then(Json::as_str) == Some("push")
            ),
            "{of_trace:?}"
        );
        assert!(
            of_trace
                .iter()
                .any(|e| e.get("kind").and_then(Json::as_str) == Some("request")
                    && e.get("name").and_then(Json::as_str) == Some("push")
                    && e.get("detail").and_then(Json::as_u64) == Some(200)),
            "{of_trace:?}"
        );
        // A rebuild on the first push leaves an update event on the id.
        assert!(
            of_trace
                .iter()
                .any(|e| e.get("kind").and_then(Json::as_str) == Some("update")),
            "{of_trace:?}"
        );
        // All of it attributed to the session.
        assert!(of_trace
            .iter()
            .all(|e| e.get("session").and_then(Json::as_u64) == Some(id)));
    }

    #[test]
    fn debug_trace_respects_the_limit_parameter() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        for _ in 0..5 {
            route(&request("GET", "/healthz", b""), &ctx);
        }
        let resp = route(&request("GET", "/v1/debug/trace?limit=3", b""), &ctx);
        let v = parse(&resp);
        assert_eq!(v.get("retained").and_then(Json::as_u64), Some(3));
        let events = v.get("events").and_then(Json::as_arr).unwrap();
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").and_then(Json::as_u64).unwrap())
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "events come oldest-first");
    }

    #[test]
    fn debug_profile_serves_a_chrome_trace_timeline() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx();
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
            ),
            &ctx,
        );
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");
        route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        route(&request("POST", &push, snapshot_body(1.5).as_bytes()), &ctx);

        let resp = route(&request("GET", "/v1/debug/profile?limit=128", b""), &ctx);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        let v = parse(&resp);
        assert_eq!(v.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
        let events = v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // The pushes above leave complete ("X") request events on the
        // timeline, each carrying a flow binding back to its trace id.
        assert!(
            events
                .iter()
                .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("cat").and_then(Json::as_str) == Some("request")),
            "pushes should appear as complete events"
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("bind_id").and_then(Json::as_str).is_some()),
            "request events should carry flow bindings"
        );
        assert_eq!(
            route(&request("POST", "/v1/debug/profile", b""), &ctx).status,
            405
        );
    }

    fn ctx_with(sessions: SessionMap) -> RouterCtx {
        RouterCtx {
            sessions,
            provider: None,
            shutdown: Arc::new(Shutdown::new()),
        }
    }

    fn tmp_journal_root(tag: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "cad-router-journal-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rate_limited_pushes_get_429_with_retry_after() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = ctx_with(SessionMap::new(8).with_push_rps(0.25));
        let resp = route(
            &request(
                "POST",
                "/v1/sequences",
                br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#,
            ),
            &ctx,
        );
        assert_eq!(resp.status, 201);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");

        // Burst of one: the first push spends the bucket...
        let resp = route(&request("POST", &push, snapshot_body(0.0).as_bytes()), &ctx);
        assert_eq!(resp.status, 200);
        // ...and the second is shed with the shared error schema.
        let resp = route(&request("POST", &push, snapshot_body(1.5).as_bytes()), &ctx);
        assert_eq!(resp.status, 429);
        let v = parse(&resp);
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("rate_limited")
        );
        let retry: u64 = resp
            .extra
            .iter()
            .find(|(k, _)| *k == "Retry-After")
            .map(|(_, v)| v.parse().unwrap())
            .expect("Retry-After header");
        assert!(retry >= 1, "{retry}");
        assert_eq!(reg.counter(Counter::ServeRateLimited), 1);
        // The session itself is untouched: no instance was consumed.
        let resp = route(&request("GET", &format!("/v1/sequences/{id}"), b""), &ctx);
        assert_eq!(
            parse(&resp).get("instances").and_then(Json::as_u64),
            Some(1)
        );
    }

    /// Push `bodies` into session `id` on `ctx`, returning each push's
    /// response body with the trailing `latency` object (wall-clock
    /// times — the sanctioned nondeterminism) scrubbed off. Everything
    /// left — ids, thresholds, scores at full 17-digit precision — must
    /// be bit-identical across a replay.
    fn push_all(ctx: &RouterCtx, id: u64, bodies: &[String]) -> Vec<String> {
        let push = format!("/v1/sequences/{id}/snapshots");
        bodies
            .iter()
            .map(|b| {
                let resp = route(&request("POST", &push, b.as_bytes()), ctx);
                assert_eq!(resp.status, 200, "{:?}", parse(&resp));
                let body = String::from_utf8(resp.body).unwrap();
                match body.find(",\"latency\"") {
                    Some(i) => body[..i].to_string(),
                    None => body,
                }
            })
            .collect()
    }

    #[test]
    fn journaled_session_replays_bit_identically_after_a_kill() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let root = tmp_journal_root("kill");
        let cfg = cad_journal::JournalConfig {
            fsync: cad_journal::FsyncPolicy::Never,
            ..Default::default()
        };
        let spec = br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#;
        let bodies: Vec<String> = [0.0, 1.5, 2.5, 0.9, 3.1]
            .iter()
            .map(|&b| snapshot_body(b))
            .collect();

        // Control: one uninterrupted, unjournaled session.
        let control_ctx = ctx_with(SessionMap::new(8));
        let resp = route(&request("POST", "/v1/sequences", spec), &control_ctx);
        let control_id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let control = push_all(&control_ctx, control_id, &bodies);

        // Journaled run, killed (dropped without drain) after 2 pushes.
        let ctx = ctx_with(SessionMap::new(8).with_journal(root.clone(), cfg.clone()));
        let resp = route(&request("POST", "/v1/sequences", spec), &ctx);
        assert_eq!(resp.status, 201, "{:?}", parse(&resp));
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(id, control_id, "same registry, same first id");
        let before = push_all(&ctx, id, &bodies[..2]);
        assert_eq!(before, control[..2].to_vec());
        drop(ctx);

        // Restart: recover, then push the remaining snapshots.
        let sessions = SessionMap::new(8).with_journal(root.clone(), cfg.clone());
        let n = crate::journal::recover_all(&root, &cfg, &sessions, None).unwrap();
        assert_eq!(n, 1);
        assert_eq!(reg.counter(Counter::JournalRecoveredSessions), 1);
        let ctx = ctx_with(sessions);
        let resp = route(&request("GET", &format!("/v1/sequences/{id}"), b""), &ctx);
        assert_eq!(
            parse(&resp).get("instances").and_then(Json::as_u64),
            Some(2),
            "recovered session remembers its pushes"
        );
        let after = push_all(&ctx, id, &bodies[2..]);
        assert_eq!(
            after,
            control[2..].to_vec(),
            "replayed session must answer bit-identically"
        );

        // Delete tears the journal down; a restart finds nothing.
        let resp = route(
            &request("DELETE", &format!("/v1/sequences/{id}"), b""),
            &ctx,
        );
        assert_eq!(resp.status, 200);
        let sessions = SessionMap::new(8);
        assert_eq!(
            crate::journal::recover_all(&root, &cfg, &sessions, None).unwrap(),
            0
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn journal_with_retired_partition_object_replays_at_boot() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let cfg = cad_journal::JournalConfig {
            fsync: cad_journal::FsyncPolicy::Never,
            ..Default::default()
        };
        let spec = |partition: &str| {
            format!(
                r#"{{"nodes": 6, "engine": "exact", "delta": 0.4, "update_mode": "rebuild", "partition": {partition}}}"#
            )
        };
        let bodies: Vec<String> = [0.0, 1.5, 2.5].iter().map(|&b| snapshot_body(b)).collect();

        // Control: a session created with today's integer spelling.
        let control_ctx = ctx_with(SessionMap::new(8));
        let resp = route(
            &request("POST", "/v1/sequences", spec("2").as_bytes()),
            &control_ctx,
        );
        assert_eq!(resp.status, 201, "{:?}", parse(&resp));
        let control_id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let control = push_all(&control_ctx, control_id, &bodies);

        // Journals written while partition modes existed hold the object
        // form in their create record.
        for mode in ["components", "bfs", "auto"] {
            let root = tmp_journal_root(mode);
            let old = spec(&format!(r#"{{"blocks": 2, "mode": "{mode}"}}"#));
            let mut journal =
                cad_journal::SessionJournal::create(&root, control_id, cfg.clone()).unwrap();
            journal
                .append(cad_journal::RecordKind::Create, old.as_bytes())
                .unwrap();
            drop(journal);

            let sessions = SessionMap::new(8).with_journal(root.clone(), cfg.clone());
            let n = crate::journal::recover_all(&root, &cfg, &sessions, None).unwrap();
            assert_eq!(n, 1, "{mode}");
            let ctx = ctx_with(sessions);
            assert_eq!(push_all(&ctx, control_id, &bodies), control, "{mode}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn compaction_checkpoint_preserves_replay_equality() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let root = tmp_journal_root("compact");
        // Tiny thresholds: every sweep wants to compact.
        let cfg = cad_journal::JournalConfig {
            fsync: cad_journal::FsyncPolicy::Never,
            max_segment_bytes: 256,
            compact_segments: 1,
            compact_bytes: 1,
        };
        let spec = br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#;
        let bodies: Vec<String> = [0.0, 1.5, 2.5, 0.9, 3.1, 0.0, 2.0]
            .iter()
            .map(|&b| snapshot_body(b))
            .collect();

        let control_ctx = ctx_with(SessionMap::new(8));
        let resp = route(&request("POST", "/v1/sequences", spec), &control_ctx);
        let control_id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let control = push_all(&control_ctx, control_id, &bodies);

        let ctx = ctx_with(SessionMap::new(8).with_journal(root.clone(), cfg.clone()));
        let resp = route(&request("POST", "/v1/sequences", spec), &ctx);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        let before = push_all(&ctx, id, &bodies[..4]);
        assert_eq!(before, control[..4].to_vec());
        assert_eq!(ctx.sessions.compact_journals(), 1);
        assert_eq!(reg.counter(Counter::JournalCompactions), 1);
        drop(ctx);

        let sessions = SessionMap::new(8).with_journal(root.clone(), cfg.clone());
        assert_eq!(
            crate::journal::recover_all(&root, &cfg, &sessions, None).unwrap(),
            1
        );
        let ctx = ctx_with(sessions);
        let after = push_all(&ctx, id, &bodies[4..]);
        assert_eq!(
            after,
            control[4..].to_vec(),
            "checkpoint resume must not perturb later results"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_journal_append_refuses_later_pushes_and_replays_acknowledged_ones() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let root = tmp_journal_root("append-fail");
        // Every append rotates to a new segment, and every sweep wants
        // to compact.
        let cfg = cad_journal::JournalConfig {
            fsync: cad_journal::FsyncPolicy::Never,
            max_segment_bytes: 1,
            compact_segments: 1,
            compact_bytes: 1,
        };
        let spec = br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#;
        let bodies: Vec<String> = [0.0, 1.5, 2.5].iter().map(|&b| snapshot_body(b)).collect();

        let ctx = ctx_with(SessionMap::new(8).with_journal(root.clone(), cfg.clone()));
        let resp = route(&request("POST", "/v1/sequences", spec), &ctx);
        let id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        push_all(&ctx, id, &bodies[..1]);
        // A file already holding the next segment's name fails the
        // rotation inside the next append.
        let dir = root.join(id.to_string());
        let next = std::fs::read_dir(&dir).unwrap().count() + 1;
        std::fs::File::create(dir.join(format!("seg-{next:08}.cadj"))).unwrap();
        let push = format!("/v1/sequences/{id}/snapshots");
        for body in &bodies[1..] {
            let resp = route(&request("POST", &push, body.as_bytes()), &ctx);
            assert_eq!(resp.status, 500);
            let err = parse(&resp);
            let code = err.get("error").and_then(|e| e.get("code"));
            assert_eq!(code.and_then(Json::as_str), Some("journal_error"));
        }
        // Compaction would checkpoint the unjournaled instance.
        assert_eq!(ctx.sessions.compact_journals(), 0);
        drop(ctx);

        // A restart replays the one acknowledged push: the next push
        // scores against bodies[0], as if bodies[1] never arrived.
        let sessions = SessionMap::new(8).with_journal(root.clone(), cfg.clone());
        assert_eq!(
            crate::journal::recover_all(&root, &cfg, &sessions, None).unwrap(),
            1
        );
        let ctx = ctx_with(sessions);
        let status = route(&request("GET", &format!("/v1/sequences/{id}"), b""), &ctx);
        assert_eq!(
            parse(&status).get("instances").and_then(Json::as_u64),
            Some(1)
        );
        let replayed = push_all(&ctx, id, &bodies[2..]);

        let control_ctx = ctx_with(SessionMap::new(8));
        let resp = route(&request("POST", "/v1/sequences", spec), &control_ctx);
        let control_id = parse(&resp).get("id").and_then(Json::as_u64).unwrap();
        assert_eq!(control_id, id);
        let control = push_all(&control_ctx, id, &[bodies[0].clone(), bodies[2].clone()]);
        assert_eq!(replayed, control[1..].to_vec());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn session_cap_returns_429_with_retry_after() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let ctx = RouterCtx {
            sessions: SessionMap::new(1),
            provider: None,
            shutdown: Arc::new(Shutdown::new()),
        };
        assert_eq!(
            route(&request("POST", "/v1/sequences", br#"{"nodes": 4}"#), &ctx).status,
            201
        );
        let resp = route(&request("POST", "/v1/sequences", br#"{"nodes": 4}"#), &ctx);
        assert_eq!(resp.status, 429);
        assert!(resp.extra.iter().any(|(k, _)| *k == "Retry-After"));
    }
}
