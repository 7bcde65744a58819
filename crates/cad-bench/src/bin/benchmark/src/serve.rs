//! The serving workloads: `cad_serve::Server::start` in-process, driven
//! over loopback by open-loop HTTP/1.1 keep-alive clients.
//!
//! Each run sets the server up several times (`setup_s` is the median),
//! runs a nominal-rate phase (latency from each push's due time), then
//! a rate ladder that stops at the first rung failing the SLO. After the
//! timed phases, every reply to session 0 is compared bit for bit with
//! an in-process `OnlineCad` fed the same graphs under the same spec.

use crate::inputs::{self, ChangeReader, Push};
use crate::report::RunReport;
use crate::stats::{self, Dist, Rung, Timing};
use crate::trace::{Span, Tracer};
use crate::workload::{derive_seed, ServeParams, Workload, SPIKE_WEIGHT, THREADS};
use cad_graph::{GraphSequence, WeightedGraph};
use cad_obs::Json;
use cad_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Rate ratio between ladder rungs.
const LADDER_RATIO: f64 = 1.2;
/// Share of the run's seconds spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;
/// Seconds of one ladder rung, as a share of the run's seconds.
const RUNG_SHARE: f64 = 0.07;
/// Most ladder rungs one run climbs.
const MAX_RUNGS: usize = 7;
/// A phase stops sending this long after its schedule ends.
const MAX_OVERRUN_S: f64 = 3.0;

/// The create-request body of session `s`.
fn spec_json(p: &ServeParams, s: usize) -> String {
    format!(
        r#"{{"nodes":{},"engine":"exact","delta":{},"update_mode":"{}","label":"bench-{s}"}}"#,
        p.nodes, p.delta, p.update_mode
    )
}

/// The change list of one session: push 0 is the base graph itself;
/// every later push redraws benign weights, and periodically rewires
/// two edges or spikes one (restored by the next push).
fn change_list(p: &ServeParams, base: &WeightedGraph, seed: u64) -> Vec<Push> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<(usize, usize)> = base.edges().map(|(u, v, _)| (u, v)).collect();
    let mut weight: HashMap<(usize, usize), f64> =
        base.edges().map(|(u, v, w)| ((u, v), w)).collect();
    let mut out = vec![Push {
        changes: Vec::new(),
        spike: None,
    }];
    let mut restore: Option<((usize, usize), f64)> = None;
    for i in 1..p.pushes {
        let mut changes: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        if let Some((e, w)) = restore.take() {
            weight.insert(e, w);
            changes.insert(e, w);
        }
        if p.structural_every > 0 && i % p.structural_every == 0 {
            for _ in 0..2 {
                let k = rng.random_range(0..keys.len());
                if changes.contains_key(&keys[k]) {
                    continue;
                }
                let e = keys.swap_remove(k);
                weight.remove(&e);
                changes.insert(e, 0.0);
            }
            for _ in 0..2 {
                let (a, b) = (rng.random_range(0..p.nodes), rng.random_range(0..p.nodes));
                let e = (a.min(b), a.max(b));
                if a == b || weight.contains_key(&e) || changes.contains_key(&e) {
                    continue;
                }
                let w = 1.0 - rng.random::<f64>();
                keys.push(e);
                weight.insert(e, w);
                changes.insert(e, w);
            }
        }
        let benign = if p.benign >= 1.0 {
            p.benign as usize
        } else {
            (p.benign * keys.len() as f64).round() as usize
        };
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        for j in 0..benign.min(keys.len()) {
            let r = rng.random_range(j..keys.len());
            idx.swap(j, r);
            let e = keys[idx[j]];
            if let Entry::Vacant(slot) = changes.entry(e) {
                let w = 1.0 - rng.random::<f64>();
                weight.insert(e, w);
                slot.insert(w);
            }
        }
        let mut spike = None;
        if p.spike_every > 0 && i % p.spike_every == 0 {
            let e = keys[rng.random_range(0..keys.len())];
            if let Entry::Vacant(slot) = changes.entry(e) {
                restore = Some((e, weight[&e]));
                weight.insert(e, SPIKE_WEIGHT);
                slot.insert(SPIKE_WEIGHT);
                spike = Some(e);
            }
        }
        out.push(Push {
            changes: changes.into_iter().map(|((u, v), w)| (u, v, w)).collect(),
            spike,
        });
    }
    out
}

/// Write a serving workload's inputs: the session base graphs as one
/// `.cadpack` (an instance per session), a change list per session,
/// and — when the workload starts from a journal — the journal a real
/// server writes for the first `prefix` pushes of every session.
pub fn gen_serve(p: &ServeParams, seed: u64, dir: &Path) -> Result<(), String> {
    let mut bases = Vec::with_capacity(p.sessions);
    for s in 0..p.sessions {
        let prob = p.mean_degree / (p.nodes - 1) as f64;
        let g = cad_graph::generators::random::erdos_renyi(
            p.nodes,
            prob,
            derive_seed(seed, 200 + s as u64),
        )
        .map_err(|e| e.to_string())?;
        let pushes = change_list(p, &g, derive_seed(seed, 300 + s as u64));
        inputs::write_changes(&dir.join(format!("changes-{s}.bin")), &pushes)
            .map_err(|e| e.to_string())?;
        bases.push(g);
    }
    let seq = GraphSequence::new(bases).map_err(|e| e.to_string())?;
    cad_store::write_pack(&dir.join("sessions.cadpack"), &seq, "sessions")
        .map_err(|e| e.to_string())?;
    if p.prefix == 0 {
        return Ok(());
    }
    // A sweep interval longer than the run keeps compaction out, so the
    // journal's bytes depend on the pushes alone.
    let server = Server::start(ServeConfig {
        workers: THREADS,
        journal_dir: Some(dir.join("journal")),
        sweep_interval: Duration::from_secs(3600),
        ..Default::default()
    })
    .map_err(|e| format!("cannot start the journaling server: {e}"))?;
    let result = (|| {
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let mut streams = open_streams(p, dir, seq.graphs())?;
        for st in &mut streams {
            st.id = create(&mut client, p, st.index)?;
        }
        for _ in 0..p.prefix {
            for st in &mut streams {
                let out = st
                    .next(p)
                    .map_err(|e| e.to_string())?
                    .ok_or("change list too short")?;
                let reply = client.push(st.id, &out, || ()).map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("journal prefix push refused: {}", reply.text()));
                }
            }
        }
        Ok(())
    })();
    server.drain();
    result
}

/// One server reply.
struct Reply {
    status: u16,
    trace_id: u64,
    body: Vec<u8>,
}

impl Reply {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive HTTP/1.1 client on one loopback connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    fn call(
        &mut self,
        method: &str,
        path: &str,
        ctype: &str,
        body: &[u8],
    ) -> std::io::Result<Reply> {
        self.send(method, path, ctype, body)?;
        self.receive()
    }

    fn send(&mut self, method: &str, path: &str, ctype: &str, body: &[u8]) -> std::io::Result<()> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)
    }

    fn receive(&mut self) -> std::io::Result<Reply> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let bad = |what: &str| std::io::Error::other(format!("bad {what}: {line:?}"));
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let (mut length, mut trace_id) = (0usize, 0u64);
        loop {
            let mut h = String::new();
            self.reader.read_line(&mut h)?;
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            let Some((k, v)) = h.split_once(':') else {
                continue;
            };
            match k.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = v.trim().parse().map_err(|_| bad("length"))?,
                "x-cad-trace-id" => trace_id = u64::from_str_radix(v.trim(), 16).unwrap_or(0),
                _ => {}
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            trace_id,
            body,
        })
    }

    /// Send a push, run `meanwhile` while the server works, then read
    /// the reply.
    fn push(
        &mut self,
        id: u64,
        out: &Outgoing,
        meanwhile: impl FnOnce(),
    ) -> std::io::Result<Reply> {
        let ctype = if out.binary {
            cad_serve::DELTA_CONTENT_TYPE
        } else {
            "application/json"
        };
        self.send(
            "POST",
            &format!("/v1/sequences/{id}/snapshots"),
            ctype,
            &out.body,
        )?;
        meanwhile();
        self.receive()
    }
}

/// Create session `s`; returns its id.
fn create(client: &mut Client, p: &ServeParams, s: usize) -> Result<u64, String> {
    let reply = client
        .call(
            "POST",
            "/v1/sequences",
            "application/json",
            spec_json(p, s).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    cad_obs::parse_json(&reply.text())
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .filter(|_| reply.status == 201)
        .ok_or_else(|| format!("create failed: {}", reply.text()))
}

/// One push ready to send.
struct Outgoing {
    body: Vec<u8>,
    binary: bool,
    spike: Option<(usize, usize)>,
}

/// What session 0's reply said about its transition: the digest of its
/// anomaly set (`None`: no transition yet). Digests keep the log small,
/// so it does not reach `peak_heap_mb`.
type Transition0 = Option<u64>;

/// Client-side state of one session: its current graph and the rest of
/// its change list.
struct Stream {
    index: usize,
    id: u64,
    nodes: usize,
    edges: BTreeMap<(usize, usize), f64>,
    reader: ChangeReader,
    consumed: usize,
    /// Session 0 keeps every reply's transition for verification.
    log: Option<Vec<Transition0>>,
    /// A push encoded ahead but not sent when its phase ended.
    pending: Option<Outgoing>,
}

fn open_streams(
    p: &ServeParams,
    dir: &Path,
    bases: &[WeightedGraph],
) -> Result<Vec<Stream>, String> {
    bases
        .iter()
        .enumerate()
        .map(|(s, g)| {
            let reader = ChangeReader::open(&dir.join(format!("changes-{s}.bin")))
                .map_err(|e| e.to_string())?;
            Ok(Stream {
                index: s,
                id: s as u64 + 1,
                nodes: p.nodes,
                edges: g.edges().map(|(u, v, w)| ((u, v), w)).collect(),
                reader,
                consumed: 0,
                log: (s == 0).then(Vec::new),
                pending: None,
            })
        })
        .collect()
}

impl Stream {
    /// Apply the next change-list entry; returns it.
    fn advance(&mut self) -> std::io::Result<Option<Push>> {
        let push = self.reader.next_push()?;
        if let Some(push) = &push {
            self.apply(push);
        }
        Ok(push)
    }

    fn apply(&mut self, push: &Push) {
        for &(u, v, w) in &push.changes {
            if w == 0.0 {
                self.edges.remove(&(u, v));
            } else {
                self.edges.insert((u, v), w);
            }
        }
        self.consumed += 1;
    }

    /// Keep session 0's reply transition for verification.
    fn record(&mut self, tr: Option<Transition0>) {
        if let (Some(log), Some(tr)) = (&mut self.log, tr) {
            log.push(tr);
        }
    }

    /// The current graph.
    fn graph(&self) -> WeightedGraph {
        let list: Vec<_> = self.edges.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        WeightedGraph::from_edges(self.nodes, &list).expect("change lists keep graphs valid")
    }

    /// Advance and encode the push: a binary edge delta against the
    /// previous snapshot, or a full JSON snapshot.
    fn next(&mut self, p: &ServeParams) -> std::io::Result<Option<Outgoing>> {
        if let Some(out) = self.pending.take() {
            return Ok(Some(out));
        }
        let binary = p.binary && self.consumed > 0;
        let Some(push) = self.reader.next_push()? else {
            return Ok(None);
        };
        // Two small graphs holding only the changed edges encode the
        // same delta as the full snapshots would.
        let old: Vec<(usize, usize, f64)> = push
            .changes
            .iter()
            .filter_map(|&(u, v, _)| self.edges.get(&(u, v)).map(|&w| (u, v, w)))
            .collect();
        self.apply(&push);
        let body = if binary {
            let new: Vec<_> = push
                .changes
                .iter()
                .copied()
                .filter(|c| c.2 != 0.0)
                .collect();
            let g = |e: &[(usize, usize, f64)]| {
                WeightedGraph::from_edges(self.nodes, e).expect("valid edges")
            };
            cad_store::encode_edge_delta(&g(&old), &g(&new))
        } else {
            let mut s = format!(r#"{{"nodes":{},"edges":["#, self.nodes);
            for (i, (&(u, v), &w)) in self.edges.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{u},{v},{w:?}]"));
            }
            s.push_str("]}");
            s.into_bytes()
        };
        Ok(Some(Outgoing {
            body,
            binary,
            spike: push.spike,
        }))
    }
}

/// The fields of a push reply the metrics use.
#[derive(Debug, Clone, Default)]
struct PushReply {
    has_transition: bool,
    n_scored: usize,
    build_s: f64,
    update_s: f64,
    score_s: f64,
    incremental: bool,
    fallback: Option<String>,
}

/// Parse a push reply: its metrics fields, whether it flagged both
/// endpoints of `spike`, and its transition's digest.
fn parse_push(
    body: &str,
    spike: Option<(usize, usize)>,
) -> Option<(PushReply, Option<bool>, Transition0)> {
    let v = cad_obs::parse_json(body).ok()?;
    let mut r = PushReply {
        incremental: v.get("update_mode").and_then(Json::as_str) == Some("incremental"),
        fallback: v.get("fallback").and_then(Json::as_str).map(str::to_string),
        ..Default::default()
    };
    let tr = v.get("transition")?;
    if matches!(tr, Json::Null) {
        return Some((r, spike.map(|_| false), None));
    }
    let lat = tr.get("latency")?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64);
    r.has_transition = true;
    r.n_scored = tr.get("n_scored")?.as_u64()? as usize;
    r.build_s = num(lat, "build_secs")?;
    r.update_s = num(lat, "update_secs")?;
    r.score_s = num(lat, "score_secs")?;
    let nodes: Vec<usize> = tr
        .get("nodes")?
        .as_arr()?
        .iter()
        .map(|n| n.as_u64().map(|n| n as usize))
        .collect::<Option<_>>()?;
    let edges: Vec<(usize, usize, f64, f64, f64)> = tr
        .get("edges")?
        .as_arr()?
        .iter()
        .map(|e| {
            let u = e.get("u")?.as_u64()? as usize;
            let v = e.get("v")?.as_u64()? as usize;
            Some((
                u,
                v,
                num(e, "score")?,
                num(e, "d_weight")?,
                num(e, "d_commute")?,
            ))
        })
        .collect::<Option<_>>()?;
    let hit = spike.map(|(u, v)| nodes.contains(&u) && nodes.contains(&v));
    Some((r, hit, Some(crate::transition_digest(&edges, &nodes))))
}

/// One push as the load generator saw it.
#[derive(Debug, Clone)]
struct Sample {
    timing: Timing,
    session: usize,
    ok: bool,
    bytes: usize,
    trace_id: u64,
    reply: Option<PushReply>,
    /// For a spike push: whether the reply flagged both endpoints.
    spike_hit: Option<bool>,
}

/// Send one push, run `meanwhile` while the server works, and record
/// the reply. Takes the target session's id and index rather than its
/// stream, so `meanwhile` may advance any stream.
#[allow(clippy::too_many_arguments)]
fn exchange(
    client: &mut Client,
    id: u64,
    session: usize,
    out: &Outgoing,
    due: f64,
    prev_done: f64,
    clock: &Tracer,
    meanwhile: impl FnOnce(),
) -> (Sample, Option<Transition0>) {
    let sent = clock.now();
    let result = client.push(id, out, meanwhile);
    let done = clock.now();
    let mut sample = Sample {
        timing: Timing {
            due,
            sent,
            done,
            prev_done,
        },
        session,
        ok: false,
        bytes: out.body.len(),
        trace_id: 0,
        reply: None,
        spike_hit: None,
    };
    let Ok(reply) = result else {
        return (sample, None);
    };
    sample.trace_id = reply.trace_id;
    let Some((r, hit, tr)) = (reply.status == 200)
        .then(|| parse_push(&reply.text(), out.spike))
        .flatten()
    else {
        return (sample, None);
    };
    sample.ok = true;
    sample.spike_hit = hit;
    sample.reply = Some(r);
    (sample, Some(tr))
}

fn wait_until(clock: &Tracer, t: f64) {
    let now = clock.now();
    if t > now {
        std::thread::sleep(Duration::from_secs_f64(t - now));
    }
}

/// Poisson arrival offsets at `rate` per second over `secs`.
fn poisson(rate: f64, secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        if t >= secs {
            return out;
        }
        out.push(t);
    }
}

/// What one open-loop phase produced.
struct PhaseResult {
    samples: Vec<Sample>,
    /// A change list ran out before the schedule did.
    exhausted: bool,
    /// `GET /metrics` scrapes made and failed.
    scrapes: (u64, u64),
}

/// Drive one generator thread's sessions round-robin along its schedule
/// (offsets from `t0`).
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    group: &mut [&mut Stream],
    p: &ServeParams,
    schedule: &[f64],
    scrape_every: Option<f64>,
    t0: f64,
    secs: f64,
    clock: &Tracer,
) -> PhaseResult {
    let mut res = PhaseResult {
        samples: Vec::with_capacity(schedule.len()),
        exhausted: false,
        scrapes: (0, 0),
    };
    let mut next_scrape = scrape_every.map(|every| t0 + every);
    let mut prev_done = 0.0;
    // Round-robin over the group: push `i` goes to stream `i % len`.
    let prepare = |group: &mut [&mut Stream], i: usize| {
        let gi = i % group.len();
        group[gi].next(p).ok().flatten().map(|out| (gi, out))
    };
    let mut prepared = prepare(group, 0);
    for (i, &offset) in schedule.iter().enumerate() {
        let due = t0 + offset;
        if clock.now() > t0 + secs + MAX_OVERRUN_S {
            break;
        }
        while let (Some(s), Some(every)) = (next_scrape, scrape_every) {
            if s > due {
                break;
            }
            wait_until(clock, s);
            res.scrapes.0 += 1;
            let ok = client
                .call("GET", "/metrics", "text/plain", b"")
                .is_ok_and(|r| r.status == 200);
            res.scrapes.1 += u64::from(!ok);
            prev_done = clock.now();
            next_scrape = Some(s + every);
        }
        let Some((gi, out)) = prepared.take() else {
            res.exhausted = true;
            break;
        };
        wait_until(clock, due);
        let st = &*group[gi];
        let (id, session) = (st.id, st.index);
        // The next body is built while the server works on this one.
        let (sample, tr) = exchange(client, id, session, &out, due, prev_done, clock, || {
            prepared = prepare(group, i + 1);
        });
        group[gi].record(tr);
        prev_done = sample.timing.done;
        res.samples.push(sample);
    }
    if let Some((gi, out)) = prepared {
        group[gi].pending = Some(out);
    }
    res
}

/// The running server and the client-side state of its sessions.
struct Live {
    server: Server,
    streams: Vec<Stream>,
    /// Server start to the last first push, seconds.
    setup_s: f64,
    /// `Server::start` alone (journal recovery included), seconds.
    start_s: f64,
    /// The first pushes.
    samples: Vec<Sample>,
}

/// Copy a directory tree.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &to.join(e.file_name()))?;
        } else {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// One set-up: start the server (on a fresh copy of the `gen` journal
/// when the workload has one), create the sessions unless the journal
/// recovered them, and push every session's next snapshot.
fn setup(
    p: &ServeParams,
    dir: &Path,
    bases: &[WeightedGraph],
    journal: Option<PathBuf>,
    access_log: Option<String>,
    clock: &Tracer,
) -> Result<Live, String> {
    let mut streams = open_streams(p, dir, bases)?;
    for st in &mut streams {
        for _ in 0..p.prefix {
            st.advance().map_err(|e| e.to_string())?;
        }
    }
    if let Some(j) = &journal {
        let _ = std::fs::remove_dir_all(j);
        copy_dir(&dir.join("journal"), j).map_err(|e| format!("cannot copy the journal: {e}"))?;
    }
    let t0 = Instant::now();
    let server = Server::start(ServeConfig {
        workers: THREADS,
        journal_dir: journal,
        access_log,
        ..Default::default()
    })
    .map_err(|e| format!("Server::start failed: {e}"))?;
    let start_s = t0.elapsed().as_secs_f64();
    let mut live = Live {
        server,
        streams,
        setup_s: 0.0,
        start_s,
        samples: Vec::new(),
    };
    if p.prefix > 0 && live.server.recovered_sessions() != p.sessions {
        return Err(format!(
            "recovered {} sessions from the journal, expected {}",
            live.server.recovered_sessions(),
            p.sessions
        ));
    }
    let mut client = Client::connect(live.server.addr()).map_err(|e| e.to_string())?;
    for st in &mut live.streams {
        if p.prefix == 0 {
            st.id = create(&mut client, p, st.index)?;
        }
        let out = st
            .next(p)
            .map_err(|e| e.to_string())?
            .ok_or("change list too short")?;
        let now = clock.now();
        let (sample, tr) = exchange(&mut client, st.id, st.index, &out, now, now, clock, || ());
        st.record(tr);
        live.samples.push(sample);
    }
    live.setup_s = t0.elapsed().as_secs_f64();
    Ok(live)
}

/// Run one open-loop phase at `rate` for `secs` over all sessions,
/// one generator thread and connection per [`THREADS`].
fn phase(
    live: &mut Live,
    p: &ServeParams,
    rate: f64,
    secs: f64,
    seed: u64,
    clock: &Tracer,
) -> Result<PhaseResult, String> {
    let mut clients: Vec<Client> = (0..THREADS)
        .map(|_| Client::connect(live.server.addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut groups: Vec<Vec<&mut Stream>> = (0..THREADS).map(|_| Vec::new()).collect();
    for st in live.streams.iter_mut() {
        groups[st.index % THREADS].push(st);
    }
    let t0 = clock.now() + 0.05;
    let results: Vec<PhaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .zip(clients.iter_mut())
            .enumerate()
            .map(|(k, (mut group, client))| {
                let schedule = poisson(rate / THREADS as f64, secs, derive_seed(seed, k as u64));
                let scrape = (k == 0 && p.scrape_metrics).then_some(1.0);
                scope
                    .spawn(move || drive(client, &mut group, p, &schedule, scrape, t0, secs, clock))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = PhaseResult {
        samples: Vec::new(),
        exhausted: false,
        scrapes: (0, 0),
    };
    for r in results {
        out.samples.extend(r.samples);
        out.exhausted |= r.exhausted;
        out.scrapes.0 += r.scrapes.0;
        out.scrapes.1 += r.scrapes.1;
    }
    out.samples
        .sort_by(|a, b| a.timing.due.total_cmp(&b.timing.due));
    Ok(out)
}

/// Score a phase as a ladder rung.
fn rung(rate: f64, samples: &[Sample]) -> Rung {
    let lat: Vec<f64> = samples.iter().map(|s| 1e3 * s.timing.latency()).collect();
    let backlog: Vec<f64> = samples.iter().map(|s| 1e3 * s.timing.backlog()).collect();
    Rung {
        rate,
        tail_ms: Dist::of(&lat).map_or(f64::INFINITY, |d| d.tail),
        growth_ms: stats::backlog_growth(&backlog),
        failures: samples.iter().filter(|s| !s.ok).count(),
    }
}

/// Read one unlabeled sample from Prometheus text.
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// `GET /metrics` on a fresh connection (between phases, when no
/// generator connection holds a worker).
fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let r = c
        .call("GET", "/metrics", "text/plain", b"")
        .map_err(|e| e.to_string())?;
    Ok(r.text())
}

/// The parameters of a serving workload.
fn params(w: Workload) -> &'static ServeParams {
    match w {
        Workload::Churn => &crate::workload::CHURN,
        _ => &crate::workload::SMALL_DELTA,
    }
}

/// Everything a run measured, merged across phases.
struct Run {
    workload: Workload,
    report: RunReport,
    clock: Tracer,
    dir: PathBuf,
    work: PathBuf,
    bases: Vec<WeightedGraph>,
    decode_s: Vec<f64>,
    setup_s: Vec<f64>,
    start_s: Vec<f64>,
    /// Spike pushes flagged, spike pushes.
    spikes: (usize, usize),
}

impl Run {
    /// A run of `w` whose journal copies go under `work`.
    fn new(w: Workload, seed: u64, traced: bool, work: PathBuf) -> Run {
        Run {
            workload: w,
            report: RunReport::new(w, seed, traced),
            clock: Tracer::new(),
            dir: PathBuf::new(),
            work,
            bases: Vec::new(),
            decode_s: Vec::new(),
            setup_s: Vec::new(),
            start_s: Vec::new(),
            spikes: (0, 0),
        }
    }

    /// Count a phase's pushes and spikes.
    fn absorb(&mut self, samples: &[Sample]) {
        self.report.attempted += samples.len() as u64;
        self.report.failed += samples.iter().filter(|s| !s.ok).count() as u64;
        for hit in samples.iter().filter_map(|s| s.spike_hit) {
            self.spikes.0 += usize::from(hit);
            self.spikes.1 += 1;
        }
    }

    fn absorb_phase(&mut self, ph: &PhaseResult) {
        self.absorb(&ph.samples);
        self.report.attempted += ph.scrapes.0;
        self.report.failed += ph.scrapes.1;
        if ph.exhausted {
            self.report
                .problem("a change list ran out; generate longer lists");
        }
    }

    /// Set the server up once more (the `k`-th time).
    fn setup(
        &mut self,
        p: &ServeParams,
        k: usize,
        access_log: Option<String>,
    ) -> Result<Live, String> {
        let t0 = Instant::now();
        let seq =
            cad_store::read_pack(&self.dir.join("sessions.cadpack")).map_err(|e| e.to_string())?;
        self.decode_s.push(t0.elapsed().as_secs_f64());
        self.bases = seq.graphs().to_vec();
        let journal = p.journal.then(|| self.work.join(format!("journal-{k}")));
        let live = setup(p, &self.dir, &self.bases, journal, access_log, &self.clock)?;
        self.setup_s.push(live.setup_s);
        self.start_s.push(live.start_s);
        self.absorb(&live.samples);
        Ok(live)
    }
}

/// Drain the server; returns session 0's reply log.
fn finish(live: Live) -> Vec<Transition0> {
    let Live {
        server,
        mut streams,
        ..
    } = live;
    server.drain();
    streams.swap_remove(0).log.unwrap_or_default()
}

/// Run a serving workload; `seconds` is the run's measuring budget.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, out: &Path) -> RunReport {
    let p = params(w);
    let work = Path::new("target")
        .join("benchmark")
        .join("work")
        .join(std::process::id().to_string());
    let mut run = Run::new(w, seed, traced, work.clone());
    let result = inputs::ensure(w, seed).and_then(|dir| {
        run.dir = dir;
        if traced {
            run_traced(&mut run, p, seed, seconds, out)
        } else {
            run_untraced(&mut run, p, seed, seconds)
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        run.report.problem(e);
    }
    run.report
}

/// Set up [`SETUP_REPEATS`] times; returns the last, still running.
fn setups(run: &mut Run, p: &ServeParams) -> Result<Live, String> {
    let mut live = run.setup(p, 0, None)?;
    for k in 1..SETUP_REPEATS {
        finish(live);
        live = run.setup(p, k, None)?;
    }
    Ok(live)
}

fn run_untraced(run: &mut Run, p: &ServeParams, seed: u64, seconds: f64) -> Result<(), String> {
    let mut live = setups(run, p)?;
    let sampler = crate::heap::HeapSampler::start();
    let nominal = phase(
        &mut live,
        p,
        p.nominal_rps,
        NOMINAL_SHARE * seconds,
        derive_seed(seed, 1000),
        &run.clock,
    )?;
    run.absorb_phase(&nominal);
    let mut rungs = vec![rung(p.nominal_rps, &nominal.samples)];
    for (i, rate) in stats::ladder_rates(p.nominal_rps, LADDER_RATIO, MAX_RUNGS)
        .into_iter()
        .enumerate()
    {
        if !rungs.last().expect("nominal rung").passes(p.slo_ms) {
            break;
        }
        let ph = phase(
            &mut live,
            p,
            rate,
            RUNG_SHARE * seconds,
            derive_seed(seed, 1001 + i as u64),
            &run.clock,
        )?;
        run.absorb_phase(&ph);
        rungs.push(rung(rate, &ph.samples));
    }
    let heap = sampler.finish();
    let log = finish(live);
    verify(run, p, &log);

    let r = &mut run.report;
    r.add(
        "setup_s",
        "s",
        stats::median(&run.setup_s),
        run.setup_s.len(),
        "median of Server::start + creates + first pushes",
    );
    let (rate, bounded) = stats::sustainable_rate(&rungs, p.slo_ms);
    r.add(
        "sustainable_rps",
        "1/s",
        rate,
        rungs.len(),
        &format!(
            "{}sustainable pushes/s: tail <= {} ms SLO, no backlog growth",
            if bounded { "" } else { "at least " },
            p.slo_ms
        ),
    );
    let lat: Vec<f64> = nominal
        .samples
        .iter()
        .map(|s| 1e3 * s.timing.latency())
        .collect();
    let d = Dist::of(&lat).ok_or("the nominal phase sent nothing")?;
    let nominal_note = format!("push latency from due time at {} pushes/s", p.nominal_rps);
    r.add(
        "latency_p50_ms",
        "ms",
        d.p50,
        d.n,
        &format!("p50 {nominal_note}"),
    );
    r.add(
        "latency_tail_ms",
        "ms",
        d.tail,
        d.n,
        &format!("{} {nominal_note}", d.tail_label()),
    );
    crate::heap::report(&heap, r);
    let recall = run.spikes.0 as f64 / run.spikes.1.max(1) as f64;
    r.add(
        "planted_recall",
        "fraction",
        recall,
        run.spikes.1,
        "spiked edges flagged in their push's reply",
    );
    let floor = run.workload.recall_floor();
    if recall < floor {
        r.problem(format!(
            "planted_recall {recall:.4} below the floor {floor:.4}"
        ));
    }
    let late: Vec<f64> = nominal
        .samples
        .iter()
        .map(|s| 1e3 * s.timing.gen_lateness())
        .collect();
    if let Some(l) = Dist::of(&late) {
        let valid = l.tail <= 0.1 * d.p50;
        r.add(
            &format!("gen.lateness_ms.{}", l.tail_label()),
            "ms",
            l.tail,
            l.n,
            if valid {
                "valid: under 10% of latency p50"
            } else {
                "INVALID: over 10% of latency p50"
            },
        );
    }
    for (i, g) in rungs.iter().enumerate() {
        r.add(
            &format!("ladder.{i}.tail_ms"),
            "ms",
            g.tail_ms,
            0,
            &format!(
                "offered {:.1}/s, backlog growth {:.2} ms, {}",
                g.rate,
                g.growth_ms,
                if g.passes(p.slo_ms) { "pass" } else { "FAIL" }
            ),
        );
    }
    Ok(())
}

/// Compare session 0's replies with an in-process `OnlineCad` fed the
/// same graphs (journal prefix included) under the same spec.
fn verify(run: &mut Run, p: &ServeParams, log: &[Transition0]) {
    let check = || -> Result<u64, String> {
        let spec = cad_serve::parse_spec(spec_json(p, 0).as_bytes())?;
        let mode = spec.update_mode.ok_or("spec has no update_mode")?;
        let mut online =
            cad_core::OnlineCad::with_mode(spec.opts, spec.mode).with_update_mode(mode);
        let mut st = open_streams(p, &run.dir, &run.bases[..1])?.swap_remove(0);
        let mut step = |st: &mut Stream| -> Result<Transition0, String> {
            st.advance()
                .map_err(|e| e.to_string())?
                .ok_or("change list too short")?;
            let tr = online.push(st.graph()).map_err(|e| e.to_string())?;
            Ok(tr.map(|t| {
                let edges: Vec<_> = t
                    .edges
                    .iter()
                    .map(|e| (e.u, e.v, e.score, e.d_weight, e.d_commute))
                    .collect();
                crate::transition_digest(&edges, &t.nodes)
            }))
        };
        for _ in 0..p.prefix {
            step(&mut st)?;
        }
        let mut mismatched = 0;
        for got in log {
            mismatched += u64::from(step(&mut st)? != *got);
        }
        Ok(mismatched)
    };
    match check() {
        Ok(0) => {}
        Ok(n) => {
            run.report.failed += n;
            run.report
                .problem(format!("{n} of session 0's replies differ from OnlineCad"));
        }
        Err(e) => run.report.problem(format!("session 0 verification: {e}")),
    }
}

/// Bodies re-encoded from session 0's change list whose decode the
/// traced run times.
const BODY_SAMPLES: usize = 200;

/// Time the program's decode of the bodies session 0 sends:
/// `decode_edge_delta` + `apply_edge_delta` for binary deltas,
/// `parse_json` + `WeightedGraph::from_edges` for JSON snapshots.
fn body_decode_secs(run: &Run, p: &ServeParams) -> Result<Vec<f64>, String> {
    let mut st = open_streams(p, &run.dir, &run.bases[..1])?.swap_remove(0);
    for _ in 0..p.prefix {
        st.advance().map_err(|e| e.to_string())?;
    }
    let mut base = st.graph();
    let mut secs = Vec::with_capacity(BODY_SAMPLES);
    for _ in 0..BODY_SAMPLES {
        let Some(out) = st.next(p).map_err(|e| e.to_string())? else {
            break;
        };
        let t0 = Instant::now();
        let g = if out.binary {
            let delta = cad_store::decode_edge_delta(&out.body).map_err(|e| e.to_string())?;
            cad_store::apply_edge_delta(&base, &delta).map_err(|e| e.to_string())?
        } else {
            let text = std::str::from_utf8(&out.body).map_err(|e| e.to_string())?;
            let v = cad_obs::parse_json(text)?;
            let edges: Vec<(usize, usize, f64)> = v
                .get("edges")
                .and_then(Json::as_arr)
                .ok_or("snapshot without edges")?
                .iter()
                .filter_map(|e| {
                    let t = e.as_arr()?;
                    Some((
                        t[0].as_u64()? as usize,
                        t[1].as_u64()? as usize,
                        t[2].as_f64()?,
                    ))
                })
                .collect();
            WeightedGraph::from_edges(p.nodes, &edges).map_err(|e| e.to_string())?
        };
        secs.push(t0.elapsed().as_secs_f64());
        base = std::hint::black_box(g);
    }
    Ok(secs)
}

/// Queue wait and handler seconds per trace id, from the access log.
fn read_access_log(path: &Path) -> Result<HashMap<u64, (f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let v = cad_obs::parse_json(line).ok()?;
            let id = u64::from_str_radix(v.get("trace_id")?.as_str()?, 16).ok()?;
            let num = |k: &str| v.get(k).and_then(Json::as_f64);
            Some((id, (num("queue_wait_secs")?, num("handler_secs")?)))
        })
        .collect())
}

/// Mean of `values` (0 when empty).
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The traced run: an untraced reference phase at the nominal rate,
/// then the same phase on a fresh set-up with the access log on, its
/// client spans joined by trace id to the log lines and reply
/// `latency` fields.
fn run_traced(
    run: &mut Run,
    p: &ServeParams,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<(), String> {
    let secs = 0.35 * seconds;
    let mut live = setups(run, p)?;
    let mem0 = cad_obs::alloc::stats();
    let reference = phase(
        &mut live,
        p,
        p.nominal_rps,
        secs,
        derive_seed(seed, 1000),
        &run.clock,
    )?;
    let mem1 = cad_obs::alloc::stats();
    run.absorb_phase(&reference);
    finish(live);

    let log_path = out.join(format!("{}.access.ndjson", run.report.workload));
    let _ = std::fs::remove_file(&log_path);
    let mut live = run.setup(p, SETUP_REPEATS, Some(log_path.display().to_string()))?;
    let addr = live.server.addr();
    let before = if p.journal {
        scrape(addr)?
    } else {
        String::new()
    };
    let traced = phase(
        &mut live,
        p,
        p.nominal_rps,
        secs,
        derive_seed(seed, 1000),
        &run.clock,
    )?;
    let after = if p.journal {
        scrape(addr)?
    } else {
        String::new()
    };
    run.absorb_phase(&traced);
    let first = std::mem::take(&mut live.samples);
    let log = finish(live);
    verify(run, p, &log);
    let access = read_access_log(&log_path)?;

    let bases: Vec<&WeightedGraph> = run.bases.iter().take(2).collect();
    crate::probe::linalg(&run.clock, &bases, &mut run.report);
    let decode = body_decode_secs(run, p)?;

    let r = &mut run.report;
    r.add_dist(
        "store.pack_decode_s",
        "s",
        &run.decode_s,
        "read_pack of the session graphs",
    );
    let (decode_name, decode_src) = if p.binary {
        (
            "store.delta_decode_s",
            "decode_edge_delta + apply_edge_delta",
        )
    } else {
        ("obs.json_parse_s", "parse_json + WeightedGraph::from_edges")
    };
    r.add_dist(decode_name, "s", &decode, decode_src);

    let replies: Vec<&PushReply> = first
        .iter()
        .chain(&traced.samples)
        .filter_map(|s| s.reply.as_ref())
        .collect();
    let transitions: Vec<&&PushReply> = replies.iter().filter(|r| r.has_transition).collect();
    let builds: Vec<f64> = replies
        .iter()
        .map(|r| r.build_s)
        .filter(|&b| b > 0.0)
        .collect();
    crate::probe::commute_build(
        &run.clock,
        &run.bases,
        &cad_commute::EngineOptions::Exact,
        r,
    );
    r.add_dist(
        "commute.rebuild_push_s",
        "s",
        &builds,
        "reply latency.build_secs of rebuilding pushes",
    );
    r.add(
        "commute.builds_per_op",
        "count",
        builds.len() as f64 / replies.len().max(1) as f64,
        replies.len(),
        "oracle builds per push",
    );
    let updates: Vec<&&&PushReply> = transitions.iter().filter(|r| r.incremental).collect();
    r.add_dist(
        "commute.update_s",
        "s",
        &updates.iter().map(|r| r.update_s).collect::<Vec<_>>(),
        "reply latency.update_secs",
    );
    r.add(
        "commute.update_changes",
        "count",
        mean(
            &updates
                .iter()
                .map(|r| r.n_scored as f64)
                .collect::<Vec<_>>(),
        ),
        updates.len(),
        "mean changed edges per in-place update",
    );
    r.add(
        "commute.incremental_share",
        "fraction",
        updates.len() as f64 / transitions.len().max(1) as f64,
        transitions.len(),
        "pushes updated in place / pushes after the first",
    );
    let mut fallbacks: BTreeMap<&str, usize> = BTreeMap::new();
    for f in replies.iter().filter_map(|r| r.fallback.as_deref()) {
        *fallbacks.entry(f).or_default() += 1;
    }
    for (reason, n) in fallbacks {
        r.add(
            &format!("commute.fallbacks.{reason}"),
            "count",
            n as f64,
            replies.len(),
            "",
        );
    }
    r.add_dist(
        "core.score_s",
        "s",
        &transitions.iter().map(|r| r.score_s).collect::<Vec<_>>(),
        "reply latency.score_secs",
    );
    r.add(
        "core.scored_edges",
        "count",
        mean(
            &transitions
                .iter()
                .map(|r| r.n_scored as f64)
                .collect::<Vec<_>>(),
        ),
        transitions.len(),
        "mean per push",
    );

    let (mut queue, mut handler, mut unattributed, mut transport) =
        (vec![], vec![], vec![], vec![]);
    for s in &traced.samples {
        let (Some(&(q, h)), Some(rep)) = (access.get(&s.trace_id), &s.reply) else {
            continue;
        };
        queue.push(q);
        handler.push(h);
        unattributed.push((h - rep.build_s - rep.update_s - rep.score_s).max(0.0));
        transport.push(s.timing.done - s.timing.sent - q - h);
        run.clock.record(Span {
            name: "push",
            start: s.timing.sent,
            end: s.timing.done,
            parent: None,
            op: s.trace_id,
            tid: (s.session % THREADS) as u64 + 1,
            args: vec![
                ("session", s.session as f64),
                ("lateness_s", s.timing.backlog()),
                ("queue_wait_s", q),
                ("handler_s", h),
                ("build_s", rep.build_s),
                ("update_s", rep.update_s),
                ("score_s", rep.score_s),
            ],
        });
    }
    if queue.len() < traced.samples.len() {
        r.problem(format!(
            "{} of {} pushes have no access-log line",
            traced.samples.len() - queue.len(),
            traced.samples.len()
        ));
    }
    r.add_dist(
        "serve.queue_wait_s",
        "s",
        &queue,
        "access-log queue_wait_secs",
    );
    r.add_dist("serve.handler_s", "s", &handler, "access-log handler_secs");
    r.add_dist(
        "op.unattributed_s",
        "s",
        &unattributed,
        "handler - (build + update + score)",
    );
    r.add_dist(
        "serve.transport_s",
        "s",
        &transport,
        "client round trip - queue wait - handler",
    );
    r.add(
        "serve.body_bytes",
        "bytes",
        mean(
            &traced
                .samples
                .iter()
                .map(|s| s.bytes as f64)
                .collect::<Vec<_>>(),
        ),
        traced.samples.len(),
        "mean request body",
    );
    let late: Vec<f64> = traced
        .samples
        .iter()
        .map(|s| 1e3 * s.timing.gen_lateness())
        .collect();
    if let Some(l) = Dist::of(&late) {
        r.add(
            &format!("gen.lateness_ms.{}", l.tail_label()),
            "ms",
            l.tail,
            l.n,
            "generator lateness",
        );
        r.add(
            "gen.lateness_ms.max",
            "ms",
            late.iter().copied().fold(0.0, f64::max),
            l.n,
            "",
        );
    }
    let pushes = reference.samples.len().max(1) as f64;
    r.add(
        "mem.allocs_per_op",
        "count",
        (mem1.allocs - mem0.allocs) as f64 / pushes,
        reference.samples.len(),
        "per push, whole process, untraced phase",
    );
    r.add(
        "mem.bytes_per_op",
        "bytes",
        (mem1.bytes_allocated - mem0.bytes_allocated) as f64 / pushes,
        reference.samples.len(),
        "per push, whole process, untraced phase",
    );
    let p50 = |ph: &PhaseResult| {
        Dist::of(
            &ph.samples
                .iter()
                .map(|s| s.timing.latency())
                .collect::<Vec<_>>(),
        )
        .map(|d| d.p50)
    };
    if let (Some(t), Some(u)) = (p50(&traced), p50(&reference)) {
        r.add(
            "trace.overhead_pct",
            "%",
            100.0 * (t / u - 1.0),
            traced.samples.len(),
            "traced / untraced push latency p50 - 1",
        );
    }
    if p.journal {
        let delta = |name: &str| prom_value(&after, name) - prom_value(&before, name);
        let per = |sum: &str, count: &str| delta(sum) / delta(count).max(1.0);
        let n = delta("cad_journal_append_secs_count") as usize;
        r.add(
            "journal.append_s",
            "s",
            per(
                "cad_journal_append_secs_sum",
                "cad_journal_append_secs_count",
            ),
            n,
            "mean, /metrics delta",
        );
        r.add(
            "journal.fsync_s",
            "s",
            per("cad_journal_fsync_secs_sum", "cad_journal_fsync_secs_count"),
            n,
            "mean, /metrics delta",
        );
        r.add(
            "journal.bytes_per_push",
            "bytes",
            delta("cad_journal_bytes_written_total") / traced.samples.len().max(1) as f64,
            traced.samples.len(),
            "/metrics delta",
        );
        let records = p.sessions * (p.prefix + 1);
        r.add(
            "journal.recovery_s_per_record",
            "s",
            stats::median(&run.start_s) / records as f64,
            run.start_s.len(),
            &format!("median Server::start over {records} journal records"),
        );
    }
    std::fs::write(
        out.join(format!("{}.trace.json", r.workload)),
        run.clock.chrome_json(),
    )
    .map_err(|e| format!("cannot write the trace: {e}"))
}

/// Measure what the workload constants rest on: the unloaded tail
/// latency (a tenth of the nominal rate) and the capacity (the rate
/// where the backlog starts to grow, climbing from a quarter of the
/// nominal rate).
pub fn calibrate(w: Workload, seed: u64, seconds: f64) -> Result<(), String> {
    let p = params(w);
    let work = Path::new("target")
        .join("benchmark")
        .join("work")
        .join("calibrate");
    let mut run = Run::new(w, seed, false, work);
    run.dir = inputs::ensure(w, seed)?;
    let mut live = run.setup(p, 0, None)?;
    let low = phase(
        &mut live,
        p,
        p.nominal_rps / 10.0,
        seconds,
        derive_seed(seed, 9000),
        &run.clock,
    )?;
    let lat: Vec<f64> = low
        .samples
        .iter()
        .map(|s| 1e3 * s.timing.latency())
        .collect();
    let d = Dist::of(&lat).ok_or("no samples")?;
    println!(
        "unloaded at {:.1}/s: p50 {:.3} ms, {} {:.3} ms (n = {})",
        p.nominal_rps / 10.0,
        d.p50,
        d.tail_label(),
        d.tail,
        d.n
    );
    let mut rate = p.nominal_rps / 4.0;
    for i in 0.. {
        let ph = phase(
            &mut live,
            p,
            rate,
            2.0,
            derive_seed(seed, 9001 + i),
            &run.clock,
        )?;
        let g = rung(rate, &ph.samples);
        println!(
            "offered {rate:.1}/s: tail {:.3} ms, backlog growth {:.3} ms",
            g.tail_ms, g.growth_ms
        );
        if ph.exhausted || !g.passes(1000.0) {
            break;
        }
        rate *= LADDER_RATIO;
    }
    println!("capacity is about the last offered rate without backlog growth");
    finish(live);
    let _ = std::fs::remove_dir_all(&run.work);
    Ok(())
}
