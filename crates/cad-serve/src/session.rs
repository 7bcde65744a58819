//! Detection sessions and the sharded registry that owns them.
//!
//! A *session* is one [`OnlineCad`] stream plus the latest snapshot it
//! has seen (the base for `.cadpack` edge-delta bodies). Sessions are
//! addressed by a monotonically assigned numeric id and live in a
//! [`SessionMap`]: a fixed set of `Mutex<HashMap>` shards, so lookups
//! on different sessions rarely contend, while each session's own inner
//! mutex serialises its pushes — concurrent snapshots to *one* session
//! are ordered, snapshots to *different* sessions run in parallel.

use cad_commute::{EmbeddingOptions, EngineOptions, OracleProvider, PartitionSpec};
use cad_core::{CadOptions, OnlineCad, ScoreKind, ThresholdMode, UpdateMode};
use cad_journal::{JournalConfig, RecordKind, SessionJournal};
use cad_obs::{Gauge, Json};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Shards in the session map. A power of two so the id→shard map is a
/// mask; 16 is plenty for the worker counts a single box runs.
const N_SHARDS: usize = 16;

/// Everything a `POST /v1/sequences` body can configure.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Vertex-set size every snapshot must match.
    pub n_nodes: usize,
    /// Detector options (engine, score kind; threads pinned to 1 —
    /// parallelism comes from serving many sessions, not from one).
    pub opts: CadOptions,
    /// Threshold mode (fixed δ or running target-l).
    pub mode: ThresholdMode,
    /// Oracle update mode; `None` inherits the server default
    /// (`--update-mode`).
    pub update_mode: Option<UpdateMode>,
    /// Free-form label echoed back in status responses.
    pub label: String,
}

/// Parse the JSON body of a session-create request.
///
/// ```json
/// {"nodes": 64, "engine": "exact", "kind": "cad", "delta": 0.4}
/// {"nodes": 64, "engine": "approx", "k": 6, "l": 2, "label": "demo"}
/// ```
///
/// `nodes` is required. `engine` is one of `auto` (default), `exact`,
/// `approx`, `shortest-path`, `corrected`; `k` is the embedding
/// dimension for `approx`/`auto`. `kind` is `cad` (default), `adj` or
/// `com`. Exactly one of `delta` (fixed threshold — the mode whose
/// per-arrival output is bit-identical to batch detection) or `l`
/// (running-average target nodes per transition) may be given;
/// neither defaults to `l = 2`. `update_mode` is one of `rebuild`,
/// `incremental`, `auto`; omitted inherits the server's `--update-mode`
/// default. `partition` requests the block-partitioned oracle: a
/// positive integer, the target block count; push responses then report
/// the realised `blocks` and `boundary_edges`. The object form
/// `{"blocks": n, "mode": …}` that journals written by older builds hold
/// still parses: `mode` must be one of the retired names `auto`,
/// `components` or `bfs`, and is ignored.
pub fn parse_spec(body: &[u8]) -> Result<SessionSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = cad_obs::parse_json(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let n_nodes = v
        .get("nodes")
        .and_then(Json::as_u64)
        .ok_or_else(|| "`nodes` (positive integer) is required".to_string())?;
    if n_nodes == 0 {
        return Err("`nodes` must be at least 1".to_string());
    }
    let k = match v.get("k") {
        Some(j) => {
            j.as_u64()
                .filter(|&k| k >= 1)
                .ok_or_else(|| "`k` must be a positive integer".to_string())? as usize
        }
        None => EmbeddingOptions::default().k,
    };
    let embedding = EmbeddingOptions {
        k,
        ..Default::default()
    };
    let engine = match v.get("engine").map(|j| j.as_str()) {
        None => EngineOptions::Auto {
            threshold: 512,
            embedding,
        },
        Some(Some("auto")) => EngineOptions::Auto {
            threshold: 512,
            embedding,
        },
        Some(Some("exact")) => EngineOptions::Exact,
        Some(Some("approx")) => EngineOptions::Approximate(embedding),
        Some(Some("shortest-path")) => EngineOptions::ShortestPath,
        Some(Some("corrected")) => EngineOptions::Corrected,
        Some(other) => {
            return Err(format!(
            "unknown `engine` {other:?} (want auto | exact | approx | shortest-path | corrected)"
        ))
        }
    };
    let kind = match v.get("kind").map(|j| j.as_str()) {
        None | Some(Some("cad")) => ScoreKind::Cad,
        Some(Some("adj")) => ScoreKind::Adj,
        Some(Some("com")) => ScoreKind::Com,
        Some(other) => return Err(format!("unknown `kind` {other:?} (want cad | adj | com)")),
    };
    let mode = match (v.get("delta"), v.get("l")) {
        (Some(_), Some(_)) => {
            return Err("`delta` and `l` are mutually exclusive".to_string());
        }
        (Some(d), None) => {
            let d = d
                .as_f64()
                .filter(|d| d.is_finite() && *d >= 0.0)
                .ok_or_else(|| "`delta` must be a finite non-negative number".to_string())?;
            ThresholdMode::Fixed(d)
        }
        (None, Some(l)) => {
            let l = l
                .as_u64()
                .filter(|&l| l >= 1)
                .ok_or_else(|| "`l` must be a positive integer".to_string())?;
            ThresholdMode::TargetNodes(l as usize)
        }
        (None, None) => ThresholdMode::TargetNodes(2),
    };
    let update_mode = match v.get("update_mode").map(|j| j.as_str()) {
        None => None,
        Some(Some(s)) => match UpdateMode::from_name(s) {
            Some(m) => Some(m),
            None => {
                return Err(format!(
                    "unknown `update_mode` {s:?} (want rebuild | incremental | auto)"
                ))
            }
        },
        Some(None) => {
            return Err("`update_mode` must be a string (rebuild | incremental | auto)".to_string())
        }
    };
    let partition = match v.get("partition") {
        None => None,
        Some(j) => {
            let blocks = match j.as_u64() {
                Some(b) => b,
                None => {
                    let b = j.get("blocks").and_then(Json::as_u64).ok_or_else(|| {
                        "`partition` must be a positive integer or an object with \
                         `blocks` (positive integer)"
                            .to_string()
                    })?;
                    match j.get("mode").map(|m| m.as_str()) {
                        None | Some(Some("auto" | "components" | "bfs")) => {}
                        Some(Some(s)) => {
                            return Err(format!(
                                "unknown partition `mode` {s:?} (want auto | components | bfs)"
                            ))
                        }
                        Some(None) => {
                            return Err("partition `mode` must be a string \
                                        (auto | components | bfs)"
                                .to_string())
                        }
                    }
                    b
                }
            };
            if blocks == 0 {
                return Err("`partition` blocks must be at least 1".to_string());
            }
            Some(PartitionSpec {
                blocks: blocks as usize,
            })
        }
    };
    let label = match v.get("label") {
        Some(j) => j
            .as_str()
            .ok_or_else(|| "`label` must be a string".to_string())?
            .to_string(),
        None => String::new(),
    };
    Ok(SessionSpec {
        n_nodes: n_nodes as usize,
        opts: CadOptions {
            engine,
            kind,
            threads: 1,
            partition,
        },
        mode,
        update_mode,
        label,
    })
}

/// Per-session token bucket for push rate limiting (`--max-push-rps`).
///
/// Refills continuously at `rate` tokens per second up to a burst of
/// `max(rate, 1)`; each accepted push spends one token. Lives inside
/// the session mutex, so no extra synchronization.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket refilling at `rate` tokens per second.
    pub fn new(rate: f64) -> TokenBucket {
        let burst = rate.max(1.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Spend one token, or report how many seconds until one is
    /// available (the `Retry-After` the 429 carries).
    pub fn try_take(&mut self) -> Result<(), f64> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err((1.0 - self.tokens) / self.rate)
        }
    }
}

/// The mutable core of one session, guarded by the session mutex.
pub struct SessionInner {
    /// The streaming detector. It also holds the latest accepted
    /// snapshot ([`OnlineCad::last_graph`]), the base an edge-delta
    /// body applies to.
    pub online: OnlineCad,
    /// Snapshots accepted so far.
    pub instances: usize,
    /// Last create/push/status touch, for the idle-TTL sweeper.
    pub last_used: Instant,
    /// Write-ahead journal handle (`--journal-dir`); `None` when the
    /// server runs unjournaled. Appends happen under the session mutex,
    /// so records land in exactly the order pushes were applied.
    pub journal: Option<SessionJournal>,
    /// Set when a push was applied to the detector but its journal
    /// append failed: the detector is then ahead of the journal, so
    /// the session refuses further pushes (and compaction, which would
    /// checkpoint the unjournaled instance) until it is recreated or a
    /// restart replays the acknowledged pushes.
    pub journal_failed: bool,
    /// Push rate limiter (`--max-push-rps`); `None` means unlimited.
    pub bucket: Option<TokenBucket>,
    /// The resolved spec as journaled — re-used verbatim when
    /// compaction writes a checkpoint, so the round trip cannot drift.
    pub spec_json: String,
}

/// One detection session.
pub struct Session {
    /// The session's id (also its URL path segment).
    pub id: u64,
    /// Vertex-set size every snapshot must match.
    pub n_nodes: usize,
    /// Label from the create request.
    pub label: String,
    inner: Mutex<SessionInner>,
}

impl Session {
    /// Lock the session for one serialized push/status operation,
    /// refreshing its idle clock.
    pub fn lock(&self) -> MutexGuard<'_, SessionInner> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.last_used = Instant::now();
        inner
    }

    /// Seconds since the session was last touched.
    fn idle(&self) -> Duration {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.last_used.elapsed()
    }
}

/// Why a session could not be created.
#[derive(Debug, PartialEq, Eq)]
pub enum CreateError {
    /// The registry is at its configured capacity.
    Full {
        /// The configured session cap.
        max_sessions: usize,
    },
    /// The journal could not record the create — the session is not
    /// durable, so it is not created at all.
    Journal(
        /// The underlying I/O failure.
        String,
    ),
}

/// The sharded session registry.
pub struct SessionMap {
    shards: Vec<Mutex<HashMap<u64, Arc<Session>>>>,
    next_id: AtomicU64,
    active: AtomicUsize,
    max_sessions: usize,
    default_update_mode: UpdateMode,
    journal: Option<(PathBuf, JournalConfig)>,
    push_rps: Option<f64>,
}

impl SessionMap {
    /// An empty registry capped at `max_sessions` live sessions.
    pub fn new(max_sessions: usize) -> Self {
        SessionMap {
            shards: (0..N_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            next_id: AtomicU64::new(1),
            active: AtomicUsize::new(0),
            max_sessions,
            default_update_mode: UpdateMode::default(),
            journal: None,
            push_rps: None,
        }
    }

    /// Set the update mode sessions inherit when their create spec does
    /// not choose one (the server's `--update-mode` flag).
    pub fn with_update_mode(mut self, mode: UpdateMode) -> Self {
        self.default_update_mode = mode;
        self
    }

    /// Journal every session's lifecycle under `root`
    /// (`--journal-dir`).
    pub fn with_journal(mut self, root: PathBuf, cfg: JournalConfig) -> Self {
        self.journal = Some((root, cfg));
        self
    }

    /// Cap pushes per session at `rate` per second (`--max-push-rps`).
    pub fn with_push_rps(mut self, rate: f64) -> Self {
        self.push_rps = Some(rate);
        self
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Arc<Session>>> {
        &self.shards[(id as usize) & (N_SHARDS - 1)]
    }

    /// Live sessions right now.
    pub fn len(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Whether the registry holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Create a session from `spec`, wiring the oracle `provider`
    /// (the warm `--store-dir` cache) into its detector when present.
    ///
    /// When journaling is on, the create record is appended (and, under
    /// `--journal-fsync always`, durable) *before* the session becomes
    /// addressable — a journal failure fails the create.
    pub fn create(
        &self,
        spec: SessionSpec,
        provider: Option<Arc<dyn OracleProvider>>,
    ) -> Result<Arc<Session>, CreateError> {
        // Optimistic reservation: bump, then roll back if over cap —
        // two racing creates cannot both slip under the limit.
        let prev = self.active.fetch_add(1, Ordering::Relaxed);
        if prev >= self.max_sessions {
            self.active.fetch_sub(1, Ordering::Relaxed);
            return Err(CreateError::Full {
                max_sessions: self.max_sessions,
            });
        }
        let resolved = spec.update_mode.unwrap_or(self.default_update_mode);
        let mut online = OnlineCad::with_mode(spec.opts, spec.mode).with_update_mode(resolved);
        if let Some(p) = provider {
            online = online.with_provider(p);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let spec_json = crate::journal::spec_to_json(&spec, resolved);
        let journal = match &self.journal {
            Some((root, cfg)) => {
                let opened = SessionJournal::create(root, id, cfg.clone()).and_then(|mut j| {
                    j.append(RecordKind::Create, spec_json.as_bytes())?;
                    Ok(j)
                });
                match opened {
                    Ok(j) => Some(j),
                    Err(e) => {
                        self.active.fetch_sub(1, Ordering::Relaxed);
                        return Err(CreateError::Journal(e.to_string()));
                    }
                }
            }
            None => None,
        };
        let session = Arc::new(Session {
            id,
            n_nodes: spec.n_nodes,
            label: spec.label,
            inner: Mutex::new(SessionInner {
                online,
                instances: 0,
                last_used: Instant::now(),
                journal,
                journal_failed: false,
                bucket: self.push_rps.map(TokenBucket::new),
                spec_json,
            }),
        });
        self.shard(id)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, Arc::clone(&session));
        cad_obs::gauge_add(Gauge::ServeSessionsActive, 1);
        Ok(session)
    }

    /// Re-insert a session replayed from its journal at boot, keeping
    /// its original id (`next_id` advances past it, so new sessions
    /// never collide with recovered ones).
    pub fn restore(
        &self,
        rs: crate::journal::RecoveredSession,
        journal: SessionJournal,
    ) -> Result<Arc<Session>, CreateError> {
        let prev = self.active.fetch_add(1, Ordering::Relaxed);
        if prev >= self.max_sessions {
            self.active.fetch_sub(1, Ordering::Relaxed);
            return Err(CreateError::Full {
                max_sessions: self.max_sessions,
            });
        }
        self.next_id.fetch_max(rs.id + 1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id: rs.id,
            n_nodes: rs.spec.n_nodes,
            label: rs.spec.label,
            inner: Mutex::new(SessionInner {
                online: rs.online,
                instances: rs.instances,
                last_used: Instant::now(),
                journal: Some(journal),
                journal_failed: false,
                bucket: self.push_rps.map(TokenBucket::new),
                spec_json: rs.spec_json,
            }),
        });
        self.shard(rs.id)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(rs.id, Arc::clone(&session));
        cad_obs::gauge_add(Gauge::ServeSessionsActive, 1);
        Ok(session)
    }

    /// Look up a live session.
    pub fn get(&self, id: u64) -> Option<Arc<Session>> {
        self.shard(id)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .cloned()
    }

    /// Remove a session, returning it if it existed.
    ///
    /// A journaled session gets a terminal delete record and its
    /// journal directory torn down — deletion (or TTL eviction) is as
    /// durable as creation, so a restart does not resurrect it.
    pub fn remove(&self, id: u64) -> Option<Arc<Session>> {
        let removed = self
            .shard(id)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id);
        if let Some(session) = &removed {
            self.active.fetch_sub(1, Ordering::Relaxed);
            cad_obs::gauge_add(Gauge::ServeSessionsActive, -1);
            let mut inner = session.inner.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(mut journal) = inner.journal.take() {
                // Best-effort: the delete record makes the tombstone
                // redundant if directory removal is interrupted, and
                // recovery honours either.
                let _ = journal.append(RecordKind::Delete, b"");
                let _ = journal.destroy();
            }
        }
        removed
    }

    /// Compact every journaled session past its segment-count or byte
    /// threshold: snapshot the detector state under the session mutex,
    /// replace the record history with one checkpoint. Returns how many
    /// sessions were compacted. Runs on the sweeper thread.
    pub fn compact_journals(&self) -> usize {
        let mut compacted = 0;
        for shard in &self.shards {
            let sessions: Vec<Arc<Session>> = {
                let map = shard.lock().unwrap_or_else(|p| p.into_inner());
                map.values().cloned().collect()
            };
            for session in sessions {
                // Plain inner lock: background compaction must not
                // refresh the idle clock and defeat TTL eviction.
                let mut inner = session.inner.lock().unwrap_or_else(|p| p.into_inner());
                if inner.journal_failed
                    || !inner
                        .journal
                        .as_ref()
                        .is_some_and(SessionJournal::needs_compaction)
                {
                    continue;
                }
                let payload =
                    crate::journal::encode_checkpoint(&inner.spec_json, &inner.online.state());
                match inner
                    .journal
                    .as_mut()
                    .expect("checked above")
                    .compact(&payload)
                {
                    Ok(()) => compacted += 1,
                    Err(_) => cad_obs::events::record(
                        cad_obs::EventKind::Error,
                        "journal_error",
                        0.0,
                        session.id,
                    ),
                }
            }
        }
        compacted
    }

    /// Drop every session idle for longer than `ttl`; returns how many
    /// were evicted. An in-flight push holds the session `Arc`, so the
    /// work it is doing completes even if the sweep wins the race —
    /// the session just stops being addressable.
    pub fn sweep_idle(&self, ttl: Duration) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let expired: Vec<u64> = {
                let map = shard.lock().unwrap_or_else(|p| p.into_inner());
                map.iter()
                    .filter(|(_, s)| s.idle() > ttl)
                    .map(|(&id, _)| id)
                    .collect()
            };
            for id in expired {
                if self.remove(id).is_some() {
                    cad_obs::events::record(
                        cad_obs::EventKind::Eviction,
                        "session_evicted",
                        0.0,
                        id,
                    );
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_obs::Registry;

    #[test]
    fn parse_spec_accepts_the_documented_shapes() {
        let s = parse_spec(br#"{"nodes": 6, "engine": "exact", "delta": 0.4}"#).unwrap();
        assert_eq!(s.n_nodes, 6);
        assert!(matches!(s.opts.engine, EngineOptions::Exact));
        assert!(matches!(s.mode, ThresholdMode::Fixed(d) if d == 0.4));
        assert_eq!(s.opts.threads, 1);

        let s = parse_spec(br#"{"nodes": 9, "engine": "approx", "k": 6, "l": 3}"#).unwrap();
        match s.opts.engine {
            EngineOptions::Approximate(e) => assert_eq!(e.k, 6),
            other => panic!("wrong engine: {other:?}"),
        }
        assert!(matches!(s.mode, ThresholdMode::TargetNodes(3)));

        let s = parse_spec(br#"{"nodes": 4, "label": "demo"}"#).unwrap();
        assert!(matches!(s.mode, ThresholdMode::TargetNodes(2)));
        assert!(matches!(s.opts.engine, EngineOptions::Auto { .. }));
        assert_eq!(s.label, "demo");
        assert_eq!(s.update_mode, None, "omitted means inherit server default");

        let s = parse_spec(br#"{"nodes": 4, "update_mode": "incremental"}"#).unwrap();
        assert_eq!(s.update_mode, Some(UpdateMode::Incremental));

        for engine in ["shortest-path", "corrected"] {
            let body = format!(r#"{{"nodes": 4, "engine": "{engine}"}}"#);
            parse_spec(body.as_bytes()).unwrap();
        }
    }

    #[test]
    fn parse_spec_accepts_partition_shapes() {
        let s = parse_spec(br#"{"nodes": 8}"#).unwrap();
        assert_eq!(s.opts.partition, None, "monolithic by default");

        let s = parse_spec(br#"{"nodes": 8, "partition": 4}"#).unwrap();
        assert_eq!(s.opts.partition, Some(PartitionSpec { blocks: 4 }));

        // The object form older journals hold: `mode` is checked against
        // the retired names, then ignored.
        for body in [
            &br#"{"nodes": 8, "partition": {"blocks": 3, "mode": "bfs"}}"#[..],
            br#"{"nodes": 8, "partition": {"blocks": 3, "mode": "components"}}"#,
            br#"{"nodes": 8, "partition": {"blocks": 3, "mode": "auto"}}"#,
            br#"{"nodes": 8, "partition": {"blocks": 3}}"#,
        ] {
            let s = parse_spec(body).unwrap();
            assert_eq!(s.opts.partition, Some(PartitionSpec { blocks: 3 }));
        }

        for (body, needle) in [
            (&br#"{"nodes": 8, "partition": 0}"#[..], "at least 1"),
            (br#"{"nodes": 8, "partition": "four"}"#, "`partition`"),
            (br#"{"nodes": 8, "partition": {"mode": "bfs"}}"#, "`blocks`"),
            (
                br#"{"nodes": 8, "partition": {"blocks": 2, "mode": "warp"}}"#,
                "unknown partition `mode`",
            ),
            (
                br#"{"nodes": 8, "partition": {"blocks": 2, "mode": 7}}"#,
                "must be a string",
            ),
        ] {
            let err = parse_spec(body).expect_err("must reject");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn parse_spec_rejects_bad_bodies_with_messages() {
        for (body, needle) in [
            (&b"not json"[..], "not JSON"),
            (br#"{"edges": []}"#, "`nodes`"),
            (br#"{"nodes": 0}"#, "at least 1"),
            (br#"{"nodes": 4, "engine": "warp"}"#, "unknown `engine`"),
            (br#"{"nodes": 4, "kind": "odd"}"#, "unknown `kind`"),
            (
                br#"{"nodes": 4, "delta": 0.1, "l": 2}"#,
                "mutually exclusive",
            ),
            (br#"{"nodes": 4, "delta": -1.0}"#, "`delta`"),
            (br#"{"nodes": 4, "l": 0}"#, "`l`"),
            (br#"{"nodes": 4, "k": 0}"#, "`k`"),
            (br#"{"nodes": 4, "label": 7}"#, "`label`"),
            (
                br#"{"nodes": 4, "update_mode": "warp"}"#,
                "unknown `update_mode`",
            ),
            (br#"{"nodes": 4, "update_mode": 3}"#, "`update_mode`"),
        ] {
            let err = parse_spec(body).expect_err("must reject");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn create_applies_server_default_unless_spec_overrides() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let map = SessionMap::new(4).with_update_mode(UpdateMode::Incremental);
        let inherited = map
            .create(parse_spec(br#"{"nodes": 4}"#).unwrap(), None)
            .unwrap();
        assert_eq!(
            inherited.lock().online.update_mode(),
            UpdateMode::Incremental
        );
        let explicit = map
            .create(
                parse_spec(br#"{"nodes": 4, "update_mode": "rebuild"}"#).unwrap(),
                None,
            )
            .unwrap();
        assert_eq!(explicit.lock().online.update_mode(), UpdateMode::Rebuild);
    }

    #[test]
    fn map_caps_sessions_and_counts_active() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let map = SessionMap::new(2);
        let spec = || parse_spec(br#"{"nodes": 4}"#).unwrap();
        let a = map.create(spec(), None).unwrap();
        let b = map.create(spec(), None).unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(map.len(), 2);
        assert_eq!(reg.gauge(Gauge::ServeSessionsActive), 2);
        assert!(matches!(
            map.create(spec(), None).map(|_| ()),
            Err(CreateError::Full { max_sessions: 2 })
        ));
        assert!(map.remove(a.id).is_some());
        assert!(map.remove(a.id).is_none(), "double delete is a miss");
        assert_eq!(reg.gauge(Gauge::ServeSessionsActive), 1);
        map.create(spec(), None).expect("capacity freed");
        assert!(map.get(b.id).is_some());
        assert!(map.get(a.id).is_none());
    }

    #[test]
    fn sweep_evicts_only_idle_sessions() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let map = SessionMap::new(8);
        let spec = || parse_spec(br#"{"nodes": 4}"#).unwrap();
        let old = map.create(spec(), None).unwrap();
        let fresh = map.create(spec(), None).unwrap();
        // Age the first session by rewinding its idle clock.
        old.inner.lock().unwrap().last_used = Instant::now() - Duration::from_secs(60);
        let evicted = map.sweep_idle(Duration::from_secs(30));
        assert_eq!(evicted, 1);
        assert!(map.get(old.id).is_none());
        assert!(map.get(fresh.id).is_some());
        assert_eq!(reg.gauge(Gauge::ServeSessionsActive), 1);
    }
}
