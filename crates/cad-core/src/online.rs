//! Streaming (online) CAD.
//!
//! Paper §4.2 notes that the offline δ-selection "can be suitably
//! modified in an online setting by aggregating scores up to the current
//! graph instance and updating the threshold". This module implements
//! that modification: graph instances arrive one at a time, each new
//! transition is scored immediately (reusing the previous instance's
//! commute-time engine, so the marginal cost per arrival is one engine
//! build plus `O(m log m)` scoring), and δ is re-calibrated against the
//! pooled score history so that the *running* average anomaly rate
//! tracks the target `l`.

use crate::detector::TransitionAnomalies;
use crate::scores::{pair_edge_scores, EdgeScore};
use crate::threshold::{choose_delta, select_prefix};
use crate::{CadOptions, Result};
use cad_commute::{EdgeDelta, OracleProvider, RebuildReason, SharedOracle, UpdateOutcome};
use cad_graph::WeightedGraph;
use cad_obs::{Counter, Hist, LabeledCounter};
use std::sync::Arc;

/// How the streaming detector obtains each arriving instance's oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// Build a fresh oracle per snapshot — bit-identical to batch
    /// detection for every backend and thread count. The default.
    #[default]
    Rebuild,
    /// Update the previous oracle in place from the edge delta
    /// ([`cad_commute::UpdatableOracle`]); falls back to a fresh build
    /// when the oracle prices the update above a rebuild
    /// ([`cad_commute::DistanceOracle::rebuild_is_cheaper`]) or the
    /// backend declines (structural delta, degenerate denominator,
    /// unsupported backend). Results agree with rebuild within
    /// [`cad_commute::UPDATE_REL_TOL`].
    Incremental,
    /// [`UpdateMode::Incremental`], plus a forced fresh build every
    /// [`REFRESH_THRESHOLD`] consecutive updates to cap accumulated
    /// floating-point drift.
    Auto,
}

/// Consecutive in-place updates [`UpdateMode::Auto`] allows before
/// forcing a fresh build.
pub const REFRESH_THRESHOLD: usize = 32;

impl UpdateMode {
    /// Stable lowercase name (CLI flags, NDJSON events, HTTP bodies).
    pub fn name(self) -> &'static str {
        match self {
            UpdateMode::Rebuild => "rebuild",
            UpdateMode::Incremental => "incremental",
            UpdateMode::Auto => "auto",
        }
    }

    /// Parse a [`UpdateMode::name`] back (CLI/serve knob).
    pub fn from_name(s: &str) -> Option<UpdateMode> {
        match s {
            "rebuild" => Some(UpdateMode::Rebuild),
            "incremental" => Some(UpdateMode::Incremental),
            "auto" => Some(UpdateMode::Auto),
            _ => None,
        }
    }
}

/// How the streaming detector chooses its threshold δ.
#[derive(Debug, Clone, Copy)]
pub enum ThresholdMode {
    /// Re-calibrate δ after every arrival so the running average
    /// anomaly rate tracks this many nodes per transition (paper §4.2's
    /// online modification). Keeps the full score history.
    TargetNodes(usize),
    /// A fixed δ for the whole stream. No score history is kept —
    /// memory stays bounded however long the stream runs — and each
    /// transition's anomaly set is exactly what batch detection with
    /// the same δ would produce.
    Fixed(f64),
}

/// Everything an [`OnlineCad`] carries *across* pushes, captured by
/// [`OnlineCad::state`] and reinstalled by [`OnlineCad::resume`].
///
/// Configuration ([`CadOptions`], [`ThresholdMode`], [`UpdateMode`],
/// provider) is intentionally excluded: the caller persists it
/// separately (it is part of the session spec, not of the stream), and
/// resume installs this state into a detector already configured the
/// same way. The previous oracle is excluded too — it is a pure
/// function of `prev_graph` and the configuration, so resume rebuilds
/// it rather than serializing solver internals.
#[derive(Debug, Clone)]
pub struct OnlineState {
    /// Node count pinned by the first arrival (`None` before it).
    pub n_nodes: Option<usize>,
    /// Transitions observed so far.
    pub seen: usize,
    /// Current calibrated threshold δ (`f64::MAX` before the first
    /// transition under [`ThresholdMode::TargetNodes`]).
    pub delta: f64,
    /// Scored history, one sorted list per transition
    /// ([`ThresholdMode::TargetNodes`] only; empty under a fixed δ).
    pub history: Vec<Vec<EdgeScore>>,
    /// The most recent instance — the next transition's left operand.
    pub prev_graph: Option<WeightedGraph>,
}

/// How one arrival's oracle was actually obtained (the mode *taken*,
/// as opposed to the configured [`UpdateMode`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOracle {
    /// Built fresh: the first arrival, [`UpdateMode::Rebuild`], or a
    /// provider/cache load.
    Rebuilt,
    /// Updated in place from the previous instance's oracle.
    Incremental {
        /// Wall-clock seconds applying the delta.
        update_secs: f64,
        /// Edge changes folded in.
        changes: usize,
    },
    /// An incremental update was attempted (or due) but declined or
    /// priced above a rebuild, and the oracle was rebuilt fresh instead.
    Fallback(RebuildReason),
}

impl StepOracle {
    /// `"incremental"` or `"rebuild"` — the stable event/response label.
    pub fn mode_name(self) -> &'static str {
        match self {
            StepOracle::Incremental { .. } => "incremental",
            StepOracle::Rebuilt | StepOracle::Fallback(_) => "rebuild",
        }
    }

    /// The fallback reason, when this step declined an update.
    pub fn fallback_reason(self) -> Option<RebuildReason> {
        match self {
            StepOracle::Fallback(r) => Some(r),
            _ => None,
        }
    }
}

/// Observability record for one [`OnlineCad::push_metered`] arrival.
///
/// The oracle for the arriving instance is built (or updated) exactly
/// once and cached for the next transition's left operand, so `build`
/// describes the *only* oracle work this arrival triggered.
#[derive(Debug, Clone)]
pub struct OnlineStepMetrics {
    /// What building the arriving instance's oracle cost. For an
    /// incremental step no build happened: the backend name is real but
    /// `build_secs` is 0 — the update cost lives in [`StepOracle`].
    pub build: cad_obs::OracleBuildStats,
    /// Wall-clock seconds scoring the new transition (0 on the first
    /// arrival, which has no transition).
    pub score_secs: f64,
    /// Candidate (changed) edges scored (0 on the first arrival).
    pub n_scored: usize,
    /// How the oracle was obtained (rebuild vs in-place update).
    pub oracle: StepOracle,
    /// Block layout of the arriving instance's oracle, when it is a
    /// partitioned build (`CadOptions::partition`); `None` for
    /// monolithic oracles.
    pub partition: Option<cad_commute::PartitionInfo>,
}

/// Streaming CAD detector: push instances, get per-transition anomaly
/// sets with a self-calibrating threshold.
///
/// ```
/// use cad_core::online::OnlineCad;
/// use cad_core::CadOptions;
/// use cad_graph::WeightedGraph;
///
/// let mut online = OnlineCad::new(CadOptions::default(), 2);
/// let g = |extra: f64| WeightedGraph::from_edges(
///     4, &[(0, 1, 3.0), (2, 3, 3.0), (1, 2, 0.2 + extra)]).unwrap();
/// assert!(online.push(g(0.0)).unwrap().is_none()); // first instance
/// let report = online.push(g(0.0)).unwrap().unwrap(); // quiet transition
/// assert!(report.edges.is_empty());
/// ```
pub struct OnlineCad {
    opts: CadOptions,
    mode: ThresholdMode,
    /// Oracle source; `None` builds fresh (see
    /// [`cad_commute::OracleProvider`]). The sliding-window payoff of
    /// the `cad-store` cache: a re-seen instance loads its artifact
    /// instead of rebuilding.
    provider: Option<Arc<dyn OracleProvider>>,
    /// Rebuild per snapshot, or update the held oracle per delta.
    update_mode: UpdateMode,
    /// Consecutive in-place updates since the last fresh build
    /// ([`UpdateMode::Auto`]'s refresh trigger).
    updates_since_build: usize,
    n_nodes: Option<usize>,
    /// Previous instance and its distance oracle.
    prev: Option<(WeightedGraph, SharedOracle)>,
    /// Scored history, one sorted score list per seen transition
    /// ([`ThresholdMode::TargetNodes`] only — stays empty under a fixed
    /// δ so memory is bounded).
    history: Vec<Vec<EdgeScore>>,
    /// Transitions observed so far.
    seen: usize,
    /// Current calibrated threshold.
    delta: f64,
}

impl std::fmt::Debug for OnlineCad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineCad")
            .field("mode", &self.mode)
            .field("n_nodes", &self.n_nodes)
            .field("n_transitions", &self.seen)
            .field("delta", &self.delta)
            .finish_non_exhaustive()
    }
}

impl OnlineCad {
    /// Create a streaming detector targeting `l` anomalous nodes per
    /// transition on (running) average.
    pub fn new(opts: CadOptions, l: usize) -> Self {
        Self::with_mode(opts, ThresholdMode::TargetNodes(l))
    }

    /// Create a streaming detector with an explicit threshold mode.
    pub fn with_mode(opts: CadOptions, mode: ThresholdMode) -> Self {
        let delta = match mode {
            ThresholdMode::TargetNodes(_) => f64::MAX,
            ThresholdMode::Fixed(d) => d,
        };
        OnlineCad {
            opts,
            mode,
            provider: None,
            update_mode: UpdateMode::default(),
            updates_since_build: 0,
            n_nodes: None,
            prev: None,
            history: Vec::new(),
            seen: 0,
            delta,
        }
    }

    /// Use `provider` as the oracle source (e.g. the `cad-store`
    /// content-addressed cache); must honour the [`OracleProvider`]
    /// bit-identity contract.
    pub fn with_provider(mut self, provider: Arc<dyn OracleProvider>) -> Self {
        self.provider = Some(provider);
        self
    }

    /// Choose how arriving instances obtain their oracle (default:
    /// [`UpdateMode::Rebuild`]).
    pub fn with_update_mode(mut self, mode: UpdateMode) -> Self {
        self.update_mode = mode;
        self
    }

    /// The configured oracle-update mode.
    pub fn update_mode(&self) -> UpdateMode {
        self.update_mode
    }

    /// Number of transitions observed so far.
    pub fn n_transitions(&self) -> usize {
        self.seen
    }

    /// The current calibrated threshold δ (`f64::MAX` before the first
    /// transition).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The most recent instance (`None` before the first push): the
    /// next transition's left operand, and the base a caller diffs the
    /// next snapshot against.
    pub fn last_graph(&self) -> Option<&WeightedGraph> {
        self.prev.as_ref().map(|(g, _)| g)
    }

    /// Feed the next graph instance.
    ///
    /// Returns `None` for the very first instance (no transition yet);
    /// afterwards returns the anomaly set of the newest transition under
    /// the re-calibrated threshold.
    pub fn push(&mut self, g: WeightedGraph) -> Result<Option<TransitionAnomalies>> {
        self.push_metered(g).map(|(out, _)| out)
    }

    /// Like [`OnlineCad::push`], also returning what the arrival cost:
    /// the (single) oracle build and the transition-scoring latency.
    pub fn push_metered(
        &mut self,
        g: WeightedGraph,
    ) -> Result<(Option<TransitionAnomalies>, OnlineStepMetrics)> {
        match self.n_nodes {
            None => self.n_nodes = Some(g.n_nodes()),
            Some(n) if n != g.n_nodes() => {
                return Err(cad_graph::GraphError::MixedNodeCounts {
                    expected: n,
                    found: g.n_nodes(),
                    at: self.seen + 1,
                });
            }
            Some(_) => {}
        }
        // The sliding oracle cache: this build (or in-place update) is
        // the only oracle work the arrival triggers — G_t's oracle was
        // cached by the previous push and becomes this transition's
        // left operand.
        let (engine, step) = self.obtain_oracle(&g)?;
        let build = match step {
            // No build happened; the clone carries the *previous* build's
            // stats, which would misreport this arrival's cost.
            StepOracle::Incremental { .. } => {
                cad_obs::OracleBuildStats::direct(engine.kind().name(), 0.0)
            }
            _ => engine
                .build_stats()
                .cloned()
                .unwrap_or_else(|| cad_obs::OracleBuildStats::direct(engine.kind().name(), 0.0)),
        };
        let mut metrics = OnlineStepMetrics {
            build,
            score_secs: 0.0,
            n_scored: 0,
            oracle: step,
            partition: engine.partition_info(),
        };
        let out = if let Some((prev_g, prev_engine)) = &self.prev {
            let (scores, secs) = cad_obs::time_it(|| {
                pair_edge_scores(
                    prev_g,
                    &g,
                    prev_engine.as_ref(),
                    engine.as_ref(),
                    self.opts.kind,
                )
            });
            let scores = scores?;
            cad_obs::observe(Hist::TransitionScoreSecs, secs);
            metrics.score_secs = secs;
            metrics.n_scored = scores.len();
            self.seen += 1;
            let newest = match self.mode {
                ThresholdMode::TargetNodes(l) => {
                    self.history.push(scores);
                    // Re-calibrate δ over everything seen so far (paper
                    // §4.2's online modification).
                    let n = self.n_nodes.expect("set above");
                    self.delta = choose_delta(&self.history, n, l * self.history.len());
                    self.history.last().expect("just pushed")
                }
                ThresholdMode::Fixed(_) => &scores,
            };
            let k = select_prefix(newest, self.delta);
            let edges: Vec<EdgeScore> = newest[..k].to_vec();
            let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
            nodes.sort_unstable();
            nodes.dedup();
            Some(TransitionAnomalies {
                t: self.seen - 1,
                edges,
                nodes,
            })
        } else {
            None
        };
        self.prev = Some((g, engine));
        Ok((out, metrics))
    }

    /// Obtain the arriving instance's oracle according to the configured
    /// [`UpdateMode`]: in-place delta update when possible and cheaper,
    /// fresh build otherwise. Bumps the `commute.incremental_updates` /
    /// `commute.rebuild_fallbacks` counters and the `oracle_update_secs`
    /// histogram accordingly; fresh builds keep their existing
    /// `commute.oracle_builds` accounting inside
    /// [`CommuteTimeEngine::compute`].
    fn obtain_oracle(&mut self, g: &WeightedGraph) -> Result<(SharedOracle, StepOracle)> {
        // First decide without mutating: either an updated clone of the
        // held oracle, or the reason a fresh build is needed.
        let attempt: Option<std::result::Result<(SharedOracle, f64, usize), RebuildReason>> =
            match (self.update_mode, &self.prev) {
                (UpdateMode::Rebuild, _) | (_, None) => None,
                (mode, Some((prev_g, prev_oracle))) => {
                    if mode == UpdateMode::Auto && self.updates_since_build >= REFRESH_THRESHOLD {
                        Some(Err(RebuildReason::Refresh))
                    } else {
                        let delta = EdgeDelta::between(prev_g, g);
                        // Price the update before paying for the clone. A
                        // structural delta keeps its own reason: no
                        // update could express it at any price.
                        if !delta.structural && prev_oracle.rebuild_is_cheaper(delta.changes.len())
                        {
                            Some(Err(RebuildReason::Cost))
                        } else {
                            let mut candidate = prev_oracle.clone_box();
                            match candidate.as_updatable() {
                                None => Some(Err(RebuildReason::Unsupported)),
                                Some(upd) => {
                                    let (outcome, secs) =
                                        cad_obs::time_it(|| upd.apply_delta(&delta));
                                    match outcome? {
                                        UpdateOutcome::Applied { changes } => {
                                            Some(Ok((candidate, secs, changes)))
                                        }
                                        // The half-updated clone is dropped
                                        // here — the held oracle is untouched.
                                        UpdateOutcome::RebuildRequired(reason) => Some(Err(reason)),
                                    }
                                }
                            }
                        }
                    }
                }
            };
        match attempt {
            Some(Ok((oracle, update_secs, changes))) => {
                cad_obs::count(Counter::IncrementalUpdates, 1);
                cad_obs::observe(Hist::OracleUpdateSecs, update_secs);
                cad_obs::events::record(
                    cad_obs::EventKind::Update,
                    "incremental",
                    update_secs,
                    changes as u64,
                );
                self.updates_since_build += 1;
                Ok((
                    oracle,
                    StepOracle::Incremental {
                        update_secs,
                        changes,
                    },
                ))
            }
            Some(Err(reason)) => {
                cad_obs::count(Counter::RebuildFallbacks, 1);
                cad_obs::count_labeled(LabeledCounter::RebuildFallbacks, reason.name());
                cad_obs::events::record(cad_obs::EventKind::Fallback, reason.name(), 0.0, 0);
                let (oracle, build_secs) = cad_obs::time_it(|| self.build_fresh(g));
                let oracle = oracle?;
                cad_obs::events::record(cad_obs::EventKind::Update, "rebuild", build_secs, 0);
                self.updates_since_build = 0;
                Ok((oracle, StepOracle::Fallback(reason)))
            }
            None => {
                let (oracle, build_secs) = cad_obs::time_it(|| self.build_fresh(g));
                let oracle = oracle?;
                cad_obs::events::record(cad_obs::EventKind::Update, "rebuild", build_secs, 0);
                self.updates_since_build = 0;
                Ok((oracle, StepOracle::Rebuilt))
            }
        }
    }

    fn build_fresh(&self, g: &WeightedGraph) -> Result<SharedOracle> {
        crate::build_oracle(self.provider.as_deref(), self.seen, g, &self.opts)
    }

    /// Capture the cross-push state needed to resume this stream later
    /// (crash recovery, checkpointing). The previous instance's *oracle*
    /// is deliberately not captured — [`OnlineCad::resume`] rebuilds it
    /// fresh from the graph, which under [`UpdateMode::Rebuild`] is
    /// bit-identical to what the uninterrupted stream held.
    pub fn state(&self) -> OnlineState {
        OnlineState {
            n_nodes: self.n_nodes,
            seen: self.seen,
            delta: self.delta,
            history: self.history.clone(),
            prev_graph: self.prev.as_ref().map(|(g, _)| g.clone()),
        }
    }

    /// Install a previously captured [`OnlineState`] into a freshly
    /// configured detector (same `opts`/mode/provider/update-mode as the
    /// original), rebuilding the previous instance's oracle fresh.
    ///
    /// Under [`UpdateMode::Rebuild`] — the default — every subsequent
    /// push is bit-identical to the uninterrupted stream, because the
    /// uninterrupted stream also built that oracle fresh. Under
    /// [`UpdateMode::Incremental`]/[`UpdateMode::Auto`] the resume point
    /// introduces one fresh build where the original may have updated in
    /// place (results then agree within
    /// [`cad_commute::UPDATE_REL_TOL`], the mode's documented contract).
    pub fn resume(mut self, state: OnlineState) -> Result<Self> {
        self.n_nodes = state.n_nodes;
        self.seen = state.seen;
        self.delta = match self.mode {
            ThresholdMode::Fixed(d) => d,
            ThresholdMode::TargetNodes(_) => state.delta,
        };
        self.history = state.history;
        self.updates_since_build = 0;
        self.prev = match state.prev_graph {
            Some(g) => {
                let oracle = self.build_fresh(&g)?;
                Some((g, oracle))
            }
            None => None,
        };
        Ok(self)
    }

    /// Re-evaluate *all* seen transitions at the current δ — converges
    /// to exactly the offline result once the stream ends.
    ///
    /// Only meaningful under [`ThresholdMode::TargetNodes`]; a fixed-δ
    /// stream keeps no history (its per-arrival output already equals
    /// the batch result), so this returns an empty vector there.
    pub fn reevaluate_all(&self) -> Vec<TransitionAnomalies> {
        self.history
            .iter()
            .enumerate()
            .map(|(t, scores)| {
                let k = select_prefix(scores, self.delta);
                let edges: Vec<EdgeScore> = scores[..k].to_vec();
                let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
                nodes.sort_unstable();
                nodes.dedup();
                TransitionAnomalies { t, edges, nodes }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::CadDetector;
    use cad_commute::RebuildReason;
    use cad_graph::GraphSequence;

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
    fn first_push_yields_nothing() {
        let mut online = OnlineCad::new(CadOptions::default(), 2);
        assert!(online.push(instance(0.0)).unwrap().is_none());
        assert_eq!(online.n_transitions(), 0);
    }

    #[test]
    fn detects_event_in_stream() {
        let mut online = OnlineCad::new(CadOptions::default(), 2);
        online.push(instance(0.0)).unwrap();
        // Two quiet transitions...
        let quiet = online.push(instance(0.0)).unwrap().unwrap();
        assert!(quiet.edges.is_empty());
        online.push(instance(0.0)).unwrap();
        // ...then the cross-cluster bridge appears.
        let event = online.push(instance(1.5)).unwrap().unwrap();
        assert_eq!(event.t, 2);
        assert!(!event.edges.is_empty());
        assert_eq!((event.edges[0].u, event.edges[0].v), (0, 5));
        assert_eq!(event.nodes, vec![0, 5]);
    }

    #[test]
    fn rejects_mixed_node_counts() {
        let mut online = OnlineCad::new(CadOptions::default(), 2);
        online.push(instance(0.0)).unwrap();
        let wrong = WeightedGraph::from_edges(3, &[(0, 1, 1.0)]).unwrap();
        assert!(online.push(wrong).is_err());
    }

    #[test]
    fn final_reevaluation_matches_offline() {
        let stream = [0.0, 0.0, 1.5, 1.5, 0.0];
        let graphs: Vec<WeightedGraph> = stream.iter().map(|&b| instance(b)).collect();

        let mut online = OnlineCad::new(CadOptions::default(), 2);
        for g in graphs.clone() {
            online.push(g).unwrap();
        }
        let final_sets = online.reevaluate_all();

        let offline = CadDetector::new(CadOptions::default())
            .detect_top_l(&GraphSequence::new(graphs).unwrap(), 2)
            .unwrap();
        assert_eq!(final_sets.len(), offline.transitions.len());
        for (on, off) in final_sets.iter().zip(&offline.transitions) {
            assert_eq!(on.nodes, off.nodes, "transition {}", on.t);
            assert_eq!(on.edges.len(), off.edges.len());
        }
    }

    #[test]
    fn fixed_delta_matches_batch_per_arrival() {
        let stream = [0.0, 0.0, 1.5, 0.0];
        let graphs: Vec<WeightedGraph> = stream.iter().map(|&b| instance(b)).collect();
        let delta = 0.4;
        let offline = CadDetector::new(CadOptions::default())
            .detect(&GraphSequence::new(graphs.clone()).unwrap(), delta)
            .unwrap();

        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(delta));
        let mut sets = Vec::new();
        for (i, g) in graphs.into_iter().enumerate() {
            let (out, m) = online.push_metered(g).unwrap();
            assert!(!m.build.backend.is_empty());
            match out {
                None => {
                    assert_eq!(i, 0, "only the first arrival lacks a transition");
                    assert_eq!(m.n_scored, 0);
                    assert_eq!(m.score_secs, 0.0);
                }
                Some(tr) => sets.push(tr),
            }
        }
        assert_eq!(online.delta(), delta);
        assert_eq!(sets.len(), offline.transitions.len());
        for (on, off) in sets.iter().zip(&offline.transitions) {
            assert_eq!(on.t, off.t);
            assert_eq!(on.nodes, off.nodes, "transition {}", on.t);
            assert_eq!(on.edges.len(), off.edges.len());
            for (a, b) in on.edges.iter().zip(&off.edges) {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        // Fixed mode keeps no history.
        assert!(online.reevaluate_all().is_empty());
        assert_eq!(online.n_transitions(), 3);
    }

    #[test]
    fn update_mode_names_round_trip() {
        for mode in [
            UpdateMode::Rebuild,
            UpdateMode::Incremental,
            UpdateMode::Auto,
        ] {
            assert_eq!(UpdateMode::from_name(mode.name()), Some(mode));
        }
        assert_eq!(UpdateMode::from_name("nope"), None);
        assert_eq!(UpdateMode::default(), UpdateMode::Rebuild);
    }

    #[test]
    fn incremental_mode_matches_rebuild_within_tolerance() {
        let stream = [0.0, 0.3, 1.5, 1.2, 0.9];
        let graphs: Vec<WeightedGraph> = stream.iter().map(|&b| instance(b)).collect();
        let delta = 0.4;

        let run = |mode: UpdateMode| {
            let mut online =
                OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(delta))
                    .with_update_mode(mode);
            let mut sets = Vec::new();
            let mut steps = Vec::new();
            for g in graphs.clone() {
                let (out, m) = online.push_metered(g).unwrap();
                steps.push(m.oracle);
                if let Some(tr) = out {
                    sets.push(tr);
                }
            }
            (sets, steps)
        };
        let (rebuilt, rebuilt_steps) = run(UpdateMode::Rebuild);
        let (incr, incr_steps) = run(UpdateMode::Incremental);

        assert!(rebuilt_steps.iter().all(|s| *s == StepOracle::Rebuilt));
        // First arrival has nothing to update; the bridge edge toggling
        // between 0 and positive weight never disconnects `instance`, so
        // every later step updates in place.
        assert_eq!(incr_steps[0], StepOracle::Rebuilt);
        for (i, s) in incr_steps.iter().enumerate().skip(1) {
            assert!(
                matches!(s, StepOracle::Incremental { .. }),
                "step {i}: {s:?}"
            );
            assert_eq!(s.mode_name(), "incremental");
        }

        assert_eq!(incr.len(), rebuilt.len());
        for (a, b) in incr.iter().zip(&rebuilt) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.nodes, b.nodes, "transition {}", a.t);
            assert_eq!(a.edges.len(), b.edges.len());
            for (ea, eb) in a.edges.iter().zip(&b.edges) {
                assert!(
                    (ea.score - eb.score).abs()
                        <= cad_commute::UPDATE_REL_TOL * (1.0 + eb.score.abs()),
                    "t={} edge ({},{}): {} vs {}",
                    a.t,
                    ea.u,
                    ea.v,
                    ea.score,
                    eb.score
                );
            }
        }
    }

    #[test]
    fn incremental_mode_falls_back_on_structural_delta() {
        // instance(0.0) → instance(bridge) keeps the partition, but a
        // genuinely disconnecting stream must fall back.
        let joined =
            WeightedGraph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let split = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.5))
            .with_update_mode(UpdateMode::Incremental);
        let (_, m0) = online.push_metered(joined.clone()).unwrap();
        assert_eq!(m0.oracle, StepOracle::Rebuilt);
        let (_, m1) = online.push_metered(split).unwrap();
        assert_eq!(
            m1.oracle,
            StepOracle::Fallback(cad_commute::RebuildReason::Structural)
        );
        assert_eq!(m1.oracle.mode_name(), "rebuild");
        assert_eq!(
            m1.oracle.fallback_reason(),
            Some(cad_commute::RebuildReason::Structural)
        );
        // Reconnecting is structural again; a plain weight bump is not.
        let (_, m2) = online.push_metered(joined).unwrap();
        assert_eq!(
            m2.oracle,
            StepOracle::Fallback(cad_commute::RebuildReason::Structural)
        );
        let bumped =
            WeightedGraph::from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap();
        let (_, m3) = online.push_metered(bumped).unwrap();
        assert!(matches!(m3.oracle, StepOracle::Incremental { .. }));
    }

    #[test]
    fn auto_mode_refreshes_after_threshold() {
        let mut online = OnlineCad::with_mode(CadOptions::default(), ThresholdMode::Fixed(0.5))
            .with_update_mode(UpdateMode::Auto);
        online.push(instance(0.0)).unwrap();
        let mut fallbacks = Vec::new();
        for i in 0..REFRESH_THRESHOLD + 1 {
            let (_, m) = online
                .push_metered(instance(0.1 + 0.01 * i as f64))
                .unwrap();
            if let StepOracle::Fallback(r) = m.oracle {
                fallbacks.push((i, r));
            }
        }
        assert_eq!(
            fallbacks,
            vec![(REFRESH_THRESHOLD, cad_commute::RebuildReason::Refresh)],
            "exactly one forced refresh, after {REFRESH_THRESHOLD} updates"
        );
    }

    /// A connected `n`-node circulant graph (chords to `i + 1`, `i + 7`
    /// and `i + 31`, so `3n` edges) whose first `changed` edge weights
    /// depend on `t`: consecutive instances differ in exactly
    /// `changed` weights.
    fn circulant(n: usize, changed: usize, t: usize) -> WeightedGraph {
        let edges: Vec<(usize, usize, f64)> = [1, 7, 31]
            .iter()
            .flat_map(|&step| (0..n).map(move |i| (i, (i + step) % n)))
            .enumerate()
            .map(|(e, (u, v))| {
                let w = if e < changed {
                    1.0 + ((7 * e + 3 * t) % 10) as f64 / 10.0
                } else {
                    1.0
                };
                (u, v, w)
            })
            .collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn every_fallback_reason_and_step_mode_reads_back_from_the_flight_recorder() {
        use cad_obs::EventKind;
        // Adding a reason breaks this match until the reason is listed
        // below as well.
        let position = |r: RebuildReason| match r {
            RebuildReason::Structural => 0,
            RebuildReason::Degenerate => 1,
            RebuildReason::Unsupported => 2,
            RebuildReason::Refresh => 3,
            RebuildReason::Cost => 4,
        };
        let reasons = [
            RebuildReason::Structural,
            RebuildReason::Degenerate,
            RebuildReason::Unsupported,
            RebuildReason::Refresh,
            RebuildReason::Cost,
        ];
        assert!(reasons.iter().enumerate().all(|(i, &r)| position(r) == i));
        let steps = [
            StepOracle::Rebuilt,
            StepOracle::Incremental {
                update_secs: 0.0,
                changes: 1,
            },
        ]
        .into_iter()
        .chain(reasons.map(StepOracle::Fallback));
        let mut written = Vec::new();
        for r in reasons {
            written.push((EventKind::Fallback, r.name()));
        }
        for step in steps {
            written.push((EventKind::Update, step.mode_name()));
        }
        let reg = std::sync::Arc::new(cad_obs::Registry::new());
        let metrics = reg.enter();
        for &(kind, name) in &written {
            cad_obs::events::record(kind, name, 0.0, 0);
        }
        drop(metrics);
        let read: Vec<(EventKind, &str)> = reg
            .events()
            .snapshot(written.len())
            .events
            .iter()
            .map(|e| (e.kind, e.name))
            .collect();
        assert_eq!(read, written);
    }

    #[test]
    fn exact_oracles_price_each_push_against_a_rebuild() {
        for engine in [
            cad_commute::EngineOptions::Exact,
            cad_commute::EngineOptions::Corrected,
        ] {
            let opts = CadOptions {
                engine,
                ..CadOptions::default()
            };
            let mut online = OnlineCad::with_mode(opts, ThresholdMode::Fixed(1.0))
                .with_update_mode(UpdateMode::Incremental);
            online.push(circulant(200, 500, 0)).unwrap();
            // Two changed weights: far below c · n, updated in place.
            let mut small = circulant(200, 500, 0).edges().collect::<Vec<_>>();
            small[0].2 += 0.5;
            small[1].2 += 0.5;
            let small = WeightedGraph::from_edges(200, &small).unwrap();
            let (_, m) = online.push_metered(small).unwrap();
            assert!(
                matches!(m.oracle, StepOracle::Incremental { changes: 2, .. }),
                "{engine:?}: {:?}",
                m.oracle
            );
            // Five hundred changed weights: a rebuild is cheaper.
            let reg = std::sync::Arc::new(cad_obs::Registry::new());
            let metrics = reg.enter();
            let (_, m) = online.push_metered(circulant(200, 500, 1)).unwrap();
            drop(metrics);
            assert_eq!(
                m.oracle,
                StepOracle::Fallback(RebuildReason::Cost),
                "{engine:?}"
            );
            let cells = &reg.snapshot().labeled_counters[0].cells;
            assert!(cells.contains(&("cost", 1)), "{cells:?}");
            // The flight recorder names the reason too.
            let events = reg.events().snapshot(8).events;
            assert!(
                events
                    .iter()
                    .any(|e| e.kind == cad_obs::EventKind::Fallback && e.name == "cost"),
                "{events:?}"
            );
        }
    }

    #[test]
    fn embedding_sessions_rebuild_every_push_as_unsupported() {
        let opts = CadOptions {
            engine: cad_commute::EngineOptions::Approximate(cad_commute::EmbeddingOptions {
                k: 8,
                ..Default::default()
            }),
            ..CadOptions::default()
        };
        let mut online = OnlineCad::with_mode(opts, ThresholdMode::Fixed(1.0))
            .with_update_mode(UpdateMode::Incremental);
        online.push(circulant(60, 4, 0)).unwrap();
        for t in 1..3 {
            let (_, m) = online.push_metered(circulant(60, 4, t)).unwrap();
            assert_eq!(m.oracle, StepOracle::Fallback(RebuildReason::Unsupported));
        }
    }

    #[test]
    fn exact_price_line_sits_at_c_n_and_a_tie_rebuilds() {
        use cad_commute::DistanceOracle;
        let g = circulant(60, 0, 0);
        let line = (cad_commute::SM_REBUILD_CHANGES_PER_NODE * 60.0).ceil() as usize;
        let exact = cad_commute::ExactCommute::compute(&g).unwrap();
        let corrected = cad_commute::CorrectedCommute::compute(&g).unwrap();
        for oracle in [&exact as &dyn DistanceOracle, &corrected] {
            assert!(!oracle.rebuild_is_cheaper(line - 1));
            assert!(oracle.rebuild_is_cheaper(line));
        }
        // Backends without a price always take the update.
        let table = cad_commute::ShortestPathTable::compute(&g).unwrap();
        assert!(!table.rebuild_is_cheaper(usize::MAX));
    }

    #[test]
    fn above_threshold_streams_are_bit_identical_to_rebuild() {
        // Every step changes all 120 weights of a 40-node graph, past
        // the c · 40 price line.
        let graphs: Vec<WeightedGraph> = (0..5).map(|t| circulant(40, 120, t)).collect();
        for engine in [
            cad_commute::EngineOptions::Exact,
            cad_commute::EngineOptions::Corrected,
        ] {
            let run = |mode: UpdateMode| {
                let opts = CadOptions {
                    engine,
                    ..CadOptions::default()
                };
                let mut online = OnlineCad::new(opts, 3).with_update_mode(mode);
                graphs
                    .iter()
                    .map(|g| {
                        let (tr, m) = online.push_metered(g.clone()).unwrap();
                        (tr, m.oracle)
                    })
                    .collect::<Vec<_>>()
            };
            let rebuilt = run(UpdateMode::Rebuild);
            for mode in [UpdateMode::Incremental, UpdateMode::Auto] {
                let priced = run(mode);
                for (t, ((a, step), (b, _))) in priced.iter().zip(&rebuilt).enumerate() {
                    if t > 0 {
                        assert_eq!(*step, StepOracle::Fallback(RebuildReason::Cost));
                    }
                    let bits = |tr: &Option<TransitionAnomalies>| {
                        tr.as_ref().map(|tr| {
                            let edges: Vec<_> = tr
                                .edges
                                .iter()
                                .map(|e| (e.u, e.v, e.score.to_bits(), e.d_commute.to_bits()))
                                .collect();
                            (tr.t, edges, tr.nodes.clone())
                        })
                    };
                    assert_eq!(bits(a), bits(b), "{engine:?} {mode:?} push {t}");
                }
            }
        }
    }

    #[test]
    fn state_resume_is_bit_identical_at_every_prefix() {
        let stream = [0.0, 0.3, 1.5, 0.0, 1.2, 0.9];
        let graphs: Vec<WeightedGraph> = stream.iter().map(|&b| instance(b)).collect();

        // Uninterrupted reference run.
        let mut reference = OnlineCad::new(CadOptions::default(), 2);
        let full: Vec<Option<TransitionAnomalies>> = graphs
            .iter()
            .map(|g| reference.push(g.clone()).unwrap())
            .collect();

        for cut in 0..graphs.len() {
            let mut first = OnlineCad::new(CadOptions::default(), 2);
            for g in &graphs[..cut] {
                first.push(g.clone()).unwrap();
            }
            let mut resumed = OnlineCad::new(CadOptions::default(), 2)
                .resume(first.state())
                .unwrap();
            assert_eq!(resumed.n_transitions(), first.n_transitions());
            assert_eq!(resumed.delta().to_bits(), first.delta().to_bits());
            for (g, expect) in graphs[cut..].iter().zip(&full[cut..]) {
                let got = resumed.push(g.clone()).unwrap();
                match (got, expect) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.t, b.t);
                        assert_eq!(a.nodes, b.nodes, "cut={cut} t={}", a.t);
                        assert_eq!(a.edges.len(), b.edges.len());
                        for (ea, eb) in a.edges.iter().zip(&b.edges) {
                            assert_eq!((ea.u, ea.v), (eb.u, eb.v));
                            assert_eq!(ea.score.to_bits(), eb.score.to_bits());
                            assert_eq!(ea.d_weight.to_bits(), eb.d_weight.to_bits());
                            assert_eq!(ea.d_commute.to_bits(), eb.d_commute.to_bits());
                        }
                    }
                    (got, expect) => panic!("cut={cut}: {got:?} vs {expect:?}"),
                }
            }
        }
    }

    #[test]
    fn delta_tightens_with_history() {
        // With one huge transition in the history, δ must rise above the
        // noise floor so later quiet transitions stay quiet.
        let mut online = OnlineCad::new(CadOptions::default(), 1);
        online.push(instance(0.0)).unwrap();
        online.push(instance(2.5)).unwrap(); // big event
        let d1 = online.delta();
        let quiet = online.push(instance(2.5)).unwrap().unwrap();
        assert!(quiet.edges.is_empty(), "unchanged instance must be quiet");
        assert!(online.delta() > 0.0 && d1 > 0.0);
    }
}
