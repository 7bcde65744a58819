//! The end-to-end CAD detector (paper Algorithm 1 + §4.2 automation).

use crate::node_scores::node_scores_from_edges;
use crate::scores::{transition_edge_scores, EdgeScore, ScoreKind};
use crate::threshold::{apply_policy, ThresholdPolicy};
use crate::Result;
use cad_commute::{EngineOptions, OracleProvider, SharedOracle};
use cad_graph::GraphSequence;
use std::sync::Arc;

/// Configuration of a [`CadDetector`].
#[derive(Debug, Clone, Copy)]
pub struct CadOptions {
    /// Commute-time engine (exact / approximate / auto).
    pub engine: EngineOptions,
    /// Score factorization; [`ScoreKind::Cad`] unless running the ADJ or
    /// COM ablation.
    pub kind: ScoreKind,
    /// Worker threads for per-instance oracle construction and
    /// per-transition scoring (1 = sequential, 0 = one per core).
    /// Results are bit-identical regardless of thread count.
    pub threads: usize,
    /// Block-partitioned oracle builds (`cad-part`): `None` (default)
    /// builds monolithic oracles; `Some(spec)` splits each instance
    /// into blocks and solves them as independent work units when the
    /// engine resolves to exact (other engines build monolithically).
    /// Results stay bit-identical across thread counts, and track the
    /// monolithic detector within `cad_part::PART_REL_TOL` (exactly,
    /// when blocks are connected components).
    pub partition: Option<cad_commute::PartitionSpec>,
}

impl Default for CadOptions {
    fn default() -> Self {
        CadOptions {
            engine: EngineOptions::default(),
            kind: ScoreKind::Cad,
            threads: 1,
            partition: None,
        }
    }
}

/// Observability record for one oracle construction.
#[derive(Debug, Clone)]
pub struct InstanceMetrics {
    /// Instance index `t`.
    pub t: usize,
    /// What the build cost (backend, wall-time, JL dimension, per-solve
    /// convergence records).
    pub build: cad_obs::OracleBuildStats,
}

/// Observability record for one transition's scoring + thresholding.
#[derive(Debug, Clone)]
pub struct TransitionMetrics {
    /// Transition index `t`.
    pub t: usize,
    /// Wall-clock seconds spent scoring this transition.
    pub score_secs: f64,
    /// Number of candidate (changed) edges scored.
    pub n_scored: usize,
    /// Distribution of the `ΔE` scores at this transition.
    pub scores: cad_obs::Summary,
    /// `|E_t|` after thresholding (0 until a detect pass runs).
    pub n_edges_flagged: usize,
    /// `|V_t|` after thresholding (0 until a detect pass runs).
    pub n_nodes_flagged: usize,
}

/// Observability record for a full [`CadDetector`] run.
///
/// Assembled on the coordinating thread by merging per-item stats in
/// index order, so every field except the wall-times is bit-identical
/// for any [`CadOptions::threads`] setting. Nothing here is written to
/// the global [`cad_obs`] registry — the caller decides what to publish.
#[derive(Debug, Clone, Default)]
pub struct DetectionMetrics {
    /// One record per graph instance (empty for the ADJ ablation, which
    /// never builds oracles).
    pub instances: Vec<InstanceMetrics>,
    /// One record per transition.
    pub transitions: Vec<TransitionMetrics>,
}

impl DetectionMetrics {
    /// Fold this run's records into a [`cad_obs::Report`]: per-instance
    /// build records, per-transition scoring records, one
    /// [`cad_obs::SolveReport`] per iterative solve, and the pooled
    /// `detect.scores` summary. Everything written here except the
    /// wall-time fields is bit-identical for any thread count.
    pub fn fill_report(&self, report: &mut cad_obs::Report) {
        // Report histograms are rebuilt here from the per-item records
        // (instance order, then row order) rather than snapshotted from
        // the live atomic sinks, so they honor the bit-identity
        // contract; only the *_secs series carry wall-times.
        let mut cg_iterations = cad_obs::Histogram::new();
        let mut cg_residuals = cad_obs::Histogram::new();
        let mut oracle_build_secs = cad_obs::Histogram::new();
        let mut transition_score_secs = cad_obs::Histogram::new();
        for inst in &self.instances {
            oracle_build_secs.record(inst.build.build_secs);
            for s in &inst.build.solves {
                cg_iterations.record(s.iterations as f64);
                cg_residuals.record(s.relative_residual);
            }
        }
        for tr in &self.transitions {
            transition_score_secs.record(tr.score_secs);
        }
        for (name, h) in [
            ("cg_iterations", cg_iterations),
            ("cg_residuals", cg_residuals),
            ("oracle_build_secs", oracle_build_secs),
            ("transition_score_secs", transition_score_secs),
        ] {
            report
                .histograms
                .entry(name.to_string())
                .or_default()
                .merge(&h);
        }
        for inst in &self.instances {
            report.instances.push(cad_obs::InstanceReport {
                t: inst.t as u64,
                backend: inst.build.backend.to_string(),
                build_secs: inst.build.build_secs,
                jl_dim: inst.build.jl_dim.map(|k| k as u64),
                n_solves: inst.build.solves.len() as u64,
                iterations: inst.build.iteration_summary(),
                residuals: inst.build.residual_summary(),
            });
            for (row, s) in inst.build.solves.iter().enumerate() {
                report.solves.push(cad_obs::SolveReport {
                    context: format!("instance={}/row={row}", inst.t),
                    iterations: s.iterations as u64,
                    residual: s.relative_residual,
                    converged: s.converged,
                    residual_trace: s.residual_trace.clone(),
                });
            }
        }
        let mut pooled = cad_obs::Summary::new();
        for tr in &self.transitions {
            pooled.merge(&tr.scores);
            report.transitions.push(cad_obs::TransitionReport {
                t: tr.t as u64,
                score_secs: tr.score_secs,
                n_scored: tr.n_scored as u64,
                n_edges_flagged: tr.n_edges_flagged as u64,
                n_nodes_flagged: tr.n_nodes_flagged as u64,
                score: tr.scores,
            });
        }
        report
            .summaries
            .entry("detect.scores".to_string())
            .or_default()
            .merge(&pooled);
    }
}

/// Anomalies reported for one transition `t → t+1`.
#[derive(Debug, Clone)]
pub struct TransitionAnomalies {
    /// Transition index `t` (between instances `t` and `t+1`).
    pub t: usize,
    /// The anomalous edge set `E_t`, strongest first.
    pub edges: Vec<EdgeScore>,
    /// The anomalous node set `V_t` (endpoints of `E_t`), ascending.
    pub nodes: Vec<usize>,
}

/// Full detection output across a sequence.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// The threshold `δ` that produced the anomaly sets (`None` for the
    /// top-k policy, which has no δ).
    pub delta: Option<f64>,
    /// Per-transition anomaly sets.
    pub transitions: Vec<TransitionAnomalies>,
}

impl DetectionResult {
    /// Total number of anomalous nodes across transitions (`Σ_t |V_t|`).
    pub fn total_nodes(&self) -> usize {
        self.transitions.iter().map(|t| t.nodes.len()).sum()
    }

    /// Transitions with a non-empty anomaly set.
    pub fn anomalous_transitions(&self) -> Vec<usize> {
        self.transitions
            .iter()
            .filter(|t| !t.edges.is_empty())
            .map(|t| t.t)
            .collect()
    }
}

/// Scorers that produce per-transition node anomaly scores.
///
/// Implemented by [`CadDetector`] (via `ΔN`) and by every baseline in
/// `cad-baselines`; ROC evaluation is generic over this trait.
pub trait NodeScorer {
    /// Method name for reporting ("CAD", "ACT", …).
    fn name(&self) -> &'static str;

    /// For each transition `t → t+1`, a score per node (higher = more
    /// anomalous). Output shape: `(T−1) × n`.
    fn node_scores(&self, seq: &GraphSequence) -> Result<Vec<Vec<f64>>>;
}

/// The CAD detector (paper Algorithm 1).
///
/// Computes one commute-time engine per graph instance (`O(n log n)`
/// with the approximate engine), scores the changed edges of every
/// transition, and cuts anomaly sets with a fixed or automatically
/// selected threshold.
#[derive(Clone, Default)]
pub struct CadDetector {
    opts: CadOptions,
    /// Where per-instance oracles come from. `None` builds fresh via
    /// [`CommuteTimeEngine::compute`]; the `cad-store` oracle cache
    /// plugs in here to load persisted artifacts instead.
    provider: Option<Arc<dyn OracleProvider>>,
}

impl std::fmt::Debug for CadDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CadDetector")
            .field("opts", &self.opts)
            .field("provider", &self.provider.as_ref().map(|_| "custom"))
            .finish()
    }
}

impl CadDetector {
    /// Create a detector with the given options.
    pub fn new(opts: CadOptions) -> Self {
        CadDetector {
            opts,
            provider: None,
        }
    }

    /// Use `provider` as the oracle source (e.g. the `cad-store`
    /// content-addressed cache). Providers must honour the
    /// [`OracleProvider`] contract: same query results as a fresh
    /// build, bit for bit.
    pub fn with_provider(mut self, provider: Arc<dyn OracleProvider>) -> Self {
        self.provider = Some(provider);
        self
    }

    /// The configured options.
    pub fn options(&self) -> &CadOptions {
        &self.opts
    }

    /// Edge scores for every transition, each sorted descending
    /// (steps 3–7 of Algorithm 1).
    ///
    /// Oracle construction (one per instance, the dominant cost) and
    /// per-transition scoring stream through
    /// [`cad_linalg::par::par_adjacent_pairs`] with
    /// [`CadOptions::threads`] workers: instances are built a chunk of
    /// `threads` at a time, each transition is scored as soon as both
    /// its oracles exist, and only the newest oracle outlives its chunk,
    /// so at most `threads + 1` oracles are held at once. Results are
    /// collected in index order, so output is bit-identical for any
    /// thread count.
    pub fn score_sequence(&self, seq: &GraphSequence) -> Result<Vec<Vec<EdgeScore>>> {
        self.score_sequence_metered(seq).map(|(scored, _)| scored)
    }

    /// Like [`CadDetector::score_sequence`], also returning the run's
    /// [`DetectionMetrics`] (per-instance build costs, per-transition
    /// scoring time and score distributions).
    pub fn score_sequence_metered(
        &self,
        seq: &GraphSequence,
    ) -> Result<(Vec<Vec<EdgeScore>>, DetectionMetrics)> {
        // ADJ never consults commute times; skip the engines entirely.
        if self.opts.kind == ScoreKind::Adj {
            let mut scored = Vec::with_capacity(seq.n_transitions());
            let mut transitions = Vec::with_capacity(seq.n_transitions());
            for t in 0..seq.n_transitions() {
                let (edges, secs) =
                    cad_obs::time_it(|| crate::scores::adj_transition_scores(seq, t));
                transitions.push(Self::transition_metrics(t, &edges, secs));
                scored.push(edges);
            }
            return Ok((
                scored,
                DetectionMetrics {
                    instances: Vec::new(),
                    transitions,
                },
            ));
        }
        // One oracle per instance, each reused by both of its
        // transitions and dropped once the later one is scored. Build
        // stats are taken as each oracle is built, in instance order, so
        // merging them is thread-count invariant.
        let mut instances = Vec::with_capacity(seq.len());
        let timed = cad_linalg::par::par_adjacent_pairs(
            seq.len(),
            self.opts.threads,
            |t| crate::build_oracle(self.provider.as_deref(), t, seq.graph(t), &self.opts),
            |t, e: &SharedOracle| {
                instances.push(InstanceMetrics {
                    t,
                    build: e
                        .build_stats()
                        .cloned()
                        .unwrap_or_else(|| cad_obs::OracleBuildStats::direct(e.kind().name(), 0.0)),
                })
            },
            |t, e_t, e_t1| {
                let (res, secs) = cad_obs::time_it(|| {
                    transition_edge_scores(seq, t, e_t.as_ref(), e_t1.as_ref(), self.opts.kind)
                });
                res.map(|edges| (edges, secs))
            },
        )?;
        let mut scored = Vec::with_capacity(timed.len());
        let mut transitions = Vec::with_capacity(timed.len());
        for (t, (edges, secs)) in timed.into_iter().enumerate() {
            transitions.push(Self::transition_metrics(t, &edges, secs));
            scored.push(edges);
        }
        Ok((
            scored,
            DetectionMetrics {
                instances,
                transitions,
            },
        ))
    }

    fn transition_metrics(t: usize, edges: &[EdgeScore], secs: f64) -> TransitionMetrics {
        TransitionMetrics {
            t,
            score_secs: secs,
            n_scored: edges.len(),
            scores: cad_obs::Summary::of(edges.iter().map(|e| e.score)),
            n_edges_flagged: 0,
            n_nodes_flagged: 0,
        }
    }

    /// Run detection with an explicit threshold `δ` (Algorithm 1).
    pub fn detect(&self, seq: &GraphSequence, delta: f64) -> Result<DetectionResult> {
        self.detect_with_policy(seq, ThresholdPolicy::Fixed(delta))
    }

    /// Run detection with `δ` chosen so that `l` nodes are anomalous per
    /// transition on average (paper §4.2).
    pub fn detect_top_l(&self, seq: &GraphSequence, l: usize) -> Result<DetectionResult> {
        self.detect_with_policy(seq, ThresholdPolicy::TargetNodesPerTransition(l))
    }

    /// Run detection under any [`ThresholdPolicy`].
    pub fn detect_with_policy(
        &self,
        seq: &GraphSequence,
        policy: ThresholdPolicy,
    ) -> Result<DetectionResult> {
        self.detect_with_policy_metered(seq, policy)
            .map(|(res, _)| res)
    }

    /// Run detection under any [`ThresholdPolicy`], also returning the
    /// run's [`DetectionMetrics`] with the per-transition anomalous-set
    /// sizes filled in.
    pub fn detect_with_policy_metered(
        &self,
        seq: &GraphSequence,
        policy: ThresholdPolicy,
    ) -> Result<(DetectionResult, DetectionMetrics)> {
        let _span = cad_obs::span!("detect");
        let (scored, mut metrics) = self.score_sequence_metered(seq)?;
        let (delta, counts) = {
            let _span = cad_obs::span!("threshold");
            apply_policy(&scored, seq.n_nodes(), seq.n_transitions(), policy)
        };
        let transitions: Vec<TransitionAnomalies> = scored
            .into_iter()
            .zip(counts)
            .enumerate()
            .map(|(t, (scores, k))| {
                let edges: Vec<EdgeScore> = scores.into_iter().take(k).collect();
                let mut nodes: Vec<usize> = edges.iter().flat_map(|e| [e.u, e.v]).collect();
                nodes.sort_unstable();
                nodes.dedup();
                TransitionAnomalies { t, edges, nodes }
            })
            .collect();
        for (m, tr) in metrics.transitions.iter_mut().zip(&transitions) {
            m.n_edges_flagged = tr.edges.len();
            m.n_nodes_flagged = tr.nodes.len();
        }
        Ok((DetectionResult { delta, transitions }, metrics))
    }
}

impl NodeScorer for CadDetector {
    fn name(&self) -> &'static str {
        self.opts.kind.name()
    }

    fn node_scores(&self, seq: &GraphSequence) -> Result<Vec<Vec<f64>>> {
        let scored = self.score_sequence(seq)?;
        Ok(scored
            .iter()
            .map(|edges| node_scores_from_edges(seq.n_nodes(), edges))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_graph::WeightedGraph;

    /// Two clusters with a weak tie; at t+1 a strong cross-cluster edge
    /// appears (anomalous) and one intra-cluster weight jitters (benign).
    fn two_cluster_seq() -> GraphSequence {
        let base = vec![
            (0, 1, 3.0),
            (0, 2, 3.0),
            (1, 2, 3.0),
            (3, 4, 3.0),
            (3, 5, 3.0),
            (4, 5, 3.0),
            (2, 3, 0.2),
        ];
        let mut after = base.clone();
        after[0] = (0, 1, 3.3); // benign jitter
        after.push((0, 5, 1.5)); // anomalous cross-cluster edge
        let g0 = WeightedGraph::from_edges(6, &base).unwrap();
        let g1 = WeightedGraph::from_edges(6, &after).unwrap();
        GraphSequence::new(vec![g0, g1]).unwrap()
    }

    #[test]
    fn detects_cross_cluster_edge() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions::default());
        let res = det.detect_top_l(&seq, 2).unwrap();
        assert_eq!(res.transitions.len(), 1);
        let tr = &res.transitions[0];
        assert_eq!((tr.edges[0].u, tr.edges[0].v), (0, 5));
        assert_eq!(tr.nodes, vec![0, 5]);
    }

    #[test]
    fn fixed_delta_controls_set_size() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions::default());
        let all = det.detect(&seq, f64::MIN_POSITIVE).unwrap();
        assert_eq!(all.transitions[0].edges.len(), 2); // both changed edges
        let none = det.detect(&seq, f64::MAX).unwrap();
        assert!(none.transitions[0].edges.is_empty());
        assert!(none.anomalous_transitions().is_empty());
    }

    #[test]
    fn node_scorer_interface() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions::default());
        assert_eq!(det.name(), "CAD");
        let ns = det.node_scores(&seq).unwrap();
        assert_eq!(ns.len(), 1);
        assert_eq!(ns[0].len(), 6);
        // Endpoints of the anomalous edge dominate.
        let max = ns[0].iter().cloned().fold(0.0f64, f64::max);
        assert!(ns[0][0] == max || ns[0][5] == max);
        assert!(ns[0][4] < 0.5 * max);
    }

    #[test]
    fn quiet_transition_reports_nothing() {
        let g0 = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let seq = GraphSequence::new(vec![g0.clone(), g0.clone(), g0]).unwrap();
        let det = CadDetector::new(CadOptions::default());
        let res = det.detect_top_l(&seq, 3).unwrap();
        assert_eq!(res.total_nodes(), 0);
    }

    #[test]
    fn adj_ablation_misranks() {
        // ADJ ranks by |ΔA| only: the benign 0.3 jitter loses to the 1.5
        // cross edge here, so instead check ADJ assigns the jitter a score
        // equal to its weight change — no structural discount.
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions {
            kind: ScoreKind::Adj,
            ..Default::default()
        });
        assert_eq!(det.name(), "ADJ");
        let scored = det.score_sequence(&seq).unwrap();
        let jitter = scored[0].iter().find(|e| (e.u, e.v) == (0, 1)).unwrap();
        assert!((jitter.score - 0.3).abs() < 1e-9);
    }

    #[test]
    fn delta_reported_back() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions::default());
        let res = det.detect(&seq, 0.123).unwrap();
        assert_eq!(res.delta, Some(0.123));
        let auto = det.detect_top_l(&seq, 2).unwrap();
        let d = auto.delta.expect("auto policy reports a delta");
        assert!(d.is_finite() && d > 0.0);
        let topk = det
            .detect_with_policy(&seq, ThresholdPolicy::TopEdgesPerTransition(1))
            .unwrap();
        assert_eq!(topk.delta, None, "top-k policy has no delta");
    }

    #[test]
    fn metered_detection_matches_unmetered_and_fills_metrics() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions::default());
        let plain = det.detect_top_l(&seq, 2).unwrap();
        let (metered, metrics) = det
            .detect_with_policy_metered(&seq, ThresholdPolicy::TargetNodesPerTransition(2))
            .unwrap();
        assert_eq!(
            metered.delta.unwrap().to_bits(),
            plain.delta.unwrap().to_bits()
        );
        assert_eq!(metrics.instances.len(), 2);
        assert_eq!(metrics.transitions.len(), 1);
        for inst in &metrics.instances {
            assert_eq!(inst.build.backend, "exact");
            assert!(inst.build.build_secs >= 0.0);
        }
        let tr = &metrics.transitions[0];
        assert_eq!(tr.n_scored, 2); // jitter + cross edge
        assert_eq!(tr.scores.count, 2);
        assert_eq!(tr.n_edges_flagged, metered.transitions[0].edges.len());
        assert_eq!(tr.n_nodes_flagged, metered.transitions[0].nodes.len());
        assert!(tr.scores.max >= tr.scores.min);
    }

    #[test]
    fn adj_metered_has_no_instances() {
        let seq = two_cluster_seq();
        let det = CadDetector::new(CadOptions {
            kind: ScoreKind::Adj,
            ..Default::default()
        });
        let (_, metrics) = det.score_sequence_metered(&seq).unwrap();
        assert!(metrics.instances.is_empty());
        assert_eq!(metrics.transitions.len(), 1);
    }

    #[test]
    fn metrics_deterministic_across_thread_counts() {
        let seq = two_cluster_seq();
        let (_, base) = CadDetector::new(CadOptions::default())
            .detect_with_policy_metered(&seq, ThresholdPolicy::TargetNodesPerTransition(2))
            .unwrap();
        for threads in [2, 4] {
            let (_, m) = CadDetector::new(CadOptions {
                threads,
                ..Default::default()
            })
            .detect_with_policy_metered(&seq, ThresholdPolicy::TargetNodesPerTransition(2))
            .unwrap();
            for (a, b) in m.transitions.iter().zip(&base.transitions) {
                assert_eq!(a.n_scored, b.n_scored);
                assert_eq!(a.scores.sum.to_bits(), b.scores.sum.to_bits());
                assert_eq!(a.n_edges_flagged, b.n_edges_flagged);
                assert_eq!(a.n_nodes_flagged, b.n_nodes_flagged);
            }
            for (a, b) in m.instances.iter().zip(&base.instances) {
                assert_eq!(a.build.backend, b.build.backend);
                assert_eq!(a.build.solves.len(), b.build.solves.len());
            }
        }
    }

    /// How many [`Counted`] oracles exist now, at most, and were built.
    #[derive(Default)]
    struct LiveOracles {
        now: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
        builds: std::sync::atomic::AtomicUsize,
    }

    /// A fresh oracle that counts itself alive until dropped.
    struct Counted {
        inner: SharedOracle,
        live: Arc<LiveOracles>,
    }

    impl Counted {
        fn new(inner: SharedOracle, live: Arc<LiveOracles>) -> Self {
            use std::sync::atomic::Ordering::SeqCst;
            let now = live.now.fetch_add(1, SeqCst) + 1;
            live.peak.fetch_max(now, SeqCst);
            Counted { inner, live }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.live
                .now
                .fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl cad_commute::DistanceOracle for Counted {
        fn n_nodes(&self) -> usize {
            self.inner.n_nodes()
        }
        fn distance(&self, i: usize, j: usize) -> f64 {
            self.inner.distance(i, j)
        }
        fn kind(&self) -> cad_commute::OracleKind {
            self.inner.kind()
        }
        fn build_stats(&self) -> Option<&cad_obs::OracleBuildStats> {
            self.inner.build_stats()
        }
        fn to_store_bytes(&self) -> Vec<u8> {
            self.inner.to_store_bytes()
        }
        fn clone_box(&self) -> SharedOracle {
            Box::new(Counted::new(self.inner.clone_box(), self.live.clone()))
        }
    }

    /// Builds fresh [`Counted`] oracles, refusing instance `fail_at`.
    struct CountingProvider {
        live: Arc<LiveOracles>,
        fail_at: Option<usize>,
    }

    impl OracleProvider for CountingProvider {
        fn oracle(
            &self,
            t: usize,
            g: &WeightedGraph,
            opts: &EngineOptions,
        ) -> Result<SharedOracle> {
            self.live
                .builds
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.fail_at == Some(t) {
                return Err(cad_graph::GraphError::InvalidInput(format!(
                    "instance {t} refused"
                )));
            }
            let inner = cad_commute::CommuteTimeEngine::compute(g, opts)?;
            Ok(Box::new(Counted::new(inner, self.live.clone())))
        }
    }

    /// Eight instances of the two-cluster graph with drifting weights and
    /// one cross-cluster edge that comes and goes.
    fn eight_instance_seq() -> GraphSequence {
        let graphs = (0..8)
            .map(|t| {
                let mut edges = vec![
                    (0, 1, 3.0 + 0.1 * t as f64),
                    (0, 2, 3.0),
                    (1, 2, 3.0),
                    (3, 4, 3.0 - 0.05 * t as f64),
                    (3, 5, 3.0),
                    (4, 5, 3.0),
                    (2, 3, 0.2),
                ];
                if t % 3 == 1 {
                    edges.push((0, 5, 1.5));
                }
                WeightedGraph::from_edges(6, &edges).unwrap()
            })
            .collect();
        GraphSequence::new(graphs).unwrap()
    }

    #[test]
    fn at_most_threads_plus_one_oracles_are_alive() {
        let seq = eight_instance_seq();
        let fresh = CadDetector::new(CadOptions::default())
            .score_sequence(&seq)
            .unwrap();
        for (threads, most) in [(1, 2), (4, 5)] {
            let live = Arc::new(LiveOracles::default());
            let det = CadDetector::new(CadOptions {
                threads,
                ..Default::default()
            })
            .with_provider(Arc::new(CountingProvider {
                live: live.clone(),
                fail_at: None,
            }));
            let (scored, metrics) = det.score_sequence_metered(&seq).unwrap();
            use std::sync::atomic::Ordering::SeqCst;
            let peak = live.peak.load(SeqCst);
            assert!(peak <= most, "threads = {threads}: {peak} oracles alive");
            assert_eq!(live.builds.load(SeqCst), 8);
            assert_eq!(live.now.load(SeqCst), 0, "every oracle is dropped");
            let ts: Vec<usize> = metrics.instances.iter().map(|m| m.t).collect();
            assert_eq!(ts, (0..8).collect::<Vec<_>>());
            assert_eq!(scored.len(), fresh.len());
            for (a, b) in scored.iter().zip(&fresh) {
                let bits = |e: &[EdgeScore]| -> Vec<_> {
                    e.iter().map(|s| (s.u, s.v, s.score.to_bits())).collect()
                };
                assert_eq!(bits(a), bits(b), "threads = {threads}");
            }
        }
    }

    #[test]
    fn failed_build_reports_its_error_and_stops_the_stream() {
        let seq = eight_instance_seq();
        for threads in [1, 4] {
            let live = Arc::new(LiveOracles::default());
            let err = CadDetector::new(CadOptions {
                threads,
                ..Default::default()
            })
            .with_provider(Arc::new(CountingProvider {
                live: live.clone(),
                fail_at: Some(3),
            }))
            .detect_top_l(&seq, 2)
            .unwrap_err();
            assert_eq!(err.to_string(), "invalid input: instance 3 refused");
            // Instance 3 closes the failing chunk at 1 and at 4 threads.
            use std::sync::atomic::Ordering::SeqCst;
            assert_eq!(live.builds.load(SeqCst), 4, "threads = {threads}");
            assert_eq!(live.now.load(SeqCst), 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let seq = two_cluster_seq();
        let serial = CadDetector::new(CadOptions::default())
            .detect_top_l(&seq, 2)
            .unwrap();
        for threads in [0, 2, 8] {
            let par = CadDetector::new(CadOptions {
                threads,
                ..Default::default()
            })
            .detect_top_l(&seq, 2)
            .unwrap();
            assert_eq!(
                par.delta.unwrap().to_bits(),
                serial.delta.unwrap().to_bits(),
                "threads={threads}"
            );
            for (a, b) in par.transitions.iter().zip(&serial.transitions) {
                assert_eq!(a.nodes, b.nodes);
                assert_eq!(a.edges.len(), b.edges.len());
                for (x, y) in a.edges.iter().zip(&b.edges) {
                    assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
        }
    }
}
