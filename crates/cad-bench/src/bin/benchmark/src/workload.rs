//! The four workloads and every constant that defines them: input
//! sizes, detector settings, serving rates and SLOs, and the quality
//! floors the correctness checks enforce. README.md records why each
//! workload exists and how the rates and SLOs were measured.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Embedding engine on a large sparse random graph sequence.
    SparseBatch,
    /// Exact engine on realizations of the paper's GMM benchmark.
    DenseBatch,
    /// JSON snapshot pushes with a two-edge change each.
    SmallDelta,
    /// Journaled binary edge-delta pushes changing a quarter of the
    /// edges each.
    Churn,
}

/// Every workload, in the order `all` runs them.
pub const ALL: [Workload; 4] = [
    Workload::SparseBatch,
    Workload::DenseBatch,
    Workload::SmallDelta,
    Workload::Churn,
];

impl Workload {
    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseBatch => "sparse-batch",
            Workload::DenseBatch => "dense-batch",
            Workload::SmallDelta => "serve-small-delta",
            Workload::Churn => "serve-churn-journaled",
        }
    }

    /// Parse [`Workload::name`] back.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Lowest acceptable `planted_recall`: the value measured on the
    /// commit that introduced the benchmark (lowest over seeds 1–10)
    /// minus 0.02.
    pub fn recall_floor(self) -> f64 {
        match self {
            Workload::SparseBatch => 0.98 - 0.02,
            Workload::DenseBatch => 0.99 - 0.02,
            Workload::SmallDelta | Workload::Churn => 1.0 - 0.02,
        }
    }
}

/// Server `workers`, and load-generator threads (one connection each).
pub const THREADS: usize = 2;

/// Batch detector `threads`. One, not two: on the 2-vCPU host the
/// benchmark was introduced on, a fixed two-thread job drifted over a
/// 31% inter-quartile range of 10-second windows, a one-thread job over
/// 11%, and the regression bounds cannot be tighter than that drift.
pub const BATCH_THREADS: usize = 1;

/// `sparse-batch` inputs and detector settings.
#[derive(Debug, Clone)]
pub struct SparseParams {
    /// Nodes.
    pub n: usize,
    /// Edge draws per node for `sparse_random_graph` (m ≈ this · n).
    pub edges_per_node: usize,
    /// Graph instances per sequence.
    pub instances: usize,
    /// Base edges whose weight is redrawn per transition, per thousand.
    pub redraw_per_mille: usize,
    /// New heavy edges planted per transition (they persist).
    pub planted_per_step: usize,
    /// Weight of a planted edge.
    pub planted_weight: f64,
    /// Target anomalous nodes per transition (`detect_top_l`).
    pub l: usize,
    /// Seconds one job took when the benchmark was introduced (2 vCPUs);
    /// a run makes `budget / job_secs` jobs, so every run of a given
    /// `--seconds` does the same work.
    pub job_secs: f64,
}

/// The `sparse-batch` workload.
pub const SPARSE: SparseParams = SparseParams {
    n: 10_000,
    edges_per_node: 4,
    instances: 6,
    redraw_per_mille: 10,
    planted_per_step: 10,
    planted_weight: 5.0,
    l: 40,
    job_secs: 2.5,
};

/// `dense-batch` inputs.
#[derive(Debug, Clone)]
pub struct DenseParams {
    /// Nodes per GMM realization.
    pub n: usize,
    /// Realizations, one `.cadpack` each.
    pub realizations: usize,
    /// Seconds one job took when the benchmark was introduced (see
    /// [`SparseParams::job_secs`]).
    pub job_secs: f64,
}

/// The `dense-batch` workload.
pub const DENSE: DenseParams = DenseParams {
    n: 400,
    realizations: 64,
    job_secs: 0.125,
};

/// A serving workload: sessions, their graphs and change streams, and
/// the open-loop schedule.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Nodes per session graph.
    pub nodes: usize,
    /// Mean degree of the Erdős–Rényi session graphs.
    pub mean_degree: f64,
    /// `update_mode` in the session spec.
    pub update_mode: &'static str,
    /// Fixed threshold δ in the session spec.
    pub delta: f64,
    /// Benign weight redraws per push: a count, or (when below 1) a
    /// share of the current edges.
    pub benign: f64,
    /// Every this-many pushes removes two edges and adds two (0: never).
    pub structural_every: usize,
    /// Every this-many pushes sets one edge to [`SPIKE_WEIGHT`]; the
    /// next push restores it.
    pub spike_every: usize,
    /// Push bodies are binary `.cadpack` edge deltas (else JSON
    /// snapshots).
    pub binary: bool,
    /// The server journals every session (default fsync policy).
    pub journal: bool,
    /// Pushes per session written into the journal by `gen`, replayed
    /// by every setup (0: no journal prefix).
    pub prefix: usize,
    /// Change-list length per session, prefix included.
    pub pushes: usize,
    /// Nominal open-loop rate, pushes per second.
    pub nominal_rps: f64,
    /// Latency SLO on the ladder's tail percentile, ms.
    pub slo_ms: f64,
    /// Scrape `GET /metrics` once a second during the timed phases.
    pub scrape_metrics: bool,
}

/// Weight a planted spike sets on one edge.
pub const SPIKE_WEIGHT: f64 = 50.0;

/// The `serve-small-delta` workload.
pub const SMALL_DELTA: ServeParams = ServeParams {
    sessions: 8,
    nodes: 300,
    mean_degree: 8.0,
    update_mode: "incremental",
    delta: 400.0,
    benign: 2.0,
    structural_every: 0,
    spike_every: 10,
    binary: false,
    journal: false,
    prefix: 0,
    pushes: 4000,
    nominal_rps: 370.0,
    slo_ms: 14.0,
    scrape_metrics: false,
};

/// The `serve-churn-journaled` workload.
pub const CHURN: ServeParams = ServeParams {
    sessions: 4,
    nodes: 200,
    mean_degree: 20.0,
    update_mode: "auto",
    delta: 8_000.0,
    benign: 0.25,
    structural_every: 4,
    spike_every: 10,
    binary: true,
    journal: true,
    prefix: 25,
    pushes: 1200,
    nominal_rps: 90.0,
    slo_ms: 70.0,
    scrape_metrics: true,
};

/// Mix a run seed with a stream id (SplitMix64 finalizer), so every
/// generator draws from its own reproducible stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
