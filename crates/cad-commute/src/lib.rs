//! Commute-time distances on weighted undirected graphs.
//!
//! The commute time between nodes `i` and `j` is the expected number of
//! steps a random walk starting at `i` takes to reach `j` and return. It
//! is computable from the Moore–Penrose pseudoinverse `L⁺` of the graph
//! Laplacian (paper eq. 3):
//!
//! ```text
//! c(i, j) = V_G · (l⁺_ii + l⁺_jj − 2 l⁺_ij) = V_G · r_eff(i, j)
//! ```
//!
//! where `V_G` is the graph volume and `r_eff` the effective resistance.
//! Two engines implement this:
//!
//! * [`exact::ExactCommute`] — materializes `L⁺` (`O(n³)`); the reference
//!   implementation used for small graphs (the paper itself uses the
//!   exact computation for Enron's 151 nodes) and as ground truth in
//!   tests.
//! * [`embedding::CommuteEmbedding`] — the Khoa–Chawla approximation: a
//!   `k`-dimensional Euclidean embedding `z_i` such that
//!   `‖z_i − z_j‖² ≈ r_eff(i, j)` with JL-style guarantees for
//!   `k = O(log n / ε²)`, computed from `k` Laplacian solves. This is the
//!   `O(n log n)` path that makes CAD scale (paper §3.1).
//!
//! Every backend implements the [`oracle::DistanceOracle`] trait, so the
//! CAD scorer is generic over the distance notion; the
//! [`engine::CommuteTimeEngine`] factory picks an implementation from
//! [`engine::EngineOptions`] and returns it boxed.

#![warn(missing_docs)]

pub mod corrected;
pub mod eigenmap;
pub mod embedding;
pub mod engine;
pub mod exact;
pub mod oracle;
pub mod partition;
pub mod persist;
pub mod shortest;
pub mod update;

pub use corrected::CorrectedCommute;
pub use embedding::{sketch_rhs_panel, CommuteEmbedding, EmbeddingOptions};
pub use engine::{BuildFresh, CommuteTimeEngine, EngineOptions, OracleProvider};
pub use exact::ExactCommute;
pub use oracle::{DistanceOracle, OracleKind, SharedOracle};
pub use partition::{PartitionInfo, PartitionSpec};
pub use persist::{oracle_from_bytes, oracle_to_bytes};
pub use shortest::ShortestPathTable;
pub use update::{
    EdgeChange, EdgeDelta, RebuildReason, UpdatableOracle, UpdateOutcome, SM_DEN_TOL,
    SM_REBUILD_CHANGES_PER_NODE, UPDATE_REL_TOL,
};

/// Crate-wide result alias (errors come from the graph/linalg layers).
pub type Result<T> = std::result::Result<T, cad_graph::GraphError>;
