//! Block-partitioned exact detection: split the graph into blocks,
//! solve each block independently, stitch distances through a boundary
//! interface solve.
//!
//! The paper's exact detector reads commute distances off one dense
//! `n × n` pseudoinverse. This crate decomposes that work along a graph
//! partition (DESIGN.md §14):
//!
//! 1. [`partitioner`] lays out blocks with a greedy BFS balanced
//!    splitter and reports the edge cut. A component smaller than one
//!    block stays whole (its block is then *exact*).
//! 2. [`blocks`] builds each block's reduced Laplacian factorization as
//!    an independent work unit over `cad_linalg::par`, plus one coarse
//!    Schur-complement solve on the boundary vertices.
//! 3. [`PartitionedOracle`] answers `DistanceOracle` queries by
//!    combining a per-block term with the interface correction.
//!
//! Only the exact engine is partitioned; other engines build
//! monolithically. Accuracy contract: partitioned results are
//! *algebraically* equal to the monolithic oracle (block elimination is
//! exact), so the only divergence is floating-point routing, bounded by
//! [`PART_REL_TOL`]. When every block is a whole connected component
//! the interface is empty and results are exact. Determinism holds for
//! any thread count: per-block work merges in index order.

pub mod blocks;
pub mod oracle;
pub mod partitioner;
pub mod persist;

pub use oracle::PartitionedOracle;
pub use partitioner::{partition, Partition};
pub use persist::decode_oracle;

// Re-export the spec/layout types that live in `cad-commute` (they sit
// there so `CadOptions` and the `OracleProvider` seam can name them
// without depending on this crate).
pub use cad_commute::{PartitionInfo, PartitionSpec};

/// Relative tolerance between a partitioned oracle and the monolithic
/// oracle it decomposes, measured as `|part − mono| ≤ PART_REL_TOL ·
/// (1 + |mono|)` per distance query.
///
/// The Schur elimination behind the partitioned solve is exact algebra;
/// the tolerance only absorbs floating-point differences between the
/// two computation orders (per-block Cholesky + interface pseudoinverse
/// vs one global factorization). Exactly zero divergence when blocks
/// are whole connected components (empty interface).
pub const PART_REL_TOL: f64 = 1e-6;
