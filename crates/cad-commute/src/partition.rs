//! Partition configuration types — the spec/telemetry vocabulary shared
//! by the detectors, the CLI, the serve layer and the `cad-part`
//! machinery.
//!
//! Only *configuration* lives here: [`PartitionSpec`] (what the caller
//! asked for) and [`PartitionInfo`] (what a built partitioned oracle
//! reports back). The partitioner and the block-solve machinery
//! themselves are in the `cad-part` crate, which depends on this one —
//! keeping these types here lets `cad-core`'s options and the
//! [`crate::OracleProvider`] seam mention partitioning without a
//! dependency cycle.

/// What the caller asked the partitioner for: a target block count for
/// the BFS splitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionSpec {
    /// Target block count (≥ 1). The splitter cuts each component's BFS
    /// order into chunks of `⌈n / blocks⌉` and keeps a component smaller
    /// than one chunk whole, so the realised count can differ slightly
    /// from the target.
    pub blocks: usize,
}

impl PartitionSpec {
    /// Stable layout fingerprint for cache keying: the requested block
    /// count. Two requests with different fingerprints must never share
    /// a cached artifact (`cad-store` folds this into the content
    /// address next to the snapshot×engine key).
    pub fn fingerprint(&self) -> String {
        format!("part({})", self.blocks)
    }
}

/// What a built partitioned oracle reports about its layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionInfo {
    /// Realised block count.
    pub blocks: usize,
    /// Number of cut (cross-block) edges. `0` exactly when every block
    /// is a whole connected component — the exactness guarantee.
    pub boundary_edges: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_layouts() {
        let a = PartitionSpec { blocks: 4 }.fingerprint();
        let b = PartitionSpec { blocks: 8 }.fingerprint();
        assert_ne!(a, b);
        assert_eq!(a, "part(4)");
        assert_eq!(a, PartitionSpec { blocks: 4 }.fingerprint());
    }
}
