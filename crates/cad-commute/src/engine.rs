//! Engine selection: a thin factory from [`EngineOptions`] to a boxed
//! [`DistanceOracle`].

use crate::corrected::CorrectedCommute;
use crate::embedding::{CommuteEmbedding, EmbeddingOptions};
use crate::exact::ExactCommute;
use crate::oracle::SharedOracle;
use crate::shortest::ShortestPathTable;
use crate::Result;
use cad_graph::WeightedGraph;

/// Which engine to use and its parameters.
#[derive(Debug, Clone, Copy)]
pub enum EngineOptions {
    /// Exact `O(n³)` computation via `L⁺` (paper eq. 3). The paper uses
    /// this for the Enron graph (151 nodes); sensible up to a few
    /// thousand nodes.
    Exact,
    /// Khoa–Chawla embedding — the `O(n log n)` path (paper §3.1).
    Approximate(EmbeddingOptions),
    /// Pick [`EngineOptions::Exact`] when `n ≤ threshold`, otherwise the
    /// given approximation — mirroring the paper's practice.
    Auto {
        /// Node-count cutover between exact and approximate.
        threshold: usize,
        /// Approximation parameters used above the threshold.
        embedding: EmbeddingOptions,
    },
    /// Shortest-path distance instead of commute time — the alternative
    /// node distance the paper rejects in §3.1; provided for ablation.
    ShortestPath,
    /// Amplified (von Luxburg-corrected) commute distance — removes the
    /// `1/d_i + 1/d_j` degeneracy raw commute time develops on dense
    /// graphs. Exact `O(n³)` path.
    Corrected,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions::Auto {
            threshold: 512,
            embedding: EmbeddingOptions::default(),
        }
    }
}

/// Factory for per-instance distance oracles.
///
/// Formerly a closed three-variant enum; now every backend is a
/// first-class [`crate::DistanceOracle`] impl and this type only decides
/// which one to build. Queries go through the trait object it returns.
pub struct CommuteTimeEngine;

impl CommuteTimeEngine {
    /// Build the oracle for one graph instance.
    pub fn compute(g: &WeightedGraph, opts: &EngineOptions) -> Result<SharedOracle> {
        let _span = cad_obs::span!("oracle_build");
        cad_obs::count(cad_obs::Counter::OracleBuilds, 1);
        let (oracle, secs) = cad_obs::time_it(|| Self::compute_inner(g, opts));
        cad_obs::observe(cad_obs::Hist::OracleBuildSecs, secs);
        oracle
    }

    fn compute_inner(g: &WeightedGraph, opts: &EngineOptions) -> Result<SharedOracle> {
        match opts {
            EngineOptions::Exact => Ok(Box::new(ExactCommute::compute(g)?)),
            EngineOptions::Approximate(e) => Ok(Box::new(CommuteEmbedding::compute(g, e)?)),
            EngineOptions::Auto {
                threshold,
                embedding,
            } => {
                if g.n_nodes() <= *threshold {
                    Ok(Box::new(ExactCommute::compute(g)?))
                } else {
                    Ok(Box::new(CommuteEmbedding::compute(g, embedding)?))
                }
            }
            EngineOptions::ShortestPath => Ok(Box::new(ShortestPathTable::compute(g)?)),
            EngineOptions::Corrected => Ok(Box::new(CorrectedCommute::compute(g)?)),
        }
    }
}

/// A source of per-instance distance oracles — the seam where the
/// persistent oracle cache plugs into the detectors.
///
/// `CadDetector`/`OnlineCad` in `cad-core` accept an implementation
/// and call it once per instance; the default behaviour (no provider)
/// builds fresh via [`CommuteTimeEngine::compute`]. The `cad-store`
/// crate implements this for its content-addressed cache, loading
/// serialized artifacts instead of rebuilding when the (snapshot,
/// engine, params) key already exists.
///
/// Contract: the returned oracle must answer queries bit-identically
/// to `CommuteTimeEngine::compute(g, opts)` — providers may change
/// *where* an oracle comes from, never *what* it computes.
/// For *partitioned* requests ([`OracleProvider::oracle_partitioned`])
/// the contract weakens from bit-identity to the documented
/// `cad-part` tolerance: the returned oracle must answer exactly as a
/// fresh `PartitionedOracle` build for the same `(g, opts, spec)` would
/// — which is itself within `PART_REL_TOL` of the monolithic oracle,
/// and exact when blocks are connected components.
pub trait OracleProvider: Send + Sync {
    /// Produce the oracle for instance `t` of a sequence.
    fn oracle(&self, t: usize, g: &WeightedGraph, opts: &EngineOptions) -> Result<SharedOracle>;

    /// Produce a *block-partitioned* oracle for instance `t`, laid out
    /// per `spec` with per-block work fanned out over `threads`.
    ///
    /// Only providers that know how to build or cache partitioned
    /// artifacts override this (the `cad-store` oracle cache does); the
    /// default declines, so callers without such a provider route to a
    /// direct `cad-part` build instead.
    fn oracle_partitioned(
        &self,
        t: usize,
        g: &WeightedGraph,
        opts: &EngineOptions,
        spec: crate::partition::PartitionSpec,
        threads: usize,
    ) -> Result<SharedOracle> {
        let _ = (t, g, opts, spec, threads);
        Err(cad_graph::GraphError::InvalidInput(
            "this oracle provider does not support partitioned builds".into(),
        ))
    }
}

/// The trivial provider: always build fresh.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildFresh;

impl OracleProvider for BuildFresh {
    fn oracle(&self, _t: usize, g: &WeightedGraph, opts: &EngineOptions) -> Result<SharedOracle> {
        CommuteTimeEngine::compute(g, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleKind;

    fn path(n: usize) -> WeightedGraph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        WeightedGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn auto_picks_exact_for_small() {
        let g = path(10);
        let e = CommuteTimeEngine::compute(&g, &EngineOptions::default()).unwrap();
        assert!(e.is_exact());
        assert_eq!(e.kind(), OracleKind::Exact);
        assert_eq!(e.n_nodes(), 10);
    }

    #[test]
    fn auto_picks_approximate_above_threshold() {
        let g = path(20);
        let opts = EngineOptions::Auto {
            threshold: 10,
            embedding: EmbeddingOptions {
                k: 64,
                ..Default::default()
            },
        };
        let e = CommuteTimeEngine::compute(&g, &opts).unwrap();
        assert!(!e.is_exact());
        assert_eq!(e.kind(), OracleKind::Embedding);
    }

    #[test]
    fn auto_cutover_is_inclusive_at_threshold() {
        // n == threshold stays exact; n == threshold + 1 switches.
        let opts = |threshold| EngineOptions::Auto {
            threshold,
            embedding: EmbeddingOptions {
                k: 16,
                ..Default::default()
            },
        };
        let at = CommuteTimeEngine::compute(&path(12), &opts(12)).unwrap();
        assert_eq!(at.kind(), OracleKind::Exact);
        let above = CommuteTimeEngine::compute(&path(13), &opts(12)).unwrap();
        assert_eq!(above.kind(), OracleKind::Embedding);
    }

    #[test]
    fn every_option_builds_its_oracle_kind() {
        let g = path(9);
        let cases: [(EngineOptions, OracleKind); 4] = [
            (EngineOptions::Exact, OracleKind::Exact),
            (
                EngineOptions::Approximate(EmbeddingOptions {
                    k: 8,
                    ..Default::default()
                }),
                OracleKind::Embedding,
            ),
            (EngineOptions::ShortestPath, OracleKind::ShortestPath),
            (EngineOptions::Corrected, OracleKind::Corrected),
        ];
        for (opts, want) in cases {
            let e = CommuteTimeEngine::compute(&g, &opts).unwrap();
            assert_eq!(e.kind(), want);
            assert_eq!(e.n_nodes(), 9);
        }
    }

    #[test]
    fn engines_agree_on_small_graph() {
        let g = path(8);
        let exact = CommuteTimeEngine::compute(&g, &EngineOptions::Exact).unwrap();
        let approx = CommuteTimeEngine::compute(
            &g,
            &EngineOptions::Approximate(EmbeddingOptions {
                k: 500,
                ..Default::default()
            }),
        )
        .unwrap();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let a = approx.commute_distance(i, j);
                let e = exact.commute_distance(i, j);
                assert!((a - e).abs() < 0.3 * e, "({i},{j}): {a} vs {e}");
            }
        }
    }

    #[test]
    fn resistance_consistent_with_commute() {
        let g = path(5);
        let e = CommuteTimeEngine::compute(&g, &EngineOptions::Exact).unwrap();
        let vg = g.volume();
        assert!((e.commute_distance(0, 4) - vg * e.resistance(0, 4)).abs() < 1e-9);
    }
}
