//! The content-addressed oracle cache.
//!
//! Each built [`cad_commute::DistanceOracle`] is persisted under
//! `<store_dir>/oracles/<key>.oracle`, where `<key>` is the SHA-256 of
//! everything the oracle's contents depend on:
//!
//! * the **snapshot bytes** — [`crate::pack::snapshot_bytes`]: node
//!   count plus the sorted edge list with raw `f64` weight bits, so any
//!   topology or weight change (even one ULP) changes the key;
//! * the **resolved engine fingerprint** — backend name plus every
//!   numeric parameter that feeds the computation (`k`, seed, solver
//!   kind, preconditioner, CG tolerance and iteration cap), with `f64`
//!   parameters rendered as exact bit patterns. `Auto` is resolved
//!   against the graph's node count first, so an `Auto` run and an
//!   explicit run of the engine it picks share artifacts. Thread count
//!   is deliberately *excluded*: the engines guarantee bit-identical
//!   results for any thread count, so it cannot affect the artifact.
//!
//! Invalidation is therefore automatic — there is none. A key either
//! matches an artifact byte-for-byte or a fresh build happens; stale
//! entries are merely unreferenced files. Artifacts carry a CRC-32
//! footer and are written via write-then-rename, so torn or damaged
//! files fail validation and fall back to a rebuild (counted as a
//! miss), never a wrong answer.

use crate::crc::crc32;
use crate::hash::{to_hex, Sha256};
use crate::pack::snapshot_bytes;
use crate::{Result, StoreError};
use cad_commute::{
    oracle_from_bytes, CommuteTimeEngine, DistanceOracle, EngineOptions, OracleProvider,
    SharedOracle,
};
use cad_graph::WeightedGraph;
use cad_obs::{Counter, Hist};
use std::path::{Path, PathBuf};

fn solver_fp(s: &cad_linalg::solve::LaplacianSolverOptions) -> String {
    use cad_linalg::solve::laplacian::PrecondKind;
    use cad_linalg::solve::SolverKind;
    let kind = match s.kind {
        SolverKind::Grounded => "grounded".to_string(),
        SolverKind::Regularized(eps) => {
            format!("regularized:{:016x}", eps.to_bits())
        }
    };
    let precond = match s.precond {
        PrecondKind::Jacobi => "jacobi",
        PrecondKind::IncompleteCholesky => "ic0",
        PrecondKind::SpanningTree => "tree",
        PrecondKind::None => "none",
    };
    let max_iter = match s.cg.max_iter {
        Some(m) => m.to_string(),
        None => "auto".to_string(),
    };
    format!(
        "solver={kind};precond={precond};tol={:016x};max_iter={max_iter}",
        s.cg.tol.to_bits()
    )
}

/// Stable fingerprint of the engine configuration, resolved against
/// the instance's node count (`Auto` collapses to the engine it picks).
///
/// The engines built on `L⁺` (exact, corrected) carry `pinv=per-component`:
/// builds that predate `cad_linalg::pinv::laplacian_pinv` stored
/// eigendecomposition bits for disconnected snapshots under the bare
/// names, and a warm hit on those must not differ from a cold build.
/// They also carry `sym=lower`: `L⁺` is now its lower triangle mirrored,
/// and builds before that stored an upper triangle with other last bits.
/// The embedding carries `signs=pair` for the same reason: builds that
/// predate pair-keyed sketch signs stored coordinates from signs keyed
/// by edge position.
pub fn engine_fingerprint(opts: &EngineOptions, n_nodes: usize) -> String {
    match opts {
        EngineOptions::Exact => "exact;pinv=per-component;sym=lower".to_string(),
        EngineOptions::ShortestPath => "shortest-path".to_string(),
        EngineOptions::Corrected => "corrected;pinv=per-component;sym=lower".to_string(),
        EngineOptions::Approximate(e) => {
            format!(
                "embedding;k={};seed={};signs=pair;{}",
                e.k,
                e.seed,
                solver_fp(&e.solver)
            )
        }
        EngineOptions::Auto {
            threshold,
            embedding,
        } => {
            if n_nodes <= *threshold {
                engine_fingerprint(&EngineOptions::Exact, n_nodes)
            } else {
                engine_fingerprint(&EngineOptions::Approximate(*embedding), n_nodes)
            }
        }
    }
}

/// The content-address of an oracle: SHA-256 over the snapshot bytes
/// and the resolved engine fingerprint.
pub fn cache_key(g: &WeightedGraph, opts: &EngineOptions) -> String {
    let mut h = Sha256::new();
    h.update(&snapshot_bytes(g));
    h.update(&[0xff]); // domain separator
    h.update(engine_fingerprint(opts, g.n_nodes()).as_bytes());
    to_hex(&h.finish())
}

/// The content-address of a *block-partitioned* oracle: [`cache_key`]'s
/// inputs plus the partition layout fingerprint
/// ([`cad_commute::PartitionSpec::fingerprint`] — the requested block
/// count). A second domain separator keeps partitioned keys
/// disjoint from monolithic ones even for identical snapshot × engine
/// pairs; like thread count, the fingerprint deliberately excludes
/// anything that cannot change artifact contents.
pub fn cache_key_partitioned(
    g: &WeightedGraph,
    opts: &EngineOptions,
    spec: cad_commute::PartitionSpec,
) -> String {
    let mut h = Sha256::new();
    h.update(&snapshot_bytes(g));
    h.update(&[0xff]); // domain separator
    h.update(engine_fingerprint(opts, g.n_nodes()).as_bytes());
    h.update(&[0xff]); // partition domain separator
    h.update(spec.fingerprint().as_bytes());
    to_hex(&h.finish())
}

/// A directory of content-addressed oracle artifacts.
///
/// Implements [`cad_commute::OracleProvider`], so it plugs straight
/// into `CadDetector`/`OnlineCad`: cache hits load a serialized oracle
/// (bypassing `CommuteTimeEngine::compute`, so `commute.oracle_builds`
/// stays untouched); misses build fresh and persist the artifact for
/// next time.
#[derive(Debug, Clone)]
pub struct OracleStore {
    dir: PathBuf,
}

impl OracleStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("oracles"))?;
        Ok(OracleStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the artifact for `key` lives.
    pub fn artifact_path(&self, key: &str) -> PathBuf {
        self.dir.join("oracles").join(format!("{key}.oracle"))
    }

    /// Load and validate the artifact for `key`. Any damage (bad CRC,
    /// truncation, undecodable payload) reads as "not cached".
    /// `decode` is the payload decoder — [`oracle_from_bytes`] for
    /// monolithic artifacts, [`cad_part::decode_oracle`] for partitioned
    /// ones (which also accepts monolithic payloads, covering the
    /// ablation-engine fallback cached under partitioned keys).
    fn load_artifact_with(
        &self,
        key: &str,
        decode: fn(&[u8]) -> cad_commute::Result<SharedOracle>,
    ) -> Option<SharedOracle> {
        let path = self.artifact_path(key);
        if !path.exists() {
            return None;
        }
        let (bytes, secs) = cad_obs::time_it(|| std::fs::read(&path));
        cad_obs::observe(Hist::PackIoSecs, secs);
        let bytes = bytes.ok()?;
        cad_obs::count(Counter::StoreBytesRead, bytes.len() as u64);
        if bytes.len() < 4 {
            return None;
        }
        let (payload, footer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(footer.try_into().expect("4 bytes"));
        if crc32(payload) != stored {
            return None;
        }
        decode(payload).ok()
    }

    fn load_artifact(&self, key: &str) -> Option<SharedOracle> {
        self.load_artifact_with(key, oracle_from_bytes)
    }

    /// Persist `oracle` under `key` (write-then-rename, CRC footer).
    pub fn store_oracle(&self, key: &str, oracle: &dyn DistanceOracle) -> Result<()> {
        let mut bytes = oracle.to_store_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let final_path = self.artifact_path(key);
        let tmp = final_path.with_extension(format!("tmp{}", std::process::id()));
        let (res, secs) = cad_obs::time_it(|| {
            std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &final_path))
        });
        cad_obs::observe(Hist::PackIoSecs, secs);
        res.map_err(StoreError::Io)
    }

    /// The provider entry point: load on hit, build-and-persist on
    /// miss. Instruments `store.cache_hits` / `store.cache_misses`.
    pub fn get_or_build(
        &self,
        g: &WeightedGraph,
        opts: &EngineOptions,
    ) -> cad_commute::Result<SharedOracle> {
        let key = cache_key(g, opts);
        if let Some(oracle) = self.load_artifact(&key) {
            if oracle.n_nodes() == g.n_nodes() {
                cad_obs::count(Counter::StoreCacheHits, 1);
                return Ok(oracle);
            }
        }
        cad_obs::count(Counter::StoreCacheMisses, 1);
        let oracle = CommuteTimeEngine::compute(g, opts)?;
        // Persisting is best-effort: a full disk must not fail the
        // detection run that just succeeded in memory.
        let _ = self.store_oracle(&key, oracle.as_ref());
        Ok(oracle)
    }

    /// Partitioned analogue of [`OracleStore::get_or_build`]: keys by
    /// [`cache_key_partitioned`], builds via
    /// [`cad_part::PartitionedOracle::build`] on miss.
    pub fn get_or_build_partitioned(
        &self,
        g: &WeightedGraph,
        opts: &EngineOptions,
        spec: cad_commute::PartitionSpec,
        threads: usize,
    ) -> cad_commute::Result<SharedOracle> {
        let key = cache_key_partitioned(g, opts, spec);
        if let Some(oracle) = self.load_artifact_with(&key, cad_part::decode_oracle) {
            if oracle.n_nodes() == g.n_nodes() {
                cad_obs::count(Counter::StoreCacheHits, 1);
                return Ok(oracle);
            }
        }
        cad_obs::count(Counter::StoreCacheMisses, 1);
        let oracle = cad_part::PartitionedOracle::build(g, opts, spec, threads)?;
        let _ = self.store_oracle(&key, oracle.as_ref());
        Ok(oracle)
    }
}

/// What one [`OracleStore::gc`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Artifacts deleted.
    pub files_removed: usize,
    /// Bytes those artifacts occupied.
    pub bytes_reclaimed: u64,
    /// Artifacts left in the store.
    pub files_kept: usize,
    /// Bytes still occupied after the sweep.
    pub bytes_kept: u64,
}

impl OracleStore {
    /// Shrink the artifact directory to at most `max_bytes` by deleting
    /// the least-recently-modified `.oracle` files first (mtime-ordered
    /// LRU: `get_or_build` rewrites artifacts on rebuild and stores them
    /// fresh on miss, so older mtimes mean colder entries). Partially
    /// written `.tmp*` droppings are always removed. Deleting a cached
    /// oracle is always safe — the next lookup is a miss that rebuilds.
    pub fn gc(&self, max_bytes: u64) -> Result<GcStats> {
        let mut entries: Vec<(PathBuf, u64, std::time::SystemTime)> = Vec::new();
        let mut stats = GcStats::default();
        for entry in std::fs::read_dir(self.dir.join("oracles"))? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let path = entry.path();
            let is_oracle = path.extension().is_some_and(|e| e == "oracle");
            if !is_oracle {
                // Stale write-then-rename temporaries from crashed
                // processes; reclaim unconditionally.
                stats.files_removed += 1;
                stats.bytes_reclaimed += meta.len();
                std::fs::remove_file(&path)?;
                continue;
            }
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((path, meta.len(), mtime));
        }
        // Oldest first; tie-break on path so the order is deterministic.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = entries.iter().map(|e| e.1).sum();
        let mut evict = entries.into_iter();
        while total > max_bytes {
            let Some((path, len, _)) = evict.next() else {
                break;
            };
            std::fs::remove_file(&path)?;
            stats.files_removed += 1;
            stats.bytes_reclaimed += len;
            total -= len;
        }
        stats.files_kept = evict.count();
        stats.bytes_kept = total;
        Ok(stats)
    }
}

impl OracleProvider for OracleStore {
    fn oracle(
        &self,
        _t: usize,
        g: &WeightedGraph,
        opts: &EngineOptions,
    ) -> cad_commute::Result<SharedOracle> {
        self.get_or_build(g, opts)
    }

    fn oracle_partitioned(
        &self,
        _t: usize,
        g: &WeightedGraph,
        opts: &EngineOptions,
        spec: cad_commute::PartitionSpec,
        threads: usize,
    ) -> cad_commute::Result<SharedOracle> {
        self.get_or_build_partitioned(g, opts, spec, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_obs::Registry;
    use std::sync::Arc;

    fn fresh_store(name: &str) -> OracleStore {
        let dir = std::env::temp_dir()
            .join("cad-store-cache-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        OracleStore::open(dir).unwrap()
    }

    fn graph(w: f64) -> WeightedGraph {
        WeightedGraph::from_edges(5, &[(0, 1, w), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.5)]).unwrap()
    }

    #[test]
    fn second_lookup_hits_and_skips_the_build() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let store = fresh_store("hit");
        let g = graph(1.0);
        let opts = EngineOptions::Exact;

        let builds_before = reg.counter(Counter::OracleBuilds);
        let misses_before = reg.counter(Counter::StoreCacheMisses);
        let first = store.get_or_build(&g, &opts).unwrap();
        assert_eq!(reg.counter(Counter::OracleBuilds), builds_before + 1);
        assert_eq!(reg.counter(Counter::StoreCacheMisses), misses_before + 1);

        let hits_before = reg.counter(Counter::StoreCacheHits);
        let second = store.get_or_build(&g, &opts).unwrap();
        // The hit bypassed CommuteTimeEngine::compute entirely.
        assert_eq!(reg.counter(Counter::OracleBuilds), builds_before + 1);
        assert_eq!(reg.counter(Counter::StoreCacheHits), hits_before + 1);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    first.distance(i, j).to_bits(),
                    second.distance(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn key_is_sensitive_to_graph_and_engine() {
        let g1 = graph(1.0);
        let g2 = graph(1.0 + 1e-14);
        let exact = EngineOptions::Exact;
        assert_eq!(cache_key(&g1, &exact), cache_key(&graph(1.0), &exact));
        assert_ne!(cache_key(&g1, &exact), cache_key(&g2, &exact));
        assert_ne!(
            cache_key(&g1, &exact),
            cache_key(&g1, &EngineOptions::Corrected)
        );
        let emb = |seed| {
            EngineOptions::Approximate(cad_commute::EmbeddingOptions {
                k: 8,
                seed,
                ..Default::default()
            })
        };
        assert_ne!(cache_key(&g1, &emb(1)), cache_key(&g1, &emb(2)));
        assert_eq!(cache_key(&g1, &emb(1)), cache_key(&g1, &emb(1)));
    }

    #[test]
    fn auto_resolves_to_the_engine_it_picks() {
        let g = graph(1.0); // 5 nodes
        let auto = EngineOptions::Auto {
            threshold: 512,
            embedding: cad_commute::EmbeddingOptions::default(),
        };
        assert_eq!(cache_key(&g, &auto), cache_key(&g, &EngineOptions::Exact));
        let auto_low = EngineOptions::Auto {
            threshold: 2,
            embedding: cad_commute::EmbeddingOptions::default(),
        };
        assert_eq!(
            cache_key(&g, &auto_low),
            cache_key(
                &g,
                &EngineOptions::Approximate(cad_commute::EmbeddingOptions::default())
            )
        );
    }

    #[test]
    fn threads_do_not_change_the_key() {
        let g = graph(1.0);
        let emb = |threads| {
            EngineOptions::Approximate(cad_commute::EmbeddingOptions {
                k: 8,
                threads,
                ..Default::default()
            })
        };
        assert_eq!(cache_key(&g, &emb(1)), cache_key(&g, &emb(4)));
    }

    #[test]
    fn gc_evicts_oldest_artifacts_first_and_reports_bytes() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let store = fresh_store("gc");
        let opts = EngineOptions::Exact;
        // Three artifacts with strictly increasing mtimes (set
        // explicitly so the test does not depend on filesystem
        // timestamp resolution).
        let weights = [1.0, 2.0, 3.0];
        let mut paths = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let g = graph(w);
            store.get_or_build(&g, &opts).unwrap();
            let path = store.artifact_path(&cache_key(&g, &opts));
            let t = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000 + i as u64);
            let f = std::fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
            paths.push(path);
        }
        let sizes: Vec<u64> = paths
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .collect();
        let total: u64 = sizes.iter().sum();

        // A budget that fits everything removes nothing.
        let stats = store.gc(total).unwrap();
        assert_eq!(stats.files_removed, 0);
        assert_eq!(stats.bytes_kept, total);
        assert_eq!(stats.files_kept, 3);

        // A budget one byte short evicts exactly the oldest artifact.
        let stats = store.gc(total - 1).unwrap();
        assert_eq!(stats.files_removed, 1);
        assert_eq!(stats.bytes_reclaimed, sizes[0]);
        assert!(!paths[0].exists(), "oldest artifact must go first");
        assert!(paths[1].exists() && paths[2].exists());

        // Budget zero clears the store.
        let stats = store.gc(0).unwrap();
        assert_eq!(stats.files_removed, 2);
        assert_eq!(stats.bytes_reclaimed, sizes[1] + sizes[2]);
        assert_eq!(stats.bytes_kept, 0);
        assert_eq!(stats.files_kept, 0);
    }

    #[test]
    fn gc_always_removes_stale_tmp_files() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let store = fresh_store("gc-tmp");
        let g = graph(1.0);
        store.get_or_build(&g, &EngineOptions::Exact).unwrap();
        let tmp = store.dir().join("oracles").join("abc.tmp9999");
        std::fs::write(&tmp, b"torn write").unwrap();
        let stats = store.gc(u64::MAX).unwrap();
        assert!(!tmp.exists());
        assert_eq!(stats.files_removed, 1);
        assert_eq!(stats.bytes_reclaimed, 10);
        assert_eq!(stats.files_kept, 1);
    }

    #[test]
    fn partitioned_keys_are_disjoint_and_layout_sensitive() {
        use cad_commute::PartitionSpec;
        let g = graph(1.0);
        let opts = EngineOptions::Exact;
        let spec = |blocks| PartitionSpec { blocks };
        let base = cache_key_partitioned(&g, &opts, spec(2));
        // Partitioned keys never collide with monolithic ones.
        assert_ne!(base, cache_key(&g, &opts));
        // The block count is part of the address...
        assert_ne!(base, cache_key_partitioned(&g, &opts, spec(3)));
        // ...and the same request is stable.
        assert_eq!(base, cache_key_partitioned(&graph(1.0), &opts, spec(2)));
        // Snapshot and engine still separate as for monolithic keys.
        assert_ne!(base, cache_key_partitioned(&graph(2.0), &opts, spec(2)));
        assert_ne!(
            base,
            cache_key_partitioned(&g, &EngineOptions::Corrected, spec(2))
        );
    }

    #[test]
    fn exact_keys_differ_from_eigendecomposition_era_keys() {
        // Older builds keyed the L⁺ engines by their bare names and
        // stored eigendecomposition bits for disconnected snapshots.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        for (opts, old_fp) in [
            (EngineOptions::Exact, "exact"),
            (EngineOptions::Corrected, "corrected"),
        ] {
            let mut h = Sha256::new();
            h.update(&snapshot_bytes(&g));
            h.update(&[0xff]);
            h.update(old_fp.as_bytes());
            assert_ne!(cache_key(&g, &opts), to_hex(&h.finish()), "{old_fp}");
        }
    }

    #[test]
    fn exact_keys_differ_from_full_back_sweep_era_keys() {
        // Older builds computed both triangles of `L⁺` on their own, so
        // their upper triangle (which distances read) has other bits.
        let g = graph(1.0);
        for (opts, old_fp) in [
            (EngineOptions::Exact, "exact;pinv=per-component"),
            (EngineOptions::Corrected, "corrected;pinv=per-component"),
        ] {
            let mut h = Sha256::new();
            h.update(&snapshot_bytes(&g));
            h.update(&[0xff]);
            h.update(old_fp.as_bytes());
            assert_ne!(cache_key(&g, &opts), to_hex(&h.finish()), "{old_fp}");
            assert!(engine_fingerprint(&opts, g.n_nodes()).ends_with(";sym=lower"));
        }
    }

    #[test]
    fn embedding_keys_differ_from_position_keyed_sign_era_keys() {
        // Older builds keyed the sketch signs by edge position and
        // fingerprinted the embedding without a `signs` token.
        let g = graph(1.0);
        let e = cad_commute::EmbeddingOptions::default();
        let old_fp = format!(
            "embedding;k={};seed={};{}",
            e.k,
            e.seed,
            solver_fp(&e.solver)
        );
        let mut h = Sha256::new();
        h.update(&snapshot_bytes(&g));
        h.update(&[0xff]);
        h.update(old_fp.as_bytes());
        let opts = EngineOptions::Approximate(e);
        assert_ne!(cache_key(&g, &opts), to_hex(&h.finish()));
        assert!(engine_fingerprint(&opts, g.n_nodes()).contains(";signs=pair;"));
    }

    #[test]
    fn partitioned_lookup_hits_with_bit_identical_queries() {
        use cad_commute::PartitionSpec;
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let store = fresh_store("part-hit");
        let g = graph(1.0);
        let opts = EngineOptions::Exact;
        let spec = PartitionSpec { blocks: 2 };

        let misses_before = reg.counter(Counter::StoreCacheMisses);
        let first = store.get_or_build_partitioned(&g, &opts, spec, 1).unwrap();
        assert_eq!(reg.counter(Counter::StoreCacheMisses), misses_before + 1);
        assert_eq!(first.partition_info().map(|i| i.blocks), Some(2));

        let hits_before = reg.counter(Counter::StoreCacheHits);
        let second = store.get_or_build_partitioned(&g, &opts, spec, 1).unwrap();
        assert_eq!(reg.counter(Counter::StoreCacheHits), hits_before + 1);
        assert_eq!(second.partition_info(), first.partition_info());
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(
                    first.distance(i, j).to_bits(),
                    second.distance(i, j).to_bits()
                );
            }
        }
        // The monolithic key for the same snapshot × engine is untouched.
        assert!(!store.artifact_path(&cache_key(&g, &opts)).exists());
    }

    #[test]
    fn corrupted_artifact_falls_back_to_rebuild() {
        let reg = Arc::new(Registry::new());
        let _metrics = reg.enter();
        let store = fresh_store("corrupt");
        let g = graph(1.0);
        let opts = EngineOptions::Exact;
        store.get_or_build(&g, &opts).unwrap();

        let key = cache_key(&g, &opts);
        let path = store.artifact_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let misses_before = reg.counter(Counter::StoreCacheMisses);
        let rebuilt = store.get_or_build(&g, &opts).unwrap();
        assert_eq!(
            reg.counter(Counter::StoreCacheMisses),
            misses_before + 1,
            "damaged artifact must read as a miss"
        );
        assert_eq!(rebuilt.n_nodes(), 5);
        // The rebuild repaired the artifact in place.
        let hits_before = reg.counter(Counter::StoreCacheHits);
        store.get_or_build(&g, &opts).unwrap();
        assert_eq!(reg.counter(Counter::StoreCacheHits), hits_before + 1);
    }
}
