//! Oracle serialization — the artifact side of the `cad-store` cache.
//!
//! Every [`DistanceOracle`] backend can be flattened to bytes and
//! reconstituted with **bit-identical** query behaviour: weights,
//! coordinates, `L⁺` entries and distance tables are stored as raw
//! IEEE-754 bit patterns (8 bytes, little-endian), so a loaded oracle
//! answers `distance`/`resistance`/`commute_distance` with exactly the
//! `f64`s a fresh build would produce (property-tested in
//! `tests/tests/store.rs`). The only thing that does not survive the
//! round trip is provenance: a loaded oracle's
//! [`DistanceOracle::build_stats`] reports zero build seconds and no
//! solve records, which is truthful — loading performed no solves.
//!
//! Layout: `magic "CADORCL\0" · version u32 · tag u8 · payload`, where
//! the tag selects the backend (1 exact, 2 embedding, 3 shortest-path,
//! 4 corrected). Integrity (CRC) is the storage layer's job; this
//! module still bounds-checks every read and rejects truncated or
//! trailing bytes, so a damaged artifact fails to load rather than
//! panicking.

use crate::corrected::CorrectedCommute;
use crate::embedding::CommuteEmbedding;
use crate::exact::ExactCommute;
use crate::oracle::{DistanceOracle, SharedOracle};
use crate::shortest::ShortestPathTable;
use crate::Result;
use cad_graph::GraphError;
use cad_linalg::{CsrMatrix, DenseMatrix};

/// Artifact magic, 8 bytes.
pub const ORACLE_MAGIC: &[u8; 8] = b"CADORCL\0";
/// Artifact format version.
pub const ORACLE_FORMAT_VERSION: u32 = 1;

const TAG_EXACT: u8 = 1;
const TAG_EMBEDDING: u8 = 2;
const TAG_SHORTEST: u8 = 3;
const TAG_CORRECTED: u8 = 4;

// ---------------------------------------------------------------------
// Byte codec (shared with the `cad-part` partitioned artifacts)
// ---------------------------------------------------------------------

/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append the raw bit pattern of `v`, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append every value's raw bit pattern, little-endian.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(8 * values.len());
    for &v in values {
        put_f64(out, v);
    }
}

/// Append every value little-endian.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.reserve(4 * values.len());
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader over an artifact's bytes. Every
/// error is [`GraphError::InvalidInput`] prefixed with the artifact
/// name; no read panics or over-allocates on hostile input.
pub struct ArtifactReader<'a> {
    buf: &'a [u8],
    artifact: &'static str,
}

impl<'a> ArtifactReader<'a> {
    /// Read `buf`, naming errors after `artifact` (e.g. `"oracle artifact"`).
    pub fn new(buf: &'a [u8], artifact: &'static str) -> Self {
        ArtifactReader { buf, artifact }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], GraphError> {
        if self.buf.len() < n {
            return Err(invalid(format!(
                "{} truncated: wanted {n} bytes, {} left",
                self.artifact,
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// One byte.
    pub fn byte(&mut self) -> std::result::Result<u8, GraphError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> std::result::Result<u32, GraphError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> std::result::Result<u64, GraphError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A stored `u64` count or dimension, rejected above `2^32`: every
    /// stored element is ≥ 4 bytes, so any plausible value fits, and
    /// the bound stops hostile counts before multiplication or
    /// allocation.
    pub fn usize_checked(&mut self, what: &str) -> std::result::Result<usize, GraphError> {
        let v = self.u64()?;
        if v > (1 << 32) {
            return Err(invalid(format!(
                "{}: implausible {what} {v}",
                self.artifact
            )));
        }
        Ok(v as usize)
    }

    /// An `f64` from its raw bit pattern.
    pub fn f64_bits(&mut self) -> std::result::Result<f64, GraphError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `n` consecutive `f64` bit patterns.
    pub fn f64s(&mut self, n: usize, what: &str) -> std::result::Result<Vec<f64>, GraphError> {
        let raw = self.take(self.len_bytes(n, 8, what)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8"))))
            .collect())
    }

    /// `n` consecutive `u32`s.
    pub fn u32s(&mut self, n: usize, what: &str) -> std::result::Result<Vec<u32>, GraphError> {
        let raw = self.take(self.len_bytes(n, 4, what)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn len_bytes(
        &self,
        n: usize,
        width: usize,
        what: &str,
    ) -> std::result::Result<usize, GraphError> {
        n.checked_mul(width)
            .ok_or_else(|| invalid(format!("{}: {what} length overflows", self.artifact)))
    }

    /// Require that every byte was consumed.
    pub fn finish(&self, what: &str) -> std::result::Result<(), GraphError> {
        if !self.buf.is_empty() {
            return Err(invalid(format!(
                "{}: {} trailing bytes after {what}",
                self.artifact,
                self.buf.len()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

fn header(tag: u8) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(ORACLE_MAGIC);
    out.extend_from_slice(&ORACLE_FORMAT_VERSION.to_le_bytes());
    out.push(tag);
    out
}

fn encode_exact_into(out: &mut Vec<u8>, e: &ExactCommute) {
    let (pinv, volume) = e.persist_parts();
    put_u64(out, pinv.nrows() as u64);
    put_f64(out, volume);
    put_f64s(out, pinv.data());
}

/// Serialize any oracle to a self-describing artifact.
pub fn oracle_to_bytes(o: &dyn DistanceOracle) -> Vec<u8> {
    o.to_store_bytes()
}

pub(crate) fn exact_to_bytes(e: &ExactCommute) -> Vec<u8> {
    let mut out = header(TAG_EXACT);
    encode_exact_into(&mut out, e);
    out
}

pub(crate) fn embedding_to_bytes(e: &CommuteEmbedding) -> Vec<u8> {
    let (coords, n, k, volume) = e.persist_parts();
    let mut out = header(TAG_EMBEDDING);
    put_u64(&mut out, n as u64);
    put_u64(&mut out, k as u64);
    put_f64(&mut out, volume);
    put_f64s(&mut out, coords);
    out
}

pub(crate) fn shortest_to_bytes(t: &ShortestPathTable) -> Vec<u8> {
    let (n, dist) = t.persist_parts();
    let mut out = header(TAG_SHORTEST);
    put_u64(&mut out, n as u64);
    put_f64s(&mut out, dist);
    out
}

pub(crate) fn corrected_to_bytes(c: &CorrectedCommute) -> Vec<u8> {
    let (exact, degrees, adjacency) = c.persist_parts();
    let mut out = header(TAG_CORRECTED);
    encode_exact_into(&mut out, exact);
    put_f64s(&mut out, degrees);
    let entries: Vec<(usize, usize, f64)> = adjacency.iter().collect();
    put_u64(&mut out, entries.len() as u64);
    for (r, c, v) in entries {
        out.extend_from_slice(&(r as u32).to_le_bytes());
        out.extend_from_slice(&(c as u32).to_le_bytes());
        put_f64(&mut out, v);
    }
    out
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

fn invalid(msg: String) -> GraphError {
    GraphError::InvalidInput(msg)
}

fn square(n: usize, what: &str) -> std::result::Result<usize, GraphError> {
    n.checked_mul(n)
        .ok_or_else(|| invalid(format!("oracle artifact: {what} dimension overflows")))
}

fn decode_exact(cur: &mut ArtifactReader<'_>) -> Result<ExactCommute> {
    let n = cur.usize_checked("node count")?;
    let volume = cur.f64_bits()?;
    let data = cur.f64s(square(n, "L⁺")?, "L⁺ entries")?;
    let pinv = DenseMatrix::from_vec(n, n, data).map_err(GraphError::from)?;
    Ok(ExactCommute::from_persist(pinv, volume))
}

/// Reconstitute an oracle from [`oracle_to_bytes`] output.
///
/// Rejects bad magic, version skew, unknown tags, truncation and
/// trailing bytes with [`GraphError::InvalidInput`] — never panics on
/// hostile input.
pub fn oracle_from_bytes(bytes: &[u8]) -> Result<SharedOracle> {
    let mut cur = ArtifactReader::new(bytes, "oracle artifact");
    if cur.take(8)? != ORACLE_MAGIC {
        return Err(invalid("not an oracle artifact (bad magic)".into()));
    }
    let version = cur.u32()?;
    if version != ORACLE_FORMAT_VERSION {
        return Err(invalid(format!(
            "oracle artifact version {version} unsupported (this build reads {ORACLE_FORMAT_VERSION})"
        )));
    }
    let tag = cur.take(1)?[0];
    match tag {
        TAG_EXACT => {
            let e = decode_exact(&mut cur)?;
            cur.finish("exact oracle")?;
            Ok(Box::new(e))
        }
        TAG_EMBEDDING => {
            let n = cur.usize_checked("node count")?;
            let k = cur.usize_checked("embedding dimension")?;
            let volume = cur.f64_bits()?;
            let len = n
                .checked_mul(k)
                .ok_or_else(|| invalid("oracle artifact: n·k overflows".into()))?;
            let coords = cur.f64s(len, "coordinates")?;
            cur.finish("embedding oracle")?;
            Ok(Box::new(CommuteEmbedding::from_persist(
                coords, n, k, volume,
            )))
        }
        TAG_SHORTEST => {
            let n = cur.usize_checked("node count")?;
            let dist = cur.f64s(square(n, "distance table")?, "distances")?;
            cur.finish("shortest-path oracle")?;
            Ok(Box::new(ShortestPathTable::from_persist(n, dist)))
        }
        TAG_CORRECTED => {
            let exact = decode_exact(&mut cur)?;
            let n = exact.n_nodes();
            let degrees = cur.f64s(n, "degrees")?;
            let nnz = cur.usize_checked("adjacency nnz")?;
            let mut triplets = Vec::with_capacity(nnz.min(1 << 24));
            for i in 0..nnz {
                let r = cur.u32()?;
                let c = cur.u32()?;
                let v = cur.f64_bits()?;
                if r as usize >= n || c as usize >= n {
                    return Err(invalid(format!(
                        "oracle artifact: adjacency entry {i} ({r}, {c}) out of range for n = {n}"
                    )));
                }
                triplets.push((r, c, v));
            }
            cur.finish("corrected oracle")?;
            let adjacency = CsrMatrix::from_triplets(n, n, &triplets);
            Ok(Box::new(CorrectedCommute::from_persist(
                exact, degrees, adjacency,
            )))
        }
        other => Err(invalid(format!(
            "oracle artifact: unknown backend tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommuteTimeEngine, EmbeddingOptions, EngineOptions};
    use cad_graph::WeightedGraph;

    fn graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            7,
            &[
                (0, 1, 1.5),
                (1, 2, 0.75),
                (2, 3, 2.0),
                (3, 4, 1.0),
                (0, 4, 0.5),
                (5, 6, 3.0), // second component: exercises pinv fallback + Inf distances
            ],
        )
        .unwrap()
    }

    fn engines() -> Vec<EngineOptions> {
        vec![
            EngineOptions::Exact,
            EngineOptions::Approximate(EmbeddingOptions {
                k: 12,
                ..Default::default()
            }),
            EngineOptions::ShortestPath,
            EngineOptions::Corrected,
        ]
    }

    #[test]
    fn every_backend_round_trips_bit_identically() {
        let g = graph();
        for opts in engines() {
            let fresh = CommuteTimeEngine::compute(&g, &opts).unwrap();
            let loaded = oracle_from_bytes(&oracle_to_bytes(fresh.as_ref())).unwrap();
            assert_eq!(loaded.kind(), fresh.kind());
            assert_eq!(loaded.n_nodes(), fresh.n_nodes());
            assert_eq!(
                loaded.volume().map(f64::to_bits),
                fresh.volume().map(f64::to_bits)
            );
            for i in 0..g.n_nodes() {
                for j in 0..g.n_nodes() {
                    assert_eq!(
                        loaded.distance(i, j).to_bits(),
                        fresh.distance(i, j).to_bits(),
                        "{} distance({i}, {j})",
                        fresh.kind().name()
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_oracle_reports_zero_cost_stats() {
        let g = graph();
        let fresh = CommuteTimeEngine::compute(&g, &EngineOptions::Exact).unwrap();
        let loaded = oracle_from_bytes(&oracle_to_bytes(fresh.as_ref())).unwrap();
        let stats = loaded.build_stats().expect("loaded oracles keep stats");
        assert_eq!(stats.backend, "exact");
        assert_eq!(stats.build_secs, 0.0);
        assert!(stats.solves.is_empty());
    }

    #[test]
    fn damaged_artifacts_error_instead_of_panicking() {
        let g = graph();
        let bytes = oracle_to_bytes(
            CommuteTimeEngine::compute(&g, &EngineOptions::Exact)
                .unwrap()
                .as_ref(),
        );
        // Truncation at every prefix length.
        for cut in 0..bytes.len().min(64) {
            assert!(oracle_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(oracle_from_bytes(&extended).is_err());
        // Unknown tag.
        let mut bad_tag = bytes.clone();
        bad_tag[12] = 9;
        assert!(oracle_from_bytes(&bad_tag).is_err());
        // Wrong magic and version.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        assert!(oracle_from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes;
        bad_version[8] = 42;
        assert!(oracle_from_bytes(&bad_version).is_err());
    }
}
