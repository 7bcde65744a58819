//! Partitioned-oracle serialization — the `cad-store` artifact format
//! for [`PartitionedOracle`].
//!
//! Shares `cad_commute::persist`'s byte codec: every `f64`
//! is stored as its raw IEEE-754 bit pattern (little-endian), so a
//! loaded oracle answers queries bit-identically to the instance that
//! was saved. Layout: `magic "CADPART\0" · version u32 · tag u8 ·
//! payload` with tag 1 = exact blocks. Tag 2 held a partitioned
//! embedding, which is no longer built; such artifacts decode to an
//! error. The store handles integrity (CRC); this module bounds-checks
//! every read and rejects truncated or trailing bytes.
//!
//! [`decode_oracle`] is the store-facing entry point: it dispatches on
//! the magic, falling back to [`cad_commute::oracle_from_bytes`] for
//! monolithic artifacts — partitioned requests for every engine but the
//! exact one build monolithically, so their cached artifacts carry the
//! `CADORCL` magic even under a partitioned cache key.

use crate::blocks::{Block, ExactBlocks, Loc};
use crate::oracle::PartitionedOracle;
use cad_commute::persist::{put_f64, put_f64s, put_u32s, put_u64, ArtifactReader};
use cad_commute::{PartitionInfo, Result, SharedOracle};
use cad_graph::GraphError;
use cad_linalg::DenseMatrix;

/// Partitioned-artifact magic, 8 bytes.
pub const PART_MAGIC: &[u8; 8] = b"CADPART\0";
/// Partitioned-artifact format version.
pub const PART_FORMAT_VERSION: u32 = 1;

const TAG_EXACT: u8 = 1;

/// Serialize a [`PartitionedOracle`] (called via
/// `DistanceOracle::to_store_bytes`).
pub(crate) fn to_bytes(o: &PartitionedOracle) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(PART_MAGIC);
    out.extend_from_slice(&PART_FORMAT_VERSION.to_le_bytes());
    out.push(TAG_EXACT);
    put_u64(&mut out, o.blocks.n as u64);
    put_f64(&mut out, o.volume);
    put_u64(&mut out, o.info.blocks as u64);
    put_u64(&mut out, o.info.boundary_edges as u64);
    let b = &o.blocks;
    put_u32s(&mut out, &b.comp_of);
    put_u64(&mut out, b.comp_size.len() as u64);
    put_u64(&mut out, b.sep.len() as u64);
    put_u32s(&mut out, &b.sep);
    put_f64s(&mut out, b.s_pinv.data());
    match &b.diag {
        Some(d) => {
            out.push(1);
            put_f64s(&mut out, d);
        }
        None => out.push(0),
    }
    put_u64(&mut out, b.blocks.len() as u64);
    for block in &b.blocks {
        out.push(u8::from(block.whole));
        put_u64(&mut out, block.nodes.len() as u64);
        put_u32s(&mut out, &block.nodes);
        put_f64s(&mut out, block.m.data());
        put_f64s(&mut out, block.w.data());
    }
    out
}

fn invalid(msg: String) -> GraphError {
    GraphError::InvalidInput(msg)
}

fn matrix(
    cur: &mut ArtifactReader<'_>,
    rows: usize,
    cols: usize,
    what: &str,
) -> std::result::Result<DenseMatrix, GraphError> {
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| invalid(format!("partitioned artifact: {what} size overflows")))?;
    let data = cur.f64s(len, what)?;
    DenseMatrix::from_vec(rows, cols, data).map_err(GraphError::from)
}

fn decode_exact(cur: &mut ArtifactReader<'_>, n: usize) -> Result<ExactBlocks> {
    let comp_of = cur.u32s(n, "component ids")?;
    let n_components = cur.usize_checked("component count")?;
    let mut comp_size = vec![0usize; n_components];
    for &c in &comp_of {
        let c = c as usize;
        if c >= n_components {
            return Err(invalid(format!(
                "partitioned artifact: component id {c} out of range"
            )));
        }
        comp_size[c] += 1;
    }
    let ns = cur.usize_checked("boundary size")?;
    if ns > n {
        return Err(invalid(format!(
            "partitioned artifact: boundary size {ns} exceeds n = {n}"
        )));
    }
    let sep = cur.u32s(ns, "boundary vertices")?;
    let s_pinv = matrix(cur, ns, ns, "interface pseudoinverse")?;
    let diag = match cur.byte()? {
        0 => None,
        1 => Some(cur.f64s(n, "diagonal")?),
        other => {
            return Err(invalid(format!(
                "partitioned artifact: bad diagonal flag {other}"
            )))
        }
    };
    let n_blocks = cur.usize_checked("block count")?;
    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
    for k in 0..n_blocks {
        let whole = match cur.byte()? {
            0 => false,
            1 => true,
            other => {
                return Err(invalid(format!(
                    "partitioned artifact: block {k} bad whole flag {other}"
                )))
            }
        };
        let ni = cur.usize_checked("block size")?;
        if ni > n {
            return Err(invalid(format!(
                "partitioned artifact: block {k} size {ni} exceeds n = {n}"
            )));
        }
        let nodes = cur.u32s(ni, "block nodes")?;
        let m = matrix(cur, ni, ni, "block inverse")?;
        let w_rows = if whole { 0 } else { ni };
        let w = matrix(cur, w_rows, ns, "block coupling")?;
        blocks.push(Block { nodes, whole, m, w });
    }

    // Rebuild the per-vertex location table and require exact coverage:
    // every vertex is either boundary or interior of exactly one block.
    let mut loc = vec![None; n];
    for (q, &v) in sep.iter().enumerate() {
        let v = v as usize;
        if v >= n || loc[v].is_some() {
            return Err(invalid(format!(
                "partitioned artifact: bad boundary vertex {v}"
            )));
        }
        loc[v] = Some(Loc::Boundary { pos: q as u32 });
    }
    for (k, block) in blocks.iter().enumerate() {
        for (p, &v) in block.nodes.iter().enumerate() {
            let v = v as usize;
            if v >= n || loc[v].is_some() {
                return Err(invalid(format!(
                    "partitioned artifact: vertex {v} multiply assigned"
                )));
            }
            loc[v] = Some(Loc::Interior {
                block: k as u32,
                pos: p as u32,
            });
        }
    }
    let loc: Vec<Loc> = loc
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| invalid("partitioned artifact: uncovered vertex".into()))?;

    Ok(ExactBlocks {
        n,
        comp_of,
        comp_size,
        blocks,
        loc,
        sep,
        s_pinv,
        diag,
    })
}

/// Reconstitute an oracle from store bytes.
///
/// Partitioned artifacts (`CADPART` magic) decode here; anything else
/// is handed to [`cad_commute::oracle_from_bytes`], which covers the
/// monolithic artifacts that partitioned requests for ablation engines
/// produce. Never panics on hostile input.
pub fn decode_oracle(bytes: &[u8]) -> Result<SharedOracle> {
    if bytes.len() < 8 || &bytes[..8] != PART_MAGIC {
        return cad_commute::oracle_from_bytes(bytes);
    }
    let mut cur = ArtifactReader::new(&bytes[8..], "partitioned artifact");
    let version = cur.u32()?;
    if version != PART_FORMAT_VERSION {
        return Err(invalid(format!(
            "partitioned artifact version {version} unsupported (this build reads {PART_FORMAT_VERSION})"
        )));
    }
    let tag = cur.byte()?;
    let n = cur.usize_checked("node count")?;
    let volume = cur.f64_bits()?;
    let info = PartitionInfo {
        blocks: cur.usize_checked("block count")?,
        boundary_edges: cur.usize_checked("boundary edge count")?,
    };
    match tag {
        TAG_EXACT => {}
        2 => {
            return Err(invalid(
                "partitioned artifact: tag 2 (partitioned embedding) is no longer \
                 supported; rebuild the oracle"
                    .into(),
            ))
        }
        other => {
            return Err(invalid(format!(
                "partitioned artifact: unknown tag {other}"
            )))
        }
    }
    let blocks = decode_exact(&mut cur, n)?;
    cur.finish("partitioned exact oracle")?;
    Ok(Box::new(PartitionedOracle {
        volume,
        info,
        blocks,
        // Truthful provenance: loading performed no solves.
        build_stats: cad_obs::OracleBuildStats {
            backend: "partitioned-exact",
            build_secs: 0.0,
            jl_dim: None,
            solves: Vec::new(),
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cad_commute::{EmbeddingOptions, EngineOptions, PartitionSpec};
    use cad_graph::WeightedGraph;

    fn graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            9,
            &[
                (0, 1, 1.5),
                (1, 2, 0.75),
                (2, 3, 2.0),
                (3, 4, 1.0),
                (0, 4, 0.5),
                (4, 5, 1.0),
                (5, 6, 1.25),
                (7, 8, 3.0), // second component
            ],
        )
        .unwrap()
    }

    fn round_trip(opts: &EngineOptions, spec: PartitionSpec) {
        let g = graph();
        let fresh = PartitionedOracle::build(&g, opts, spec, 1).unwrap();
        let loaded = decode_oracle(&fresh.to_store_bytes()).unwrap();
        assert_eq!(loaded.kind(), fresh.kind());
        assert_eq!(loaded.n_nodes(), fresh.n_nodes());
        assert_eq!(loaded.partition_info(), fresh.partition_info());
        assert_eq!(
            loaded.volume().map(f64::to_bits),
            fresh.volume().map(f64::to_bits)
        );
        for i in 0..g.n_nodes() {
            for j in 0..g.n_nodes() {
                assert_eq!(
                    loaded.distance(i, j).to_bits(),
                    fresh.distance(i, j).to_bits(),
                    "distance({i}, {j})"
                );
            }
        }
        let stats = loaded.build_stats().expect("loaded oracles keep stats");
        assert_eq!(stats.build_secs, 0.0);
    }

    #[test]
    fn exact_round_trips_bit_identically() {
        // Two blocks keep the components whole; three split the first.
        for blocks in [2, 3] {
            round_trip(&EngineOptions::Exact, PartitionSpec { blocks });
        }
    }

    /// A partitioned embedding request builds the monolithic embedding,
    /// whose artifact decodes through the monolithic fallback.
    #[test]
    fn embedding_round_trips_bit_identically() {
        round_trip(
            &EngineOptions::Approximate(EmbeddingOptions {
                k: 10,
                ..Default::default()
            }),
            PartitionSpec { blocks: 2 },
        );
    }

    #[test]
    fn monolithic_fallback_artifacts_decode_too() {
        let g = graph();
        let spec = PartitionSpec { blocks: 2 };
        let o = PartitionedOracle::build(&g, &EngineOptions::Corrected, spec, 1).unwrap();
        let loaded = decode_oracle(&o.to_store_bytes()).unwrap();
        assert_eq!(loaded.kind(), o.kind());
        assert_eq!(loaded.distance(0, 6).to_bits(), o.distance(0, 6).to_bits());
    }

    #[test]
    fn damaged_artifacts_error_instead_of_panicking() {
        let g = graph();
        let spec = PartitionSpec { blocks: 3 };
        let bytes = PartitionedOracle::build(&g, &EngineOptions::Exact, spec, 1)
            .unwrap()
            .to_store_bytes();
        for cut in 0..bytes.len().min(96) {
            assert!(decode_oracle(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(decode_oracle(&extended).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[12] = 9;
        assert!(decode_oracle(&bad_tag).is_err());
        let mut bad_version = bytes;
        bad_version[8] = 42;
        assert!(decode_oracle(&bad_version).is_err());
    }

    #[test]
    fn old_partitioned_embedding_artifacts_are_rejected() {
        // A tag-2 artifact as older builds wrote it: header, then n,
        // volume, block count, boundary edges, k and n·k coordinates.
        let (n, k) = (3u64, 2u64);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(PART_MAGIC);
        bytes.extend_from_slice(&PART_FORMAT_VERSION.to_le_bytes());
        bytes.push(2);
        put_u64(&mut bytes, n);
        put_f64(&mut bytes, 4.0);
        put_u64(&mut bytes, 2);
        put_u64(&mut bytes, 1);
        put_u64(&mut bytes, k);
        put_f64s(&mut bytes, &[0.5; 6]);
        match decode_oracle(&bytes) {
            Err(GraphError::InvalidInput(msg)) => {
                assert!(msg.contains("tag 2"), "{msg}");
            }
            Err(other) => panic!("wrong error kind: {other:?}"),
            Ok(_) => panic!("a tag-2 artifact must not decode"),
        }
    }
}
