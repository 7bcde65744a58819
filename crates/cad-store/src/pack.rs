//! The `.cadpack` wire format.
//!
//! Layout (all multi-byte integers little-endian unless varint):
//!
//! ```text
//! magic    8 bytes   "CADPACK\0"
//! version  u32       format version (currently 1)
//! count    u32       number of sections that follow
//! section  repeated  tag u8 · len u32 · payload[len] · crc u32
//! ```
//!
//! The CRC-32 of each section covers its tag and length bytes as well
//! as the payload, so a flip anywhere inside a section is caught by the
//! checksum; flips in the magic, version or count fail structural
//! validation (bad magic / unsupported version / truncation / trailing
//! bytes). Sections appear in fixed order: one **meta** (tag 1), one
//! **base snapshot** (tag 2), then exactly `n_instances − 1` **delta**
//! sections (tag 3), one per transition.
//!
//! Edge lists are stored sorted by `(u, v)` with `u < v` and encoded as
//! consecutive deltas: `du = u − prev_u` as an unsigned varint (the
//! list is sorted, so never negative) and `dv = v − prev_v` as a
//! zigzag varint (`v` can fall when `u` advances). Weights are the raw
//! IEEE-754 bits as 8 little-endian bytes — decoding reproduces the
//! exact `f64`s the writer saw, which is what makes pack→load→score
//! bit-identical to parse→build→score. In delta sections a weight of
//! exactly `+0.0` (bit pattern 0) marks edge removal; live graphs never
//! store zero-weight edges, so the marker is unambiguous.

use crate::crc::crc32;
use crate::varint::{read_i64, read_u64, write_i64, write_u64};
use crate::{Result, StoreError};
use cad_graph::{GraphSequence, WeightedGraph};
use std::collections::BTreeMap;
use std::path::Path;

/// File magic, 8 bytes.
pub const MAGIC: &[u8; 8] = b"CADPACK\0";
/// Current wire-format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_META: u8 = 1;
const TAG_BASE: u8 = 2;
const TAG_DELTA: u8 = 3;

/// Identity of a packed sequence (the meta section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackMeta {
    /// Nodes per instance.
    pub n_nodes: usize,
    /// Graph instances in the sequence.
    pub n_instances: usize,
    /// Free-form label recorded at pack time (dataset name etc.).
    pub label: String,
}

/// Summary of a pack file, as printed by `cad inspect`.
#[derive(Debug, Clone)]
pub struct PackInfo {
    /// Declared wire-format version.
    pub version: u32,
    /// The meta section.
    pub meta: PackMeta,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Edges in the base snapshot.
    pub base_edges: usize,
    /// Changed-edge entries per transition delta, in order.
    pub delta_edges: Vec<usize>,
}

// ---------------------------------------------------------------------
// Edge-list encoding (shared by base, deltas, and cache keys)
// ---------------------------------------------------------------------

fn encode_edges(out: &mut Vec<u8>, edges: &[(usize, usize, f64)]) {
    write_u64(out, edges.len() as u64);
    let (mut pu, mut pv) = (0u64, 0i64);
    for &(u, v, w) in edges {
        let (u, v) = (u as u64, v as u64);
        write_u64(out, u - pu);
        write_i64(out, v as i64 - pv);
        out.extend_from_slice(&w.to_bits().to_le_bytes());
        pu = u;
        pv = v as i64;
    }
}

fn decode_edges(buf: &mut &[u8], what: &str) -> Result<Vec<(usize, usize, f64)>> {
    let n = read_u64(buf)?;
    // Each edge takes ≥ 10 bytes (two 1-byte varints + 8 weight bytes),
    // so a count the remaining payload cannot hold is corruption — and
    // bounding it here keeps `with_capacity` from over-allocating on
    // hostile input.
    if n > buf.len() as u64 / 10 {
        return Err(StoreError::corrupt(format!(
            "{what}: edge count {n} exceeds payload capacity"
        )));
    }
    let mut edges = Vec::with_capacity(n as usize);
    let (mut pu, mut pv) = (0u64, 0i64);
    let mut prev: Option<(u64, u64)> = None;
    for i in 0..n {
        let u = pu
            .checked_add(read_u64(buf)?)
            .ok_or_else(|| StoreError::corrupt(format!("{what}: edge {i} node overflow")))?;
        let v = pv
            .checked_add(read_i64(buf)?)
            .ok_or_else(|| StoreError::corrupt(format!("{what}: edge {i} node overflow")))?;
        if v < 1 {
            return Err(StoreError::corrupt(format!(
                "{what}: edge {i} endpoint v={v} below 1"
            )));
        }
        let v = v as u64;
        if u >= v {
            return Err(StoreError::corrupt(format!(
                "{what}: edge {i} not upper-triangular (u={u}, v={v})"
            )));
        }
        if let Some(p) = prev {
            if (u, v) <= p {
                return Err(StoreError::corrupt(format!(
                    "{what}: edge {i} out of (u, v) order"
                )));
            }
        }
        prev = Some((u, v));
        if buf.len() < 8 {
            return Err(StoreError::corrupt(format!(
                "{what}: truncated weight at edge {i}"
            )));
        }
        let (raw, rest) = buf.split_at(8);
        *buf = rest;
        let w = f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes")));
        edges.push((u as usize, v as usize, w));
        pu = u;
        pv = v as i64;
    }
    Ok(edges)
}

/// Canonical bytes of one snapshot: node count plus the sorted
/// raw-bits edge encoding above. This is the graph component of the
/// oracle-cache key — two graphs share it iff they have identical
/// topology and bit-identical weights.
pub fn snapshot_bytes(g: &WeightedGraph) -> Vec<u8> {
    let edges: Vec<_> = g.edges().collect();
    let mut out = Vec::with_capacity(16 + 10 * edges.len());
    write_u64(&mut out, g.n_nodes() as u64);
    encode_edges(&mut out, &edges);
    out
}

// ---------------------------------------------------------------------
// Delta computation / application
// ---------------------------------------------------------------------

/// Changed edges from `old` to `new`: entries `(u, v, w_new)` with
/// `w_new = +0.0` marking removal. Both inputs iterate sorted.
fn diff_edges(old: &WeightedGraph, new: &WeightedGraph) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let mut a = old.edges().peekable();
    let mut b = new.edges().peekable();
    loop {
        match (a.peek().copied(), b.peek().copied()) {
            (Some((ou, ov, _)), Some((nu, nv, nw))) => {
                use std::cmp::Ordering::*;
                match (ou, ov).cmp(&(nu, nv)) {
                    Less => {
                        out.push((ou, ov, 0.0));
                        a.next();
                    }
                    Greater => {
                        out.push((nu, nv, nw));
                        b.next();
                    }
                    Equal => {
                        let ow = a.next().expect("peeked").2;
                        b.next();
                        if ow.to_bits() != nw.to_bits() {
                            out.push((nu, nv, nw));
                        }
                    }
                }
            }
            (Some((ou, ov, _)), None) => {
                out.push((ou, ov, 0.0));
                a.next();
            }
            (None, Some((nu, nv, nw))) => {
                out.push((nu, nv, nw));
                b.next();
            }
            (None, None) => break,
        }
    }
    out
}

fn apply_delta(
    edges: &mut BTreeMap<(usize, usize), u64>,
    delta: &[(usize, usize, f64)],
    t: usize,
) -> Result<()> {
    for &(u, v, w) in delta {
        let bits = w.to_bits();
        if bits == 0 {
            if edges.remove(&(u, v)).is_none() {
                return Err(StoreError::corrupt(format!(
                    "delta {t}: removes absent edge ({u}, {v})"
                )));
            }
        } else {
            edges.insert((u, v), bits);
        }
    }
    Ok(())
}

/// Encode the changed edges from `old` to `new` as a standalone
/// edge-delta body (the same varint/zigzag/raw-bits wire encoding used
/// by in-pack delta sections, without section framing). A weight of
/// exactly `+0.0` marks removal. This is the payload format the
/// `cad serve` snapshot endpoint accepts as a `.cadpack` delta.
pub fn encode_edge_delta(old: &WeightedGraph, new: &WeightedGraph) -> Vec<u8> {
    let delta = diff_edges(old, new);
    let mut out = Vec::with_capacity(8 + 10 * delta.len());
    encode_edges(&mut out, &delta);
    out
}

/// Decode a standalone edge-delta body produced by
/// [`encode_edge_delta`] (or any writer of the same wire encoding).
/// Rejects trailing bytes and all the structural corruption the
/// in-pack decoder rejects.
pub fn decode_edge_delta(bytes: &[u8]) -> Result<Vec<(usize, usize, f64)>> {
    let mut buf = bytes;
    let delta = decode_edges(&mut buf, "edge delta")?;
    if !buf.is_empty() {
        return Err(StoreError::corrupt(format!(
            "edge delta: {} trailing bytes",
            buf.len()
        )));
    }
    Ok(delta)
}

/// Apply a decoded edge delta to `base`, producing the next snapshot.
/// Entries with weight `+0.0` remove the named edge (an error if it is
/// absent); all other entries insert or overwrite. Endpoints at or
/// beyond `base.n_nodes()` surface as a [`StoreError::Graph`] from
/// reassembly, never a panic.
pub fn apply_edge_delta(
    base: &WeightedGraph,
    delta: &[(usize, usize, f64)],
) -> Result<WeightedGraph> {
    let mut edges: BTreeMap<(usize, usize), u64> = base
        .edges()
        .map(|(u, v, w)| ((u, v), w.to_bits()))
        .collect();
    apply_delta(&mut edges, delta, 0)?;
    let list: Vec<_> = edges
        .iter()
        .map(|(&(u, v), &bits)| (u, v, f64::from_bits(bits)))
        .collect();
    Ok(WeightedGraph::from_edges(base.n_nodes(), &list)?)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Serialize a sequence to `.cadpack` bytes.
pub fn encode_pack(seq: &GraphSequence, label: &str) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    let n_sections = 2 + seq.n_transitions() as u32;
    out.extend_from_slice(&n_sections.to_le_bytes());

    let mut meta = Vec::new();
    write_u64(&mut meta, seq.n_nodes() as u64);
    write_u64(&mut meta, seq.len() as u64);
    write_u64(&mut meta, label.len() as u64);
    meta.extend_from_slice(label.as_bytes());
    push_section(&mut out, TAG_META, &meta);

    let graphs = seq.graphs();
    let base: Vec<_> = graphs[0].edges().collect();
    let mut payload = Vec::new();
    encode_edges(&mut payload, &base);
    push_section(&mut out, TAG_BASE, &payload);

    for pair in graphs.windows(2) {
        let delta = diff_edges(&pair[0], &pair[1]);
        let mut payload = Vec::new();
        encode_edges(&mut payload, &delta);
        push_section(&mut out, TAG_DELTA, &payload);
    }
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Section<'a> {
    tag: u8,
    payload: &'a [u8],
}

/// Split validated sections out of a pack image, checking magic,
/// version, counts, CRCs, truncation and trailing bytes.
fn split_sections(bytes: &[u8]) -> Result<(u32, Vec<Section<'_>>)> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < 16 {
        return Err(StoreError::corrupt("truncated header"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let mut rest = &bytes[16..];
    let mut sections = Vec::new();
    for s in 0..count {
        if rest.len() < 5 {
            return Err(StoreError::corrupt(format!(
                "section {s}: truncated header"
            )));
        }
        let tag = rest[0];
        let len = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        let total = 5usize
            .checked_add(len)
            .and_then(|t| t.checked_add(4))
            .filter(|&t| t <= rest.len())
            .ok_or_else(|| StoreError::corrupt(format!("section {s}: truncated body")))?;
        let stored = u32::from_le_bytes(rest[5 + len..total].try_into().expect("4 bytes"));
        let computed = crc32(&rest[..5 + len]);
        if stored != computed {
            return Err(StoreError::corrupt(format!(
                "section {s}: CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        sections.push(Section {
            tag,
            payload: &rest[5..5 + len],
        });
        rest = &rest[total..];
    }
    if !rest.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after last section",
            rest.len()
        )));
    }
    Ok((version, sections))
}

fn decode_meta(payload: &[u8]) -> Result<PackMeta> {
    let mut buf = payload;
    let n_nodes = read_u64(&mut buf)?;
    let n_instances = read_u64(&mut buf)?;
    let label_len = read_u64(&mut buf)? as usize;
    if buf.len() != label_len {
        return Err(StoreError::corrupt("meta: label length mismatch"));
    }
    let label = std::str::from_utf8(buf)
        .map_err(|_| StoreError::corrupt("meta: label is not UTF-8"))?
        .to_string();
    if n_instances < 2 {
        return Err(StoreError::corrupt(format!(
            "meta: a sequence needs ≥ 2 instances, found {n_instances}"
        )));
    }
    if n_nodes == 0 || n_nodes > (1 << 32) {
        return Err(StoreError::corrupt(format!(
            "meta: implausible node count {n_nodes}"
        )));
    }
    Ok(PackMeta {
        n_nodes: n_nodes as usize,
        n_instances: n_instances as usize,
        label,
    })
}

fn expect_tag(s: &Section<'_>, want: u8, what: &str) -> Result<()> {
    if s.tag != want {
        return Err(StoreError::corrupt(format!(
            "expected {what} section (tag {want}), found tag {}",
            s.tag
        )));
    }
    Ok(())
}

/// One decoded edge list per section: the base snapshot first, then
/// one list per delta.
type EdgeLists = Vec<Vec<(usize, usize, f64)>>;

fn decode_structure(bytes: &[u8]) -> Result<(PackMeta, EdgeLists)> {
    let (_, sections) = split_sections(bytes)?;
    if sections.len() < 2 {
        return Err(StoreError::corrupt(format!(
            "need ≥ 2 sections (meta + base), found {}",
            sections.len()
        )));
    }
    expect_tag(&sections[0], TAG_META, "meta")?;
    let meta = decode_meta(sections[0].payload)?;
    if sections.len() != 1 + meta.n_instances {
        return Err(StoreError::corrupt(format!(
            "meta declares {} instances but file has {} sections",
            meta.n_instances,
            sections.len()
        )));
    }
    expect_tag(&sections[1], TAG_BASE, "base snapshot")?;
    let mut lists = Vec::with_capacity(meta.n_instances);
    for (i, s) in sections[1..].iter().enumerate() {
        let what = if i == 0 {
            "base snapshot".to_string()
        } else {
            expect_tag(s, TAG_DELTA, "delta")?;
            format!("delta {}", i - 1)
        };
        let mut buf = s.payload;
        let edges = decode_edges(&mut buf, &what)?;
        if !buf.is_empty() {
            return Err(StoreError::corrupt(format!(
                "{what}: {} trailing payload bytes",
                buf.len()
            )));
        }
        lists.push(edges);
    }
    Ok((meta, lists))
}

/// Decode `.cadpack` bytes back into the graph sequence.
pub fn decode_pack(bytes: &[u8]) -> Result<GraphSequence> {
    let (meta, lists) = decode_structure(bytes)?;
    let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for &(u, v, w) in &lists[0] {
        if w.to_bits() == 0 {
            return Err(StoreError::corrupt(format!(
                "base snapshot: zero-weight edge ({u}, {v})"
            )));
        }
        edges.insert((u, v), w.to_bits());
    }
    let assemble = |edges: &BTreeMap<(usize, usize), u64>| -> Result<WeightedGraph> {
        let list: Vec<_> = edges
            .iter()
            .map(|(&(u, v), &bits)| (u, v, f64::from_bits(bits)))
            .collect();
        Ok(WeightedGraph::from_edges(meta.n_nodes, &list)?)
    };
    let mut graphs = Vec::with_capacity(meta.n_instances);
    graphs.push(assemble(&edges)?);
    for (t, delta) in lists[1..].iter().enumerate() {
        apply_delta(&mut edges, delta, t)?;
        graphs.push(assemble(&edges)?);
    }
    Ok(GraphSequence::new(graphs)?)
}

/// Decode only the structure (meta + per-section sizes), skipping graph
/// reconstruction. All validation still runs.
pub fn inspect_bytes(bytes: &[u8]) -> Result<PackInfo> {
    let (meta, lists) = decode_structure(bytes)?;
    Ok(PackInfo {
        version: FORMAT_VERSION,
        base_edges: lists[0].len(),
        delta_edges: lists[1..].iter().map(Vec::len).collect(),
        file_bytes: bytes.len() as u64,
        meta,
    })
}

// ---------------------------------------------------------------------
// File I/O (instrumented)
// ---------------------------------------------------------------------

fn read_instrumented(path: &Path) -> Result<Vec<u8>> {
    let (bytes, secs) = cad_obs::time_it(|| std::fs::read(path));
    cad_obs::observe(cad_obs::Hist::PackIoSecs, secs);
    let bytes = bytes?;
    cad_obs::count(cad_obs::Counter::StoreBytesRead, bytes.len() as u64);
    Ok(bytes)
}

/// Write `seq` to `path` as a `.cadpack` file.
pub fn write_pack(path: &Path, seq: &GraphSequence, label: &str) -> Result<u64> {
    let bytes = encode_pack(seq, label);
    let (res, secs) = cad_obs::time_it(|| std::fs::write(path, &bytes));
    cad_obs::observe(cad_obs::Hist::PackIoSecs, secs);
    res?;
    Ok(bytes.len() as u64)
}

/// Read and validate the `.cadpack` file at `path`.
pub fn read_pack(path: &Path) -> Result<GraphSequence> {
    decode_pack(&read_instrumented(path)?)
}

/// Validate the `.cadpack` file at `path` and summarize it.
pub fn inspect_pack(path: &Path) -> Result<PackInfo> {
    inspect_bytes(&read_instrumented(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sequence() -> GraphSequence {
        let g = |bridge: f64| {
            let mut edges = vec![
                (0, 1, 3.0),
                (0, 2, 3.5),
                (1, 2, 3.0),
                (3, 4, 2.0),
                (3, 5, 2.25),
                (4, 5, 2.0),
                (2, 3, 0.2),
            ];
            if bridge > 0.0 {
                edges.push((0, 5, bridge));
            }
            WeightedGraph::from_edges(6, &edges).unwrap()
        };
        GraphSequence::new(vec![g(0.0), g(0.0), g(1.5), g(0.0)]).unwrap()
    }

    fn bit_identical(a: &GraphSequence, b: &GraphSequence) -> bool {
        a.len() == b.len()
            && a.n_nodes() == b.n_nodes()
            && a.graphs().iter().zip(b.graphs()).all(|(x, y)| {
                let xe: Vec<_> = x.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
                let ye: Vec<_> = y.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
                xe == ye
            })
    }

    #[test]
    fn encode_decode_round_trip_is_bit_identical() {
        let seq = sample_sequence();
        let bytes = encode_pack(&seq, "sample");
        let back = decode_pack(&bytes).unwrap();
        assert!(bit_identical(&seq, &back));
    }

    #[test]
    fn subnormal_and_extreme_weights_survive() {
        let g1 = WeightedGraph::from_edges(3, &[(0, 1, f64::MIN_POSITIVE / 4.0), (1, 2, 1.0e300)])
            .unwrap();
        let g2 = WeightedGraph::from_edges(3, &[(0, 1, 0.1 + 0.2), (1, 2, 1.0e-300)]).unwrap();
        let seq = GraphSequence::new(vec![g1, g2]).unwrap();
        let back = decode_pack(&encode_pack(&seq, "")).unwrap();
        assert!(bit_identical(&seq, &back));
    }

    #[test]
    fn deltas_are_actually_sparse() {
        let seq = sample_sequence();
        let info = inspect_bytes(&encode_pack(&seq, "sample")).unwrap();
        assert_eq!(info.base_edges, 7);
        // Transitions only add/remove the one bridge edge.
        assert_eq!(info.delta_edges, vec![0, 1, 1]);
        assert_eq!(info.meta.label, "sample");
        assert_eq!(info.meta.n_nodes, 6);
        assert_eq!(info.meta.n_instances, 4);
    }

    #[test]
    fn inspect_matches_file_io_round_trip() {
        let dir = std::env::temp_dir().join("cad-store-pack-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.cadpack");
        let seq = sample_sequence();
        let written = write_pack(&path, &seq, "fileio").unwrap();
        let info = inspect_pack(&path).unwrap();
        assert_eq!(info.file_bytes, written);
        assert_eq!(info.meta.label, "fileio");
        let back = read_pack(&path).unwrap();
        assert!(bit_identical(&seq, &back));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let seq = sample_sequence();
        let bytes = encode_pack(&seq, "x");
        let original = decode_pack(&bytes).unwrap();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                // Must error — never panic, never silently return a
                // different (or even identical-looking) sequence.
                match decode_pack(&mutated) {
                    Err(_) => {}
                    Ok(decoded) => panic!(
                        "flip byte {i} bit {bit} went undetected (decoded {} instances, bit-identical: {})",
                        decoded.len(),
                        bit_identical(&original, &decoded)
                    ),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let bytes = encode_pack(&sample_sequence(), "x");
        for cut in 0..bytes.len() {
            assert!(
                decode_pack(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_pack(&extended).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_specific_errors() {
        let bytes = encode_pack(&sample_sequence(), "x");
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            decode_pack(&wrong_magic),
            Err(StoreError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 99;
        assert!(matches!(
            decode_pack(&wrong_version),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn edge_delta_round_trip_reproduces_the_next_snapshot() {
        let seq = sample_sequence();
        let graphs = seq.graphs();
        for pair in graphs.windows(2) {
            let body = encode_edge_delta(&pair[0], &pair[1]);
            let delta = decode_edge_delta(&body).unwrap();
            let next = apply_edge_delta(&pair[0], &delta).unwrap();
            let want: Vec<_> = pair[1]
                .edges()
                .map(|(u, v, w)| (u, v, w.to_bits()))
                .collect();
            let got: Vec<_> = next.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
            assert_eq!(want, got);
        }
    }

    #[test]
    fn edge_delta_rejects_trailing_bytes_and_absent_removal() {
        let seq = sample_sequence();
        let graphs = seq.graphs();
        let mut body = encode_edge_delta(&graphs[1], &graphs[2]);
        body.push(0);
        assert!(decode_edge_delta(&body).is_err());
        // Removing an edge the base does not have is corruption, not a
        // silent no-op.
        let absent = vec![(0usize, 4usize, 0.0f64)];
        assert!(apply_edge_delta(&graphs[0], &absent).is_err());
    }

    #[test]
    fn edge_delta_with_out_of_range_endpoint_is_a_graph_error() {
        let seq = sample_sequence();
        let g = &seq.graphs()[0]; // 6 nodes
        let delta = vec![(5usize, 9usize, 1.25f64)];
        assert!(matches!(
            apply_edge_delta(g, &delta),
            Err(StoreError::Graph(_))
        ));
    }

    #[test]
    fn snapshot_bytes_distinguishes_weight_bits() {
        let a = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let b = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let c = WeightedGraph::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0 + 1e-15)]).unwrap();
        assert_eq!(snapshot_bytes(&a), snapshot_bytes(&b));
        assert_ne!(snapshot_bytes(&a), snapshot_bytes(&c));
    }
}
