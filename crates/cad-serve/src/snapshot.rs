//! The JSON snapshot decoder shared by the serve snapshot endpoint and
//! `cad watch`'s stdin stream.
//!
//! A snapshot is `{"nodes": N, "edges": [[u, v, w], ...]}`. The decoder
//! walks the body once with the [`cad_obs::json::Reader`] and collects
//! the edge list directly, with no [`cad_obs::Json`] tree. It keeps the
//! tree decoder's rules:
//!
//! * the first occurrence of a key wins; later ones, and unknown keys,
//!   are skipped but still syntax-checked;
//! * endpoints follow [`cad_obs::Json::as_u64`] (an integral `f64`, so
//!   `3.0` and `3e0` are node 3), and weights are the `f64` the token
//!   parses to;
//! * a syntax error anywhere wins over a bad `nodes`, which wins over a
//!   bad `edges` (the lowest bad index first), which wins over the
//!   graph errors [`WeightedGraph::from_edges`] raises.

use cad_graph::{GraphError, WeightedGraph};
use cad_obs::json::{Kind, Reader};
use cad_obs::Json;

/// One `[u, v, w]` triple.
type Edge = (usize, usize, f64);

/// A shape check's verdict: the value, or the message naming why the
/// snapshot is misshapen. Syntax errors travel in the outer `Result`.
type Shape<T> = Result<T, String>;

/// Why a JSON snapshot was refused.
#[derive(Debug)]
pub enum SnapshotError {
    /// Not a well-formed snapshot: not UTF-8, not JSON, or the wrong
    /// shape (`400 bad_request`).
    Malformed(String),
    /// Well-formed, but not a valid graph for the stream (`422`, code
    /// from [`crate::graph_error_code`]).
    Graph(GraphError),
}

/// Decode a JSON edge-list snapshot. With `nodes = Some(n)` (a serve
/// session) the body's `nodes` may be omitted and must equal `n` when
/// present; with `None` (`cad watch`) it is required.
pub fn decode_snapshot(body: &[u8], nodes: Option<usize>) -> Result<WeightedGraph, SnapshotError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| SnapshotError::Malformed("snapshot body is not UTF-8".into()))?;
    let syntax = |e: String| SnapshotError::Malformed(format!("snapshot is not JSON: {e}"));
    let mut r = Reader::new(text);
    // `Some(None)`: `nodes` is present but not a non-negative integer.
    let mut n_field: Option<Option<u64>> = None;
    // `Some(Err(message))`: `edges` is present but misshapen.
    let mut edges: Option<Shape<Vec<Edge>>> = None;
    if r.peek().map_err(syntax)? == Kind::Object {
        r.begin_object().map_err(syntax)?;
        while let Some(key) = r.next_key().map_err(syntax)? {
            match &*key {
                "nodes" if n_field.is_none() => {
                    n_field = Some(match r.peek().map_err(syntax)? {
                        Kind::Number => Json::Num(r.number().map_err(syntax)?).as_u64(),
                        _ => {
                            r.skip_value().map_err(syntax)?;
                            None
                        }
                    });
                }
                "edges" if edges.is_none() => edges = Some(read_edges(&mut r).map_err(syntax)?),
                _ => r.skip_value().map_err(syntax)?,
            }
        }
    } else {
        r.skip_value().map_err(syntax)?;
    }
    r.finish().map_err(syntax)?;

    let n = match (n_field, nodes) {
        (Some(Some(n)), _) => n as usize,
        (Some(None), _) => {
            return Err(SnapshotError::Malformed(
                "`nodes` must be a non-negative integer".into(),
            ))
        }
        (None, Some(n)) => n,
        (None, None) => {
            return Err(SnapshotError::Malformed(
                "snapshot needs a `nodes` integer".into(),
            ))
        }
    };
    if let Some(expected) = nodes.filter(|&e| e != n) {
        return Err(SnapshotError::Graph(GraphError::MixedNodeCounts {
            expected,
            found: n,
            at: 0,
        }));
    }
    let edges = edges
        .unwrap_or_else(|| Err("snapshot needs an `edges` array".into()))
        .map_err(SnapshotError::Malformed)?;
    WeightedGraph::from_edges(n, &edges).map_err(SnapshotError::Graph)
}

/// Read the `edges` value: the triples, or the message for the first
/// misshapen one. Only syntax errors are `Err`.
fn read_edges(r: &mut Reader) -> Result<Shape<Vec<Edge>>, String> {
    if r.peek()? != Kind::Array {
        r.skip_value()?;
        return Ok(Err("snapshot needs an `edges` array".into()));
    }
    r.begin_array()?;
    let mut edges = Vec::new();
    let mut bad = None;
    while r.next_element()? {
        if bad.is_some() {
            r.skip_value()?;
            continue;
        }
        match read_triple(r, edges.len())? {
            Ok(e) => edges.push(e),
            Err(message) => bad = Some(message),
        }
    }
    Ok(bad.map_or(Ok(edges), Err))
}

/// Read element `i` of `edges`: the triple, or the message for why it
/// is not one. Only syntax errors are `Err`.
fn read_triple(r: &mut Reader, i: usize) -> Result<Shape<Edge>, String> {
    let mut values = [None; 3];
    let mut len = 0;
    if r.peek()? == Kind::Array {
        r.begin_array()?;
        while r.next_element()? {
            match values.get_mut(len) {
                Some(slot) if r.peek()? == Kind::Number => *slot = Some(r.number()?),
                _ => r.skip_value()?,
            }
            len += 1;
        }
    } else {
        r.skip_value()?;
    }
    if len != 3 {
        return Ok(Err(format!("edges[{i}] is not a [u, v, w] triple")));
    }
    let node = |x: Option<f64>| x.and_then(|x| Json::Num(x).as_u64());
    let (Some(u), Some(v)) = (node(values[0]), node(values[1])) else {
        return Ok(Err(format!("edges[{i}] endpoint not an integer")));
    };
    let Some(w) = values[2] else {
        return Ok(Err(format!("edges[{i}] weight not a number")));
    };
    Ok(Ok((u as usize, v as usize, w)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What a client sees: the graph's bits, or `(status, code,
    /// message)`.
    type Outcome = Result<(usize, Vec<(usize, usize, u64)>), (u16, String, String)>;

    fn outcome(r: Result<WeightedGraph, SnapshotError>) -> Outcome {
        match r {
            Ok(g) => Ok((
                g.n_nodes(),
                g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect(),
            )),
            Err(SnapshotError::Malformed(m)) => Err((400, "bad_request".into(), m)),
            Err(SnapshotError::Graph(e)) => {
                let (status, code) = crate::graph_error_code(&e);
                Err((status, code.into(), e.to_string()))
            }
        }
    }

    /// The tree-based decoder the snapshot endpoint used before
    /// [`decode_snapshot`]: kept here only as the reference.
    fn reference(body: &[u8], nodes: Option<usize>) -> Result<WeightedGraph, SnapshotError> {
        let bad = |m: &str| SnapshotError::Malformed(m.to_string());
        let text = std::str::from_utf8(body).map_err(|_| bad("snapshot body is not UTF-8"))?;
        let v = cad_obs::parse_json(text)
            .map_err(|e| SnapshotError::Malformed(format!("snapshot is not JSON: {e}")))?;
        let n = match (v.get("nodes"), nodes) {
            (Some(j), _) => j
                .as_u64()
                .ok_or_else(|| bad("`nodes` must be a non-negative integer"))?
                as usize,
            (None, Some(n)) => n,
            (None, None) => return Err(bad("snapshot needs a `nodes` integer")),
        };
        if let Some(expected) = nodes.filter(|&e| e != n) {
            return Err(SnapshotError::Graph(GraphError::MixedNodeCounts {
                expected,
                found: n,
                at: 0,
            }));
        }
        let arr = v
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("snapshot needs an `edges` array"))?;
        let mut edges = Vec::with_capacity(arr.len());
        for (i, e) in arr.iter().enumerate() {
            let triple = e
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| bad(&format!("edges[{i}] is not a [u, v, w] triple")))?;
            let u = triple[0]
                .as_u64()
                .ok_or_else(|| bad(&format!("edges[{i}] endpoint not an integer")))?;
            let v2 = triple[1]
                .as_u64()
                .ok_or_else(|| bad(&format!("edges[{i}] endpoint not an integer")))?;
            let w = triple[2]
                .as_f64()
                .ok_or_else(|| bad(&format!("edges[{i}] weight not a number")))?;
            edges.push((u as usize, v2 as usize, w));
        }
        WeightedGraph::from_edges(n, &edges).map_err(SnapshotError::Graph)
    }

    /// SplitMix64: the documents below are drawn from one seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// True with probability `1 / n`.
        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }
    }

    fn ws(r: &mut Rng) -> &'static str {
        r.pick(&["", "", "", " ", "  ", "\n", "\t", "\r\n "])
    }

    /// An integer spelled one of the ways JSON allows for the same
    /// `f64`.
    fn int(r: &mut Rng, k: usize) -> String {
        match r.below(6) {
            0 => format!("{k}.0"),
            1 => format!("{k}e0"),
            2 => format!("{k}0e-1"),
            3 if k == 0 => "-0".to_string(),
            4 => format!("{k}.000E+0"),
            _ => k.to_string(),
        }
    }

    fn weight(r: &mut Rng) -> String {
        let w = (r.next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0 + 1e-3;
        match r.below(40) {
            0..=5 => format!("{w:e}"),
            6..=11 => format!("{w:.25}"),
            12 => "1e400".to_string(),
            13 => "-2.5".to_string(),
            14..=17 => "3".to_string(),
            _ => format!("{w:?}"),
        }
    }

    /// A syntactically valid value of any shape, for unknown keys and
    /// shadowed duplicates.
    fn junk(r: &mut Rng, depth: usize) -> String {
        match r.below(if depth > 3 { 5 } else { 7 }) {
            0 => "null".into(),
            1 => r.pick(&["true", "false"]).into(),
            2 => r.pick(&["-1.5e3", "0", "7", "2.5"]).into(),
            3 => r
                .pick(&[r#""""#, r#""edges""#, r#""a\"b\\cA\n""#, "\"é ✓\""])
                .into(),
            4 => "[]".into(),
            5 => {
                let items: Vec<String> = (0..r.below(4)).map(|_| junk(r, depth + 1)).collect();
                format!("[{}]", items.join(&format!(",{}", ws(r))))
            }
            _ => {
                let items: Vec<String> = (0..r.below(4))
                    .map(|_| format!("\"k\"{}:{}{}", ws(r), ws(r), junk(r, depth + 1)))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }

    /// One snapshot body for a session of `session` nodes: usually
    /// valid, sometimes with one shape or graph defect.
    fn document(r: &mut Rng, session: usize) -> String {
        let n = if r.one_in(12) { session + 1 } else { session };
        let nodes_value = match r.below(20) {
            0 => r.pick(&["2.5", "-1", "\"4\"", "null", "[4]"]).to_string(),
            _ => int(r, n),
        };
        let mut edge_items = Vec::new();
        for i in 0..r.below(10) {
            let (u, v) = (r.below(n), r.below(n));
            let (u, v) = if u == v && !r.one_in(10) {
                (u, (u + 1) % n)
            } else {
                (u, v)
            };
            let mut parts = vec![int(r, u), int(r, v), weight(r)];
            if r.one_in(25) {
                let slot = r.below(3);
                parts[slot] = r
                    .pick(&["1.5", "-1", "\"x\"", "[1]", "null", "1e300"])
                    .into();
            }
            if r.one_in(30) {
                parts[r.below(2)] = int(r, n + 3);
            }
            if r.one_in(40) {
                if r.one_in(2) {
                    parts.pop();
                } else {
                    parts.push("0".into());
                }
            }
            let sep = format!("{},{}", ws(r), ws(r));
            edge_items.push(if r.one_in(60) && i > 0 {
                "{}".to_string()
            } else {
                format!("[{}{}{}]", ws(r), parts.join(&sep), ws(r))
            });
        }
        let edges_value = if r.one_in(25) {
            r.pick(&["{}", "3", "null"]).to_string()
        } else {
            format!(
                "[{}{}{}]",
                ws(r),
                edge_items.join(&format!(",{}", ws(r))),
                ws(r)
            )
        };
        let nodes_key = if r.one_in(10) {
            r#""no\u0064es""#
        } else {
            r#""nodes""#
        };
        let mut members = vec![(nodes_key.to_string(), nodes_value)];
        if r.one_in(15) {
            members.pop();
        }
        members.push(("\"edges\"".into(), edges_value));
        if r.one_in(2) {
            members.reverse();
        }
        // Unknown keys anywhere, and later duplicates that must lose.
        for _ in 0..r.below(4) {
            let key = r.pick(&[r#""label""#, r#""t""#, r#""Nodes""#, r#""edges ""#]);
            let at = r.below(members.len() + 1);
            members.insert(at, (key.to_string(), junk(r, 0)));
        }
        if r.one_in(4) {
            let key = r.pick(&[r#""nodes""#, r#""edges""#]);
            members.push((key.to_string(), junk(r, 0)));
        }
        let body: Vec<String> = members
            .into_iter()
            .map(|(k, v)| format!("{}{k}{}:{}{v}{}", ws(r), ws(r), ws(r), ws(r)))
            .collect();
        format!("{}{{{}}}{}", ws(r), body.join(","), ws(r))
    }

    /// A damaged copy: one byte replaced, or the body cut short.
    fn damage(r: &mut Rng, doc: &str) -> Vec<u8> {
        let mut bytes = doc.as_bytes().to_vec();
        let at = r.below(bytes.len());
        if r.one_in(3) {
            bytes.truncate(at);
        } else {
            let alphabet = b"{}[],:\"\\ 0123456789-+.eEtrunflsax\n\xff\xc3";
            bytes[at] = alphabet[r.below(alphabet.len())];
        }
        bytes
    }

    #[test]
    fn keys_order_whitespace_and_spellings_decode_like_the_tree() {
        let body = br#" {"label": {"edges": []}, "edges" : [[0, 1, 2.5], [1.0, 2e0, 1e-1]],
            "nodes": 3, "nodes": "ignored", "edges": 7 } "#;
        let g = decode_snapshot(body, Some(3)).unwrap();
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            vec![(0, 1, 2.5), (1, 2, 0.1)]
        );
        assert_eq!(
            outcome(decode_snapshot(body, Some(3))),
            outcome(reference(body, Some(3)))
        );
    }

    #[test]
    fn errors_keep_their_precedence() {
        let cases: [(&[u8], &str); 6] = [
            // A syntax error late in the body beats a bad `nodes` early.
            (
                br#"{"nodes": -1, "edges": [[0, 1, 1.0]], "x": tru}"#,
                "snapshot is not JSON",
            ),
            // A bad `nodes` after the edges beats a bad edge before it.
            (br#"{"edges": [[0, 1]], "nodes": 2.5}"#, "`nodes` must be"),
            (br#"{"edges": [[0, 1]], "nodes": 4}"#, "expected 3"),
            (
                br#"{"nodes": 3, "edges": [[0, 1, 1], [0, 9, "w"], [1]]}"#,
                "edges[1] weight",
            ),
            (br#"{"nodes": 3, "edges": [[0, 7, 1.0]]}"#, "7"),
            (b"{\"nodes\": 3, \"edges\": [[0, 1, 1.0]]}\xff", "not UTF-8"),
        ];
        for (body, needle) in cases {
            let got = outcome(decode_snapshot(body, Some(3)));
            assert_eq!(got, outcome(reference(body, Some(3))));
            let (_, _, message) = got.unwrap_err();
            assert!(message.contains(needle), "{message}");
        }
        // Without a session size (`cad watch`) `nodes` is required.
        let err = outcome(decode_snapshot(br#"{"edges": []}"#, None)).unwrap_err();
        assert_eq!(err.2, "snapshot needs a `nodes` integer");
    }

    #[test]
    fn generated_documents_are_mostly_valid() {
        let valid = (0..1000u64)
            .filter(|&seed| {
                decode_snapshot(document(&mut Rng(seed), 5).as_bytes(), Some(5)).is_ok()
            })
            .count();
        assert!((400..950).contains(&valid), "{valid} of 1000 valid");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn decoder_matches_the_tree_decoder(seed in 0u64..u64::MAX, session in 2usize..9) {
            let mut r = Rng(seed);
            let doc = document(&mut r, session);
            for nodes in [Some(session), None] {
                let (got, want) = (
                    outcome(decode_snapshot(doc.as_bytes(), nodes)),
                    outcome(reference(doc.as_bytes(), nodes)),
                );
                prop_assert!(got == want, "{doc}\n  got: {got:?}\n want: {want:?}");
            }
            let damaged = damage(&mut r, &doc);
            let (got, want) = (
                outcome(decode_snapshot(&damaged, Some(session))),
                outcome(reference(&damaged, Some(session))),
            );
            let text = String::from_utf8_lossy(&damaged);
            prop_assert!(got == want, "{text}\n  got: {got:?}\n want: {want:?}");
        }
    }
}
