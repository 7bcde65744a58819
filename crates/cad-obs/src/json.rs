//! A minimal JSON value, writer and parser.
//!
//! The observability layer must emit and re-read machine-readable run
//! reports without pulling in serde (the workspace is dependency-free by
//! policy). This module implements the subset of JSON the report schema
//! needs: objects preserve insertion order so emitted reports are
//! byte-stable for a given [`Json`] value, numbers are `f64` (with
//! integral values printed without a fractional part). One tokenizer,
//! the pull [`Reader`], reads the full JSON grammar with nesting capped
//! at [`MAX_DEPTH`] so hostile input cannot exhaust the stack; [`parse`]
//! builds a tree on it, and callers that know their schema (the serve
//! snapshot decoder) walk it directly without one.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order for stable output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key-value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key-value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number value as an unsigned integer, if integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize on a single line with no insignificant whitespace
    /// (for NDJSON event lines and HTTP bodies). Numbers print exactly
    /// as in [`Json::pretty`], so compact output round-trips the same
    /// bits.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Inf/NaN; encode as null (never produced by the
        // report builder, but keeps the writer total).
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        // 17 significant digits round-trips every f64 exactly.
        let _ = write!(out, "{v:.17e}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting a [`Reader`] (and so [`parse`])
/// accepts. [`parse`] and [`Reader::skip_value`] recurse once per
/// level, so deeper documents are rejected rather than allowed to
/// overflow a default-sized thread stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Errors carry a byte offset and description.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let value = read_value(&mut r)?;
    r.finish()?;
    Ok(value)
}

fn read_value(r: &mut Reader) -> Result<Json, String> {
    Ok(match r.peek()? {
        Kind::Object => {
            r.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = r.next_key()? {
                pairs.push((key.into_owned(), read_value(r)?));
            }
            Json::Obj(pairs)
        }
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_element()? {
                items.push(read_value(r)?);
            }
            Json::Arr(items)
        }
        Kind::String => Json::Str(r.string()?.into_owned()),
        Kind::Number => Json::Num(r.number()?),
        Kind::Bool => Json::Bool(r.bool()?),
        Kind::Null => {
            r.null()?;
            Json::Null
        }
    })
}

/// What the next value in a [`Reader`] is, judged by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `{`.
    Object,
    /// `[`.
    Array,
    /// `"`.
    String,
    /// `-` or a digit.
    Number,
    /// `t` or `f`.
    Bool,
    /// `n`.
    Null,
}

/// A pull reader over one JSON document: the caller walks the values
/// it wants and skips the rest, so no [`Json`] tree is built.
///
/// The protocol: [`Reader::peek`] names the next value; read it with
/// the matching method ([`Reader::number`], [`Reader::string`], ...),
/// skip it with [`Reader::skip_value`], or open it with
/// [`Reader::begin_object`]/[`Reader::begin_array`] and then call
/// [`Reader::next_key`]/[`Reader::next_element`] before every member
/// until they report the close. [`Reader::finish`] rejects trailing
/// content. Every error is a syntax error, most with a byte offset,
/// worded as [`parse`] words it: `parse` is this walk building a tree.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
    /// Set when a container was just opened: its first member has no
    /// leading comma.
    first: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's one value.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// The kind of the next value; an error when no value can start
    /// here.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(other) => Err(format!(
                "unexpected byte `{}` at {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Open the object that is the next value.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// Open the array that is the next value.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    #[inline]
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        if self.byte() == Some(bracket) && self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Step to the next member of the innermost open object: its key,
    /// with the reader left at the member's value, or `None` once the
    /// closing `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Step to the next element of the innermost open array: `true`
    /// with the reader left at the element, `false` once the closing
    /// `]` is consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::replace(&mut self.first, false);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// Read the number that is the next value: the `f64` that
    /// `str::parse::<f64>` gives its token.
    #[inline]
    pub fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.byte() {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        // At most 15 digits make an integer below 2^53, which an `f64`
        // holds exactly, so summing the digits gives the same bits as
        // `str::parse` (which is correctly rounded), `-0` included.
        let digits = token.strip_prefix('-').unwrap_or(token);
        if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
            let v = digits
                .bytes()
                .fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0')) as f64;
            return Ok(if digits.len() < token.len() { -v } else { v });
        }
        token
            .parse::<f64>()
            .map_err(|_| format!("invalid number `{token}` at byte {start}"))
    }

    /// Read the string that is the next value, borrowed from the input
    /// unless it holds escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut run = self.pos;
        let mut owned: Option<String> = None;
        loop {
            // Plain runs end at an ASCII byte, so every slice below
            // falls on a char boundary.
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let plain = &self.text[run..self.pos];
            match self.byte() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                _ => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
            }
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// Read the `true`/`false` that is the next value.
    pub fn bool(&mut self) -> Result<bool, String> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Read the `null` that is the next value.
    pub fn null(&mut self) -> Result<(), String> {
        if self.literal("null") {
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Skip the next value, checking its syntax all the same.
    pub fn skip_value(&mut self) -> Result<(), String> {
        match self.peek()? {
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Kind::Array => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Kind::String => drop(self.string()?),
            Kind::Number => drop(self.number()?),
            Kind::Bool => drop(self.bool()?),
            Kind::Null => self.null()?,
        }
        Ok(())
    }

    /// End the document: only whitespace may follow its value.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // The cap itself still parses.
        let at_cap = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_cap).is_ok());
    }

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "0", "-3", "2.5"] {
            let v = parse(text).unwrap();
            assert_eq!(parse(v.pretty().trim()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn roundtrips_nested_structure() {
        let v = Json::obj(vec![
            ("a", Json::Num(1.0)),
            (
                "b",
                Json::Arr(vec![Json::Num(0.1), Json::Str("x\"y".into())]),
            ),
            (
                "c",
                Json::obj(vec![("nested", Json::Bool(true)), ("n", Json::Null)]),
            ),
        ]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 6.02e23, f64::MIN_POSITIVE] {
            let v = Json::Num(x);
            let back = parse(&v.pretty()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2}"#;
        let v = parse(text).unwrap();
        match &v {
            Json::Obj(pairs) => {
                assert_eq!(pairs[0].0, "z");
                assert_eq!(pairs[1].0, "a");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert!(v.pretty().find("\"z\"").unwrap() < v.pretty().find("\"a\"").unwrap());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "hi", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "[1,,2]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""line\nfeed A tab\t""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nfeed A tab\t"));
        let s = Json::Str("a\\b\"c\n\u{1}".into()).pretty();
        assert_eq!(parse(s.trim()).unwrap().as_str(), Some("a\\b\"c\n\u{1}"));
    }
}
