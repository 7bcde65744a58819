//! `cad_obs::json` on hostile bytes: neither [`parse`] nor a
//! [`Reader`] walk may panic, both must reject what is not JSON with
//! the same error, and what either allocates stays linear in the input.
//!
//! The counting allocator is this binary's global allocator and its
//! counters are process-wide, so the binary holds one test: no other
//! test thread allocates between the two reads around a call.

use cad_obs::alloc::{stats, CountingAlloc};
use cad_obs::json::{parse, Reader, MAX_DEPTH};
use proptest::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Heap bytes one call may allocate per input byte. A `Json` value is
/// 32 bytes, the shortest element (`0,`) is 2 input bytes, and vector
/// doubling at most doubles what the final vectors hold.
const BYTES_PER_INPUT_BYTE: u64 = 128;
/// Fixed allowance: error messages and the first small vectors.
const SLACK_BYTES: u64 = 4096;

/// Bytes allocated while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stats().bytes_allocated;
    let out = f();
    (out, stats().bytes_allocated - before)
}

/// The schema-free walk: skip the one value, then finish.
fn walk(text: &str) -> Result<(), String> {
    let mut r = Reader::new(text);
    r.skip_value()?;
    r.finish()
}

fn check(text: &str) -> Result<(), String> {
    let (tree, tree_bytes) = allocated(|| parse(text));
    let (walked, walk_bytes) = allocated(|| walk(text));
    let cap = BYTES_PER_INPUT_BYTE * text.len() as u64 + SLACK_BYTES;
    prop_assert!(
        tree_bytes <= cap,
        "parse allocated {tree_bytes} B on {} B",
        text.len()
    );
    prop_assert!(
        walk_bytes <= cap,
        "walk allocated {walk_bytes} B on {} B",
        text.len()
    );
    match (&tree, &walked) {
        (Ok(v), Ok(())) => {
            // Whatever is accepted is a value that survives a round trip.
            prop_assert!(parse(&v.compact()).as_ref() == Ok(v), "{text:?}");
        }
        (Err(a), Err(b)) => prop_assert!(a == b, "{text:?}: parse `{a}`, walk `{b}`"),
        _ => prop_assert!(false, "{text:?}: parse {tree:?}, walk {walked:?}"),
    }
    Ok(())
}

/// Bytes drawn mostly from JSON's own alphabet so inputs get past the
/// first token, plus bytes that are not valid UTF-8 on their own.
const ALPHABET: &[u8] = b"{}[]{}[],:,:\"\"\\u0123456789-+.eEtrufalsn \n\t\r\xff\xc3\xa9\x80";

fn text_of(codes: &[usize]) -> String {
    let bytes: Vec<u8> = codes
        .iter()
        .map(|&c| ALPHABET[c % ALPHABET.len()])
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A valid document with no trailing whitespace whose top level is a
/// container: every proper prefix of it is invalid.
fn container(codes: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, &c) in codes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(match c % 8 {
            0 => "{\"k\\u00e9\":[1.5e3,null]}",
            1 => "\"s\\n\\\"t\"",
            2 => "-0.25",
            3 => "[[],{}]",
            4 => "true",
            5 => "{\"a\":{\"b\":[false]}}",
            6 => " 7 ",
            _ => "\"é\"",
        });
    }
    out.push(']');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn parse_and_reader_reject_hostile_bytes_without_panics_or_unbounded_allocation(
        codes in proptest::collection::vec(0usize..1024, 0..200),
        cut in 0usize..10_000,
        depth in 0usize..(2 * MAX_DEPTH),
    ) {
        check(&text_of(&codes))?;

        let doc = container(&codes);
        check(&doc)?;
        let (tree, bytes) = allocated(|| parse(&doc));
        prop_assert!(tree.is_ok(), "{doc}");
        // The counters really move: the bound above is not vacuous.
        prop_assert!(codes.is_empty() || bytes > 0);
        let mut end = cut % doc.len();
        while !doc.is_char_boundary(end) {
            end -= 1;
        }
        check(&doc[..end])?;
        prop_assert!(parse(&doc[..end]).is_err(), "prefix {:?}", &doc[..end]);
        // A trailing comma is not JSON.
        let trailing = format!("{},]", &doc[..doc.len() - 1]);
        check(&trailing)?;
        prop_assert!(parse(&trailing).is_err(), "{trailing}");

        // Nesting around the cap: accepted up to it, an error past it.
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        check(&nested)?;
        prop_assert_eq!(parse(&nested).is_ok(), depth > 0 && depth <= MAX_DEPTH);
    }
}
