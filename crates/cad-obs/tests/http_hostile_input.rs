//! `cad_obs::http` request reading on hostile bytes and arbitrary read
//! splits: [`read_request_from`], the parse under every keep-alive
//! connection, is driven request after request over one byte stream,
//! carrying what it read past each request into the next call.
//!
//! * It never panics, and every failure is a structured [`ReadError`].
//! * The sequence of requests and the final error do not depend on how
//!   the bytes are split into reads: every split gives what one read of
//!   the whole stream gives.
//! * What one call allocates stays linear in the bytes it handled (the
//!   carried bytes plus what it read), plus at most one body step
//!   ([`BODY_STEP`], or the body cap if smaller) past them: a peer that
//!   declares a large body and stalls is not given a whole capped body.
//!
//! The counting allocator is this binary's global allocator and its
//! counters are process-wide, so the binary holds one test: no other
//! test thread allocates between the two reads around a call.

use cad_obs::alloc::{stats, CountingAlloc};
use cad_obs::http::{read_request_from, HttpLimits, ReadError, BODY_STEP};
use proptest::prelude::*;
use std::io::Read;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Small caps, so generated streams reach both of them.
const LIMITS: HttpLimits = HttpLimits {
    max_head_bytes: 256,
    max_body_bytes: 512,
    read_timeout: None,
    write_timeout: None,
};
/// The default body cap, far past one body step.
const LARGE_BODIES: HttpLimits = HttpLimits {
    max_body_bytes: 1024 * 1024,
    ..LIMITS
};
/// Heap bytes one call may allocate per byte it handled: the head
/// buffer grows by doubling, header names and values are copied, and an
/// error message quotes the request line with escapes.
const BYTES_PER_INPUT_BYTE: u64 = 64;
/// Fixed allowance: the head buffer's first 1 KiB and small vectors.
const SLACK_BYTES: u64 = 4096;

/// A byte source that hands out `bytes` in reads of the given sizes
/// (cycled), then end of stream.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
    pos: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(out.len()).min(self.bytes.len() - self.pos);
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Every request read from `bytes` split into reads of `sizes`, then
/// the error that ended the stream, each as text.
fn drive(bytes: &[u8], sizes: &[usize], limits: &HttpLimits) -> Result<Vec<String>, String> {
    let mut src = Chunked {
        bytes,
        sizes,
        reads: 0,
        pos: 0,
    };
    let mut carry = Vec::new();
    let mut out = Vec::new();
    // Every request consumes at least one byte, so this many calls
    // reach the end of the stream.
    for _ in 0..=bytes.len() {
        let (carried, pos) = (carry.len(), src.pos);
        let before = stats().bytes_allocated;
        let got = read_request_from(&mut src, limits, &mut carry);
        let allocated = stats().bytes_allocated - before;
        let handled = (carried + src.pos - pos) as u64;
        let step = limits.max_body_bytes.min(BODY_STEP) as u64;
        let cap = BYTES_PER_INPUT_BYTE * handled + step + SLACK_BYTES;
        prop_assert!(
            allocated <= cap,
            "a call allocated {allocated} B after handling {handled} B"
        );
        match got {
            Ok(req) => out.push(format!(
                "{} {} {:?} {:?} keep-alive={}",
                req.method, req.path, req.headers, req.body, req.keep_alive
            )),
            Err(e) => {
                prop_assert!(!matches!(e, ReadError::Io(_)), "{e}");
                out.push(format!("error: {e}"));
                return Ok(out);
            }
        }
    }
    prop_assert!(false, "{} calls did not end the stream", bytes.len() + 1);
    Ok(out)
}

/// Fragments drawn from the request grammar and from outside it.
const TOKENS: &[&[u8]] = &[
    b"GET",
    b"POST",
    b"get",
    b" ",
    b"/",
    b"/v1/sequences",
    b"HTTP/1.1",
    b"HTTP/1.0",
    b"HTTP/2",
    b"\r\n",
    b"\n",
    b"\r",
    b"\r\n\r\n",
    b"\n\n",
    b"\n\r\n",
    b":",
    b"Content-Length: ",
    b"content-length:",
    b"Connection: close",
    b"Connection: keep-alive",
    b"0",
    b"5",
    b"12",
    b"-1",
    b"99999999999999999999999",
    b"{}",
    b"abc",
    b"\xff",
    b"\xc3\xa9",
    b"\0",
];

fn stream_of(codes: &[usize]) -> Vec<u8> {
    codes
        .iter()
        .flat_map(|&c| TOKENS[c % TOKENS.len()].iter().copied())
        .collect()
}

/// Well-formed requests, one per code: a `POST` with a body of up to
/// 15 bytes or a `GET`, with CRLF or bare-LF line ends, some closing.
fn requests(codes: &[usize]) -> (Vec<u8>, usize) {
    let mut out = Vec::new();
    for &c in codes {
        let eol: &[u8] = if c % 3 == 0 { b"\n" } else { b"\r\n" };
        let body_len = c / 3 % 16;
        if body_len % 2 == 0 {
            out.extend_from_slice(b"GET /metrics HTTP/1.1");
        } else {
            out.extend_from_slice(b"POST /v1/sequences HTTP/1.1");
            out.extend_from_slice(eol);
            out.extend_from_slice(format!("Content-Length: {body_len}").as_bytes());
        }
        if c % 5 == 0 {
            out.extend_from_slice(eol);
            out.extend_from_slice(b"Connection: close");
        }
        out.extend_from_slice(eol);
        out.extend_from_slice(eol);
        if body_len % 2 == 1 {
            out.extend((0..body_len).map(|i| b"\n\r{}:x"[(c + i) % 6]));
        }
    }
    (out, codes.len())
}

fn check(bytes: &[u8], sizes: &[usize], limits: &HttpLimits) -> Result<Vec<String>, String> {
    let whole = drive(bytes, &[usize::MAX], limits)?;
    let split = drive(bytes, sizes, limits)?;
    prop_assert!(
        split == whole,
        "{:?} read in pieces of {sizes:?}: {split:?}, in one read: {whole:?}",
        String::from_utf8_lossy(bytes)
    );
    Ok(whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn request_reading_survives_hostile_bytes_and_any_read_split(
        codes in proptest::collection::vec(0usize..1024, 0..120),
        sizes in proptest::collection::vec(1usize..40, 1..8),
        cut in 0usize..10_000,
    ) {
        check(&stream_of(&codes), &sizes, &LIMITS)?;

        // Well-formed pipelined requests are all served, then the
        // stream reads as closed.
        let (stream, n) = requests(&codes);
        let got = check(&stream, &sizes, &LIMITS)?;
        prop_assert_eq!(got.len(), n + 1);
        prop_assert_eq!(got[n].as_str(), "error: connection closed");
        let (_, allocated) = {
            let before = stats().bytes_allocated;
            let out = drive(&stream, &sizes, &LIMITS);
            (out, stats().bytes_allocated - before)
        };
        // The counters really move: the bound above is not vacuous.
        prop_assert!(n == 0 || allocated > 0);

        // The same requests cut short anywhere: splits still do not
        // matter.
        if !stream.is_empty() {
            check(&stream[..cut % stream.len()], &sizes, &LIMITS)?;
        }

        // A body declared at the cap that stalls after some bytes: the
        // buffer tracks what arrived, not what was declared.
        let mut stalled = format!(
            "POST /v1/sequences HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            LARGE_BODIES.max_body_bytes
        )
        .into_bytes();
        stalled.resize(stalled.len() + cut * 23, b'x');
        let large: Vec<usize> = sizes.iter().map(|s| s * 997).collect();
        let got = check(&stalled, &large, &LARGE_BODIES)?;
        prop_assert_eq!(got, vec!["error: malformed request: connection closed mid-body".to_string()]);
    }
}
