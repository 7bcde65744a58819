//! Minimal hand-rolled HTTP/1.1 plumbing shared by every embedded
//! endpoint in the workspace (the `/metrics` exporter here in `cad-obs`
//! and the `cad-serve` detection service).
//!
//! The workspace is dependency-free by policy, so this module owns the
//! one correct implementation of the boring-but-sharp parts:
//!
//! * **request reading** — request line + headers, tolerant of
//!   arbitrarily fragmented writes, with a hard cap on header bytes
//!   (reject with `431`, never buffer unboundedly);
//! * **bodies** — `Content-Length` only (no chunked encoding), with a
//!   configurable size cap (reject with `413` *before* reading the
//!   payload);
//! * **timeouts** — per-connection read/write deadlines so a stalled
//!   peer cannot pin a worker forever;
//! * **keep-alive** — HTTP/1.1 persistent-connection semantics
//!   (`Connection: close` honoured both ways), including pipelined
//!   requests: bytes read past one request are kept for the next;
//! * **responses** — correct `Content-Length`/`Connection` framing and
//!   a shared structured-error JSON body schema
//!   ([`error_body`]) used by both the service endpoints and `cad
//!   watch` event streams.
//!
//! Everything a malformed peer can do maps to a typed [`ReadError`]
//! that [`status_for`] turns into the right 4xx — parsing never panics
//! and never hangs past the configured deadlines.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Cap on the request line + headers, in bytes (`431` beyond).
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length` (`413` beyond).
    pub max_body_bytes: usize,
    /// Socket read deadline (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Socket write deadline (`None` = block forever).
    pub write_timeout: Option<Duration>,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method token, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path + optional query), as sent.
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the peer wants the connection kept open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed before sending a full request head. Normal for
    /// shutdown wake-ups and keep-alive closes; not worth a response.
    Closed,
    /// Syntactically invalid request (`400`).
    Bad(String),
    /// Request line + headers exceeded [`HttpLimits::max_head_bytes`]
    /// (`431`).
    HeadTooLarge,
    /// Declared `Content-Length` exceeded
    /// [`HttpLimits::max_body_bytes`] (`413`).
    BodyTooLarge(u64),
    /// Socket error, including read timeouts (`408` when answerable).
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Bad(m) => write!(f, "malformed request: {m}"),
            ReadError::HeadTooLarge => write!(f, "request head too large"),
            ReadError::BodyTooLarge(n) => write!(f, "request body of {n} bytes too large"),
            ReadError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// The HTTP status code a [`ReadError`] should be answered with
/// (`None`: the peer is gone, write nothing).
pub fn status_for(err: &ReadError) -> Option<u16> {
    match err {
        ReadError::Closed => None,
        ReadError::Bad(_) => Some(400),
        ReadError::HeadTooLarge => Some(431),
        ReadError::BodyTooLarge(_) => Some(413),
        ReadError::Io(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Some(408)
        }
        ReadError::Io(_) => None,
    }
}

/// Reason phrase for the status codes this workspace emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The shared structured-error body: one JSON object
/// `{"error": {"code": ..., "message": ...}}` (newline-terminated so it
/// doubles as an NDJSON line in event streams). The same schema is
/// returned by every `cad-serve` error response and appended by
/// `cad watch` when a snapshot is rejected.
pub fn error_body(code: &str, message: &str) -> String {
    let obj = crate::Json::obj(vec![(
        "error",
        crate::Json::obj(vec![
            ("code", crate::Json::Str(code.to_string())),
            ("message", crate::Json::Str(message.to_string())),
        ]),
    )]);
    let mut s = obj.compact();
    s.push('\n');
    s
}

/// Find the end of the head: the index one past its first blank line.
/// A line ends at `\n`, optionally preceded by `\r`, as `str::lines`
/// splits the head afterwards, so the head ends at the first `\n\n` or
/// `\n\r\n`, whichever comes first. Taking the earliest keeps the
/// split independent of how the bytes arrived. `buf[..scanned]` is
/// known to hold neither, so only the new bytes (and the two before
/// them that a separator may straddle) are searched.
fn head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(2);
    (from..buf.len()).find_map(|i| match buf[i..] {
        [b'\n', b'\n', ..] => Some(i + 2),
        [b'\n', b'\r', b'\n', ..] => Some(i + 3),
        _ => None,
    })
}

/// Read one request from a connection that carries no other: the
/// one-shot form of [`read_request_pipelined`]. Bytes past the body
/// that arrive with the head are rejected, since nothing would keep
/// them for a next request.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, ReadError> {
    let mut carry = Vec::new();
    let req = read_request_pipelined(stream, limits, &mut carry)?;
    if !carry.is_empty() {
        return Err(ReadError::Bad("body longer than content-length".into()));
    }
    Ok(req)
}

/// Read the next request on a keep-alive connection, honouring
/// `limits`: applies the read/write timeouts to the socket, then reads
/// as [`read_request_from`] does.
pub fn read_request_pipelined(
    stream: &mut TcpStream,
    limits: &HttpLimits,
    carry: &mut Vec<u8>,
) -> Result<Request, ReadError> {
    stream
        .set_read_timeout(limits.read_timeout)
        .map_err(ReadError::Io)?;
    stream
        .set_write_timeout(limits.write_timeout)
        .map_err(ReadError::Io)?;
    read_request_from(stream, limits, carry)
}

/// How far a request body buffer may grow past the bytes received.
pub const BODY_STEP: usize = 64 * 1024;

/// Read the next request from any byte source; the socket deadlines of
/// `limits` are the caller's to apply.
///
/// Buffers the head across arbitrarily fragmented reads up to the head
/// cap, validates the request line, parses headers, and reads exactly
/// the declared `Content-Length` bytes of body (zero without the
/// header). `carry` holds the source's bytes already read past the
/// previous request: they are parsed first, and bytes past this
/// request's body are left there for the next call, so a pipelining
/// peer is served the same however its requests are split into reads.
pub fn read_request_from(
    stream: &mut impl Read,
    limits: &HttpLimits,
    carry: &mut Vec<u8>,
) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = std::mem::take(carry);
    buf.reserve(1024);
    let mut chunk = [0u8; 1024];
    let mut scanned = 0;
    let split = loop {
        if let Some(end) = head_end(&buf, scanned) {
            break end;
        }
        scanned = buf.len();
        if buf.len() > limits.max_head_bytes {
            return Err(ReadError::HeadTooLarge);
        }
        let got = stream.read(&mut chunk).map_err(ReadError::Io)?;
        if got == 0 {
            if buf.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Bad("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..got]);
    };
    if split > limits.max_head_bytes {
        return Err(ReadError::HeadTooLarge);
    }
    let (head, rest) = buf.split_at(split);
    let head = std::str::from_utf8(head).map_err(|_| ReadError::Bad("head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("").trim_end();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(ReadError::Bad(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Bad(format!("bad method: {method:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad(format!("bad version: {version:?}")));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Bad(format!("bad header line: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<u64>()
            .map_err(|_| ReadError::Bad(format!("bad content-length: {v:?}")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes as u64 {
        return Err(ReadError::BodyTooLarge(content_length));
    }

    // Bytes past the body belong to the next pipelined request. The
    // body buffer grows at most `BODY_STEP` past the bytes received, so
    // a peer that declares a large body and stalls holds no more than
    // that; a body that fits in the first step is one allocation.
    let content_length = content_length as usize;
    let have = rest.len().min(content_length);
    carry.extend_from_slice(&rest[have..]);
    let mut body = Vec::with_capacity(content_length.min(have + BODY_STEP));
    body.extend_from_slice(&rest[..have]);
    while body.len() < content_length {
        let at = body.len();
        let step = (content_length - at).min(BODY_STEP);
        body.reserve_exact(step);
        body.resize(at + step, 0);
        stream
            .read_exact(&mut body[at..])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => {
                    ReadError::Bad("connection closed mid-body".into())
                }
                _ => ReadError::Io(e),
            })?;
    }

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match (version, connection.as_deref()) {
        (_, Some("close")) => false,
        ("HTTP/1.0", Some("keep-alive")) => true,
        ("HTTP/1.0", _) => false,
        _ => true,
    };

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// Write one response with correct framing. `extra` headers are
/// emitted verbatim after the standard ones (e.g. `Retry-After`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, String)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two separate segments interact badly
    // with Nagle + delayed ACK (a ~40ms stall per response on Linux
    // loopback when the peer batches its ACKs).
    let mut frame = head.into_bytes();
    frame.extend_from_slice(body);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Answer a [`ReadError`] with its structured-error response when the
/// peer is still there to hear it. Always closes the connection.
pub fn respond_read_error(stream: &mut TcpStream, err: &ReadError) {
    if let Some(status) = status_for(err) {
        let code = match status {
            400 => "bad_request",
            408 => "timeout",
            413 => "body_too_large",
            431 => "head_too_large",
            _ => "error",
        };
        let body = error_body(code, &err.to_string());
        if write_response(
            stream,
            status,
            "application/json",
            body.as_bytes(),
            false,
            &[],
        )
        .is_err()
        {
            return;
        }
        // Drain (a bounded amount of) whatever the peer is still
        // sending before closing: dropping a socket with unread input
        // sends RST on many stacks, which would destroy the error
        // response before the client reads it.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        for _ in 0..64 {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Run `client` against a one-shot server that reads a request with
    /// `limits` and returns the outcome.
    fn with_connection<F>(limits: HttpLimits, client: F) -> Result<Request, ReadError>
    where
        F: FnOnce(TcpStream) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            client(stream);
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let out = read_request(&mut stream, &limits);
        handle.join().expect("client thread");
        out
    }

    fn tight() -> HttpLimits {
        HttpLimits {
            max_head_bytes: 256,
            max_body_bytes: 64,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
        }
    }

    #[test]
    fn parses_a_simple_get() {
        let req = with_connection(tight(), |mut s| {
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        })
        .expect("request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn fragmented_writes_reassemble() {
        let req = with_connection(tight(), |mut s| {
            for chunk in [
                "PO",
                "ST /v1/x",
                " HTTP/1.1\r\nCon",
                "tent-Length: 5\r\n",
                "\r\nhe",
                "llo",
            ] {
                s.write_all(chunk.as_bytes()).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        })
        .expect("request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"\x00\xffnot http at all\r\n\r\n").unwrap();
        })
        .expect_err("garbage must not parse");
        assert_eq!(status_for(&err), Some(400), "{err:?}");
    }

    #[test]
    fn lowercase_method_and_bad_version_rejected() {
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"get / HTTP/1.1\r\n\r\n").unwrap();
        })
        .expect_err("lowercase method");
        assert!(matches!(err, ReadError::Bad(_)), "{err:?}");
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"GET / SPDY/99\r\n\r\n").unwrap();
        })
        .expect_err("bad version");
        assert!(matches!(err, ReadError::Bad(_)), "{err:?}");
    }

    #[test]
    fn oversized_head_is_431_without_buffering_it_all() {
        let err = with_connection(tight(), |mut s| {
            let _ = s.write_all(b"GET / HTTP/1.1\r\n");
            // Never-ending header stream: the reader must give up at
            // the cap rather than hang or buffer forever.
            for _ in 0..64 {
                if s.write_all(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaa\r\n")
                    .is_err()
                {
                    return;
                }
            }
        })
        .expect_err("oversized head");
        assert!(matches!(err, ReadError::HeadTooLarge), "{err:?}");
        assert_eq!(status_for(&err), Some(431));
    }

    #[test]
    fn oversized_declared_body_is_413_before_reading_it() {
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 10000\r\n\r\n")
                .unwrap();
            // Note: the payload itself is never sent.
        })
        .expect_err("oversized body");
        assert!(matches!(err, ReadError::BodyTooLarge(10000)), "{err:?}");
        assert_eq!(status_for(&err), Some(413));
    }

    #[test]
    fn immediate_close_reads_as_closed() {
        let err = with_connection(tight(), drop).expect_err("closed");
        assert!(matches!(err, ReadError::Closed), "{err:?}");
        assert_eq!(status_for(&err), None, "nobody to answer");
    }

    #[test]
    fn truncated_head_is_bad_request() {
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"GET / HTTP/1.1\r\nHost: x").unwrap();
        })
        .expect_err("mid-head close");
        assert!(matches!(err, ReadError::Bad(_)), "{err:?}");
    }

    #[test]
    fn head_end_finds_separators_straddling_the_scanned_prefix() {
        for buf in [
            &b"GET / HTTP/1.1\r\nHost: x\r\n\r\nbody"[..],
            b"GET / HTTP/1.1\nHost: x\n\nbody",
            // Mixed line ends: a `\r\n` after a bare `\n` ends the head.
            b"GET / HTTP/1.1\n\r\nbody",
            b"GET / HTTP/1.1\n\nx\r\n\r\n",
        ] {
            let full = head_end(buf, 0).expect("a separator");
            // Valid prefixes hold no whole separator.
            for scanned in 0..full - 1 {
                if head_end(&buf[..scanned], 0).is_none() {
                    assert_eq!(head_end(buf, scanned), Some(full), "{scanned}");
                }
            }
        }
        assert_eq!(head_end(b"GET / HTTP/1.1\r\nHost: x\r\n", 0), None);
        // The earliest blank line ends the head, whichever its line
        // ends: a later `\r\n\r\n` belongs to the next request.
        assert_eq!(head_end(b"GET / HTTP/1.1\n\nx\r\n\r\n", 0), Some(16));
    }

    #[test]
    fn close_mid_body_is_bad_request() {
        let err = with_connection(tight(), |mut s| {
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 40\r\n\r\nonly ten b")
                .unwrap();
        })
        .expect_err("mid-body close");
        assert!(
            matches!(&err, ReadError::Bad(m) if m == "connection closed mid-body"),
            "{err:?}"
        );
        assert_eq!(status_for(&err), Some(400));
    }

    #[test]
    fn body_split_from_its_head_arrives_whole() {
        let body = b"0123456789".repeat(6);
        let req = with_connection(tight(), move |mut s| {
            s.write_all(b"POST /v1/x HTTP/1.1\r\nContent-Length: 60\r\n\r\n0123")
                .unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
            s.write_all(&body[4..]).unwrap();
        })
        .expect("request");
        assert_eq!(req.body, b"0123456789".repeat(6));
    }

    #[test]
    fn pipelined_requests_in_one_write_are_read_in_turn() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        });
        let (mut stream, _) = listener.accept().expect("accept");
        client.join().expect("client thread");
        let mut carry = Vec::new();
        let first = read_request_pipelined(&mut stream, &tight(), &mut carry).expect("first");
        assert_eq!(
            (first.path.as_str(), &first.body[..]),
            ("/a", &b"hello"[..])
        );
        let second = read_request_pipelined(&mut stream, &tight(), &mut carry).expect("second");
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/b")
        );
        assert!(carry.is_empty());
        let end = read_request_pipelined(&mut stream, &tight(), &mut carry);
        assert!(matches!(end, Err(ReadError::Closed)), "{end:?}");
    }

    #[test]
    fn connection_close_header_disables_keep_alive() {
        let req = with_connection(tight(), |mut s| {
            s.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
        })
        .expect("request");
        assert!(!req.keep_alive);
        let req = with_connection(tight(), |mut s| {
            s.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        })
        .expect("request");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn read_timeout_maps_to_408() {
        let limits = HttpLimits {
            read_timeout: Some(Duration::from_millis(50)),
            ..tight()
        };
        let err = with_connection(limits, |mut s| {
            s.write_all(b"GET / HTT").unwrap();
            std::thread::sleep(Duration::from_millis(300));
        })
        .expect_err("stalled head");
        assert_eq!(status_for(&err), Some(408), "{err:?}");
    }

    #[test]
    fn error_body_is_parseable_ndjson() {
        let body = error_body("node_out_of_range", "node 9 out of range");
        assert!(body.ends_with('\n'));
        assert!(!body.trim_end().contains('\n'));
        let v = crate::parse_json(&body).expect("valid json");
        let e = v.get("error").expect("error object");
        assert_eq!(
            e.get("code").and_then(|j| j.as_str()),
            Some("node_out_of_range")
        );
        assert_eq!(
            e.get("message").and_then(|j| j.as_str()),
            Some("node 9 out of range")
        );
    }

    #[test]
    fn write_response_frames_correctly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            write_response(
                &mut stream,
                503,
                "application/json",
                b"{}\n",
                false,
                &[("Retry-After", "1".to_string())],
            )
            .expect("write");
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        handle.join().unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("split");
        assert!(
            head.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{head}"
        );
        assert!(head.contains("Content-Length: 3"), "{head}");
        assert!(head.contains("Connection: close"), "{head}");
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert_eq!(body, "{}\n");
    }
}
