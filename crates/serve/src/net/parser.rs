//! Incremental HTTP/1.1 request parsing over reusable buffers.
//!
//! A readiness reactor cannot block on a read, so the daemon's one
//! request parser is **resumable**: bytes arrive in arbitrary fragments
//! ([`RequestParser::feed`]) and complete requests are popped off as they
//! materialize ([`RequestParser::step`]). Several requests may sit in the
//! buffer at once (HTTP/1.1 pipelining) — `step` keeps yielding until the
//! buffer runs dry.
//!
//! **Conformance.** For any split of a well-formed request stream into
//! fragments — including one fragment per byte — the parsed requests are
//! identical to what one `feed` of the whole stream produces.
//! `tests/serve_net.rs` proves this with a proptest over split points and
//! pipelined pairs, and pins the grammar's corners (bare LF, lower-case
//! method, binary body) to literal expected requests.
//!
//! The parser enforces the two DoS bounds the event loop needs: an
//! oversized header block is refused with `431`
//! ([`ParseFault::HeadersTooLarge`]) and an oversized declared body with
//! `413` ([`ParseFault::BodyTooLarge`]) — a reactor holds many
//! connections in one thread, so per-connection memory must be bounded.
//! Its work is bounded too: each byte of a head is scanned for the blank
//! line once, however it is fragmented, and a head is parsed once, not
//! once per fragment of its body. A body is framed by `Content-Length`
//! alone: a `Transfer-Encoding` header, or two `Content-Length` headers
//! that disagree, is `400`.

use crate::http::{HttpRequest, MAX_BODY_BYTES};

/// Upper bound on the request line + header block, bytes. Connections
/// declaring more are answered `431 Request Header Fields Too Large`.
pub const MAX_HEADER_BYTES: usize = 32 << 10;

/// A request parsed off the stream, plus the connection facts the
/// reactor needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The request.
    pub request: HttpRequest,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Why the stream cannot be parsed further. All faults are fatal for the
/// connection: the reactor answers once and closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseFault {
    /// The request line or a header is not valid HTTP/1.1 (`400`).
    Malformed(String),
    /// The header block exceeds [`MAX_HEADER_BYTES`] (`431`).
    HeadersTooLarge {
        /// Bytes buffered without finding the end of the headers.
        buffered: usize,
    },
    /// The declared `Content-Length` exceeds the 8 MiB body bound (`413`).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
    },
}

impl ParseFault {
    /// The HTTP status the reactor answers before closing.
    pub(crate) fn status(&self) -> u16 {
        match self {
            ParseFault::Malformed(_) => 400,
            ParseFault::HeadersTooLarge { .. } => 431,
            ParseFault::BodyTooLarge { .. } => 413,
        }
    }

    /// The stable error kind for the JSON error body.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ParseFault::Malformed(_) => "bad_request",
            ParseFault::HeadersTooLarge { .. } => "headers_too_large",
            ParseFault::BodyTooLarge { .. } => "body_too_large",
        }
    }
}

impl std::fmt::Display for ParseFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseFault::Malformed(reason) => write!(f, "malformed request: {reason}"),
            ParseFault::HeadersTooLarge { buffered } => {
                write!(f, "{buffered} header bytes exceed {MAX_HEADER_BYTES}")
            }
            ParseFault::BodyTooLarge { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds {MAX_BODY_BYTES}"
                )
            }
        }
    }
}

/// One step of incremental parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseStep {
    /// The buffer holds no complete request yet; feed more bytes.
    Incomplete,
    /// One complete request was consumed from the buffer.
    Request(ParsedRequest),
    /// The stream is unparseable; answer the fault's status and close.
    Fault(ParseFault),
}

/// The resumable request parser. One per connection, reused across
/// keep-alive requests — the internal buffer is compacted, not
/// reallocated, between requests.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily to amortize copies).
    start: usize,
    /// Where the search for the next request's blank line resumes, as
    /// offsets from `start`: the beginning of the line it is in, and the
    /// next byte to look at.
    scan: (usize, usize),
    /// The next request's head once parsed, kept while its body arrives.
    head: Option<Head>,
    /// A fault is sticky: once the stream is broken there is no way to
    /// resynchronize on request boundaries.
    fault: Option<ParseFault>,
    /// Bytes the blank-line search has looked at.
    #[cfg(test)]
    scanned: usize,
}

/// A request's head: what the request line and headers say.
#[derive(Debug)]
struct Head {
    /// Bytes from the request line through the blank line.
    len: usize,
    content_length: usize,
    /// The request, its body still empty.
    parsed: ParsedRequest,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the buffer holds the start of a not-yet-complete request —
    /// the "mid-request" state the read timeout (slow-loris defence)
    /// applies to.
    pub(crate) fn mid_request(&self) -> bool {
        self.buffered() > 0 && self.fault.is_none()
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping
    /// amortized O(1) per byte.
    fn compact(&mut self) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Attempts to pop one complete request off the buffer. Call in a
    /// loop after [`RequestParser::feed`]: pipelined requests yield one
    /// [`ParseStep::Request`] each until [`ParseStep::Incomplete`].
    pub fn step(&mut self) -> ParseStep {
        if let Some(fault) = &self.fault {
            return ParseStep::Fault(fault.clone());
        }
        match self.parse_one() {
            Ok(Some(parsed)) => ParseStep::Request(parsed),
            Ok(None) => ParseStep::Incomplete,
            Err(fault) => {
                self.fault = Some(fault.clone());
                ParseStep::Fault(fault)
            }
        }
    }

    /// Parses one request if completely buffered; `Ok(None)` = need more.
    fn parse_one(&mut self) -> Result<Option<ParsedRequest>, ParseFault> {
        let head = match self.head.take() {
            Some(head) => head,
            None => {
                let len = self.find_head_end();
                let buffered = len.unwrap_or(self.buffered());
                if buffered > MAX_HEADER_BYTES {
                    return Err(ParseFault::HeadersTooLarge { buffered });
                }
                let Some(len) = len else { return Ok(None) };
                parse_head(&self.buf[self.start..][..len])?
            }
        };
        let end = head.len + head.content_length;
        if self.buffered() < end {
            self.head = Some(head); // body still arriving
            return Ok(None);
        }
        let mut parsed = head.parsed;
        parsed.request.body = self.buf[self.start..][head.len..end].to_vec();
        self.start += end;
        self.scan = (0, 0);
        self.compact();
        Ok(Some(parsed))
    }

    /// Length of the next request's head — through the first `\n` whose
    /// line (after stripping a trailing `\r`) is empty — if buffered. The
    /// search resumes where the last call stopped.
    fn find_head_end(&mut self) -> Option<usize> {
        let bytes = &self.buf[self.start..];
        let (mut line_start, scanned) = self.scan;
        for (i, &b) in bytes.iter().enumerate().skip(scanned) {
            #[cfg(test)]
            {
                self.scanned += 1;
            }
            if b == b'\n' {
                let line = &bytes[line_start..i];
                if matches!(line, [] | [b'\r']) {
                    return Some(i + 1);
                }
                line_start = i + 1;
            }
        }
        self.scan = (line_start, bytes.len());
        None
    }
}

/// Parses a complete head: the request line and the headers.
fn parse_head(head: &[u8]) -> Result<Head, ParseFault> {
    // Lines without their trailing CR and whitespace.
    let mut lines = head.split(|&b| b == b'\n').map(<[u8]>::trim_ascii_end);

    let request_line = lines.next().unwrap_or_default();
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseFault::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| ParseFault::Malformed("request line has no path".into()))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_ascii_uppercase();

    let mut content_length = None;
    let mut connection: Option<String> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = String::from_utf8_lossy(line);
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let length: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseFault::Malformed("bad Content-Length".into()))?;
                if content_length.is_some_and(|seen| seen != length) {
                    return Err(ParseFault::Malformed(
                        "Content-Length headers disagree".into(),
                    ));
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(ParseFault::Malformed(
                    "Transfer-Encoding is not supported".into(),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseFault::BodyTooLarge {
            declared: content_length,
        });
    }
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version != "HTTP/1.0",
    };
    let request = HttpRequest {
        method,
        path,
        body: Vec::new(),
    };
    Ok(Head {
        len: head.len(),
        content_length,
        parsed: ParsedRequest {
            request,
            keep_alive,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(raw: &[u8]) -> ParseStep {
        let mut p = RequestParser::new();
        p.feed(raw);
        p.step()
    }

    #[test]
    fn parses_a_simple_post_in_one_shot() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"x\":1}";
        let ParseStep::Request(parsed) = full(raw) else {
            panic!("expected a request");
        };
        assert_eq!(parsed.request.method, "POST");
        assert_eq!(parsed.request.path, "/v1/plan");
        assert_eq!(parsed.request.body, b"{\"x\":1}");
        assert!(parsed.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_byte_at_a_time() {
        let raw = b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut p = RequestParser::new();
        for (i, &b) in raw.iter().enumerate() {
            p.feed(&[b]);
            let step = p.step();
            if i + 1 < raw.len() {
                assert_eq!(step, ParseStep::Incomplete, "at byte {i}");
            } else {
                let ParseStep::Request(parsed) = step else {
                    panic!("expected a request at the last byte");
                };
                assert_eq!(parsed.request.path, "/health");
            }
        }
    }

    #[test]
    fn pops_pipelined_requests_in_order() {
        let raw =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut p = RequestParser::new();
        p.feed(raw);
        let mut paths = Vec::new();
        while let ParseStep::Request(r) = p.step() {
            paths.push(r.request.path);
        }
        assert_eq!(paths, vec!["/a", "/b", "/c"]);
        assert_eq!(p.step(), ParseStep::Incomplete);
    }

    #[test]
    fn connection_close_and_http10_semantics() {
        let ParseStep::Request(r) = full(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n") else {
            panic!()
        };
        assert!(!r.keep_alive);
        let ParseStep::Request(r) = full(b"GET / HTTP/1.0\r\n\r\n") else {
            panic!()
        };
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let ParseStep::Request(r) = full(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
        else {
            panic!()
        };
        assert!(r.keep_alive);
    }

    #[test]
    fn faults_are_sticky_and_typed() {
        let mut p = RequestParser::new();
        p.feed(b"\r\n"); // empty request line
        let ParseStep::Fault(f) = p.step() else {
            panic!("empty request line must fault")
        };
        assert_eq!(f.status(), 400);
        // The fault persists no matter what arrives afterwards.
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert!(matches!(p.step(), ParseStep::Fault(_)));
    }

    #[test]
    fn oversized_headers_fault_431() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nX-Fill: ");
        p.feed(&vec![b'a'; MAX_HEADER_BYTES + 16]);
        let ParseStep::Fault(f) = p.step() else {
            panic!("oversized headers must fault")
        };
        assert_eq!(f.status(), 431);
        assert_eq!(f.kind(), "headers_too_large");
    }

    #[test]
    fn oversized_declared_body_faults_413() {
        let raw = format!(
            "POST /v1/plan HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let ParseStep::Fault(f) = full(raw.as_bytes()) else {
            panic!("oversized body must fault")
        };
        assert_eq!(f.status(), 413);
    }

    #[test]
    fn bad_content_length_faults_400() {
        let ParseStep::Fault(f) = full(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n") else {
            panic!("bad content-length must fault")
        };
        assert_eq!(f.status(), 400);
    }

    #[test]
    fn lf_only_line_endings_parse() {
        let ParseStep::Request(r) = full(b"POST /p HTTP/1.1\nContent-Length: 2\n\nok") else {
            panic!()
        };
        assert_eq!(r.request.body, b"ok");
    }

    #[test]
    fn buffer_compacts_across_many_keepalive_requests() {
        let mut p = RequestParser::new();
        let raw = b"GET /spin HTTP/1.1\r\n\r\n";
        for _ in 0..4096 {
            p.feed(raw);
            assert!(matches!(p.step(), ParseStep::Request(_)));
        }
        assert!(
            p.buf.capacity() < 64 * raw.len(),
            "buffer must not grow with request count (cap {})",
            p.buf.capacity()
        );
    }

    #[test]
    fn a_head_is_scanned_once_however_it_arrives() {
        let mut raw = b"POST /v1/plan HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            raw.extend_from_slice(format!("X-Header-{i}: value\r\n").as_bytes());
        }
        let body = vec![b'x'; 1000];
        raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        let head_len = raw.len();
        raw.extend_from_slice(&body);
        // One byte at a time, stepping after each, as a slow client sends.
        let mut p = RequestParser::new();
        for (i, &b) in raw.iter().enumerate() {
            p.feed(&[b]);
            let step = p.step();
            assert_eq!(matches!(step, ParseStep::Request(_)), i + 1 == raw.len());
        }
        assert_eq!(p.scanned, head_len, "every head byte once, no body byte");
    }
}
