//! A minimal, dependency-free HTTP/1.1 subset: exactly what the daemon
//! needs and nothing more.
//!
//! The types both sides of the wire share ([`HttpRequest`],
//! [`HttpResponse`] and its one serializer, [`HttpResponse::to_bytes`])
//! plus the one blocking client, the connection-reusing
//! [`KeepAliveClient`] ([`http_call`] is one used once), shared by the
//! integration tests, the repo benchmark's load generator and the demo's
//! self-check. The server side of the wire — the request parser
//! and the socket I/O — is [`crate::net`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on request bodies; larger requests get `413`.
pub(crate) const MAX_BODY_BYTES: usize = 8 << 20;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, e.g. `/v1/plan` (query strings are not supported).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (200, 404, 429, ...).
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Optional `Retry-After` seconds (load-shedding responses).
    pub retry_after_s: Option<u32>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_s: None,
        }
    }

    /// A plain-text response (Prometheus exposition, health).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            retry_after_s: None,
        }
    }

    /// Attaches a `Retry-After` header (builder-style).
    #[must_use]
    pub(crate) fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after_s = Some(seconds);
        self
    }

    /// The standard reason phrase for the status code.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response (status line, headers, body) to bytes —
    /// the only serializer, so every response on the wire has the same
    /// header order. `keep_alive` selects the `Connection` header value
    /// (`keep-alive` or `close`) and changes nothing else.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
                self.status,
                self.reason(),
                self.content_type,
                self.body.len(),
                connection,
            )
            .as_bytes(),
        );
        if let Some(seconds) = self.retry_after_s {
            out.extend_from_slice(format!("Retry-After: {seconds}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

/// A blocking one-shot HTTP call: a [`KeepAliveClient`] used once and
/// dropped. Returns `(status, body)`.
///
/// # Errors
///
/// As for [`KeepAliveClient::call`].
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    KeepAliveClient::new(addr).call(method, path, body)
}

/// A blocking HTTP/1.1 client that keeps one connection open across
/// calls — the client side of the event loop's keep-alive serving path
/// (the repo benchmark's clients use it to avoid a connect per request).
///
/// Responses are framed by `Content-Length`, so the client reads exactly
/// one response per call and leaves the connection ready for the next.
/// A request is sent twice only when the server cannot have answered it:
/// the call reused a keep-alive connection, and the write failed or the
/// connection closed before the first status byte (the server closed it
/// while it sat idle). Any other failure is returned as it is, and the
/// next call opens a fresh connection.
pub struct KeepAliveClient {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    /// Calls that found the reused connection closed and sent again.
    reconnects: u64,
}

impl KeepAliveClient {
    /// A client for `addr` (connects lazily on the first call).
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            stream: None,
            reconnects: 0,
        }
    }

    /// How many calls found their reused connection closed by the server
    /// and sent the request again on a fresh one.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends one request and reads one response. Returns
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// I/O errors connecting, writing, or reading; `InvalidData` when
    /// the response is not parseable HTTP.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        if !reused {
            self.connect()?;
        }
        let result = match self.exchange(method, path, body) {
            Err(_) if reused => {
                self.reconnects += 1;
                self.connect()?;
                self.exchange(method, path, body)
            }
            result => result,
        }
        .and_then(|answer| answer);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    /// Sends one request. `Err` when the server cannot have answered it:
    /// the write failed, or the connection closed before the first status
    /// byte. Otherwise what came back, read or not.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<std::io::Result<(u16, String)>> {
        // invariant: `call` connects before every `exchange`.
        let reader = self.stream.as_mut().expect("connected");
        let stream = reader.get_mut();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )?;
        stream.write_all(body)?;
        stream.flush()?;

        let mut status_line = String::new();
        match reader.read_line(&mut status_line) {
            Ok(0) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            )),
            Ok(_) => Ok(self.read_response(&status_line)),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Reads the rest of a response whose status line was `status_line`.
    fn read_response(&mut self, status_line: &str) -> std::io::Result<(u16, String)> {
        let reader = self.stream.as_mut().expect("connected");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;

        let mut content_length = 0usize;
        let mut server_closes = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed in response headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            "bad response Content-Length",
                        )
                    })?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    server_closes = true;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if server_closes {
            self.stream = None;
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{ParseStep, RequestParser};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Reads the next request off `stream` with the daemon's parser.
    fn next_request(stream: &mut TcpStream, parser: &mut RequestParser) -> HttpRequest {
        let mut chunk = [0u8; 4096];
        loop {
            match parser.step() {
                ParseStep::Request(parsed) => return parsed.request,
                ParseStep::Incomplete => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "client closed mid-request");
                    parser.feed(&chunk[..n]);
                }
                ParseStep::Fault(fault) => panic!("client sent an unparseable request: {fault}"),
            }
        }
    }

    #[test]
    fn request_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = next_request(&mut stream, &mut RequestParser::new());
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/plan");
            assert_eq!(req.body, b"{\"x\":1}");
            let resp = HttpResponse::json(200, "{\"ok\":true}".into());
            stream.write_all(&resp.to_bytes(false)).unwrap();
        });
        let (status, body) =
            http_call(&addr.to_string(), "POST", "/v1/plan", b"{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        handle.join().unwrap();
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let resp = HttpResponse::json(429, "{}".into()).with_retry_after(1);
        let text = String::from_utf8(resp.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_changes_only_the_connection_header() {
        let resp = HttpResponse::json(200, "{\"ok\":true}".into()).with_retry_after(2);
        let keep = String::from_utf8(resp.to_bytes(true)).unwrap();
        let close = String::from_utf8(resp.to_bytes(false)).unwrap();
        assert_eq!(
            keep.replace("Connection: keep-alive", "Connection: close"),
            close
        );
    }

    #[test]
    fn keepalive_client_reuses_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // One accepted connection serves two requests.
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new();
            for _ in 0..2 {
                let req = next_request(&mut stream, &mut parser);
                let resp = HttpResponse::json(200, format!("{{\"path\":\"{}\"}}", req.path));
                stream.write_all(&resp.to_bytes(true)).unwrap();
            }
        });
        let mut client = KeepAliveClient::new(addr.to_string());
        let (status, body) = client.call("GET", "/a", b"").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"path\":\"/a\"}"));
        let (status, body) = client.call("GET", "/b", b"").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"path\":\"/b\"}"));
        assert_eq!(client.reconnects(), 0);
        handle.join().unwrap();
    }

    /// A server that answers each connection's requests with `replies`, in
    /// order, counting them, then ends its side of the connection; until
    /// the returned closure stops it.
    fn scripted_server(replies: Vec<Vec<u8>>) -> (String, Arc<AtomicUsize>, impl FnOnce()) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let requests = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = std::thread::spawn({
            let (requests, stop) = (Arc::clone(&requests), Arc::clone(&stop));
            move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let mut stream = stream.unwrap();
                    let mut parser = RequestParser::new();
                    for reply in &replies {
                        next_request(&mut stream, &mut parser);
                        requests.fetch_add(1, Ordering::SeqCst);
                        stream.write_all(reply).unwrap();
                    }
                    stream.shutdown(std::net::Shutdown::Write).unwrap();
                }
            }
        });
        let shutdown = {
            let addr = addr.clone();
            move || {
                stop.store(true, Ordering::SeqCst);
                drop(TcpStream::connect(&addr));
                handle.join().unwrap();
            }
        };
        (addr, requests, shutdown)
    }

    #[test]
    fn an_answered_request_is_never_sent_again() {
        let ok = HttpResponse::json(200, "{}".into()).to_bytes(true);
        for bad in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n",
        ] {
            // The bad answer on a fresh connection, then on a reused one.
            for script in [vec![bad.to_vec()], vec![ok.clone(), bad.to_vec()]] {
                let calls = script.len();
                let (addr, requests, shutdown) = scripted_server(script);
                let mut client = KeepAliveClient::new(addr);
                for _ in 1..calls {
                    assert_eq!(client.call("GET", "/", b"").unwrap(), (200, "{}".into()));
                }
                client.call("GET", "/", b"").unwrap_err();
                shutdown();
                assert_eq!(
                    requests.load(Ordering::SeqCst),
                    calls,
                    "{}",
                    String::from_utf8_lossy(bad)
                );
                assert_eq!(client.reconnects(), 0, "{}", String::from_utf8_lossy(bad));
            }
        }
    }

    #[test]
    fn a_reused_connection_the_server_closed_is_sent_again_once() {
        let ok = HttpResponse::json(200, "{}".into()).to_bytes(true);
        let (addr, requests, shutdown) = scripted_server(vec![ok]);
        let mut client = KeepAliveClient::new(addr);
        for _ in 0..3 {
            assert_eq!(client.call("GET", "/", b"").unwrap(), (200, "{}".into()));
        }
        shutdown();
        // The server ends each connection after one answer: the second and
        // third calls find theirs closed before a status byte.
        assert_eq!(requests.load(Ordering::SeqCst), 3);
        assert_eq!(client.reconnects(), 2);
    }
}
