//! Minimal HTTP/1.1, hand-rolled over `std::io`, with persistent connections.
//!
//! The build is offline (no tokio/hyper), and the serving layer needs only the
//! subset of HTTP/1.1 that JSON APIs use: a request line, `Content-Length`
//! framed bodies, and connection reuse. Responses always carry a
//! `Content-Length`, which is what makes keep-alive sound: the peer knows
//! exactly where one message ends and the next begins, no chunked encoding
//! needed. A connection stays open until the client sends
//! `Connection: close`, the server's per-connection request cap or idle
//! timeout fires, or either side hangs up — HTTP/1.1 semantics, where
//! persistence is the default.
//!
//! [`RequestParser`] is the server's request parser, built for the
//! nonblocking connection multiplexer: it accumulates whatever fragments the
//! socket delivers and yields complete requests (a property test pins that
//! any split of a byte stream parses to the same requests and the same
//! error). [`write_response`] is generic over `Write`, so it unit-tests
//! against in-memory buffers. Two clients match the server:
//! [`http_request`], the one-shot `Connection: close` helper, and
//! [`HttpClient`], a blocking keep-alive client that pipelines any number of
//! request/response round-trips over one TCP connection (what the
//! `serve_throughput` bench and the CI smoke drive).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Reject request bodies larger than this (1 MiB): the API carries forum-post
/// sized texts, so anything bigger is a client error, not a workload.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Reject request lines + headers larger than this (16 KiB) in total, so a
/// client streaming an endless header cannot grow server memory unboundedly.
pub const MAX_HEAD_BYTES: u64 = 16 << 10;

/// A parsed HTTP request: the line, the body, and the connection directive.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), upper-case as received.
    pub method: String,
    /// Request path without the query string, e.g. `/predict`.
    pub path: String,
    /// The raw query string after `?` (empty when none), e.g. `trace=1`.
    pub query: String,
    /// The `Accept` header value as received (empty when absent) — `/metrics`
    /// content negotiation reads this.
    pub accept: String,
    /// Decoded UTF-8 body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client asked to close the connection after this response
    /// (`Connection: close`). HTTP/1.1 default is to keep it open.
    pub close: bool,
}

impl Request {
    /// Look up a query parameter by name: `/metrics?format=prometheus` →
    /// `query_param("format") == Some("prometheus")`. A bare key with no `=`
    /// yields `Some("")`. No percent-decoding — the API's parameter values
    /// (`1`, `prometheus`) never need it.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name && !key.is_empty()).then_some(value)
        })
    }
}

/// Split a request target into `(path, query)` at the first `?`.
fn split_target(target: &str) -> (String, String) {
    match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    }
}

/// An HTTP response about to be written; the body is JSON unless built with
/// [`Response::text`] (the Prometheus exposition).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// `Retry-After` header value (whole seconds), emitted on shed (`429`)
    /// responses so clients know the suggested back-off.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A response with the given status and JSON body.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A plain-text response — the Prometheus exposition content type
    /// (version 0.0.4 of the text format).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            retry_after: None,
        }
    }

    /// A `200 OK` JSON response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::json(200, body)
    }

    /// An error response with a JSON `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(
            status,
            format!(
                "{{\"error\":{}}}",
                holistix_corpus::json::json_escape(message)
            ),
        )
    }

    /// A `429 Too Many Requests` load-shed response carrying a `Retry-After`
    /// hint of `retry_after_s` seconds. The admission layer's answer for
    /// "healthy but full" — distinct from `503` (model or server unavailable).
    pub fn too_many(message: &str, retry_after_s: u64) -> Self {
        let mut response = Self::error(429, message);
        response.retry_after = Some(retry_after_s);
        response
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// A request head parsed out of the buffer, waiting for its body bytes.
#[derive(Debug)]
struct PendingHead {
    method: String,
    path: String,
    query: String,
    accept: String,
    close: bool,
    /// Bytes the head occupies in the buffer (through the blank line).
    head_len: usize,
    content_length: usize,
}

/// An incremental, resumable request parser, built for the poller's
/// edge-driven reads: bytes arrive in arbitrary fragments via
/// [`feed`](Self::feed), and [`poll_request`](Self::poll_request) yields a
/// [`Request`] exactly when one is complete, `None` when more bytes are
/// needed, or an error on a protocol violation (head over
/// [`MAX_HEAD_BYTES`], a request line without a path, bad or oversized
/// `Content-Length`, non-UTF-8 head or body). A request is its request line,
/// its headers (`Content-Length`, `Connection` and `Accept` are
/// interpreted), then exactly `Content-Length` body bytes.
///
/// The parser owns a growable buffer, so a request split across any number of
/// reads — down to one byte at a time — parses identically to a single-shot
/// read, and bytes past a complete request (pipelining) stay buffered for the
/// next poll. After an error the connection is unrecoverable (framing is
/// lost); the caller answers 400 and closes.
#[derive(Debug, Default)]
pub struct RequestParser {
    buffer: Vec<u8>,
    /// Resume point for the head-terminator scan, so feeding a head one byte
    /// at a time stays linear instead of rescanning from zero each poll.
    scanned: usize,
    head: Option<PendingHead>,
}

impl RequestParser {
    /// A fresh parser with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// True when no partial request is buffered — EOF here is the clean end
    /// of a keep-alive session, while EOF mid-request is a peer abort.
    pub fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.head.is_none()
    }

    /// Try to complete one request from the buffered bytes. `Ok(None)` means
    /// the buffer holds only a request prefix — feed more and poll again.
    /// Call in a loop to drain pipelined requests.
    pub fn poll_request(&mut self) -> io::Result<Option<Request>> {
        let pending = match self.head.take() {
            Some(pending) => pending,
            None => match self.find_head_end()? {
                Some(head_len) => self.parse_head(head_len)?,
                None => return Ok(None),
            },
        };
        let total = pending.head_len + pending.content_length;
        if self.buffer.len() < total {
            self.head = Some(pending);
            return Ok(None);
        }
        let body = String::from_utf8(self.buffer[pending.head_len..total].to_vec())
            .map_err(|_| invalid("body is not valid UTF-8"))?;
        self.buffer.drain(..total);
        self.scanned = 0;
        Ok(Some(Request {
            method: pending.method,
            path: pending.path,
            query: pending.query,
            accept: pending.accept,
            body,
            close: pending.close,
        }))
    }

    /// Locate the head terminator (a blank line: `\r\n\r\n` or bare `\n\n`),
    /// returning the head length including it. Enforces [`MAX_HEAD_BYTES`]
    /// even while the terminator is still outstanding, so a client streaming
    /// an endless header cannot grow the buffer unboundedly.
    fn find_head_end(&mut self) -> io::Result<Option<usize>> {
        let buffer = &self.buffer;
        for i in self.scanned..buffer.len() {
            if buffer[i] != b'\n' {
                continue;
            }
            match buffer.get(i + 1) {
                Some(b'\n') => return Ok(Some(i + 2)),
                Some(b'\r') if buffer.get(i + 2) == Some(&b'\n') => return Ok(Some(i + 3)),
                _ => {}
            }
        }
        if buffer.len() as u64 >= MAX_HEAD_BYTES {
            return Err(invalid(format!(
                "request head exceeds the {MAX_HEAD_BYTES} byte limit"
            )));
        }
        // A terminator may straddle the next read; re-examine the tail.
        self.scanned = buffer.len().saturating_sub(2);
        Ok(None)
    }

    /// Parse the head's request line and headers.
    fn parse_head(&self, head_len: usize) -> io::Result<PendingHead> {
        if head_len as u64 > MAX_HEAD_BYTES {
            return Err(invalid(format!(
                "request head exceeds the {MAX_HEAD_BYTES} byte limit"
            )));
        }
        let head = std::str::from_utf8(&self.buffer[..head_len])
            .map_err(|_| invalid("request head is not valid UTF-8"))?;
        let mut lines = head.split('\n');
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| invalid("empty request line"))?
            .to_string();
        let (path, query) = split_target(
            parts
                .next()
                .ok_or_else(|| invalid("request line missing path"))?,
        );
        let mut content_length = 0usize;
        let mut close = false;
        let mut accept = String::new();
        for line in lines {
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid(format!("bad Content-Length {value:?}")))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                } else if name.eq_ignore_ascii_case("accept") {
                    accept = value.trim().to_string();
                }
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(invalid(format!(
                "body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"
            )));
        }
        Ok(PendingHead {
            method,
            path,
            query,
            accept,
            close,
            head_len,
            content_length,
        })
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response. `Content-Length` frames the body either way;
/// the `Connection` header tells the client whether the server will keep the
/// connection open for the next request. `trace_id`, when present, is emitted
/// as an `X-Trace-Id` header — the handle that correlates a client-observed
/// response with its server-side trace in `/debug/slow`.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
    trace_id: Option<&str>,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        connection,
    )?;
    if let Some(secs) = response.retry_after {
        write!(writer, "Retry-After: {secs}\r\n")?;
    }
    if let Some(id) = trace_id {
        write!(writer, "X-Trace-Id: {id}\r\n")?;
    }
    write!(writer, "\r\n{}", response.body)?;
    writer.flush()
}

/// Write one request to `writer`. The client half of [`write_response`].
/// `extra_headers` are emitted verbatim as `Name: value` lines (e.g. an
/// `Accept` for `/metrics` content negotiation). The whole request goes out
/// in one `write_all`: sent piecewise, the tail of a request waits behind
/// Nagle's algorithm for the server's delayed ACK (about 40 ms on Linux).
fn write_request<W: Write>(
    writer: &mut W,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request.push_str(body);
    writer.write_all(request.as_bytes())?;
    writer.flush()
}

/// A client-side parsed response: status, body, every header as received,
/// and whether the server announced it will close the connection.
struct ClientResponse {
    status: u16,
    body: String,
    headers: Vec<(String, String)>,
    server_closes: bool,
}

/// Read one response from `reader`: status line, headers, `Content-Length`
/// body. `server_closes` is true when the server announced
/// `Connection: close` (or sent no length, framing the body by EOF).
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<ClientResponse> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut server_closes = false;
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                server_closes = value.eq_ignore_ascii_case("close");
            }
            headers.push((name.to_string(), value.to_string()));
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| invalid("response body is not valid UTF-8"))?
        }
        // No length: the server frames the body by closing, so read to EOF.
        None => {
            server_closes = true;
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok(ClientResponse {
        status,
        body,
        headers,
        server_closes,
    })
}

/// One-shot blocking HTTP client: connect, send one `Connection: close`
/// request, read the full response. Returns `(status, body)`. Used by the
/// integration tests and the `serve_demo` smoke; sessions that issue several
/// requests should hold an [`HttpClient`] instead and reuse the connection.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_request(
        &mut (&stream),
        addr,
        method,
        path,
        body.unwrap_or(""),
        true,
        &[],
    )?;
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader)?;
    Ok((response.status, response.body))
}

/// What [`HttpClient::request_full`] returns: `(status, body, headers)`.
/// Header names keep their wire casing; match them case-insensitively.
pub type FullResponse = (u16, String, Vec<(String, String)>);

/// A blocking keep-alive HTTP client: one TCP connection, any number of
/// request/response round-trips. This is what makes connection reuse
/// measurable — the `serve_throughput` bench and the CI smoke issue all their
/// requests through one of these and read the server's
/// `keepalive_reuses_total` counter.
pub struct HttpClient {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    closed: bool,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            addr,
            stream,
            reader,
            closed: false,
        })
    }

    /// Send one request over the persistent connection and read its response.
    /// Returns `(status, body)`. Errors once the server has closed the
    /// connection (its request cap, its idle timeout, or a previous
    /// `Connection: close`); reconnect with [`HttpClient::connect`] to go on.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let (status, body, _) = self.request_full(method, path, body, &[])?;
        Ok((status, body))
    }

    /// Like [`request`](Self::request), but with caller-supplied request
    /// headers and the response headers returned as [`FullResponse`]. This is
    /// how the observability tests read `X-Trace-Id` and ask `/metrics` for
    /// Prometheus via `Accept`.
    pub fn request_full(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<FullResponse> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server closed this keep-alive connection",
            ));
        }
        write_request(
            &mut self.stream,
            self.addr,
            method,
            path,
            body.unwrap_or(""),
            false,
            extra_headers,
        )?;
        let response = read_response(&mut self.reader)?;
        if response.server_closes {
            self.closed = true;
        }
        Ok((response.status, response.body, response.headers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Parse `raw` as one complete request.
    fn parse_one(raw: &str) -> io::Result<Request> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        Ok(parser.poll_request()?.expect("expected a complete request"))
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n{\"texts\":[]}";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/predict");
        assert_eq!(request.body, "{\"texts\":[]}");
        // HTTP/1.1 default: no Connection header means keep the connection.
        assert!(!request.close);
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert!(request.body.is_empty());
    }

    #[test]
    fn connection_close_is_honored_case_insensitively() {
        let raw = "GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n";
        assert!(parse_one(raw).unwrap().close);
        let keep = "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(!parse_one(keep).unwrap().close);
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let raw = "POST /p HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi";
        assert_eq!(parse_one(raw).unwrap().body, "hi");
    }

    #[test]
    fn eof_before_request_line_is_a_clean_close() {
        // Nothing buffered: EOF here ends the session cleanly...
        let mut parser = RequestParser::new();
        assert!(parser.poll_request().unwrap().is_none());
        assert!(parser.is_idle());
        // ...while EOF after part of a request line is a peer abort.
        parser.feed(b"GET /hea");
        assert!(parser.poll_request().unwrap().is_none());
        assert!(!parser.is_idle());
    }

    #[test]
    fn two_requests_parse_back_to_back_from_one_stream() {
        // Keep-alive framing: Content-Length delimits the first body exactly,
        // so the second request parses from the same reader.
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        let first = parser.poll_request().unwrap().unwrap();
        assert_eq!(first.body, "hi");
        let second = parser.poll_request().unwrap().unwrap();
        assert_eq!(second.path, "/healthz");
        assert!(parser.poll_request().unwrap().is_none());
        assert!(parser.is_idle());
    }

    #[test]
    fn rejects_oversized_and_truncated_bodies() {
        let huge = format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20);
        assert!(parse_one(&huge).is_err());
        let bad_length = "POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(parse_one(bad_length).is_err());
        // A truncated body, or EOF mid-headers, leaves a partial request
        // buffered: EOF there is a peer abort, unlike EOF before the request
        // line.
        for truncated in [
            "POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            "POST /p HTTP/1.1\r\nContent-Length: 2\r\n",
        ] {
            let mut parser = RequestParser::new();
            parser.feed(truncated.as_bytes());
            assert!(parser.poll_request().unwrap().is_none());
            assert!(!parser.is_idle(), "{truncated:?}");
        }
    }

    #[test]
    fn rejects_unbounded_request_heads() {
        // A header stream that never ends (no newline) must error once the
        // head budget is spent, not grow a String until OOM.
        let endless = format!("GET /healthz HTTP/1.1\r\nX-Junk: {}", "A".repeat(64 << 10));
        let err = parse_one(&endless).unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
        // Same budget applied to an endless request line.
        let endless_line = "G".repeat(64 << 10);
        assert!(parse_one(&endless_line).is_err());
        // Many small headers also spend the budget.
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-H: v\r\n".repeat((MAX_HEAD_BYTES as usize / 8) + 10)
        );
        assert!(parse_one(&many).is_err());
    }

    /// Drain every complete request currently parseable.
    fn drain(parser: &mut RequestParser) -> Vec<Request> {
        let mut out = Vec::new();
        while let Some(request) = parser.poll_request().unwrap() {
            out.push(request);
        }
        out
    }

    #[test]
    fn incremental_parser_handles_one_byte_at_a_time() {
        let raw = "POST /predict HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        let mut parser = RequestParser::new();
        let mut requests = Vec::new();
        for (i, byte) in raw.as_bytes().iter().enumerate() {
            parser.feed(&[*byte]);
            let drained = drain(&mut parser);
            if i + 1 < raw.len() {
                assert!(drained.is_empty(), "request completed early at byte {i}");
                assert!(!parser.is_idle());
            }
            requests.extend(drained);
        }
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].body, "hello world");
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_drains_pipelined_requests_in_order() {
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        let requests = drain(&mut parser);
        let paths: Vec<&str> = requests.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/p", "/healthz", "/metrics"]);
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_rejects_what_the_blocking_parser_rejects() {
        // Oversized Content-Length fails as soon as the head completes.
        let mut parser = RequestParser::new();
        parser.feed(format!("POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 2 << 20).as_bytes());
        assert!(parser.poll_request().is_err());

        let mut parser = RequestParser::new();
        parser.feed(b"POST /p HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        assert!(parser.poll_request().is_err());

        // An endless head errors once the budget is spent — even though no
        // terminator ever arrives.
        let mut parser = RequestParser::new();
        parser.feed(b"GET /healthz HTTP/1.1\r\nX-Junk: ");
        for _ in 0..(64 << 10) / 16 {
            parser.feed(&[b'A'; 16]);
            if parser.poll_request().is_err() {
                return;
            }
        }
        panic!("endless head never errored");
    }

    #[test]
    fn incremental_parser_terminator_straddles_reads() {
        // Split the \r\n\r\n terminator across feeds at every offset.
        let raw = "POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        for split in 1..raw.len() {
            let mut parser = RequestParser::new();
            parser.feed(&raw.as_bytes()[..split]);
            let _ = parser.poll_request().unwrap();
            parser.feed(&raw.as_bytes()[split..]);
            let request = parser.poll_request().unwrap().expect("complete");
            assert_eq!(request.body, "ok", "split at {split}");
        }
    }

    #[test]
    fn writes_a_well_formed_keep_alive_response() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{\"a\":1}"), true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("X-Trace-Id"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn writes_a_close_response_when_asked() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::ok("{}"), false, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn too_many_carries_a_retry_after_header() {
        let mut out = Vec::new();
        let response = Response::too_many("queue is full", 3);
        assert_eq!(response.status, 429);
        write_response(&mut out, &response, true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
        assert!(text.contains("\"error\":\"queue is full\""));
        // Ordinary responses never emit the header.
        let mut plain = Vec::new();
        write_response(&mut plain, &Response::error(503, "down"), true, None).unwrap();
        let plain = String::from_utf8(plain).unwrap();
        assert!(plain.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(!plain.contains("Retry-After"));
    }

    #[test]
    fn writes_trace_id_and_content_type() {
        let mut out = Vec::new();
        let response = Response::text(200, "holistix_up 1\n");
        write_response(&mut out, &response, true, Some("00000000deadbeef")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("X-Trace-Id: 00000000deadbeef\r\n"));
        assert!(text.ends_with("\r\n\r\nholistix_up 1\n"));
    }

    /// A writer that counts `write` calls: one per segment a socket would
    /// hand to TCP.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_is_written_in_one_call() {
        let addr: SocketAddr = "127.0.0.1:8080".parse().unwrap();
        let mut writer = CountingWriter::default();
        let body = "{\"text\":\"hello\"}";
        let accept = [("Accept", "text/plain")];
        write_request(&mut writer, addr, "POST", "/predict", body, false, &accept).unwrap();
        assert_eq!(writer.writes, 1);
        write_request(&mut writer, addr, "GET", "/metrics", "", true, &[]).unwrap();
        assert_eq!(writer.writes, 2);
        // The bytes are the two requests, back to back.
        let mut parser = RequestParser::new();
        parser.feed(&writer.bytes);
        let first = parser.poll_request().unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_str()),
            ("/predict", body)
        );
        assert_eq!(first.accept, "text/plain");
        let second = parser.poll_request().unwrap().unwrap();
        assert_eq!((second.path.as_str(), second.close), ("/metrics", true));
    }

    #[test]
    fn read_response_parses_status_body_headers_and_close() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Trace-Id: abc\r\nConnection: keep-alive\r\n\r\n{}";
        let response = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(
            (
                response.status,
                response.body.as_str(),
                response.server_closes
            ),
            (200, "{}", false)
        );
        let trace = response
            .headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("x-trace-id"));
        assert_eq!(trace.map(|(_, v)| v.as_str()), Some("abc"));
        let raw = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let response = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(
            (
                response.status,
                response.body.as_str(),
                response.server_closes
            ),
            (400, "", true)
        );
        // No Content-Length: EOF frames the body and implies close.
        let raw = "HTTP/1.1 200 OK\r\n\r\nrest";
        let response = read_response(&mut Cursor::new(raw)).unwrap();
        assert_eq!(
            (response.body.as_str(), response.server_closes),
            ("rest", true)
        );
    }

    #[test]
    fn query_strings_split_off_the_path() {
        let raw = "GET /metrics?format=prometheus&trace=1 HTTP/1.1\r\n\r\n";
        let request = parse_one(raw).unwrap();
        assert_eq!(request.path, "/metrics");
        assert_eq!(request.query, "format=prometheus&trace=1");
        assert_eq!(request.query_param("format"), Some("prometheus"));
        assert_eq!(request.query_param("trace"), Some("1"));
        assert_eq!(request.query_param("absent"), None);
        // No query string: path is untouched and lookups miss.
        let bare = parse_one("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("trace"), None);
    }

    #[test]
    fn accept_header_is_captured() {
        let raw = "GET /metrics HTTP/1.1\r\nAccept: text/plain\r\n\r\n";
        assert_eq!(parse_one(raw).unwrap().accept, "text/plain");
    }

    #[test]
    fn error_responses_escape_the_message() {
        let response = Response::error(400, "bad \"field\"");
        assert_eq!(response.status, 400);
        assert_eq!(response.body, r#"{"error":"bad \"field\""}"#);
    }
}
