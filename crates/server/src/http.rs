//! The HTTP/1.1 subset the server speaks: GET requests, one request per
//! connection, `Connection: close` responses.
//!
//! Parsing is deliberately strict and bounded: the request head (request
//! line + headers) is capped at [`MAX_HEAD_BYTES`], malformed heads get
//! a typed [`HttpError`] that maps to a 4xx status, and a peer that
//! stalls mid-request trips the socket read timeout instead of pinning a
//! worker forever.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Upper bound on the request head (request line + headers). A head
/// that exceeds it is rejected with `431`.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The response-integrity header: FNV-1a 64 of the body, lower-hex.
/// Clients cross-check it so a bit-corrupted body is always detected
/// (a single-byte change always changes FNV-1a: every round is a
/// bijection — XOR with the byte, then multiply by an odd prime mod
/// 2^64 — so distinct bodies of equal length cannot collide through a
/// one-byte difference).
pub const CHECKSUM_HEADER: &str = "x-dcnr-checksum";

/// FNV-1a 64 over `body` — the value carried in [`CHECKSUM_HEADER`].
pub fn body_checksum(body: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in body {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parsed request: method, decoded path, raw query string, headers.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method verbatim (`GET`, `HEAD`, ...).
    pub method: String,
    /// The percent-decoded path, without the query string.
    pub path: String,
    /// The raw query string (empty when absent). Individual key/value
    /// pairs are percent-decoded by the consumer.
    pub query: String,
    /// Header name/value pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first header named `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response about to be written: status, body, content type, and any
/// extra headers (e.g. `Retry-After`).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers appended after the standard set.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
        }
    }

    /// `200 OK` with a plain-text body.
    pub fn ok(body: impl Into<String>) -> Self {
        Self::text(200, body)
    }

    /// `404 Not Found` naming what was missing.
    pub fn not_found(what: &str) -> Self {
        Self::text(404, format!("not found: {what}\n"))
    }

    /// `400 Bad Request` with the reason.
    pub fn bad_request(reason: impl std::fmt::Display) -> Self {
        Self::text(400, format!("bad request: {reason}\n"))
    }

    /// `500 Internal Server Error` with the reason.
    pub fn internal_error(reason: impl std::fmt::Display) -> Self {
        Self::text(500, format!("internal error: {reason}\n"))
    }

    /// The load-shedding response: `503` with a `Retry-After` hint, sent
    /// by the accept loop when the bounded queue is full.
    pub fn unavailable(retry_after_secs: u32) -> Self {
        let mut r = Self::text(503, "server busy; retry later\n");
        r.extra_headers
            .push(("Retry-After".into(), retry_after_secs.to_string()));
        r
    }

    /// The conventional reason phrase for [`Response::status`].
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes status line + headers + body. One write call keeps
    /// the response a single TCP segment in the common case. Every
    /// response carries [`CHECKSUM_HEADER`] so clients can detect body
    /// corruption independently of `Content-Length` truncation checks.
    pub fn render(&self) -> Vec<u8> {
        let mut head = String::new();
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        let _ = write!(
            head,
            "X-Dcnr-Checksum: {:016x}\r\n",
            body_checksum(&self.body)
        );
        for (k, v) in &self.extra_headers {
            let _ = write!(head, "{k}: {v}\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the rendered response to `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.render())
    }
}

/// Why a request could not be parsed, with the status it maps to.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or timed out before a full head arrived.
    Io(io::Error),
    /// The head was syntactically invalid.
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    TooLarge,
}

impl HttpError {
    /// The response this error should be answered with, when the socket
    /// is still writable.
    pub fn response(&self) -> Response {
        match self {
            HttpError::Io(e) if e.kind() == io::ErrorKind::WouldBlock => {
                Response::text(408, "request timed out\n")
            }
            HttpError::Io(e) if e.kind() == io::ErrorKind::TimedOut => {
                Response::text(408, "request timed out\n")
            }
            HttpError::Io(_) => Response::bad_request("connection error"),
            HttpError::Malformed(m) => Response::bad_request(m),
            HttpError::TooLarge => Response::text(431, "request head too large\n"),
        }
    }
}

/// Reads and parses one request head from `stream`. Honors the socket's
/// read timeout: a stalled peer surfaces as [`HttpError::Io`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let end = loop {
        if let Some(pos) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge);
        }
        let n = stream.read(&mut buf).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-request".into()));
        }
        head.extend_from_slice(&buf[..n]);
    };
    // Bytes past the head are ignored: GET/HEAD requests carry no body
    // we care about, and the connection closes after one response.
    let text = std::str::from_utf8(&head[..end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    parse_head(text)
}

fn parse_head(text: &str) -> Result<Request, HttpError> {
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let path = percent_decode(raw_path)
        .map_err(|e| HttpError::Malformed(format!("bad path encoding: {e}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
    })
}

/// Decodes `%XX` escapes and `+`-as-space. Fails on truncated or
/// non-hex escapes and on sequences that do not decode to UTF-8.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| "truncated % escape".to_string())?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII % escape".to_string())?;
                let byte =
                    u8::from_str_radix(hex, 16).map_err(|_| format!("bad % escape %{hex}"))?;
                out.push(byte);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "escapes do not decode to UTF-8".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut raw.as_bytes())
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req = parse(
            "GET /artifacts/fig15?seed=7&scale=0.5 HTTP/1.1\r\n\
             Host: localhost\r\nX-Thing: a value\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/artifacts/fig15");
        assert_eq!(req.query, "seed=7&scale=0.5");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("x-thing"), Some("a value"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn incremental_reads_assemble_a_split_head() {
        // A peer that dribbles its head a few bytes per read() must
        // parse exactly like one that sends it whole.
        struct Trickle<'a>(&'a [u8]);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(5);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let raw = b"GET /artifacts/fig15?seed=7 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = read_request(&mut Trickle(raw)).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/artifacts/fig15");
        assert_eq!(req.query, "seed=7");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn decodes_percent_escapes_in_the_path() {
        let req = parse("GET /a%2Fb+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/a/b c");
        assert!(parse("GET /bad%zz HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /trunc%2 HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            parse("GET /x\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Closed before the double-CRLF terminator.
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_heads_with_431() {
        let huge = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(20_000));
        let err = parse(&huge).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge));
        assert_eq!(err.response().status, 431);
    }

    #[test]
    fn response_renders_status_headers_and_body() {
        let r = Response::ok("hello\n");
        let text = String::from_utf8(r.render()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 6\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello\n"));
        assert!(
            text.contains(&format!(
                "X-Dcnr-Checksum: {:016x}\r\n",
                body_checksum(b"hello\n")
            )),
            "{text}"
        );
        let shed = Response::unavailable(3);
        let text = String::from_utf8(shed.render()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
    }

    #[test]
    fn body_checksum_is_the_reference_fnv1a64() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(body_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(body_checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(body_checksum(b"foobar"), 0x8594_4171_f739_67e8);
        // Any single-byte flip changes the checksum.
        let base = body_checksum(b"hello");
        assert_ne!(body_checksum(b"hellp"), base);
        assert_ne!(body_checksum(b"iello"), base);
    }

    #[test]
    fn percent_decode_round_trips_plain_text() {
        assert_eq!(percent_decode("plain-text_1.0").unwrap(), "plain-text_1.0");
        assert_eq!(percent_decode("a%20b%2Fc").unwrap(), "a b/c");
        assert!(percent_decode("%e2%82%ac").unwrap().contains('€'));
        assert!(percent_decode("%ff%fe").is_err(), "invalid UTF-8");
    }
}
