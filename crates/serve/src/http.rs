//! A minimal HTTP/1.1 reader/writer — just enough protocol for the
//! compile service's routes and the router's hop to its shards,
//! hand-rolled over `std::io` so the workspace stays dependency-free.
//!
//! Supported: request line + headers (64 KiB together),
//! `Content-Length` bodies (bounded by the caller), and opt-in
//! keep-alive. A request that sends `Connection: keep-alive` is answered
//! with `Connection: keep-alive` and may be followed by another request
//! on the same connection; any other request is the connection's last
//! and is answered with `Connection: close`. Keep-alive needs exact
//! framing, so a head with a `Transfer-Encoding` header (whose unread
//! chunked body would be parsed as the next request) or with conflicting
//! `Content-Length` headers is malformed. Not supported: chunked
//! transfer, TLS, HTTP/2.

use std::io::{BufRead, Read, Write};

/// Largest accepted request head (request line plus headers) in bytes.
/// A client that keeps sending head bytes past it gets a `Malformed`
/// error instead of an ever-growing line buffer.
pub const MAX_HEAD_BYTES: usize = 64 << 10;

/// A parsed request: method, path, body, the client-supplied request
/// ID, if any, and whether the client asked to keep the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), uppercased by the client.
    pub method: String,
    /// Request path (`/compile`, `/healthz`, …), query string ignored.
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Raw `X-Ppet-Request-Id` header value, unsanitized.
    pub request_id: Option<String>,
    /// Whether the request sent `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// The framing of one message head: its first line and the headers
/// this module acts on. Requests and responses share it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Head {
    /// The request line or status line, line ending stripped.
    pub start_line: String,
    /// The declared `Content-Length`, if any.
    pub content_length: Option<usize>,
    /// Whether a `Connection` header named `keep-alive` and none named
    /// `close`.
    pub keep_alive: bool,
    /// Raw `X-Ppet-Request-Id` header value, unsanitized.
    pub request_id: Option<String>,
}

/// A protocol-level failure while reading a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full request arrived, or an I/O
    /// error (including read timeouts) interrupted it.
    Io(String),
    /// The bytes on the wire were not a well-formed HTTP/1.x request.
    Malformed(String),
    /// The declared `Content-Length` exceeds the server's body limit.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Server limit.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(e) => write!(f, "malformed request: {e}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit of {limit}")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads one line of the message head, charging it to the head budget
/// `left`; reading stops once the budget is spent.
fn read_head_line<R: BufRead>(reader: &mut R, left: &mut u64) -> Result<String, HttpError> {
    let mut line = String::new();
    let n = reader
        .by_ref()
        .take(*left)
        .read_line(&mut line)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    *left -= n as u64;
    if *left == 0 && !line.ends_with('\n') {
        return Err(HttpError::Malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }
    Ok(line)
}

/// Reads one message head (start line plus headers, 64 KiB together)
/// and leaves `reader` at the first body byte.
///
/// # Errors
///
/// [`HttpError::Io`] when the connection closes before the first byte
/// or mid-head; [`HttpError::Malformed`] on an oversized head, a header
/// line without a colon, an unparseable or conflicting
/// `Content-Length`, or any `Transfer-Encoding`.
pub fn read_head<R: BufRead>(mut reader: R) -> Result<Head, HttpError> {
    let mut left = MAX_HEAD_BYTES as u64;
    let line = read_head_line(&mut reader, &mut left)?;
    if line.is_empty() {
        return Err(HttpError::Io("connection closed before request".into()));
    }
    let mut head = Head {
        start_line: line.trim_end_matches(['\r', '\n']).to_owned(),
        ..Head::default()
    };
    let mut close = false;
    loop {
        let header = read_head_line(&mut reader, &mut left)?;
        if header.is_empty() {
            return Err(HttpError::Io("connection closed mid-head".into()));
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("header {header:?}")));
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("content-length {value:?}")))?;
            if head.content_length.is_some_and(|seen| seen != length) {
                return Err(HttpError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            head.content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(format!(
                "transfer-encoding {value:?} is not supported; send a content-length body"
            )));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',').map(str::trim) {
                close |= token.eq_ignore_ascii_case("close");
                head.keep_alive |= token.eq_ignore_ascii_case("keep-alive");
            }
        } else if name.eq_ignore_ascii_case("x-ppet-request-id") {
            head.request_id = Some(value.to_owned());
        }
    }
    head.keep_alive &= !close;
    Ok(head)
}

/// Reads one HTTP/1.x request from `reader`, bounding the head (request
/// line plus headers) at 64 KiB and the body at `max_body_bytes`. The
/// reader is left just past the body, so a kept-alive connection reads
/// its next request from the same reader.
///
/// # Errors
///
/// [`HttpError`] on connection loss, malformed framing, an oversized
/// head, or an oversized declared body.
pub fn read_request<R: BufRead>(
    mut reader: R,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    let head = read_head(&mut reader)?;
    let mut parts = head.start_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }

    let content_length = head.content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    let body = String::from_utf8(body)
        .map_err(|_| HttpError::Malformed("body is not valid UTF-8".into()))?;

    // Strip any query string: the service routes on the bare path.
    let path = path.split('?').next().unwrap_or(path).to_owned();
    Ok(Request {
        method,
        path,
        body,
        request_id: head.request_id,
        keep_alive: head.keep_alive,
    })
}

/// Writes one response and flushes, with `Connection: close`: the
/// connection carries no further request.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response<S: Write>(
    stream: S,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, &[], body, false)
}

/// [`write_response`] with extra response headers (name, value) — the
/// compile routes use it to echo `X-Ppet-Request-Id` — and the
/// connection's fate: `keep_alive` answers `Connection: keep-alive`,
/// otherwise `Connection: close`. Header values must already be
/// header-safe (no CR/LF); the request-ID sanitizer guarantees that for
/// IDs.
///
/// The whole response goes out in one `write_all`: on a socket with
/// `TCP_NODELAY` every write is its own segment.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response_with<S: Write>(
    mut stream: S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len(),
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// Formats a `ppet-error/v1` JSON body (the same error envelope the
/// `merced` CLI prints on stderr).
#[must_use]
pub fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"schema\":\"ppet-error/v1\",\"kind\":{},\"message\":{}}}",
        ppet_trace::json::escaped(kind),
        ppet_trace::json::escaped(message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = "POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(raw.as_bytes(), 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/compile");
        assert_eq!(req.body, "body");
    }

    #[test]
    fn parses_a_get_without_body_and_strips_query() {
        let raw = "GET /metrics?x=1 HTTP/1.1\r\n\r\n";
        let req = read_request(raw.as_bytes(), 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let err = read_request(raw.as_bytes(), 16).unwrap_err();
        assert_eq!(
            err,
            HttpError::BodyTooLarge {
                declared: 999,
                limit: 16
            }
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_request("not http at all\r\n\r\n".as_bytes(), 16),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            read_request("".as_bytes(), 16),
            Err(HttpError::Io(_))
        ));
    }

    /// Feeds `stream` to [`read_request`]; returns the error and how many
    /// bytes it consumed.
    fn read_failure(mut stream: impl Read) -> (HttpError, usize) {
        struct Counting<'a, R>(&'a mut R, usize);
        impl<R: Read> Read for Counting<'_, R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.read(buf)?;
                self.1 += n;
                Ok(n)
            }
        }
        let mut counting = Counting(&mut stream, 0);
        let err = read_request(std::io::BufReader::new(&mut counting), 1024).unwrap_err();
        (err, counting.1)
    }

    /// A client streaming head bytes with no newline must be cut off at
    /// the head bound, not buffered for as long as it keeps sending.
    #[test]
    fn an_endless_request_head_is_cut_off_at_the_bound() {
        let endless = || std::io::repeat(b'a').take(16 << 20);
        let line = read_failure(endless());
        let header = read_failure("GET / HTTP/1.1\r\nX-Junk: ".as_bytes().chain(endless()));
        for (err, consumed) in [line, header] {
            assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
            // One `BufReader` buffer (8 KiB) may be read past the bound.
            assert!(
                consumed <= MAX_HEAD_BYTES + (8 << 10),
                "consumed {consumed} bytes"
            );
        }
    }

    #[test]
    fn captures_the_request_id_header() {
        let raw =
            "POST /compile HTTP/1.1\r\nX-Ppet-Request-Id: abc-123\r\nContent-Length: 0\r\n\r\n";
        let req = read_request(raw.as_bytes(), 1024).unwrap();
        assert_eq!(req.request_id.as_deref(), Some("abc-123"));
        // Header names are case-insensitive.
        let raw = "GET /metrics HTTP/1.1\r\nx-ppet-request-id:  zz \r\n\r\n";
        let req = read_request(raw.as_bytes(), 1024).unwrap();
        assert_eq!(req.request_id.as_deref(), Some("zz"));
        let raw = "GET /metrics HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(raw.as_bytes(), 1024).unwrap().request_id, None);
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[("X-Ppet-Request-Id", "deadbeef")],
            "{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("X-Ppet-Request-Id: deadbeef\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn writes_a_well_formed_response() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", "{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn keep_alive_is_opt_in() {
        let parse = |connection: &str| {
            let raw = format!("GET /healthz HTTP/1.1\r\n{connection}\r\n");
            read_request(raw.as_bytes(), 16).unwrap().keep_alive
        };
        assert!(!parse(""));
        assert!(parse("Connection: keep-alive\r\n"));
        assert!(parse("connection: Upgrade, Keep-Alive\r\n"));
        assert!(!parse("Connection: close\r\n"));
        assert!(!parse("Connection: keep-alive, close\r\n"));
        assert!(!parse("Connection: keep-alive\r\nConnection: close\r\n"));
    }

    #[test]
    fn consecutive_requests_parse_from_one_reader() {
        let raw = "POST /a HTTP/1.1\r\nConnection: keep-alive\r\nContent-Length: 3\r\n\r\none\
                   GET /b HTTP/1.1\r\n\r\n";
        let mut reader = raw.as_bytes();
        let first = read_request(&mut reader, 16).unwrap();
        assert_eq!((first.path.as_str(), first.body.as_str()), ("/a", "one"));
        assert!(first.keep_alive);
        let second = read_request(&mut reader, 16).unwrap();
        assert_eq!((second.path.as_str(), second.keep_alive), ("/b", false));
        assert!(matches!(
            read_request(&mut reader, 16),
            Err(HttpError::Io(_))
        ));
    }

    /// A chunked body left unread would be parsed as the next request on
    /// a kept-alive connection, so any `Transfer-Encoding` is refused.
    #[test]
    fn transfer_encoding_is_refused() {
        let raw = "POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                   4\r\nbody\r\n0\r\n\r\n";
        let err = read_request(raw.as_bytes(), 1024).unwrap_err();
        assert!(
            matches!(&err, HttpError::Malformed(m) if m.contains("transfer-encoding")),
            "{err}"
        );
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 4\r\ntransfer-encoding: identity\r\n\r\nbody";
        assert!(matches!(
            read_request(raw.as_bytes(), 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_refused() {
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nbody";
        let err = read_request(raw.as_bytes(), 1024).unwrap_err();
        assert!(
            matches!(&err, HttpError::Malformed(m) if m.contains("conflicting")),
            "{err}"
        );
        // A repeated identical length is the same framing.
        let raw = "POST /compile HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nbody";
        assert_eq!(read_request(raw.as_bytes(), 1024).unwrap().body, "body");
    }

    #[test]
    fn a_head_cut_off_before_its_blank_line_is_an_io_error() {
        let raw = "GET /metrics HTTP/1.1\r\nHost: x\r\n";
        assert!(matches!(
            read_request(raw.as_bytes(), 16),
            Err(HttpError::Io(_))
        ));
    }

    /// With `TCP_NODELAY` each write is its own segment: a response must
    /// leave in one.
    #[test]
    fn a_response_is_one_write() {
        struct Writes(Vec<u8>, usize);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new(), 0);
        let headers = [("X-Ppet-Request-Id", "rid")];
        write_response_with(&mut out, 200, "application/json", &headers, "{}", true).unwrap();
        assert_eq!(out.1, 1, "one write per response");
        let text = String::from_utf8(out.0).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("close"), "{text}");
        assert!(text.ends_with("X-Ppet-Request-Id: rid\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn error_bodies_use_the_cli_envelope() {
        let body = error_body("timeout", "compile exceeded 5ms");
        assert_eq!(
            body,
            "{\"schema\":\"ppet-error/v1\",\"kind\":\"timeout\",\"message\":\"compile exceeded 5ms\"}"
        );
    }
}
