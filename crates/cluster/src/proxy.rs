//! Outbound HTTP/1.1 client plumbing: one request per connection,
//! `Connection: close` framing, and cooperative cancellation.
//!
//! Cancellation is the primitive hedged reads are built on: every
//! attempt registers its socket in a [`CancelHandle`] before reading,
//! and the losing attempt's socket is shut down the moment a winner
//! responds, so the loser's thread fails out of its blocking read
//! immediately instead of draining a response nobody wants.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ppet_serve::front::MAX_BODY_BYTES;
use ppet_serve::http::MAX_HEAD_BYTES;

/// Bound on TCP connect; unreachable backends fail fast into failover.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest accepted response: the head and body limits the serve front
/// end applies to requests. A shard cannot ingest a larger result
/// through `PUT /cache` anyway, and a peer that keeps sending past it
/// fails the request instead of growing memory without bound.
const RESPONSE_LIMIT: u64 = (MAX_HEAD_BYTES + MAX_BODY_BYTES) as u64;

/// A parsed upstream response: status code plus body. Headers are not
/// surfaced — the router mints its own `X-Ppet-Request-Id` and forwards
/// it downstream, so the echo comes back from the router itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (close-delimited).
    pub body: String,
}

#[derive(Debug, Default)]
struct CancelState {
    stream: Option<TcpStream>,
    cancelled: bool,
}

/// Cancels one in-flight [`request`] from another thread by shutting
/// its socket down. Cancelling before the connect wins too: the attempt
/// observes the flag at registration and aborts.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle(Arc<Mutex<CancelState>>);

impl CancelHandle {
    /// Cancels the attempt: any blocked read fails out promptly.
    pub fn cancel(&self) {
        let mut state = self.0.lock().unwrap();
        state.cancelled = true;
        if let Some(stream) = state.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Whether [`CancelHandle::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.lock().unwrap().cancelled
    }

    /// Registers the attempt's socket; fails if already cancelled.
    fn register(&self, stream: &TcpStream) -> std::io::Result<()> {
        let clone = stream.try_clone()?;
        let mut state = self.0.lock().unwrap();
        if state.cancelled {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "attempt cancelled",
            ));
        }
        state.stream = Some(clone);
        Ok(())
    }
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{addr} resolves to nothing"),
        )
    })
}

/// Sends one request and reads the close-delimited response.
///
/// `timeout` bounds each blocking read/write; `cancel`, when given,
/// allows another thread to abort the attempt mid-read.
///
/// # Errors
///
/// Any transport failure: resolve, connect, write, read, cancellation,
/// a response over the serve front end's head-plus-body limit, or an
/// unparseable status line. Protocol-level failures (4xx/5xx) are
/// *not* errors — they come back as a [`Response`] for the caller to
/// interpret.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    timeout: Duration,
    cancel: Option<&CancelHandle>,
) -> std::io::Result<Response> {
    let stream = TcpStream::connect_timeout(&resolve(addr)?, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    if let Some(cancel) = cancel {
        cancel.register(&stream)?;
    }
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut stream = stream;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = String::new();
    stream.take(RESPONSE_LIMIT + 1).read_to_string(&mut raw)?;
    if raw.len() as u64 > RESPONSE_LIMIT {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("upstream response exceeds {RESPONSE_LIMIT} bytes"),
        ));
    }
    parse_response(&raw)
}

/// Splits a raw close-delimited HTTP/1.x response into status and body.
fn parse_response(raw: &str) -> std::io::Result<Response> {
    let bad = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed upstream response: {what}"),
        )
    };
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("no status line"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .ok_or_else(|| bad("no header/body separator"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_body() {
        let resp =
            parse_response("HTTP/1.1 429 Too Many Requests\r\nX: y\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, "{\"a\":1}");
        assert!(parse_response("garbage").is_err());
    }

    #[test]
    fn requests_round_trip_against_a_raw_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let mut got = String::new();
            // One read can return before the body arrives; read until
            // the full request (headers + 4-byte body) is in.
            while !got.contains("\r\n\r\nping") {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client closed early: {got}");
                got.push_str(&String::from_utf8_lossy(&buf[..n]));
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npong")
                .unwrap();
            got
        });
        let resp = request(
            &addr.to_string(),
            "POST",
            "/ping",
            &[("X-Ppet-Request-Id", "rid-1")],
            "ping",
            Duration::from_secs(5),
            None,
        )
        .unwrap();
        assert_eq!(
            resp,
            Response {
                status: 200,
                body: "pong".into()
            }
        );
        let got = server.join().unwrap();
        assert!(got.starts_with("POST /ping HTTP/1.1\r\n"), "{got}");
        assert!(got.contains("X-Ppet-Request-Id: rid-1\r\n"), "{got}");
        assert!(got.ends_with("\r\n\r\nping"), "{got}");
    }

    #[test]
    fn oversized_responses_are_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Drain the request first: closing on unread bytes would
            // reset the connection before the client sees the flood.
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            while !got.ends_with(b"\r\n\r\n") {
                let n = stream.read(&mut buf).unwrap();
                assert!(n > 0, "client closed early");
                got.extend_from_slice(&buf[..n]);
            }
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
            let chunk = vec![b'x'; 64 << 10];
            let mut sent = 0u64;
            // The client hangs up once past its limit; stop writing then.
            while sent <= RESPONSE_LIMIT && stream.write_all(&chunk).is_ok() {
                sent += chunk.len() as u64;
            }
        });
        let err = request(&addr, "GET", "/big", &[], "", Duration::from_secs(5), None)
            .expect_err("a response past the limit must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn cancel_aborts_a_blocked_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The "server" accepts and then never answers.
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let cancel = CancelHandle::default();
        let canceller = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                cancel.cancel();
            })
        };
        let started = std::time::Instant::now();
        let result = request(
            &addr,
            "GET",
            "/never",
            &[],
            "",
            Duration::from_secs(30),
            Some(&cancel),
        );
        assert!(result.is_err(), "cancelled attempt must not succeed");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancel must beat the read timeout"
        );
        canceller.join().unwrap();
        drop(hold);
    }

    #[test]
    fn cancelling_before_the_attempt_registers_aborts_it() {
        let cancel = CancelHandle::default();
        cancel.cancel();
        assert!(cancel.is_cancelled());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let result = request(
            &addr,
            "GET",
            "/x",
            &[],
            "",
            Duration::from_secs(5),
            Some(&cancel),
        );
        assert!(result.is_err());
    }
}
