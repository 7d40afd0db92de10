//! Outbound HTTP/1.1 client plumbing: one-shot requests, a small pool
//! of kept-alive connections per upstream, and cooperative
//! cancellation.
//!
//! [`request`] opens a connection, sends `Connection: close` and reads
//! one response. A [`Pool`] sends `Connection: keep-alive` and keeps up
//! to [`POOL_IDLE`] idle connections to its upstream, so the router's
//! hop to a shard skips the TCP handshake, the shard's accept poll and
//! its handler-thread spawn. Both read a response by its
//! `Content-Length`, or to the close when it declares none, within the
//! serve front end's head and body limits. Sockets run with
//! `TCP_NODELAY` and each request leaves in one write.
//!
//! A connection goes back to its pool only when its response was
//! `Content-Length`-framed, the upstream answered `Connection:
//! keep-alive`, no bytes followed the body, and its attempt was not
//! cancelled. A reused connection that fails before the first response
//! byte (the upstream closed it while it sat idle) is retried once on a
//! fresh connection, and the failure is not the upstream's: the routes
//! the router pools (`POST /compile`, `PUT /cache/<key>`) are
//! idempotent.
//!
//! Cancellation is the primitive hedged reads are built on: every
//! attempt registers its socket in a [`CancelHandle`] before reading,
//! and the losing attempt's socket is shut down the moment a winner
//! responds, so the loser's thread fails out of its blocking read
//! immediately instead of draining a response nobody wants. An attempt
//! takes its socket back out of the handle before pooling it, so a
//! stale handle can never shut down a pooled connection.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ppet_serve::front::MAX_BODY_BYTES;
use ppet_serve::http::{self, HttpError, MAX_HEAD_BYTES};
use ppet_trace::Counter;

/// Bound on TCP connect; unreachable backends fail fast into failover.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Most idle connections a [`Pool`] keeps; a connection finishing while
/// the pool is full is closed.
pub const POOL_IDLE: usize = 4;

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
    /// Response body.
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

    /// Takes the attempt's socket back out, so a later cancel leaves it
    /// alone; false when the attempt was already cancelled.
    fn release(&self) -> bool {
        let mut state = self.0.lock().unwrap();
        state.stream = None;
        !state.cancelled
    }
}

/// Idle kept-alive connections to one upstream, at most [`POOL_IDLE`].
#[derive(Debug)]
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
    connects: Counter,
}

impl Pool {
    /// An empty pool for the upstream at `addr`; `connects` counts the
    /// connections it opens.
    #[must_use]
    pub fn new(addr: String, connects: Counter) -> Self {
        Self {
            addr,
            idle: Mutex::new(Vec::new()),
            connects,
        }
    }

    /// The upstream's address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Closes every idle connection.
    pub fn clear(&self) {
        self.idle.lock().unwrap().clear();
    }

    /// [`request`] on an idle connection when the pool holds one, else
    /// on a fresh one, which the pool keeps afterwards when it may carry
    /// another request. A reused connection that fails before the first
    /// response byte is retried once on a fresh connection.
    ///
    /// # Errors
    ///
    /// As [`request`].
    pub fn request(
        &self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
        timeout: Duration,
        cancel: Option<&CancelHandle>,
    ) -> std::io::Result<Response> {
        let message = encode(&self.addr, method, path, headers, body, true);
        let reused = self.idle.lock().unwrap().pop();
        if let Some(stream) = reused {
            match exchange(stream, &message, timeout, cancel) {
                Exchange::Silent(_) if !cancel.is_some_and(CancelHandle::is_cancelled) => {}
                done => return self.settle(done),
            }
        }
        let stream = connect(&self.addr)?;
        self.connects.inc();
        self.settle(exchange(stream, &message, timeout, cancel))
    }

    /// The exchange's result, pooling its connection when it may carry
    /// another request.
    fn settle(&self, done: Exchange) -> std::io::Result<Response> {
        match done {
            Exchange::Answered(response, Some(stream)) => {
                let mut idle = self.idle.lock().unwrap();
                if idle.len() < POOL_IDLE {
                    idle.push(stream);
                }
                Ok(response)
            }
            Exchange::Answered(response, None) => Ok(response),
            Exchange::Silent(e) | Exchange::Failed(e) => Err(e),
        }
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

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&resolve(addr)?, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one request on a fresh connection with `Connection: close` and
/// reads the response.
///
/// `timeout` bounds each blocking read/write; `cancel`, when given,
/// allows another thread to abort the attempt mid-read.
///
/// # Errors
///
/// Any transport failure: resolve, connect, write, read, cancellation,
/// a response over the serve front end's head-plus-body limit, or an
/// unparseable head. Protocol-level failures (4xx/5xx) are *not*
/// errors — they come back as a [`Response`] for the caller to
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
    let message = encode(addr, method, path, headers, body, false);
    match exchange(connect(addr)?, &message, timeout, cancel) {
        Exchange::Answered(response, _) => Ok(response),
        Exchange::Silent(e) | Exchange::Failed(e) => Err(e),
    }
}

/// One request's bytes: head and body, for a single write.
fn encode(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut message =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: {connection}\r\n");
    for (name, value) in headers {
        message.push_str(name);
        message.push_str(": ");
        message.push_str(value);
        message.push_str("\r\n");
    }
    message.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    message.push_str(body);
    message.into_bytes()
}

/// How one request on one connection ended.
enum Exchange {
    /// A response, with its connection when that may carry another
    /// request.
    Answered(Response, Option<TcpStream>),
    /// The connection was closed or reset before the first response
    /// byte.
    Silent(std::io::Error),
    /// Any other failure.
    Failed(std::io::Error),
}

/// Writes `message` on `stream` and reads the response.
fn exchange(
    stream: TcpStream,
    message: &[u8],
    timeout: Duration,
    cancel: Option<&CancelHandle>,
) -> Exchange {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, UnexpectedEof};
    let lost = |e: std::io::Error| match e.kind() {
        BrokenPipe | ConnectionAborted | ConnectionReset | UnexpectedEof => Exchange::Silent(e),
        _ => Exchange::Failed(e),
    };
    let ready = stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .and_then(|()| cancel.map_or(Ok(()), |c| c.register(&stream)));
    if let Err(e) = ready {
        return Exchange::Failed(e);
    }
    if let Err(e) = (&stream).write_all(message) {
        return lost(e);
    }
    let mut reader = BufReader::new(&stream);
    match reader.fill_buf() {
        Ok([]) => {
            return lost(std::io::Error::new(
                UnexpectedEof,
                "connection closed before the response",
            ))
        }
        Ok(_) => {}
        Err(e) => return lost(e),
    }
    let read = read_response(&mut reader);
    let drained = reader.buffer().is_empty();
    // Always take the socket back out of the handle; only an attempt
    // nobody cancelled may pool it.
    let released = cancel.map_or(true, CancelHandle::release);
    match read {
        Ok((response, framed)) => {
            let reusable = framed && drained && released;
            Exchange::Answered(response, reusable.then_some(stream))
        }
        Err(e) => Exchange::Failed(e),
    }
}

/// Reads one HTTP/1.x response of at most [`RESPONSE_LIMIT`] bytes;
/// also says whether it was `Content-Length`-framed with `Connection:
/// keep-alive`, the framing that lets its connection carry another.
fn read_response<R: std::io::BufRead>(reader: R) -> std::io::Result<(Response, bool)> {
    let bad = |what: String| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed upstream response: {what}"),
        )
    };
    let too_large = || {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("upstream response exceeds {RESPONSE_LIMIT} bytes"),
        )
    };
    let mut limited = reader.take(RESPONSE_LIMIT + 1);
    let head = http::read_head(&mut limited).map_err(|e| match e {
        HttpError::Io(e) => std::io::Error::other(e),
        e => bad(e.to_string()),
    })?;
    let status = head
        .start_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("no status line".into()))?;
    let mut body = Vec::new();
    match head.content_length {
        Some(length) if length > MAX_BODY_BYTES => return Err(too_large()),
        Some(length) => {
            body.resize(length, 0);
            limited.read_exact(&mut body)?;
        }
        None => {
            limited.read_to_end(&mut body)?;
            if limited.limit() == 0 {
                return Err(too_large());
            }
        }
    }
    let body = String::from_utf8(body).map_err(|_| bad("body is not valid UTF-8".into()))?;
    let framed = head.content_length.is_some() && head.keep_alive;
    Ok((Response { status, body }, framed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_status_and_body() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nX: y\r\n\r\n{\"a\":1}";
        let (resp, framed) = read_response(raw.as_bytes()).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, "{\"a\":1}");
        assert!(!framed, "close-delimited");
        assert!(read_response("garbage".as_bytes()).is_err());
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

    /// A raw upstream: for each connection in `script`, accepts it and
    /// answers that many requests with `reply`, then closes it. Returns
    /// the address and the connections' request counts.
    fn scripted(
        script: Vec<usize>,
        reply: &'static str,
    ) -> (String, std::thread::JoinHandle<Vec<usize>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            script
                .into_iter()
                .map(|answers| {
                    let (stream, _) = listener.accept().unwrap();
                    let mut conn = BufReader::new(stream);
                    let mut served = 0;
                    while served < answers {
                        let Ok(request) = http::read_request(&mut conn, 1 << 10) else {
                            break;
                        };
                        assert!(request.keep_alive, "a pool asks for keep-alive");
                        if conn.get_mut().write_all(reply.as_bytes()).is_err() {
                            break;
                        }
                        served += 1;
                    }
                    served
                })
                .collect()
        });
        (addr, server)
    }

    const KEPT: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";

    fn pooled(pool: &Pool) -> std::io::Result<Response> {
        pool.request("GET", "/x", &[], "", Duration::from_secs(5), None)
    }

    #[test]
    fn a_pool_reuses_its_connection() {
        let (addr, server) = scripted(vec![3], KEPT);
        let connects = Counter::default();
        let pool = Pool::new(addr, connects.clone());
        for _ in 0..3 {
            assert_eq!(pooled(&pool).unwrap().body, "ok");
        }
        assert_eq!(connects.get(), 1, "one connection for three requests");
        assert_eq!(pool.idle.lock().unwrap().len(), 1);
        pool.clear();
        assert_eq!(server.join().unwrap(), vec![3]);
    }

    /// An upstream that closed an idle pooled connection costs one retry
    /// on a fresh connection, not a failed request.
    #[test]
    fn a_connection_closed_while_idle_is_retried_on_a_fresh_one() {
        let (addr, server) = scripted(vec![1, 1], KEPT);
        let connects = Counter::default();
        let pool = Pool::new(addr, connects.clone());
        assert_eq!(pooled(&pool).unwrap().body, "ok");
        // Let the upstream's close land before the connection is reused.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pooled(&pool).unwrap().body, "ok");
        assert_eq!(connects.get(), 2);
        pool.clear();
        assert_eq!(server.join().unwrap(), vec![1, 1]);
    }

    #[test]
    fn close_delimited_and_close_answered_responses_are_not_pooled() {
        let replies = [
            "HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\nok",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
        ];
        for reply in replies {
            let (addr, server) = scripted(vec![1], reply);
            let pool = Pool::new(addr, Counter::default());
            assert_eq!(pooled(&pool).unwrap().body, "ok", "{reply}");
            assert_eq!(pool.idle.lock().unwrap().len(), 0, "{reply}");
            server.join().unwrap();
        }
    }

    /// A hedge loser is cancelled mid-read: its connection is closed, and
    /// the pool's next request opens a fresh one.
    #[test]
    fn a_cancelled_attempt_never_pools_its_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // The first connection's answer comes too late to matter.
            let (slow, _) = listener.accept().unwrap();
            let mut slow = BufReader::new(slow);
            http::read_request(&mut slow, 1 << 10).unwrap();
            std::thread::sleep(Duration::from_millis(150));
            let _ = slow.get_mut().write_all(KEPT.as_bytes());
            let (fresh, _) = listener.accept().unwrap();
            let mut fresh = BufReader::new(fresh);
            http::read_request(&mut fresh, 1 << 10).unwrap();
            fresh.get_mut().write_all(KEPT.as_bytes()).unwrap();
        });
        let connects = Counter::default();
        let pool = Pool::new(addr, connects.clone());
        let cancel = CancelHandle::default();
        let canceller = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                cancel.cancel();
            })
        };
        let lost = pool.request("GET", "/x", &[], "", Duration::from_secs(5), Some(&cancel));
        assert!(lost.is_err(), "a cancelled attempt must not succeed");
        canceller.join().unwrap();
        assert_eq!(
            pool.idle.lock().unwrap().len(),
            0,
            "the loser's socket is not pooled"
        );
        assert_eq!(pooled(&pool).unwrap().body, "ok");
        assert_eq!(connects.get(), 2, "the next request connected afresh");
        server.join().unwrap();
    }

    /// The router cancels every attempt of a request once it is settled,
    /// the winner's included: a handle that outlived its attempt must not
    /// shut down the connection the attempt pooled.
    #[test]
    fn a_stale_cancel_handle_leaves_a_pooled_connection_alone() {
        let (addr, server) = scripted(vec![2], KEPT);
        let connects = Counter::default();
        let pool = Pool::new(addr, connects.clone());
        let cancel = CancelHandle::default();
        let won = pool.request("GET", "/x", &[], "", Duration::from_secs(5), Some(&cancel));
        assert_eq!(won.unwrap().body, "ok");
        cancel.cancel();
        assert_eq!(pooled(&pool).unwrap().body, "ok");
        assert_eq!(connects.get(), 1, "the pooled connection survived");
        pool.clear();
        assert_eq!(server.join().unwrap(), vec![2]);
    }
}
