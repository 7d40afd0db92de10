//! The HTTP front end shared by `merced serve` and `merced cluster`.
//!
//! A [`Front`] owns everything between the socket and a binary's route
//! table: the nonblocking listener, the accept loop (polling the
//! shutdown flag every 15 ms and handing each connection to a thread of
//! its [`ThreadCache`], which reuses an idle handler thread when one
//! waits and spawns one otherwise),
//! per-connection read/write timeouts and `TCP_NODELAY`, request parsing
//! with the 413/400 error mapping, request-ID minting and echo, and the
//! [`ServerHandle`] that stops it all. Each binary supplies only its
//! [`Routes`] and the drain tail it runs after [`Front::run`] returns.
//!
//! A connection carries one request unless the client sends
//! `Connection: keep-alive`; then its handler answers with a
//! `Content-Length` body and waits on the same connection for the next
//! request, up to the 10 s stream timeout. The router keeps such connections
//! to its shards, so a routed request skips the shard's accept poll.
//! `TCP_NODELAY` matters there: without it a reused connection's small
//! request waits on Nagle's algorithm and the peer's delayed ACK. When
//! the accept loop stops, the handlers waiting on an idle kept-alive
//! connection are woken and close it; a handler that is answering a
//! request finishes it with `Connection: close`.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use ppet_exec::WorkQueue;

use crate::http::{self, HttpError, Request};
use crate::obs::{RequestIds, REQUEST_ID_HEADER};
use crate::signal;
use crate::threads::ThreadCache;

/// How often the accept loop polls the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Read/write timeout on accepted connections, so a stalled client
/// cannot pin a handler thread forever. It also bounds how long a
/// kept-alive connection may sit idle.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest accepted request body in bytes; a larger declared
/// `Content-Length` answers 413 without the body being read.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// One response: status, content type, body.
pub type Reply = (u16, &'static str, String);

/// A `ppet-error/v1` reply.
#[must_use]
pub fn error_reply(status: u16, kind: &str, message: &str) -> Reply {
    (status, "application/json", http::error_body(kind, message))
}

/// The reply to a request no route took: 405 when its path is `known`
/// (routed under another method), 404 otherwise.
#[must_use]
pub fn unrouted(request: &Request, known: bool) -> Reply {
    if known {
        let message = format!("{} not allowed here", request.method);
        error_reply(405, "usage", &message)
    } else {
        error_reply(404, "usage", &format!("no route {}", request.path))
    }
}

/// A binary's route table.
pub trait Routes: Send + Sync + 'static {
    /// Answers one parsed request. `request_id` is the resolved request
    /// ID on `POST /compile` (echoed back by the front end) and `None`
    /// on every other route.
    fn route(&self, request: &Request, request_id: Option<&str>) -> Reply;
}

/// A clonable handle that can stop a running server from another
/// thread. Routes hold one too: it is how `POST /shutdown` drains and
/// how a draining server sheds new work.
#[derive(Clone, Default)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// The worker pool of the [`crate::Server`] the handle came from.
    pool: Option<Arc<WorkQueue>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// This handle, sharing ownership of `pool`: the idle workers are
    /// joined where the last handle drops, after the server's thread has
    /// exited. Joining them inside `run` let a restarted server's workers
    /// land in fresh glibc malloc arenas and raised peak RSS by ~20%.
    pub(crate) fn sharing(mut self, pool: Arc<WorkQueue>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Requests shutdown; the accept loop stops and the server drains.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown was requested through a handle or by a Unix
    /// termination signal.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::signaled()
    }
}

/// A bound listener and the state its connection handlers share.
#[derive(Debug)]
pub struct Front {
    listener: TcpListener,
    addr: SocketAddr,
    conns: Arc<Conns>,
    /// The threads connections are answered on.
    threads: ThreadCache,
}

/// What every connection handler of one [`Front`] shares.
#[derive(Debug)]
struct Conns {
    ids: RequestIds,
    handle: ServerHandle,
    /// Kept-alive connections waiting for their next request, by
    /// connection number. `None` once the accept loop has stopped.
    idle: Mutex<Option<HashMap<u64, TcpStream>>>,
}

impl Conns {
    /// Registers connection `id` as waiting for its next request; false
    /// once the front has stopped, when the handler should close it.
    fn wait(&self, id: u64, stream: &TcpStream) -> bool {
        let Ok(clone) = stream.try_clone() else {
            return false;
        };
        match self.idle.lock().unwrap().as_mut() {
            Some(idle) => {
                idle.insert(id, clone);
                true
            }
            None => false,
        }
    }

    /// Connection `id` has stopped waiting.
    fn woke(&self, id: u64) {
        if let Some(idle) = self.idle.lock().unwrap().as_mut() {
            idle.remove(&id);
        }
    }

    /// Stops registrations and ends the read of every waiting handler.
    /// Only the read side is shut, so a request already received is
    /// still read and answered.
    fn close_idle(&self) {
        if let Some(idle) = self.idle.lock().unwrap().take() {
            for stream in idle.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }
}

impl Front {
    /// Binds to `addr` (port 0 for an ephemeral port). The listener runs
    /// nonblocking so the accept loop can poll for shutdown; request IDs
    /// are generated from `id_seed`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn bind(addr: impl ToSocketAddrs, id_seed: u64) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            conns: Arc::new(Conns {
                ids: RequestIds::new(id_seed),
                handle: ServerHandle::default(),
                idle: Mutex::new(Some(HashMap::new())),
            }),
            threads: ThreadCache::default(),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that stops [`Front::run`].
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.conns.handle.clone()
    }

    /// Accepts until shutdown, answering each connection through
    /// `routes` on a thread of the front's [`ThreadCache`] (an idle one
    /// when it has one, else a new one), then wakes the handlers idle on
    /// a kept-alive connection and joins every handler thread: when this
    /// returns, all accepted requests have been answered.
    pub fn run<R: Routes>(self, routes: &Arc<R>) {
        let mut accepted = 0u64;
        while !self.conns.handle.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let routes = Arc::clone(routes);
                    let conns = Arc::clone(&self.conns);
                    let id = accepted;
                    accepted += 1;
                    self.threads.spawn(move || {
                        handle_connection(stream, id, &conns, routes.as_ref());
                    });
                }
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
        }
        self.conns.close_idle();
        self.threads.join();
    }
}

/// Answers the requests of one connection: one, or while the client
/// asks for keep-alive and the front is not stopping, the next as well.
fn handle_connection<R: Routes>(stream: TcpStream, id: u64, conns: &Conns, routes: &R) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    // One reader for the connection's life: it may hold bytes of the
    // next request already.
    let mut reader = BufReader::new(&stream);
    for served in 0u64.. {
        let read = if served == 0 {
            http::read_request(&mut reader, MAX_BODY_BYTES)
        } else {
            if !conns.wait(id, &stream) {
                return;
            }
            let read = http::read_request(&mut reader, MAX_BODY_BYTES);
            conns.woke(id);
            read
        };
        let request = match read {
            Ok(request) => request,
            // A kept-alive connection closed, went idle past its
            // timeout, or was ended by shutdown: nothing to answer.
            Err(HttpError::Io(_)) if served > 0 => return,
            Err(e) => {
                let (status, kind) = match e {
                    HttpError::BodyTooLarge { .. } => (413, "payload"),
                    _ => (400, "parse"),
                };
                let body = http::error_body(kind, &e.to_string());
                let _ = http::write_response(&stream, status, "application/json", &body);
                return;
            }
        };
        // Compile requests carry a request ID: the sanitized client one or
        // a generated one, echoed back in the response header either way
        // (and forwarded downstream by the router, so one ID correlates
        // both tiers' traces).
        let request_id = (request.method == "POST" && request.path == "/compile")
            .then(|| conns.ids.resolve(request.request_id.as_deref()));
        let (status, content_type, body) = routes.route(&request, request_id.as_deref());
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(id) = &request_id {
            headers.push((REQUEST_ID_HEADER, id));
        }
        let keep_alive = request.keep_alive && !conns.handle.shutting_down();
        let written =
            http::write_response_with(&stream, status, content_type, &headers, &body, keep_alive);
        if !keep_alive || written.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::time::Instant;

    /// Answers every request with its method and path; `/slow` takes
    /// 200 ms.
    struct Echo;

    impl Routes for Echo {
        fn route(&self, request: &Request, _request_id: Option<&str>) -> Reply {
            if request.path == "/slow" {
                thread::sleep(Duration::from_millis(200));
            }
            (
                200,
                "text/plain",
                format!("{} {}", request.method, request.path),
            )
        }
    }

    fn start() -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
        let (addr, handle, _, join) = start_counted();
        (addr, handle, join)
    }

    /// [`start`], also returning the front's thread cache.
    fn start_counted() -> (
        SocketAddr,
        ServerHandle,
        ThreadCache,
        thread::JoinHandle<()>,
    ) {
        let front = Front::bind("127.0.0.1:0", 0).unwrap();
        let (addr, handle) = (front.local_addr(), front.handle());
        let threads = front.threads.clone();
        let join = thread::spawn(move || front.run(&Arc::new(Echo)));
        (addr, handle, threads, join)
    }

    /// One `Connection: close` request on a fresh connection.
    fn one_shot(addr: SocketAddr, path: &str) -> String {
        let mut conn = connect(addr);
        send(&mut conn, path, "close");
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    fn send(conn: &mut BufReader<TcpStream>, path: &str, connection: &str) {
        let request = format!("GET {path} HTTP/1.1\r\nConnection: {connection}\r\n\r\n");
        conn.get_mut().write_all(request.as_bytes()).unwrap();
    }

    /// Reads one `Content-Length` response: (kept alive, body).
    fn receive(conn: &mut BufReader<TcpStream>) -> (bool, String) {
        let head = http::read_head(&mut *conn).unwrap();
        let mut body = vec![0; head.content_length.unwrap()];
        conn.read_exact(&mut body).unwrap();
        (head.keep_alive, String::from_utf8(body).unwrap())
    }

    fn exchange(conn: &mut BufReader<TcpStream>, path: &str, connection: &str) -> (bool, String) {
        send(conn, path, connection);
        receive(conn)
    }

    fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
        BufReader::new(TcpStream::connect(addr).unwrap())
    }

    #[test]
    fn a_kept_alive_connection_carries_requests_until_one_closes_it() {
        let (addr, handle, join) = start();
        let mut conn = connect(addr);
        assert_eq!(
            exchange(&mut conn, "/a", "keep-alive"),
            (true, "GET /a".into())
        );
        assert_eq!(
            exchange(&mut conn, "/b", "keep-alive"),
            (true, "GET /b".into())
        );
        assert_eq!(exchange(&mut conn, "/c", "close"), (false, "GET /c".into()));
        let mut rest = Vec::new();
        assert_eq!(conn.read_to_end(&mut rest).unwrap(), 0, "closed after /c");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn sequential_connections_reuse_handler_threads() {
        let (addr, handle, threads, join) = start_counted();
        for i in 0..20 {
            let path = format!("/{i}");
            assert!(one_shot(addr, &path).ends_with(&format!("GET {path}")));
        }
        assert!(threads.spawned() <= 2, "spawned {}", threads.spawned());
        handle.shutdown();
        join.join().unwrap();
    }

    /// A handler parked on an idle kept-alive connection is busy: the
    /// next connection gets another thread instead of waiting for it.
    #[test]
    fn an_idle_kept_alive_connection_does_not_hold_up_a_new_one() {
        let (addr, handle, join) = start();
        let mut parked = connect(addr);
        exchange(&mut parked, "/a", "keep-alive");
        let started = Instant::now();
        assert!(one_shot(addr, "/b").ends_with("GET /b"));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "answered after {:?}",
            started.elapsed()
        );
        assert_eq!(
            exchange(&mut parked, "/c", "close"),
            (false, "GET /c".into())
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn stopping_joins_idle_cached_threads_promptly() {
        let (addr, handle, threads, join) = start_counted();
        // Two connections at once leave two threads idle in the cache.
        let mut first = connect(addr);
        exchange(&mut first, "/a", "keep-alive");
        one_shot(addr, "/b");
        drop(first);
        while threads.idle() < 2 {
            thread::yield_now();
        }
        assert_eq!(threads.spawned(), 2);

        let started = Instant::now();
        handle.shutdown();
        join.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop took {:?}",
            started.elapsed()
        );
        // Every cached thread held the cache; joined, none does.
        assert_eq!(threads.holders(), 1);
    }

    /// Stopping must not wait out `STREAM_TIMEOUT` on a connection idle
    /// between requests, and must still answer a request in progress.
    #[test]
    fn stopping_ends_idle_kept_alive_connections_and_answers_busy_ones() {
        let (addr, handle, join) = start();
        let mut idle = connect(addr);
        exchange(&mut idle, "/a", "keep-alive");
        let mut busy = connect(addr);
        exchange(&mut busy, "/a", "keep-alive");
        send(&mut busy, "/slow", "keep-alive");
        thread::sleep(Duration::from_millis(50));

        let started = Instant::now();
        handle.shutdown();
        join.join().unwrap();
        assert!(
            started.elapsed() < STREAM_TIMEOUT / 4,
            "stop took {:?}",
            started.elapsed()
        );
        assert_eq!(receive(&mut busy), (false, "GET /slow".into()));
        let mut rest = Vec::new();
        assert_eq!(idle.read_to_end(&mut rest).unwrap(), 0, "idle one closed");
    }
}
