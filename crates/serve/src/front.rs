//! The HTTP front end shared by `merced serve` and `merced cluster`.
//!
//! A [`Front`] owns everything between the socket and a binary's route
//! table: the nonblocking listener, the accept loop (polling the
//! shutdown flag every 15 ms and reaping finished handler threads),
//! per-connection read/write timeouts, request parsing with the 413/400
//! error mapping, request-ID minting and echo, and the [`ServerHandle`]
//! that stops it all. Each binary supplies only its [`Routes`] and the
//! drain tail it runs after [`Front::run`] returns.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ppet_exec::WorkQueue;

use crate::http::{self, HttpError, Request};
use crate::obs::{RequestIds, REQUEST_ID_HEADER};
use crate::signal;

/// How often the accept loop polls the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(15);

/// Read/write timeout on accepted connections, so a stalled client
/// cannot pin a handler thread forever.
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

/// A bound listener and the request-ID generator of its connections.
#[derive(Debug)]
pub struct Front {
    listener: TcpListener,
    addr: SocketAddr,
    ids: Arc<RequestIds>,
    handle: ServerHandle,
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
            ids: Arc::new(RequestIds::new(id_seed)),
            handle: ServerHandle::default(),
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
        self.handle.clone()
    }

    /// Accepts until shutdown, answering each connection on its own
    /// thread through `routes`, then joins every handler thread: when
    /// this returns, all accepted requests have been answered.
    pub fn run<R: Routes>(self, routes: &Arc<R>) {
        let mut handlers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.handle.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let routes = Arc::clone(routes);
                    let ids = Arc::clone(&self.ids);
                    handlers.push(thread::spawn(move || {
                        handle_connection(stream, &ids, routes.as_ref());
                    }));
                }
                Err(_) => thread::sleep(ACCEPT_POLL),
            }
            // Reap finished handler threads so the vec stays small on
            // long runs.
            if handlers.len() >= 32 {
                handlers.retain(|h| !h.is_finished());
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

fn handle_connection<R: Routes>(stream: TcpStream, ids: &RequestIds, routes: &R) {
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let request = match http::read_request(&stream, MAX_BODY_BYTES) {
        Ok(request) => request,
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
    // Compile requests carry a request ID: the sanitized client one or a
    // generated one, echoed back in the response header either way (and
    // forwarded downstream by the router, so one ID correlates both
    // tiers' traces).
    let request_id = (request.method == "POST" && request.path == "/compile")
        .then(|| ids.resolve(request.request_id.as_deref()));
    let (status, content_type, body) = routes.route(&request, request_id.as_deref());
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(id) = &request_id {
        headers.push((REQUEST_ID_HEADER, id));
    }
    let _ = http::write_response_with(&stream, status, content_type, &headers, &body);
}
