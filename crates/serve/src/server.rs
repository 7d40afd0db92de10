//! The compile service: routing, scheduling, caching, drain.
//!
//! One [`Server`] owns a [`Front`] (the shared listener), a bounded
//! [`WorkQueue`] of compile workers, the [`ResultCache`], and a
//! [`Metrics`] registry. Each accepted connection is handled on a thread
//! of the front end's [`crate::ThreadCache`] (one request, or a
//! keep-alive sequence of them, per connection; an idle thread is reused
//! when one waits); compile work itself runs on the
//! queue, so slow compiles exert backpressure through the bounded queue
//! rather than through unbounded thread growth.
//!
//! Shutdown is cooperative: `POST /shutdown`, a Unix signal (via
//! [`crate::signal`]), or [`ServerHandle::shutdown`] sets a flag; the
//! accept loop stops taking connections, in-flight requests finish,
//! queued compiles drain, and [`Server::run`] returns.

use std::net::{SocketAddr, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppet_exec::WorkQueue;
use ppet_store::{Store, StoreConfig};
use ppet_trace::{Metrics, SpanData, Tracer};

use crate::cache::{CacheKey, Claim, Gate, ResultCache, DEFAULT_CACHE_CAPACITY};
use crate::front::{error_reply, unrouted, Front, Reply, Routes, ServerHandle};
use crate::http::{self, Request};
use crate::obs::{PhaseRecorder, RequestTrace, TraceRing};
use crate::request::{normalize_body, CompileBackend};

/// Tunable service limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Compile worker threads.
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Per-request compile deadline; an expired deadline answers 408
    /// with a structured `timeout` error (the compile itself keeps
    /// running and still populates the cache).
    pub timeout: Duration,
    /// Maximum completed entries the in-memory result cache keeps
    /// (least-recently-used eviction beyond it).
    pub cache_capacity: usize,
    /// Directory of the persistent artifact store; `None` runs
    /// memory-only. With a store mounted, the in-memory cache becomes a
    /// bounded hot tier: store hits skip the compiler entirely, and the
    /// cache survives restarts through the store.
    pub store_dir: Option<PathBuf>,
    /// Byte budget for the persistent store's LRU eviction; `None`
    /// means unbounded.
    pub store_budget: Option<u64>,
    /// Maximum delta chain depth in the persistent store (0 stores
    /// everything raw, 1 forbids delta-of-delta chains).
    pub store_delta_depth: u8,
    /// Completed request traces kept for `GET /debug/requests` and
    /// `GET /debug/trace/<id>`; 0 disables per-request tracing entirely
    /// (requests still get IDs, but no phases are recorded).
    pub trace_ring: usize,
    /// Requests at or above this many milliseconds of wall time are
    /// pinned into the trace ring so churn cannot evict them; `None`
    /// pins nothing.
    pub slow_ms: Option<u64>,
    /// Seed of the deterministic request-ID generator.
    pub id_seed: u64,
}

/// Default bound on the request trace ring.
pub const DEFAULT_TRACE_RING: usize = 256;

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            timeout: Duration::from_secs(60),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            store_dir: None,
            store_budget: None,
            store_delta_depth: StoreConfig::default().max_chain_depth,
            trace_ring: DEFAULT_TRACE_RING,
            slow_ms: None,
            id_seed: 0,
        }
    }
}

struct Service<B> {
    backend: Arc<B>,
    cache: Arc<ResultCache>,
    store: Option<Arc<Store>>,
    queue: Arc<WorkQueue>,
    metrics: Metrics,
    config: ServeConfig,
    ring: TraceRing,
    handle: ServerHandle,
}

/// The compile service bound to a socket.
pub struct Server<B: CompileBackend> {
    front: Front,
    service: Arc<Service<B>>,
}

impl<B: CompileBackend> std::fmt::Debug for Server<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.front.local_addr())
            .finish_non_exhaustive()
    }
}

impl<B: CompileBackend> Server<B> {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure and store errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: B,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let front = Front::bind(addr, config.id_seed)?;
        let queue = Arc::new(WorkQueue::new(
            config.workers.max(1),
            config.queue_capacity.max(1),
        ));
        let metrics = Metrics::new();
        let store = match &config.store_dir {
            Some(dir) => {
                let store_config = StoreConfig {
                    budget: config.store_budget,
                    max_chain_depth: config.store_delta_depth,
                    ..StoreConfig::default()
                };
                Some(Arc::new(Store::open_with_metrics(
                    dir,
                    store_config,
                    &metrics,
                )?))
            }
            None => None,
        };
        let service = Arc::new(Service {
            backend: Arc::new(backend),
            cache: Arc::new(ResultCache::with_capacity(config.cache_capacity)),
            store,
            queue,
            metrics,
            ring: TraceRing::new(config.trace_ring, config.slow_ms),
            config,
            handle: front.handle(),
        });
        Ok(Self { front, service })
    }

    /// The actually-bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// A handle that can stop [`Server::run`] from another thread. It
    /// shares the compile worker pool: `run` drains the queue, and the
    /// idle workers are joined once the server and all such handles are
    /// gone.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.front.handle().sharing(Arc::clone(&self.service.queue))
    }

    /// Serves until shutdown is requested (handle, `POST /shutdown`, or
    /// a Unix termination signal), then drains: no new connections, all
    /// accepted requests answered, all queued compiles completed.
    pub fn run(self) {
        self.front.run(&self.service);
        // Every handler thread has answered: finish whatever compiles the
        // queue still holds, then flush the store so a clean shutdown is
        // an fsync point. The idle workers are joined when the last owner
        // of the pool (the service here, or a handle) is dropped.
        self.service.queue.drain();
        if let Some(store) = &self.service.store {
            let _ = store.flush();
        }
    }
}

impl<B: CompileBackend> Routes for Service<B> {
    fn route(&self, request: &Request, request_id: Option<&str>) -> Reply {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => (200, "text/plain", "ok\n".to_owned()),
            ("GET", "/metrics") => (200, "text/plain", self.render_metrics()),
            ("GET", "/debug/requests") => (200, "application/json", self.ring.summary_json()),
            ("GET", path) if path.strip_prefix("/debug/trace/").is_some() => {
                let id = path.strip_prefix("/debug/trace/").unwrap_or_default();
                match self.ring.find(id) {
                    Some(trace) => (200, "application/json", trace.to_json()),
                    None => error_reply(404, "usage", &format!("no trace for request id {id:?}")),
                }
            }
            ("POST", "/shutdown") => {
                self.handle.shutdown();
                (202, "text/plain", "draining\n".to_owned())
            }
            ("POST", "/compile") => self.compile(&request.body, request_id.unwrap_or_default()),
            ("PUT", path) if path.starts_with("/cache/") => {
                let hex = path.strip_prefix("/cache/").unwrap_or_default();
                self.cache_put(hex, &request.body)
            }
            (_, path) => {
                let known = matches!(
                    path,
                    "/healthz" | "/metrics" | "/shutdown" | "/compile" | "/debug/requests"
                ) || path.starts_with("/cache/")
                    || path.starts_with("/debug/trace/");
                unrouted(request, known)
            }
        }
    }
}

impl<B: CompileBackend> Service<B> {
    fn render_metrics(&self) -> String {
        self.metrics
            .gauge("serve.queue_depth")
            .set(self.queue.depth() as f64);
        self.metrics
            .gauge("serve.in_flight")
            .set(self.queue.in_flight() as f64);
        self.metrics
            .gauge("serve.cache_entries")
            .set(self.cache.len() as f64);
        self.metrics
            .gauge("serve.trace_ring_entries")
            .set(self.ring.len() as f64);
        self.metrics.exposition().render_prometheus()
    }

    /// The `POST /compile` entry point: wraps [`Service::compile_inner`]
    /// with per-outcome latency accounting and trace-ring recording.
    fn compile(&self, body: &str, request_id: &str) -> Reply {
        self.metrics.counter("serve.requests").inc();
        let started = Instant::now();
        let mut recorder = PhaseRecorder::new(self.ring.enabled());
        let mut ctx = RequestContext::default();
        let (status, outcome, response) = self.compile_inner(body, &mut recorder, &mut ctx);
        let wall = started.elapsed();
        self.record_latency(outcome, &wall);
        if self.ring.enabled() {
            let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            self.ring.record(RequestTrace {
                id: request_id.to_owned(),
                outcome,
                status,
                circuit: ctx.circuit,
                seed: ctx.seed,
                wall_us: wall_ns / 1000,
                coalesced: ctx.coalesced,
                pinned: false, // the ring decides from wall_us
                root: SpanData {
                    name: "request".to_owned(),
                    wall_ns,
                    closed: true,
                    counter_deltas: Vec::new(),
                    children: recorder.finish(),
                },
            });
        }
        (status, "application/json", response)
    }

    /// The compile state machine. Returns `(status, outcome, body)`
    /// where `outcome` is the latency-histogram label:
    /// `hit` (hot cache), `store_hit` (persistent store), `miss` (waited
    /// on a compile, own or coalesced), `timeout` (408), `error`
    /// (400/500), `shed` (backpressure or drain).
    fn compile_inner(
        &self,
        body: &str,
        recorder: &mut PhaseRecorder,
        ctx: &mut RequestContext,
    ) -> (u16, &'static str, String) {
        if self.handle.shutting_down() {
            return (
                503,
                "shed",
                http::error_body("shutdown", "server is draining"),
            );
        }
        // The request's whole time budget starts here: normalization and
        // queueing spend from the same deadline the compile wait honours,
        // so a slow normalize cannot silently extend the configured
        // timeout. `None` (unrepresentable deadline) waits indefinitely.
        let deadline = Instant::now().checked_add(self.config.timeout);
        recorder.begin("normalize");
        let normalized = match normalize_body(self.backend.as_ref(), body) {
            Ok(normalized) => normalized,
            Err((status, body)) => return (status, "error", body),
        };
        ctx.circuit = normalized.circuit.name().to_owned();
        ctx.seed = normalized.seed;
        let key = CacheKey::of(&normalized);

        recorder.begin("cache_lookup");
        let gate = match self.cache.claim(key) {
            Claim::Hit(manifest) => {
                self.metrics.counter("serve.cache_hits").inc();
                recorder.end();
                return (200, "hit", manifest.as_ref().clone());
            }
            Claim::Wait(gate) => {
                self.metrics.counter("serve.coalesced").inc();
                ctx.coalesced = true;
                gate
            }
            Claim::Compute(gate) => {
                // Second tier: the persistent store. A verified stored
                // manifest is promoted into the hot cache and served
                // without compiling; a corrupt or unverifiable one is
                // quarantined and recompiled.
                recorder.begin("store_fetch");
                if let Some(body) = self.store_fetch(key) {
                    self.cache.complete(key, Arc::clone(&body));
                    gate.fill(Ok(Arc::clone(&body)));
                    recorder.end();
                    return (200, "store_hit", body.as_ref().clone());
                }
                self.metrics.counter("serve.cache_misses").inc();
                let traced = self.ring.enabled();
                let backend = Arc::clone(&self.backend);
                let cache = Arc::clone(&self.cache);
                let store = self.store.clone();
                let job_gate = Arc::clone(&gate);
                let submitted = self.queue.try_submit(move || {
                    // The worker pool survives a panicking job via
                    // catch_unwind, but on its own that would leave this
                    // key's Pending slot and unfilled gate behind: the
                    // owner and every waiter would hang to 408, and all
                    // future requests for the key would coalesce onto the
                    // dead gate forever. The guard converts an unwind
                    // into an abandoned slot plus a structured error.
                    let guard = PanicGuard {
                        cache: Arc::clone(&cache),
                        gate: Arc::clone(&job_gate),
                        key,
                        armed: true,
                    };
                    let (tracer, sink) = if traced {
                        let (tracer, sink) = Tracer::collecting();
                        (tracer, Some(sink))
                    } else {
                        (Tracer::noop(), None)
                    };
                    match backend.compile_traced(&normalized, &tracer) {
                        Ok(manifest) => {
                            let manifest = Arc::new(manifest);
                            if let Some(store) = &store {
                                // Best-effort: a full disk must not fail
                                // the compile the client is waiting on.
                                let _ = store.put(key.0, manifest.as_bytes());
                            }
                            cache.complete(key, Arc::clone(&manifest));
                            // Publish the span tree before the result so
                            // every waiter that sees Ok also sees the
                            // trace.
                            if let Some(sink) = sink {
                                job_gate.set_trace(Arc::new(sink.report().spans));
                            }
                            job_gate.fill(Ok(manifest));
                        }
                        Err(e) => {
                            cache.abandon(key);
                            job_gate.fill(Err(e));
                        }
                    }
                    guard.disarm();
                });
                if let Err(full) = submitted {
                    self.metrics.counter("serve.rejected").inc();
                    self.cache.abandon(key);
                    gate.fill(Err(crate::request::BackendError::new(
                        "backpressure",
                        full.to_string(),
                    )));
                    return (
                        429,
                        "shed",
                        http::error_body("backpressure", &full.to_string()),
                    );
                }
                gate
            }
        };

        recorder.begin("compile");
        match gate.wait_deadline(deadline) {
            Some(Ok(manifest)) => {
                if let Some(spans) = gate.trace() {
                    recorder.graft(&spans);
                }
                recorder.end();
                (200, "miss", manifest.as_ref().clone())
            }
            Some(Err(e)) => {
                let (status, outcome) = if e.kind == "backpressure" {
                    (429, "shed")
                } else {
                    (500, "error")
                };
                (status, outcome, http::error_body(e.kind, &e.message))
            }
            None => {
                self.metrics.counter("serve.timeouts").inc();
                (
                    408,
                    "timeout",
                    http::error_body(
                        "timeout",
                        &format!(
                            "compile exceeded {} ms; retry to pick up the cached result",
                            self.config.timeout.as_millis()
                        ),
                    ),
                )
            }
        }
    }

    /// `PUT /cache/<32-hex-key>`: replication ingest. A cluster router
    /// pushes an already-compiled manifest so this shard can answer the
    /// key without ever compiling it (`serve.cache_misses` stays flat).
    /// The body is verified exactly like a stored manifest before being
    /// trusted; the key↔body binding is the pusher's responsibility —
    /// the router derives the key the same way this server would.
    fn cache_put(&self, hex: &str, body: &str) -> Reply {
        if self.handle.shutting_down() {
            return error_reply(503, "shutdown", "server is draining");
        }
        let key = (hex.len() == 32)
            .then(|| u128::from_str_radix(hex, 16).ok())
            .flatten();
        let Some(key) = key else {
            let message = format!("cache key must be 32 hex digits, got {hex:?}");
            return error_reply(400, "usage", &message);
        };
        if let Err(e) = self.verify_stored_guarded(body) {
            return error_reply(400, e.kind, &e.message);
        }
        let key = CacheKey(key);
        let manifest = Arc::new(body.to_owned());
        if let Some(store) = &self.store {
            // Best-effort, like the compile path: a full disk degrades
            // replication to memory-only, it does not fail the push.
            let _ = store.put(key.0, manifest.as_bytes());
        }
        self.cache.complete(key, manifest);
        self.metrics.counter("serve.replicated").inc();
        (200, "text/plain", "replicated\n".to_owned())
    }

    /// Runs the backend's stored-manifest verification with a panic
    /// boundary. The verifier examines user-supplied (or on-disk) bytes
    /// on the *handler* thread; before this guard a panicking verifier
    /// unwound through `compile_inner` with the key's `Pending` slot
    /// still registered, stranding every current and future request for
    /// that key on a gate nobody would ever fill.
    fn verify_stored_guarded(&self, body: &str) -> Result<(), crate::request::BackendError> {
        catch_unwind(AssertUnwindSafe(|| self.backend.verify_stored(body))).unwrap_or_else(|_| {
            Err(crate::request::BackendError::new(
                "verify",
                "stored-manifest verification panicked; entry treated as unverifiable",
            ))
        })
    }

    /// Looks `key` up in the persistent store and verifies the stored
    /// body (UTF-8, then the backend's semantic check) before trusting
    /// it. Anything that fails verification — including a *panicking*
    /// verifier — is quarantined and counted as a store miss so the slot
    /// recompiles: a corrupt store degrades to a cold cache, never to a
    /// wrong answer or a dead slot.
    fn store_fetch(&self, key: CacheKey) -> Option<Arc<String>> {
        let store = self.store.as_ref()?;
        store
            .get_verified(key.0, |bytes| {
                String::from_utf8(bytes)
                    .ok()
                    .filter(|body| self.verify_stored_guarded(body).is_ok())
            })
            .map(Arc::new)
    }

    /// Records end-to-end request latency into the per-outcome
    /// histogram. One histogram per outcome (static names with embedded
    /// Prometheus labels) instead of one aggregate, so a cache hit's
    /// microseconds never blur a cold compile's milliseconds.
    fn record_latency(&self, outcome: &'static str, wall: &Duration) {
        let name = match outcome {
            "hit" => "serve.latency_us{outcome=\"hit\"}",
            "store_hit" => "serve.latency_us{outcome=\"store_hit\"}",
            "miss" => "serve.latency_us{outcome=\"miss\"}",
            "timeout" => "serve.latency_us{outcome=\"timeout\"}",
            "shed" => "serve.latency_us{outcome=\"shed\"}",
            _ => "serve.latency_us{outcome=\"error\"}",
        };
        self.metrics
            .histogram(name)
            .record(wall.as_micros().try_into().unwrap_or(u64::MAX));
    }
}

/// Per-request bookkeeping threaded through the compile state machine
/// into the trace ring.
#[derive(Debug, Default)]
struct RequestContext {
    circuit: String,
    seed: u64,
    coalesced: bool,
}

/// Armed across a compile job; dropping it still armed (i.e. during an
/// unwind out of the backend) abandons the pending cache slot and fills
/// the gate with a structured `compile` error, so waiters fail fast and
/// the next request for the key recompiles instead of coalescing onto a
/// gate nobody will ever fill.
struct PanicGuard {
    cache: Arc<ResultCache>,
    gate: Arc<Gate>,
    key: CacheKey,
    armed: bool,
}

impl PanicGuard {
    /// Consumes the guard on the job's normal exit paths, where the
    /// match above has already settled the slot and the gate.
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abandon(self.key);
            self.gate.fill(Err(crate::request::BackendError::new(
                "compile",
                "compile worker panicked; nothing was cached — retrying recompiles",
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{BackendError, CompileRequest, NormalizedRequest};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    /// A backend that "compiles" by echoing a deterministic line, with a
    /// configurable delay so tests can exercise timeouts and coalescing.
    struct EchoBackend {
        delay: Duration,
        compiles: AtomicU64,
    }

    impl EchoBackend {
        fn new(delay: Duration) -> Self {
            Self {
                delay,
                compiles: AtomicU64::new(0),
            }
        }
    }

    impl CompileBackend for EchoBackend {
        fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
            let source = request
                .bench
                .as_deref()
                .ok_or_else(|| BackendError::new("parse", "echo backend wants bench"))?;
            let circuit = ppet_netlist::bench_format::parse("echo", source)
                .map_err(|e| BackendError::new("parse", e.to_string()))?;
            Ok(NormalizedRequest {
                circuit: circuit.into(),
                config_entries: request.config.clone(),
                seed: request.seed.unwrap_or(0),
            })
        }

        fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
            self.compiles.fetch_add(1, Ordering::SeqCst);
            if !self.delay.is_zero() {
                thread::sleep(self.delay);
            }
            Ok(format!(
                "{{\"circuit\":\"{}\",\"seed\":{}}}",
                normalized.circuit.name(),
                normalized.seed
            ))
        }
    }

    fn start(
        delay: Duration,
        config: ServeConfig,
    ) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", EchoBackend::new(delay), config).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        (addr, handle, join)
    }

    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .unwrap();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    /// Like `roundtrip` but returns the raw response (status line,
    /// headers, body) and lets the caller add request headers.
    fn raw_roundtrip(
        addr: SocketAddr,
        method: &str,
        path: &str,
        extra: &str,
        body: &str,
    ) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn header_value<'a>(response: &'a str, name: &str) -> Option<&'a str> {
        response.lines().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    const BENCH: &str = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";

    #[test]
    fn healthz_metrics_and_unknown_routes() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let (status, body) = roundtrip(addr, "GET", "/healthz", "");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = roundtrip(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(body.contains("serve_queue_depth 0\n"), "{body}");
        let (status, _) = roundtrip(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, "GET", "/compile", "");
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn compile_misses_then_hits_the_cache() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let req = CompileRequest::bench(BENCH).with_seed(7).to_json();
        let (status, first) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "{first}");
        let (status, second) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200);
        assert_eq!(first, second);
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve_cache_hits 1\n"), "{metrics}");
        assert!(metrics.contains("serve_cache_misses 1\n"), "{metrics}");
        assert!(metrics.contains("serve_requests 2\n"), "{metrics}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let (status, body) = roundtrip(addr, "POST", "/compile", "{not json");
        assert_eq!(status, 400);
        assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
        assert!(body.contains("\"kind\":\"parse\""), "{body}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn large_bodies_are_rejected_in_linear_time() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let body = format!(
            "{{\"schema\":\"nope\",\"pad\":\"{}\"}}",
            "x".repeat(2 << 20)
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let client = thread::spawn(move || tx.send(roundtrip(addr, "POST", "/compile", &body)));
        let (status, body) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a 2 MiB body must be answered well within 10 s");
        client.join().unwrap().unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
        assert!(body.contains("unsupported schema"), "{body}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_compiles_time_out_with_a_structured_error() {
        let config = ServeConfig {
            timeout: Duration::from_millis(30),
            ..ServeConfig::default()
        };
        let (addr, handle, join) = start(Duration::from_millis(400), config);
        let req = CompileRequest::bench(BENCH).to_json();
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("\"kind\":\"timeout\""), "{body}");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve_timeouts 1\n"), "{metrics}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn concurrent_identical_requests_coalesce() {
        let config = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let (addr, handle, join) = start(Duration::from_millis(120), config);
        let req = CompileRequest::bench(BENCH).with_seed(3).to_json();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let req = req.clone();
                thread::spawn(move || roundtrip(addr, "POST", "/compile", &req))
            })
            .collect();
        let mut bodies = Vec::new();
        for c in clients {
            let (status, body) = c.join().unwrap();
            assert_eq!(status, 200, "{body}");
            bodies.push(body);
        }
        bodies.dedup();
        assert_eq!(bodies.len(), 1, "all clients see the same manifest");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve_cache_misses 1\n"), "{metrics}");
        handle.shutdown();
        join.join().unwrap();
    }

    /// A backend whose first `fail_times` compiles error, then succeed —
    /// for exercising the no-poisoning contract.
    struct FlakyBackend {
        inner: EchoBackend,
        fail_times: AtomicU64,
    }

    impl CompileBackend for FlakyBackend {
        fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
            self.inner.normalize(request)
        }

        fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
            if self.fail_times.fetch_sub(1, Ordering::SeqCst) > 0 {
                return Err(BackendError::new("compile", "transient failure"));
            }
            self.inner.compile(normalized)
        }
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ppet-serve-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Satellite contract: a client that gave up with 408 has not burned
    /// the slot — the compile finishes in the background and the next
    /// identical request is a cache hit.
    #[test]
    fn timed_out_compile_still_lands_in_the_cache() {
        let config = ServeConfig {
            timeout: Duration::from_millis(20),
            ..ServeConfig::default()
        };
        let (addr, handle, join) = start(Duration::from_millis(150), config);
        let req = CompileRequest::bench(BENCH).with_seed(11).to_json();
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 408, "{body}");
        // Let the abandoned compile finish.
        thread::sleep(Duration::from_millis(400));
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "{body}");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve_cache_hits 1\n"), "{metrics}");
        assert!(
            metrics.contains("serve_cache_misses 1\n"),
            "compile must have run exactly once: {metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    /// Satellite contract: a failed compile never poisons its slot — the
    /// next identical request recompiles and succeeds.
    #[test]
    fn failed_compile_does_not_poison_the_slot() {
        let backend = FlakyBackend {
            inner: EchoBackend::new(Duration::ZERO),
            fail_times: AtomicU64::new(1),
        };
        let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        let req = CompileRequest::bench(BENCH).with_seed(13).to_json();
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("transient failure"), "{body}");
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(
            status, 200,
            "retry must recompile, not replay the error: {body}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    /// Satellite regression: a *panicking* compile must not poison the
    /// coalescing gate. The worker pool's `catch_unwind` keeps the
    /// worker alive, but before the job-level guard the gate was never
    /// filled — the owner hung to 408 and every later request for the
    /// key coalesced onto the dead gate forever.
    #[test]
    fn panicking_compile_fails_fast_and_does_not_poison_the_slot() {
        struct Grenade {
            inner: EchoBackend,
            blasts: AtomicU64,
        }
        impl CompileBackend for Grenade {
            fn normalize(
                &self,
                request: &CompileRequest,
            ) -> Result<NormalizedRequest, BackendError> {
                self.inner.normalize(request)
            }
            fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
                if self.blasts.fetch_sub(1, Ordering::SeqCst) > 0 {
                    panic!("kaboom");
                }
                self.inner.compile(normalized)
            }
        }

        let backend = Grenade {
            inner: EchoBackend::new(Duration::ZERO),
            blasts: AtomicU64::new(1),
        };
        // Short deadline: pre-fix this test failed by timing out to 408
        // instead of returning the structured 500.
        let config = ServeConfig {
            timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", backend, config).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        let req = CompileRequest::bench(BENCH).with_seed(17).to_json();
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 500, "panic surfaces as a structured error: {body}");
        assert!(body.contains("\"kind\":\"compile\""), "{body}");
        assert!(body.contains("panicked"), "{body}");
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "retry recompiles on a live worker: {body}");
        handle.shutdown();
        join.join().unwrap();
    }

    /// Satellite regression: the request's time budget starts at request
    /// entry, not at the compile wait. A backend whose `normalize` alone
    /// overruns the deadline must answer 408 immediately afterwards —
    /// before the fix the gate wait restarted the full timeout, so this
    /// request rode a fresh budget into a 200.
    #[test]
    fn slow_normalize_spends_the_request_deadline() {
        struct Molasses(EchoBackend);
        impl CompileBackend for Molasses {
            fn normalize(
                &self,
                request: &CompileRequest,
            ) -> Result<NormalizedRequest, BackendError> {
                thread::sleep(Duration::from_millis(150));
                self.0.normalize(request)
            }
            fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
                self.0.compile(normalized)
            }
        }

        let backend = Molasses(EchoBackend::new(Duration::from_millis(60)));
        let config = ServeConfig {
            timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", backend, config).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        let req = CompileRequest::bench(BENCH).with_seed(41).to_json();
        // normalize (150 ms) exceeds the 100 ms budget; the 60 ms compile
        // would fit a *restarted* budget comfortably, so a 200 here means
        // the deadline was restarted after normalize.
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 408, "budget spent during normalize: {body}");
        assert!(body.contains("\"kind\":\"timeout\""), "{body}");
        // The compile still finished into the cache; a retry hits it
        // (after its own slow normalize).
        thread::sleep(Duration::from_millis(300));
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "late fill lands in the cache: {body}");
        handle.shutdown();
        join.join().unwrap();
    }

    /// Satellite regression: a backend whose `normalize` panics gets a
    /// structured error, not a dropped connection.
    #[test]
    fn panicking_normalize_answers_a_structured_error() {
        struct Tantrum;
        impl CompileBackend for Tantrum {
            fn normalize(
                &self,
                _request: &CompileRequest,
            ) -> Result<NormalizedRequest, BackendError> {
                panic!("normalize kaboom");
            }
            fn compile(&self, _normalized: &NormalizedRequest) -> Result<String, BackendError> {
                unreachable!("normalize never succeeds");
            }
        }

        let server = Server::bind("127.0.0.1:0", Tantrum, ServeConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        let req = CompileRequest::bench(BENCH).to_json();
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
        assert!(body.contains("normalization panicked"), "{body}");
        // The server is still healthy.
        let (status, _) = roundtrip(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        handle.shutdown();
        join.join().unwrap();
    }

    /// Satellite regression: a *panicking* stored-manifest verifier runs
    /// on the handler thread with the key's Pending slot registered.
    /// Before the panic boundary the unwind dropped the connection and
    /// leaked the slot: this request died mid-air and every retry
    /// coalesced onto a gate nobody would ever fill, timing out to 408
    /// forever. Post-fix the entry is quarantined and recompiled.
    #[test]
    fn panicking_store_verifier_quarantines_and_recompiles() {
        struct Landmine(EchoBackend);
        impl CompileBackend for Landmine {
            fn normalize(
                &self,
                request: &CompileRequest,
            ) -> Result<NormalizedRequest, BackendError> {
                self.0.normalize(request)
            }
            fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
                self.0.compile(normalized)
            }
            fn verify_stored(&self, _stored: &str) -> Result<(), BackendError> {
                panic!("verifier kaboom");
            }
        }

        let dir = temp_store_dir("landmine");
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        };
        let req = CompileRequest::bench(BENCH).with_seed(29).to_json();

        // Round 1: compile lands in the store (verify runs only on
        // fetch, so nothing detonates yet).
        let backend = Landmine(EchoBackend::new(Duration::ZERO));
        let server = Server::bind("127.0.0.1:0", backend, config.clone()).unwrap();
        let (addr, handle) = (server.local_addr(), server.handle());
        let join = thread::spawn(move || server.run());
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "{body}");
        handle.shutdown();
        join.join().unwrap();

        // Round 2: a fresh server finds the stored entry; the verifier
        // panics during the fetch.
        let backend = Landmine(EchoBackend::new(Duration::ZERO));
        let server = Server::bind("127.0.0.1:0", backend, config).unwrap();
        let (addr, handle) = (server.local_addr(), server.handle());
        let join = thread::spawn(move || server.run());
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "quarantined and recompiled: {body}");
        // The slot was not leaked: the same key keeps answering.
        let (status, body) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "slot survives for retries: {body}");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("store_quarantined 1\n"), "{metrics}");

        // The replication path shares the boundary: a panicking verifier
        // is a structured 400, not a dropped connection.
        let (status, body) = roundtrip(addr, "PUT", &format!("/cache/{:032x}", 7), "pushed");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"verify\""), "{body}");
        assert!(body.contains("verification panicked"), "{body}");
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Replication ingest: `PUT /cache/<key>` seeds the hot cache so the
    /// next identical compile request is a hit, with zero compiles.
    #[test]
    fn replication_put_seeds_the_cache_without_compiling() {
        let request = CompileRequest::bench(BENCH).with_seed(31);
        // Derive the key and manifest out of band, exactly as the
        // cluster router would (same normalize, same key derivation).
        let oracle = EchoBackend::new(Duration::ZERO);
        let normalized = oracle.normalize(&request).unwrap();
        let key = CacheKey::of(&normalized);
        let manifest = oracle.compile(&normalized).unwrap();

        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let (status, body) = roundtrip(addr, "PUT", &format!("/cache/{key}"), &manifest);
        assert_eq!((status, body.as_str()), (200, "replicated\n"));
        let (status, body) = roundtrip(addr, "POST", "/compile", &request.to_json());
        assert_eq!(status, 200);
        assert_eq!(body, manifest, "served byte-identical from the push");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("serve_replicated 1\n"), "{metrics}");
        assert!(metrics.contains("serve_cache_hits 1\n"), "{metrics}");
        assert!(
            !metrics.contains("serve_cache_misses"),
            "no compile ever ran: {metrics}"
        );

        let (status, body) = roundtrip(addr, "PUT", "/cache/not-a-key", &manifest);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("\"kind\":\"usage\""), "{body}");
        let (status, _) = roundtrip(addr, "GET", &format!("/cache/{key}"), "");
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap();
    }

    /// The persistent tier: a manifest compiled before shutdown is served
    /// from the store after restart, without recompiling.
    #[test]
    fn store_survives_restart_and_answers_without_recompiling() {
        let dir = temp_store_dir("restart");
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let req = CompileRequest::bench(BENCH).with_seed(21).to_json();

        let (addr, handle, join) = start(Duration::ZERO, config.clone());
        let (status, first) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "{first}");
        handle.shutdown();
        join.join().unwrap();

        // Fresh server, fresh (empty) hot cache, same store directory.
        let (addr, handle, join) = start(Duration::ZERO, config);
        let (status, second) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200, "{second}");
        assert_eq!(first, second, "stored manifest is byte-identical");
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(metrics.contains("store_hits 1\n"), "{metrics}");
        assert!(
            metrics.contains("serve_cache_misses 0\n") || !metrics.contains("serve_cache_misses"),
            "store hit must not count as a compile miss: {metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stored body the backend refuses to verify is quarantined and
    /// recompiled instead of served.
    #[test]
    fn unverifiable_store_entries_are_quarantined_and_recompiled() {
        struct Paranoid(EchoBackend);
        impl CompileBackend for Paranoid {
            fn normalize(
                &self,
                request: &CompileRequest,
            ) -> Result<NormalizedRequest, BackendError> {
                self.0.normalize(request)
            }
            fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
                self.0.compile(normalized)
            }
            fn verify_stored(&self, _stored: &str) -> Result<(), BackendError> {
                Err(BackendError::new("audit", "refused on principle"))
            }
        }

        let dir = temp_store_dir("paranoid");
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let req = CompileRequest::bench(BENCH).with_seed(23).to_json();
        for round in 0..2 {
            let backend = Paranoid(EchoBackend::new(Duration::ZERO));
            let server = Server::bind("127.0.0.1:0", backend, config.clone()).unwrap();
            let addr = server.local_addr();
            let handle = server.handle();
            let join = thread::spawn(move || server.run());
            let (status, body) = roundtrip(addr, "POST", "/compile", &req);
            assert_eq!(status, 200, "round {round}: {body}");
            let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
            if round == 1 {
                // The restart found the stored entry, refused it, and
                // recompiled.
                assert!(metrics.contains("store_quarantined 1\n"), "{metrics}");
                assert!(metrics.contains("serve_cache_misses 1\n"), "{metrics}");
            }
            handle.shutdown();
            join.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite regression: latency is accounted per outcome — a cache
    /// hit must never land in the cold-compile (`miss`) histogram.
    #[test]
    fn cache_hits_never_land_in_the_cold_compile_histogram() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let req = CompileRequest::bench(BENCH).with_seed(5).to_json();
        let (status, _) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200);
        let (status, _) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200);
        let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
        assert!(
            metrics.contains("serve_latency_us_count{outcome=\"miss\"} 1\n"),
            "exactly the cold compile: {metrics}"
        );
        assert!(
            metrics.contains("serve_latency_us_count{outcome=\"hit\"} 1\n"),
            "exactly the cache hit: {metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn request_ids_are_generated_and_client_ids_echoed() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let req = CompileRequest::bench(BENCH).with_seed(6).to_json();
        let response = raw_roundtrip(addr, "POST", "/compile", "", &req);
        let generated = header_value(&response, "X-Ppet-Request-Id").expect("generated id");
        assert_eq!(generated.len(), 32, "{response}");

        let response = raw_roundtrip(
            addr,
            "POST",
            "/compile",
            "X-Ppet-Request-Id: my-req-1\r\n",
            &req,
        );
        assert_eq!(
            header_value(&response, "X-Ppet-Request-Id"),
            Some("my-req-1"),
            "client id echoed: {response}"
        );
        // An unusable client ID falls back to a generated one.
        let response = raw_roundtrip(
            addr,
            "POST",
            "/compile",
            "X-Ppet-Request-Id: not a valid id!\r\n",
            &req,
        );
        assert_eq!(
            header_value(&response, "X-Ppet-Request-Id").map(str::len),
            Some(32),
            "{response}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn debug_endpoints_expose_recent_request_traces() {
        let (addr, handle, join) = start(Duration::ZERO, ServeConfig::default());
        let req = CompileRequest::bench(BENCH).with_seed(8).to_json();
        let response = raw_roundtrip(
            addr,
            "POST",
            "/compile",
            "X-Ppet-Request-Id: dbg-1\r\n",
            &req,
        );
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");

        let (status, summary) = roundtrip(addr, "GET", "/debug/requests", "");
        assert_eq!(status, 200);
        assert!(summary.contains("\"id\":\"dbg-1\""), "{summary}");
        assert!(summary.contains("\"outcome\":\"miss\""), "{summary}");
        assert!(summary.contains("\"normalize\""), "{summary}");

        let (status, trace) = roundtrip(addr, "GET", "/debug/trace/dbg-1", "");
        assert_eq!(status, 200, "{trace}");
        assert!(trace.contains("\"schema\": \"ppet-trace/v1\""), "{trace}");
        assert!(trace.contains("\"request_id\": \"dbg-1\""), "{trace}");
        assert!(trace.contains("\"spans\""), "{trace}");

        let (status, missing) = roundtrip(addr, "GET", "/debug/trace/nope", "");
        assert_eq!(status, 404, "{missing}");
        assert!(missing.contains("\"ppet-error/v1\""), "{missing}");

        let (status, _) = roundtrip(addr, "POST", "/debug/requests", "");
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn a_disabled_ring_still_answers_the_debug_routes() {
        let config = ServeConfig {
            trace_ring: 0,
            ..ServeConfig::default()
        };
        let (addr, handle, join) = start(Duration::ZERO, config);
        let req = CompileRequest::bench(BENCH).with_seed(9).to_json();
        let (status, _) = roundtrip(addr, "POST", "/compile", &req);
        assert_eq!(status, 200);
        let (status, summary) = roundtrip(addr, "GET", "/debug/requests", "");
        assert_eq!(status, 200);
        assert!(summary.contains("\"requests\":[]"), "{summary}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_route_drains_the_server() {
        let (addr, _handle, join) = start(Duration::ZERO, ServeConfig::default());
        let (status, body) = roundtrip(addr, "POST", "/shutdown", "");
        assert_eq!((status, body.as_str()), (202, "draining\n"));
        join.join().unwrap();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly on some platforms; a request
                // must at least fail to be answered.
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap_or(0) == 0
            }
        );
    }
}
