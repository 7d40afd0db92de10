//! The router proper: routing, hedging, replication, failure handling,
//! and metric aggregation, behind the listener and connection handler
//! it shares with `ppet-serve` ([`ppet_serve::front`]).
//!
//! One [`Router`] fronts N independent `ppet-serve` backends. Its
//! `POST /compile` path derives the same content key a backend would
//! (same normalize, same FNV-1a-128 derivation), walks the consistent
//! [`Ring`] for the key's backend preference list, coalesces in-flight
//! duplicates onto one proxied request, hedges a slow attempt to the
//! next replica after [`ClusterConfig::hedge`], fails over on transport
//! errors (marking the backend down), and replicates fresh results to
//! [`ClusterConfig::replication`] ring replicas via `PUT /cache/<key>`
//! so no single shard's death forces a recompile.
//!
//! Compiles and replication pushes travel over each backend's
//! [`Pool`] of kept-alive connections, counted per backend by
//! `cluster.upstream_connects`; probes and `/metrics` scrapes stay
//! one-shot. Marking a backend down closes its idle connections. Each
//! proxy attempt and each push runs on a thread of the router's
//! [`ThreadCache`], reused once a previous attempt has finished
//! (`cluster.threads_spawned` counts the spawns); [`Router::run`] joins
//! them after the front end's handlers.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ppet_serve::front::{error_reply, unrouted, Front, Reply, Routes};
use ppet_serve::http::{self, Request};
use ppet_serve::{
    normalize_body, CacheKey, CompileBackend, Gate, ServerHandle, ThreadCache, REQUEST_ID_HEADER,
};
use ppet_trace::{expo, Counter, Metrics};

use crate::proxy::{self, CancelHandle, Pool, Response};
use crate::ring::{Ring, DEFAULT_VNODES};

/// How long the prober sleeps between shutdown checks.
const PROBE_SLICE: Duration = Duration::from_millis(15);

/// Timeout for one backend `/metrics` scrape during aggregation.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Timeout for one `/healthz` probe of a down backend.
const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// Bound on the replicated-keys dedup set; reaching it clears the set
/// (worst case: a key is re-pushed once, which the idempotent
/// `PUT /cache` absorbs).
const REPLICATED_KEYS_BOUND: usize = 65_536;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of ring replicas each key's result is kept on (primary
    /// included). 1 disables replication.
    pub replication: usize,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub vnodes: usize,
    /// How long the primary attempt may stay silent before the router
    /// hedges the request to the next ring replica.
    pub hedge: Duration,
    /// Pause between `/healthz` probes of down backends.
    pub probe: Duration,
    /// End-to-end deadline for one proxied compile (also the coalesced
    /// waiter deadline).
    pub timeout: Duration,
    /// Seed of the deterministic request-ID generator.
    pub id_seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            replication: 2,
            vnodes: DEFAULT_VNODES,
            hedge: Duration::from_millis(250),
            probe: Duration::from_millis(500),
            timeout: Duration::from_secs(60),
            id_seed: 0,
        }
    }
}

/// One member backend: its connection pool (and address), liveness,
/// per-backend counters.
struct Member {
    pool: Arc<Pool>,
    up: AtomicBool,
    /// Requests answered by this backend (as hedge/failover winner).
    proxied: Counter,
    /// Transport failures observed against this backend.
    errors: Counter,
}

impl Member {
    fn new(addr: String, metrics: &Metrics) -> Self {
        // Metric names are `&'static str` by registry design; the
        // per-backend series names are minted once per member at startup
        // (bounded by the --backend list), so leaking them is a one-time,
        // fixed-size cost.
        let leaked = |name: String| -> &'static str { Box::leak(name.into_boxed_str()) };
        let proxied = metrics.counter(leaked(format!("cluster.proxied{{backend=\"{addr}\"}}")));
        let errors = metrics.counter(leaked(format!(
            "cluster.backend_errors{{backend=\"{addr}\"}}"
        )));
        let connects = metrics.counter(leaked(format!(
            "cluster.upstream_connects{{backend=\"{addr}\"}}"
        )));
        Self {
            pool: Arc::new(Pool::new(addr, connects)),
            up: AtomicBool::new(true),
            proxied,
            errors,
        }
    }

    fn addr(&self) -> &str {
        self.pool.addr()
    }

    fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }
}

/// A proxied reply as coalesced waiters replay it: status and body,
/// verbatim, so they answer byte-identically to the owner.
type ProxiedReply = (u16, Arc<String>);

struct ClusterService<B> {
    /// Used solely to normalize requests for keying — the router never
    /// compiles anything itself.
    backend: Arc<B>,
    members: Vec<Member>,
    ring: Ring,
    /// In-flight coalescing: key → gate of the owning proxy attempt.
    /// Entries live exactly as long as the owner is proxying.
    gates: Mutex<HashMap<u128, Arc<Gate<ProxiedReply>>>>,
    /// Keys already pushed to their replicas (bounded dedup, see
    /// [`REPLICATED_KEYS_BOUND`]).
    replicated: Mutex<HashSet<u128>>,
    metrics: Metrics,
    config: ClusterConfig,
    handle: ServerHandle,
    /// The threads proxy attempts and replication pushes run on.
    threads: ThreadCache,
}

/// The shard router bound to a socket.
pub struct Router<B: CompileBackend> {
    front: Front,
    service: Arc<ClusterService<B>>,
}

impl<B: CompileBackend> std::fmt::Debug for Router<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("addr", &self.front.local_addr())
            .finish_non_exhaustive()
    }
}

impl<B: CompileBackend> Router<B> {
    /// Binds to `addr` fronting `backends` (ring order = list order).
    ///
    /// # Errors
    ///
    /// Socket errors from bind/configure, or an empty backend list.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend: B,
        backends: Vec<String>,
        config: ClusterConfig,
    ) -> std::io::Result<Self> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cluster needs at least one --backend",
            ));
        }
        let front = Front::bind(addr, config.id_seed)?;
        let metrics = Metrics::new();
        let members: Vec<Member> = backends
            .into_iter()
            .map(|a| Member::new(a, &metrics))
            .collect();
        let ring = Ring::new(members.len(), config.vnodes.max(1));
        let threads = ThreadCache::new(metrics.counter("cluster.threads_spawned"));
        let service = Arc::new(ClusterService {
            backend: Arc::new(backend),
            members,
            ring,
            gates: Mutex::new(HashMap::new()),
            replicated: Mutex::new(HashSet::new()),
            metrics,
            config,
            handle: front.handle(),
            threads,
        });
        Ok(Self { front, service })
    }

    /// The actually-bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// A handle that can stop [`Router::run`] from another thread.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        self.front.handle()
    }

    /// Serves until shutdown (handle, `POST /shutdown`, or a Unix
    /// termination signal), then drains: no new connections, all
    /// accepted requests answered, the prober joined, and every proxy
    /// attempt and replication push finished.
    pub fn run(self) {
        let prober = {
            let service = Arc::clone(&self.service);
            thread::spawn(move || service.probe_loop())
        };
        self.front.run(&self.service);
        let _ = prober.join();
        self.service.threads.join();
    }
}

impl<B: CompileBackend> Routes for ClusterService<B> {
    fn route(&self, request: &Request, request_id: Option<&str>) -> Reply {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => (200, "text/plain", self.render_metrics()),
            ("POST", "/shutdown") => {
                self.handle.shutdown();
                (202, "text/plain", "draining\n".to_owned())
            }
            ("POST", "/compile") => self.compile(&request.body, request_id.unwrap_or_default()),
            (_, path) => unrouted(
                request,
                matches!(path, "/healthz" | "/metrics" | "/shutdown" | "/compile"),
            ),
        }
    }
}

impl<B: CompileBackend> ClusterService<B> {
    fn up_count(&self) -> usize {
        self.members.iter().filter(|m| m.is_up()).count()
    }

    /// Periodically probes down backends and restores the ones that
    /// answer `/healthz` again. Only their own ring arcs come back —
    /// everything else kept routing around them the whole time.
    fn probe_loop(&self) {
        while !self.handle.shutting_down() {
            for member in &self.members {
                if !member.is_up()
                    && proxy::request(
                        member.addr(),
                        "GET",
                        "/healthz",
                        &[],
                        "",
                        PROBE_TIMEOUT,
                        None,
                    )
                    .map(|r| r.status == 200)
                    .unwrap_or(false)
                {
                    member.up.store(true, Ordering::SeqCst);
                    self.metrics.counter("cluster.backend_recovered").inc();
                }
            }
            // Sleep in short slices so shutdown stays prompt.
            let deadline = Instant::now() + self.config.probe;
            while Instant::now() < deadline && !self.handle.shutting_down() {
                thread::sleep(PROBE_SLICE.min(self.config.probe));
            }
        }
    }

    fn mark_down(&self, index: usize) {
        let member = &self.members[index];
        member.errors.inc();
        member.pool.clear();
        if member.up.swap(false, Ordering::SeqCst) {
            self.metrics.counter("cluster.backend_down").inc();
        }
    }

    /// `/healthz` reflects quorum: a strict majority of backends must be
    /// up for the router to call itself healthy.
    fn healthz(&self) -> Reply {
        let up = self.up_count();
        let total = self.members.len();
        if up * 2 > total {
            (200, "text/plain", "ok\n".to_owned())
        } else {
            let message = format!("quorum lost: {up}/{total} backends up");
            error_reply(503, "unavailable", &message)
        }
    }

    /// `POST /compile`: wraps the routing state machine with per-outcome
    /// latency accounting.
    fn compile(&self, body: &str, request_id: &str) -> Reply {
        self.metrics.counter("cluster.requests").inc();
        let started = Instant::now();
        let (status, outcome, response) = self.compile_inner(body, request_id);
        let name = match outcome {
            "proxied" => "cluster.latency_us{outcome=\"proxied\"}",
            "coalesced" => "cluster.latency_us{outcome=\"coalesced\"}",
            "timeout" => "cluster.latency_us{outcome=\"timeout\"}",
            "shed" => "cluster.latency_us{outcome=\"shed\"}",
            _ => "cluster.latency_us{outcome=\"error\"}",
        };
        self.metrics
            .histogram(name)
            .record(started.elapsed().as_micros().try_into().unwrap_or(u64::MAX));
        (status, "application/json", response)
    }

    fn compile_inner(&self, body: &str, request_id: &str) -> Reply {
        if self.handle.shutting_down() {
            return (
                503,
                "shed",
                http::error_body("shutdown", "router is draining"),
            );
        }
        // Key derivation mirrors the backends exactly (same parser, same
        // normalize, same FNV-1a-128 frames), so router-side coalescing
        // and ring placement agree with every shard's own cache keys —
        // and malformed requests (or a panicking backend) are answered
        // here with the same bytes a backend would send, without burning
        // a proxy attempt.
        let normalized = match normalize_body(self.backend.as_ref(), body) {
            Ok(normalized) => normalized,
            Err((status, body)) => return (status, "error", body),
        };
        let key = CacheKey::of(&normalized);

        // In-flight coalescing, composing with each shard's per-process
        // coalescing: N duplicate clients at the router become one
        // proxied request, which the shard may further coalesce with its
        // own direct traffic.
        let owned = {
            let mut gates = self.gates.lock().unwrap();
            match gates.get(&key.0) {
                Some(gate) => {
                    self.metrics.counter("cluster.coalesced").inc();
                    Err(Arc::clone(gate))
                }
                None => {
                    let gate = Arc::new(Gate::new());
                    gates.insert(key.0, Arc::clone(&gate));
                    Ok(gate)
                }
            }
        };
        match owned {
            Err(gate) => match gate.wait(self.config.timeout) {
                Some((200, body)) => (200, "coalesced", body.as_ref().clone()),
                Some((status, body)) => (status, status_outcome(status), body.as_ref().clone()),
                None => (
                    408,
                    "timeout",
                    http::error_body(
                        "timeout",
                        &format!(
                            "coalesced compile exceeded {} ms; retry to pick up the cached result",
                            self.config.timeout.as_millis()
                        ),
                    ),
                ),
            },
            Ok(gate) => {
                let (status, response, winner) = self.proxy_compile(key, body, request_id);
                // Un-register before filling: requests arriving after the
                // fill start a fresh proxy (and hit the shard's cache)
                // instead of coalescing onto a settled gate.
                self.gates.lock().unwrap().remove(&key.0);
                let shared = Arc::new(response);
                gate.fill((status, Arc::clone(&shared)));
                if status == 200 {
                    if let Some(winner) = winner {
                        self.replicate(key, &shared, winner);
                    }
                    (200, "proxied", shared.as_ref().clone())
                } else {
                    (status, status_outcome(status), shared.as_ref().clone())
                }
            }
        }
    }

    /// Proxies one compile along the key's ring preference list with
    /// hedging and failover. Returns `(status, body, winning backend)`.
    ///
    /// - A transport error marks the backend down and advances to the
    ///   next candidate immediately. (A pooled connection the backend
    ///   closed while idle is not one: the pool retries it on a fresh
    ///   connection first.)
    /// - Silence past [`ClusterConfig::hedge`] *hedges*: the next
    ///   candidate is raced without giving up on the slow one. First
    ///   response wins; every other in-flight attempt is cancelled.
    /// - Any HTTP response is a win — 4xx/5xx are deterministic protocol
    ///   outcomes the backend chose, and pass through verbatim.
    ///
    /// The gate is filled only after this returns, so a cancelled
    /// loser's transport error can never poison coalesced waiters with
    /// a failure while the winner carries the real result.
    fn proxy_compile(
        &self,
        key: CacheKey,
        body: &str,
        request_id: &str,
    ) -> (u16, String, Option<usize>) {
        let candidates = self
            .ring
            .route(key.0, self.members.len(), |b| self.members[b].is_up());
        if candidates.is_empty() {
            return (
                503,
                http::error_body("unavailable", "no live backends"),
                None,
            );
        }
        // `None` (an unrepresentable deadline) waits indefinitely.
        let deadline = Instant::now().checked_add(self.config.timeout);
        let body: Arc<str> = Arc::from(body);
        let request_id: Arc<str> = Arc::from(request_id);
        let (tx, rx) = channel::<(usize, std::io::Result<Response>)>();
        let mut attempts: Vec<(usize, CancelHandle)> = Vec::new();
        let mut next = 0usize;
        let mut in_flight = 0usize;
        let launch = |next: &mut usize,
                      in_flight: &mut usize,
                      attempts: &mut Vec<(usize, CancelHandle)>,
                      tx: &Sender<(usize, std::io::Result<Response>)>| {
            let index = candidates[*next];
            *next += 1;
            *in_flight += 1;
            let cancel = CancelHandle::default();
            attempts.push((index, cancel.clone()));
            let pool = Arc::clone(&self.members[index].pool);
            let body = Arc::clone(&body);
            let request_id = Arc::clone(&request_id);
            let timeout = self.config.timeout;
            let tx = tx.clone();
            self.threads.spawn(move || {
                let result = pool.request(
                    "POST",
                    "/compile",
                    &[(REQUEST_ID_HEADER, &request_id)],
                    &body,
                    timeout,
                    Some(&cancel),
                );
                // The receiver may be long gone (a winner was chosen);
                // a failed send is the expected fate of a cancelled loser.
                let _ = tx.send((index, result));
            });
        };
        launch(&mut next, &mut in_flight, &mut attempts, &tx);

        loop {
            let remaining = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if remaining.is_zero() {
                break;
            }
            // While unlaunched candidates remain, wake at the hedge
            // threshold; afterwards just wait out the deadline.
            let wait = if next < candidates.len() {
                self.config.hedge.min(remaining)
            } else {
                remaining
            };
            match rx.recv_timeout(wait) {
                Ok((index, Ok(response))) => {
                    for (other, cancel) in &attempts {
                        if *other != index {
                            cancel.cancel();
                        }
                    }
                    self.members[index].proxied.inc();
                    return (response.status, response.body, Some(index));
                }
                Ok((index, Err(e))) => {
                    in_flight -= 1;
                    self.mark_down(index);
                    if next < candidates.len() {
                        launch(&mut next, &mut in_flight, &mut attempts, &tx);
                    } else if in_flight == 0 {
                        return (
                            502,
                            http::error_body(
                                "upstream",
                                &format!(
                                    "all {} candidate backends failed; last: {}: {e}",
                                    candidates.len(),
                                    self.members[index].addr()
                                ),
                            ),
                            None,
                        );
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if next < candidates.len() {
                        self.metrics.counter("cluster.hedged").inc();
                        launch(&mut next, &mut in_flight, &mut attempts, &tx);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for (_, cancel) in &attempts {
            cancel.cancel();
        }
        (
            502,
            http::error_body(
                "upstream",
                &format!(
                    "no backend answered within {} ms",
                    self.config.timeout.as_millis()
                ),
            ),
            None,
        )
    }

    /// Pushes a fresh result to the key's other ring replicas (verified
    /// `PUT /cache/<key>`), best-effort and off the request path. The
    /// dedup set bounds this to roughly one push per key per router
    /// lifetime, so cache hits don't re-replicate on every read.
    fn replicate(&self, key: CacheKey, manifest: &Arc<String>, winner: usize) {
        if self.config.replication <= 1 {
            return;
        }
        {
            let mut seen = self.replicated.lock().unwrap();
            if seen.len() >= REPLICATED_KEYS_BOUND {
                seen.clear();
            }
            if !seen.insert(key.0) {
                return;
            }
        }
        let targets: Vec<usize> = self
            .ring
            .route(key.0, self.config.replication, |b| self.members[b].is_up())
            .into_iter()
            .filter(|&b| b != winner)
            .collect();
        let path = format!("/cache/{key}");
        let replicated = self.metrics.counter("cluster.replicated");
        let failed = self.metrics.counter("cluster.replication_errors");
        let timeout = self.config.timeout;
        for index in targets {
            let pool = Arc::clone(&self.members[index].pool);
            let manifest = Arc::clone(manifest);
            let path = path.clone();
            let replicated = replicated.clone();
            let failed = failed.clone();
            self.threads.spawn(move || {
                match pool.request("PUT", &path, &[], &manifest, timeout, None) {
                    Ok(response) if response.status == 200 => replicated.inc(),
                    _ => failed.inc(),
                }
            });
        }
    }

    /// Aggregated `/metrics`: every up backend's exposition relabelled
    /// with `backend="addr"`, plus unlabelled cluster-level rollups
    /// (counters summed, histograms merged across backends), plus the
    /// router's own `cluster.*` series — all rendered as one exposition
    /// so each family keeps a single `# HELP`/`# TYPE` header.
    fn render_metrics(&self) -> String {
        let scrapes: Vec<(String, Option<String>)> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .members
                .iter()
                .filter(|m| m.is_up())
                .map(|m| {
                    scope.spawn(|| {
                        let text = proxy::request(
                            m.addr(),
                            "GET",
                            "/metrics",
                            &[],
                            "",
                            SCRAPE_TIMEOUT,
                            None,
                        )
                        .ok()
                        .filter(|r| r.status == 200)
                        .map(|r| r.body);
                        (m.addr().to_owned(), text)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut rollup = expo::Exposition::default();
        let mut labelled = expo::Exposition::default();
        for (addr, text) in scrapes {
            let parsed = text.as_deref().and_then(|t| expo::parse(t).ok());
            match parsed {
                Some(parsed) => {
                    labelled.merge(&parsed.relabel("backend", &addr));
                    rollup.merge(&parsed);
                }
                None => self.metrics.counter("cluster.scrape_errors").inc(),
            }
        }

        self.metrics
            .gauge("cluster.backends_up")
            .set(self.up_count() as f64);
        self.metrics
            .gauge("cluster.backends")
            .set(self.members.len() as f64);
        let mut all = self.metrics.exposition();
        all.merge(&labelled);
        all.merge(&rollup);
        all.render_prometheus()
    }
}

/// The latency-histogram outcome label for a non-200 proxied status.
fn status_outcome(status: u16) -> &'static str {
    match status {
        408 => "timeout",
        429 | 503 => "shed",
        _ => "error",
    }
}
