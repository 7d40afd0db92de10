//! End-to-end tests of the shard router in front of real `ppet-serve`
//! instances: responses through the router must be byte-identical to
//! direct backend responses, duplicate keys must coalesce at the router,
//! structured errors must keep the `ppet-error/v1` shape, and killing a
//! shard at `--replication 2` must never force a recompile.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ppet::cluster::{proxy, ClusterConfig, Router};
use ppet::core::{MercedBackend, MercedConfig};
use ppet::serve::{
    BackendError, CompileBackend, CompileRequest, NormalizedRequest, ServeConfig, Server,
    ServerHandle, REQUEST_ID_HEADER,
};
use ppet::trace::{RunManifest, Tracer};

fn start_backend<B: CompileBackend>(
    backend: B,
) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", backend, ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn start_router<B: CompileBackend>(
    backend: B,
    backends: Vec<String>,
    config: ClusterConfig,
) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let router = Router::bind("127.0.0.1:0", backend, backends, config).unwrap();
    let addr = router.local_addr();
    let handle = router.handle();
    let join = thread::spawn(move || router.run());
    (addr, handle, join)
}

fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let timeout = Duration::from_secs(60);
    let response = proxy::request(&addr.to_string(), method, path, &[], body, timeout, None);
    let response = response.unwrap();
    (response.status, response.body)
}

/// A metric sample value from an exposition body (0 when absent). The
/// `name` must include any label block, e.g. `serve_replicated `.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}

#[test]
fn routed_responses_are_byte_identical_to_direct_backend_responses() {
    let make = || MercedBackend::new(MercedConfig::default().with_cbit_length(4));
    let (shard, shard_handle, shard_join) = start_backend(make());
    let (router, router_handle, router_join) =
        start_router(make(), vec![shard.to_string()], ClusterConfig::default());

    let req = CompileRequest::builtin("s27").with_seed(7).to_json();
    let (status, via_router) = roundtrip(router, "POST", "/compile", &req);
    assert_eq!(status, 200, "{via_router}");
    // The shard now holds the result; a direct request is a cache hit
    // and must serve the same bytes the router proxied.
    let (status, direct) = roundtrip(shard, "POST", "/compile", &req);
    assert_eq!(status, 200, "{direct}");
    assert_eq!(via_router, direct, "router must not rewrite bodies");

    // Malformed requests fail at the router with the same structured
    // body a shard would produce — the router shares the parser.
    let (status, router_err) = roundtrip(router, "POST", "/compile", "{not json");
    let (direct_status, direct_err) = roundtrip(shard, "POST", "/compile", "{not json");
    assert_eq!((status, &router_err), (direct_status, &direct_err));
    assert!(
        router_err.contains("\"schema\":\"ppet-error/v1\""),
        "{router_err}"
    );

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

/// A deterministic instant backend whose compile count is observable
/// from the test, so "zero recompiles" is a direct assertion rather
/// than a metrics inference.
#[derive(Clone)]
struct CountingBackend {
    compiles: Arc<AtomicU64>,
    delay: Duration,
}

impl CompileBackend for CountingBackend {
    fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
        Ok(NormalizedRequest {
            circuit: ppet::netlist::data::s27().into(),
            config_entries: Vec::new(),
            seed: request.seed.unwrap_or(0),
        })
    }

    fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
        self.compile_traced(normalized, &Tracer::noop())
    }

    fn compile_traced(
        &self,
        normalized: &NormalizedRequest,
        _tracer: &Tracer,
    ) -> Result<String, BackendError> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        thread::sleep(self.delay);
        Ok(RunManifest::new("s27", normalized.seed).to_json())
    }
}

fn counting(delay: Duration) -> (CountingBackend, Arc<AtomicU64>) {
    let compiles = Arc::new(AtomicU64::new(0));
    (
        CountingBackend {
            compiles: Arc::clone(&compiles),
            delay,
        },
        compiles,
    )
}

#[test]
fn duplicate_keys_coalesce_at_the_router() {
    let (backend, compiles) = counting(Duration::from_millis(150));
    let (shard, shard_handle, shard_join) = start_backend(backend.clone());
    let config = ClusterConfig {
        // A single backend has no hedge target, but keep the hedge far
        // away from the compile delay anyway.
        hedge: Duration::from_secs(5),
        ..ClusterConfig::default()
    };
    let (router, router_handle, router_join) =
        start_router(backend, vec![shard.to_string()], config);

    let req = CompileRequest::builtin("s27").with_seed(3).to_json();
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let req = req.clone();
            thread::spawn(move || roundtrip(router, "POST", "/compile", &req))
        })
        .collect();
    let mut bodies: Vec<String> = clients
        .into_iter()
        .map(|c| {
            let (status, body) = c.join().unwrap();
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    bodies.dedup();
    assert_eq!(bodies.len(), 1, "coalesced clients see identical bytes");
    assert_eq!(compiles.load(Ordering::SeqCst), 1, "one physical compile");

    let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "cluster_coalesced "), 2, "{metrics}");
    assert_eq!(metric(&metrics, "cluster_requests "), 3, "{metrics}");
    // The shard saw exactly the owner's proxied request.
    let (_, shard_metrics) = roundtrip(shard, "GET", "/metrics", "");
    assert_eq!(
        metric(&shard_metrics, "serve_requests "),
        1,
        "{shard_metrics}"
    );

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

#[test]
fn request_ids_are_forwarded_and_echoed_end_to_end() {
    let (backend, _compiles) = counting(Duration::ZERO);
    let (shard, shard_handle, shard_join) = start_backend(backend.clone());
    let (router, router_handle, router_join) =
        start_router(backend, vec![shard.to_string()], ClusterConfig::default());

    let req = CompileRequest::builtin("s27").with_seed(1).to_json();
    let mut stream = TcpStream::connect(router).unwrap();
    write!(
        stream,
        "POST /compile HTTP/1.1\r\nHost: t\r\n{REQUEST_ID_HEADER}: cl-e2e-1\r\n\
         Content-Length: {}\r\n\r\n{req}",
        req.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(
        response.contains("cl-e2e-1"),
        "router echoes the id: {response}"
    );
    // The shard's trace ring indexed the same id: the id travelled with
    // the proxied request.
    let (status, _) = roundtrip(shard, "GET", "/debug/trace/cl-e2e-1", "");
    assert_eq!(status, 200, "shard must know the forwarded id");

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

#[test]
fn killing_a_shard_at_replication_two_never_forces_a_recompile() {
    let (backend, compiles) = counting(Duration::ZERO);
    let mut shards = Vec::new();
    for _ in 0..3 {
        shards.push(start_backend(backend.clone()));
    }
    let addrs: Vec<String> = shards.iter().map(|(a, _, _)| a.to_string()).collect();
    let config = ClusterConfig {
        replication: 2,
        probe: Duration::from_millis(50),
        ..ClusterConfig::default()
    };
    let (router, router_handle, router_join) = start_router(backend, addrs, config);

    const SEEDS: u64 = 6;
    let request = |seed: u64| CompileRequest::builtin("s27").with_seed(seed).to_json();
    let mut first_pass = Vec::new();
    for seed in 0..SEEDS {
        let (status, body) = roundtrip(router, "POST", "/compile", &request(seed));
        assert_eq!(status, 200, "{body}");
        first_pass.push(body);
    }
    assert_eq!(compiles.load(Ordering::SeqCst), SEEDS);

    // Replication runs in the background; wait for every key to land on
    // its second replica before pulling a shard out.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let replicated: u64 = shards
            .iter()
            .map(|(addr, _, _)| {
                let (_, metrics) = roundtrip(*addr, "GET", "/metrics", "");
                metric(&metrics, "serve_replicated ")
            })
            .sum();
        if replicated >= SEEDS {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication never landed: {replicated}/{SEEDS}"
        );
        thread::sleep(Duration::from_millis(20));
    }

    // Kill one shard. Every key now has exactly one surviving copy.
    let (_dead_addr, dead_handle, dead_join) = shards.remove(0);
    dead_handle.shutdown();
    dead_join.join().unwrap();

    // Every key must still answer — served from the surviving replica,
    // byte-identical, with zero fresh compiles.
    for (seed, first) in (0..SEEDS).zip(&first_pass) {
        let (status, body) = roundtrip(router, "POST", "/compile", &request(seed));
        assert_eq!(status, 200, "seed {seed} after shard loss: {body}");
        assert_eq!(&body, first, "seed {seed} must come from cache");
    }
    assert_eq!(
        compiles.load(Ordering::SeqCst),
        SEEDS,
        "shard loss must not recompile anything"
    );

    // The router noticed: the dead backend is marked down and the
    // cluster still reports quorum (2 of 3 up).
    let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
    assert!(metric(&metrics, "cluster_backend_down ") >= 1, "{metrics}");
    assert_eq!(metric(&metrics, "cluster_backends_up "), 2, "{metrics}");
    let (status, health) = roundtrip(router, "GET", "/healthz", "");
    assert_eq!((status, health.as_str()), (200, "ok\n"));

    router_handle.shutdown();
    router_join.join().unwrap();
    for (_, handle, join) in shards {
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn losing_every_backend_degrades_to_structured_errors_and_quorum_loss() {
    let (backend, _compiles) = counting(Duration::ZERO);
    // Bind-then-drop: a real address nobody is listening on.
    let ghost = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let config = ClusterConfig {
        probe: Duration::from_secs(3600),
        ..ClusterConfig::default()
    };
    let (router, router_handle, router_join) = start_router(backend, vec![ghost], config);

    let req = CompileRequest::builtin("s27").with_seed(1).to_json();
    // First request: the candidate is still presumed up, fails at
    // transport, and is marked down → 502 upstream.
    let (status, body) = roundtrip(router, "POST", "/compile", &req);
    assert_eq!(status, 502, "{body}");
    assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
    assert!(body.contains("\"kind\":\"upstream\""), "{body}");
    // Second request: no live candidates at all → 503 unavailable.
    let (status, body) = roundtrip(router, "POST", "/compile", &req);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"kind\":\"unavailable\""), "{body}");
    // Quorum is lost (0 of 1 up).
    let (status, health) = roundtrip(router, "GET", "/healthz", "");
    assert_eq!(status, 503, "{health}");
    assert!(health.contains("\"kind\":\"unavailable\""), "{health}");

    router_handle.shutdown();
    router_join.join().unwrap();
}

/// Regression: a backend whose `normalize` panics gets the same
/// structured 500 from the router that `merced serve` sends, not a
/// dropped connection, and the router stays healthy.
#[test]
fn panicking_normalize_answers_a_structured_error_at_the_router() {
    struct Tantrum;
    impl CompileBackend for Tantrum {
        fn normalize(&self, _request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
            panic!("normalize kaboom");
        }
        fn compile(&self, _normalized: &NormalizedRequest) -> Result<String, BackendError> {
            unreachable!("normalize never succeeds");
        }
    }

    let (backend, compiles) = counting(Duration::ZERO);
    let (shard, shard_handle, shard_join) = start_backend(backend);
    let (router, router_handle, router_join) =
        start_router(Tantrum, vec![shard.to_string()], ClusterConfig::default());
    let req = CompileRequest::builtin("s27").to_json();
    let (status, body) = roundtrip(router, "POST", "/compile", &req);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
    assert!(body.contains("\"kind\":\"compile\""), "{body}");
    assert!(body.contains("normalization panicked"), "{body}");
    assert_eq!(compiles.load(Ordering::SeqCst), 0, "nothing was proxied");
    let (status, _) = roundtrip(router, "GET", "/healthz", "");
    assert_eq!(status, 200);

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

/// Regression: a timeout too large to represent as a deadline waits
/// indefinitely, on the proxying owner and on a coalesced duplicate,
/// instead of panicking the handler thread and dropping the connection.
#[test]
fn an_unrepresentable_router_timeout_waits_instead_of_panicking() {
    let (backend, compiles) = counting(Duration::from_millis(150));
    let (shard, shard_handle, shard_join) = start_backend(backend.clone());
    let config = ClusterConfig {
        timeout: Duration::MAX,
        hedge: Duration::from_secs(5),
        ..ClusterConfig::default()
    };
    let (router, router_handle, router_join) =
        start_router(backend, vec![shard.to_string()], config);

    let req = CompileRequest::builtin("s27").with_seed(19).to_json();
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let req = req.clone();
            thread::spawn(move || roundtrip(router, "POST", "/compile", &req))
        })
        .collect();
    let replies: Vec<(u16, String)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(replies[0].0, 200, "{}", replies[0].1);
    assert_eq!(replies[0], replies[1], "the duplicate gets identical bytes");
    assert_eq!(compiles.load(Ordering::SeqCst), 1, "one physical compile");
    let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "cluster_coalesced "), 1, "{metrics}");

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

/// The router's `name{backend="addr"}` series from its exposition.
fn backend_metric(router: SocketAddr, name: &str, backend: SocketAddr) -> u64 {
    let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
    metric(&metrics, &format!("{name}{{backend=\"{backend}\"}} "))
}

/// Sequential routed compiles share one pooled connection to the shard.
/// The shard then stops and restarts on the same address, closing the
/// pooled connection while it is idle: stopping must not wait out the
/// shard's 10 s stream timeout on it, and the next routed compile must
/// be retried on a fresh connection without counting as a backend
/// failure.
#[test]
fn pooled_connections_survive_a_shard_restart_without_a_backend_error() {
    let (backend, compiles) = counting(Duration::ZERO);
    let (shard, shard_handle, shard_join) = start_backend(backend.clone());
    let config = ClusterConfig {
        probe: Duration::from_secs(3600),
        ..ClusterConfig::default()
    };
    let (router, router_handle, router_join) =
        start_router(backend.clone(), vec![shard.to_string()], config);

    for seed in 0..5 {
        let req = CompileRequest::builtin("s27").with_seed(seed % 2).to_json();
        let (status, body) = roundtrip(router, "POST", "/compile", &req);
        assert_eq!(status, 200, "{body}");
    }
    let connects = backend_metric(router, "cluster_upstream_connects", shard);
    assert_eq!(connects, 1, "five sequential hops, one connection");

    let stopping = Instant::now();
    shard_handle.shutdown();
    shard_join.join().unwrap();
    assert!(
        stopping.elapsed() < Duration::from_secs(2),
        "a shard with an idle pooled connection took {:?} to stop",
        stopping.elapsed()
    );
    let server = Server::bind(shard, backend, ServeConfig::default()).unwrap();
    let shard_handle = server.handle();
    let shard_join = thread::spawn(move || server.run());

    let req = CompileRequest::builtin("s27").with_seed(7).to_json();
    let (status, body) = roundtrip(router, "POST", "/compile", &req);
    assert_eq!(status, 200, "{body}");
    assert_eq!(compiles.load(Ordering::SeqCst), 3);
    assert_eq!(
        backend_metric(router, "cluster_upstream_connects", shard),
        2
    );
    assert_eq!(backend_metric(router, "cluster_backend_errors", shard), 0);
    let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "cluster_backend_down "), 0, "{metrics}");

    router_handle.shutdown();
    router_join.join().unwrap();
    shard_handle.shutdown();
    shard_join.join().unwrap();
}

/// Proxy attempts and replication pushes run on the router's cached
/// threads: once a few routed compiles have warmed the cache, sequential
/// routed reads run on threads that already exist.
#[test]
fn sequential_routed_requests_stop_spawning_once_the_cache_is_warm() {
    let (backend, compiles) = counting(Duration::ZERO);
    let shards: Vec<_> = (0..2).map(|_| start_backend(backend.clone())).collect();
    let addrs = shards.iter().map(|(a, _, _)| a.to_string()).collect();
    let (router, router_handle, router_join) =
        start_router(backend, addrs, ClusterConfig::default());
    let spawned = || {
        let (_, metrics) = roundtrip(router, "GET", "/metrics", "");
        metric(&metrics, "cluster_threads_spawned ")
    };

    let requests: Vec<String> = (0..4)
        .map(|seed| CompileRequest::builtin("s27").with_seed(seed).to_json())
        .collect();
    for req in &requests {
        let (status, body) = roundtrip(router, "POST", "/compile", req);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(compiles.load(Ordering::SeqCst), 4);
    let warm = spawned();
    assert!((1..=4).contains(&warm), "warm-up spawned {warm} threads");
    for req in requests.iter().cycle().take(12) {
        let (status, body) = roundtrip(router, "POST", "/compile", req);
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(spawned(), warm, "warm sequential reads spawned threads");

    router_handle.shutdown();
    router_join.join().unwrap();
    for (_, handle, join) in shards {
        handle.shutdown();
        join.join().unwrap();
    }
}
