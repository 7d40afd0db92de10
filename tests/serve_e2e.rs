//! End-to-end tests of the compile service with the real Merced backend:
//! served manifests must be bit-identical to the CLI compile path, cache
//! hits must be observable in `/metrics`, deadline misses must produce
//! the structured timeout error, and shutdown must drain.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use ppet::cluster::proxy;
use ppet::core::{Merced, MercedBackend, MercedConfig};
use ppet::serve::{
    BackendError, CompileBackend, CompileRequest, NormalizedRequest, ServeConfig, Server,
    ServerHandle, REQUEST_ID_HEADER,
};
use ppet::trace::json::{self, Value};
use ppet::trace::{RunManifest, Tracer};

fn start(config: ServeConfig) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    start_with(
        MercedBackend::new(MercedConfig::default().with_cbit_length(4)),
        config,
    )
}

fn start_with<B: CompileBackend>(
    backend: B,
    config: ServeConfig,
) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", backend, config).unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let timeout = Duration::from_secs(60);
    let response = proxy::request(&addr.to_string(), method, path, &[], body, timeout, None);
    let response = response.unwrap();
    (response.status, response.body)
}

/// A roundtrip that keeps the raw response (status line + headers +
/// body) and lets the caller inject extra request headers.
fn raw_roundtrip(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// Extracts one response header value (case-insensitive name).
fn header_value(response: &str, name: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name)
            .then(|| value.trim().to_owned())
    })
}

/// Drops the manifest entries that record the run rather than the result
/// (same normalization as `scripts/parity.sh`).
fn normalize(manifest: &str) -> String {
    manifest
        .lines()
        .filter(|l| !l.contains("\"wall_ns\"") && !l.contains("\"jobs\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn served_manifest_is_bit_identical_to_the_cli_path() {
    let (addr, handle, join) = start(ServeConfig::default());
    let req = CompileRequest::builtin("s27").with_seed(7).to_json();
    let (status, served) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{served}");

    let direct = Merced::new(MercedConfig::default().with_cbit_length(4).with_seed(7))
        .compile(&ppet::netlist::data::s27())
        .unwrap()
        .run_manifest()
        .to_json();
    assert_eq!(normalize(&served), normalize(&direct));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_get_identical_manifests_and_the_cache_fills() {
    let (addr, handle, join) = start(ServeConfig::default());
    let req = CompileRequest::builtin("s27").with_seed(11).to_json();
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let req = req.clone();
            thread::spawn(move || roundtrip(addr, "POST", "/compile", &req))
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
    assert_eq!(bodies.len(), 1, "every client sees the same manifest");

    // A repeat of the same request is a pure cache hit.
    let (status, again) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200);
    assert_eq!(again, bodies[0]);
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    let count = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or(0)
    };
    assert_eq!(count("serve_cache_misses "), 1, "{metrics}");
    assert!(count("serve_cache_hits ") >= 1, "{metrics}");
    assert_eq!(
        count("serve_cache_misses ") + count("serve_cache_hits ") + count("serve_coalesced "),
        7,
        "{metrics}"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn different_seeds_are_different_cache_entries() {
    let (addr, handle, join) = start(ServeConfig::default());
    let a = CompileRequest::builtin("s27").with_seed(1).to_json();
    let b = CompileRequest::builtin("s27").with_seed(2).to_json();
    let (_, body_a) = roundtrip(addr, "POST", "/compile", &a);
    let (_, body_b) = roundtrip(addr, "POST", "/compile", &b);
    assert_ne!(body_a, body_b);
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert!(metrics.contains("serve_cache_misses 2\n"), "{metrics}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn deadline_misses_return_the_structured_timeout_error() {
    let config = ServeConfig {
        timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start(config);
    // The calibrated s641 stand-in takes well over a millisecond but
    // keeps the post-timeout drain short.
    let req = CompileRequest::builtin("s641").to_json();
    let (status, body) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("\"schema\":\"ppet-error/v1\""), "{body}");
    assert!(body.contains("\"kind\":\"timeout\""), "{body}");
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert!(metrics.contains("serve_timeouts 1\n"), "{metrics}");
    handle.shutdown();
    // The drain still completes the timed-out compile before exiting.
    join.join().unwrap();
}

#[test]
fn request_ids_echo_and_the_trace_agrees_with_the_manifest() {
    let (addr, handle, join) = start(ServeConfig::default());
    let req = CompileRequest::builtin("s27").with_seed(7).to_json();
    let response = raw_roundtrip(
        addr,
        "POST",
        "/compile",
        "X-Ppet-Request-Id: e2e-req-1\r\n",
        &req,
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert_eq!(
        header_value(&response, REQUEST_ID_HEADER).as_deref(),
        Some("e2e-req-1"),
        "client-supplied id must be echoed"
    );
    let served = response.split_once("\r\n\r\n").unwrap().1;
    let manifest = RunManifest::from_json(served).unwrap();

    let (status, doc) = roundtrip(addr, "GET", "/debug/trace/e2e-req-1", "");
    assert_eq!(status, 200, "{doc}");
    // The trace document is itself a valid ppet-trace/v1 manifest…
    let trace = RunManifest::from_json(&doc).unwrap();
    let config = |key: &str| {
        trace
            .config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(config("request_id"), Some("e2e-req-1"), "{doc}");
    assert_eq!(config("outcome"), Some("miss"), "{doc}");
    // …whose phases are the compile's pipeline phases, each timed from
    // a span strictly nested inside the manifest's own phase window.
    assert!(!trace.phases.is_empty(), "{doc}");
    for phase in &trace.phases {
        let recorded = manifest
            .phases
            .iter()
            .find(|p| p.name == phase.name)
            .unwrap_or_else(|| panic!("trace phase {} missing from manifest", phase.name));
        assert!(
            phase.wall_ns <= recorded.wall_ns,
            "span {} ({} ns) exceeds its manifest phase ({} ns)",
            phase.name,
            phase.wall_ns,
            recorded.wall_ns
        );
    }
    // The raw span tree rides along for tooling.
    let parsed = json::parse(&doc).unwrap();
    let spans = parsed.get("spans").and_then(Value::as_arr).unwrap();
    assert_eq!(
        spans[0].get("name").and_then(Value::as_str),
        Some("request")
    );

    handle.shutdown();
    join.join().unwrap();
}

/// A backend that compiles slowly (and only for one seed, when so
/// configured), used to pin down coalescing and ring-eviction timing
/// without depending on real compile speeds.
struct DelayBackend {
    delay: Duration,
    slow_seed: Option<u64>,
}

impl CompileBackend for DelayBackend {
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
        tracer: &Tracer,
    ) -> Result<String, BackendError> {
        let _span = tracer.span("delay");
        if self.slow_seed.unwrap_or(normalized.seed) == normalized.seed {
            thread::sleep(self.delay);
        }
        Ok(RunManifest::new("s27", normalized.seed).to_json())
    }
}

/// The compile-phase subtree of a `/debug/trace/<id>` document: the
/// grafted backend spans under the serve-side `compile` phase.
fn compile_spans(doc: &str) -> Value {
    let parsed = json::parse(doc).unwrap();
    let spans = parsed.get("spans").and_then(Value::as_arr).unwrap();
    let phases = spans[0].get("children").and_then(Value::as_arr).unwrap();
    let compile = phases
        .iter()
        .find(|p| p.get("name").and_then(Value::as_str) == Some("compile"))
        .unwrap_or_else(|| panic!("no compile phase in {doc}"));
    compile.get("children").unwrap().clone()
}

#[test]
fn coalesced_requests_share_one_compile_span_with_distinct_ids() {
    let backend = DelayBackend {
        delay: Duration::from_millis(120),
        slow_seed: None,
    };
    let (addr, handle, join) = start_with(backend, ServeConfig::default());
    let req = CompileRequest::builtin("s27").with_seed(3).to_json();
    let first = {
        let req = req.clone();
        thread::spawn(move || {
            raw_roundtrip(
                addr,
                "POST",
                "/compile",
                "X-Ppet-Request-Id: co-a\r\n",
                &req,
            )
        })
    };
    // Let the first request reach the backend, then send its twin.
    thread::sleep(Duration::from_millis(40));
    let second = raw_roundtrip(
        addr,
        "POST",
        "/compile",
        "X-Ppet-Request-Id: co-b\r\n",
        &req,
    );
    let first = first.join().unwrap();
    assert!(first.starts_with("HTTP/1.1 200"), "{first}");
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert_eq!(
        header_value(&first, REQUEST_ID_HEADER).as_deref(),
        Some("co-a")
    );
    assert_eq!(
        header_value(&second, REQUEST_ID_HEADER).as_deref(),
        Some("co-b")
    );

    let (_, doc_a) = roundtrip(addr, "GET", "/debug/trace/co-a", "");
    let (_, doc_b) = roundtrip(addr, "GET", "/debug/trace/co-b", "");
    // Distinct request traces, one physical compile: both documents
    // graft the *same* backend span tree, wall clocks and all.
    assert_ne!(doc_a, doc_b);
    assert_eq!(
        compile_spans(&doc_a),
        compile_spans(&doc_b),
        "coalesced requests must share the compile span tree"
    );
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert!(metrics.contains("serve_coalesced 1\n"), "{metrics}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn the_trace_ring_evicts_oldest_first_but_never_slow_pinned_entries() {
    let backend = DelayBackend {
        delay: Duration::from_millis(80),
        slow_seed: Some(0),
    };
    let config = ServeConfig {
        trace_ring: 3,
        slow_ms: Some(50),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start_with(backend, config);
    let compile = |id: &str, seed: u64| {
        let req = CompileRequest::builtin("s27").with_seed(seed).to_json();
        let response = raw_roundtrip(
            addr,
            "POST",
            "/compile",
            &format!("X-Ppet-Request-Id: {id}\r\n"),
            &req,
        );
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    };
    compile("slow-1", 0); // ~80 ms ≥ slow_ms → pinned
    for seed in 1..=4 {
        compile(&format!("fast-{seed}"), seed);
    }

    let (_, summary) = roundtrip(addr, "GET", "/debug/requests", "");
    assert!(summary.contains("\"id\":\"slow-1\""), "{summary}");
    assert!(summary.contains("\"pinned\":true"), "{summary}");
    // Capacity 3: the pinned slow entry plus the two newest fast ones.
    assert!(summary.contains("\"id\":\"fast-4\""), "{summary}");
    assert!(summary.contains("\"id\":\"fast-3\""), "{summary}");
    assert!(!summary.contains("\"id\":\"fast-1\""), "{summary}");
    assert!(!summary.contains("\"id\":\"fast-2\""), "{summary}");
    let (status, doc) = roundtrip(addr, "GET", "/debug/trace/slow-1", "");
    assert_eq!(status, 200, "pinned trace must stay queryable: {doc}");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_and_stops_answering() {
    let (addr, handle, join) = start(ServeConfig::default());
    let (status, _) = roundtrip(
        addr,
        "POST",
        "/compile",
        &CompileRequest::builtin("s27").to_json(),
    );
    assert_eq!(status, 200);
    handle.shutdown();
    join.join().unwrap();
    // After run() returns the listener is gone: a fresh connection is
    // refused or answered with nothing.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            assert_eq!(s.read_to_string(&mut out).unwrap_or(0), 0);
        }
    }
}
