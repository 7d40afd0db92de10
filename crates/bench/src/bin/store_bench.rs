//! Measures the persistent artifact store end-to-end: cold compiles
//! through a `merced serve` instance backed by a store directory, then a
//! **restart** — a second server over the same directory answering the
//! same requests from disk without recompiling. Writes the results to
//! `BENCH_store.json`.
//!
//! The interesting numbers are the cold/warm ratio (a warm answer skips
//! the entire pipeline and pays log replay + CRC + audit cross-check
//! instead) and the delta ratio (stored bytes over logical bytes — the
//! workload is twenty near-identical inverter-chain circuits whose run
//! manifests differ only in a few counters, so similarity-based delta
//! encoding should compress them well below raw). The backend sets every
//! phase's `wall_ns` to 0 before a manifest reaches the store: real wall
//! times differ in every manifest and moved the delta ratio from run to
//! run, while with them fixed the stored bytes, and so the ratio, are the
//! same on every run.
//!
//! Usage: `store_bench [out.json]` (default `BENCH_store.json`).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use ppet_core::{MercedBackend, MercedConfig};
use ppet_serve::{
    BackendError, CompileBackend, CompileRequest, NormalizedRequest, ServeConfig, Server,
};
use ppet_store::{Store, StoreConfig};
use ppet_trace::RunManifest;

const VARIANTS: u32 = 20;

/// An inverter chain of `length` NOTs behind a DFF: structurally almost
/// identical across lengths, so the run manifests are near-duplicates —
/// exactly the workload delta encoding exists for.
fn chain_bench(length: u32) -> String {
    let mut src = format!("# inverter chain, length {length}\nINPUT(a)\nOUTPUT(z)\n");
    src.push_str("n0 = NOT(a)\n");
    for i in 1..length {
        src.push_str(&format!("n{i} = NOT(n{})\n", i - 1));
    }
    src.push_str(&format!("z = DFF(n{})\n", length - 1));
    src
}

/// The Merced backend with every phase's `wall_ns` set to 0 in the
/// manifests it compiles, counting its compiles.
#[derive(Clone)]
struct FixedClock {
    inner: MercedBackend,
    compiles: Arc<AtomicU64>,
}

impl CompileBackend for FixedClock {
    fn normalize(&self, request: &CompileRequest) -> Result<NormalizedRequest, BackendError> {
        self.inner.normalize(request)
    }

    fn compile(&self, normalized: &NormalizedRequest) -> Result<String, BackendError> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        let mut manifest = RunManifest::from_json(&self.inner.compile(normalized)?)
            .map_err(|e| BackendError::new("manifest", e.to_string()))?;
        for phase in &mut manifest.phases {
            phase.wall_ns = 0;
        }
        Ok(manifest.to_json())
    }

    fn verify_stored(&self, stored: &str) -> Result<(), BackendError> {
        self.inner.verify_stored(stored)
    }
}

fn request(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /compile HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "unexpected response: {}",
        response.lines().next().unwrap_or("")
    );
    let split = response.find("\r\n\r\n").expect("header/body split");
    response.split_off(split + 4)
}

fn serve_round(
    backend: FixedClock,
    store_dir: &Path,
    bodies: &[String],
) -> (Vec<String>, Vec<u64>) {
    let config = ServeConfig {
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", backend, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let mut answers = Vec::new();
    let mut latencies_ns = Vec::new();
    for body in bodies {
        let start = Instant::now();
        answers.push(request(addr, body));
        latencies_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    handle.shutdown();
    join.join().expect("server thread");
    (answers, latencies_ns)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    let store_dir = std::env::temp_dir().join(format!("ppet-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let bodies: Vec<String> = (0..VARIANTS)
        .map(|i| {
            CompileRequest::bench(&chain_bench(400 + i))
                .with_seed(7)
                .to_json()
        })
        .collect();

    // Round 1: cold — every request runs the full pipeline and is
    // written through to the store. Round 2: a fresh process-equivalent
    // (new server, same directory) — every request must come back from
    // disk byte-identical, without a single compile.
    let backend = FixedClock {
        inner: MercedBackend::new(MercedConfig::default()),
        compiles: Arc::default(),
    };
    let (cold_answers, cold_ns) = serve_round(backend.clone(), &store_dir, &bodies);
    let (warm_answers, warm_ns) = serve_round(backend.clone(), &store_dir, &bodies);
    assert_eq!(
        cold_answers, warm_answers,
        "restart must answer byte-identically from the store"
    );
    assert_eq!(
        backend.compiles.load(Ordering::SeqCst),
        u64::from(VARIANTS),
        "the restarted server must answer from disk, not recompile"
    );

    let stats = Store::open(&store_dir, StoreConfig::default())
        .expect("reopen store")
        .stats();
    assert_eq!(stats.entries as u32, VARIANTS, "one artifact per variant");
    let _ = std::fs::remove_dir_all(&store_dir);

    let mean = |ns: &[u64]| ns.iter().sum::<u64>() / ns.len().max(1) as u64;
    let min = |ns: &[u64]| ns.iter().copied().min().unwrap_or(0);
    let cold_mean = mean(&cold_ns);
    let warm_mean = mean(&warm_ns);

    let json = format!(
        "{{\n  \"schema\": \"ppet-bench-store/v1\",\n  \"variants\": {VARIANTS},\n  \
         \"cold_ns_mean\": {cold_mean},\n  \"cold_ns_min\": {},\n  \
         \"warm_ns_mean\": {warm_mean},\n  \"warm_ns_min\": {},\n  \
         \"cold_over_warm\": {:.1},\n  \"entries\": {},\n  \
         \"delta_entries\": {},\n  \"delta_ratio\": {:.3},\n  \
         \"live_bytes\": {},\n  \"logical_bytes\": {}\n}}\n",
        min(&cold_ns),
        min(&warm_ns),
        cold_mean as f64 / warm_mean.max(1) as f64,
        stats.entries,
        stats.delta_entries,
        stats.delta_ratio,
        stats.live_bytes,
        stats.logical_bytes,
    );
    std::fs::write(&out_path, &json).expect("write output");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
