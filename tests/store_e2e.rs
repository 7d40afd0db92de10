//! End-to-end tests of the persistent artifact store under the real
//! Merced backend: a served manifest must survive a server restart
//! byte-for-byte (wall-clock entry included — proof nothing recompiled),
//! the disk hit must be observable in `/metrics`, and a stored body that
//! fails the audit cross-check, or that an older engine epoch computed,
//! must be quarantined and recompiled rather than served.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use ppet::cluster::proxy;
use ppet::core::{MercedBackend, MercedConfig};
use ppet::serve::{CompileRequest, ServeConfig, Server, ServerHandle};
use ppet::store::{Store, StoreConfig};
use ppet::trace::ENGINE_EPOCH;

fn start(store_dir: PathBuf) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
    let backend = MercedBackend::new(MercedConfig::default().with_cbit_length(4));
    let config = ServeConfig {
        store_dir: Some(store_dir),
        ..ServeConfig::default()
    };
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

fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppet-store-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn restart_answers_byte_identically_from_disk() {
    let dir = temp_dir("restart");
    let req = CompileRequest::builtin("s27").with_seed(7).to_json();

    let (addr, handle, join) = start(dir.clone());
    let (status, first) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{first}");
    handle.shutdown();
    join.join().unwrap();

    // A fresh server over the same directory must answer the identical
    // request from disk: the body is byte-identical *including* the
    // wall-clock entry, which a recompile would have restamped.
    let (addr, handle, join) = start(dir.clone());
    let (status, second) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first, second);

    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "store_hits "), 1, "{metrics}");
    assert_eq!(metric(&metrics, "serve_cache_misses "), 0, "{metrics}");

    // A repeat within the same process is a hot-tier hit, not a second
    // disk read.
    let (_, third) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(first, third);
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "store_hits "), 1, "{metrics}");
    assert!(metric(&metrics, "serve_cache_hits ") >= 1, "{metrics}");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_stored_manifest_is_quarantined_and_recompiled() {
    let dir = temp_dir("corrupt");
    let req = CompileRequest::builtin("s27").with_seed(3).to_json();

    let (addr, handle, join) = start(dir.clone());
    let (status, first) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{first}");
    handle.shutdown();
    join.join().unwrap();

    // Sabotage the stored body *semantically*: valid CRC, valid JSON,
    // but totals that no longer add up. The store's checksum layer
    // cannot catch this — only the audit cross-check on read can.
    {
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let keys = store.keys();
        assert_eq!(keys.len(), 1);
        let body = String::from_utf8(store.get(keys[0]).unwrap()).unwrap();
        let tampered = tamper_total(&body);
        assert_ne!(body, tampered, "tamper target must exist");
        store.quarantine(keys[0]);
        store.put(keys[0], tampered.as_bytes()).unwrap();
        store.flush().unwrap();
    }

    let (addr, handle, join) = start(dir.clone());
    let (status, recompiled) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{recompiled}");
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "store_quarantined "), 1, "{metrics}");
    assert_eq!(metric(&metrics, "serve_cache_misses "), 1, "{metrics}");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_previous_engine_epoch_is_quarantined_and_recompiled() {
    let dir = temp_dir("epoch");
    let req = CompileRequest::builtin("s27").with_seed(5).to_json();
    let current = format!("\"engine\": {ENGINE_EPOCH},");
    let previous = format!("\"engine\": {},", ENGINE_EPOCH - 1);

    let (addr, handle, join) = start(dir.clone());
    let (status, first) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains(&current), "{first}");
    handle.shutdown();
    join.join().unwrap();

    // Rewrite the entry as the engine one epoch back recorded it: a
    // well-formed manifest whose totals add up, under the key this build
    // looks up. A rolling upgrade leaves such entries: a router already on
    // the new epoch proxies a request to a shard still on the old engine
    // and replicates its answer, under the new key, to a shard that is
    // upgraded afterwards.
    {
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let keys = store.keys();
        assert_eq!(keys.len(), 1);
        let body = String::from_utf8(store.get(keys[0]).unwrap()).unwrap();
        let older = body.replacen(&current, &previous, 1);
        assert_ne!(body, older, "epoch line must exist");
        store.quarantine(keys[0]);
        store.put(keys[0], older.as_bytes()).unwrap();
        store.flush().unwrap();
    }

    let (addr, handle, join) = start(dir.clone());
    let (status, fresh) = roundtrip(addr, "POST", "/compile", &req);
    assert_eq!(status, 200, "{fresh}");
    assert!(fresh.contains(&current), "{fresh}");
    let (_, metrics) = roundtrip(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "store_quarantined "), 1, "{metrics}");
    assert_eq!(metric(&metrics, "serve_cache_misses "), 1, "{metrics}");
    // The quarantined read served nothing: a miss, not a hit.
    assert_eq!(metric(&metrics, "store_hits "), 0, "{metrics}");
    assert_eq!(metric(&metrics, "store_misses "), 1, "{metrics}");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumps the first counter value inside the manifest's `"totals"` block
/// by one, breaking the recorded-vs-recomputed totals agreement.
fn tamper_total(manifest: &str) -> String {
    let mut out = Vec::new();
    let mut in_totals = false;
    let mut done = false;
    for line in manifest.lines() {
        if line.contains("\"totals\"") {
            in_totals = true;
        } else if in_totals && !done {
            if let Some(colon) = line.rfind(':') {
                let (head, tail) = line.split_at(colon + 1);
                let digits: String = tail.chars().filter(char::is_ascii_digit).collect();
                if let Ok(n) = digits.parse::<u64>() {
                    let comma = if tail.trim_end().ends_with(',') {
                        ","
                    } else {
                        ""
                    };
                    out.push(format!("{head} {}{comma}", n + 1));
                    done = true;
                    continue;
                }
            }
        }
        out.push(line.to_owned());
    }
    assert!(done, "no totals counter found to tamper with:\n{manifest}");
    out.join("\n")
}
