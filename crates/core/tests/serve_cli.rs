//! Black-box test of the `merced serve` subcommand: spawn the real
//! binary on an ephemeral port, compile over HTTP, observe the cache in
//! `/metrics`, and shut down cleanly via `POST /shutdown` or `SIGTERM`.

use std::io::{BufRead as _, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ppet_cluster::proxy;

struct ServerProcess {
    child: Child,
    addr: String,
}

impl ServerProcess {
    fn spawn(extra_args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_merced"))
            .args(["serve", "--addr", "127.0.0.1:0", "--quiet"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn merced serve");
        // The first stdout line announces the bound address.
        let stdout = child.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read bound address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in announcement")
            .to_owned();
        assert!(
            line.contains("listening on"),
            "unexpected announcement {line:?}"
        );
        Self { child, addr }
    }

    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let timeout = Duration::from_secs(60);
        let response = proxy::request(&self.addr, method, path, &[], body, timeout, None);
        let response = response.unwrap();
        (response.status, response.body)
    }

    fn wait_for_exit(mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "merced serve did not exit after being asked to shut down"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_compiles_caches_and_drains() {
    let server = ServerProcess::spawn(&["--lk", "4"]);

    let (status, health) = server.request("GET", "/healthz", "");
    assert_eq!((status, health.as_str()), (200, "ok\n"));

    let req = r#"{"schema":"ppet-serve/v1","builtin":"s27","seed":7}"#;
    let (status, first) = server.request("POST", "/compile", req);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"schema\": \"ppet-trace/v1\""), "{first}");

    // Identical request: served from the cache, byte-for-byte.
    let (status, second) = server.request("POST", "/compile", req);
    assert_eq!(status, 200);
    assert_eq!(first, second);
    let (_, metrics) = server.request("GET", "/metrics", "");
    assert!(metrics.contains("serve_cache_hits 1\n"), "{metrics}");
    assert!(metrics.contains("serve_cache_misses 1\n"), "{metrics}");

    // Malformed request: structured error, server stays up.
    let (status, err) = server.request("POST", "/compile", "{nope");
    assert_eq!(status, 400);
    assert!(err.contains("\"schema\":\"ppet-error/v1\""), "{err}");

    let (status, drain) = server.request("POST", "/shutdown", "");
    assert_eq!((status, drain.as_str()), (202, "draining\n"));
    let exit = server.wait_for_exit();
    assert!(exit.success(), "drained exit should be clean: {exit:?}");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_cleanly() {
    let server = ServerProcess::spawn(&["--lk", "4"]);
    let (status, _) = server.request("GET", "/healthz", "");
    assert_eq!(status, 200);

    let kill = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM failed: {kill:?}");
    let exit = server.wait_for_exit();
    assert!(exit.success(), "SIGTERM exit should be clean: {exit:?}");
}

#[test]
fn removed_replicas_knob_is_rejected_except_at_one() {
    let server = ServerProcess::spawn(&["--lk", "4"]);
    let replicas_request = |r: u32| {
        format!(r#"{{"schema":"ppet-serve/v1","builtin":"s27","config":{{"replicas":{r}}}}}"#)
    };

    let (status, err) = server.request("POST", "/compile", &replicas_request(4));
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("\"schema\":\"ppet-error/v1\""), "{err}");
    assert!(err.contains("replicas knob was removed"), "{err}");

    // `replicas = 1` (what pre-removal manifests recorded) is the same
    // compile as no entry at all: same cache key, same bytes.
    let (status, one) = server.request("POST", "/compile", &replicas_request(1));
    assert_eq!(status, 200, "{one}");
    let plain = r#"{"schema":"ppet-serve/v1","builtin":"s27"}"#;
    let (status, none) = server.request("POST", "/compile", plain);
    assert_eq!(status, 200, "{none}");
    assert_eq!(one, none);
    let (_, metrics) = server.request("GET", "/metrics", "");
    assert!(metrics.contains("serve_cache_hits 1\n"), "{metrics}");
}

#[test]
fn serve_refuses_bad_invocations() {
    let out = Command::new(env!("CARGO_BIN_EXE_merced"))
        .args(["serve"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--addr"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_merced"))
        .args(["serve", "--addr", "127.0.0.1:0", "extra.bench"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no circuit inputs"), "{stderr}");
}
