#!/usr/bin/env sh
# Smoke test of `merced serve`: start the release binary on an ephemeral
# port, compile a builtin twice, assert the repeat was served from the
# content-addressed cache (via /metrics and `merced stat --json`), then
# drain with POST /shutdown and require a clean exit. Shared by
# scripts/ci.sh and the workflow so the two entry points cannot drift.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p ppet-core --bin merced

out="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$out"
}
trap cleanup EXIT INT TERM

target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/stdout" &
pid=$!

# The first stdout line announces the actually-bound address.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^merced serve listening on //p' "$out/stdout")"
    [ -n "$addr" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve_smoke: server did not announce an address" >&2
    exit 1
fi

python3 - "$addr" <<'EOF'
import json, socket, subprocess, sys

host, port = sys.argv[1].rsplit(":", 1)

def request(method, path, body=""):
    with socket.create_connection((host, int(port)), timeout=60) as s:
        payload = body.encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: smoke\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        s.sendall(head.encode() + payload)
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    header, _, body = data.partition(b"\r\n\r\n")
    return int(header.split()[1]), body.decode()

status, health = request("GET", "/healthz")
assert (status, health) == (200, "ok\n"), (status, health)

req = json.dumps({"schema": "ppet-serve/v1", "builtin": "s27", "seed": 7})
status, first = request("POST", "/compile", req)
assert status == 200, (status, first)
assert '"schema": "ppet-trace/v1"' in first, first[:200]

status, second = request("POST", "/compile", req)
assert status == 200, (status, second)
assert second == first, "cache hit must be byte-identical"

status, metrics = request("GET", "/metrics")
values = dict(line.rsplit(" ", 1)
              for line in metrics.strip().splitlines()
              if not line.startswith("#"))
assert values["serve_cache_hits"] == "1", metrics
assert values["serve_cache_misses"] == "1", metrics
assert values["serve_requests"] == "2", metrics

stat = subprocess.run(["target/release/merced", "stat", sys.argv[1], "--json"],
                      capture_output=True, text=True, check=True)
summary = json.loads(stat.stdout)
assert summary["counters"]["serve_requests"] == 2, stat.stdout

status, err = request("POST", "/compile", '{"schema":"ppet-serve/v1"}')
assert status == 400 and '"ppet-error/v1"' in err, (status, err)

status, drain = request("POST", "/shutdown")
assert (status, drain) == (202, "draining\n"), (status, drain)
print("serve_smoke: compile + cache hit + structured error + drain OK")
EOF

# The drained server must exit on its own, cleanly.
wait "$pid"
pid=""
echo "serve_smoke: clean exit"
