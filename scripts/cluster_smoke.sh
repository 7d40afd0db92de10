#!/usr/bin/env sh
# Smoke test of `merced cluster`: start three shards and a router with
# --replication 2, compile six distinct keys through the router, wait for
# replication to land, re-request them sequentially and assert the router
# reused its pooled shard connections (cluster_upstream_connects), SIGKILL
# the shard that served the most of them while a burst of re-requests is
# in flight, and assert zero
# failed client requests and zero recompiles of already-stored keys (via
# the per-backend serve_cache_misses series in the router's aggregated
# /metrics). Structured errors must keep the ppet-error/v1 shape
# throughout, and `merced stat <router>` must succeed against the
# aggregated exposition. Shared by scripts/ci.sh and the
# workflow so the two entry points cannot drift.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p ppet-core --bin merced

out="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$out"
}
trap cleanup EXIT INT TERM

await_addr() { # file prefix -> prints addr
    i=0
    while [ $i -lt 100 ]; do
        a="$(sed -n "s/^merced $2 listening on //p" "$1")"
        if [ -n "$a" ]; then
            printf '%s' "$a"
            return 0
        fi
        sleep 0.1
        i=$((i + 1))
    done
    echo "cluster_smoke: no address announced in $1" >&2
    return 1
}

target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/b1" &
pid1=$!
target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/b2" &
pid2=$!
target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/b3" &
pid3=$!
pids="$pid1 $pid2 $pid3"

b1="$(await_addr "$out/b1" serve)"
b2="$(await_addr "$out/b2" serve)"
b3="$(await_addr "$out/b3" serve)"

target/release/merced cluster --addr 127.0.0.1:0 \
    --backend "$b1" --backend "$b2" --backend "$b3" \
    --replication 2 --probe-ms 100 --quiet >"$out/router" &
router_pid=$!
pids="$pids $router_pid"

addr="$(await_addr "$out/router" cluster)"

python3 - "$addr" "$b1" "$b2" "$b3" "$pid1" "$pid2" "$pid3" "$out/survivors" <<'EOF'
import json, os, signal, socket, subprocess, sys, threading, time

router, b1, b2, b3 = sys.argv[1:5]
pid_of = dict(zip((b1, b2, b3), map(int, sys.argv[5:8])))
survivors_file = sys.argv[8]

def request(addr, method, path, body=""):
    host, port = addr.rsplit(":", 1)
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

def metric(text, series):
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0

status, health = request(router, "GET", "/healthz")
assert (status, health) == (200, "ok\n"), (status, health)

# Structured errors keep the ppet-error/v1 shape at the router.
status, err = request(router, "POST", "/compile", '{"schema":"ppet-serve/v1"}')
assert status == 400, (status, err)
assert json.loads(err)["schema"] == "ppet-error/v1", err

# Phase 1: six distinct keys through the router.
SEEDS = 6
def req_body(seed):
    return json.dumps({"schema": "ppet-serve/v1", "builtin": "s27", "seed": seed})
first = {}
for seed in range(SEEDS):
    status, body = request(router, "POST", "/compile", req_body(seed))
    assert status == 200, (seed, status, body)
    first[seed] = body

# Replication is asynchronous: wait until every key reached its second
# replica before pulling a shard out.
deadline = time.time() + 30
while True:
    _, metrics = request(router, "GET", "/metrics")
    if metric(metrics, "serve_replicated") >= SEEDS:
        break
    assert time.time() < deadline, f"replication never landed:\n{metrics}"
    time.sleep(0.1)

# Connection reuse: twelve sequential routed re-requests (all cache hits,
# already replicated) ride the router's pooled keep-alive connections, so
# it opens at most 2 connections per backend for them. A count, not a
# timing.
def connects(text, backend):
    return metric(text, f'cluster_upstream_connects{{backend="{backend}"}}')
_, before = request(router, "GET", "/metrics")
for i in range(2 * SEEDS):
    status, body = request(router, "POST", "/compile", req_body(i % SEEDS))
    assert status == 200 and body == first[i % SEEDS], (i, status, body[:200])
_, after = request(router, "GET", "/metrics")
assert sum(connects(after, b) for b in (b1, b2, b3)) > 0, after
for b in (b1, b2, b3):
    opened = connects(after, b) - connects(before, b)
    assert opened <= 2, f"router opened {opened} connections to {b}:\n{after}"
assert metric(after, "cluster_requests") - metric(before, "cluster_requests") == 2 * SEEDS

# The victim is the shard the router proxied the most requests to, so the
# burst below is sure to hit it: which shard is primary for which key
# follows the keys, and they change with every engine epoch.
def proxied(text, backend):
    return metric(text, f'cluster_proxied{{backend="{backend}"}}')
victim = max((b1, b2, b3), key=lambda b: proxied(after, b))
live = [b for b in (b1, b2, b3) if b != victim]
with open(survivors_file, "w") as f:
    f.write(" ".join(str(pid_of[b]) for b in live) + "\n")

# Per-backend compile work before the kill, from the aggregated
# exposition's backend-labelled series.
def misses(text, backend):
    return metric(text, f'serve_cache_misses{{backend="{backend}"}}')
_, before = request(router, "GET", "/metrics")
live_before = {b: misses(before, b) for b in live}
assert sum(misses(before, b) for b in (b1, b2, b3)) == SEEDS, before

# Phase 2: SIGKILL the victim while a burst of re-requests is in flight.
# Every request must still answer 200 with the phase-1 bytes.
results, lock = [], threading.Lock()
def rerequest(seed):
    status, body = request(router, "POST", "/compile", req_body(seed))
    with lock:
        results.append((seed, status, body))
threads = [threading.Thread(target=rerequest, args=(seed % SEEDS,))
           for seed in range(SEEDS * 3)]
for t in threads[: SEEDS]:
    t.start()
os.kill(pid_of[victim], signal.SIGKILL)
for t in threads[SEEDS:]:
    t.start()
for t in threads:
    t.join()
assert len(results) == SEEDS * 3
for seed, status, body in results:
    assert status == 200, f"failed client request for seed {seed}: {status} {body[:200]}"
    assert body == first[seed], f"seed {seed} response changed after shard loss"

# Zero recompiles: the surviving shards' miss counters are untouched
# (every re-request was a cache or replica hit).
_, after = request(router, "GET", "/metrics")
for b in live:
    assert misses(after, b) == live_before[b], \
        f"{b} recompiled after shard loss:\n{after}"
assert metric(after, "cluster_backend_down") >= 1, after
assert metric(after, "cluster_backends_up") == 2, after

# Quorum holds at 2 of 3.
status, health = request(router, "GET", "/healthz")
assert (status, health) == (200, "ok\n"), (status, health)

# `merced stat` reads the router's aggregated exposition; the router has
# no /debug/requests, which must not fail the scrape.
stat = subprocess.run(["target/release/merced", "stat", router],
                      capture_output=True, text=True)
assert stat.returncode == 0, stat.stderr
assert stat.stdout.startswith(f"merced stat {router}\n"), stat.stdout

for target in (router, *live):
    status, drain = request(target, "POST", "/shutdown")
    assert (status, drain) == (202, "draining\n"), (target, status, drain)
print("cluster_smoke: shard loss under load, zero failures, "
      "zero recompiles, structured errors OK")
EOF

# Everything except the SIGKILLed shard must exit cleanly on its own.
wait "$router_pid"
for p in $(cat "$out/survivors"); do
    wait "$p"
done
pids=""
echo "cluster_smoke: clean exit"
