#!/usr/bin/env sh
# Lint of the /metrics Prometheus text exposition: start the release
# server, drive a few compiles so every outcome-labelled series exists,
# scrape /metrics, and validate the exposition structurally — every
# sample belongs to a family with # HELP and # TYPE lines, histogram
# bucket series are cumulative (monotone non-decreasing in le), and the
# +Inf bucket of every series equals its _count. With --cluster the
# scraped endpoint is instead a `merced cluster` router fronting two
# shards, so the *aggregated* exposition (backend-labelled series merged
# with cluster rollups) passes the same structural checks. Shared by
# scripts/ci.sh and the workflow so the two entry points cannot drift.
set -eu

cd "$(dirname "$0")/.."

mode="serve"
[ "${1:-}" = "--cluster" ] && mode="cluster"

cargo build --release -q -p ppet-core --bin merced

out="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$out"
}
trap cleanup EXIT INT TERM

await_addr() { # file what -> prints addr
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
    echo "metrics_lint: no address announced in $1" >&2
    return 1
}

extra_addrs=""
if [ "$mode" = "cluster" ]; then
    target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/b1" &
    pids="$pids $!"
    target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/b2" &
    pids="$pids $!"
    b1="$(await_addr "$out/b1" serve)"
    b2="$(await_addr "$out/b2" serve)"
    target/release/merced cluster --addr 127.0.0.1:0 \
        --backend "$b1" --backend "$b2" --quiet >"$out/stdout" &
    pids="$pids $!"
    addr="$(await_addr "$out/stdout" cluster)"
    extra_addrs="$b1 $b2"
else
    target/release/merced serve --addr 127.0.0.1:0 --quiet >"$out/stdout" &
    pids="$pids $!"
    addr="$(await_addr "$out/stdout" serve)"
fi

python3 - "$addr" "$mode" <<'EOF'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)

def request(method, path, body=""):
    with socket.create_connection((host, int(port)), timeout=60) as s:
        payload = body.encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: lint\r\n"
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

# Mint a hit, a miss, and an error so labelled series exist.
req = json.dumps({"schema": "ppet-serve/v1", "builtin": "s27", "seed": 7})
assert request("POST", "/compile", req)[0] == 200
assert request("POST", "/compile", req)[0] == 200
assert request("POST", "/compile", "{nope")[0] == 400

status, text = request("GET", "/metrics")
assert status == 200, status

helps, types, samples = set(), {}, []
for line in text.splitlines():
    if not line.strip():
        continue
    if line.startswith("# HELP "):
        helps.add(line.split()[2])
    elif line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        types[name] = kind
    elif line.startswith("#"):
        continue
    else:
        series, value = line.rsplit(" ", 1)
        samples.append((series, value))

assert samples, "exposition is empty"

def family(series):
    base = series.split("{", 1)[0]
    if types.get(base) == "histogram":
        return base
    for suffix in ("_bucket", "_sum", "_count"):
        if base.endswith(suffix) and types.get(base[: -len(suffix)]) == "histogram":
            return base[: -len(suffix)]
    return base

buckets, counts = {}, {}
for series, value in samples:
    base = family(series)
    # 1. Every sample's family carries TYPE and HELP.
    assert base in types, f"sample without # TYPE: {series}"
    assert base in helps, f"sample without # HELP: {series}"
    if types[base] != "histogram":
        float(value)
        continue
    name = series.split("{", 1)[0]
    labels = series[len(name):].strip("{}")
    pairs = [p for p in labels.split(",") if p and not p.startswith("le=")]
    key = (base, ",".join(pairs))
    if name.endswith("_bucket"):
        le = [p for p in labels.split(",") if p.startswith("le=")]
        assert le, f"bucket without le label: {series}"
        le = le[0].split("=", 1)[1].strip('"')
        buckets.setdefault(key, []).append((le, int(value)))
    elif name.endswith("_count"):
        counts[key] = int(value)

assert buckets, "no histogram series in the exposition"
for key, series in buckets.items():
    finite = [(float(le), v) for le, v in series if le != "+Inf"]
    inf = [v for le, v in series if le == "+Inf"]
    # 2. Cumulative buckets are monotone non-decreasing in le.
    by_le = sorted(finite)
    values = [v for _, v in by_le]
    assert values == sorted(values), f"non-monotone buckets in {key}: {series}"
    # 3. The +Inf bucket exists and equals _count.
    assert len(inf) == 1, f"missing +Inf bucket in {key}"
    assert key in counts, f"missing _count for {key}"
    assert inf[0] == counts[key], f"+Inf != _count in {key}: {inf[0]} vs {counts[key]}"
    if finite:
        assert values[-1] <= inf[0], f"finite buckets exceed +Inf in {key}"

labelled = [k for k in buckets if "outcome=" in k[1]]
assert labelled, "expected outcome-labelled latency histograms"
if sys.argv[2] == "cluster":
    # The aggregated exposition carries both the per-backend labelled
    # series and the unlabelled cluster-wide rollups, under one family
    # header each.
    backend_series = [s for s, _ in samples if 'backend="' in s]
    assert backend_series, "expected backend-labelled series"
    rollups = [s for s, _ in samples
               if s.split("{", 1)[0].startswith("serve_") and "{" not in s]
    assert rollups, "expected unlabelled serve rollups"
    assert any(s.startswith("cluster_") for s, _ in samples), \
        "expected cluster_* router series"
    assert any(s.startswith('cluster_upstream_connects{backend="')
               for s, _ in samples), "expected per-backend upstream connects"
print(f"metrics_lint[{sys.argv[2]}]: {len(samples)} samples, "
      f"{len(buckets)} histogram series, all structural checks OK")
EOF

request_shutdown() {
    python3 - "$1" <<'EOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=60) as s:
    s.sendall(b"POST /shutdown HTTP/1.1\r\nHost: lint\r\nContent-Length: 0\r\n\r\n")
    while s.recv(65536):
        pass
EOF
}
for a in "$addr" $extra_addrs; do
    request_shutdown "$a"
done
for p in $pids; do
    wait "$p"
done
pids=""
echo "metrics_lint: clean exit"
