#!/usr/bin/env sh
# Offline CI gate: toolchain pin, formatting, lints, documentation, the
# full test suite under both sequential and maximally parallel execution,
# a manifest-parity check proving the worker count never leaks into
# results, and the independent re-audit of the golden regression corpus.
# Run from the repository root.
#
# The golden corpus is re-blessed (after an *intentional* algorithm
# change) with `scripts/golden.sh --bless`; see that script's header.
set -eu

cd "$(dirname "$0")/.."

echo "==> toolchain: rustc 1.95.0 (pinned)"
# rust-toolchain.toml pins the stable channel; this asserts the exact
# version the repository is developed and gated against.
rustc --version | grep -q '^rustc 1\.95\.0' || {
    echo "ci: expected rustc 1.95.0, got: $(rustc --version)" >&2
    exit 1
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> algorithm crates stay tracer-free (flow, partition, sim)"
# Phase counters are returned in the algorithms' result structs and
# recorded once, by the pipeline (ppet-core); a ppet-trace dependency here
# would bring back a second place to name them.
deps=$(cargo tree --offline -e normal -p ppet-flow -p ppet-partition -p ppet-sim)
case "$deps" in
*ppet-trace*)
    echo "ci: ppet-flow, ppet-partition or ppet-sim depends on ppet-trace" >&2
    exit 1
    ;;
esac

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --no-deps --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "==> cargo test (PPET_JOBS=1)"
PPET_JOBS=1 cargo test -q

echo "==> cargo test (PPET_JOBS=max)"
PPET_JOBS=max cargo test -q

echo "==> release-profile input validation (Dijkstra NaN/negative rejection)"
# The rejection is a release-mode bug class by construction: it used to be
# a debug_assert!, so only a release-profile run proves it is always on.
cargo test -q --release -p ppet-graph --lib rejected

echo "==> release-profile JSON decoder (surrogate escapes, linear-time strings)"
# A high surrogate before a non-low escape wrapped silently in release
# (it panicked only in debug), so only a release-profile run proves the fix.
cargo test -q --release -p ppet-trace --lib json

echo "==> manifest parity: PPET_JOBS=1 vs PPET_JOBS=max"
scripts/parity.sh

echo "==> audit golden corpus"
scripts/golden.sh --check

echo "==> recordings: recorded/*.txt regenerate (small rows, CPU column masked)"
scripts/recordings.sh --check

echo "==> sched: golden schedules rebuild deterministically, pareto monotone"
scripts/sched_check.sh

echo "==> perf gate: saturation and cut-realizer kernels vs recorded floors"
scripts/perf_gate.sh

echo "==> ppet-bench unit tests (perf-gate floor round-trip)"
# ppet-bench is outside the default members, so `cargo test` above
# never runs its library tests.
cargo test -q -p ppet-bench --lib

echo "==> serve smoke: compile service round-trip, cache hit, drain"
scripts/serve_smoke.sh

echo "==> metrics lint: Prometheus exposition structure"
scripts/metrics_lint.sh

echo "==> cluster smoke: shard loss under load, zero recompiles"
scripts/cluster_smoke.sh

echo "==> metrics lint (cluster): aggregated router exposition"
scripts/metrics_lint.sh --cluster

echo "==> store: crash recovery + eviction + dedup-ranking invariants"
cargo test -q -p ppet-store --test recovery --test eviction --test dedup
scripts/store_smoke.sh

echo "==> dedup: delta-ratio gate + family and replay determinism"
scripts/dedup_check.sh

echo "==> ci: all green"
