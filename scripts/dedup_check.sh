#!/usr/bin/env sh
# Dedup engine gate, two halves:
#
#  1. The 20-variant inverter-chain manifest bench (real compile output
#     through `merced serve`) must dedup to a delta ratio under 0.1 —
#     the super-feature index has to *find* the near-duplicates and the
#     varint delta encoder has to make them cheap. The bench fixes every
#     phase's `wall_ns` at 0 before a manifest is stored, so the ratio is
#     the same on every run.
#  2. The 1000-variant synthetic stress corpus must stay within families
#     and be deterministic: `dedup_bench --gate` fails if any delta's
#     base belongs to another family, then replays the log and re-runs
#     the identical put sequence into a mirror directory, failing unless
#     base choice, the super-feature table size, the chain-depth
#     histogram and live bytes reproduce exactly (and its own delta
#     ratio also clears 0.1).
#
# Both benches must also reproduce their recordings byte for byte:
# every field of recorded/BENCH_store.json and recorded/BENCH_dedup.json
# except the timing ones (`*_ns*`, and store_bench's `cold_over_warm`,
# a ratio of two timings) must equal a fresh run. dedup_bench's
# `log_fnv` digests every byte its stores wrote, including a
# manifest-shaped corpus whose windows recur more often than the encoder
# tries per hash, so an encoder or base-choice change that moves a
# stored byte fails here.
#
# Run from the repository root. Shared by scripts/ci.sh and the workflow.
set -eu

cd "$(dirname "$0")/.."

cargo build --release -q -p ppet-bench --bin store_bench --bin dedup_bench

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT INT TERM

echo "dedup_check: 20-variant manifest bench"
target/release/store_bench "$out/store.json" >/dev/null
ratio="$(sed -n 's/.*"delta_ratio": \([0-9.]*\).*/\1/p' "$out/store.json")"
deltas="$(sed -n 's/.*"delta_entries": \([0-9]*\).*/\1/p' "$out/store.json")"
[ -n "$ratio" ] || { echo "dedup_check: no delta_ratio in bench output" >&2; exit 1; }
if [ "$deltas" -eq 0 ]; then
    echo "dedup_check: manifest bench produced no delta entries" >&2
    exit 1
fi
# delta_ratio < 0.1, compared without floating-point shell arithmetic.
if ! awk -v r="$ratio" 'BEGIN { exit !(r < 0.1) }'; then
    echo "dedup_check: manifest delta_ratio $ratio breaches the 0.1 gate" >&2
    exit 1
fi
echo "dedup_check: manifest delta_ratio $ratio < 0.1 ($deltas deltas) OK"

echo "dedup_check: 1000-variant family + determinism gate"
target/release/dedup_bench "$out/dedup.json" --gate >/dev/null

# The deterministic lines of a bench result: all but the timing fields.
deterministic() {
    grep -v -e '_ns' -e '"cold_over_warm"' "$1"
}
for bench in store dedup; do
    deterministic "recorded/BENCH_$bench.json" >"$out/recorded"
    deterministic "$out/$bench.json" >"$out/fresh"
    if ! (cd "$out" && diff -u recorded fresh); then
        echo "dedup_check: ${bench}_bench moved a deterministic field of recorded/BENCH_$bench.json" >&2
        exit 1
    fi
    echo "dedup_check: ${bench}_bench matches recorded/BENCH_$bench.json (timings masked) OK"
done

echo "dedup_check: all green"
