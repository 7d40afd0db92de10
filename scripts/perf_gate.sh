#!/usr/bin/env sh
# Perf-regression gate for the compiler's hot kernels: saturation
# (`Saturate_Network`) and the retiming cut realizer (`cost_retime`).
#
#   scripts/perf_gate.sh           build the release bench harness and fail
#                                  if the fresh optimized median on any gate
#                                  circuit is more than the tolerance (1.3x,
#                                  recorded in each floor file) slower than
#                                  the checked-in floor
#   scripts/perf_gate.sh --bless   re-measure and overwrite both floors with
#                                  each circuit's median over 5 whole runs
#                                  (run after an intentional perf-relevant
#                                  change on the reference machine, then
#                                  commit)
#
# The floors live in recorded/BENCH_saturate.json (schema
# ppet-bench-saturate/v1, s1423 and s510) and recorded/BENCH_retime.json
# (schema ppet-bench-retime/v1, the golden-config cut sets of s641 and
# s713). Only the `optimized_ns` column gates; the reference column
# documents what the production engine is measured against. The two
# engines are timed in interleaved pairs, and each verdict also prints
# the median per-pair reference/optimized ratio. Before any
# timing each kernel asserts its engine is result-identical to the
# retained reference, so a "fast but wrong" engine can never pass. Run
# from the repository root. Fully offline.
set -eu

cd "$(dirname "$0")/.."

KERNELS="saturate retime"

echo "==> cargo build --release -p ppet-bench --bin saturate --bin retime"
cargo build -q --release -p ppet-bench --bin saturate --bin retime

case "${1:-}" in
    "")
        for kernel in $KERNELS; do
            echo "==> perf gate: $kernel"
            "target/release/$kernel" --gate "recorded/BENCH_$kernel.json"
        done
        ;;
    --bless)
        for kernel in $KERNELS; do
            "target/release/$kernel" --bless "recorded/BENCH_$kernel.json"
        done
        echo "perf_gate: blessed recorded/BENCH_{saturate,retime}.json — review and commit the diff"
        ;;
    *)
        echo "usage: scripts/perf_gate.sh [--bless]" >&2
        exit 2
        ;;
esac
