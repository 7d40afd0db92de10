#!/usr/bin/env sh
# Manifest-parity check: compile the same netlist at 1 and max workers
# (with `--audit`, so the audit section is covered too) and diff the JSON
# manifests. Only wall-clock fields and the informational `jobs` config
# entry may differ between worker counts; everything else — counters,
# config, result claims, audit verdicts, the retiming lag witness — must
# be byte-identical. Run from the repository root (ci.sh stage; also a
# standalone workflow step).
set -eu

cd "$(dirname "$0")/.."

cargo build -q --release -p ppet-core --bin merced
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/s27.bench" <<'BENCH'
# s27 (ISCAS89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
BENCH

strip_varying() {
    grep -v '"wall_ns"' "$1" | grep -v '"jobs"'
}

PPET_JOBS=1 ./target/release/merced batch "$tmp/s27.bench" \
    --lk 4 --audit --quiet --trace-json "$tmp/seq" > /dev/null
PPET_JOBS=max ./target/release/merced batch "$tmp/s27.bench" \
    --lk 4 --audit --quiet --trace-json "$tmp/par" > /dev/null
for name in s27.json batch.json; do
    strip_varying "$tmp/seq/$name" > "$tmp/a"
    strip_varying "$tmp/par/$name" > "$tmp/b"
    if ! diff -u "$tmp/a" "$tmp/b"; then
        echo "parity: $name differs between PPET_JOBS=1 and PPET_JOBS=max" >&2
        exit 1
    fi
done

# The diff above only proves parity for counters that are actually in the
# manifests. The saturation counters (CSR shape and search work) are the
# ones a batch worker could drop or mis-merge, so require their presence
# explicitly — silently dropping one from the manifest must fail here, not
# pass vacuously.
for counter in flow.csr.nodes flow.csr.branches \
               flow.heap_pops flow.nodes_settled flow.relaxations; do
    for side in seq par; do
        grep -q "\"$counter\"" "$tmp/$side/s27.json" || {
            echo "parity: counter $counter missing from the $side manifest" >&2
            exit 1
        }
    done
done

# Same guarantee for the power-schedule sections: the schedule is a pure
# function of the partitions and the budget, so its manifest entries must
# be present and (by the diff above) byte-identical at any worker count.
for entry in power_budget sched.budget_cdf sched.steps sched.total_cycles \
             sched.peak_cdf sched.step.0; do
    for side in seq par; do
        grep -q "\"$entry\"" "$tmp/$side/s27.json" || {
            echo "parity: schedule entry $entry missing from the $side manifest" >&2
            exit 1
        }
    done
done
echo "manifests identical modulo wall_ns/jobs (saturation + schedule covered)"
