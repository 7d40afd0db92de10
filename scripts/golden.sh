#!/usr/bin/env sh
# Golden regression corpus: recorded, audited run manifests that every CI
# run re-verifies from scratch.
#
#   scripts/golden.sh --check   re-audit every manifest in recorded/golden/
#                               (the CI gate; fails on any divergence)
#   scripts/golden.sh --bless   recompile the corpus and overwrite the
#                               recordings (run after an intentional
#                               algorithm change, then commit the diff)
#
# A result change (any recorded line other than `wall_ns`) must come with
# a new engine epoch (`ENGINE_EPOCH`, crates/trace/src/manifest.rs; each
# manifest records it as `"engine"`): --bless refuses a changed corpus
# whose epoch did not move, so stored answers of the old engine can never
# pass as current. The blessed `(epoch, corpus digest)` pair is committed
# in recorded/golden.epoch, and --check requires it to match the corpus.
#
# Each recording is produced by `merced --builtin <name> --audit
# --trace-json`, so it carries the full configuration, every result claim,
# and the audited retiming lag witness. `merced audit <manifest>`
# reconstructs the configuration, recompiles the builtin circuit,
# re-derives every paper invariant, cross-checks the recorded counters and
# claims against the fresh compile, and re-validates the recorded witness
# against the netlist — corrupting any lag, partition, or cost field in a
# recording makes the check fail with a named diagnostic code.
#
# Run from the repository root. Fully offline.
set -eu

cd "$(dirname "$0")/.."

GOLDEN_DIR=recorded/golden
EPOCH_FILE=recorded/golden.epoch
MERCED=target/release/merced

# The corpus: builtin circuit name + compile flags. One line per recording;
# keep it deterministic (fixed seeds, explicit l_k) and fast (< 1 s each).
corpus() {
    cat <<'EOF'
s27 --lk 4
counter8 --lk 4
johnson12 --lk 6
s510 --lk 16
s641 --lk 16 --policy solver
EOF
}

# The engine epoch a directory of recordings was computed by: the one
# `"engine"` value all of them share (0 for recordings that predate
# epochs). Fails if they disagree.
epoch_of() {
    epochs="$(corpus | while read -r name _flags; do
        e="$(sed -n 's/^  "engine": \([0-9]*\),$/\1/p' "$1/$name.json")"
        echo "${e:-0}"
    done | sort -u)"
    if [ "$(echo "$epochs" | wc -l | tr -d ' ')" -ne 1 ]; then
        echo "golden: recordings in $1 disagree on the engine epoch" >&2
        exit 1
    fi
    echo "$epochs"
}

# Digest of a directory of recordings with every `wall_ns` line removed:
# equal digests mean equal results.
digest_of() {
    corpus | while read -r name _flags; do
        grep -v '"wall_ns"' "$1/$name.json"
    done | cksum | awk '{print $1 "-" $2}'
}

build() {
    echo "==> cargo build --release -p ppet-core --bin merced"
    cargo build -q --release -p ppet-core --bin merced
}

# Bless stages every fresh recording in a temp directory and requires a
# clean `merced audit` on each BEFORE anything moves into recorded/ — a
# recording that cannot re-verify must never become the corpus, even
# transiently (an interrupted bless would otherwise leave a half-written
# golden directory that --check then enshrines).
bless() {
    build
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT INT TERM
    corpus | while read -r name flags; do
        echo "==> bless $name"
        # shellcheck disable=SC2086
        PPET_JOBS=1 "$MERCED" --builtin "$name" $flags --audit --quiet \
            --trace-json "$tmp/$name.json" > /dev/null
        "$MERCED" audit "$tmp/$name.json" --quiet || {
            echo "golden: fresh $name recording failed its own audit;" >&2
            echo "golden: refusing to bless — nothing was overwritten" >&2
            exit 1
        }
        # A blessed recording must carry its power schedule and the
        # audit's verdict on it; a manifest without them would let the
        # sched gate pass vacuously.
        for entry in '"power_budget"' '"sched.budget_cdf"' '"sched.step.0"' \
                     '"check.sched-rebuild": "pass"'; do
            grep -q "$entry" "$tmp/$name.json" || {
                echo "golden: fresh $name recording is missing $entry;" >&2
                echo "golden: refusing to bless — nothing was overwritten" >&2
                exit 1
            }
        done
    done
    epoch="$(epoch_of "$tmp")"
    digest="$(digest_of "$tmp")"
    if ls "$GOLDEN_DIR"/*.json > /dev/null 2>&1; then
        old_epoch="$(epoch_of "$GOLDEN_DIR")"
        if [ "$digest" != "$(digest_of "$GOLDEN_DIR")" ] && [ "$epoch" = "$old_epoch" ]; then
            echo "golden: results changed but the engine epoch is still $epoch;" >&2
            echo "golden: bump ENGINE_EPOCH (crates/trace/src/manifest.rs) in the same change" >&2
            echo "golden: refusing to bless — nothing was overwritten" >&2
            exit 1
        fi
    fi
    mkdir -p "$GOLDEN_DIR"
    corpus | while read -r name _flags; do
        mv "$tmp/$name.json" "$GOLDEN_DIR/$name.json"
    done
    echo "$epoch $digest" > "$EPOCH_FILE"
    echo "golden: blessed $(corpus | wc -l | tr -d ' ') audited recordings in $GOLDEN_DIR (engine epoch $epoch)"
}

check() {
    build
    if ! ls "$GOLDEN_DIR"/*.json > /dev/null 2>&1; then
        echo "golden: no recordings in $GOLDEN_DIR (run scripts/golden.sh --bless)" >&2
        exit 1
    fi
    epoch="$(epoch_of "$GOLDEN_DIR")"
    pair="$epoch $(digest_of "$GOLDEN_DIR")"
    if [ "$pair" != "$(cat "$EPOCH_FILE" 2>/dev/null)" ]; then
        echo "golden: $EPOCH_FILE does not name the corpus (want \"$pair\");" >&2
        echo "golden: recordings change only through scripts/golden.sh --bless" >&2
        exit 1
    fi
    status=0
    for manifest in "$GOLDEN_DIR"/*.json; do
        if "$MERCED" audit "$manifest" --quiet; then
            :
        else
            echo "golden: $manifest FAILED" >&2
            status=1
        fi
    done
    if [ "$status" -ne 0 ]; then
        echo "golden: corpus diverged; inspect with \`merced audit <manifest>\`," >&2
        echo "golden: or re-bless after an intentional change: scripts/golden.sh --bless" >&2
        exit 1
    fi
    echo "golden: all recordings re-verified"
    store_roundtrip
}

# The corpus through the persistent store: import every recording pinned
# into a byte-budgeted store, pile on enough unpinned filler to force
# eviction well past the budget, compact, then export each recording and
# require it byte-identical to the original *and* still audit-clean. This
# is the pinning contract under fire: golden entries must survive
# arbitrary eviction pressure and come back bit-exact.
store_roundtrip() {
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT INT TERM
    store="$tmp/store"

    # Budget: the pinned corpus plus one filler's worth of slack — tight
    # enough that the filler loop must evict.
    corpus_bytes="$(cat "$GOLDEN_DIR"/*.json | wc -c | tr -d ' ')"
    budget=$((corpus_bytes * 2))

    : >"$tmp/keys"
    for manifest in "$GOLDEN_DIR"/*.json; do
        key="$("$MERCED" store "$store" import "$manifest" --pin --store-budget "$budget")"
        printf '%s %s\n' "$key" "$manifest" >>"$tmp/keys"
    done

    # Eviction pressure: distinct unpinned artifacts totalling several
    # budgets' worth of bytes.
    i=0
    while [ $i -lt 8 ]; do
        { echo "filler $i"; cat "$GOLDEN_DIR"/*.json; } >"$tmp/filler"
        "$MERCED" store "$store" import "$tmp/filler" --store-budget "$budget" >/dev/null
        i=$((i + 1))
    done

    "$MERCED" store "$store" gc >/dev/null
    "$MERCED" store "$store" verify >/dev/null || {
        echo "golden: store verify failed after eviction pressure" >&2
        exit 1
    }

    while read -r key manifest; do
        "$MERCED" store "$store" export "$key" >"$tmp/exported.json"
        if ! cmp -s "$manifest" "$tmp/exported.json"; then
            echo "golden: $manifest diverged through the store round-trip" >&2
            exit 1
        fi
        "$MERCED" audit "$tmp/exported.json" --quiet || {
            echo "golden: exported $manifest failed re-audit" >&2
            exit 1
        }
    done <"$tmp/keys"
    echo "golden: corpus survived store round-trip under eviction pressure"
}

case "${1:-}" in
    --check) check ;;
    --bless) bless ;;
    *)
        echo "usage: scripts/golden.sh --check | --bless" >&2
        exit 2
        ;;
esac
