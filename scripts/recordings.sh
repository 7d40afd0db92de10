#!/usr/bin/env sh
# The recorded tables and figures: every recorded/*.txt is the verbatim
# stdout of one ppet-bench binary, recorded/BENCH_sched.json is the file
# `sched_bench` writes, and this script is the one way to make them.
#
#   scripts/recordings.sh           build the bench binaries and regenerate
#                                   every recording in place (~16 min on a
#                                   2-core VM: Tables 10 and 11 and Figure 1
#                                   compile the 50,000-cell circuits), then
#                                   commit the diff
#   scripts/recordings.sh --check   regenerate the cheap part into a temp
#                                   dir and diff it against the recordings
#                                   (the CI gate, about a minute)
#
# --check compares table1, table9, fig4, ablation, table12_small and
# BENCH_sched.json whole, and table10, table11 and fig1_pipes on the
# circuits of at most 3,000 cells against the recording's rows for those
# circuits. The CPU(s) column of Tables 10 and 11 and the `sched_ns` and
# `pareto_ns` fields of BENCH_sched.json are wall time, so both sides mask
# them. Any other difference means a recording is stale or the program
# changed its answers. Run from the repository root. Fully offline.
set -eu

cd "$(dirname "$0")/.."

BIN=target/release
# The size cap of the row-checked recordings under --check.
CHECK_CELLS=3000
# The cap is a command-line flag here; an inherited one must not shrink
# a full recording.
unset PPET_MAX_CELLS

# One recording per line: its file under recorded/, then the command.
recordings() {
    cat <<'EOF'
table1.txt table1
table9.txt table9
table10.txt table10
table11.txt table11
table12_small.txt table12 --max-cells 6000
ablation.txt ablation
fig1_pipes.txt fig1_pipes
fig4.txt fig4
BENCH_sched.json sched_bench
EOF
}

# record OUT BIN [ARGS...]: runs BIN and writes its recording to OUT. A
# .txt recording is the binary's stdout; a .json one is the file the
# binary writes to the path it is given.
record() {
    out=$1
    bin=$2
    shift 2
    case "$out" in
    *.json) "$BIN/$bin" "$@" "$out" </dev/null >/dev/null ;;
    *) "$BIN/$bin" "$@" </dev/null >"$out" ;;
    esac
}

# Replaces the CPU(s) column of Tables 10 and 11 (the last field of each
# circuit row, with its padding) and the timing fields of
# BENCH_sched.json with a dash; other recordings pass through.
mask() {
    case "$1" in
    table10.txt | table11.txt) sed -E '/^s[0-9]/ s/ +[0-9.]+$/ -/' ;;
    BENCH_sched.json) sed -E 's/"(sched|pareto)_ns": [0-9]+/"\1_ns": -/g' ;;
    *) cat ;;
    esac
}

# The lines of recording $1 that a run printing $2 must reproduce: every
# line that is not a circuit row, and the rows of the circuits $2 has.
rows_of() {
    awk 'NR == FNR { if ($1 ~ /^s[0-9]/) ran[$1] = 1; next }
         $1 !~ /^s[0-9]/ || ($1 in ran)' "$2" "$1"
}

mode=${1:-}
case "$mode" in
"" | --check) ;;
*)
    echo "usage: scripts/recordings.sh [--check]" >&2
    exit 2
    ;;
esac

echo "==> cargo build --release -p ppet-bench --bins"
cargo build -q --release -p ppet-bench --bins

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
recordings >"$tmp/list"

if [ -z "$mode" ]; then
    while read -r name bin args; do
        echo "==> $name"
        # Into the temp dir first, so a failed run leaves the recording.
        # shellcheck disable=SC2086 # $args is a word list
        record "$tmp/$name" "$bin" $args
        mv "$tmp/$name" "recorded/$name"
    done <"$tmp/list"
    echo "recordings: regenerated every recording; review and commit the diff"
else
    failed=0
    while read -r name bin args; do
        case "$name" in
        table10.txt | table11.txt | fig1_pipes.txt)
            record "$tmp/$name" "$bin" --max-cells "$CHECK_CELLS"
            rows_of "recorded/$name" "$tmp/$name" >"$tmp/expected"
            what="rows of circuits up to $CHECK_CELLS cells"
            ;;
        *)
            # shellcheck disable=SC2086 # $args is a word list
            record "$tmp/$name" "$bin" $args
            cp "recorded/$name" "$tmp/expected"
            what="whole file"
            ;;
        esac
        mask "$name" <"$tmp/expected" >"$tmp/recorded"
        mask "$name" <"$tmp/$name" >"$tmp/fresh"
        if (cd "$tmp" && diff -u recorded fresh >diff); then
            echo "ok: recorded/$name ($what)"
        else
            echo "recordings: recorded/$name differs from a fresh run ($what):" >&2
            cat "$tmp/diff" >&2
            failed=1
        fi
    done <"$tmp/list"
    if [ "$failed" -ne 0 ]; then
        echo "recordings: stale; regenerate with scripts/recordings.sh and commit" >&2
        exit 1
    fi
    echo "recordings: every checked recording matches a fresh run"
fi
