#!/usr/bin/env sh
# The recorded tables and figures: every recorded/*.txt is the verbatim
# stdout of one ppet-bench binary, and this script is the one way to make
# them.
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
# --check compares table1, table9, fig4, ablation and table12_small whole,
# and table10, table11 and fig1_pipes on the circuits of at most 3,000
# cells against the recording's rows for those circuits. The CPU(s)
# column of Tables 10 and 11 is wall time, so both sides mask it. Any
# other difference means a recording is stale or the program changed its
# answers. Run from the repository root. Fully offline.
set -eu

cd "$(dirname "$0")/.."

BIN=target/release
# The size cap of the row-checked recordings under --check.
CHECK_CELLS=3000
# The cap is a command-line flag here; an inherited one must not shrink
# a full recording.
unset PPET_MAX_CELLS

# One recording per line: its name under recorded/, then the command.
recordings() {
    cat <<'EOF'
table1 table1
table9 table9
table10 table10
table11 table11
table12_small table12 --max-cells 6000
ablation ablation
fig1_pipes fig1_pipes
fig4 fig4
EOF
}

# Replaces the CPU(s) column of Tables 10 and 11 (the last field of each
# circuit row, with its padding) with a dash; other recordings pass
# through.
mask() {
    case "$1" in
    table10 | table11) sed -E '/^s[0-9]/ s/ +[0-9.]+$/ -/' ;;
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
        "$BIN/$bin" $args </dev/null >"$tmp/$name.txt"
        mv "$tmp/$name.txt" "recorded/$name.txt"
    done <"$tmp/list"
    echo "recordings: regenerated recorded/*.txt; review and commit the diff"
else
    failed=0
    while read -r name bin args; do
        case "$name" in
        table10 | table11 | fig1_pipes)
            "$BIN/$bin" --max-cells "$CHECK_CELLS" </dev/null >"$tmp/$name.txt"
            rows_of "recorded/$name.txt" "$tmp/$name.txt" >"$tmp/expected"
            what="rows of circuits up to $CHECK_CELLS cells"
            ;;
        *)
            # shellcheck disable=SC2086 # $args is a word list
            "$BIN/$bin" $args </dev/null >"$tmp/$name.txt"
            cp "recorded/$name.txt" "$tmp/expected"
            what="whole file"
            ;;
        esac
        mask "$name" <"$tmp/expected" >"$tmp/recorded"
        mask "$name" <"$tmp/$name.txt" >"$tmp/fresh"
        if (cd "$tmp" && diff -u recorded fresh >diff); then
            echo "ok: recorded/$name.txt ($what)"
        else
            echo "recordings: recorded/$name.txt differs from a fresh run ($what):" >&2
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
