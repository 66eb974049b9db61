#!/usr/bin/env bash
# Parent comparison: build REV (usually the parent commit) in a temporary
# git worktree and this checkout's working tree, run the same npfbench and
# npftrace recipe in both, and cmp every output file. A change that should
# move no output must report no difference.
#
#   scripts/cmpparent.sh REV
#
# Exits 0 when every file matches; otherwise names each differing file and
# exits 1. Both trees write into directories of the same shape with the
# same relative file names, so the lines that name an output path compare
# raw. Takes a few minutes per tree. The worktree is removed on exit.
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
wt=$tmp/rev
cleanup() {
    git -C "$root" worktree remove --force "$wt" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$wt" "$1"

# out FILE CMD...: run CMD with stdout in FILE; a nonzero exit is recorded
# in exits.txt, which is compared like any other output.
out() {
    local f=$1
    shift
    "$@" >"$f" || echo "$f: exit $?" >>exits.txt
}

# recipe TREE DIR: build TREE's binaries into DIR/bin and run the recipe
# with DIR/out as the working directory.
recipe() {
    local tree=$1 bin=$2/bin o=$2/out
    mkdir -p "$bin" "$o"
    go -C "$tree" build -o "$bin/npfbench" ./cmd/npfbench
    go -C "$tree" build -o "$bin/npftrace" ./cmd/npftrace
    (
        cd "$o"
        for s in 1 7; do
            out chaos_$s.txt "$bin/npfbench" -chaos all -seed $s
        done
        out chaos_p4_7.txt "$bin/npfbench" -chaos all -parallel 4 -seed 7
        out quick.txt "$bin/npfbench" -quick -parallel 1 -series S.csv -json J.json \
            fig3 ablate kv anatomy table4 fig10
        out kv_p4.txt "$bin/npfbench" -quick -parallel 4 kv
        out scale.txt "$bin/npfbench" -parallel 8 -json scale.json scaleout
        for sc in single fig3 backup; do
            out npftrace_$sc.txt "$bin/npftrace" -scenario $sc
        done
    )
}

echo "== $1 =="
recipe "$wt" "$tmp/a"
echo "== working tree =="
recipe "$root" "$tmp/b"

status=0 n=0
for f in $( (ls "$tmp/a/out"; ls "$tmp/b/out") | sort -u); do
    n=$((n + 1))
    if ! cmp -s "$tmp/a/out/$f" "$tmp/b/out/$f"; then
        echo "differs: $f"
        status=1
    fi
done
if [ $status -eq 0 ]; then
    echo "no difference: all $n outputs match $1"
fi
exit $status
