#!/usr/bin/env bash
# Layout-controlled npfperf comparison of two trees. A shift of the hot
# text by 32 B mod 64 moves npfperf's host-timed metrics by up to 10% on
# ib-npf-storm, eth-memcached and kv-reclaim with no executed code changed,
# so a verdict must compare the trees within one layout class:
#
#   scripts/layoutpairs.sh [-w W1,W2] BASE [CHANGE]
#
# BASE and CHANGE are revisions; without CHANGE the second tree is this
# checkout's working tree (untracked files included, ignored ones not).
# Each tree is copied into a temporary directory and npfperf is built
# twice from it: as is, and with a generated pad file in
# internal/workload whose function, kept reachable by an init, shifts the
# text after it by 32 B mod 64. Each binary's class is the address mod 64
# of bench.NewIBEnv, main.runRep and main.yardstick (`go tool nm -n`); the
# pad grows until all three move by 32. Class "as-is" is BASE's unpadded
# layout, "shifted" its padded one; CHANGE runs whichever of its binaries
# is in the same class, and the script exits 1 if neither is.
#
# Within each class and workload the script runs 10 alternating pairs
# (BASE first in odd pairs, CHANGE first in even ones) of
# `npfperf -workload W -seconds S`, with S the benchmark's run_seconds
# from BENCHMARK.json (default workloads: all four). For each class and
# host-measured end-to-end metric (ops_per_s, setup_s, live_heap_mb) it
# prints each tree's median and quartiles, the change in the median, and
# how many pairs the change won (direction from BENCHMARK.json); then the
# layout band, the gap between a tree's two class medians, to read next
# to that change. It exits 1 if a run fails its own gate, or if any line
# npfperf prints without quartiles (sim_* values, exact counts, ratios)
# differs within a pair, naming it.
# Every build and output stays in a temporary directory, removed on exit.
set -euo pipefail
pairs=10 wls=ib-npf-storm,eth-memcached,kv-reclaim,fleet
while getopts w: o; do
    case $o in
    w) wls=$OPTARG ;;
    *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 [-w W1,W2] BASE [CHANGE]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# copytree REV DIR: REV's files, or with REV "" the working tree's, in DIR.
copytree() {
    mkdir -p "$2"
    if [ -n "$1" ]; then
        git -C "$root" archive "$1" | tar -x -C "$2"
    else
        git -C "$root" ls-files -z --cached --others --exclude-standard |
            tar -C "$root" --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -x -C "$2"
    fi
}

# class BIN: the address mod 64 of the three layout-sensitive symbols.
class() {
    local a b c
    read -r a b c < <(go tool nm -n "$1" | awk '
        $3 == "npf/internal/bench.NewIBEnv" { a = $1 }
        $3 == "main.runRep" { b = $1 }
        $3 == "main.yardstick" { c = $1 }
        END { print a, b, c }')
    echo "$((16#$a % 64))/$((16#$b % 64))/$((16#$c % 64))"
}

# shift32 KEY: KEY with every symbol moved by 32 B mod 64.
shift32() {
    local a b c
    IFS=/ read -r a b c <<<"$1"
    echo "$(((a + 32) % 64))/$(((b + 32) % 64))/$(((c + 32) % 64))"
}

# writepad DIR K: a pad function of K statements in DIR's internal/workload.
writepad() {
    {
        echo "package workload"
        echo
        echo "// layoutPad shifts the text linked after this package; init keeps it."
        echo "var layoutPad func(int) int"
        echo
        echo "func init() { layoutPad = layoutPadFn }"
        echo
        echo "//go:noinline"
        echo "func layoutPadFn(x int) int {"
        for ((i = 1; i <= $2; i++)); do echo "	x = x*$((2 * i + 1)) + $i"; done
        echo "	return x"
        echo "}"
    } >"$1/internal/workload/zz_layoutpad.go"
}

# build NAME REV: NAME/plain and NAME/padded, and their classes in
# NAME/plain.class and NAME/padded.class.
build() {
    local d=$tmp/$1
    copytree "$2" "$d/src"
    go -C "$d/src/cmd/npfperf" build -o "$d/plain" .
    class "$d/plain" >"$d/plain.class"
    local want k
    want=$(shift32 "$(cat "$d/plain.class")")
    for k in $(seq 1 24); do
        writepad "$d/src" "$k"
        go -C "$d/src/cmd/npfperf" build -o "$d/padded" .
        class "$d/padded" >"$d/padded.class"
        if [ "$(cat "$d/padded.class")" = "$want" ]; then
            echo "$1: as is $(cat "$d/plain.class"), padded ($k statements) $want"
            return
        fi
    done
    echo "$1: no pad moved all three symbols by 32 B mod 64" >&2
    exit 1
}

build base "$1"
build change "${2:-}"

# pick CLASS BUILD: the change binary in the class of BASE's BUILD.
pick() {
    local b
    for b in plain padded; do
        if [ "$(cat "$tmp/change/$b.class")" = "$(cat "$tmp/base/$2.class")" ]; then
            echo "$tmp/change/$b"
            return
        fi
    done
    echo "no change binary in class $1 ($(cat "$tmp/base/$2.class"))" >&2
    exit 1
}

declare -A changebin
changebin[as-is]=$(pick as-is plain)
changebin[shifted]=$(pick shifted padded)

status=0
for cls in as-is shifted; do
    b=plain
    [ $cls = shifted ] && b=padded
    bins=("$tmp/base/$b" "${changebin[$cls]}")
    for w in ${wls//,/ }; do
        o=$tmp/out/$cls/$w
        mkdir -p "$o"
        for ((i = 1; i <= pairs; i++)); do
            order="0 1"
            [ $((i % 2)) -eq 0 ] && order="1 0"
            for t in $order; do
                name=(base change)
                f=$o/${name[$t]}_$i.txt
                if ! "${bins[$t]}" -workload "$w" -seconds "$seconds" >"$f" 2>&1; then
                    echo "$cls $w pair $i: ${name[$t]} run failed:" >&2
                    tail -5 "$f" >&2
                    status=1
                fi
            done
        done
    done
done

python3 - "$tmp/out" "$root/BENCHMARK.json" "$pairs" "$wls" <<'EOF' || status=1
import json, statistics, sys

out, bench, pairs, wls = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4].split(",")
# The host-measured end-to-end metrics; the sim_* ones are compared exactly.
better = {m["name"]: m["better"] for m in json.load(open(bench))["end_to_end"] if not m["name"].startswith("sim_")}

def load(path):
    """The run's end-to-end metrics and its deterministic lines."""
    metrics, exact = {}, {}
    for line in open(path):
        if line.startswith("{"):
            metrics = {k: v["value"] for k, v in json.loads(line)["metrics"].items()}
            continue
        f = line.split()
        if len(f) == 3 and "/" in f[0]:  # host-timed lines carry quartiles
            exact[f[0]] = f[1]
    return metrics, exact

def quart(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]

bad = False
meds = {}
for cls in ("as-is", "shifted"):
    print(f"== class {cls} ==")
    for w in wls:
        runs = {t: [load(f"{out}/{cls}/{w}/{t}_{i}.txt") for i in range(1, pairs + 1)] for t in ("base", "change")}
        for i, (b, c) in enumerate(zip(runs["base"], runs["change"]), 1):
            for k in sorted(set(b[1]) | set(c[1])):
                if b[1].get(k) != c[1].get(k):
                    print(f"  DIFFERS {w} pair {i}: {k} base {b[1].get(k)} change {c[1].get(k)}")
                    bad = True
        for m in sorted(better):
            bs = [r[0][m] for r in runs["base"] if m in r[0]]
            cs = [r[0][m] for r in runs["change"] if m in r[0]]
            if len(bs) != pairs or len(cs) != pairs:
                print(f"  {w}/{m}: missing from {2 * pairs - len(bs) - len(cs)} runs")
                bad = True
                continue
            sign = 1 if better[m] == "higher" else -1
            wins = sum(sign * (c - b) > 0 for b, c in zip(bs, cs))
            (bq1, bm, bq3), (cq1, cm, cq3) = quart(bs), quart(cs)
            meds[cls, w, m] = bm, cm
            d = (cm - bm) / bm * 100 if bm else 0.0
            print(f"  {w}/{m}: base {bm:.6g} [{bq1:.6g} {bq3:.6g}]  change {cm:.6g} [{cq1:.6g} {cq3:.6g}]"
                  f"  {d:+.1f}%  won {wins}/{pairs}")
print("== layout band: shifted vs as-is median, per tree ==")
for w in wls:
    for m in sorted(better):
        if ("as-is", w, m) in meds and ("shifted", w, m) in meds:
            band = [(meds["shifted", w, m][t] - meds["as-is", w, m][t]) / meds["as-is", w, m][t] * 100
                    if meds["as-is", w, m][t] else 0.0 for t in (0, 1)]
            print(f"  {w}/{m}: base {band[0]:+.1f}%  change {band[1]:+.1f}%")
sys.exit(1 if bad else 0)
EOF
exit $status
