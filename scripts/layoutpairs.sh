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
# Each tree is copied into a temporary directory and npfperf is built from
# it as is and with a generated pad file in internal/workload whose
# function, kept reachable by an init, shifts the text after it. Each
# binary's class is the address mod 64 of bench.NewIBEnv, main.runRep and
# main.yardstick (`go tool nm -n`). Class "as-is" is BASE's unpadded
# layout; class "shifted" is BASE padded until all three symbols move by
# 32. For each class separately, CHANGE runs its first binary (unpadded,
# then pads of 1 to 24 statements) in that exact class. Deleted or added
# code can move the three symbols relative to each other, so that no pad
# matches all three; the class then falls back to the first binary whose
# main.runRep offset alone matches (for BASE's shifted class: moved by
# 32), and the report says so. The script exits 1 if not even that
# matches.
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

# runrep KEY: main.runRep's offset in KEY.
runrep() {
    local a b c
    IFS=/ read -r a b c <<<"$1"
    echo "$b"
}

# writepad DIR K: a pad function of K statements in DIR's internal/workload
# (none for K 0).
writepad() {
    local f=$1/internal/workload/zz_layoutpad.go
    rm -f "$f"
    [ "$2" -eq 0 ] && return
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
    } >"$f"
}

# variant NAME K: the path of NAME's npfperf with a pad of K statements,
# built on first use; its class is in PATH.class.
variant() {
    local b=$tmp/$1/pad$2
    if [ ! -f "$b" ]; then
        writepad "$tmp/$1/src" "$2"
        go -C "$tmp/$1/src/cmd/npfperf" build -o "$b" . >&2
        class "$b" >"$b.class"
    fi
    echo "$b"
}

# findbin NAME KEY: NAME's first binary (pads 0 to 24 statements) in
# class KEY, as "PATH all"; without one, its first whose main.runRep
# offset is KEY's, as "PATH runRep". Fails when neither exists.
findbin() {
    local k b fallback=
    for k in $(seq 0 24); do
        b=$(variant "$1" "$k")
        if [ "$(cat "$b.class")" = "$2" ]; then
            echo "$b all"
            return
        fi
        if [ -z "$fallback" ] && [ "$(runrep "$(cat "$b.class")")" = "$(runrep "$2")" ]; then
            fallback=$b
        fi
    done
    [ -n "$fallback" ] || return 1
    echo "$fallback runRep"
}

# The base binary of each class, then the change binary in its class.
declare -A basebin changebin
mkdir -p "$tmp/out"
copytree "$1" "$tmp/base/src"
copytree "${2:-}" "$tmp/change/src"
basebin[as-is]=$(variant base 0)
asis=$(cat "${basebin[as-is]}.class")
if ! found=$(findbin base "$(shift32 "$asis")"); then
    echo "base: no pad moves main.runRep by 32 B mod 64 (as is $asis)" >&2
    exit 1
fi
basebin[shifted]=${found% *} basehow=${found#* }
for cls in as-is shifted; do
    key=$(cat "${basebin[$cls]}.class")
    note="base $key"
    if [ $cls = shifted ] && [ "$basehow" = runRep ]; then
        note="$note (no pad moved all three symbols by 32 B: main.runRep alone)"
    fi
    if ! found=$(findbin change "$key"); then
        echo "no change binary in class $cls ($key), not even by main.runRep" >&2
        exit 1
    fi
    changebin[$cls]=${found% *}
    note="$note, change $(cat "${changebin[$cls]}.class") (${changebin[$cls]##*/})"
    if [ "${found#* }" = runRep ]; then
        note="$note, matched on main.runRep alone: no change binary has all three offsets"
    fi
    echo "class $cls: $note"
    echo "$note" >"$tmp/out/$cls.note"
done

status=0
for cls in as-is shifted; do
    bins=("${basebin[$cls]}" "${changebin[$cls]}")
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
    print(f"== class {cls}: {open(f'{out}/{cls}.note').read().strip()} ==")
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
