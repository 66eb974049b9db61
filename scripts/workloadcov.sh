#!/usr/bin/env bash
# Workload coverage: which simulator code does any workload reach? Builds
# npfbench, npftrace, npfstat, the four examples and npfperf from this
# checkout with `-cover -coverpkg=npf/...` into a temporary directory,
# runs every workload the repository has into one GOCOVERDIR, and prints
# the statement coverage and every function outside cmd/ and
# internal/analysis that no workload reached:
#
#   scripts/workloadcov.sh [OUT]
#
# The corpus: npfbench's quick suite; kv, anatomy and scaleout at quick
# and full size; the nine chaos scenarios at seeds 1 and 7, at -engines 0
# and 2; npftrace's three scenarios; the four examples; npfperf's four
# workloads (2 s each); npfstat rendering the quick suite's series and
# gating the full scaleout artifact against BENCH_pr8.json. Tests are not
# in it: a function only tests reach is listed.
#
# With OUT, the report, the merged text profile (profile.txt) and each
# workload's output (logs/NAME.log) are also written there. Takes about
# five minutes on a 2-vCPU host, most of it the quick suite; it is not
# part of ci.sh. A workload's nonzero exit is reported, not fatal.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-}
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin cov=$tmp/cov run=$tmp/run
mkdir -p "$bin" "$cov" "$run"

cover=(-cover -covermode=set -coverpkg=npf/...)
for c in npfbench npftrace npfstat; do
    go -C "$root" build "${cover[@]}" -o "$bin/$c" "./cmd/$c"
done
for e in hpc keyvalue quickstart storage; do
    go -C "$root" build "${cover[@]}" -o "$bin/example-$e" "./examples/$e"
done
# npfperf is its own module; build it as cmd/npfperf/run.sh does.
go -C "$root/cmd/npfperf" build "${cover[@]}" -o "$bin/npfperf" .

# step NAME CMD...: run CMD in the run directory, its output in NAME.log.
step() {
    local name=$1
    shift
    local t0=$SECONDS
    if ! (cd "$run" && GOCOVERDIR=$cov "$@" >"$run/$name.log" 2>&1); then
        echo "workloadcov: $name exited nonzero (see its log)" >&2
    fi
    echo "workloadcov: $name $((SECONDS - t0))s" >&2
}

step quick "$bin/npfbench" -quick -parallel 2 -root "$root" -series quick.csv
step kv-anatomy-scaleout-quick "$bin/npfbench" -quick -parallel 2 kv anatomy scaleout
step kv-anatomy "$bin/npfbench" -parallel 2 kv anatomy
step scaleout "$bin/npfbench" -json scale.json scaleout
for e in 0 2; do
    for s in 1 7; do
        step "chaos-e$e-s$s" "$bin/npfbench" -chaos all -engines $e -seed $s
    done
done
for sc in single fig3 backup; do
    step "npftrace-$sc" "$bin/npftrace" -scenario $sc
done
for e in hpc keyvalue quickstart storage; do
    step "example-$e" "$bin/example-$e"
done
step npfperf "$bin/npfperf" -seconds 2
step npfstat-render "$bin/npfstat" -render quick.csv
step npfstat-baseline "$bin/npfstat" -baseline "$root/BENCH_pr8.json" scale.json

# One line per basic block, hit if any binary hit it.
go tool covdata textfmt -i "$cov" -o "$tmp/raw.txt"
{
    echo "mode: set"
    awk 'NR > 1 { k = $1 " " $2; if (!(k in hit) || $3 > 0) hit[k] = ($3 > 0) }
        END { for (k in hit) print k, hit[k] }' "$tmp/raw.txt" | sort
} >"$tmp/profile.txt"
grep -v -E '^npf/(cmd|internal/analysis)/' "$tmp/profile.txt" >"$tmp/model.txt"

report() {
    awk 'NR > 1 { n += $2; if ($3 > 0) h += $2 }
        END { printf "statements: %d of %d reached (%.1f%%)\n", h, n, 100 * h / n }' "$tmp/profile.txt"
    awk 'NR > 1 { n += $2; if ($3 == 0) u += $2 }
        END { printf "outside cmd/ and internal/analysis: %d of %d statements unreached (%.1f%%)\n", u, n, 100 * u / n }' "$tmp/model.txt"
    echo "functions outside cmd/ and internal/analysis with zero hits:"
    (cd "$root" && go tool cover -func="$tmp/model.txt") |
        awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1 "\t" $2 }' | sort -u
}
if [ -n "$out" ]; then
    mkdir -p "$out"
    cp "$tmp/profile.txt" "$out/profile.txt"
    mkdir -p "$out/logs"
    cp "$run"/*.log "$out/logs/"
    report | tee "$out/report.txt"
else
    report
fi
