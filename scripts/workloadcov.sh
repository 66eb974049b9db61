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
# and full size; the quick scaleout at -engines 4 (two threads per fleet
# group on two or more CPUs, the threaded sim.Group driver); a quick fig3 with -trace (the Chrome export) and one at
# -parallel 0 (the worker default); the nine chaos scenarios at seeds 1
# and 7, at -engines 0 and 2 (the same reports: -engines is a thread
# budget); npftrace's three scenarios, each writing
# its Chrome trace; the four examples; npfperf's four workloads (2 s
# each); npfstat rendering the quick suite's series and gating the full
# scaleout artifact against BENCH_pr8.json. Tests are not in it: a
# function only tests reach is listed.
#
# A zero-hit function that stays on purpose has a line in the keep table
# below: file, function and the reason (the section, test or ROADMAP item
# that needs it). The report lists the zero-hit functions the table does
# not explain, and the table's lines whose function now has hits or no
# longer exists; both lists are empty when the table is current. ci.sh
# checks, without running the corpus, that every function the table
# names is still declared in its file.
#
# With OUT, the report, the merged text profile (profile.txt) and each
# workload's output (logs/NAME.log) are also written there. Takes about
# five minutes on a 2-vCPU host, most of it the quick suite; it is not
# part of ci.sh. A workload's nonzero exit is reported, not fatal.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-}

# The keep table: file<TAB>function<TAB>reason, one zero-hit function a
# line, in the report's order.
keep=$(cat <<'KEEP'
npf/cluster.go	AttachNIC	OpenChannel attaches the host's NIC through it (README Quickstart)
npf/cluster.go	Digest	TestDeterminismAcrossRuns pins the facade digest aa76268da7733b79
npf/cluster.go	OpenChannel	README Quickstart and Fault injection
npf/cluster.go	Run	README Scale-out
npf/cluster.go	startTracers	WithTracing, and a WithChaos plan passed to OpenChannel
npf/internal/apps/kvstore.go	EvictOldest	kv's arena-exhaustion error path
npf/internal/bench/experiments.go	String	Sizing.String names the output manifests' lines
npf/internal/chaos/ge.go	Bad	Gilbert-Elliott closed forms (TestGEChainStationaryBehaviour)
npf/internal/chaos/ge.go	DefaultGE	Gilbert-Elliott closed forms (TestGEChainStationaryBehaviour)
npf/internal/chaos/ge.go	MeanLoss	Gilbert-Elliott closed forms (TestGEChainStationaryBehaviour)
npf/internal/chaos/ge.go	StationaryBad	Gilbert-Elliott closed forms (TestGEChainStationaryBehaviour)
npf/internal/core/pinning.go	Flush	ROADMAP item 17 must make the kv and fleet pin-down rows evict
npf/internal/core/pinning.go	evictOne	ROADMAP item 17 must make the kv and fleet pin-down rows evict
npf/internal/fabric/fabric.go	NodeIDs	a chaos fault without Nodes targets every node (README Fault injection)
npf/internal/fabric/fabric.go	SetBlackhole	tcp's retry-limit abort tests (ROADMAP item 7) and TestArrivalTimesBlackholeMidQueue
npf/internal/iommu/iommu.go	Present	FuzzDomainIOTLB's oracle and the X2 test (TestReadOnlyMappingUpgradesOnDMAWrite)
npf/internal/iommu/iommu.go	Writable	FuzzDomainIOTLB's oracle and the X2 test (TestReadOnlyMappingUpgradesOnDMAWrite)
npf/internal/kv/kv.go	String	Transport.String names the kv tests' per-transport subtests
npf/internal/kv/transport.go	buildRCMesh	kv's RC transport, ROADMAP item 7's control
npf/internal/kv/transport.go	newPeer	kv's RC transport, ROADMAP item 7's control
npf/internal/kv/transport.go	send	kv's RC transport, ROADMAP item 7's control
npf/internal/mem/pagetable.go	farIndex	sparse page numbers past the dense directory (FuzzPageTable)
npf/internal/mem/pagetable.go	farLeaf	sparse page numbers past the dense directory (FuzzPageTable)
npf/internal/nic/rxring.go	WatchTail	the backup resolver's tail-interrupt backpressure (§5, Fig 6), which no row fills (ROADMAP item 17)
npf/internal/sim/group.go	Stats	ROADMAP item 14.4
npf/internal/sim/group.go	StopFrom	the threaded driver re-clamps its horizon through it after an engine Stop; no threaded workload stops mid-run (FuzzGroupOrder)
npf/internal/tcp/conn.go	fail	a connection past its retry limit aborts (ROADMAP item 7)
npf/internal/tcp/tcp.go	TxComplete	an empty nic.TxHandler method: every TX completion calls it, but cover counts a function with no statements as 0%
npf/internal/trace/digest.go	DigestAll	Cluster.Digest folds a partitioned cluster's tracers (TestClusterWithEngines*)
npf/internal/trace/fault.go	FlightExcerpt	the flight recorder; only a failing chaos report reaches it (TestFailingReportCarriesFlightRecorder)
npf/internal/trace/fault.go	SortFaultEvents	the flight recorder; only a failing chaos report reaches it (TestFailingReportCarriesFlightRecorder)
npf/internal/trace/fault.go	WriteFlightRecorder	the flight recorder; only a failing chaos report reaches it (TestFailingReportCarriesFlightRecorder)
npf/npf.go	DefaultTCPConfig	drives the Ethernet channel of the root chaos tests
npf/npf.go	NewChaosPlan	README Fault injection
npf/npf.go	NewStack	drives the Ethernet channel of the root chaos tests
npf/npf.go	StaticPinAll	drives the Ethernet channel of the root chaos tests
npf/options.go	WithChaos	README Fault injection
npf/options.go	WithEngines	README Scale-out
npf/options.go	WithPartition	README Scale-out
npf/options.go	WithPolicy	README Quickstart
npf/options.go	WithRingSize	README Quickstart
npf/options.go	WithSampling	README Fault injection
npf/options.go	WithSwarm	README Scale-out
npf/options.go	WithTracing	TestDeterminismAcrossRuns pins the facade digest aa76268da7733b79
npf/options.go	applyChannel	the ChannelOption method behind WithPolicy, WithRingSize and WithChaos
npf/options.go	applyCluster	the ClusterOption method behind WithChaos, WithEngines, WithSampling and WithSwarm
KEEP
)
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off LC_ALL=C
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
step scaleout-threads "$bin/npfbench" -quick -engines 4 scaleout
step trace "$bin/npfbench" -quick -trace trace.json fig3
step parallel0 "$bin/npfbench" -quick -parallel 0 fig3
for e in 0 2; do
    for s in 1 7; do
        step "chaos-e$e-s$s" "$bin/npfbench" -chaos all -engines $e -seed $s
    done
done
for sc in single fig3 backup; do
    step "npftrace-$sc" "$bin/npftrace" -scenario $sc -o "$sc.json"
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
    (cd "$root" && go tool cover -func="$tmp/model.txt") |
        awk '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1 "\t" $2 }' | sort -u >"$tmp/zero.txt"
    printf '%s\n' "$keep" | cut -f1,2 | sort -u >"$tmp/keep.txt"
    echo "functions outside cmd/ and internal/analysis with zero hits: $(wc -l <"$tmp/zero.txt"), $(comm -12 "$tmp/zero.txt" "$tmp/keep.txt" | wc -l) of them kept for a reason"
    echo "zero-hit functions without a reason:"
    comm -23 "$tmp/zero.txt" "$tmp/keep.txt"
    echo "kept functions that have hits or no longer exist:"
    comm -13 "$tmp/zero.txt" "$tmp/keep.txt"
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
