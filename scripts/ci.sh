#!/usr/bin/env bash
# CI gate: formatting, vet, build, race-enabled tests, and the telemetry
# subsystem's zero-allocation contract for disabled tracers.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go mod tidy / verify =="
# The only dependency (golang.org/x/tools, the go/analysis framework) is
# served from the checked-in file proxy under third_party/goproxy, so
# module hygiene is verifiable fully offline. Builds never need this env:
# they use the vendor/ directory.
(
    export GOPROXY="file://$PWD/third_party/goproxy" GOSUMDB=off
    go mod tidy
    go mod verify
    go mod vendor
)
if ! git diff --quiet go.mod go.sum vendor/; then
    echo "go.mod/go.sum/vendor drift: run go mod tidy && go mod vendor with the third_party/goproxy GOPROXY" >&2
    git --no-pager diff --stat go.mod go.sum vendor/ >&2
    exit 1
fi

# EXPERIMENTS.md is generated: regenerating it from the committed
# experiments_full.txt must leave it unchanged.
echo "== EXPERIMENTS.md drift =="
python3 scripts/mkexperiments.py > /dev/null
if ! git --no-pager diff --exit-code EXPERIMENTS.md >&2; then
    echo "EXPERIMENTS.md drift: run python3 scripts/mkexperiments.py" >&2
    exit 1
fi

# scripts/workloadcov.sh keeps a reason for each zero-hit function it
# keeps; a function deleted later must take its line with it. This check
# reads the table only (the coverage corpus takes minutes and is not run
# here): each named function must still be declared in its file.
echo "== workloadcov keep table =="
awk '/^keep=\$\(cat <<.KEEP.\)?$/ { on = 1; next } /^KEEP$/ { on = 0 } on' scripts/workloadcov.sh |
    while IFS=$'\t' read -r file fn _; do
        if ! grep -Eq "^func (\([^)]*\) )?$fn[[(]" "${file#npf/}"; then
            echo "workloadcov.sh keep table: $fn is not declared in ${file#npf/}" >&2
            exit 1
        fi
    done

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# The full suite. It also checks the four examples' output byte for byte:
# each of examples/{quickstart,keyvalue,hpc,storage} has an Example
# function whose "// Output:" block is the program's stdout.
echo "== go test =="
go test -timeout 20m ./...

# cmd/npfperf is its own module, so the root ./... patterns above never
# compile it; it imports the simulator's internal packages, so an API
# change that breaks the benchmark fails here rather than at its run.
echo "== npfperf module vet / test =="
go -C cmd/npfperf vet ./...
go -C cmd/npfperf test -short ./...

# The full experiment suite (internal/bench) takes about two minutes
# without the race detector on a 2-vCPU host (its eight heavy tests run in
# parallel, each on its own bench.Scope) and blows past any reasonable
# timeout with it; its heavy tests honour -short, so the race pass runs in
# short mode and still
# exercises every package's fast paths under the detector. This pass also
# covers the analyzer unit tests (internal/analysis/...): the fixture
# harness and the shared fact store run under the detector here. It also
# runs the threaded quick fleet on both transports (topo's
# TestSweepDeterminism at 2 and 4 threads, bench's
# TestGroupStatsAcrossThreads at 2 and 8), so the detector checks that a
# fleet message, handed between partitions through the mailbox, is never
# touched by two partitions at once; bench's TestRCStreamAcrossPartitions
# does the same for an RC stream between two partitions at 2 threads. The
# chaos scenario tests live in internal/bench with the scenarios and none
# skips under -short except the seed sweep: TestScenariosEnginesDeterminism
# runs every scenario at thread budgets 0 and 2 under the detector, next to the
# series, span-set and flight-recorder replays.
echo "== go test -race -short =="
go test -race -short -timeout 10m ./...

echo "== tracer disabled-path allocation check =="
out=$(go test -run 'TestTracerDisabledNoAlloc' -bench 'BenchmarkTracerDisabled' -benchtime 1000x ./internal/trace/)
echo "$out"
if ! grep -q 'BenchmarkTracerDisabled.* 0 B/op.* 0 allocs/op' <<< "$out"; then
    echo "BenchmarkTracerDisabled is not allocation-free" >&2
    exit 1
fi

# The sim engine's free-list contract: steady-state scheduling must not
# allocate, and the event-throughput hot path, a chain of After(0) events
# and the fleet-regime large-pending queue (about 100k far timers in the
# calendar tier) must report 0 B/op and 0 allocs/op. Argument events (AtArg/AfterArg with a pre-bound
# func and a pointer argument) schedule, cancel and run at 0 allocs/op
# too, and so does a seq ReserveSeqs took scheduled later with AtArgSeq.
# TestEngineFarCancelRetention bounds what cancelled
# far timers may keep queued. A histogram stores a run of repeated samples
# once: repeats add at 0 allocs/op and retain O(1) memory, and a warm
# add-then-query period allocates nothing. A sim.Group at one thread
# delivers mail with a pre-bound func and a pointer argument at 0 allocs/op.
echo "== engine allocation gate =="
out=$(go test -run 'TestEngineSteadyStateAllocs|TestEngineAfterArgSteadyStateAllocs|TestEngineTimerChurnAllocs|TestEngineFarCancelRetention|TestHistogramRepeatsStayCompact|TestHistogramQueryNoAlloc' \
    -bench 'BenchmarkEngineEventThroughput|BenchmarkEngineArgThroughput|BenchmarkEngineReservedSeq|BenchmarkEngineImmediate|BenchmarkEngineLargePending|BenchmarkGroupMail|BenchmarkHistogramAddRepeat' -benchtime 10000x ./internal/sim/)
echo "$out"
for bench in BenchmarkEngineEventThroughput BenchmarkEngineArgThroughput BenchmarkEngineReservedSeq BenchmarkEngineImmediate BenchmarkEngineLargePending BenchmarkGroupMail BenchmarkHistogramAddRepeat; do
    if ! grep -q "$bench.* 0 B/op.* 0 allocs/op" <<< "$out"; then
        echo "$bench is not allocation-free" >&2
        exit 1
    fi
done

# The packet path's contract: on a warm network a fabric Send→Deliver
# round, an IOTLB miss that inserts and evicts at capacity, a one-page
# translate that misses and installs, a DMA touch of resident pages, a
# warm RC send→ack round, a warm TCP request→response round and a batch
# of warm memcached ops (one request object per connection, carried there
# and back) allocate nothing; a faulting 1,024-page translate allocates
# only its miss list; RC packets and TCP frames recycle only within one
# engine; a faulting RC message stays within its measured object and byte
# budgets; the quick fleet stays within its measured objects per
# completed op on both transports (one message per request round trip);
# and a warm replicated KV deployment stays within 0.05 objects per
# completed op (each request comes back as its reply and each replicated
# set as its ack, heartbeats amortized).
# npflint's noalloc Required entries (port.enqueue/kick, iotlb.hit/install/invalidate,
# PageTable.Get/Lookup/Span, AddressSpace.lruPush/lruRemove/TouchResident,
# HCA.take/post and the QP post/ack/data handlers, Stack.transmit and the
# Conn send/ack path, TxQueue.kick, the memcached server's request and
# reply handlers, memaslap's reply handler, and kv's request, reply,
# replication and ack paths with its message free lists) are the static
# side of the same gate.
echo "== packet-path allocation gate =="
out=$(go test -run 'TestSendDeliverNoAlloc|TestIOTLBChurnNoAlloc|TestTranslateAllocs|TestTouchResidentNoAlloc|TestRCWarmRoundNoAlloc|TestIBFaultingMessageAllocBound|TestScaleoutRoundTripAllocBound|TestTCPWarmRoundNoAlloc|TestFramePoolSameEngineOnly|TestMemcachedWarmOpNoAlloc|TestKVWarmOpsAllocBound' \
    -bench 'BenchmarkSendDeliver|BenchmarkIOTLBChurn|BenchmarkTranslateMissInstall' -benchtime 10000x \
    ./internal/fabric/ ./internal/iommu/ ./internal/mem/ ./internal/rc/ ./internal/tcp/ ./internal/apps/ ./internal/kv/ ./internal/bench/)
echo "$out"
for bench in BenchmarkSendDeliver BenchmarkIOTLBChurn BenchmarkTranslateMissInstall; do
    if ! grep -q "$bench.* 0 B/op.* 0 allocs/op" <<< "$out"; then
        echo "$bench is not allocation-free" >&2
        exit 1
    fi
done

# Native fuzz targets: the radix page table against a map model, an
# address space's range operations across leaf boundaries against the same
# operations page by page, two I/O page tables sharing one IOTLB against a
# map-plus-linear-LRU model, the event engine's heap and calendar tier
# against a sorted-slice model, sim.Group's one-thread driver against its
# threaded protocol, and the run-storing histogram against a raw-sample
# model. Their committed seed corpora (testdata/fuzz) already replay in go
# test above; this pass searches for new inputs.
echo "== fuzz =="
go test -run '^$' -fuzz '^FuzzPageTable$' -fuzztime 10s ./internal/mem/
go test -run '^$' -fuzz '^FuzzAddressSpaceRanges$' -fuzztime 10s ./internal/mem/
go test -run '^$' -fuzz '^FuzzDomainIOTLB$' -fuzztime 10s ./internal/iommu/
go test -run '^$' -fuzz '^FuzzEngineOrder$' -fuzztime 10s ./internal/sim/
go test -run '^$' -fuzz '^FuzzGroupOrder$' -fuzztime 10s ./internal/sim/
go test -run '^$' -fuzz '^FuzzHistogram$' -fuzztime 10s ./internal/sim/

# The sweep runner's determinism contract under the race detector: the
# worker pool fans real figure jobs across 8 goroutines and must produce
# byte-identical output to the serial run. The pattern also selects
# TestRunParallelScopes, which runs fig3 and ablate side by side, each on
# its own bench.Scope, whose engine statistics must match their serial
# runs'.
echo "== sweep runner race check =="
go test -race -run 'TestRunParallel' ./internal/bench/

# Chaos smoke matrix: every named fault-injection scenario — including the
# distributed-KV ones (invalidation storm, replica link flap, memory
# pressure) — must pass its invariants (npfbench -chaos exits non-zero
# otherwise) under two seeds.
echo "== chaos scenario matrix =="
for seed in 1 7; do
    go run ./cmd/npfbench -chaos all -seed "$seed" > /dev/null
    echo "chaos matrix ok (seed $seed)"
done

# Chaos telemetry: -series and -trace cover every scenario testbed, and
# the series CSV renders.
echo "== chaos series and trace =="
chaos_series=$(mktemp)
chaos_trace=$(mktemp)
go run ./cmd/npfbench -chaos all -seed 1 -series "$chaos_series" -trace "$chaos_trace" > /dev/null
go run ./cmd/npfstat -render "$chaos_series" > /dev/null
rm -f "$chaos_series" "$chaos_trace"
echo "chaos series and trace ok"

# -parallel determinism matrix: -parallel is only a thread budget, so no
# value may change an output — trace digests included. The chaos
# scenarios, the KV registration ablation and the fault anatomy run on
# one partition at every budget, the scale-out sweep on its fixed
# 8-partition group: budget 1 runs that group on sim.Group's one-thread
# driver and budget 4 (two jobs, two threads each on two or more CPUs)
# on its threaded protocol. npfbench prints no wall clock, so the raw
# outputs must match; the -json check below adds the artifact and series
# at 1 against 8.
echo "== -parallel determinism matrix =="
tmp1=$(mktemp)
tmp4=$(mktemp)
for args in "-chaos all" "-quick kv" "-quick anatomy" "-quick scaleout"; do
    go run ./cmd/npfbench -parallel 1 $args > "$tmp1"
    go run ./cmd/npfbench -parallel 4 $args > "$tmp4"
    diff "$tmp1" "$tmp4" || { echo "npfbench $args differs between -parallel 1 and 4" >&2; exit 1; }
done
rm -f "$tmp1" "$tmp4"
echo "parallel matrix ok (chaos, kv, anatomy and quick scaleout at 1 vs 4)"

# npflint: the determinism contracts (no wall clock in sim layers, no
# order-dependent map walks, sim.Time-only signatures, no host concurrency
# bypassing the cross-engine mailbox protocol) as a hard machine-checked
# gate. Nil-safe tracer access needs no analyzer: the trace handles export
# no field, so the compiler rejects a direct access and
# TestHandlesExportNoFields keeps it that way. xengine fences the sim
# layers from sync/channel/go constructs that would race partitions. The v2
# interprocedural analyzers ride the same invocation: detflow (direct
# nondeterminism reads plus transitive reach via facts), noalloc (the
# //npf:noalloc allocation fence — removing a registered hot-path
# annotation fails here), and probepure (read-only sampler probes).
echo "== npflint =="
go run ./cmd/npflint ./...

echo "== bench smoke =="
go test -run 'XXX' -bench 'BenchmarkFaultPath|BenchmarkBackupReplay' -benchtime=1x ./internal/bench/

# The artifact and the series CSV are a pure function of the seed: the
# same quick run at -parallel 1 and -parallel 8 must be byte-identical.
echo "== npfbench -json artifact check =="
tmpjson=$(mktemp)
tmpseries=$(mktemp)
tmpjson8=$(mktemp)
tmpseries8=$(mktemp)
trap 'rm -f "$tmpjson" "$tmpseries" "$tmpjson8" "$tmpseries8"' EXIT
go run ./cmd/npfbench -quick -parallel 1 -series "$tmpseries" -json "$tmpjson" fig3 ablate kv anatomy > /dev/null
go run ./cmd/npfbench -quick -parallel 8 -series "$tmpseries8" -json "$tmpjson8" fig3 ablate kv anatomy > /dev/null
cmp "$tmpjson" "$tmpjson8" || { echo "-json artifact differs between -parallel 1 and 8" >&2; exit 1; }
cmp "$tmpseries" "$tmpseries8" || { echo "-series CSV differs between -parallel 1 and 8" >&2; exit 1; }
python3 - "$tmpjson" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["engine_bench"]["allocs_per_op"] == 0, doc["engine_bench"]
assert doc["series"]["samples"] > 0 and doc["series"]["metrics"] > 0, doc.get("series")
assert len(doc["series"]["digest"]) == 16, doc["series"]
names = [e["name"] for e in doc["experiments"]]
assert names == ["fig3", "ablate", "kv", "anatomy"], names
for e in doc["experiments"]:
    assert e["engines"] > 0 and e["events"] > 0, e
kv = doc["kv"]
assert [r["policy"] for r in kv] == ["odp", "pin-down-cache", "pinned"], kv
for r in kv:
    assert r["ops"] > 0 and r["p99_us"] > 0 and r["failovers"] == 0, r
assert kv[0]["npfs"] > 0 and kv[0]["evictions"] > 0, kv[0]   # ODP bends
assert kv[-1]["npfs"] == 0 and kv[-1]["evictions"] == 0, kv[-1]  # pinned doesn't
print("artifact ok:", ", ".join(
    f"{e['name']}={e['events']} events/{e['engines']} engines" for e in doc["experiments"]))
print("kv ablation ok:", ", ".join(
    f"{r['policy']}: p99={r['p99_us']:.0f}us npfs={r['npfs']}" for r in kv))
an = doc["fault_anatomy"]
assert [r["policy"] for r in an] == ["odp", "pin-down-cache", "pinned"], an
assert an[0]["faults"] > 0 and an[0]["pending"] == 0, an[0]
assert an[0]["faults"] == an[0]["npfs"], an[0]          # every NPF dissected
assert an[0]["crit_stage"] == "fault-report" and an[0]["crit_layer"] == "hw", an[0]
assert an[0]["total_p99_us"] > an[0]["total_p50_us"] > 0, an[0]
assert an[-1]["faults"] == 0 and an[-1]["crit_stage"] == "-", an[-1]  # pinned: no faults
for r in an:
    assert r["dropped_fault_events"] == 0 and r["dropped_fault_records"] == 0, r
td = doc["trace_drops"]
assert td["tracers"] > 0, td
assert td["dropped_fault_events"] == 0, td
print("fault anatomy ok:", ", ".join(
    f"{r['policy']}: faults={r['faults']} crit={r['crit_stage']}" for r in an))
EOF

# npfstat regression gate: diff the quick run above against the committed
# BENCH_pr10.json. What each field gates on is its gate tag in
# internal/artifact (the package doc tables the vocabulary). The baseline
# was captured with the same -series flag as the run above, so sampler
# tick events match exactly and the series digest folds the same engines;
# regenerate it with the run's own command
#   go run ./cmd/npfbench -quick -parallel 1 -series /dev/null \
#       -json BENCH_pr10.json fig3 ablate kv anatomy
echo "== npfstat regression gate =="
go run ./cmd/npfstat -count-tol 0.10 -baseline BENCH_pr10.json "$tmpjson"

# Scale-out fleet gate: re-run the full 1,008-host / 101,000-client cluster
# sweep (both transports, the fixed 8-partition group, ~10 s at -parallel 8)
# and gate it against the committed BENCH_pr8.json per the scale_out tags
# in internal/artifact; the sweep is byte-identical for every -parallel
# value, so its fingerprint gates exactly. Regenerate the baseline with
#   go run ./cmd/npfbench -parallel 8 -json BENCH_pr8.json scaleout
echo "== scale-out fleet gate =="
go run ./cmd/npfbench -parallel 8 -json "$tmpjson" scaleout > /dev/null
go run ./cmd/npfstat -baseline BENCH_pr8.json "$tmpjson"

# npfstat render smoke: the series CSV written above must parse and render.
echo "== npfstat render smoke =="
go run ./cmd/npfstat -render "$tmpseries" > /dev/null
echo "npfstat render ok"

# experiments_full.txt is the full default run EXPERIMENTS.md quotes: the
# code must still print it byte for byte (about 80 s at -parallel 2 on a
# 2-vCPU host; tier-1 does not run it). Regenerate it with
#   go run ./cmd/npfbench -parallel 2 > experiments_full.txt
# and then python3 scripts/mkexperiments.py.
echo "== experiments_full.txt drift =="
tmpfull=$(mktemp)
go run ./cmd/npfbench -parallel 2 > "$tmpfull"
if ! cmp "$tmpfull" experiments_full.txt; then
    echo "experiments_full.txt drift: the full run no longer prints it" >&2
    exit 1
fi
rm -f "$tmpfull"

echo "CI OK"
