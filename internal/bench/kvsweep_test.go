package bench

import (
	"strings"
	"testing"

	"npf/internal/kv"
)

// TestRunKVQuick runs the quick sweep once and sanity-checks the ablation's
// shape: every policy completes the workload, the reclaim waves actually
// evict on reclaimable arenas, and pinned arenas are untouched by them.
func TestRunKVQuick(t *testing.T) {
	r := runOutput(t, "kv", Test).(*KVResult)
	for i, pol := range r.Policies {
		if r.Ops[i] != 1200 {
			t.Errorf("%s: completed %d of 1200 ops", pol, r.Ops[i])
		}
		if r.P99Us[i] <= 0 {
			t.Errorf("%s: empty latency histogram", pol)
		}
		if r.Failover[i] != 0 {
			t.Errorf("%s: %d spurious failovers in a fault-free sweep", pol, r.Failover[i])
		}
	}
	odp := 0
	if r.Evicts[odp] == 0 {
		t.Error("odp: reclaim waves evicted nothing")
	}
	pinned := len(r.Policies) - 1
	if r.Policies[pinned] != kv.RegPinned {
		t.Fatalf("row order changed: last policy is %s", r.Policies[pinned])
	}
	if r.Evicts[pinned] != 0 {
		t.Errorf("pinned: %d evictions from a fully pinned arena", r.Evicts[pinned])
	}
	if !strings.Contains(r.Render(), "registration") {
		t.Error("Render lost its header")
	}
}

// TestRunParallelKVDeterminism extends the sweep runner's byte-identity
// promise to the KV ablation: three whole cluster deployments fanned across
// workers must render identically to the serial run.
func TestRunParallelKVDeterminism(t *testing.T) {
	var serial, fanned string
	withWorkers(1, func() { serial = RunKV(true).Render() })
	withWorkers(8, func() { fanned = RunKV(true).Render() })
	if serial != fanned {
		t.Fatalf("kv output depends on Workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}
