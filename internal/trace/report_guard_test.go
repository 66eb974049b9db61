package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"npf/internal/sim"
)

// TestStageTableGuards pins the report helpers' behaviour on degenerate
// inputs: empty maps, zero-count histograms, and nil entries must render
// zero rows — never divide by zero, NaN, or panic.
func TestStageTableGuards(t *testing.T) {
	cases := map[string]map[string]*sim.Histogram{
		"empty map":       {},
		"nil total":       {"total": nil},
		"nil stage":       {"fault-report": nil, "total": &sim.Histogram{}},
		"zero-count hist": {"fault-report": {}, "update": {}, "total": {}},
	}
	for name, stages := range cases {
		var b bytes.Buffer
		WriteStageTable(&b, stages) // must not panic
		out := b.String()
		if !strings.HasPrefix(out, "stage") {
			t.Fatalf("%s: missing header: %q", name, out)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Fatalf("%s: non-finite cell in table:\n%s", name, out)
		}
		if got := HardwareShare(stages); got != 0 {
			t.Fatalf("%s: HardwareShare = %v, want 0", name, got)
		}
	}
}

// TestHardwareShareFinite: even a pathological histogram (NaN samples fed
// directly) must not leak NaN out of HardwareShare or the stage table.
func TestHardwareShareFinite(t *testing.T) {
	bad := &sim.Histogram{}
	bad.Add(math.NaN())
	tot := &sim.Histogram{}
	tot.Add(100)
	stages := map[string]*sim.Histogram{"fault-report": bad, "total": tot}
	if got := HardwareShare(stages); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("HardwareShare = %v, want finite", got)
	}
	var b bytes.Buffer
	WriteStageTable(&b, stages)
	if strings.Contains(b.String(), "NaN") {
		t.Fatalf("NaN leaked into stage table:\n%s", b.String())
	}
}

// TestHardwareShareStillComputes sanity-checks the happy path after the
// guards: hw-stage mass, with backup-ring residency taken out of the
// fault-report stage, over total mean.
func TestHardwareShareStillComputes(t *testing.T) {
	h := func(vals ...float64) *sim.Histogram {
		hh := &sim.Histogram{}
		for _, v := range vals {
			hh.Add(v)
		}
		return hh
	}
	stages := map[string]*sim.Histogram{
		"fault-report": h(15, 15),
		"parked":       h(5, 5),
		"update":       h(20, 20),
		"resume":       h(60, 60),
		"driver":       h(10, 10),
		"total":        h(100, 100),
	}
	if got := HardwareShare(stages); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("HardwareShare = %v, want 0.9", got)
	}
}
