package bench

import (
	"testing"

	"npf/internal/sim"
)

// TestScenariosEnginesDeterminism extends the chaos replay contract to the
// thread budget: every testbed runs on one engine at every Scope.Workers
// value, so each scenario must pass its invariants and produce identical
// reports at Workers 0 and 2.
func TestScenariosEnginesDeterminism(t *testing.T) {
	t.Parallel()
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Run(7, &Scope{Trace: sampling(250 * sim.Microsecond)})
			b := sc.Run(7, &Scope{Workers: 2, Trace: sampling(250 * sim.Microsecond)})
			if !a.Pass {
				t.Fatalf("scenario failed:\n%s", a.Render())
			}
			if a.Digest != b.Digest || a.Series != b.Series {
				t.Fatalf("Workers 0 and 2 diverged: digest %016x vs %016x",
					a.Digest, b.Digest)
			}
			if a.Delivered != b.Delivered || a.NPFs != b.NPFs ||
				a.InjectedDrops != b.InjectedDrops || a.Retransmits != b.Retransmits ||
				a.KVOps != b.KVOps || a.Failovers != b.Failovers ||
				a.SimSeconds != b.SimSeconds {
				t.Fatalf("Workers 0 and 2 diverged:\n%s\nvs\n%s", a.Render(), b.Render())
			}
		})
	}
}
