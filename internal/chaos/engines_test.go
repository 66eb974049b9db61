package chaos

import (
	"testing"

	"npf/internal/sim"
)

// TestScenariosEnginesDeterminism extends the chaos replay contract to the
// partitioned testbeds: every scenario must pass its invariants under the
// PDES topology, and — since the partition structure is fixed — produce
// identical reports for every Options.Engines value (which only changes the worker
// thread count). Running under -race additionally checks the engine
// threads' isolation.
func TestScenariosEnginesDeterminism(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Run(7, Options{Engines: 1, Trace: sampling(250 * sim.Microsecond)})
			b := sc.Run(7, Options{Engines: 2, Trace: sampling(250 * sim.Microsecond)})
			if !a.Pass {
				t.Fatalf("scenario failed partitioned:\n%s", a.Render())
			}
			if a.Digest != b.Digest || a.Series != b.Series {
				t.Fatalf("engine counts diverged: digest %016x vs %016x",
					a.Digest, b.Digest)
			}
			if a.Delivered != b.Delivered || a.NPFs != b.NPFs ||
				a.InjectedDrops != b.InjectedDrops || a.Retransmits != b.Retransmits ||
				a.KVOps != b.KVOps || a.Failovers != b.Failovers ||
				a.SimSeconds != b.SimSeconds {
				t.Fatalf("engine counts diverged:\n%s\nvs\n%s", a.Render(), b.Render())
			}
		})
	}
}
