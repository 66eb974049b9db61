package bench

import (
	"fmt"
	"sync"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

// TestQuickRunSpanSets pins the context spans (invalidations, RC windows,
// pin acquisitions) every tracer of the quick fig3, ablate and anatomy
// runs derives from its flight recorder, and the runs' outputs.
func TestQuickRunSpanSets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick experiments")
	}
	var mu sync.Mutex
	var tracers []*trace.Tracer
	record := func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		mu.Lock()
		tracers = append(tracers, tr)
		mu.Unlock()
		return tr
	}
	var got []string
	for _, name := range []string{"fig3", "ablate", "anatomy"} {
		tracers = nil
		r := runOutput(t, &Scope{Trace: record}, name, Quick)
		if a, ok := r.(*AnatomyResult); ok {
			tracers = append(tracers, a.tracers...)
		}
		for i, tr := range tracers {
			got = append(got, fmt.Sprintf("%s/%d %s", name, i,
				tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents()))))
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
}
