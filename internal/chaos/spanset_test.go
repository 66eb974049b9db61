package chaos

import (
	"flag"
	"fmt"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

var update = flag.Bool("update", false, "rewrite testdata/spansets.golden")

// TestScenarioSpanSets pins the context spans (invalidations, retx
// episodes, RC windows, pin acquisitions, chaos windows) that every
// scenario's tracers derive from their flight recorders, at seeds 1 and 7.
func TestScenarioSpanSets(t *testing.T) {
	var tracers []*trace.Tracer
	newTracer = func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tracers = append(tracers, tr)
		return tr
	}
	defer func() { newTracer = trace.New }()
	var got []string
	for _, seed := range []int64{1, 7} {
		for _, sc := range Scenarios() {
			tracers = nil
			sc.Run(seed)
			for i, tr := range tracers {
				got = append(got, fmt.Sprintf("%s/seed%d/%d %s", sc.Name, seed, i,
					tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents()))))
			}
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
}
