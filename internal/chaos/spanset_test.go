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
// scenario's tracers derive from their flight recorders, at seeds 1 and 7
// and at Engines 0 and 1. Each line also carries the report's digest and
// headline numbers, so a digest change fails here too.
func TestScenarioSpanSets(t *testing.T) {
	var tracers []*trace.Tracer
	newTracer = func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tracers = append(tracers, tr)
		return tr
	}
	defer func() { newTracer, Engines = trace.New, 0 }()
	var got []string
	for _, engines := range []int{0, 1} {
		Engines = engines
		for _, seed := range []int64{1, 7} {
			for _, sc := range Scenarios() {
				tracers = nil
				r := sc.Run(seed)
				for i, tr := range tracers {
					got = append(got, fmt.Sprintf("%s/seed%d/e%d/%d %s | digest=%016x delivered=%d npfs=%d retx=%d sim=%v",
						sc.Name, seed, engines, i,
						tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents())),
						r.Digest, r.Delivered, r.NPFs, r.Retransmits, r.SimSeconds))
				}
			}
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
}
