package chaos

import (
	"flag"
	"fmt"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestScenarioSpanSets pins the context spans (invalidations, retx
// episodes, RC windows, pin acquisitions, chaos windows) that every
// scenario's tracers derive from their flight recorders, at seeds 1 and 7
// and at Engines 0 and 1. Each line also carries the report's digest and
// headline numbers, so a digest change fails here too, and each report is
// pinned in the output manifest.
func TestScenarioSpanSets(t *testing.T) {
	var tracers []*trace.Tracer
	var engs []*sim.Engine
	record := func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tracers = append(tracers, tr)
		engs = append(engs, eng)
		return tr
	}
	var got []string
	var outs []tracetest.Output
	for _, engines := range []int{0, 1} {
		for _, seed := range []int64{1, 7} {
			for _, sc := range Scenarios() {
				tracers, engs = nil, nil
				r := sc.Run(seed, Options{Engines: engines, Trace: record})
				for i, tr := range tracers {
					got = append(got, fmt.Sprintf("%s/seed%d/e%d/%d %s | digest=%016x delivered=%d npfs=%d retx=%d sim=%v",
						sc.Name, seed, engines, i,
						tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents())),
						r.Digest, r.Delivered, r.NPFs, r.Retransmits, r.SimSeconds))
				}
				n, events := testbedSize(engs)
				outs = append(outs, tracetest.Output{Name: sc.Name, Sizing: fmt.Sprintf("seed%d", seed),
					Flag: engines, Engines: n, Events: events, Render: r.Render()})
			}
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
	tracetest.CheckOutputs(t, "testdata/outputs.golden", *update, outs...)
}

// testbedSize counts the engines of the testbeds the traced engines belong
// to, each group once, and the events they executed.
func testbedSize(engs []*sim.Engine) (engines int, events uint64) {
	seen := map[*sim.Group]bool{}
	for _, eng := range engs {
		if g := eng.Group(); !seen[g] {
			seen[g] = true
			engines += g.Parts()
			events += g.Executed()
		}
	}
	return engines, events
}
