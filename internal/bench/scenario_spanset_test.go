package bench

import (
	"fmt"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

// TestScenarioSpanSets pins the context spans (invalidations, retx
// episodes, RC windows, pin acquisitions, chaos windows) that every
// scenario's tracers derive from their flight recorders, at seeds 1 and 7.
// Each line also carries the report's digest and
// headline numbers, so a digest change fails here too, and each report is
// pinned in the scenario output manifest.
func TestScenarioSpanSets(t *testing.T) {
	t.Parallel()
	var tracers []*trace.Tracer
	record := func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tracers = append(tracers, tr)
		return tr
	}
	var got []string
	var outs []tracetest.Output
	for _, seed := range []int64{1, 7} {
		for _, sc := range Scenarios() {
			tracers = nil
			s := &Scope{Trace: record}
			r := sc.Run(seed, s)
			for i, tr := range tracers {
				got = append(got, fmt.Sprintf("%s/seed%d/e0/%d %s | digest=%016x delivered=%d npfs=%d retx=%d sim=%v",
					sc.Name, seed, i,
					tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents())),
					r.Digest, r.Delivered, r.NPFs, r.Retransmits, r.SimSeconds))
			}
			n, events := s.Stats()
			outs = append(outs, tracetest.Output{Name: sc.Name, Sizing: fmt.Sprintf("seed%d", seed),
				Engines: n, Events: events, Render: r.Render()})
		}
	}
	tracetest.Check(t, "testdata/chaos_spansets.golden", got, *update)
	tracetest.CheckOutputs(t, "testdata/chaos_outputs.golden", *update, outs...)
}
