package main

import (
	"flag"
	"fmt"
	"testing"

	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

var update = flag.Bool("update", false, "rewrite testdata/spansets.golden")

// TestScenarioSpanSets pins the context spans the single, fig3 and backup
// scenarios derive from their flight recorders, at seeds 1 and 7.
func TestScenarioSpanSets(t *testing.T) {
	var got []string
	for _, seed := range []int64{1, 7} {
		for _, sc := range []struct {
			name string
			run  func() *trace.Tracer
		}{
			{"single", func() *trace.Tracer { return runIB(seed, 1, 4096) }},
			{"fig3", func() *trace.Tracer { return runIB(seed, 50, 4096) }},
			{"backup", func() *trace.Tracer { return runBackup(seed) }},
		} {
			tr := sc.run()
			got = append(got, fmt.Sprintf("%s/seed%d %s", sc.name, seed,
				tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents()))))
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
}
