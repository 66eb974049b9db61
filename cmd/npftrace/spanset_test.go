package main

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"npf/internal/bench"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestScenarioSpanSets pins the context spans the single, fig3 and backup
// scenarios derive from their flight recorders, at seeds 1 and 7, and
// their printed reports in the output manifest.
func TestScenarioSpanSets(t *testing.T) {
	var got []string
	var outs []tracetest.Output
	for _, seed := range []int64{1, 7} {
		for _, sc := range []struct {
			name string
			run  func(*bench.Scope) *trace.Tracer
		}{
			{"single", func(s *bench.Scope) *trace.Tracer { return runIB(s, seed, 1, 4096) }},
			{"fig3", func(s *bench.Scope) *trace.Tracer { return runIB(s, seed, 50, 4096) }},
			{"backup", func(s *bench.Scope) *trace.Tracer { return runBackup(s, seed) }},
		} {
			scope := &bench.Scope{Trace: trace.New}
			tr := sc.run(scope)
			engines, events := scope.Stats()
			got = append(got, fmt.Sprintf("%s/seed%d %s", sc.name, seed,
				tracetest.SpanSet(trace.ContextSpans(tr.FaultEvents()))))
			var b strings.Builder
			report(&b, sc.name, tr, 5)
			outs = append(outs, tracetest.Output{Name: sc.name, Sizing: fmt.Sprintf("seed%d", seed),
				Engines: engines, Events: events, Render: b.String()})
		}
	}
	tracetest.Check(t, "testdata/spansets.golden", got, *update)
	tracetest.CheckOutputs(t, "testdata/outputs.golden", *update, outs...)
}
