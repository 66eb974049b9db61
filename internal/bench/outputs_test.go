package bench

import (
	"encoding/json"
	"testing"

	"npf/internal/artifact"
	"npf/internal/trace/tracetest"
)

// The output manifest, testdata/outputs.golden, holds one line per run the
// tests below already make: the shape tests at the Test sizing, the quick
// runs of the span-set test and the -engines determinism runs. Each line
// pins the engines and events of the run and digests of its rendered text
// and artifact rows, so a change that moves any output fails the test that
// ran it, naming the output. `go test -update` rewrites the lines of the
// tests that ran; only do that for an intended change, and explain every
// changed line.

const outputsGolden = "testdata/outputs.golden"

// checkOutput runs run with engine statistics on, checks its manifest line
// and returns it.
func checkOutput(t *testing.T, name, sizing string, run func() Result) tracetest.Output {
	t.Helper()
	StartEngineStats()
	r := run()
	engines, events := StopEngineStats()
	o := tracetest.Output{Name: name, Sizing: sizing, Flag: Engines,
		Engines: engines, Events: events, Render: r.Render()}
	if rec, ok := r.(Recorder); ok {
		var doc artifact.Artifact
		rec.Record(&doc)
		rows, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		o.Rows = rows
	}
	tracetest.CheckOutputs(t, outputsGolden, *update, o)
	return o
}

// tableRun returns a run of the named entry of Experiments at sizing s.
func tableRun(t *testing.T, name string, s Sizing) func() Result {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	return func() Result {
		r, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// runOutput runs the named entry of Experiments at sizing s through
// checkOutput and returns its result.
func runOutput(t *testing.T, name string, s Sizing) Result {
	t.Helper()
	var r Result
	run := tableRun(t, name, s)
	checkOutput(t, name, s.String(), func() Result { r = run(); return r })
	return r
}

// text is a Result for an output that is already text.
type text string

func (s text) Render() string { return string(s) }
