package bench

import (
	"encoding/json"
	"testing"

	"npf/internal/artifact"
	"npf/internal/trace/tracetest"
)

// The output manifest, testdata/outputs.golden, holds one line per run the
// tests below already make: the shape tests at the Test sizing, the quick
// runs of the span-set test and the scaleout thread-budget runs. Each line
// pins the engines and events of the run and digests of its rendered text
// and artifact rows, so a change that moves any output fails the test that
// ran it, naming the output. `go test -update` rewrites the lines of the
// tests that ran; only do that for an intended change, and explain every
// changed line.

const outputsGolden = "testdata/outputs.golden"

// checkOutput runs run on scope s, which must be fresh, checks its
// manifest line and returns it.
func checkOutput(t *testing.T, s *Scope, name, sizing string, run func(*Scope) Result) tracetest.Output {
	t.Helper()
	o, err := scopeOutput(s, name, sizing, run(s))
	if err != nil {
		t.Fatal(err)
	}
	tracetest.CheckOutputs(t, outputsGolden, *update, o)
	return o
}

// scopeOutput is the manifest line of r, the result of a run on scope s.
func scopeOutput(s *Scope, name, sizing string, r Result) (tracetest.Output, error) {
	engines, events := s.Stats()
	o := tracetest.Output{Name: name, Sizing: sizing, Flag: s.Workers,
		Engines: engines, Events: events, Render: r.Render()}
	if rec, ok := r.(Recorder); ok {
		var doc rowsDoc
		rec.Record(&doc.Artifact)
		rows, err := json.Marshal(doc)
		if err != nil {
			return o, err
		}
		o.Rows = rows
	}
	return o, nil
}

// rowsDoc is the document a manifest line's rows digest covers: the
// run's artifact sections behind a zero "engines" field, the top-level
// field npfbench's artifact carried when the manifests' rows were pinned.
// Keeping the field keeps every rows digest, so only a change to a
// section's rows moves a line.
type rowsDoc struct {
	Engines int `json:"engines"`
	artifact.Artifact
}

// tableRun returns a run of the named entry of Experiments at sizing z.
func tableRun(t *testing.T, name string, z Sizing) func(*Scope) Result {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	return func(s *Scope) Result {
		r, err := e.Run(s, z)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// runOutput runs the named entry of Experiments at sizing z on scope s,
// which must be fresh, through checkOutput and returns its result.
func runOutput(t *testing.T, s *Scope, name string, z Sizing) Result {
	t.Helper()
	var r Result
	run := tableRun(t, name, z)
	checkOutput(t, s, name, z.String(), func(s *Scope) Result { r = run(s); return r })
	return r
}

// text is a Result for an output that is already text.
type text string

func (s text) Render() string { return string(s) }
