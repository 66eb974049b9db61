package bench

import (
	"strings"
	"testing"

	"npf/internal/core"
	"npf/internal/sim"
)

// runForcedFailure drives a small cold-ring workload (plenty of NPFs for
// the flight recorder) and seals the report with check(ok, ...) injected
// before finish, so the test controls whether an invariant "failed".
func runForcedFailure(seed int64, ok bool) *Report {
	r := &Report{Scenario: "forced", Seed: seed}
	e := newChaosEthEnv(nil, seed, 32, core.DefaultConfig(), 0)
	ethTraffic(e, r, 50, 2000, sim.Millisecond, 20*sim.Microsecond, 120*sim.Second)
	r.check(ok, "forced invariant failure")
	return r.finish(e.tr)
}

// TestFailingReportCarriesFlightRecorder pins the chaos flight-recorder
// contract: a report with a failed invariant carries the rendered excerpt of
// the last causal fault events plus its digest, Render prints it, and a
// passing run of the identical scenario carries nothing.
func TestFailingReportCarriesFlightRecorder(t *testing.T) {
	t.Parallel()
	fail := runForcedFailure(7, false)
	if fail.Pass {
		t.Fatal("forced failure reported Pass")
	}
	if fail.FlightRecorder == "" {
		t.Fatal("failing report has empty flight-recorder excerpt")
	}
	if fail.FlightEvents <= 0 || fail.FlightEvents > flightExcerptEvents {
		t.Fatalf("FlightEvents = %d, want 1..%d", fail.FlightEvents, flightExcerptEvents)
	}
	if fail.FlightDigest == 0 {
		t.Fatal("failing report has zero flight digest")
	}
	if !strings.Contains(fail.FlightRecorder, "fault") {
		t.Fatalf("excerpt does not look like fault events:\n%s", fail.FlightRecorder)
	}
	out := fail.Render()
	if !strings.Contains(out, "flight recorder: last") {
		t.Fatalf("Render does not print the flight recorder:\n%s", out)
	}
	if !strings.Contains(out, "FAIL: forced invariant failure") {
		t.Fatalf("Render lost the failure line:\n%s", out)
	}

	// Same seed, same scenario, invariant passing: no excerpt attached.
	pass := runForcedFailure(7, true)
	if !pass.Pass {
		t.Fatalf("control run failed: %v", pass.Failures)
	}
	if pass.FlightRecorder != "" || pass.FlightEvents != 0 || pass.FlightDigest != 0 {
		t.Fatal("passing report carries a flight-recorder excerpt")
	}
	if strings.Contains(pass.Render(), "flight recorder") {
		t.Fatal("passing Render prints a flight recorder")
	}

	// Byte-identical replay: the excerpt and digest are deterministic.
	again := runForcedFailure(7, false)
	if again.FlightRecorder != fail.FlightRecorder || again.FlightDigest != fail.FlightDigest {
		t.Fatal("flight-recorder excerpt is not replay-identical")
	}
}
