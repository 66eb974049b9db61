package chaos

import (
	"strings"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
)

// sampling is a tracer factory that starts each tracer's sampler at the
// given virtual-time interval, as npfbench's -series factory does.
func sampling(every sim.Time) func(*sim.Engine) *trace.Tracer {
	return func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tr.StartSampler(every)
		return tr
	}
}

// TestScenarioSeriesReplayByteIdentical extends the chaos replay contract to
// time-series output: two runs of the same scenario with the same seed must
// produce byte-identical Report.Series, and enabling sampling must not
// change whether the invariants pass.
func TestScenarioSeriesReplayByteIdentical(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			o := Options{Trace: sampling(250 * sim.Microsecond)}
			a, b := sc.Run(7, o), sc.Run(7, o)
			if !a.Pass {
				t.Fatalf("scenario failed with sampling on:\n%s", a.Render())
			}
			if a.Series == "" {
				t.Fatal("sampling on but Report.Series is empty")
			}
			if a.Series != b.Series {
				t.Fatalf("series replay differs:\n--- run 1 ---\n%.2000s\n--- run 2 ---\n%.2000s", a.Series, b.Series)
			}
			if a.Digest != b.Digest {
				t.Fatalf("digest replay differs: %016x vs %016x", a.Digest, b.Digest)
			}
			if !strings.Contains(a.Series, "time_us,") {
				t.Fatalf("series is not a CSV section:\n%.500s", a.Series)
			}
		})
	}
}

// TestSamplingOffLeavesSeriesEmpty pins the default: scenarios run without
// a sampling tracer factory must not pay for (or report) a series.
func TestSamplingOffLeavesSeriesEmpty(t *testing.T) {
	r := Scenarios()[0].Run(1, Options{})
	if r.Series != "" {
		t.Fatalf("Series populated without a sampler:\n%.300s", r.Series)
	}
}
