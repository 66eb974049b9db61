package trace

import (
	"bytes"
	"strings"
	"testing"

	"npf/internal/sim"
)

// buildSampledRun drives a small deterministic workload under a sampler:
// a published counter incremented at 3/7/12 µs, a probe mirroring a
// variable, and a probe registered late (after sampling starts) to
// exercise zero-backfill.
func buildSampledRun(seed int64) (*Tracer, *Sampler) {
	eng := sim.NewEngine(seed)
	tr := New(eng)
	var items sim.Counter
	tr.Counter("work.items", &items)
	depth := 0
	tr.Probe("work.depth", func() float64 { return float64(depth) })
	s := tr.StartSampler(5 * sim.Microsecond)
	for _, at := range []sim.Time{us(3), us(7), us(12)} {
		eng.At(at, func() {
			items.Inc()
			depth++
			if depth == 1 {
				tr.Probe("work.late", func() float64 { return float64(depth) * 10 })
			}
		})
	}
	eng.Run()
	return tr, s
}

func TestSamplerRowsAndParking(t *testing.T) {
	tr, s := buildSampledRun(1)
	// t=0 (synchronous first sample), t=5, t=10, t=15 — and at t=15 the
	// queue is empty so the sampler parks and Run terminates.
	if got := len(s.times); got != 4 {
		t.Fatalf("rows = %d, want 4", got)
	}
	ser := s.Series()
	if ser == nil {
		t.Fatal("nil series")
	}
	wantTimes := []sim.Time{0, us(5), us(10), us(15)}
	for i, w := range wantTimes {
		if ser.Times[i] != w {
			t.Fatalf("Times[%d] = %v, want %v", i, ser.Times[i], w)
		}
	}
	if got, want := ser.Cols["work.items"], []float64{0, 1, 2, 3}; !eqF(got, want) {
		t.Fatalf("work.items = %v, want %v", got, want)
	}
	if got, want := ser.Cols["work.depth"], []float64{0, 1, 2, 3}; !eqF(got, want) {
		t.Fatalf("work.depth = %v, want %v", got, want)
	}
	// Registered after the t=0 sample: backfilled with 0.
	if got, want := ser.Cols["work.late"], []float64{0, 10, 20, 30}; !eqF(got, want) {
		t.Fatalf("work.late = %v, want %v", got, want)
	}
	if tr.Sampler() != s {
		t.Fatal("Sampler() accessor mismatch")
	}
	if tr.StartSampler(us(99)) != s {
		t.Fatal("StartSampler is not idempotent")
	}
	if s.interval != us(5) {
		t.Fatalf("interval = %v", s.interval)
	}
}

func eqF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSamplerProbesSumUnderOneName(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.Probe("pool.free", func() float64 { return 3 })
	tr.Probe("pool.free", func() float64 { return 4 })
	s := tr.StartSampler(us(5))
	if got := s.Series().Cols["pool.free"][0]; got != 7 {
		t.Fatalf("summed probe = %v, want 7", got)
	}
}

func TestSamplerMaxSamplesTruncates(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	c := sim.Counter{N: 1}
	tr.Counter("c", &c)
	s := tr.StartSampler(us(1))
	s.maxSamples = 3
	// Keep the engine busy well past 3 samples.
	for i := 1; i <= 10; i++ {
		eng.At(us(int64(i)), func() {})
	}
	eng.Run()
	if len(s.times) != 3 || !s.truncated {
		t.Fatalf("rows=%d truncated=%v, want 3/true", len(s.times), s.truncated)
	}
}

func TestSamplerExportsByteIdentical(t *testing.T) {
	_, s1 := buildSampledRun(1)
	_, s2 := buildSampledRun(1)
	for _, f := range []struct {
		name  string
		write func(*Series, *bytes.Buffer) error
	}{
		{"csv", func(s *Series, b *bytes.Buffer) error { return s.WriteCSV(b) }},
	} {
		var b1, b2 bytes.Buffer
		if err := f.write(s1.Series(), &b1); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if err := f.write(s2.Series(), &b2); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if b1.String() != b2.String() {
			t.Fatalf("%s export differs between identical runs", f.name)
		}
		if b1.Len() == 0 {
			t.Fatalf("%s export is empty", f.name)
		}
	}
	if s1.Series().Digest() != s2.Series().Digest() {
		t.Fatal("series digests differ between identical runs")
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	_, s := buildSampledRun(1)
	var b bytes.Buffer
	if err := WriteSeriesSet(&b, []*Series{s.Series()}); err != nil {
		t.Fatal(err)
	}
	set, err := ReadSeriesSet(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("parsed %d sections, want 1", len(set))
	}
	got, want := set[0], s.Series()
	if got.Interval != want.Interval {
		t.Fatalf("interval %v != %v", got.Interval, want.Interval)
	}
	if !eqStr(got.Names, want.Names) {
		t.Fatalf("names %v != %v", got.Names, want.Names)
	}
	for _, n := range want.Names {
		if !eqF(got.Cols[n], want.Cols[n]) {
			t.Fatalf("col %s: %v != %v", n, got.Cols[n], want.Cols[n])
		}
	}
}

func eqStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWriteSeriesSetOrderInvariant(t *testing.T) {
	_, sa := buildSampledRun(1)
	_, sb := buildSampledRun(7)
	a, b := sa.Series(), sb.Series()
	var fwd, rev bytes.Buffer
	if err := WriteSeriesSet(&fwd, []*Series{a, b}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSeriesSet(&rev, []*Series{b, a}); err != nil {
		t.Fatal(err)
	}
	if fwd.String() != rev.String() {
		t.Fatal("WriteSeriesSet output depends on slice order")
	}
	if DigestSeries([]*Series{a, b}) != DigestSeries([]*Series{b, a}) {
		t.Fatal("DigestSeries depends on slice order")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp sparkline = %q", got)
	}
	// Resampling takes bucket maxima so spikes stay visible.
	spike := Sparkline([]float64{0, 0, 9, 0, 0, 0, 0, 0}, 4)
	if !strings.Contains(spike, "█") {
		t.Fatalf("spike lost in resampling: %q", spike)
	}
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

// TestSamplingDoesNotPerturbWorkload pins the read-only contract: the same
// workload records identical spans and counters with and without a sampler
// (only gauges differ, since probes materialize them).
func TestSamplingDoesNotPerturbWorkload(t *testing.T) {
	run := func(sample bool) (uint64, string) {
		eng := sim.NewEngine(42)
		tr := New(eng)
		var items sim.Counter
		c := tr.Counter("work.items", &items)
		if sample {
			tr.Probe("work.probe", func() float64 { return 1 })
			tr.StartSampler(us(5))
		}
		for i := int64(1); i <= 20; i++ {
			i := i
			eng.At(us(3*i), func() {
				items.Inc()
				tr.FaultContext(FSRNRWait, eng.Now(), us(2), i, 0, 0)
			})
		}
		eng.Run()
		var spans strings.Builder
		for _, sp := range ContextSpans(tr.FaultEvents()) {
			spans.WriteString(spanLine(sp))
		}
		return c.Value(), spans.String()
	}
	cOff, spansOff := run(false)
	cOn, spansOn := run(true)
	if cOff != cOn {
		t.Fatalf("counter perturbed by sampling: %d vs %d", cOff, cOn)
	}
	if spansOff != spansOn {
		t.Fatal("event stream perturbed by sampling")
	}
}
