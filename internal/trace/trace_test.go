package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"npf/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

func TestSpanLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	var root, child SpanID
	eng.After(us(10), func() {
		root = tr.Begin(0, "npf", "recv-rnpf")
		tr.ArgInt(root, "pages", 4)
	})
	eng.After(us(15), func() {
		child = tr.Begin(root, "npf.stage", "driver")
	})
	eng.After(us(20), func() { tr.End(child) })
	eng.After(us(30), func() { tr.End(root) })
	eng.Run()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	r, c := spans[0], spans[1]
	if r.ID != root || r.Parent != 0 || r.Cat != "npf" || r.Name != "recv-rnpf" {
		t.Errorf("bad root span: %+v", r)
	}
	if r.Start != us(10) || r.End != us(30) || r.Dur() != us(20) {
		t.Errorf("root times: start=%v end=%v", r.Start, r.End)
	}
	if len(r.Args) != 1 || r.Args[0].Key != "pages" || r.Args[0].Val != "4" {
		t.Errorf("root args: %+v", r.Args)
	}
	if c.Parent != root || c.Start != us(15) || c.End != us(20) {
		t.Errorf("bad child span: %+v", c)
	}
}

func TestRetrospectiveSpanAndOpenSpans(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	id := tr.Span(0, "inv", "invalidate", us(5), us(9))
	s := tr.Spans()[0]
	if s.ID != id || s.Start != us(5) || s.End != us(9) {
		t.Fatalf("retrospective span: %+v", s)
	}
	open := tr.Begin(0, "tcp", "retx-episode")
	if got := tr.Spans()[1]; !got.Open() {
		t.Fatalf("span %d should be open: %+v", open, got)
	}
}

func TestSpanCapDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.MaxSpans = 2
	a := tr.Begin(0, "x", "a")
	b := tr.Begin(0, "x", "b")
	c := tr.Begin(0, "x", "c")
	if a == 0 || b == 0 {
		t.Fatalf("first two spans should record: %d %d", a, b)
	}
	if c != 0 {
		t.Fatalf("over-cap Begin should return 0, got %d", c)
	}
	if tr.DroppedSpans() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.DroppedSpans())
	}
	// Operations on the zero ID are no-ops, not panics.
	tr.End(c)
	tr.ArgInt(c, "k", 1)
	tr.ArgStr(c, "k", "v")
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Begin(0, "npf", "x")
	if id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	tr.End(id)
	tr.ArgInt(id, "k", 1)
	src := sim.Counter{N: 3}
	if c := tr.Counter("c", &src); c != nil {
		t.Fatal("nil tracer returned non-nil counter")
	}
	var cnt *Counter
	if cnt.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h sim.Histogram
	h.AddTime(us(5))
	tr.Latency("l", &h)
	if got := tr.MetricsSnapshot(); got != "" {
		t.Fatalf("nil snapshot = %q", got)
	}
	if tr.Spans() != nil || tr.SpanCount() != 0 {
		t.Fatal("nil tracer has spans")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

// zeroProbe is a package-level probe fn so the alloc tests below measure
// the nil tracer's Probe path, not closure construction at the call site.
func zeroProbe() float64 { return 0 }

// TestTracerDisabledNoAlloc is the contract the instrumented hot paths rely
// on: a disabled (nil) tracer allocates nothing — including the sampler
// surface, since SetTracer registers probes unconditionally.
func TestTracerDisabledNoAlloc(t *testing.T) {
	var tr *Tracer
	var x sim.Counter
	var h sim.Histogram
	s := tr.StartSampler(us(10))
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("enabled")
		}
		id := tr.Begin(0, "npf", "recv-rnpf")
		tr.ArgInt(id, "pages", 4)
		tr.End(id)
		c := tr.Counter("core.npfs", &x)
		if c.Value() != 0 {
			t.Fatal("nil counter has a value")
		}
		tr.Latency("core.npf_total_us", &h)
		tr.Probe("nic.rx_ring_occupancy", zeroProbe)
		fid := MintFaultID(2, 7)
		tr.FaultMinted(fid, "rx-drop", us(1), 1, 0, 4)
		tr.FaultStageAt(fid, FSReport, us(1), us(2), 0, 0)
		tr.FaultContext(FSInvalidate, us(3), us(1), 0, 0)
		tr.FaultDone(fid, us(9))
		if tr.FaultRecordCount() != 0 || tr.PendingFaults() != 0 {
			t.Fatal("nil tracer recorded a fault")
		}
		if tr.DroppedFaultEvents() != 0 || tr.DroppedFaultRecords() != 0 || tr.DroppedSpans() != 0 {
			t.Fatal("nil tracer dropped something")
		}
		s.SetMaxSamples(4)
		if s.Len() != 0 || s.Truncated() || s.Interval() != 0 || s.Series() != nil {
			t.Fatal("nil sampler is not inert")
		}
		if tr.Sampler() != nil {
			t.Fatal("nil tracer has a sampler")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per op, want 0", allocs)
	}
}

func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	var x sim.Counter
	var h sim.Histogram
	s := tr.StartSampler(us(10))
	b.ReportAllocs()
	fid := MintFaultID(2, 7)
	for i := 0; i < b.N; i++ {
		id := tr.Begin(0, "npf", "recv-rnpf")
		tr.ArgInt(id, "pages", 4)
		tr.End(id)
		_ = tr.Counter("core.npfs", &x).Value()
		tr.Latency("core.npf_total_us", &h)
		tr.Probe("nic.rx_ring_occupancy", zeroProbe)
		tr.FaultMinted(fid, "rx-drop", us(1), 1, 0, 4)
		tr.FaultStageAt(fid, FSReport, us(1), us(2), 0, 0)
		tr.FaultContext(FSInvalidate, us(3), us(1), 0, 0)
		tr.FaultDone(fid, us(9))
		s.SetMaxSamples(4)
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	tr.MaxSpans = 0 // unlimited
	var npfs sim.Counter
	c := tr.Counter("core.npfs", &npfs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(0, "npf", "recv-rnpf")
		tr.ArgInt(id, "pages", 4)
		tr.End(id)
		npfs.Inc()
		_ = c.Value()
	}
}

func TestMetricsSnapshotSortedAndStable(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	// Register out of order; snapshot must sort within each kind.
	last, first := sim.Counter{N: 2}, sim.Counter{N: 1}
	tr.Counter("z.last", &last)
	tr.Counter("a.first", &first)
	tr.Probe("m.depth", func() float64 { return 3.5 })
	tr.StartSampler(us(5))
	var lat sim.Histogram
	lat.AddTime(us(10))
	lat.AddTime(us(20))
	tr.Latency("k.lat_us", &lat)
	s1 := tr.MetricsSnapshot()
	s2 := tr.MetricsSnapshot()
	if s1 != s2 {
		t.Fatal("snapshot not stable across calls")
	}
	lines := strings.Split(strings.TrimSpace(s1), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), s1)
	}
	if !strings.HasPrefix(lines[0], "counter a.first") ||
		!strings.HasPrefix(lines[1], "counter z.last") {
		t.Fatalf("counters not sorted:\n%s", s1)
	}
	if !strings.HasPrefix(lines[2], "gauge   m.depth") || !strings.Contains(lines[2], "3.500") {
		t.Fatalf("gauge line wrong: %s", lines[2])
	}
	if !strings.Contains(lines[3], "n=2") || !strings.Contains(lines[3], "mean=15.000") {
		t.Fatalf("latency line wrong: %s", lines[3])
	}
	// Same-name handles share state, and the handle reads the published
	// field live.
	first.Inc()
	if tr.Counter("a.first").Value() != 2 {
		t.Fatal("counter handle not shared")
	}
}

// TestPublishedSourcesSum pins the registry's aggregation: fields published
// under one name sum (counters) or merge (latencies), nil sources are
// skipped, and publishing one field twice counts it once.
func TestPublishedSourcesSum(t *testing.T) {
	tr := New(sim.NewEngine(1))
	a, b := sim.Counter{N: 2}, sim.Counter{N: 5}
	tr.Counter("c", &a)
	tr.Counter("c", &b, nil)
	c := tr.Counter("c", &a)
	if got := c.Value(); got != 7 {
		t.Fatalf("summed counter = %d, want 7", got)
	}
	var h1, h2 sim.Histogram
	h1.Add(10)
	h2.Add(30)
	tr.Latency("l_us", &h1)
	tr.Latency("l_us", &h2, &h1, nil)
	if snap := tr.MetricsSnapshot(); !strings.Contains(snap, "n=2 mean=20.000") {
		t.Fatalf("merged latency wrong:\n%s", snap)
	}
	if h1.Count() != 1 || h2.Count() != 1 {
		t.Fatal("snapshot modified a published histogram")
	}
}

// buildScenario records an identical synthetic workload on a fresh tracer;
// used to check byte-reproducibility of the exports.
func buildScenario(t *testing.T) *Tracer {
	t.Helper()
	eng := sim.NewEngine(42)
	tr := New(eng)
	var npfs sim.Counter
	var inv sim.Histogram
	tr.Counter("core.npfs", &npfs)
	tr.Latency("core.inv_mapped_us", &inv)
	for i := 0; i < 20; i++ {
		base := us(int64(i * 300))
		id := MintFaultID(1, uint64(i+1))
		tr.FaultMinted(id, "recv-rnpf", base, 0, 1, i%3+1)
		tr.FaultStageAt(id, FSReport, base, us(133), 0, 0)
		tr.FaultStageAt(id, FSDriver, base+us(133), us(5), int64(i%3+1), 0)
		tr.FaultStageAt(id, FSUpdate, base+us(138), us(35), 0, 0)
		tr.FaultStageAt(id, FSResume, base+us(173), us(40), 0, 0)
		tr.FaultDone(id, base+us(213))
		npfs.Inc()
		inv.AddTime(us(48))
	}
	tr.Begin(0, "tcp", "retx-episode") // leave one open
	return tr
}

func TestExportsByteIdentical(t *testing.T) {
	a, b := buildScenario(t), buildScenario(t)
	var ja, jb bytes.Buffer
	if err := a.WriteChromeTrace(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatal("Chrome traces differ between identical runs")
	}
	if a.MetricsSnapshot() != b.MetricsSnapshot() {
		t.Fatal("metric snapshots differ between identical runs")
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ja.Bytes(), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 20 derived NPF trees × 5 spans + 1 recorded open span + process meta
	// + 21 thread metas.
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}
	var xs, ms int
	for _, e := range decoded.TraceEvents {
		switch e["ph"] {
		case "X":
			xs++
		case "M":
			ms++
		}
	}
	if xs != 101 {
		t.Errorf("got %d X events, want 101", xs)
	}
	if ms != 22 {
		t.Errorf("got %d M events, want 22", ms)
	}
}

func TestReportHelpers(t *testing.T) {
	tr := buildScenario(t)
	recs := tr.FaultRecords()
	spans := FaultSpans(recs)

	top := TopSlowest(spans, "npf", 3)
	if len(top) != 3 {
		t.Fatalf("top-k returned %d", len(top))
	}
	for _, r := range top {
		if r.Dur != us(213) {
			t.Errorf("slowest NPF dur %v, want 213us", r.Dur)
		}
	}
	// Ties break on span ID: earliest first.
	if top[0].Span.ID > top[1].Span.ID {
		t.Error("tie-break not by span ID")
	}

	stages := FaultStageBreakdown(recs)
	if got := stages["total"].Count(); got != 20 {
		t.Fatalf("total count %d, want 20", got)
	}
	if got := stages["fault-report"].Mean(); got != 133 {
		t.Fatalf("fault-report mean %v", got)
	}
	share := HardwareShare(stages)
	want := (133.0 + 35 + 40) / 213
	if share < want-0.001 || share > want+0.001 {
		t.Fatalf("hardware share %.4f, want %.4f", share, want)
	}

	var tree bytes.Buffer
	WriteTree(&tree, spans)
	WriteTree(&tree, tr.Spans())
	out := tree.String()
	if !strings.Contains(out, "recv-rnpf") || !strings.Contains(out, "fault-report") {
		t.Fatalf("tree missing spans:\n%s", out)
	}
	if !strings.Contains(out, "open") {
		t.Fatalf("tree should mark the open span:\n%s", out)
	}
}
