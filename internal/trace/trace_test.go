package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"npf/internal/sim"
)

func us(n int64) sim.Time { return sim.Time(n) * sim.Microsecond }

// spanLine renders a span as "cat/name start-end k=v ..." in µs.
func spanLine(s Span) string {
	line := s.Cat + "/" + s.Name + " " + itoa(int64(s.Start/sim.Microsecond)) + "-" + itoa(int64(s.End/sim.Microsecond))
	for _, a := range s.Args {
		line += " " + a.Key + "=" + a.Val
	}
	return line
}

// TestContextSpans pins the derivation of the non-NPF spans from the
// flight recorder's context events: one row per context stage, plus the
// encodings a stage folds into its annotations and the view's order.
func TestContextSpans(t *testing.T) {
	rows := []struct {
		name   string
		max    int // maxFaultEvents; 0 = default
		record func(tr *Tracer)
		want   []string
	}{
		{"invalidate", 0, func(tr *Tracer) {
			tr.FaultContext(FSInvalidate, us(10), us(2), 100, 3, 4)
		}, []string{"inv/invalidate 10-12 first=100 count=4 removed=3"}},
		{"invalidate-dup", 0, func(tr *Tracer) {
			tr.FaultContext(FSInvalidate, us(10), us(1), 100, -3-1, 4)
		}, []string{"inv/invalidate-dup 10-11 first=100 count=4 removed=3"}},
		{"retx-episode", 0, func(tr *Tracer) {
			tr.FaultContext(FSRetx, us(20), us(300), 5, 2, 0)
		}, []string{"tcp/retx-episode 20-320 conn=5 retries=2"}},
		{"retx-failed", 0, func(tr *Tracer) {
			tr.FaultContext(FSRetx, us(20), us(900), 5, -1, 0)
		}, []string{"tcp/retx-episode 20-920 conn=5 result=failed"}},
		{"pin-acquire", 0, func(tr *Tracer) {
			tr.FaultContext(FSPinAcquire, us(1), us(7), 8, 2, 0)
		}, []string{"pin/acquire 1-8 pages=8 evicted=2"}},
		{"rnr-wait", 0, func(tr *Tracer) {
			tr.FaultContext(FSRNRWait, us(4), us(10), 17, 3, 0)
		}, []string{"rc/rnr-wait 4-14 qpn=17 rewound=3"}},
		{"read-rnr-pause", 0, func(tr *Tracer) {
			tr.FaultContext(FSReadPause, us(4), us(6), 9, 0, 0)
		}, []string{"rc/read-rnr-pause 4-10 req=9"}},
		{"read-drop-window", 0, func(tr *Tracer) {
			tr.FaultContext(FSReadDrop, us(4), us(6), 9, 8192, 0)
		}, []string{"rc/read-drop-window 4-10 req=9 off=8192"}},
		{"chaos", 0, func(tr *Tracer) {
			for k := ChaosFirmwareStall; k < numChaosKinds; k++ {
				tr.FaultContext(FSChaos, us(int64(k)), us(1), 11, 22, int32(k))
			}
		}, []string{
			"chaos/firmware-stall 0-1",
			"chaos/loss-burst 1-2 prob_ppm=11",
			"chaos/gilbert-elliott 2-3",
			"chaos/link-flap 3-4 node=11",
			"chaos/pressure-wave 4-5 evicted_bytes=11",
			"chaos/inv-duplicate 5-6 first=11 count=22",
			"chaos/resolver-timeout 6-7 attempt=11 pages=22",
			"chaos/callback 7-8",
		}},
		{"no-span-events", 0, func(tr *Tracer) {
			tr.FaultContext(FSReclaim, us(1), us(1), 7, 0, 0)
			id := MintFaultID(1, 1)
			tr.FaultMinted(id, "tx", us(1), -1, 0, 1)
			tr.FaultStageAt(id, FSDriver, us(1), us(2), 1, 0)
			tr.FaultDone(id, us(3))
		}, nil},
		// Intervals recorded at their end (retx, read windows) carry their
		// start, so the view sorts by start; the ring keeps its newest
		// three events after wrapping.
		{"ascending-after-wrap", 3, func(tr *Tracer) {
			tr.FaultContext(FSRNRWait, us(1), us(1), 1, 0, 0)
			tr.FaultContext(FSRNRWait, us(5), us(1), 2, 0, 0)
			tr.FaultContext(FSInvalidate, us(9), us(1), 3, 0, 1)
			tr.FaultContext(FSReadPause, us(2), us(20), 4, 0, 0)
			tr.FaultContext(FSRNRWait, us(9), us(1), 5, 0, 0)
		}, []string{
			"rc/read-rnr-pause 2-22 req=4",
			"inv/invalidate 9-10 first=3 count=1 removed=0",
			"rc/rnr-wait 9-10 qpn=5 rewound=0",
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tr := New(sim.NewEngine(1))
			if row.max > 0 {
				tr.maxFaultEvents = row.max
			}
			row.record(tr)
			spans := ContextSpans(tr.FaultEvents())
			var got []string
			for i, s := range spans {
				if s.ID != SpanID(i+1) || s.Parent != 0 {
					t.Errorf("span %d: ID %d parent %d, want ID %d root", i, s.ID, s.Parent, i+1)
				}
				got = append(got, spanLine(s))
			}
			if strings.Join(got, "\n") != strings.Join(row.want, "\n") {
				t.Errorf("ContextSpans:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(row.want, "\n"))
			}
		})
	}
}

// TestFaultEventSize pins the flight-recorder entry at 48 bytes: the ring
// is a long capture's largest live object, and C fits in Stage's padding.
func TestFaultEventSize(t *testing.T) {
	if got := unsafe.Sizeof(FaultEvent{}); got != 48 {
		t.Fatalf("FaultEvent is %d bytes, want 48", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.FaultContext(FSPinAcquire, us(1), us(2), 8, 0, 0)
	tr.FaultContext(FSChaos, us(1), us(2), 0, 0, int32(ChaosLinkFlap))
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
	if tr.FaultEvents() != nil || ContextSpans(tr.FaultEvents()) != nil {
		t.Fatal("nil tracer has events")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

// TestHandlesExportNoFields keeps the nil-handle contract a compile-time
// property: a disabled tracer hands out nil *Tracer, *Sampler and *Counter,
// so an exported field would let a caller outside this package dereference
// nil where every method is nil-safe.
func TestHandlesExportNoFields(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeFor[Tracer](),
		reflect.TypeFor[Sampler](),
		reflect.TypeFor[Counter](),
	} {
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				t.Errorf("%s exports field %s", typ, f.Name)
			}
		}
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
		c := tr.Counter("core.npfs", &x)
		if c.Value() != 0 {
			t.Fatal("nil counter has a value")
		}
		tr.Latency("core.npf_total_us", &h)
		tr.Probe("nic.rx_ring_occupancy", zeroProbe)
		fid := MintFaultID(2, 7)
		tr.FaultMinted(fid, "rx-drop", us(1), 1, 0, 4)
		tr.FaultStageAt(fid, FSReport, us(1), us(2), 0, 0)
		tr.FaultContext(FSInvalidate, us(3), us(1), 0, 0, 1)
		tr.FaultContext(FSPinAcquire, us(3), us(1), 4, 0, 0)
		tr.FaultContext(FSReadDrop, us(3), us(1), 9, 4096, 0)
		tr.FaultContext(FSChaos, us(3), us(1), 0, 0, int32(ChaosPressureWave))
		tr.FaultDone(fid, us(9))
		if tr.FaultRecordCount() != 0 || tr.PendingFaults() != 0 {
			t.Fatal("nil tracer recorded a fault")
		}
		if tr.DroppedFaultEvents() != 0 || tr.DroppedFaultRecords() != 0 || tr.DroppedSpans() != 0 {
			t.Fatal("nil tracer dropped something")
		}
		if s.Series() != nil {
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
		_ = tr.Counter("core.npfs", &x).Value()
		tr.Latency("core.npf_total_us", &h)
		tr.Probe("nic.rx_ring_occupancy", zeroProbe)
		tr.FaultMinted(fid, "rx-drop", us(1), 1, 0, 4)
		tr.FaultStageAt(fid, FSReport, us(1), us(2), 0, 0)
		tr.FaultContext(FSInvalidate, us(3), us(1), 0, 0, 1)
		tr.FaultContext(FSPinAcquire, us(3), us(1), 4, 0, 0)
		tr.FaultContext(FSReadDrop, us(3), us(1), 9, 4096, 0)
		tr.FaultContext(FSChaos, us(3), us(1), 0, 0, int32(ChaosPressureWave))
		tr.FaultDone(fid, us(9))
		_ = s.Series()
	}
}

func BenchmarkTracerEnabled(b *testing.B) {
	eng := sim.NewEngine(1)
	tr := New(eng)
	var npfs sim.Counter
	c := tr.Counter("core.npfs", &npfs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.FaultContext(FSPinAcquire, eng.Now(), us(1), 4, 0, 0)
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
	tr.FaultContext(FSRetx, us(100), us(5800), 1, 3, 0)
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
	// 20 derived NPF trees × 5 spans + 1 context span + process meta + 21
	// thread metas.
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
	WriteTree(&tree, ContextSpans(tr.FaultEvents()))
	out := tree.String()
	if !strings.Contains(out, "recv-rnpf") || !strings.Contains(out, "fault-report") {
		t.Fatalf("tree missing spans:\n%s", out)
	}
	if !strings.Contains(out, "retx-episode") || !strings.Contains(out, "retries=3") {
		t.Fatalf("tree missing the context span:\n%s", out)
	}
}

// TestDigestAllSizes pins DigestAll's short folds: no tracers digest to 0
// and one tracer to its own Digest (so a one-partition run's digest does
// not depend on whether its caller holds a slice), while two tracers fold
// in order.
func TestDigestAllSizes(t *testing.T) {
	if got := DigestAll(nil); got != 0 {
		t.Fatalf("DigestAll(nil) = %016x, want 0", got)
	}
	n := sim.Counter{N: 3}
	a := New(sim.NewEngine(1))
	a.Counter("x.n", &n)
	b := New(sim.NewEngine(2))
	if got, want := DigestAll([]*Tracer{a}), a.Digest(); got != want {
		t.Fatalf("DigestAll of one tracer = %016x, want its Digest %016x", got, want)
	}
	if DigestAll([]*Tracer{a, b}) == DigestAll([]*Tracer{b, a}) {
		t.Fatal("DigestAll of two tracers ignores their order")
	}
}
