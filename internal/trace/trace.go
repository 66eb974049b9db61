// Package trace is the deterministic telemetry subsystem every layer of the
// stack reports into: a span recorder keyed off virtual time (sim.Time), a
// metrics registry naming the stats fields the layers publish (counters,
// latency histograms, sampled probe gauges), and exporters —
// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing) and text
// summaries.
//
// Design constraints, in order:
//
//   - Determinism. Given a seed, two runs of the same scenario produce
//     byte-identical exports: span IDs are sequential, metric iteration is
//     sorted, timestamps are virtual time, and no wall clock or map-order
//     dependence leaks into any output.
//   - A disabled tracer costs ~zero. "Disabled" is a nil *Tracer: every
//     method is nil-safe and returns before allocating, so instrumented hot
//     paths pay one pointer comparison. Metric handles obtained from a nil
//     tracer are nil and equally inert. BenchmarkTracerDisabled and
//     TestTracerDisabledNoAlloc enforce the no-allocation property.
//   - Hardware/driver layering is preserved: devices (internal/nic,
//     internal/rc) mint a FaultID when they detect a fault and hand it to
//     the driver inside the fault event, mirroring how the real firmware
//     tags fault reports with a token the driver echoes back.
//
// One recorder holds the NPF lifecycle (Figure 2 / Figure 3a): the
// FaultRecord (fault.go), one per network page fault, named after the
// fault path (recv-rnpf, send-local, rx-drop, rx-backup, tx, ...), with
// the summed duration of each stage:
//
//	fault-report      device detects the fault, interrupts, reports [hw]
//	parked            backup-ring residency of the faulting packet
//	                  (Ethernet; inside fault-report)
//	resolver-timeout  aborted resolution attempts and their backoff
//	oom-backoff       OOM-after-reclaim retry rounds
//	driver            driver + OS produce the pages [sw]
//	page-resolve      the OS fault-in portion, minor or major (inside driver)
//	copy              backup-resolver packet merge (memcpy; inside driver)
//	degrade-pin       pinning by the DegradeToPinned escape hatch
//	update            IOMMU page-table update [sw+hw]
//	resume            device notices and resumes the operation [hw]
//
// No NPF span is recorded. Span-shaped views of faults — the Chrome
// export's NPF tracks, npftrace's tree and top-k — are derived from the
// records at export time by FaultSpans: an "npf" root per fault with the
// occurring stages laid end to end as children.
//
// Recorded spans cover what is not one fault's lifecycle: invalidation
// flows use cat "inv", pin-down cache acquisitions "pin", RNR suspension
// windows and RDMA read drop windows "rc", TCP retransmission episodes
// "tcp", and injected faults "chaos".
package trace

import "npf/internal/sim"

// SpanID identifies a recorded span. Zero means "no span": every Tracer
// method accepts it and does nothing, so IDs can be threaded through event
// structs unconditionally.
type SpanID int64

// Arg is one key/value annotation on a span. Values are strings so export
// needs no reflection; use ArgInt for numbers.
type Arg struct {
	Key string
	Val string
}

// Span is one recorded interval of virtual time. End is -1 while the span
// is open; exporters clamp open spans to the export time.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for root spans
	Cat    string // coarse grouping: "npf" (derived), "inv", "rc", "tcp", "pin", "chaos"
	Name   string
	Start  sim.Time
	End    sim.Time
	Args   []Arg
}

// Open reports whether the span has not been ended.
func (s *Span) Open() bool { return s.End < 0 }

// Dur returns the span's duration (0 for open spans).
func (s *Span) Dur() sim.Time {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// DefaultMaxSpans bounds recorded spans per tracer so an unexpectedly hot
// scenario cannot exhaust memory; spans beyond the cap are counted, not
// stored. Raise Tracer.MaxSpans for long captures.
const DefaultMaxSpans = 1 << 21

// Tracer records spans and metrics against one engine's virtual clock. A
// nil Tracer is the disabled state: all methods are no-ops.
type Tracer struct {
	eng *sim.Engine

	// MaxSpans caps stored spans (DefaultMaxSpans unless changed before
	// recording starts). <= 0 means unlimited.
	MaxSpans int

	spans   []Span
	dropped uint64

	// MaxFaultEvents / MaxFaultRecords bound the fault flight recorder
	// (fault.go); 0 means the defaults, < 0 unlimited. fr is created on
	// first fault event so span-only tracers pay nothing.
	MaxFaultEvents  int
	MaxFaultRecords int
	fr              *flightRecorder

	// counters and lats name the layers' published stats fields (see
	// Counter and Latency); the tracer never increments them itself.
	counters map[string]*Counter
	lats     map[string][]*sim.Histogram

	// probes are read-only gauge callbacks evaluated at every sampler tick
	// (see Probe); sampler is the singleton started by StartSampler.
	probes  map[string][]func() float64
	sampler *Sampler
}

// New returns an enabled tracer recording against eng's clock.
func New(eng *sim.Engine) *Tracer {
	return &Tracer{
		eng:      eng,
		MaxSpans: DefaultMaxSpans,
		counters: make(map[string]*Counter),
		lats:     make(map[string][]*sim.Histogram),
	}
}

// Enabled reports whether the tracer records anything. It is the cheap
// guard instrumentation sites use before doing span-only work (building
// argument strings, translating addresses for annotation, ...).
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the engine's current virtual time (0 when disabled).
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.eng.Now()
}

// DroppedSpans reports spans discarded because MaxSpans was reached.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// SpanCount reports recorded spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns a copy of all recorded spans, in recording order (which is
// deterministic given a seed).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return append([]Span(nil), t.spans...)
}

// Begin opens a span starting now. parent may be 0 for a root span.
//
// The fence covers the disabled (nil-tracer) path — the runtime
// TestTracerDisabledNoAlloc gate in static form; the enabled path is
// allowed to grow the span store.
//
//npf:noalloc
func (t *Tracer) Begin(parent SpanID, cat, name string) SpanID {
	if t == nil {
		return 0
	}
	return t.BeginAt(parent, cat, name, t.eng.Now()) //npf:allocok — enabled path; span store growth is the tracer's job
}

// BeginAt opens a span with an explicit start time (device paths often know
// the fault-detection time before the handler runs).
func (t *Tracer) BeginAt(parent SpanID, cat, name string, start sim.Time) SpanID {
	if t == nil {
		return 0
	}
	if t.MaxSpans > 0 && len(t.spans) >= t.MaxSpans {
		t.dropped++
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Cat: cat, Name: name, Start: start, End: -1})
	return id
}

// Span records a closed interval [start, end) in one call — the idiom for
// cost-model layers that compute a duration rather than living through it.
func (t *Tracer) Span(parent SpanID, cat, name string, start, end sim.Time) SpanID {
	id := t.BeginAt(parent, cat, name, start)
	t.EndAt(id, end)
	return id
}

// End closes span id at the current virtual time. Allocation-free on both
// the disabled and the enabled path (EndAt writes in place), so the whole
// body sits inside the fence with no escapes.
//
//npf:noalloc
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.EndAt(id, t.eng.Now())
}

// EndAt closes span id at an explicit time. Ending an already-closed span
// overwrites its end (last write wins); ending span 0 is a no-op.
func (t *Tracer) EndAt(id SpanID, end sim.Time) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return
	}
	t.spans[id-1].End = end
}

// ArgStr annotates span id with a string value.
func (t *Tracer) ArgStr(id SpanID, key, val string) {
	if t == nil || id == 0 || int(id) > len(t.spans) {
		return
	}
	s := &t.spans[id-1]
	s.Args = append(s.Args, Arg{Key: key, Val: val})
}

// ArgInt annotates span id with an integer value.
//
//npf:noalloc
func (t *Tracer) ArgInt(id SpanID, key string, val int64) {
	if t == nil || id == 0 {
		return
	}
	t.ArgStr(id, key, itoa(val)) //npf:allocok — enabled path; formatting and the Args append allocate by design
}

// itoa is strconv.FormatInt(v, 10) without pulling fmt into the hot path.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
