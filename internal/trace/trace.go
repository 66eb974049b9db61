// Package trace is the deterministic telemetry subsystem every layer of the
// stack reports into: an event recorder keyed off virtual time (sim.Time), a
// metrics registry naming the stats fields the layers publish (counters,
// latency histograms, sampled probe gauges), and exporters —
// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing) and text
// summaries built from span views derived from the recorded events.
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
//   - Tracer, Sampler and Counter export no fields, so code outside this
//     package reaches them only through the nil-safe methods; a direct
//     field access does not compile. TestHandlesExportNoFields keeps it so.
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
//	degrade-pin       pinning by the MaxNPFRetries escape hatch
//	update            IOMMU page-table update [sw+hw]
//	resume            device notices and resumes the operation [hw]
//
// No NPF span is recorded. Span-shaped views of faults — the Chrome
// export's NPF tracks, npftrace's tree and top-k — are derived from the
// records at export time by FaultSpans: an "npf" root per fault with the
// occurring stages laid end to end as children.
//
// The same ring holds the context events around the faults (FaultID 0):
// IOMMU invalidations, reclaim evictions, pin-down cache acquisitions, RNR
// waits, RDMA read pause and drop windows, TCP retransmission episodes and
// injected chaos windows. ContextSpans derives their span view — cat "inv",
// "pin", "rc", "tcp" and "chaos" — at export time, the way FaultSpans
// derives the NPF view, so every fact is recorded once.
package trace

import "npf/internal/sim"

// SpanID identifies a span of a derived view (FaultSpans, ContextSpans):
// IDs are sequential within one view, and 0 means "no parent".
type SpanID int64

// Arg is one key/value annotation on a span. Values are strings so export
// needs no reflection.
type Arg struct {
	Key string
	Val string
}

// Span is one interval of virtual time in a derived view. End is -1 while
// the span is open.
type Span struct {
	ID     SpanID
	Parent SpanID // 0 for root spans
	Cat    string // coarse grouping: "npf", "inv", "rc", "tcp", "pin", "chaos"
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

// Tracer records fault and context events and metrics against one
// engine's virtual clock. A nil Tracer is the disabled state: all methods
// are no-ops.
type Tracer struct {
	eng *sim.Engine

	// maxFaultEvents / maxFaultRecords bound the fault flight recorder
	// (fault.go); New sets them to the package constants, and only this
	// package's tests lower them. fr is created on first event so
	// metrics-only tracers pay nothing.
	maxFaultEvents  int
	maxFaultRecords int
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
		eng:             eng,
		maxFaultEvents:  maxFaultEvents,
		maxFaultRecords: maxFaultRecords,
		counters:        make(map[string]*Counter),
		lats:            make(map[string][]*sim.Histogram),
	}
}

// Enabled reports whether the tracer records anything. It is the cheap
// guard instrumentation sites use before doing trace-only work.
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the engine's current virtual time (0 when disabled).
func (t *Tracer) Now() sim.Time {
	if t == nil {
		return 0
	}
	return t.eng.Now()
}

// DroppedSpans reports 0: spans are derived views of the flight recorder,
// whose loss DroppedFaultEvents counts. It stays for cmd/npfperf, which
// sums it into its trace.dropped metric.
func (t *Tracer) DroppedSpans() uint64 { return 0 }

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
