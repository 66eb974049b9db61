package trace

import (
	"fmt"
	"io"
	"sort"

	"npf/internal/sim"
)

// This file is the causal side of the tracer: every network page fault gets
// a FaultID minted at the device that detected it (NIC or HCA), and the
// stages of its lifecycle — firmware report, backup-ring residency, driver
// service, IOMMU update, resume — are recorded as causally-linked events in
// a bounded ring (a flight recorder). Fault events carry the cross-host
// edge: the origin node of the packet or verb that tripped the fault rides
// in the record, so a post-processing pass (anatomy.go) can answer "which
// stage, host and layer dominated the p99 fault" per registration policy.
// The same ring holds the context events around the faults, from which
// ContextSpans derives the non-NPF spans at export time.
//
// A nil tracer records nothing at zero allocations (//npf:noalloc fences
// below), event order is virtual-time order on one engine, and every
// export is sorted so output is byte-identical for any -parallel budget.

// FaultID identifies one network page fault end to end. It is minted at the
// detecting device from (node, per-device sequence), so IDs are unique
// across hosts and deterministic given a seed. Zero means "no fault": every
// recording method accepts it and does nothing, so IDs thread through event
// structs unconditionally.
type FaultID uint64

// faultSeqBits is the per-device sequence width; 24 bits of node above it
// comfortably covers the scale-out topologies.
const faultSeqBits = 40

// MintFaultID packs a device node and a per-device sequence number. Node is
// offset by one so node 0's faults are still nonzero IDs.
func MintFaultID(node int64, seq uint64) FaultID {
	return FaultID(uint64(node+1)<<faultSeqBits | (seq & (1<<faultSeqBits - 1)))
}

// Node recovers the minting device's node.
func (f FaultID) Node() int64 { return int64(f>>faultSeqBits) - 1 }

// Seq recovers the per-device sequence number.
func (f FaultID) Seq() uint64 { return uint64(f) & (1<<faultSeqBits - 1) }

// FaultStage enumerates the lifecycle points a fault event can describe.
// The order mirrors the paper's fault anatomy (Figure 2 / Table 2): detect
// and report, park, software service, IOMMU update, resume. The trailing
// context stages (invalidate onward) are environment events recorded with
// FaultID 0 — they are not part of one fault's path but are exactly what a
// flight-recorder excerpt needs to explain a tail. Each context stage but
// reclaim is one span of the ContextSpans view.
type FaultStage uint8

const (
	FSMinted FaultStage = iota
	FSReport
	FSParked
	FSResolverTimeout
	FSOOMBackoff
	FSDriver
	FSPageResolve
	FSCopy
	FSDegradePin
	FSUpdate
	FSResume
	FSDone
	FSInvalidate // A first page, B pages removed (−removed−1: a duplicate), C count
	FSReclaim    // A evicted page
	FSRetx       // A conn, B retries (−1: the connection failed)
	FSPinAcquire // A pages pinned, B pages evicted
	FSRNRWait    // A QPN, B packets rewound
	FSReadPause  // A read request ID
	FSReadDrop   // A read request ID, B placement offset
	FSChaos      // C the ChaosKind, A and B its arguments
	numFaultStages
)

// numRecordStages bounds the stages a FaultRecord accrues: the context
// stages never belong to one fault.
const numRecordStages = FSInvalidate

var faultStageNames = [numFaultStages]string{
	"minted", "fault-report", "parked", "resolver-timeout", "oom-backoff",
	"driver", "page-resolve", "copy", "degrade-pin", "update", "resume",
	"done", "invalidate", "reclaim", "tcp-retx", "pin-acquire", "rnr-wait",
	"read-rnr-pause", "read-drop-window", "chaos",
}

func (s FaultStage) String() string {
	if int(s) < len(faultStageNames) {
		return faultStageNames[s]
	}
	return "?"
}

// FaultEvent is one entry in the flight recorder: a stage of a fault's
// lifecycle (or, with ID 0, a context event such as an invalidation batch,
// a reclaim eviction, or a TCP retransmission episode). A, B and C are
// stage-specific integer annotations (pages, attempt, descriptor index...);
// C sits in Stage's padding, so an event stays 48 bytes.
type FaultEvent struct {
	ID    FaultID
	Stage FaultStage
	C     int32
	At    sim.Time
	Dur   sim.Time
	A, B  int64
}

// FaultRecord accumulates one fault's lifecycle: identity, cross-host
// origin, and the summed duration of every stage. End is -1 while the fault
// is still pending.
type FaultRecord struct {
	ID     FaultID
	Name   string // fault path: recv-rnpf, send-local, rx-drop, rx-backup, tx, ...
	Node   int64  // device node that detected the fault
	Origin int64  // remote node whose op triggered it (-1 when local/unknown)
	Op     int64  // triggering-op annotation: QPN, rx descriptor index, ... (-1 unknown)
	Pages  int
	Start  sim.Time // device detection time
	End    sim.Time // resume-complete time; -1 while pending
	// Retries counts resolver-timeout and OOM-backoff rounds.
	Retries int
	// Stage holds the summed duration recorded per lifecycle stage. Entries
	// overlap by construction (fault-report contains parked; driver contains
	// page-resolve and copy) — anatomy.go does the disjoint attribution.
	Stage [numRecordStages]sim.Time
}

// Total is the detect-to-resume latency (0 while pending).
func (r *FaultRecord) Total() sim.Time {
	if r.End < r.Start {
		return 0
	}
	return r.End - r.Start
}

// Bounds for the lazily-created recorder. The event ring overwrites oldest
// (flight-recorder semantics: the recent past survives); the completed
// record store drops newest beyond the cap, counted.
const (
	maxFaultEvents  = 1 << 16
	maxFaultRecords = 1 << 20
)

// flightRecorder is the event side of a tracer, created on first use so
// metrics-only tracers pay nothing.
type flightRecorder struct {
	maxEvents int
	events    []FaultEvent
	next      int // overwrite cursor once the ring is full
	evDropped uint64

	maxRecords int
	pending    map[FaultID]int // FaultID -> index into records
	records    []FaultRecord   // completion-ordered once finalized; pending interleaved
	done       int             // completed record count
	recDropped uint64
}

func (t *Tracer) rec() *flightRecorder {
	if t.fr == nil {
		t.fr = &flightRecorder{
			maxEvents:  t.maxFaultEvents,
			maxRecords: t.maxFaultRecords,
			pending:    make(map[FaultID]int),
		}
	}
	return t.fr
}

func (fr *flightRecorder) add(e FaultEvent) {
	if len(fr.events) >= fr.maxEvents {
		fr.events[fr.next] = e
		fr.next = (fr.next + 1) % fr.maxEvents
		fr.evDropped++
		return
	}
	fr.events = append(fr.events, e)
}

// FaultMinted records a fault's birth at the detecting device and opens its
// record. start is the device's detection time (known before the handler
// runs); origin is the remote node whose op tripped the fault
// (-1 for local); op is a transport-specific identity annotation.
//
// The fence covers the disabled (nil-tracer) path; the enabled path may
// grow the recorder.
//
//npf:noalloc
func (t *Tracer) FaultMinted(id FaultID, name string, start sim.Time, origin, op int64, pages int) {
	if t == nil || id == 0 {
		return
	}
	t.faultMinted(id, name, start, origin, op, pages) //npf:allocok — enabled path; recorder growth is the tracer's job
}

func (t *Tracer) faultMinted(id FaultID, name string, start sim.Time, origin, op int64, pages int) {
	fr := t.rec()
	fr.add(FaultEvent{ID: id, Stage: FSMinted, At: start, A: origin, B: int64(pages)})
	if len(fr.records) >= fr.maxRecords {
		fr.recDropped++
		return
	}
	fr.records = append(fr.records, FaultRecord{
		ID: id, Name: name, Node: id.Node(), Origin: origin, Op: op,
		Pages: pages, Start: start, End: -1,
	})
	fr.pending[id] = len(fr.records) - 1
}

// FaultStageAt records one lifecycle stage of fault id: the event enters
// the flight-recorder ring and dur accrues to the fault's record. a and b
// are stage-specific annotations.
//
//npf:noalloc
func (t *Tracer) FaultStageAt(id FaultID, stage FaultStage, at, dur sim.Time, a, b int64) {
	if t == nil || id == 0 {
		return
	}
	t.faultStage(id, stage, at, dur, a, b) //npf:allocok — enabled path; recorder growth is the tracer's job
}

func (t *Tracer) faultStage(id FaultID, stage FaultStage, at, dur sim.Time, a, b int64) {
	fr := t.rec()
	fr.add(FaultEvent{ID: id, Stage: stage, At: at, Dur: dur, A: a, B: b})
	if i, ok := fr.pending[id]; ok {
		r := &fr.records[i]
		r.Stage[stage] += dur
		if stage == FSResolverTimeout || stage == FSOOMBackoff {
			r.Retries++
		}
	}
}

// FaultDone closes fault id's record at the resume-complete time.
//
//npf:noalloc
func (t *Tracer) FaultDone(id FaultID, at sim.Time) {
	if t == nil || id == 0 {
		return
	}
	t.faultDone(id, at) //npf:allocok — enabled path; recorder growth is the tracer's job
}

func (t *Tracer) faultDone(id FaultID, at sim.Time) {
	fr := t.rec()
	fr.add(FaultEvent{ID: id, Stage: FSDone, At: at})
	if i, ok := fr.pending[id]; ok {
		fr.records[i].End = at
		fr.done++
		delete(fr.pending, id)
	}
}

// FaultContext records an environment event (FaultID 0) in the flight
// recorder: the interval [at, at+dur) of one context stage, annotated per
// the stage's comment. These never accrue to a record but show up in
// excerpts, which is what makes a tail explainable ("the p99 fault sat
// behind an invalidation storm"), and in ContextSpans. A site that learns
// an interval's annotations only at its end records it then, with at the
// interval's start.
//
// FaultContext stays out of line, so the eviction, invalidation and
// retransmission sites that call it carry a call, not the enabled path's
// event copy and ring append; inlined there, it slowed the traced
// kv-reclaim workload in paired npfperf runs.
//
//go:noinline
//npf:noalloc
func (t *Tracer) FaultContext(stage FaultStage, at, dur sim.Time, a, b int64, c int32) {
	if t == nil {
		return
	}
	t.rec().add(FaultEvent{Stage: stage, C: c, At: at, Dur: dur, A: a, B: b}) //npf:allocok — enabled path; recorder growth is the tracer's job
}

// ChaosKind names the injected fault window an FSChaos event records;
// chaosKinds gives each kind's span name and the keys of its A and B.
type ChaosKind int32

const (
	ChaosFirmwareStall ChaosKind = iota
	ChaosLossBurst
	ChaosGilbertElliott
	ChaosLinkFlap
	ChaosPressureWave
	ChaosInvDuplicate
	ChaosResolverTimeout
	ChaosCallback
	numChaosKinds
)

// chaosKinds names each kind's span and its A and B argument keys.
var chaosKinds = [numChaosKinds]struct {
	name string
	args []string
}{
	{"firmware-stall", nil},
	{"loss-burst", []string{"prob_ppm"}},
	{"gilbert-elliott", nil},
	{"link-flap", []string{"node"}},
	{"pressure-wave", []string{"evicted_bytes"}},
	{"inv-duplicate", []string{"first", "count"}},
	{"resolver-timeout", []string{"attempt", "pages"}},
	{"callback", nil},
}

// ContextSpans derives the span view of the context events in ev (a
// FaultEvents ring, oldest first): one root span per event of every
// context stage but reclaim, in start order (ties in ring order), with
// IDs from 1. Each span is [At, At+Dur] with its annotations as args:
//
//	inv/invalidate, inv/invalidate-dup   first, count, removed
//	tcp/retx-episode                     conn, then retries or result=failed
//	pin/acquire                          pages, evicted
//	rc/rnr-wait                          qpn, rewound
//	rc/read-rnr-pause                    req
//	rc/read-drop-window                  req, off
//	chaos/<kind>                         the kind's keys (chaosKinds)
func ContextSpans(ev []FaultEvent) []Span {
	var out []Span
	for _, e := range ev {
		if e.ID != 0 {
			continue
		}
		s := Span{Start: e.At, End: e.At + e.Dur}
		arg := func(key string, v int64) { s.Args = append(s.Args, Arg{Key: key, Val: itoa(v)}) }
		switch e.Stage {
		case FSInvalidate:
			s.Cat, s.Name = "inv", "invalidate"
			removed := e.B
			if removed < 0 {
				s.Name, removed = "invalidate-dup", -removed-1
			}
			arg("first", e.A)
			arg("count", int64(e.C))
			arg("removed", removed)
		case FSRetx:
			s.Cat, s.Name = "tcp", "retx-episode"
			arg("conn", e.A)
			if e.B < 0 {
				s.Args = append(s.Args, Arg{Key: "result", Val: "failed"})
			} else {
				arg("retries", e.B)
			}
		case FSPinAcquire:
			s.Cat, s.Name = "pin", "acquire"
			arg("pages", e.A)
			arg("evicted", e.B)
		case FSRNRWait:
			s.Cat, s.Name = "rc", "rnr-wait"
			arg("qpn", e.A)
			arg("rewound", e.B)
		case FSReadPause:
			s.Cat, s.Name = "rc", "read-rnr-pause"
			arg("req", e.A)
		case FSReadDrop:
			s.Cat, s.Name = "rc", "read-drop-window"
			arg("req", e.A)
			arg("off", e.B)
		case FSChaos:
			k := chaosKinds[e.C]
			s.Cat, s.Name = "chaos", k.name
			for i, key := range k.args {
				arg(key, [2]int64{e.A, e.B}[i])
			}
		default:
			continue
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	for i := range out {
		out[i].ID = SpanID(i + 1)
	}
	return out
}

// FaultRecords returns a copy of the completed fault records, in completion
// order (deterministic given a seed). Pending faults are excluded.
func (t *Tracer) FaultRecords() []FaultRecord {
	if t == nil || t.fr == nil {
		return nil
	}
	out := make([]FaultRecord, 0, t.fr.done)
	for i := range t.fr.records {
		if t.fr.records[i].End >= t.fr.records[i].Start {
			out = append(out, t.fr.records[i])
		}
	}
	return out
}

// FaultEvents returns the flight-recorder ring, oldest event first.
func (t *Tracer) FaultEvents() []FaultEvent {
	if t == nil || t.fr == nil {
		return nil
	}
	fr := t.fr
	out := make([]FaultEvent, 0, len(fr.events))
	if len(fr.events) >= fr.maxEvents {
		out = append(out, fr.events[fr.next:]...)
		out = append(out, fr.events[:fr.next]...)
	} else {
		out = append(out, fr.events...)
	}
	return out
}

// FlightExcerpt returns the last n flight-recorder events sorted by
// (At, ID, Stage, A, B, C) — the dump attached to failing chaos reports.
func (t *Tracer) FlightExcerpt(n int) []FaultEvent {
	ev := t.FaultEvents()
	if len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	SortFaultEvents(ev)
	return ev
}

// SortFaultEvents orders events by (At, ID, Stage, A, B, C) — a total
// order, so sorted output is byte-identical across engine budgets.
func SortFaultEvents(ev []FaultEvent) {
	sort.Slice(ev, func(i, j int) bool {
		a, b := ev[i], ev[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.C < b.C
	})
}

// PendingFaults reports faults minted but not yet done.
func (t *Tracer) PendingFaults() int {
	if t == nil || t.fr == nil {
		return 0
	}
	return len(t.fr.pending)
}

// FaultRecordCount reports completed fault records.
func (t *Tracer) FaultRecordCount() int {
	if t == nil || t.fr == nil {
		return 0
	}
	return t.fr.done
}

// DroppedFaultEvents reports ring entries overwritten by newer events.
func (t *Tracer) DroppedFaultEvents() uint64 {
	if t == nil || t.fr == nil {
		return 0
	}
	return t.fr.evDropped
}

// DroppedFaultRecords reports faults whose records were not stored because
// the record cap was reached (their ring events still exist).
func (t *Tracer) DroppedFaultRecords() uint64 {
	if t == nil || t.fr == nil {
		return 0
	}
	return t.fr.recDropped
}

// DigestFaultEvents folds an event slice into an FNV-1a hash, the
// flight-dump fingerprint printed with chaos failures.
func DigestFaultEvents(ev []FaultEvent) uint64 {
	h := fnvOffset
	for _, e := range ev {
		h = fnvInt(h, int64(e.ID))
		h = fnvInt(h, int64(e.Stage))
		h = fnvInt(h, int64(e.At))
		h = fnvInt(h, int64(e.Dur))
		h = fnvInt(h, e.A)
		h = fnvInt(h, e.B)
		h = fnvInt(h, int64(e.C))
	}
	return h
}

// WriteFlightRecorder renders events one per line:
//
//	@    1234.5us  fault 3:17       driver            dur=     56.0us a=4 b=0 c=0
func WriteFlightRecorder(w io.Writer, ev []FaultEvent) {
	for _, e := range ev {
		id := "-"
		if e.ID != 0 {
			id = fmt.Sprintf("%d:%d", e.ID.Node(), e.ID.Seq())
		}
		fmt.Fprintf(w, "@%10.1fus  fault %-10s %-16s dur=%10.1fus a=%d b=%d c=%d\n",
			float64(e.At)/1e3, id, e.Stage.String(), float64(e.Dur)/1e3, e.A, e.B, e.C)
	}
}
