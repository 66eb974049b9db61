package trace

import (
	"strings"
	"testing"

	"npf/internal/sim"
)

func TestMintFaultIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		node int64
		seq  uint64
	}{{0, 1}, {0, 0}, {3, 17}, {1007, 1 << 39}, {-1 + 1, 42}} {
		id := MintFaultID(tc.node, tc.seq)
		if id.Node() != tc.node || id.Seq() != tc.seq {
			t.Fatalf("MintFaultID(%d, %d) -> (%d, %d)", tc.node, tc.seq, id.Node(), id.Seq())
		}
	}
	if MintFaultID(0, 1) == 0 {
		t.Fatal("node 0 mints the zero (no-fault) ID")
	}
}

// newTestTracer builds an enabled tracer without running an engine; the
// recording methods take explicit times, so no events are needed.
func newTestTracer() *Tracer {
	return New(sim.NewEngine(1))
}

func TestFaultRecordLifecycle(t *testing.T) {
	tr := newTestTracer()
	id := MintFaultID(2, 1)
	tr.FaultMinted(id, "recv-rnpf", us(10), 5, 40, 3)
	if tr.PendingFaults() != 1 || tr.FaultRecordCount() != 0 {
		t.Fatalf("after mint: pending %d done %d", tr.PendingFaults(), tr.FaultRecordCount())
	}
	if got := tr.FaultRecords(); len(got) != 0 {
		t.Fatalf("pending fault visible in FaultRecords: %+v", got)
	}
	tr.FaultStageAt(id, FSReport, us(10), us(4), 0, 3)
	tr.FaultStageAt(id, FSResolverTimeout, us(14), us(6), 0, 3)
	tr.FaultStageAt(id, FSOOMBackoff, us(20), us(2), 1, 3)
	tr.FaultStageAt(id, FSDriver, us(22), us(8), 3, 1)
	tr.FaultStageAt(id, FSDriver, us(30), us(2), 3, 0) // second round accrues
	tr.FaultStageAt(id, FSUpdate, us(32), us(1), 3, 0)
	tr.FaultStageAt(id, FSResume, us(33), us(2), 0, 0)
	tr.FaultDone(id, us(35))

	recs := tr.FaultRecords()
	if len(recs) != 1 || tr.PendingFaults() != 0 || tr.FaultRecordCount() != 1 {
		t.Fatalf("after done: records %d pending %d done %d",
			len(recs), tr.PendingFaults(), tr.FaultRecordCount())
	}
	r := recs[0]
	if r.ID != id || r.Name != "recv-rnpf" || r.Node != 2 || r.Origin != 5 || r.Op != 40 || r.Pages != 3 {
		t.Fatalf("record identity: %+v", r)
	}
	if r.Start != us(10) || r.End != us(35) || r.Total() != us(25) {
		t.Fatalf("record times: start %v end %v total %v", r.Start, r.End, r.Total())
	}
	if r.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (timeout + oom)", r.Retries)
	}
	if r.Stage[FSDriver] != us(10) || r.Stage[FSReport] != us(4) || r.Stage[FSResume] != us(2) {
		t.Fatalf("stage accrual: driver %v report %v resume %v",
			r.Stage[FSDriver], r.Stage[FSReport], r.Stage[FSResume])
	}

	// A late stage on a completed fault is ring-only: no record mutation.
	tr.FaultStageAt(id, FSDriver, us(40), us(5), 0, 0)
	if got := tr.FaultRecords()[0].Stage[FSDriver]; got != us(10) {
		t.Fatalf("stage after done mutated the record: %v", got)
	}
}

func TestFaultRingOverwriteAndRecordCap(t *testing.T) {
	tr := newTestTracer()
	tr.maxFaultEvents = 4
	tr.maxFaultRecords = 2
	for i := 0; i < 3; i++ {
		id := MintFaultID(1, uint64(i+1))
		tr.FaultMinted(id, "tx", us(int64(10*i)), -1, 0, 1)
		tr.FaultDone(id, us(int64(10*i+5)))
	}
	// 6 events through a 4-slot ring: the oldest 2 were overwritten.
	if got := tr.DroppedFaultEvents(); got != 2 {
		t.Fatalf("DroppedFaultEvents = %d, want 2", got)
	}
	ev := tr.FaultEvents()
	if len(ev) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ev))
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("ring not oldest-first: %+v", ev)
		}
	}
	// Third mint exceeded maxFaultRecords: dropped, and its Done is inert.
	if got := tr.DroppedFaultRecords(); got != 1 {
		t.Fatalf("DroppedFaultRecords = %d, want 1", got)
	}
	if got := tr.FaultRecordCount(); got != 2 {
		t.Fatalf("FaultRecordCount = %d, want 2", got)
	}
}

func TestFlightExcerptSortedAndBounded(t *testing.T) {
	tr := newTestTracer()
	// Record out of time order (two devices interleaving).
	tr.FaultContext(FSReclaim, us(30), us(1), 7, 0, 0)
	tr.FaultContext(FSInvalidate, us(10), us(2), 3, 4, 1)
	tr.FaultContext(FSRetx, us(20), us(5), 1, -1, 0)
	ev := tr.FlightExcerpt(2)
	if len(ev) != 2 {
		t.Fatalf("excerpt len %d, want 2", len(ev))
	}
	if ev[0].At > ev[1].At {
		t.Fatalf("excerpt unsorted: %+v", ev)
	}
	if DigestFaultEvents(ev) == 0 {
		t.Fatal("digest of nonempty excerpt is zero")
	}
	var b strings.Builder
	WriteFlightRecorder(&b, ev)
	out := b.String()
	// The excerpt is the last n *inserted* events (the recent past), then
	// sorted: reclaim@30us was inserted first and falls outside n=2.
	if !strings.Contains(out, "tcp-retx") || !strings.Contains(out, "invalidate") {
		t.Fatalf("rendering lost stages:\n%s", out)
	}
	if strings.Contains(out, "reclaim") {
		t.Fatalf("excerpt kept an event outside the last-n window:\n%s", out)
	}
	if !strings.Contains(out, "fault -") {
		t.Fatalf("context events should render ID '-':\n%s", out)
	}
}

// mkRecord builds a completed record with the given disjoint component
// durations laid end to end from start.
func mkRecord(node int64, seq uint64, name string, start sim.Time, report, parked, driver, update, resume sim.Time) FaultRecord {
	r := FaultRecord{
		ID: MintFaultID(node, seq), Name: name, Node: node, Origin: -1,
		Start: start, End: start + report + driver + update + resume,
	}
	// FSReport contains parked, mirroring the recording overlap.
	r.Stage[FSReport] = report
	r.Stage[FSParked] = parked
	r.Stage[FSDriver] = driver
	r.Stage[FSUpdate] = update
	r.Stage[FSResume] = resume
	return r
}

func TestCriticalPathAttribution(t *testing.T) {
	var recs []FaultRecord
	// 9 fast faults dominated by driver time, 1 huge fault dominated by a
	// long fault-report (hw) interval on node 3.
	for i := 0; i < 9; i++ {
		recs = append(recs, mkRecord(1, uint64(i+1), "tx", us(int64(10*i)),
			us(2), 0, us(5), us(1), us(1)))
	}
	recs = append(recs, mkRecord(3, 1, "rx-backup", us(100),
		us(900), us(200), us(50), us(1), us(1)))

	cp := CriticalPath(recs, 99)
	if cp == nil || cp.Total != 10 {
		t.Fatalf("CriticalPath = %+v", cp)
	}
	if cp.Tail != 1 {
		t.Fatalf("p99 tail = %d, want just the slow fault: %+v", cp.Tail, cp)
	}
	if len(cp.Stages) == 0 || cp.Stages[0].Stage != "fault-report" || cp.Stages[0].Layer != "hw" {
		t.Fatalf("dominant stage = %+v, want fault-report/hw", cp.Stages)
	}
	if cp.Stages[0].Host != 3 {
		t.Fatalf("dominant host = %d, want 3", cp.Stages[0].Host)
	}
	// The disjoint report component excludes parked time: 900-200=700 of
	// the 952us total (report already contains parked, so End does too).
	share := cp.Stages[0].MeanShare
	if share < 0.70 || share > 0.77 {
		t.Fatalf("report share = %.3f, want ~0.735 (parked excluded)", share)
	}
	if CriticalPath(nil, 99) != nil {
		t.Fatal("CriticalPath(nil) != nil")
	}

	// p0: every fault is in the tail; the fast ones are driver-dominated.
	cp0 := CriticalPath(recs, 0)
	if cp0.Tail != 10 {
		t.Fatalf("p0 tail = %d, want 10", cp0.Tail)
	}
	if cp0.Stages[0].Stage != "driver" || cp0.Stages[0].Count != 9 {
		t.Fatalf("p0 dominant = %+v, want driver x9", cp0.Stages[0])
	}
}

func TestFaultSpans(t *testing.T) {
	plain := mkRecord(1, 1, "tx", us(0), us(2), 0, us(5), us(1), us(1))
	parked := mkRecord(2, 1, "rx-backup", us(40), us(9), us(6), us(5), us(1), 0)
	parked.Stage[FSPageResolve] = us(1)
	parked.Stage[FSCopy] = us(2)
	// A retried fault: its stages sum below the total (a 40us requeue wait
	// belongs to no stage).
	retried := mkRecord(3, 1, "recv-rnpf", us(100), us(130), 0, us(5), us(35), us(40))
	retried.Stage[FSResolverTimeout] = us(110)
	retried.Retries = 1
	retried.End = us(100 + 130 + 110 + 5 + 35 + 40 + 40)
	pending := mkRecord(4, 1, "tx", us(0), us(2), 0, 0, 0, 0)
	pending.End = -1
	recs := []FaultRecord{plain, parked, retried, pending}

	spans := FaultSpans(recs)
	byID := map[SpanID]*Span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
		if spans[i].ID != SpanID(i+1) || spans[i].Cat != "npf" {
			t.Fatalf("span %d: %+v", i, spans[i])
		}
	}
	root := func(s *Span) *Span {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s
	}
	var roots []*Span
	childSum := map[SpanID]sim.Time{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			roots = append(roots, s)
			continue
		}
		p := byID[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Start > s.End {
			t.Errorf("%s %v-%v escapes its parent %s %v-%v", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if r := root(s); s.Start < r.Start || s.End > r.End {
			t.Errorf("%s escapes root %s", s.Name, r.Name)
		}
		if p.Parent == 0 {
			childSum[p.ID] += s.Dur()
		}
	}
	if len(roots) != 3 {
		t.Fatalf("got %d roots, want 3 (pending skipped): %+v", len(roots), roots)
	}
	for i, want := range []string{"tx", "rx-backup", "recv-rnpf"} {
		r := roots[i]
		if r.Name != want || r.Start != recs[i].Start || r.End != recs[i].End {
			t.Errorf("root %d = %+v, want %s over the record's interval", i, r, want)
		}
		if got := childSum[r.ID]; i < 2 && got != r.Dur() {
			t.Errorf("%s: children sum to %v, want the total %v", want, got, r.Dur())
		} else if i == 2 && got != r.Dur()-us(40) {
			t.Errorf("%s: children sum to %v, want %v", want, got, r.Dur()-us(40))
		}
	}
	find := func(r *Span, name string) *Span {
		for i := range spans {
			if spans[i].Name == name && root(&spans[i]) == r {
				return &spans[i]
			}
		}
		t.Fatalf("%s has no %s span", r.Name, name)
		return nil
	}
	// Laid end to end in lifecycle order: the plain fault's driver starts
	// where its 2us fault-report ends.
	if d := find(roots[0], "driver"); d.Start != us(2) || d.End != us(7) {
		t.Errorf("tx driver = %v-%v, want 2us-7us", d.Start, d.End)
	}
	// parked nests under fault-report from its start; page-resolve then
	// copy end at the driver's end.
	if p := find(roots[1], "parked"); p.Start != us(40) || p.End != us(46) ||
		byID[p.Parent].Name != "fault-report" {
		t.Errorf("parked = %+v", p)
	}
	drv := find(roots[1], "driver")
	if c := find(roots[1], "copy"); c.End != drv.End || c.Start != drv.End-us(2) || c.Parent != drv.ID {
		t.Errorf("copy = %+v, driver = %+v", c, drv)
	}
	if pr := find(roots[1], "page-resolve"); pr.End != drv.End-us(2) || pr.Parent != drv.ID {
		t.Errorf("page-resolve = %+v, driver = %+v", pr, drv)
	}
	if rto := find(roots[2], "resolver-timeout"); rto.Start != us(230) {
		t.Errorf("resolver-timeout starts %v, want after fault-report at 230us", rto.Start)
	}
}

// TestDigestFoldsFaultRecords pins that the replay digest sees the fault
// records, the only record of the NPF lifecycle, and the context events.
func TestDigestFoldsFaultRecords(t *testing.T) {
	digest := func(driver sim.Time, pending bool) uint64 {
		tr := newTestTracer()
		for i, d := range []sim.Time{us(5), driver} {
			id := MintFaultID(1, uint64(i+1))
			tr.FaultMinted(id, "tx", us(0), -1, 0, 1)
			tr.FaultStageAt(id, FSDriver, us(0), d, 1, 0)
			tr.FaultDone(id, us(10))
		}
		if pending {
			tr.FaultMinted(MintFaultID(1, 3), "tx", us(20), -1, 0, 1)
		}
		return tr.Digest()
	}
	base := digest(us(5), false)
	if digest(us(5), false) != base {
		t.Fatal("digest differs between identical recordings")
	}
	if digest(us(6), false) == base {
		t.Fatal("changing one stage duration in one record left the digest unchanged")
	}
	if digest(us(5), true) == base {
		t.Fatal("a pending fault left the digest unchanged")
	}
	// Context events count too, down to the chaos kind in C.
	chaos := func(k ChaosKind) uint64 {
		tr := newTestTracer()
		tr.FaultContext(FSChaos, us(1), us(2), 3, 0, int32(k))
		return tr.Digest()
	}
	if chaos(ChaosLinkFlap) == chaos(ChaosLossBurst) || chaos(ChaosLinkFlap) == newTestTracer().Digest() {
		t.Fatal("the digest ignores context events")
	}
}

func TestFaultStageBreakdownAndPaths(t *testing.T) {
	recs := []FaultRecord{
		mkRecord(1, 1, "tx", us(0), us(2), 0, us(5), us(1), us(1)),
		mkRecord(1, 2, "tx", us(20), us(2), 0, us(7), us(1), us(1)),
		mkRecord(2, 1, "rx-backup", us(40), us(9), us(6), us(5), us(1), us(1)),
	}
	stages := FaultStageBreakdown(recs)
	if got := stages["total"].Count(); got != 3 {
		t.Fatalf("total n = %d, want 3", got)
	}
	if got := stages["parked"].Count(); got != 1 {
		t.Fatalf("parked n = %d, want 1 (zero-duration stages excluded)", got)
	}
	if got := stages["driver"].Count(); got != 3 {
		t.Fatalf("driver n = %d, want 3", got)
	}
	if _, ok := stages["minted"]; ok {
		t.Fatal("zero-duration stage present in breakdown")
	}
	paths := FaultPathCounts(recs)
	if len(paths) != 2 || paths[0].Name != "rx-backup" || paths[0].N != 1 ||
		paths[1].Name != "tx" || paths[1].N != 2 {
		t.Fatalf("FaultPathCounts = %+v", paths)
	}
}
