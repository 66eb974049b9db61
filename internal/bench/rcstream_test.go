package bench

import (
	"runtime"
	"testing"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/topo"
)

// rcEvent is one completion: when it fired, its WQE and its length (0 for
// send completions).
type rcEvent struct {
	at  sim.Time
	id  int64
	len int
}

// ibPair is the two sides of one RC connection: A sends, B receives.
type ibPair struct {
	engA, engB *sim.Engine
	qpA, qpB   *rc.QP
	asB        *mem.AddressSpace
}

// newIBPair builds NewIBEnv's two hosts without jitter on a group of parts
// partitions (1 or 2): A on partition 0 and B on the last, so with two
// partitions every packet crosses the group mailbox.
func newIBPair(seed int64, parts int) (*sim.Group, ibPair) {
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	fcfg := fabric.DefaultInfiniBand()
	g := sim.NewGroup(seed, parts, fcfg.Lookahead())
	net := fabric.NewOnGroup(g, fcfg)
	spec := topo.HostSpec{RAM: 128 << 30, HCA: &cfg}
	a, b := spec.Build(g.Engine(0), net, nil, "a"), spec.Build(g.Engine(parts-1), net, nil, "b")
	asA, asB := a.M.NewAddressSpace("a", nil), b.M.NewAddressSpace("b", nil)
	asA.MapBytes(8 << 30)
	asB.MapBytes(8 << 30)
	p := ibPair{engA: a.Eng, engB: b.Eng, qpA: a.HCA.NewQP(asA), qpB: b.HCA.NewQP(asB), asB: asB}
	rc.Connect(p.qpA, p.qpB)
	a.Drv.EnableODPQP(p.qpA)
	b.Drv.EnableODPQP(p.qpB)
	return g, p
}

// rcStream sends msgs RC messages from side A to side B of an ibPair,
// alternating sizes[0] and sizes[1] bytes, window of them in flight: the
// receive and the send of message k+window are posted when message k
// completes, into message k's buffer. B discards each buffer once its
// completion arrives, so every message takes a receive NPF, an RNR NACK,
// a driver resolve and a resend.
type rcStream struct {
	p            ibPair
	sizes        [2]int
	msgs, window int
	recv, sent   []rcEvent
	stopAt       int // B stops its engine after this many receives (0: never)
}

func newRCStream(p ibPair, msgs, window int, sizes [2]int) *rcStream {
	s := &rcStream{p: p, sizes: sizes, msgs: msgs, window: window}
	Warm(p.qpA, 0, sizes[1]/mem.PageSize)
	p.qpB.OnRecv = s.onRecv
	p.qpA.OnSendComplete = func(id int64) { s.sent = append(s.sent, rcEvent{p.engA.Now(), id, 0}) }
	for k := 0; k < window && k < msgs; k++ {
		// Construction is single-threaded: post the first window's sends
		// directly rather than through a cross-engine call.
		p.qpB.PostRecv(s.recvWQE(k))
		p.qpA.PostSend(s.sendWQE(k))
	}
	return s
}

func (s *rcStream) size(k int) int      { return s.sizes[k%2] }
func (s *rcStream) buf(k int) mem.VAddr { return mem.VAddr(k%s.window) * mem.VAddr(s.sizes[1]) }
func (s *rcStream) recvWQE(k int) rc.RecvWQE {
	return rc.RecvWQE{ID: int64(k), Addr: s.buf(k), Len: s.size(k)}
}
func (s *rcStream) sendWQE(k int) rc.SendWQE {
	return rc.SendWQE{ID: int64(k), Laddr: 0, Len: s.size(k)}
}

func (s *rcStream) onRecv(c rc.RecvCompletion) {
	p := s.p
	k := len(s.recv)
	s.recv = append(s.recv, rcEvent{p.engB.Now(), c.WQEID, c.Len})
	p.asB.DiscardPages(mem.PageNum(s.buf(k)/mem.PageSize), s.size(k)/mem.PageSize)
	if n := k + s.window; n < s.msgs {
		p.qpB.PostRecv(s.recvWQE(n))
		w := s.sendWQE(n)
		p.engB.Call(p.engA, func() { p.qpA.PostSend(w) })
	}
	if len(s.recv) == s.stopAt {
		p.engB.Stop()
	}
}

func sameEvents(t *testing.T, what string, got, want []rcEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d completions, single-engine run %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s completion %d: %+v, single-engine run %+v", what, i, got[i], want[i])
		}
	}
}

// TestRCStreamAcrossPartitions runs a faulting RC message stream with its
// two hosts on separate partitions of a 2-engine group run on two threads,
// where every packet crosses the group mailbox and so is never recycled
// into its sender's free list (the free list belongs to the sender's
// engine). Under -race this checks that no pooled packet is shared between
// the two engines' goroutines; the completions must match the
// one-partition run's event for event. Every message is posted before the
// run, so no cross-engine call shifts the partitioned run's timing.
func TestRCStreamAcrossPartitions(t *testing.T) {
	const msgs = 16
	sizes := [2]int{4 << 10, 64 << 10}
	run := func(parts int) *rcStream {
		g, p := newIBPair(6, parts)
		g.SetThreads(parts)
		s := newRCStream(p, msgs, msgs, sizes)
		g.Run()
		if parts == 2 && g.Stats().Parts[1].Mail == 0 {
			t.Fatal("no packet crossed to B's partition")
		}
		return s
	}
	single, split := run(1), run(2)
	if len(single.recv) != msgs || len(single.sent) != msgs {
		t.Fatalf("single-engine run completed %d receives, %d sends; want %d", len(single.recv), len(single.sent), msgs)
	}
	for k, ev := range single.recv {
		if ev.id != int64(k) || ev.len != single.size(k) {
			t.Fatalf("receive %d completed %+v", k, ev)
		}
	}
	sameEvents(t, "receive", split.recv, single.recv)
	sameEvents(t, "send", split.sent, single.sent)
}

// ibAllocsPerFaultingMsg and ibBytesPerFaultingMsg bound the heap one
// faulting RC message costs end to end (sender, fabric, receiver NPF, RNR
// NACK, driver resolve, IOMMU map, resend, completion), measured on the
// ib-npf-storm shape: alternating 4 KiB and 4 MiB sends, eight in flight,
// buffers reused. Measured: 9.0 objects and 4,744 B.
const (
	ibAllocsPerFaultingMsg = 10
	ibBytesPerFaultingMsg  = 6000
)

func TestIBFaultingMessageAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are gated in the full pass, not under -short -race")
	}
	const warm, measured = 16, 32
	e := NewIBEnv(IBOpts{Seed: 11, Jitter: true})
	p := ibPair{engA: e.Eng, engB: e.Eng, qpA: e.QPA, qpB: e.QPB, asB: e.ASB}
	s := newRCStream(p, warm+measured, 8, [2]int{4 << 10, 4 << 20})
	s.stopAt = warm
	e.Run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run()
	runtime.ReadMemStats(&after)
	if len(s.recv) != warm+measured {
		t.Fatalf("%d of %d messages received", len(s.recv), warm+measured)
	}
	per := float64(after.Mallocs-before.Mallocs) / measured
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.1f heap objects, %.0f B per faulting message", per, bytes)
	if per > ibAllocsPerFaultingMsg {
		t.Errorf("a faulting RC message allocates %.1f objects, budget %d", per, ibAllocsPerFaultingMsg)
	}
	if bytes > ibBytesPerFaultingMsg {
		t.Errorf("a faulting RC message allocates %.0f B, budget %d", bytes, ibBytesPerFaultingMsg)
	}
}
