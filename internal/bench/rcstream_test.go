package bench

import (
	"runtime"
	"testing"

	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// rcEvent is one completion: when it fired, its WQE and its length (0 for
// send completions).
type rcEvent struct {
	at  sim.Time
	id  int64
	len int
}

// rcStream sends msgs RC messages from side A to side B of an IBEnv,
// alternating sizes[0] and sizes[1] bytes, window of them in flight: the
// receive and the send of message k+window are posted when message k
// completes, into message k's buffer. B discards each buffer once its
// completion arrives, so every message takes a receive NPF, an RNR NACK,
// a driver resolve and a resend.
type rcStream struct {
	e            *IBEnv
	sizes        [2]int
	msgs, window int
	recv, sent   []rcEvent
	stopAt       int // B stops its engine after this many receives (0: never)
}

func newRCStream(e *IBEnv, msgs, window int, sizes [2]int) *rcStream {
	s := &rcStream{e: e, sizes: sizes, msgs: msgs, window: window}
	Warm(e.QPA, 0, sizes[1]/mem.PageSize)
	e.QPB.OnRecv = s.onRecv
	e.QPA.OnSendComplete = func(id int64) { s.sent = append(s.sent, rcEvent{e.Eng.Now(), id, 0}) }
	for k := 0; k < window && k < msgs; k++ {
		// Construction is single-threaded: post the first window's sends
		// directly rather than through a cross-engine call.
		e.QPB.PostRecv(s.recvWQE(k))
		e.QPA.PostSend(s.sendWQE(k))
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
	e := s.e
	k := len(s.recv)
	s.recv = append(s.recv, rcEvent{e.EngB.Now(), c.WQEID, c.Len})
	e.ASB.DiscardPages(mem.PageNum(s.buf(k)/mem.PageSize), s.size(k)/mem.PageSize)
	if n := k + s.window; n < s.msgs {
		e.QPB.PostRecv(s.recvWQE(n))
		w := s.sendWQE(n)
		e.EngB.Call(e.Eng, func() { e.QPA.PostSend(w) })
	}
	if len(s.recv) == s.stopAt {
		e.EngB.Stop()
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
// two hosts on separate partitions of a 2-engine group, where every packet
// crosses the group mailbox and so is never recycled into its sender's
// free list (the free list belongs to the sender's engine). Under -race
// this checks that no pooled packet is shared between the two engines'
// goroutines; the completions must match the single-engine run's event for
// event. Every message is posted before the run, so no cross-engine call
// shifts the partitioned run's timing.
func TestRCStreamAcrossPartitions(t *testing.T) {
	const msgs = 16
	sizes := [2]int{4 << 10, 64 << 10}
	run := func(engines int) *rcStream {
		var s *rcStream
		withEngines(engines, func() {
			e := NewIBEnv(IBOpts{Seed: 5})
			s = newRCStream(e, msgs, msgs, sizes)
			e.Run()
			if engines > 0 && e.G.Parts() != 2 {
				t.Fatal("IBEnv did not partition")
			}
		})
		return s
	}
	single, split := run(0), run(2)
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
	s := newRCStream(e, warm+measured, 8, [2]int{4 << 10, 4 << 20})
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
