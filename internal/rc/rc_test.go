package rc

import (
	"testing"
	"testing/quick"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/sim"
)

// testSink resolves faults inline: fault pages into memory, map them in the
// QP's IOMMU domain, and signal the firmware.
type testSink struct {
	events []QPFault
	manual bool
}

func (s *testSink) HandleQPFault(ev QPFault) {
	s.events = append(s.events, ev)
	if s.manual {
		return
	}
	s.resolve(ev)
}

func (s *testSink) resolve(ev QPFault) {
	for _, pn := range ev.Missing {
		if _, err := ev.QP.AS.TouchPages(pn, 1, true); err != nil {
			panic(err)
		}
		ev.QP.Domain.Map(pn, 1)
	}
	ev.Resolved()
}

type rcEnv struct {
	eng      *sim.Engine
	m        *mem.Machine
	a, b     *QP
	asA, asB *mem.AddressSpace
	sinkA    *testSink
	sinkB    *testSink
}

func newRCEnv(t *testing.T, tweak func(*Config)) *rcEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	cfg := DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	if tweak != nil {
		tweak(&cfg)
	}
	m := mem.NewMachine(eng, 8<<30)
	hcaA := NewHCA(eng, net, cfg)
	hcaB := NewHCA(eng, net, cfg)
	e := &rcEnv{eng: eng, m: m, sinkA: &testSink{}, sinkB: &testSink{}}
	hcaA.SetFaultSink(e.sinkA)
	hcaB.SetFaultSink(e.sinkB)
	e.asA = m.NewAddressSpace("a", nil)
	e.asA.MapBytes(256 << 20)
	e.asB = m.NewAddressSpace("b", nil)
	e.asB.MapBytes(256 << 20)
	e.a = hcaA.NewQP(e.asA)
	e.b = hcaB.NewQP(e.asB)
	Connect(e.a, e.b)
	return e
}

// warm makes pages resident and mapped for a QP.
func warm(qp *QP, first mem.PageNum, count int) {
	if _, err := qp.AS.TouchPages(first, count, true); err != nil {
		panic(err)
	}
	qp.Domain.Map(first, count)
}

func TestSendRecvWarm(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1)
	warm(e.b, 0, 1)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	var sendDone []int64
	e.a.OnSendComplete = func(id int64) { sendDone = append(sendDone, id) }

	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(SendWQE{ID: 10, Laddr: 0, Len: 2000, Payload: "hello"})
	e.eng.Run()

	if len(got) != 1 || got[0].Payload != "hello" || got[0].Len != 2000 || got[0].WQEID != 1 {
		t.Fatalf("recv = %+v", got)
	}
	if len(sendDone) != 1 || sendDone[0] != 10 {
		t.Fatalf("send completions = %v", sendDone)
	}
	if e.a.hca.Faults.N+e.b.hca.Faults.N != 0 {
		t.Fatal("warm path faulted")
	}
}

func TestMultiPacketMessage(t *testing.T) {
	e := newRCEnv(t, nil)
	const msg = 64 << 10 // 16 MTU packets
	warm(e.a, 0, 16)
	warm(e.b, 0, 16)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: msg})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: msg, Payload: "big"})
	e.eng.Run()
	if len(got) != 1 || got[0].Len != msg {
		t.Fatalf("recv = %+v", got)
	}
	if e.a.hca.PacketsSent.N < 16 {
		t.Fatalf("sent %d packets, want >=16", e.a.hca.PacketsSent.N)
	}
}

func TestSendLocalFault(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.b, 0, 1) // receiver warm, sender cold
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 1000, Payload: "x"})
	e.eng.Run()
	if len(got) != 1 {
		t.Fatalf("recv = %+v", got)
	}
	if len(e.sinkA.events) != 1 || e.sinkA.events[0].Class != FaultSendLocal {
		t.Fatalf("sender faults = %+v", e.sinkA.events)
	}
}

func TestRecvRNPFViaRNRNack(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1) // sender warm, receiver cold
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 1000, Payload: "y"})
	e.eng.Run()
	if len(got) != 1 || got[0].Payload != "y" {
		t.Fatalf("recv = %+v (RNR retransmission must recover the data)", got)
	}
	if e.b.hca.RNRNacks.N == 0 {
		t.Fatal("no RNR NACK sent")
	}
	if e.a.hca.Retransmits.N == 0 {
		t.Fatal("sender never retransmitted")
	}
	if len(e.sinkB.events) != 1 || e.sinkB.events[0].Class != FaultRecvRNPF {
		t.Fatalf("receiver faults = %+v", e.sinkB.events)
	}
}

func TestRecvFaultMidMessage(t *testing.T) {
	// 4-page message; receiver has only pages 0-1 warm. The fault fires on
	// the third packet: earlier chunks placed, RNR rewinds, full message
	// eventually delivered exactly once.
	e := newRCEnv(t, nil)
	const msg = 16 << 10
	warm(e.a, 0, 4)
	warm(e.b, 0, 2)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: msg})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: msg, Payload: "mid"})
	e.eng.Run()
	if len(got) != 1 || got[0].Len != msg {
		t.Fatalf("recv = %+v", got)
	}
}

func TestRNRWhenNoRecvPosted(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1)
	warm(e.b, 0, 1)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 500, Payload: "wait"})
	// Post the receive 1 ms later; the sender keeps retrying on RNR.
	e.eng.At(sim.Millisecond, func() {
		e.b.PostRecv(RecvWQE{ID: 9, Addr: 0, Len: mem.PageSize})
	})
	e.eng.Run()
	if len(got) != 1 || got[0].WQEID != 9 {
		t.Fatalf("recv = %+v", got)
	}
	if e.b.hca.RNRNacks.N == 0 {
		t.Fatal("expected literal receiver-not-ready NACKs")
	}
}

func TestRDMAWriteWarm(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 2)
	warm(e.b, 4, 2)
	var writes int
	var lastAddr mem.VAddr
	e.b.OnRemoteWrite = func(raddr mem.VAddr, n int, payload any, last bool) {
		writes++
		if last {
			lastAddr = raddr
		}
	}
	done := false
	e.a.OnSendComplete = func(id int64) { done = true }
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 8 << 10, Write: true,
		Raddr: mem.PageNum(4).Base(), Payload: "w"})
	e.eng.Run()
	if writes != 2 {
		t.Fatalf("write chunks = %d, want 2", writes)
	}
	if !done {
		t.Fatal("no initiator completion")
	}
	if lastAddr != mem.PageNum(4).Base()+mem.VAddr(4096) {
		t.Fatalf("last chunk addr = %v", lastAddr)
	}
	if !e.asB.Resident(4) || !e.asB.Resident(5) {
		t.Fatal("write target not resident")
	}
}

func TestRDMAWriteColdTarget(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1)
	done := false
	e.a.OnSendComplete = func(id int64) { done = true }
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 1000, Write: true,
		Raddr: mem.PageNum(8).Base(), Payload: "w"})
	e.eng.Run()
	if !done {
		t.Fatal("cold-target RDMA write never completed")
	}
	if len(e.sinkB.events) == 0 || e.sinkB.events[0].Class != FaultRecvRNPF {
		t.Fatalf("responder faults = %+v", e.sinkB.events)
	}
}

func TestRDMAReadWarm(t *testing.T) {
	e := newRCEnv(t, nil)
	const n = 32 << 10
	warm(e.a, 0, 8) // local destination
	warm(e.b, 8, 8) // remote source
	done := false
	e.a.OnReadComplete = func(id int64) { done = true }
	e.a.PostRead(ReadWQE{ID: 1, Laddr: 0, Raddr: mem.PageNum(8).Base(), Len: n})
	e.eng.Run()
	if !done {
		t.Fatal("read did not complete")
	}
	if e.a.hca.Faults.N+e.b.hca.Faults.N != 0 {
		t.Fatal("warm read faulted")
	}
}

func TestRDMAReadInitiatorFaultRewinds(t *testing.T) {
	// Local destination pages 2.. are cold: the initiator faults placing
	// the third chunk, drops the rest, and rewinds after resolution.
	e := newRCEnv(t, nil)
	const n = 32 << 10 // 8 chunks
	warm(e.a, 0, 2)
	warm(e.b, 8, 8)
	done := false
	e.a.OnReadComplete = func(id int64) { done = true }
	e.a.PostRead(ReadWQE{ID: 1, Laddr: 0, Raddr: mem.PageNum(8).Base(), Len: n})
	e.eng.Run()
	if !done {
		t.Fatal("read did not complete after rewind")
	}
	if e.a.hca.ReadRewinds.N == 0 {
		t.Fatal("no rewind recorded")
	}
	if e.a.hca.DroppedRNPF.N == 0 {
		t.Fatal("initiator should have dropped in-flight response packets")
	}
	var classes []FaultClass
	for _, ev := range e.sinkA.events {
		classes = append(classes, ev.Class)
	}
	if len(classes) == 0 || classes[0] != FaultReadInitiator {
		t.Fatalf("initiator fault classes = %v", classes)
	}
}

func TestRDMAReadResponderFaultSuspends(t *testing.T) {
	e := newRCEnv(t, nil)
	const n = 16 << 10
	warm(e.a, 0, 4) // destination warm; source cold
	done := false
	e.a.OnReadComplete = func(id int64) { done = true }
	e.a.PostRead(ReadWQE{ID: 1, Laddr: 0, Raddr: mem.PageNum(8).Base(), Len: n})
	e.eng.Run()
	if !done {
		t.Fatal("read did not complete")
	}
	if len(e.sinkB.events) != 1 || e.sinkB.events[0].Class != FaultReadResponder {
		t.Fatalf("responder faults = %+v", e.sinkB.events)
	}
	if e.a.hca.ReadRewinds.N != 0 {
		t.Fatal("responder-side fault must not rewind")
	}
}

func TestPrefetchWQEBatchesFaultPages(t *testing.T) {
	e := newRCEnv(t, nil) // PrefetchWQE on by default
	warm(e.a, 0, 4)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: 16 << 10})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 16 << 10, Payload: "p"})
	e.eng.Run()
	if len(e.sinkB.events) != 1 {
		t.Fatalf("fault events = %d, want 1 (batched)", len(e.sinkB.events))
	}
	if len(e.sinkB.events[0].Missing) != 4 {
		t.Fatalf("batched missing = %d pages, want all 4", len(e.sinkB.events[0].Missing))
	}
}

func TestNoPrefetchFaultsPagewise(t *testing.T) {
	e := newRCEnv(t, func(c *Config) { c.PrefetchWQE = false })
	warm(e.a, 0, 4)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: 16 << 10})
	e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 16 << 10, Payload: "p"})
	e.eng.Run()
	if len(got) != 1 {
		t.Fatalf("recv = %+v", got)
	}
	if len(e.sinkB.events) < 4 {
		t.Fatalf("fault events = %d, want one per page without prefetch", len(e.sinkB.events))
	}
}

func TestUDDropAndDemandPage(t *testing.T) {
	e := newRCEnv(t, nil)
	warm(e.a, 0, 1)
	var got []RecvCompletion
	e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
	e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.b.PostRecv(RecvWQE{ID: 2, Addr: 0, Len: mem.PageSize})
	e.a.PostSendUDTo(e.b.Remote(), SendWQE{ID: 1, Laddr: 0, Len: 1000, Payload: "lost"})
	e.eng.Run()
	if len(got) != 0 {
		t.Fatal("UD datagram survived a cold buffer")
	}
	if e.b.hca.UDDropsFault.N != 1 {
		t.Fatalf("UD drops = %d", e.b.hca.UDDropsFault.N)
	}
	// Buffer is now demand-paged: the next datagram lands.
	e.a.PostSendUDTo(e.b.Remote(), SendWQE{ID: 2, Laddr: 0, Len: 1000, Payload: "ok"})
	e.eng.Run()
	if len(got) != 1 || got[0].Payload != "ok" {
		t.Fatalf("recv = %+v", got)
	}
}

func TestStreamThroughputNearLineRate(t *testing.T) {
	e := newRCEnv(t, nil)
	const msg = 64 << 10
	const count = 200
	warm(e.a, 0, 16)
	warm(e.b, 0, 16)
	received := 0
	var lastRecv sim.Time
	e.b.OnRecv = func(c RecvCompletion) { received++; lastRecv = e.eng.Now() }
	for i := 0; i < count; i++ {
		e.b.PostRecv(RecvWQE{ID: int64(i), Addr: 0, Len: msg})
		e.a.PostSend(SendWQE{ID: int64(i), Laddr: 0, Len: msg})
	}
	e.eng.Run()
	if received != count {
		t.Fatalf("received %d/%d", received, count)
	}
	bits := float64(count*msg) * 8
	gbps := bits / lastRecv.Seconds() / 1e9
	if gbps < 40 || gbps > 56 {
		t.Fatalf("throughput = %.1f Gb/s, want near 56 Gb/s line rate", gbps)
	}
}

// Property: whatever subset of pages starts cold on either side, every
// message is delivered exactly once, in order, with its payload.
func TestRCDeliveryProperty(t *testing.T) {
	f := func(coldA, coldB uint16, nMsgs uint8) bool {
		count := int(nMsgs%8) + 1
		e := newRCEnv(t, nil)
		for i := 0; i < 16; i++ {
			if coldA&(1<<i) == 0 {
				warm(e.a, mem.PageNum(i), 1)
			}
			if coldB&(1<<i) == 0 {
				warm(e.b, mem.PageNum(i), 1)
			}
		}
		var got []RecvCompletion
		e.b.OnRecv = func(c RecvCompletion) { got = append(got, c) }
		for i := 0; i < count; i++ {
			e.b.PostRecv(RecvWQE{ID: int64(i), Addr: mem.VAddr(i%16) * mem.PageSize, Len: mem.PageSize})
			e.a.PostSend(SendWQE{ID: int64(i), Laddr: mem.VAddr(i%16) * mem.PageSize,
				Len: 4000, Payload: i})
		}
		e.eng.Run()
		if len(got) != count {
			return false
		}
		for i, c := range got {
			if c.Payload.(int) != i || c.WQEID != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
