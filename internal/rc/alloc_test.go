package rc

import (
	"testing"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/sim"
)

// TestRCWarmRoundNoAlloc: on warm, mapped buffers a send→ack round — post
// the receive and the send, carry the data packets and the ACK, deliver
// both completions — allocates nothing once the packet free lists and
// queues have grown.
func TestRCWarmRoundNoAlloc(t *testing.T) {
	const msg = 3*4096 + 100 // four data packets, one ACK
	e := newRCEnv(t, nil)
	warm(e.a, 0, 4)
	warm(e.b, 0, 4)
	recvs, sends := 0, 0
	e.b.OnRecv = func(RecvCompletion) { recvs++ }
	e.a.OnSendComplete = func(int64) { sends++ }
	round := func() {
		e.b.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: msg})
		e.a.PostSend(SendWQE{ID: 1, Laddr: 0, Len: msg})
		e.eng.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm RC send→ack round allocates %.2f objects, want 0", allocs)
	}
	if recvs != 102 || sends != 102 || len(e.sinkA.events)+len(e.sinkB.events) != 0 {
		t.Fatalf("%d receives, %d send completions, %d faults; want 102, 102, 0", recvs, sends, len(e.sinkA.events)+len(e.sinkB.events))
	}
	if e.a.hca.RNRNacks.N+e.b.hca.RNRNacks.N != 0 || e.a.hca.Retransmits.N+e.b.hca.Retransmits.N != 0 {
		t.Fatal("a warm round took the RNR or retransmission path")
	}
	if !e.asB.Resident(mem.PageNum(3)) {
		t.Fatal("receive buffer lost residency")
	}
}

// TestPacketPoolSameEngineOnly: a delivered packet returns to its sender's
// free list only when sender and receiver share one engine. Across the
// partitions of a group, each free list would otherwise be touched from two
// goroutines, so packets there are left to the garbage collector.
func TestPacketPoolSameEngineOnly(t *testing.T) {
	stream := func(engA, engB *sim.Engine, net *fabric.Network, run func()) (a, b *HCA) {
		cfg := DefaultConfig()
		cfg.FirmwareJitterSigma = 0
		a, b = NewHCA(engA, net, cfg), NewHCA(engB, net, cfg)
		a.SetFaultSink(&testSink{})
		b.SetFaultSink(&testSink{})
		asA := mem.NewMachine(engA, 1<<30).NewAddressSpace("a", nil)
		asB := mem.NewMachine(engB, 1<<30).NewAddressSpace("b", nil)
		asA.MapBytes(1 << 20)
		asB.MapBytes(1 << 20)
		qa, qb := a.NewQP(asA), b.NewQP(asB)
		Connect(qa, qb)
		warm(qa, 0, 4)
		recvs := 0
		qb.OnRecv = func(RecvCompletion) { recvs++ }
		for k := 0; k < 4; k++ { // the first receive faults: RNR NACK, resend
			qb.PostRecv(RecvWQE{ID: int64(k), Addr: 0, Len: 4 * 4096})
			qa.PostSend(SendWQE{ID: int64(k), Laddr: 0, Len: 4 * 4096})
		}
		run()
		if recvs != 4 || b.RNRNacks.N == 0 {
			t.Fatalf("%d receives, %d RNR NACKs; want 4 and a fault", recvs, b.RNRNacks.N)
		}
		return a, b
	}

	eng := sim.NewEngine(1)
	a, b := stream(eng, eng, fabric.New(eng, fabric.DefaultInfiniBand()), func() { eng.Run() })
	if len(a.free) == 0 || len(b.free) == 0 {
		t.Fatalf("one engine: free lists hold %d and %d packets, want both refilled", len(a.free), len(b.free))
	}

	g := sim.NewGroup(1, 2, fabric.DefaultInfiniBand().Lookahead())
	g.SetThreads(2)
	a, b = stream(g.Engine(0), g.Engine(1), fabric.NewOnGroup(g, fabric.DefaultInfiniBand()), func() { g.Run() })
	if len(a.free) != 0 || len(b.free) != 0 {
		t.Fatalf("two partitions: free lists hold %d and %d packets, want none recycled", len(a.free), len(b.free))
	}
}
