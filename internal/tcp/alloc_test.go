package tcp

import (
	"testing"
	"unsafe"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

// pinnedStack builds a stack on a fresh device on eng, with a pinned ring
// whose RX and TX buffers are already resident and mapped. tr may be nil.
func pinnedStack(eng *sim.Engine, net *fabric.Network, name string, tr *trace.Tracer) *Stack {
	dcfg := nic.DefaultConfig()
	dcfg.FirmwareJitterSigma = 0
	dev := nic.NewDevice(eng, net, dcfg)
	dev.SetNPFSink(autoDriver{})
	if tr != nil {
		dev.SetTracer(tr)
	}
	as := mem.NewMachine(eng, 1<<30).NewAddressSpace(name, nil)
	s := NewStack(dev.NewChannel(name, as, 64, nic.PolicyPinned), DefaultConfig())
	warm(s)
	return s
}

// TestTCPWarmRoundNoAlloc: between two warm stacks on one engine, a
// request→response round — four request segments, a one-segment reply and
// their ACKs, each through both NICs, the fabric and the RX interrupts —
// allocates nothing once the frame free lists, queues and batches have
// grown.
func TestTCPWarmRoundNoAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	server := pinnedStack(eng, net, "server", nil)
	client := pinnedStack(eng, net, "client", nil)
	reply := new(int)
	server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { c.Send(100, reply) }
	})
	c := client.Dial(server.ch.Dev.Node, server.ch.Flow)
	replies := 0
	c.OnMessage = func(payload any, n int) { replies++ }
	req := new(int)
	round := func() {
		c.Send(3*4000+100, req)
		eng.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("warm TCP request→response round allocates %.2f objects, want 0", allocs)
	}
	if replies != 102 {
		t.Fatalf("%d replies, want 102", replies)
	}
	if n := client.Retransmits.N + server.Retransmits.N; n != 0 {
		t.Fatalf("a warm round retransmitted %d segments", n)
	}
	if c.sent != 0 || c.q.Len() != 0 {
		t.Fatalf("after the last round %d segments are unacknowledged (%d sent), want none", c.q.Len(), c.sent)
	}
}

// TestSegmentFootprint pins the wire structs that every send copies: a
// segment is 72 B and a frame (packet, segment, sending stack) 128 B, one
// allocation size class. The sender's node rides in the frame's
// Packet.Src, and a message's end is the end of the segment carrying it,
// so neither is stored in the segment.
func TestSegmentFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(segment{}); sz != 72 {
		t.Fatalf("unsafe.Sizeof(segment{}) = %d, want 72", sz)
	}
	if sz := unsafe.Sizeof(frame{}); sz != 128 {
		t.Fatalf("unsafe.Sizeof(frame{}) = %d, want 128", sz)
	}
}

// TestFramePoolSameEngineOnly: a handled frame returns to its sender's free
// list only when sender and receiver share one engine. Across the
// partitions of a group, each free list would otherwise be touched from two
// goroutines, so frames there are left to the garbage collector.
func TestFramePoolSameEngineOnly(t *testing.T) {
	stream := func(engA, engB *sim.Engine, net *fabric.Network, run func()) (a, b *Stack) {
		a = pinnedStack(engA, net, "a", nil)
		b = pinnedStack(engB, net, "b", nil)
		got := 0
		b.Listen(func(c *Conn) {
			c.OnMessage = func(payload any, n int) { got++ }
		})
		c := a.Dial(b.ch.Dev.Node, b.ch.Flow)
		for k := 0; k < 8; k++ {
			c.Send(2*4000, k)
		}
		run()
		if got != 8 {
			t.Fatalf("%d messages delivered, want 8", got)
		}
		return a, b
	}

	eng := sim.NewEngine(1)
	a, b := stream(eng, eng, fabric.New(eng, fabric.DefaultEthernet()), func() { eng.Run() })
	if len(a.free) == 0 || len(b.free) == 0 {
		t.Fatalf("one engine: free lists hold %d and %d frames, want both refilled", len(a.free), len(b.free))
	}

	g := sim.NewGroup(1, 2, fabric.DefaultEthernet().Lookahead())
	g.SetThreads(2)
	a, b = stream(g.Engine(0), g.Engine(1), fabric.NewOnGroup(g, fabric.DefaultEthernet()), func() { g.Run() })
	if len(a.free) != 0 || len(b.free) != 0 {
		t.Fatalf("two partitions: free lists hold %d and %d frames, want none recycled", len(a.free), len(b.free))
	}
}

// TestGoBackNLateAckCoversRequeued: the client loses every ACK until an
// RTO has rewound the send queue and resent the first segment. The
// server's ACK of that resend is the late cumulative ACK: it covers all
// four requeued segments, so none of the other three is sent a second
// time; the messages still arrive in order and tcp.inflight_segs falls
// back to 0.
func TestGoBackNLateAckCoversRequeued(t *testing.T) {
	const n = 4
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	tr := trace.New(eng)
	server := pinnedStack(eng, net, "server", nil)
	client := pinnedStack(eng, net, "client", tr)
	var got []int
	server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, _ int) { got = append(got, payload.(int)) }
	})
	c := client.Dial(server.ch.Dev.Node, server.ch.Flow)

	// Count each data segment the server is sent, by sequence number, and
	// let only a cumulative ACK of all n segments, sent after the RTO,
	// reach the client.
	sends := map[uint64]int{}
	net.SetLossFunc(server.ch.Dev.Node, func(p *fabric.Packet) bool {
		if seg := p.Payload.(*frame).seg; seg.Kind == segData && seg.Len > 0 {
			sends[seg.Seq]++
		}
		return false
	})
	late := 0
	net.SetLossFunc(client.ch.Dev.Node, func(p *fabric.Packet) bool {
		seg := p.Payload.(*frame).seg
		if seg.Kind != segData {
			return false
		}
		if seg.Ack < n*4000 || client.Timeouts.N == 0 {
			return true
		}
		if late++; late == 1 && (client.Timeouts.N != 1 || c.sent != 1 || c.q.Len() != n) {
			t.Errorf("before the late ACK: %d timeouts, %d of %d queued segments sent; want 1, 1 of %d",
				client.Timeouts.N, c.sent, c.q.Len(), n)
		}
		return false
	})

	// The RTO (InitRTO: no RTT sample yet) fires at start+1s.
	const start = 10 * sim.Millisecond
	eng.At(start, func() {
		for k := 0; k < n; k++ {
			c.Send(4000, k)
		}
	})
	tr.StartSampler(sim.Millisecond)
	eng.Run()

	if len(got) != n {
		t.Fatalf("delivered %v, want %d messages", got, n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivered %v, want in order", got)
		}
	}
	for k := uint64(0); k < n; k++ {
		want := 1
		if k == 0 {
			want = 2 // the RTO's one go-back-N resend
		}
		if sends[k*4000] != want {
			t.Fatalf("segment at %d sent %d times, want %d (all sends: %v)", k*4000, sends[k*4000], want, sends)
		}
	}
	if client.Retransmits.N != 1 {
		t.Fatalf("%d retransmissions, want 1", client.Retransmits.N)
	}
	col := tr.Sampler().Series().Cols["tcp.inflight_segs"]
	if len(col) == 0 || col[len(col)-1] != 0 {
		t.Fatalf("tcp.inflight_segs series %v, want it to end at 0", col)
	}
	peak := 0.0
	for _, v := range col {
		if v > peak {
			peak = v
		}
	}
	if peak != n {
		t.Fatalf("tcp.inflight_segs peaked at %v, want %d", peak, n)
	}
}
