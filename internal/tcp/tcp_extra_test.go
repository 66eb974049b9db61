package tcp

import (
	"testing"

	"npf/internal/fabric"
	"npf/internal/nic"
	"npf/internal/sim"
)

func TestHugeMessageSegmentation(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	var got []int
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { got = append(got, n) }
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	const big = 1 << 20 // 262 segments
	c.Send(big, "huge")
	c.Send(1, "tiny")
	p.eng.Run()
	if len(got) != 2 || got[0] != big || got[1] != 1 {
		t.Fatalf("lengths = %v", got)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	sGot, cGot := 0, 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) {
			sGot++
			c.Send(4000, payload) // echo
		}
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	c.OnMessage = func(payload any, n int) { cGot++ }
	for i := 0; i < 100; i++ {
		c.Send(4000, i)
	}
	p.eng.Run()
	if sGot != 100 || cGot != 100 {
		t.Fatalf("server=%d client=%d", sGot, cGot)
	}
}

func TestLossBothDirections(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0.03, true)
	sGot, cGot := 0, 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) {
			sGot++
			c.Send(2000, payload)
		}
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	c.OnMessage = func(payload any, n int) { cGot++ }
	for i := 0; i < 100; i++ {
		c.Send(2000, i)
	}
	p.eng.Run()
	if sGot != 100 || cGot != 100 {
		t.Fatalf("under loss: server=%d client=%d", sGot, cGot)
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	p.server.Listen(func(c *Conn) {})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	for i := 0; i < 50; i++ {
		c.Send(4000, i)
	}
	p.eng.Run()
	if c.srtt == 0 {
		t.Fatal("no RTT samples taken")
	}
	// RTT on this fabric is tens of microseconds; RTO must collapse to
	// the floor.
	if c.rto != p.client.Cfg.MinRTO {
		t.Fatalf("rto = %v, want MinRTO %v", c.rto, p.client.Cfg.MinRTO)
	}
}

func TestStackCountersConsistent(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	received := 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { received++ }
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	for i := 0; i < 20; i++ {
		c.Send(4000, i)
	}
	p.eng.Run()
	if p.client.SegsSent.N == 0 || p.server.SegsRecv.N == 0 {
		t.Fatal("counters not incremented")
	}
	// Lossless: everything the client sent arrived somewhere (server data
	// segments + handshake), and no retransmissions happened.
	if p.client.Retransmits.N != 0 || p.client.Timeouts.N != 0 {
		t.Fatalf("retx=%d timeouts=%d on lossless fabric",
			p.client.Retransmits.N, p.client.Timeouts.N)
	}
}

func TestSimMaxEventsGuard(t *testing.T) {
	eng := sim.NewEngine(1)
	eng.MaxEvents = 100
	var loop func()
	loop = func() { eng.After(1, loop) }
	loop()
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation not caught")
		}
	}()
	eng.Run()
}

// TestListenerAnswersSynFromFrame: a listener takes the dialer's node from
// the SYN frame's Packet.Src, which the sending NIC stamps, and its flow
// from the segment, and answers there. A bystander device between the two
// keeps the client's node apart from the server's.
func TestListenerAnswersSynFromFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	server := pinnedStack(eng, net, "server", nil)
	pinnedStack(eng, net, "bystander", nil)
	client := pinnedStack(eng, net, "client", nil)
	var accepted *Conn
	server.Listen(func(c *Conn) { accepted = c })
	var synAcks []fabric.Packet
	net.SetLossFunc(client.ch.Dev.Node, func(p *fabric.Packet) bool {
		if p.Payload.(*frame).seg.Kind == segSynAck {
			synAcks = append(synAcks, *p)
		}
		return false
	})
	c := client.Dial(server.ch.Dev.Node, server.ch.Flow)
	eng.Run()

	node, flow := client.ch.Dev.Node, client.ch.Flow
	if accepted == nil {
		t.Fatal("the listener accepted no connection")
	}
	if accepted.peerNode != node || accepted.peerFlow != flow {
		t.Fatalf("accepted peer (node %d, flow %d), want the dialer's (node %d, flow %d)",
			accepted.peerNode, accepted.peerFlow, node, flow)
	}
	if len(synAcks) != 1 || synAcks[0].Src != server.ch.Dev.Node || synAcks[0].Flow != flow {
		t.Fatalf("SYN-ACKs reaching the dialer: %+v, want one from node %d on flow %d", synAcks, server.ch.Dev.Node, flow)
	}
	if c.state != StateEstablished {
		t.Fatalf("dialer state %v, want established", c.state)
	}
}
