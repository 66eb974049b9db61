package tcp

import (
	"errors"
	"testing"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
)

// autoDriver is a minimal IOprovider: it resolves every NPF by faulting the
// pages in and mapping them, merging backed-up packets.
type autoDriver struct{}

func (autoDriver) HandleRxNPF(entries []nic.RxNPFEntry) {
	for _, e := range entries {
		ring := e.Channel.Rx
		missing := e.Missing
		if missing == nil && e.Packet != nil {
			// Ring-full park: wait for the IOuser to post, then retry.
			entry := e
			ring.WatchTail(func() {
				ring.WatchTail(nil)
				autoDriver{}.HandleRxNPF([]nic.RxNPFEntry{entry})
			})
			continue
		}
		for _, pn := range missing {
			if _, err := e.Channel.AS.TouchPages(pn, 1, true); err != nil {
				panic(err)
			}
			e.Channel.Domain.Map(pn, 1)
		}
		if e.Packet == nil {
			ring.ClearInflight(e.Index)
			continue
		}
		ring.FillResolved(e.Index, e.Packet)
		ring.ResolveRNPF(e.BitIndex)
	}
}

func (autoDriver) HandleTxNPF(ev nic.TxNPF) {
	for _, pn := range ev.Missing {
		if _, err := ev.Channel.AS.TouchPages(pn, 1, false); err != nil {
			panic(err)
		}
		ev.Channel.Domain.Map(pn, 1)
	}
	ev.Resume()
}

type pair struct {
	eng            *sim.Engine
	net            *fabric.Network
	m              *mem.Machine
	server, client *Stack
}

// newPair builds server+client stacks. The server ring uses serverPolicy
// and starts cold unless warmed; the client is always warmed (the paper's
// client machines are unmodified).
func newPair(t *testing.T, serverPolicy nic.FaultPolicy, ringSize int, lossProb float64, warmServer bool) *pair {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := fabric.DefaultEthernet()
	cfg.LossProbability = lossProb
	net := fabric.New(eng, cfg)
	m := mem.NewMachine(eng, 8<<30)

	mk := func(name string, policy nic.FaultPolicy) *Stack {
		dcfg := nic.DefaultConfig()
		dcfg.FirmwareJitterSigma = 0
		dev := nic.NewDevice(eng, net, dcfg)
		dev.SetNPFSink(autoDriver{})
		as := m.NewAddressSpace(name, nil)
		ch := dev.NewChannel(name, as, ringSize, policy)
		return NewStack(ch, DefaultConfig())
	}
	p := &pair{eng: eng, net: net, m: m}
	p.server = mk("server", serverPolicy)
	p.client = mk("client", nic.PolicyPinned)
	warm(p.client)
	if warmServer {
		warm(p.server)
	}
	return p
}

// warm pre-faults and maps a stack's RX and TX buffer regions.
func warm(s *Stack) {
	rxBase, rxLen := s.RxBuffers()
	txBase, txLen := s.TxBuffers()
	for _, r := range []struct {
		base mem.VAddr
		n    int64
	}{{rxBase, rxLen}, {txBase, txLen}} {
		pages := int(r.n / mem.PageSize)
		if _, err := s.ch.AS.TouchPages(r.base.Page(), pages, true); err != nil {
			panic(err)
		}
		s.ch.Domain.Map(r.base.Page(), pages)
	}
}

func TestHandshakeAndEcho(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 64, 0, true)
	var serverGot, clientGot []any
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) {
			serverGot = append(serverGot, payload)
			c.Send(100, "reply:"+payload.(string))
		}
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	c.OnMessage = func(payload any, n int) { clientGot = append(clientGot, payload) }
	connected := false
	c.OnConnect = func() { connected = true }
	c.Send(200, "hello")
	p.eng.Run()
	if !connected {
		t.Fatal("never connected")
	}
	if len(serverGot) != 1 || serverGot[0] != "hello" {
		t.Fatalf("server got %v", serverGot)
	}
	if len(clientGot) != 1 || clientGot[0] != "reply:hello" {
		t.Fatalf("client got %v", clientGot)
	}
}

func TestLargeMessagesInOrder(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	var got []int
	var lens []int
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) {
			got = append(got, payload.(int))
			lens = append(lens, n)
		}
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	const n = 50
	for i := 0; i < n; i++ {
		c.Send(10000, i) // 3 segments each
	}
	p.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, v := range got {
		if v != i || lens[i] != 10000 {
			t.Fatalf("message %d = %d (len %d)", i, v, lens[i])
		}
	}
	if p.client.Retransmits.N != 0 {
		t.Fatalf("lossless run retransmitted %d times", p.client.Retransmits.N)
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	var lastAt sim.Time
	received := 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) {
			received++
			lastAt = p.eng.Now()
		}
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	const msg = 64 << 10
	const count = 100
	for i := 0; i < count; i++ {
		c.Send(msg, i)
	}
	p.eng.Run()
	if received != count {
		t.Fatalf("received %d/%d", received, count)
	}
	gbps := float64(count*msg) * 8 / lastAt.Seconds() / 1e9
	// 12 Gb/s line rate; slow start and header overhead cost a bit.
	if gbps < 7 || gbps > 12 {
		t.Fatalf("throughput = %.2f Gb/s, want near 12", gbps)
	}
}

func TestLossRecovery(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0.02, true)
	var got []int
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { got = append(got, payload.(int)) }
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	const n = 200
	for i := 0; i < n; i++ {
		c.Send(4000, i)
	}
	p.eng.Run()
	if len(got) != n {
		t.Fatalf("delivered %d/%d under 2%% loss", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery at %d: %d", i, v)
		}
	}
	if p.client.Retransmits.N == 0 {
		t.Fatal("no retransmissions under loss?")
	}
}

func TestFastRetransmit(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0.05, true)
	received := 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { received++ }
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	for i := 0; i < 300; i++ {
		c.Send(4000, i)
	}
	p.eng.Run()
	if received != 300 {
		t.Fatalf("received %d/300", received)
	}
	if p.client.FastRetx.N == 0 {
		t.Fatal("expected at least one fast retransmit with 5% loss and deep windows")
	}
}

func TestRTOBackoffAndRecovery(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 64, 0, true)
	received := 0
	p.server.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { received++ }
	})
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	// Let the handshake finish, then black-hole the server for 5 seconds.
	p.eng.At(10*sim.Millisecond, func() {
		p.net.SetBlackhole(p.server.ch.Dev.Node, true)
		c.Send(4000, "x")
	})
	p.eng.At(5*sim.Second+10*sim.Millisecond, func() {
		p.net.SetBlackhole(p.server.ch.Dev.Node, false)
	})
	p.eng.Run()
	if received != 1 {
		t.Fatalf("received %d, want 1 after recovery", received)
	}
	if p.client.Timeouts.N < 2 {
		t.Fatalf("timeouts = %d, want >=2 (exponential backoff rounds)", p.client.Timeouts.N)
	}
	if c.state != StateEstablished {
		t.Fatalf("state = %v", c.state)
	}
}

func TestConnectionFailsAfterMaxRetries(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 64, 0, true)
	p.server.Listen(func(c *Conn) {})
	// Shrink retry budget so the test completes quickly.
	p.client.Cfg.MaxRetries = 4
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	var failure error
	c.OnFail = func(err error) { failure = err }
	p.eng.At(10*sim.Millisecond, func() {
		p.net.SetBlackhole(p.server.ch.Dev.Node, true)
		c.Send(4000, "doomed")
	})
	p.eng.Run()
	if !errors.Is(failure, ErrTooManyRetries) {
		t.Fatalf("failure = %v", failure)
	}
	if c.state != StateFailed {
		t.Fatalf("state = %v", c.state)
	}
}

func TestSynRetryThenConnect(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 64, 0, true)
	p.server.Listen(func(c *Conn) {})
	p.net.SetBlackhole(p.server.ch.Dev.Node, true)
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	var connectedAt sim.Time
	c.OnConnect = func() { connectedAt = p.eng.Now() }
	p.eng.At(2500*sim.Millisecond, func() { p.net.SetBlackhole(p.server.ch.Dev.Node, false) })
	p.eng.Run()
	if c.state != StateEstablished {
		t.Fatalf("state = %v", c.state)
	}
	// SYN at 0 and 1s lost; the 3s retry lands (1s + 2s backoff).
	if connectedAt < 2900*sim.Millisecond || connectedAt > 3500*sim.Millisecond {
		t.Fatalf("connected at %v, want ≈3s (SYN backoff)", connectedAt)
	}
}

func TestSynGivesUp(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 64, 0, true)
	p.client.Cfg.SynMaxRetries = 2
	p.net.SetBlackhole(p.server.ch.Dev.Node, true)
	c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	var failed bool
	c.OnFail = func(error) { failed = true }
	p.eng.Run()
	if !failed || c.state != StateFailed {
		t.Fatalf("failed=%v state=%v", failed, c.state)
	}
}

func TestColdRingDropVsBackup(t *testing.T) {
	run := func(policy nic.FaultPolicy) (sim.Time, bool) {
		p := newPair(t, policy, 16, 0, false) // cold server ring
		received := 0
		var done sim.Time
		p.server.Listen(func(c *Conn) {
			c.OnMessage = func(payload any, n int) {
				received++
				if received == 20 {
					done = p.eng.Now()
				}
			}
		})
		c := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
		for i := 0; i < 20; i++ {
			c.Send(4000, i)
		}
		p.eng.RunUntil(120 * sim.Second)
		return done, received == 20
	}
	dropTime, dropOK := run(nic.PolicyDrop)
	backupTime, backupOK := run(nic.PolicyBackup)
	if !backupOK {
		t.Fatal("backup ring failed to deliver on a cold ring")
	}
	if backupTime > sim.Second {
		t.Fatalf("backup cold-ring time = %v, want well under a second", backupTime)
	}
	if !dropOK {
		// Acceptable: with drop the connection may be starved that long.
		t.Logf("drop policy did not finish within 120s (cold-ring deadlock)")
		return
	}
	if dropTime < 10*backupTime {
		t.Fatalf("drop=%v backup=%v: drop should be at least an order of magnitude slower",
			dropTime, backupTime)
	}
}

func TestTwoConnectionsInterleave(t *testing.T) {
	p := newPair(t, nic.PolicyPinned, 256, 0, true)
	got := map[uint64][]int{}
	p.server.Listen(func(c *Conn) {
		id := c.id
		c.OnMessage = func(payload any, n int) {
			got[id] = append(got[id], payload.(int))
		}
	})
	c1 := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	c2 := p.client.Dial(p.server.ch.Dev.Node, p.server.ch.Flow)
	for i := 0; i < 30; i++ {
		c1.Send(4000, i)
		c2.Send(4000, 1000+i)
	}
	p.eng.Run()
	if len(got) != 2 {
		t.Fatalf("connections seen: %d", len(got))
	}
	for id, msgs := range got {
		if len(msgs) != 30 {
			t.Fatalf("conn %d got %d messages", id, len(msgs))
		}
		for i := 1; i < len(msgs); i++ {
			if msgs[i] != msgs[i-1]+1 {
				t.Fatalf("conn %d out of order: %v", id, msgs)
			}
		}
	}
}
