package core

import (
	"errors"
	"testing"
	"testing/quick"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
)

// --------------------------------------------------------------------------
// InfiniBand (RC) integration.

type ibEnv struct {
	eng      *sim.Engine
	m        *mem.Machine
	drv      *Driver
	a, b     *rc.QP
	asA, asB *mem.AddressSpace
}

func newIBEnv(t *testing.T, ramBytes int64, tweak func(*rc.Config)) *ibEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	if tweak != nil {
		tweak(&cfg)
	}
	m := mem.NewMachine(eng, ramBytes)
	drv := NewDriver(eng, DefaultConfig())
	hcaA, hcaB := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
	drv.AttachHCA(hcaA)
	drv.AttachHCA(hcaB)
	e := &ibEnv{eng: eng, m: m, drv: drv}
	e.asA = m.NewAddressSpace("a", nil)
	e.asA.MapBytes(64 << 20)
	e.asB = m.NewAddressSpace("b", nil)
	e.asB.MapBytes(64 << 20)
	e.a, e.b = hcaA.NewQP(e.asA), hcaB.NewQP(e.asB)
	rc.Connect(e.a, e.b)
	drv.EnableODPQP(e.a)
	drv.EnableODPQP(e.b)
	return e
}

func TestODPColdSendRecv(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	var got []rc.RecvCompletion
	var doneAt sim.Time
	e.b.OnRecv = func(c rc.RecvCompletion) { got = append(got, c); doneAt = e.eng.Now() }
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096, Payload: "cold"})
	e.eng.Run()
	if len(got) != 1 || got[0].Payload != "cold" {
		t.Fatalf("recv = %+v", got)
	}
	if e.drv.NPFs.N != 2 { // one send-side, one recv-side
		t.Fatalf("NPFs = %d, want 2", e.drv.NPFs.N)
	}
	// Both sides cold: send fault (~215µs) + RNR round (~280µs wait).
	if doneAt < 300*sim.Microsecond || doneAt > 2*sim.Millisecond {
		t.Fatalf("cold 4KB delivery took %v", doneAt)
	}
	if e.drv.Hist.Total.Count() != 2 {
		t.Fatalf("breakdown samples = %d", e.drv.Hist.Total.Count())
	}
	// Hardware should dominate (paper: ~90%).
	hwShare := (e.drv.Hist.Trigger.Mean() + e.drv.Hist.Resume.Mean()) / e.drv.Hist.Total.Mean()
	if hwShare < 0.5 {
		t.Fatalf("hardware share = %.2f, want dominant", hwShare)
	}
}

func TestODPNPFLatencyCalibration(t *testing.T) {
	// A warm sender into a cold single-page receive buffer: the recv-side
	// NPF total should sit near the paper's ~215 µs.
	e := newIBEnv(t, 1<<30, nil)
	e.asA.TouchPages(0, 1, true)
	e.a.Domain.Map(0, 1)
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.eng.Run()
	total := e.drv.Hist.Total.Mean() // µs
	if total < 160 || total > 280 {
		t.Fatalf("4KB minor NPF = %.1f µs, want ≈215 µs", total)
	}
}

func TestODPMajorFault(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	// Dirty the receive page, then force it out to swap.
	e.asB.TouchPages(0, 1, true)
	e.asB.EvictPages(0, 1)
	e.asA.TouchPages(0, 1, true)
	e.a.Domain.Map(0, 1)
	var doneAt sim.Time
	e.b.OnRecv = func(rc.RecvCompletion) { doneAt = e.eng.Now() }
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.eng.Run()
	if e.drv.MajorNPFs.N != 1 {
		t.Fatalf("major NPFs = %d", e.drv.MajorNPFs.N)
	}
	if doneAt < e.m.Swap.ReadLatency {
		t.Fatalf("major fault finished in %v, under swap latency", doneAt)
	}
}

func TestInvalidationFlowKeepsDeviceCoherent(t *testing.T) {
	// Tiny cgroup: the QP's buffers get evicted between messages, so every
	// message refaults, and the notifier must unmap the domain each time.
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	m := mem.NewMachine(eng, 1<<30)
	drv := NewDriver(eng, DefaultConfig())
	hcaA, hcaB := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
	drv.AttachHCA(hcaA)
	drv.AttachHCA(hcaB)
	asA := m.NewAddressSpace("a", nil)
	asA.MapBytes(64 << 20)
	cg := mem.NewGroup("tiny", 8*mem.PageSize)
	asB := m.NewAddressSpace("b", cg)
	asB.MapBytes(64 << 20)
	a, b := hcaA.NewQP(asA), hcaB.NewQP(asB)
	rc.Connect(a, b)
	drv.EnableODPQP(a)
	drv.EnableODPQP(b)

	received := 0
	b.OnRecv = func(rc.RecvCompletion) { received++ }
	asA.TouchPages(0, 16, true)
	a.Domain.Map(0, 16)
	const msgs = 6
	for i := 0; i < msgs; i++ {
		// Each message lands in a different 4-page buffer; 8-page cgroup
		// forces eviction of earlier buffers.
		b.PostRecv(rc.RecvWQE{ID: int64(i), Addr: mem.VAddr(i*4) * mem.PageSize, Len: 16 << 10})
		a.PostSend(rc.SendWQE{ID: int64(i), Laddr: 0, Len: 16 << 10})
	}
	eng.Run()
	if received != msgs {
		t.Fatalf("received %d/%d under eviction pressure", received, msgs)
	}
	if drv.Inv.Mapped.N == 0 {
		t.Fatal("no mapped-page invalidations despite eviction of DMA buffers")
	}
	if cg.Used() > cg.Limit {
		t.Fatalf("cgroup over limit: %d > %d", cg.Used(), cg.Limit)
	}
}

// --------------------------------------------------------------------------
// Ethernet integration.

type ethEnv struct {
	eng            *sim.Engine
	net            *fabric.Network
	m              *mem.Machine
	drv            *Driver
	server, client *tcp.Stack
}

func newEthEnv(t *testing.T, serverPolicy nic.FaultPolicy, ringSize int) *ethEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 8<<30)
	drv := NewDriver(eng, DefaultConfig())
	e := &ethEnv{eng: eng, net: net, m: m, drv: drv}

	mk := func(name string, policy nic.FaultPolicy, odp bool) *tcp.Stack {
		dcfg := nic.DefaultConfig()
		dcfg.FirmwareJitterSigma = 0
		dev := nic.NewDevice(eng, net, dcfg)
		drv.AttachDevice(dev)
		as := m.NewAddressSpace(name, nil)
		ch := dev.NewChannel(name, as, ringSize, policy)
		if odp {
			drv.EnableODP(ch)
		}
		st := tcp.NewStack(ch, tcp.DefaultConfig())
		if !odp {
			if _, err := StaticPinAll(as, ch.Domain); err != nil {
				t.Fatalf("static pin: %v", err)
			}
		}
		return st
	}
	e.server = mk("server", serverPolicy, serverPolicy != nic.PolicyPinned)
	e.client = mk("client", nic.PolicyPinned, false)
	return e
}

func TestBackupDriverColdRing(t *testing.T) {
	e := newEthEnv(t, nic.PolicyBackup, 64)
	received := 0
	var doneAt sim.Time
	e.server.Listen(func(c *tcp.Conn) {
		c.OnMessage = func(payload any, n int) {
			received++
			doneAt = e.eng.Now()
		}
	})
	c := e.client.Dial(e.server.Channel().Dev.Node, e.server.Channel().Flow)
	const n = 100
	for i := 0; i < n; i++ {
		c.Send(4000, i)
	}
	e.eng.RunUntil(30 * sim.Second)
	if received != n {
		t.Fatalf("received %d/%d on cold backup ring", received, n)
	}
	// No TCP-visible loss: no retransmissions beyond maybe the handshake.
	if doneAt > 2*sim.Second {
		t.Fatalf("backup cold ring took %v", doneAt)
	}
	if e.drv.NPFs.N == 0 {
		t.Fatal("no NPFs recorded")
	}
}

func TestDropDriverColdRingSuffers(t *testing.T) {
	e := newEthEnv(t, nic.PolicyDrop, 64)
	received := 0
	var doneAt sim.Time
	e.server.Listen(func(c *tcp.Conn) {
		c.OnMessage = func(payload any, n int) {
			received++
			doneAt = e.eng.Now()
		}
	})
	c := e.client.Dial(e.server.Channel().Dev.Node, e.server.Channel().Flow)
	const n = 100
	for i := 0; i < n; i++ {
		c.Send(4000, i)
	}
	e.eng.RunUntil(300 * sim.Second)
	if received == n && doneAt < 2*sim.Second {
		t.Fatalf("drop policy finished suspiciously fast: %v", doneAt)
	}
	if e.client.Timeouts.N == 0 {
		t.Fatal("drop policy should force TCP timeouts")
	}
}

// --------------------------------------------------------------------------
// Pinning strategies.

func TestStaticPinAllAndOvercommitFailure(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 64*mem.PageSize)
	u := nic.NewDevice(eng, fabric.New(eng, fabric.DefaultEthernet()), nic.DefaultConfig())

	as1 := m.NewAddressSpace("vm1", nil)
	as1.MapBytes(40 * mem.PageSize)
	ch1 := u.NewChannel("c1", as1, 8, nic.PolicyPinned)
	if _, err := StaticPinAll(as1, ch1.Domain); err != nil {
		t.Fatalf("vm1 pin: %v", err)
	}
	if as1.PinnedBytes() != 40*mem.PageSize {
		t.Fatalf("pinned = %d", as1.PinnedBytes())
	}

	as2 := m.NewAddressSpace("vm2", nil)
	as2.MapBytes(40 * mem.PageSize)
	ch2 := u.NewChannel("c2", as2, 8, nic.PolicyPinned)
	_, err := StaticPinAll(as2, ch2.Domain)
	if !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("vm2 pin err = %v, want OOM (Table 5's N/A)", err)
	}
}

func TestPinDownCacheAmortizes(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 1<<30)
	u := nic.NewDevice(eng, fabric.New(eng, fabric.DefaultEthernet()), nic.DefaultConfig())
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(16 << 20)
	ch := u.NewChannel("c", as, 8, nic.PolicyPinned)
	pdc := NewPinDownCache(as, ch.Domain, 1<<20)

	first, err := pdc.Acquire(0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pdc.Acquire(0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if second*10 > first {
		t.Fatalf("cache hit cost %v not well below miss cost %v", second, first)
	}
	if pdc.Hits.N != 1 || pdc.Misses.N != 1 {
		t.Fatalf("hits=%d misses=%d", pdc.Hits.N, pdc.Misses.N)
	}
}

func TestPinDownCacheCapacityEviction(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 1<<30)
	u := nic.NewDevice(eng, fabric.New(eng, fabric.DefaultEthernet()), nic.DefaultConfig())
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(64 << 20)
	ch := u.NewChannel("c", as, 8, nic.PolicyPinned)
	pdc := NewPinDownCache(as, ch.Domain, 32*mem.PageSize)

	for i := 0; i < 16; i++ {
		if _, err := pdc.Acquire(mem.VAddr(i)*4*mem.PageSize, 4*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if pdc.PinnedBytes() > 32*mem.PageSize {
			t.Fatalf("cache exceeded capacity: %d", pdc.PinnedBytes())
		}
	}
	if pdc.Evictions.N == 0 {
		t.Fatal("no evictions at capacity")
	}
	if as.PinnedBytes() != pdc.PinnedBytes() {
		t.Fatalf("accounting mismatch: as=%d cache=%d", as.PinnedBytes(), pdc.PinnedBytes())
	}
	pdc.Flush()
	if as.PinnedBytes() != 0 {
		t.Fatalf("flush left %d pinned", as.PinnedBytes())
	}
}

// Property: under random acquire sequences the pin-down cache never exceeds
// capacity and its page set always matches the address space's pinned set.
func TestPinDownCacheInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.NewEngine(1)
		m := mem.NewMachine(eng, 1<<30)
		u := nic.NewDevice(eng, fabric.New(eng, fabric.DefaultEthernet()), nic.DefaultConfig())
		as := m.NewAddressSpace("p", nil)
		as.MapBytes(64 << 20)
		ch := u.NewChannel("c", as, 8, nic.PolicyPinned)
		pdc := NewPinDownCache(as, ch.Domain, 16*mem.PageSize)
		for _, op := range ops {
			addr := mem.VAddr(op%64) * mem.PageSize
			length := (int(op/64) + 1) * mem.PageSize
			if _, err := pdc.Acquire(addr, length); err != nil {
				return false
			}
			if pdc.PinnedBytes() > 16*mem.PageSize {
				return false
			}
			if as.PinnedBytes() != pdc.PinnedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
