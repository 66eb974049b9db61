package apps

import (
	"testing"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
)

// Soak tests: conservation invariants under combined fault injection,
// memory pressure, and (for RoCE) genuine packet loss. Every byte the
// application sent must arrive exactly once, in order, no matter how the
// fault machinery interleaves.

func TestSoakEthBackupUnderInjection(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		eng := sim.NewEngine(seed)
		net := fabric.New(eng, fabric.DefaultEthernet())
		m := mem.NewMachine(eng, 8<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		mkStack := func(name string) *tcp.Stack {
			dcfg := nic.DefaultConfig()
			dev := nic.NewDevice(eng, net, dcfg)
			drv.AttachDevice(dev)
			as := m.NewAddressSpace(name, nil)
			ch := dev.NewChannel(name, as, 128, nic.PolicyBackup)
			drv.EnableODP(ch)
			return tcp.NewStack(ch, tcp.DefaultConfig())
		}
		recv := mkStack("recv")
		send := mkStack("send")
		s := NewEthStream(send, recv, 32<<10, 8<<20)
		rxBase, rxLen := recv.RxBuffers()
		// Aggressive: roughly one injected fault per 32 KB received.
		s.Injector = NewFaultInjector(recv.Channel().AS, rxBase.Page(),
			int(rxLen/mem.PageSize), 1.0/(32<<10), seed%2 == 0)
		s.Start()
		eng.RunUntil(300 * sim.Second)
		if int64(s.Received.N) != 8<<20 {
			t.Fatalf("seed %d: received %d of %d bytes", seed, s.Received.N, 8<<20)
		}
	}
}

func TestSoakRoCEChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		eng := sim.NewEngine(seed)
		net := fabric.New(eng, fabric.Config{
			RateBps: 40e9, Propagation: 2 * sim.Microsecond, LossProbability: 0.01,
		})
		cfg := rc.DefaultConfig()
		cfg.RetxTimeout = 4 * sim.Millisecond // RoCE's retransmission timeout
		m := mem.NewMachine(eng, 8<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		hcaA, hcaB := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
		drv.AttachHCA(hcaA)
		drv.AttachHCA(hcaB)
		asA := m.NewAddressSpace("a", nil)
		asA.MapBytes(64 << 20)
		asB := m.NewAddressSpace("b", nil)
		asB.MapBytes(64 << 20)
		// Two QP pairs sharing each side's protection domain.
		domA, domB := hcaA.MMU.NewDomain(), hcaB.MMU.NewDomain()
		var pairs [2][2]*rc.QP
		for i := 0; i < 2; i++ {
			qa := hcaA.NewQPShared(asA, domA)
			qb := hcaB.NewQPShared(asB, domB)
			rc.Connect(qa, qb)
			drv.EnableODPQP(qa)
			drv.EnableODPQP(qb)
			pairs[i] = [2]*rc.QP{qa, qb}
		}
		rng := sim.NewRand(seed)
		const msgs = 60
		got := [2][]int{}
		for i := 0; i < 2; i++ {
			i := i
			pairs[i][1].OnRecv = func(c rc.RecvCompletion) {
				got[i] = append(got[i], c.Payload.(int))
			}
		}
		// Interleave posts across the two connections with random cold
		// buffers; periodically evict resident pages to force refaults.
		for k := 0; k < msgs; k++ {
			for i := 0; i < 2; i++ {
				buf := mem.VAddr(rng.Intn(512)) * mem.PageSize
				pairs[i][1].PostRecv(rc.RecvWQE{ID: int64(k), Addr: buf, Len: 8 << 10})
				pairs[i][0].PostSend(rc.SendWQE{ID: int64(k), Laddr: mem.VAddr(k%16) * mem.PageSize,
					Len: 8 << 10, Payload: k})
			}
			if k%10 == 5 {
				eng.After(sim.Time(k)*sim.Millisecond, func() {
					asB.EvictPages(mem.PageNum(rng.Intn(512)), 8)
				})
			}
		}
		eng.RunUntil(120 * sim.Second)
		for i := 0; i < 2; i++ {
			if len(got[i]) != msgs {
				t.Fatalf("seed %d conn %d: delivered %d/%d", seed, i, len(got[i]), msgs)
			}
			for k, v := range got[i] {
				if v != k {
					t.Fatalf("seed %d conn %d: out of order at %d (%d)", seed, i, k, v)
				}
			}
		}
	}
}

func TestSoakMemcachedUnderMemoryPressure(t *testing.T) {
	// A memcached instance whose working set exceeds its cgroup: constant
	// eviction, swap-ins, invalidations, and rNPFs — every operation must
	// still complete and the cgroup must hold.
	eng := sim.NewEngine(9)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 1<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())
	cg := mem.NewGroup("tight", 24<<20)

	mkDev := func() *nic.Device {
		dcfg := nic.DefaultConfig()
		dev := nic.NewDevice(eng, net, dcfg)
		drv.AttachDevice(dev)
		return dev
	}
	sDev, cDev := mkDev(), mkDev()
	sAS := m.NewAddressSpace("srv", cg)
	sCh := sDev.NewChannel("srv", sAS, 64, nic.PolicyBackup)
	drv.EnableODP(sCh)
	sStack := tcp.NewStack(sCh, tcp.DefaultConfig())
	cAS := m.NewAddressSpace("cli", nil)
	cCh := cDev.NewChannel("cli", cAS, 128, nic.PolicyPinned)
	cStack := tcp.NewStack(cCh, tcp.DefaultConfig())
	if _, err := core.StaticPinAll(cAS, cCh.Domain); err != nil {
		t.Fatal(err)
	}

	store := NewKVStore(sAS, 0)
	NewKVServer(sStack, store, 50*sim.Microsecond)
	slap := NewMemaslap(cStack, MemaslapConfig{
		Conns: 2, GetRatio: 0.8, ValueSize: 16 << 10, Keys: 3000, // 48 MB >> 24 MB cgroup
		KeyPrefix: "k", Prepopulate: true, TargetOps: 6000,
	}, sim.Second)
	slap.Start(sCh.Dev.Node, sCh.Flow)
	eng.RunUntil(300 * sim.Second)
	if slap.DoneAt == 0 {
		t.Fatalf("completed only %d/6000 ops under pressure", slap.Ops.N)
	}
	if cg.Used() > cg.Limit {
		t.Fatalf("cgroup exceeded: %d > %d", cg.Used(), cg.Limit)
	}
	if sAS.MajorFaults.N == 0 {
		t.Fatal("working set over cgroup must cause major faults")
	}
	// Reclaim victims are the cold item pages (CPU-only), not the hot DMA
	// ring buffers — LRU keeps DMA-touched pages resident, so invalidations
	// take the never-mapped fast path.
	if drv.Inv.FastPath.N == 0 {
		t.Fatal("reclaim should run MMU-notifier invalidations")
	}
}
