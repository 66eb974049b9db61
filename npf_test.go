package npf

import (
	"bytes"
	"testing"
)

// Facade-level tests: the public API alone must be enough to build working
// setups (this is what the examples rely on).

func TestClusterQuickstartFlow(t *testing.T) {
	cluster := NewCluster(WithSeed(1), WithFabric(InfiniBandFabric()))
	a := cluster.NewHost("a")
	b := cluster.NewHost("b")
	src := a.NewProcess("src")
	src.MapBytes(1 << 20)
	dst := b.NewProcess("dst")
	dst.MapBytes(1 << 20)
	qpA, qpB := a.OpenQP(src), b.OpenQP(dst)
	ConnectQPs(qpA, qpB)

	var got any
	qpB.OnRecv = func(c RecvCompletion) { got = c.Payload }
	qpB.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: 64 << 10})
	qpA.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 64 << 10, Payload: "hi"})
	cluster.Eng.Run()

	if got != "hi" {
		t.Fatalf("payload = %v", got)
	}
	if a.Driver.NPFs.N == 0 || b.Driver.NPFs.N == 0 {
		t.Fatal("cold transfer should have faulted on both sides")
	}
	if src.PinnedBytes() != 0 || dst.PinnedBytes() != 0 {
		t.Fatal("ODP must not pin")
	}
}

func TestClusterEthernetChannelODP(t *testing.T) {
	cluster := NewCluster(WithSeed(2)) // Ethernet is the default fabric
	server := cluster.NewHost("server")
	client := cluster.NewHost("client")

	sAS := server.NewProcess("srv")
	sCh := server.OpenChannel(sAS, WithRingSize(64), WithPolicy(PolicyBackup))
	sStack := NewStack(sCh, DefaultTCPConfig())

	cAS := client.NewProcess("cli")
	cCh := client.OpenChannel(cAS, WithRingSize(64), WithPolicy(PolicyPinned))
	cStack := NewStack(cCh, DefaultTCPConfig())
	if _, err := StaticPinAll(cAS, cCh.Domain); err != nil {
		t.Fatal(err)
	}

	received := 0
	sStack.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { received++ }
	})
	conn := cStack.Dial(sCh.Dev.Node, sCh.Flow)
	for i := 0; i < 10; i++ {
		conn.Send(4000, i)
	}
	cluster.Eng.RunUntil(10 * Second)
	if received != 10 {
		t.Fatalf("received %d/10 over a cold backup ring", received)
	}
}

func TestPinDownCacheFacade(t *testing.T) {
	cluster := NewCluster(WithSeed(4), WithFabric(InfiniBandFabric()))
	h := cluster.NewHost("h", WithRAM(1<<30))
	as := h.NewProcess("p")
	as.MapBytes(16 << 20)
	qp := h.OpenQP(as)
	pdc := NewPinDownCache(as, qp.Domain, 1<<20)
	if _, err := pdc.Acquire(0, 64<<10); err != nil {
		t.Fatal(err)
	}
	if pdc.PinnedBytes() != 64<<10 {
		t.Fatalf("pinned = %d", pdc.PinnedBytes())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, Time, uint64) {
		cluster := NewCluster(WithSeed(99), WithFabric(InfiniBandFabric()), WithTracing())
		a := cluster.NewHost("a")
		b := cluster.NewHost("b")
		src := a.NewProcess("src")
		src.MapBytes(8 << 20)
		dst := b.NewProcess("dst")
		dst.MapBytes(8 << 20)
		qpA, qpB := a.OpenQP(src), b.OpenQP(dst)
		ConnectQPs(qpA, qpB)
		var last Time
		qpB.OnRecv = func(RecvCompletion) { last = cluster.Eng.Now() }
		for i := 0; i < 20; i++ {
			qpB.PostRecv(RecvWQE{ID: int64(i), Addr: VAddr(i%4) * 65536, Len: 64 << 10})
			qpA.PostSend(SendWQE{ID: int64(i), Laddr: VAddr(i%4) * 65536, Len: 64 << 10})
		}
		cluster.Eng.Run()
		return cluster.Eng.Executed(), last, cluster.Digest()
	}
	e1, t1, d1 := run()
	e2, t2, d2 := run()
	if e1 != e2 || t1 != t2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%v,%016x) vs (%d,%v,%016x)", e1, t1, d1, e2, t2, d2)
	}
	// The digest is pinned across commits: a change to how the cluster is
	// built or run that moves a traced event fails here.
	if d1 != 0xaa76268da7733b79 {
		t.Fatalf("digest %016x (%d events, last receive %v), pinned aa76268da7733b79", d1, e1, t1)
	}
}

// WithSampling, as README shows it: the sampler exists, its series has
// rows and the driver's NPF counter as a column, and two same-seed runs
// export byte-identical CSV.
func TestWithSampling(t *testing.T) {
	run := func() (*Series, []byte) {
		cluster := NewCluster(WithSeed(42), WithFabric(InfiniBandFabric()), WithSampling(100*Microsecond))
		if cluster.Sampler == nil {
			t.Fatal("WithSampling left Cluster.Sampler nil")
		}
		a, b := cluster.NewHost("a"), cluster.NewHost("b")
		src := a.NewProcess("src")
		src.MapBytes(1 << 20)
		dst := b.NewProcess("dst")
		dst.MapBytes(1 << 20)
		qpA, qpB := a.OpenQP(src), b.OpenQP(dst)
		ConnectQPs(qpA, qpB)
		qpB.PostRecv(RecvWQE{ID: 1, Addr: 0, Len: 64 << 10})
		qpA.PostSend(SendWQE{ID: 1, Laddr: 0, Len: 64 << 10})
		cluster.Run()
		series := cluster.Sampler.Series()
		var csv bytes.Buffer
		if err := series.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return series, csv.Bytes()
	}
	s1, csv1 := run()
	_, csv2 := run()
	if len(s1.Times) == 0 {
		t.Fatal("sampled series has no rows")
	}
	npfs, ok := s1.Cols["core.npfs"]
	if !ok {
		t.Fatalf("no core.npfs column among %v", s1.Names)
	}
	if npfs[len(npfs)-1] == 0 {
		t.Fatal("core.npfs never rose over a cold transfer")
	}
	if !bytes.Equal(csv1, csv2) {
		t.Fatal("same-seed runs exported different CSV")
	}
}

// A cluster-level chaos plan arms before any host exists; faults must still
// land on devices and drivers added afterwards (late-bound targets).
func TestClusterChaosLateBinding(t *testing.T) {
	run := func() (uint64, uint64) {
		plan := NewChaosPlan(
			LossBurst{At: 500 * Microsecond, Duration: 4 * Millisecond, Prob: 0.25},
		)
		cluster := NewCluster(WithSeed(6), WithChaos(plan))
		if cluster.Tracer == nil {
			t.Fatal("WithChaos must imply tracing")
		}
		server := cluster.NewHost("server")
		client := cluster.NewHost("client")

		sAS := server.NewProcess("srv")
		sCh := server.OpenChannel(sAS, WithRingSize(64))
		sStack := NewStack(sCh, DefaultTCPConfig())

		cAS := client.NewProcess("cli")
		cCh := client.OpenChannel(cAS, WithPolicy(PolicyPinned))
		cStack := NewStack(cCh, DefaultTCPConfig())
		if _, err := StaticPinAll(cAS, cCh.Domain); err != nil {
			t.Fatal(err)
		}

		received := 0
		sStack.Listen(func(c *Conn) {
			c.OnMessage = func(payload any, n int) { received++ }
		})
		conn := cStack.Dial(sCh.Dev.Node, sCh.Flow)
		const total = 50
		for i := 0; i < total; i++ {
			i := i
			cluster.Eng.At(Time(1+i)*100*Microsecond, func() { conn.Send(2000, i) })
		}
		cluster.Eng.RunUntil(30 * Second)
		if received != total {
			t.Fatalf("received %d/%d under injected loss", received, total)
		}
		drops := cluster.Net.InjectedDrops()
		if drops == 0 {
			t.Fatal("cluster-level plan injected no drops on late-added hosts")
		}
		return drops, cluster.Tracer.Digest()
	}
	d1, g1 := run()
	d2, g2 := run()
	if d1 != d2 || g1 != g2 {
		t.Fatalf("chaos run not deterministic: (%d,%#x) vs (%d,%#x)", d1, g1, d2, g2)
	}
}

// A channel-level chaos plan scopes to that channel's driver only.
func TestChannelScopedChaos(t *testing.T) {
	plan := NewChaosPlan(
		ResolverSlowdown{At: 0, Duration: 10 * Second, Extra: 50 * Microsecond},
	)
	cluster := NewCluster(WithSeed(8))
	server := cluster.NewHost("server")
	client := cluster.NewHost("client")

	sAS := server.NewProcess("srv")
	sCh := server.OpenChannel(sAS, WithRingSize(64), WithChaos(plan))
	sStack := NewStack(sCh, DefaultTCPConfig())

	cAS := client.NewProcess("cli")
	cCh := client.OpenChannel(cAS, WithPolicy(PolicyPinned))
	cStack := NewStack(cCh, DefaultTCPConfig())
	if _, err := StaticPinAll(cAS, cCh.Domain); err != nil {
		t.Fatal(err)
	}

	received := 0
	sStack.Listen(func(c *Conn) {
		c.OnMessage = func(payload any, n int) { received++ }
	})
	conn := cStack.Dial(sCh.Dev.Node, sCh.Flow)
	for i := 0; i < 10; i++ {
		conn.Send(4000, i)
	}
	cluster.Eng.RunUntil(10 * Second)
	if received != 10 {
		t.Fatalf("received %d/10 with a slowed resolver", received)
	}
	if server.Driver.NPFs.N == 0 {
		t.Fatal("cold backup ring should have faulted")
	}
	if cluster.Tracer == nil {
		t.Fatal("channel-level WithChaos must create a tracer")
	}
}

// TestClusterWithKV deploys the distributed KV service through the facade,
// drives a workload to completion, and checks the chaos plan's target set
// picked up the service's layers.
func TestClusterWithKV(t *testing.T) {
	plan := NewChaosPlan(MemoryPressure{
		At: 5 * Millisecond, Period: 10 * Millisecond, Waves: 3,
		LowBytes: 64 << 10, HighBytes: 0,
	})
	cluster := NewCluster(WithSeed(7),
		WithKV(KVConfig{ServerHosts: 3, ClientHosts: 1, Shards: 4}),
		WithChaos(plan))
	if cluster.KV == nil {
		t.Fatal("WithKV left Cluster.KV nil")
	}
	ij := cluster.injector
	if len(ij.T.Groups) == 0 || len(ij.T.Drivers) == 0 || len(ij.T.Firmware) == 0 {
		t.Fatal("KV layers did not join the chaos target set")
	}
	wl := cluster.KV.NewWorkload(WorkloadConfig{
		TargetOps: 600, Keys: 256, Prepopulate: true,
	})
	wl.OnDone = func() {
		cluster.KV.ClientEngine().After(300*Millisecond, func() { cluster.KV.Stop() })
	}
	wl.Start()
	cluster.RunUntil(60 * Second)
	if wl.Completed() != 600 {
		t.Fatalf("completed %d of 600 ops", wl.Completed())
	}
	if got := cluster.KV.CheckConsistency(); len(got) != 0 {
		t.Fatalf("replicas diverged: %v", got)
	}
	if cluster.KV.GroupEvictions() == 0 {
		t.Fatal("memory-pressure waves never squeezed the shard groups")
	}
}

// TestClusterWithKVOverRC checks the facade pairing of KVTransportRC with an
// InfiniBand fabric.
func TestClusterWithKVOverRC(t *testing.T) {
	cluster := NewCluster(WithSeed(8), WithFabric(InfiniBandFabric()),
		WithKV(KVConfig{ServerHosts: 3, ClientHosts: 1, Shards: 4,
			Transport: KVTransportRC, Reg: KVRegPinned}))
	wl := cluster.KV.NewWorkload(WorkloadConfig{TargetOps: 400, Keys: 256, Prepopulate: true})
	wl.OnDone = func() {
		cluster.KV.ClientEngine().After(300*Millisecond, func() { cluster.KV.Stop() })
	}
	wl.Start()
	cluster.RunUntil(60 * Second)
	if wl.Completed() != 400 {
		t.Fatalf("completed %d of 400 ops", wl.Completed())
	}
}

// TestClusterWithEnginesDeterminism shards a two-host RC cluster across two
// partition engines and checks the run replays byte-identically for any
// worker-thread count.
func TestClusterWithEnginesDeterminism(t *testing.T) {
	run := func(threads int) (uint64, uint64, Time) {
		cluster := NewCluster(WithSeed(99), WithFabric(InfiniBandFabric()),
			WithEngines(2), WithTracing())
		cluster.Group.SetThreads(threads)
		a := cluster.NewHost("a") // partition 0
		b := cluster.NewHost("b") // partition 1
		if a.Part != 0 || b.Part != 1 {
			t.Fatalf("round-robin placement broke: a=%d b=%d", a.Part, b.Part)
		}
		src := a.NewProcess("src")
		src.MapBytes(8 << 20)
		dst := b.NewProcess("dst")
		dst.MapBytes(8 << 20)
		qpA, qpB := a.OpenQP(src), b.OpenQP(dst)
		ConnectQPs(qpA, qpB)
		recvd := 0
		qpB.OnRecv = func(RecvCompletion) { recvd++ }
		for i := 0; i < 20; i++ {
			qpB.PostRecv(RecvWQE{ID: int64(i), Addr: VAddr(i%4) * 65536, Len: 64 << 10})
			qpA.PostSend(SendWQE{ID: int64(i), Laddr: VAddr(i%4) * 65536, Len: 64 << 10})
		}
		end := cluster.Run()
		if recvd != 20 {
			t.Fatalf("threads=%d: received %d of 20", threads, recvd)
		}
		if b.Driver.NPFs.N == 0 {
			t.Fatal("cold receive should have faulted")
		}
		return cluster.Group.Executed(), cluster.Digest(), end
	}
	e1, d1, t1 := run(1)
	e2, d2, t2 := run(2)
	if e1 != e2 || d1 != d2 || t1 != t2 {
		t.Fatalf("thread counts diverged: (%d,%016x,%v) vs (%d,%016x,%v)",
			e1, d1, t1, e2, d2, t2)
	}
	if d1 != 0x76b255ad778a3496 {
		t.Fatalf("digest %016x (%d events, end %v), pinned 76b255ad778a3496", d1, e1, t1)
	}
}

// TestClusterWithEnginesKV deploys the KV service split server-tier /
// client-tier across two partition engines, with a memory-pressure chaos
// plan armed against the server partition, and checks byte-identical
// replay across thread counts.
func TestClusterWithEnginesKV(t *testing.T) {
	run := func(threads int) (uint64, uint64, int) {
		plan := NewChaosPlan(MemoryPressure{
			At: 5 * Millisecond, Period: 10 * Millisecond, Waves: 3,
			LowBytes: 64 << 10, HighBytes: 0,
		})
		cluster := NewCluster(WithSeed(7), WithEngines(2),
			WithKV(KVConfig{ServerHosts: 3, ClientHosts: 1, Shards: 4}),
			WithChaos(plan))
		cluster.Group.SetThreads(threads)
		if cluster.KV.ClientEngine() != cluster.EngineFor(1) {
			t.Fatal("client tier did not land on partition 1")
		}
		ij := cluster.injector
		if len(ij.T.Drivers) != 3 {
			t.Fatalf("chaos targets hold %d drivers, want the 3 servers", len(ij.T.Drivers))
		}
		wl := cluster.KV.NewWorkload(WorkloadConfig{
			TargetOps: 600, Keys: 256, Prepopulate: true,
		})
		wl.OnDone = func() {
			cluster.KV.ClientEngine().After(300*Millisecond, func() { cluster.KV.Stop() })
		}
		wl.Start()
		cluster.RunUntil(60 * Second)
		if wl.Completed() != 600 {
			t.Fatalf("threads=%d: completed %d of 600 ops", threads, wl.Completed())
		}
		if got := cluster.KV.CheckConsistency(); len(got) != 0 {
			t.Fatalf("replicas diverged: %v", got)
		}
		if cluster.KV.GroupEvictions() == 0 {
			t.Fatal("memory-pressure waves never squeezed the shard groups")
		}
		return cluster.Group.Executed(), cluster.Digest(), wl.Completed()
	}
	e1, d1, c1 := run(1)
	e2, d2, c2 := run(2)
	if e1 != e2 || d1 != d2 || c1 != c2 {
		t.Fatalf("thread counts diverged: (%d,%016x,%d) vs (%d,%016x,%d)",
			e1, d1, c1, e2, d2, c2)
	}
}
