package apps

import (
	"errors"
	"fmt"
	"testing"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
)

// --------------------------------------------------------------------------
// KVStore.

func newKVEnv(capacity int64) (*sim.Engine, *KVStore) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 8<<30)
	as := m.NewAddressSpace("kv", nil)
	return eng, NewKVStore(as, capacity)
}

func TestKVStoreBasic(t *testing.T) {
	_, kv := newKVEnv(0)
	if hit, _, _, _ := kv.Get("a"); hit {
		t.Fatal("hit on empty store")
	}
	if _, err := kv.Set("a", 1024); err != nil {
		t.Fatal(err)
	}
	hit, size, _, err := kv.Get("a")
	if err != nil || !hit || size != 1024 {
		t.Fatalf("get: hit=%v size=%d err=%v", hit, size, err)
	}
	if kv.UsedBytes() != 1024 {
		t.Fatalf("used = %d", kv.UsedBytes())
	}
}

func TestKVStoreLRUCapacity(t *testing.T) {
	_, kv := newKVEnv(4096 * 4)
	for i := 0; i < 6; i++ {
		kv.Set(string(rune('a'+i)), 4096)
	}
	if kv.Items() != 4 {
		t.Fatalf("items = %d, want 4 (capacity)", kv.Items())
	}
	if hit, _, _, _ := kv.Get("a"); hit {
		t.Fatal("oldest item survived eviction")
	}
	if hit, _, _, _ := kv.Get("f"); !hit {
		t.Fatal("newest item evicted")
	}
	// Access "c" then add one more: "d" (not "c") should go.
	kv.Get("c")
	kv.Set("g", 4096)
	if hit, _, _, _ := kv.Get("c"); !hit {
		t.Fatal("recently used item evicted")
	}
	if hit, _, _, _ := kv.Get("d"); hit {
		t.Fatal("LRU item survived")
	}
}

func TestKVStoreSlotReuse(t *testing.T) {
	_, kv := newKVEnv(4096 * 2)
	kv.Set("a", 4096)
	kv.Set("b", 4096)
	kv.Set("c", 4096) // evicts a, reuses its slot
	if kv.as.MappedBytes() != 2*4096 {
		t.Fatalf("mapped = %d, want slots reused", kv.as.MappedBytes())
	}
}

func TestKVStoreMajorFaultOnColdItem(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 8<<30)
	as := m.NewAddressSpace("kv", nil)
	kv := NewKVStore(as, 0)
	kv.Set("a", 8192)
	as.EvictPages(0, 2) // push the item's pages to swap
	_, _, cost, err := kv.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if cost < m.Swap.ReadLatency {
		t.Fatalf("cold item get cost %v, want ≥ swap latency", cost)
	}
}

// --------------------------------------------------------------------------
// memcached server + memaslap.

type kvEnv struct {
	eng    *sim.Engine
	m      *mem.Machine
	drv    *core.Driver
	server *KVServer
	slap   *Memaslap
	sstack *tcp.Stack
}

func newMemcachedEnv(t *testing.T, policy nic.FaultPolicy, service sim.Time) *kvEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 8<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())

	mkStack := func(name string, pol nic.FaultPolicy) *tcp.Stack {
		dcfg := nic.DefaultConfig()
		dcfg.FirmwareJitterSigma = 0
		dev := nic.NewDevice(eng, net, dcfg)
		drv.AttachDevice(dev)
		as := m.NewAddressSpace(name, nil)
		ch := dev.NewChannel(name, as, 64, pol)
		if pol != nic.PolicyPinned {
			drv.EnableODP(ch)
		}
		st := tcp.NewStack(ch, tcp.DefaultConfig())
		if pol == nic.PolicyPinned {
			if _, err := core.StaticPinAll(as, ch.Domain); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	sstack := mkStack("server", policy)
	cstack := mkStack("client", nic.PolicyPinned)
	store := NewKVStore(sstack.Channel().AS, 0)
	server := NewKVServer(sstack, store, service)
	slap := NewMemaslap(cstack, MemaslapConfig{
		Conns: 4, GetRatio: 0.9, ValueSize: 1024, Keys: 200,
		KeyPrefix: "k", Prepopulate: true,
	}, sim.Second)
	return &kvEnv{eng: eng, m: m, drv: drv, server: server, slap: slap, sstack: sstack}
}

func TestMemcachedEndToEnd(t *testing.T) {
	e := newMemcachedEnv(t, nic.PolicyBackup, 50*sim.Microsecond)
	e.slap.Cfg.TargetOps = 2000
	e.slap.Start(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
	e.eng.RunUntil(60 * sim.Second)
	if e.slap.DoneAt == 0 {
		t.Fatalf("only %d/%d ops completed", e.slap.Ops.N, e.slap.Cfg.TargetOps)
	}
	if e.slap.Failed {
		t.Fatal("connection failed")
	}
	// After prepopulation, gets should mostly hit.
	hitRate := float64(e.slap.Hits.N) / float64(e.slap.Ops.N)
	if hitRate < 0.8 {
		t.Fatalf("hit rate = %.2f", hitRate)
	}
	if e.server.Store.Items() != 200 {
		t.Fatalf("store items = %d", e.server.Store.Items())
	}
}

func TestMemcachedColdStartPolicies(t *testing.T) {
	finish := func(policy nic.FaultPolicy) sim.Time {
		e := newMemcachedEnv(t, policy, 50*sim.Microsecond)
		e.slap.Cfg.TargetOps = 500
		e.slap.Start(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
		e.eng.RunUntil(200 * sim.Second)
		if e.slap.DoneAt == 0 {
			return 200 * sim.Second // did not finish
		}
		return e.slap.DoneAt
	}
	backup := finish(nic.PolicyBackup)
	drop := finish(nic.PolicyDrop)
	pin := finish(nic.PolicyPinned)
	if backup > 3*pin+sim.Second {
		t.Fatalf("backup %v much slower than pin %v", backup, pin)
	}
	if drop < 20*backup {
		t.Fatalf("drop %v should be far slower than backup %v (cold ring)", drop, backup)
	}
}

func TestMemaslapWorkingSetFlip(t *testing.T) {
	e := newMemcachedEnv(t, nic.PolicyBackup, 50*sim.Microsecond)
	e.slap.Start(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
	e.eng.RunUntil(2 * sim.Second)
	before := e.server.Store.Items()
	e.slap.SetWorkingSet(400)
	e.slap.Cfg.Prepopulate = false
	e.eng.RunUntil(10 * sim.Second)
	e.slap.Stop()
	e.eng.Run()
	if e.server.Store.Items() <= before {
		t.Fatalf("working set flip had no effect: %d -> %d", before, e.server.Store.Items())
	}
}

// TestMemaslapKeyTable: the cached key table names key i exactly as
// formatting it would, grows only as far as the indexes drawn, and keeps
// doing both after a working-set change.
func TestMemaslapKeyTable(t *testing.T) {
	e := newMemcachedEnv(t, nic.PolicyPinned, 50*sim.Microsecond)
	check := func(keys int) {
		t.Helper()
		if len(e.slap.keys) > keys {
			t.Fatalf("key table holds %d keys, working set is %d", len(e.slap.keys), keys)
		}
		for i := 0; i < keys; i++ {
			if got, want := e.slap.key(i), fmt.Sprintf("%s-%d", e.slap.Cfg.KeyPrefix, i); got != want {
				t.Fatalf("key(%d) = %q, want %q", i, got, want)
			}
		}
		if len(e.slap.keys) != keys {
			t.Fatalf("key table holds %d keys after reading %d", len(e.slap.keys), keys)
		}
	}
	e.slap.Start(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
	e.eng.RunUntil(sim.Second)
	check(200)
	e.slap.SetWorkingSet(400)
	e.eng.RunUntil(2 * sim.Second)
	check(400)
	e.slap.Stop()
	e.eng.Run()
}

// TestMemcachedWarmOpNoAlloc: once the keys are stored and the pools
// have grown, memcached ops between two pinned stacks allocate nothing.
// Each connection's one KVRequest carries every op there and back, the
// server's reply is an argument event, and each TCP segment is copied once
// into a recycled frame.
func TestMemcachedWarmOpNoAlloc(t *testing.T) {
	e := newMemcachedEnv(t, nic.PolicyPinned, 50*sim.Microsecond)
	e.slap.Start(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
	batch := func() { e.eng.RunUntil(e.eng.Now() + 10*sim.Millisecond) }
	e.eng.RunUntil(sim.Second)
	before := e.slap.Ops.N
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, batch); allocs != 0 {
		t.Fatalf("a warm batch of memcached ops allocates %.2f objects, want 0", allocs)
	}
	// AllocsPerRun runs the batch once more to warm up.
	if ops := e.slap.Ops.N - before; ops < 100*(runs+1) {
		t.Fatalf("%d ops in %d batches, want at least 100 per batch", ops, runs+1)
	}
	if n := e.sstack.Retransmits.N; n != 0 {
		t.Fatalf("the server retransmitted %d segments", n)
	}
}

// TestKVServerPipelinedReplies: one connection carries a get hit and a
// get miss at once, and each reply is its own request object with its own
// result. The server writes a result into the request it answers, never
// into state shared by the connection.
func TestKVServerPipelinedReplies(t *testing.T) {
	e := newMemcachedEnv(t, nic.PolicyPinned, 50*sim.Microsecond)
	if _, err := e.server.Store.Set("stored", 1024); err != nil {
		t.Fatal(err)
	}
	type reply struct {
		req  *KVRequest
		hit  bool
		size int
		n    int
	}
	var got []reply
	c := e.slap.stack.Dial(e.sstack.Channel().Dev.Node, e.sstack.Channel().Flow)
	c.OnMessage = func(payload any, n int) {
		req := payload.(*KVRequest)
		got = append(got, reply{req, req.Hit, req.Size, n})
	}
	hit := &KVRequest{Op: OpGet, Key: "stored"}
	miss := &KVRequest{Op: OpGet, Key: "absent"}
	c.Send(kvHeader, hit)
	c.Send(kvHeader, miss)
	e.eng.Run()

	want := []reply{{hit, true, 1024, kvHeader + 1024}, {miss, false, 0, kvHeader}}
	if len(got) != len(want) {
		t.Fatalf("%d replies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if n := e.server.Requests.N; n != 2 {
		t.Fatalf("server handled %d requests, want 2", n)
	}
}

// --------------------------------------------------------------------------
// Storage.

type storEnv struct {
	eng    *sim.Engine
	m      *mem.Machine
	target *StorageTarget
	fio    *FioInitiator
}

func newStorageEnv(t *testing.T, ramBytes int64, pinned bool, blockSize int) (*storEnv, error) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	m := mem.NewMachine(eng, ramBytes)
	drv := core.NewDriver(eng, core.DefaultConfig())
	hcaT, hcaI := rc.NewHCA(eng, net, quietRC()), rc.NewHCA(eng, net, quietRC())
	drv.AttachHCA(hcaT)
	drv.AttachHCA(hcaI)

	// OS / tgt baseline footprint.
	baseline := m.NewAddressSpace("baseline", nil)
	baseline.MapBytes(2 << 30)
	if _, err := baseline.Pin(0, int(2<<30/mem.PageSize)); err != nil {
		t.Fatal(err)
	}

	asT := m.NewAddressSpace("tgt", nil)
	disk := &mem.SwapDevice{ReadLatency: 400 * sim.Microsecond, ReadBandwidth: 1200e6}
	cache := m.NewPageCache("lun", nil, disk, int64(blockSize))
	cfg := DefaultStorageTargetConfig()
	cfg.Pinned = pinned
	target, err := NewStorageTarget(asT, cache, cfg)
	if err != nil {
		return nil, err
	}
	qpT := hcaT.NewQP(asT)
	asI := m.NewAddressSpace("fio", nil)
	qpI := hcaI.NewQP(asI)
	rc.Connect(qpT, qpI)
	if !pinned {
		drv.EnableODPQP(qpT)
	}
	drv.EnableODPQP(qpI)
	target.AddSession(qpT)
	fio := NewFioInitiator(qpI, asI, FioConfig{
		BlockSize: blockSize, IODepth: 8, LUNBytes: 4 << 30, TargetBytes: 64 << 20,
	})
	return &storEnv{eng: eng, m: m, target: target, fio: fio}, nil
}

func quietRC() rc.Config {
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	return cfg
}

func TestStorageEndToEndODP(t *testing.T) {
	e, err := newStorageEnv(t, 8<<30, false, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	e.fio.Start()
	e.eng.RunUntil(30 * sim.Second)
	if e.fio.DoneAt == 0 {
		t.Fatalf("fio incomplete: %d bytes", e.fio.Bytes.N)
	}
	bw := fioGBps(e.fio, e.eng.Now())
	if bw < 0.1 {
		t.Fatalf("bandwidth = %.3f GB/s", bw)
	}
	// ODP: only touched slots resident, far below the 1 GB region.
	if res := e.target.CommBufResident(); res >= 1<<30/2 {
		t.Fatalf("ODP comm buffers resident = %d, want sparse", res)
	}
}

func TestStoragePinnedRefusedUnderBudget(t *testing.T) {
	// 1 GB pinned > 20% of 4 GB RAM: the pinned config must refuse to
	// start (Figure 8a's missing points).
	_, err := newStorageEnv(t, 4<<30, true, 512<<10)
	if !errors.Is(err, ErrPinnedTooLarge) {
		t.Fatalf("err = %v, want ErrPinnedTooLarge", err)
	}
	// With 8 GB it loads.
	e, err := newStorageEnv(t, 8<<30, true, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if e.target.CommBufResident() != 1<<30 {
		t.Fatalf("pinned resident = %d, want full 1 GB", e.target.CommBufResident())
	}
}

func TestStorageCacheBeatsDisk(t *testing.T) {
	// Second pass over a small LUN: page cache warm, bandwidth much higher.
	run := func(lun int64) float64 {
		eng := sim.NewEngine(1)
		net := fabric.New(eng, fabric.DefaultInfiniBand())
		m := mem.NewMachine(eng, 8<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		hcaT, hcaI := rc.NewHCA(eng, net, quietRC()), rc.NewHCA(eng, net, quietRC())
		drv.AttachHCA(hcaT)
		drv.AttachHCA(hcaI)
		asT := m.NewAddressSpace("tgt", nil)
		disk := &mem.SwapDevice{ReadLatency: 400 * sim.Microsecond, ReadBandwidth: 1200e6}
		cache := m.NewPageCache("lun", nil, disk, 512<<10)
		target, err := NewStorageTarget(asT, cache, DefaultStorageTargetConfig())
		if err != nil {
			t.Fatal(err)
		}
		qpT := hcaT.NewQP(asT)
		asI := m.NewAddressSpace("fio", nil)
		qpI := hcaI.NewQP(asI)
		rc.Connect(qpT, qpI)
		drv.EnableODPQP(qpT)
		drv.EnableODPQP(qpI)
		target.AddSession(qpT)
		fio := NewFioInitiator(qpI, asI, FioConfig{
			BlockSize: 512 << 10, IODepth: 8, LUNBytes: lun, TargetBytes: 128 << 20,
		})
		fio.Start()
		eng.RunUntil(60 * sim.Second)
		return fioGBps(fio, eng.Now())
	}
	small := run(64 << 20) // fits in cache quickly → mostly hits
	big := run(4 << 30)    // mostly misses
	if small < 2*big {
		t.Fatalf("cached bw %.2f not well above uncached %.2f", small, big)
	}
}

// --------------------------------------------------------------------------
// MPI.

func mkMPIHostFactory(eng *sim.Engine, net *fabric.Network) func(int) (*mem.AddressSpace, *rc.HCA, *core.Driver) {
	return func(rank int) (*mem.AddressSpace, *rc.HCA, *core.Driver) {
		m := mem.NewMachine(eng, 128<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		hca := rc.NewHCA(eng, net, quietRC())
		drv.AttachHCA(hca)
		as := m.NewAddressSpace("rank", nil)
		return as, hca, drv
	}
}

func runCollective(t *testing.T, mode RegMode, kind string, msg, iters int) sim.Time {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	job := NewMPIJob(eng, mkMPIHostFactory(eng, net), MPIConfig{
		Ranks: 4, Mode: mode, OffCacheBuffers: 8, PinCacheBytes: 256 << 20,
	})
	var elapsed sim.Time
	done := func(e sim.Time) { elapsed = e }
	switch kind {
	case "sendrecv":
		job.RunSendRecv(msg, iters, done)
	case "bcast":
		job.RunBcast(msg, iters, done)
	case "alltoall":
		job.RunAlltoall(msg, iters, done)
	}
	eng.Run()
	if elapsed == 0 {
		t.Fatalf("%s/%v did not complete", kind, mode)
	}
	return elapsed
}

func TestMPICollectivesComplete(t *testing.T) {
	for _, kind := range []string{"sendrecv", "bcast", "alltoall"} {
		for _, mode := range []RegMode{RegCopy, RegPin, RegODP} {
			if got := runCollective(t, mode, kind, 64<<10, 5); got <= 0 {
				t.Fatalf("%s/%v elapsed = %v", kind, mode, got)
			}
		}
	}
}

func TestMPICopySlowerThanPinForLargeMessages(t *testing.T) {
	iters := 200
	msg := 128 << 10
	copyT := runCollective(t, RegCopy, "alltoall", msg, iters)
	pinT := runCollective(t, RegPin, "alltoall", msg, iters)
	npfT := runCollective(t, RegODP, "alltoall", msg, iters)
	if copyT <= pinT {
		t.Fatalf("copy %v should be slower than pin %v", copyT, pinT)
	}
	// NPF ≈ pin (within 25%): the paper's headline for Figure 9.
	ratio := float64(npfT) / float64(pinT)
	if ratio > 1.25 || ratio < 0.75 {
		t.Fatalf("npf/pin = %.2f, want ≈1", ratio)
	}
}

// --------------------------------------------------------------------------
// Streams.

func newEthStreamEnv(t *testing.T, freq float64, major, backup bool) (*sim.Engine, *EthStream, *core.Driver) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 8<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())
	mkStack := func(name string, pol nic.FaultPolicy) *tcp.Stack {
		dcfg := nic.DefaultConfig()
		dcfg.FirmwareJitterSigma = 0
		dev := nic.NewDevice(eng, net, dcfg)
		drv.AttachDevice(dev)
		as := m.NewAddressSpace(name, nil)
		ch := dev.NewChannel(name, as, 256, pol)
		drv.EnableODP(ch)
		st := tcp.NewStack(ch, tcp.DefaultConfig())
		// Pre-fault rings (the §6.4 benchmarks eliminate the cold ring).
		rxBase, rxLen := st.RxBuffers()
		txBase, txLen := st.TxBuffers()
		as.TouchPages(rxBase.Page(), int(rxLen/mem.PageSize), true)
		ch.Domain.Map(rxBase.Page(), int(rxLen/mem.PageSize))
		as.TouchPages(txBase.Page(), int(txLen/mem.PageSize), true)
		ch.Domain.Map(txBase.Page(), int(txLen/mem.PageSize))
		return st
	}
	pol := nic.PolicyDrop
	if backup {
		pol = nic.PolicyBackup
	}
	recv := mkStack("recv", pol)
	send := mkStack("send", nic.PolicyBackup)
	s := NewEthStream(send, recv, 64<<10, 16<<20)
	if freq > 0 {
		rxBase, rxLen := recv.RxBuffers()
		s.Injector = NewFaultInjector(recv.Channel().AS, rxBase.Page(),
			int(rxLen/mem.PageSize), freq, major)
	}
	return eng, s, drv
}

func TestEthStreamFullRate(t *testing.T) {
	eng, s, _ := newEthStreamEnv(t, 0, false, true)
	s.Start()
	eng.RunUntil(30 * sim.Second)
	if s.DoneAt == 0 {
		t.Fatalf("stream incomplete: %d bytes", s.Received.N)
	}
	gbps := s.ThroughputGbps(eng.Now())
	if gbps < 7 {
		t.Fatalf("throughput = %.2f Gb/s", gbps)
	}
}

func TestEthStreamInjectionBackupVsDrop(t *testing.T) {
	run := func(backup bool) float64 {
		eng, s, _ := newEthStreamEnv(t, 1.0/(64<<10), false, backup) // one fault per 64KB
		s.Start()
		eng.RunUntil(120 * sim.Second)
		return s.ThroughputGbps(eng.Now())
	}
	backup := run(true)
	drop := run(false)
	if backup < 2*drop {
		t.Fatalf("backup %.2f Gb/s should dominate drop %.2f Gb/s under faults", backup, drop)
	}
}

func TestIBStreamWithInjection(t *testing.T) {
	run := func(freq float64) float64 {
		eng := sim.NewEngine(1)
		net := fabric.New(eng, fabric.DefaultInfiniBand())
		m := mem.NewMachine(eng, 8<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		hcaS, hcaR := rc.NewHCA(eng, net, quietRC()), rc.NewHCA(eng, net, quietRC())
		drv.AttachHCA(hcaS)
		drv.AttachHCA(hcaR)
		asS := m.NewAddressSpace("s", nil)
		asR := m.NewAddressSpace("r", nil)
		snd, rcv := hcaS.NewQP(asS), hcaR.NewQP(asR)
		rc.Connect(snd, rcv)
		drv.EnableODPQP(snd)
		drv.EnableODPQP(rcv)
		s := NewIBStream(snd, rcv, 64<<10, 32<<20)
		if freq > 0 {
			base, pages := s.RecvRegion()
			s.Injector = NewFaultInjector(asR, base, pages, freq, false)
		}
		s.Start()
		eng.RunUntil(60 * sim.Second)
		if s.DoneAt == 0 {
			t.Fatalf("IB stream incomplete: %d bytes (freq=%g)", s.Received.N, freq)
		}
		return s.ThroughputGbps(eng.Now())
	}
	clean := run(0)
	faulty := run(1.0 / (256 << 10)) // one fault per 256KB
	if clean < 40 {
		t.Fatalf("clean IB stream = %.1f Gb/s", clean)
	}
	if faulty >= clean {
		t.Fatalf("faults did not cost anything: %.1f vs %.1f", faulty, clean)
	}
	if faulty < clean/20 {
		t.Fatalf("RNR recovery too costly: %.1f vs %.1f", faulty, clean)
	}
}

// fioGBps is f's achieved bandwidth since Start, in GB/s.
func fioGBps(f *FioInitiator, now sim.Time) float64 {
	end := f.DoneAt
	if end == 0 {
		end = now
	}
	if end <= f.started {
		return 0
	}
	return float64(f.Bytes.N) / (end - f.started).Seconds() / 1e9
}
