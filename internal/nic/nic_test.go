package nic

import (
	"testing"
	"testing/quick"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/sim"
)

// testEnv wires a device to a machine and one channel, with a scripted
// driver standing in for internal/core.
type testEnv struct {
	eng *sim.Engine
	net *fabric.Network
	m   *mem.Machine
	dev *Device
	as  *mem.AddressSpace
	ch  *Channel
	drv *testDriver

	completions []RxCompletion
	txDone      []TxCompletion
}

func (e *testEnv) RxComplete(ch *Channel, comps []RxCompletion) {
	e.completions = append(e.completions, comps...)
}

func (e *testEnv) TxComplete(ch *Channel, comps []TxCompletion) {
	e.txDone = append(e.txDone, comps...)
}

// testDriver resolves NPFs immediately: fault pages in, map them, merge
// parked packets.
type testDriver struct {
	env      *testEnv
	rxEvents int
	txEvents int
	// manual, when set, queues events instead of resolving.
	manual  bool
	pending []RxNPFEntry
}

func (d *testDriver) HandleRxNPF(entries []RxNPFEntry) {
	d.rxEvents++
	if d.manual {
		d.pending = append(d.pending, entries...)
		return
	}
	for _, e := range entries {
		d.Resolve(e)
	}
}

func (d *testDriver) Resolve(e RxNPFEntry) {
	ring := e.Channel.Rx
	for _, pn := range e.Missing {
		if _, err := e.Channel.AS.TouchPages(pn, 1, true); err != nil {
			panic(err)
		}
		e.Channel.Domain.Map(pn, 1)
	}
	if e.Packet == nil { // drop policy: pages mapped, packet lost
		ring.ClearInflight(e.Index)
		return
	}
	ring.FillResolved(e.Index, e.Packet)
	ring.ResolveRNPF(e.BitIndex)
}

func (d *testDriver) HandleTxNPF(ev TxNPF) {
	d.txEvents++
	for _, pn := range ev.Missing {
		if _, err := ev.Channel.AS.TouchPages(pn, 1, false); err != nil {
			panic(err)
		}
		ev.Channel.Domain.Map(pn, 1)
	}
	ev.Resume()
}

func newEnv(t *testing.T, policy FaultPolicy, ringSize, bmSize int) *testEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	cfg := DefaultConfig()
	cfg.FirmwareJitterSigma = 0 // deterministic latencies in unit tests
	e := &testEnv{
		eng: eng,
		net: net,
		m:   mem.NewMachine(eng, 1<<30),
		dev: NewDevice(eng, net, cfg),
	}
	e.as = e.m.NewAddressSpace("iouser", nil)
	e.as.MapBytes(64 << 20)
	e.ch = e.dev.NewChannel("ch0", e.as, ringSize, policy)
	if bmSize != ringSize {
		// NewChannel's bitmap is ring-sized; a few tests reach the
		// bitmap's edges with a smaller or larger one.
		e.ch.Rx = newRxRing(e.ch, ringSize, bmSize, policy)
	}
	e.ch.SetRxHandler(e)
	e.ch.SetTxHandler(e)
	e.drv = &testDriver{env: e}
	e.dev.SetNPFSink(e.drv)
	return e
}

// postRx posts n one-page descriptors starting at page base.
func (e *testEnv) postRx(base mem.PageNum, n int) {
	for i := 0; i < n; i++ {
		e.ch.Rx.PostRx(Descriptor{Buffer: (base + mem.PageNum(i)).Base(), Len: mem.PageSize})
	}
}

// prefault makes pages resident and mapped (warm ring).
func (e *testEnv) prefault(base mem.PageNum, n int) {
	if _, err := e.as.TouchPages(base, n, true); err != nil {
		panic(err)
	}
	e.ch.Domain.Map(base, n)
}

func (e *testEnv) inject(payload any, size int) {
	e.dev.Deliver(&fabric.Packet{Dst: e.dev.Node, Flow: e.ch.Flow, Size: size, Payload: payload})
}

func TestWarmRingDelivery(t *testing.T) {
	e := newEnv(t, PolicyBackup, 8, 8)
	e.prefault(0, 8)
	e.postRx(0, 8)
	for i := 0; i < 5; i++ {
		e.inject(i, 1000)
	}
	e.eng.Run()
	if len(e.completions) != 5 {
		t.Fatalf("completions = %d, want 5", len(e.completions))
	}
	for i, c := range e.completions {
		if c.Payload.(int) != i || c.Index != int64(i) {
			t.Fatalf("completion %d = %+v", i, c)
		}
	}
	if e.dev.RxToBackup.N != 0 {
		t.Fatal("warm ring used backup")
	}
}

func TestDropPolicyLosesPacketButMapsPage(t *testing.T) {
	e := newEnv(t, PolicyDrop, 8, 8)
	e.postRx(0, 8) // cold: nothing resident/mapped
	e.inject("lost", 1000)
	e.eng.Run()
	if len(e.completions) != 0 {
		t.Fatal("dropped packet was delivered")
	}
	if e.dev.RxDroppedFault.N != 1 {
		t.Fatalf("RxDroppedFault = %d", e.dev.RxDroppedFault.N)
	}
	if !e.ch.Domain.Present(0) {
		t.Fatal("driver did not map the faulted page")
	}
	// Retransmission now lands.
	e.inject("retry", 1000)
	e.eng.Run()
	if len(e.completions) != 1 || e.completions[0].Payload != "retry" {
		t.Fatalf("completions = %+v", e.completions)
	}
}

func TestDropPolicyInflightDedupe(t *testing.T) {
	e := newEnv(t, PolicyDrop, 8, 8)
	e.drv.manual = true
	e.postRx(0, 8)
	e.inject("a", 1000)
	e.inject("b", 1000) // same descriptor, fault already in flight
	e.eng.Run()
	if e.drv.rxEvents != 1 {
		t.Fatalf("NPF events = %d, want 1 (bitmap suppression)", e.drv.rxEvents)
	}
	if e.dev.RxDroppedFault.N != 2 {
		t.Fatalf("drops = %d, want 2", e.dev.RxDroppedFault.N)
	}
}

func TestDropPolicyInflightDedupDisabled(t *testing.T) {
	e := newEnv(t, PolicyDrop, 8, 8)
	e.dev.Cfg.DisableInflightBitmap = true
	e.drv.manual = true
	e.postRx(0, 8)
	e.inject("a", 1000)
	e.inject("b", 1000)
	e.eng.Run()
	if e.drv.rxEvents != 2 {
		t.Fatalf("NPF events = %d, want 2 without suppression", e.drv.rxEvents)
	}
}

func TestBackupPolicyPreservesPacket(t *testing.T) {
	e := newEnv(t, PolicyBackup, 8, 8)
	e.postRx(0, 8) // cold
	e.inject("precious", 1000)
	e.eng.Run()
	if len(e.completions) != 1 || e.completions[0].Payload != "precious" {
		t.Fatalf("completions = %+v", e.completions)
	}
	if e.dev.RxToBackup.N != 1 {
		t.Fatalf("RxToBackup = %d", e.dev.RxToBackup.N)
	}
	if e.dev.RxDroppedFault.N != 0 {
		t.Fatal("backup policy dropped")
	}
}

func TestBackupOrderingAcrossFault(t *testing.T) {
	// Packet 0 faults; packets 1 and 2 land in present descriptors while
	// the fault is pending. The IOuser must see 0,1,2 in order, and only
	// after the fault resolves.
	e := newEnv(t, PolicyBackup, 8, 8)
	e.drv.manual = true
	e.prefault(1, 2) // descriptors 1,2 warm; 0 cold
	e.postRx(0, 8)
	e.inject(0, 1000)
	e.inject(1, 1000)
	e.inject(2, 1000)
	e.eng.Run()
	if len(e.completions) != 0 {
		t.Fatalf("completions before resolution: %+v", e.completions)
	}
	if got := e.ch.Rx.PendingFaults(); got != 3 {
		t.Fatalf("headOffset = %d, want 3 (1 parked + 2 stored past head)", got)
	}
	for _, entry := range e.drv.pending {
		e.drv.Resolve(entry)
	}
	e.eng.Run()
	if len(e.completions) != 3 {
		t.Fatalf("completions = %d, want 3", len(e.completions))
	}
	for i, c := range e.completions {
		if c.Payload.(int) != i {
			t.Fatalf("out of order: %+v", e.completions)
		}
	}
}

func TestBackupInterleavedFaults(t *testing.T) {
	// Descriptors 0 and 2 cold, 1 warm. Resolving the *second* fault first
	// must not release anything; resolving the first releases all three.
	e := newEnv(t, PolicyBackup, 8, 8)
	e.drv.manual = true
	e.prefault(1, 1)
	e.postRx(0, 8)
	e.inject(0, 1000)
	e.inject(1, 1000)
	e.inject(2, 1000)
	e.eng.Run()
	if len(e.drv.pending) != 2 {
		t.Fatalf("parked = %d, want 2", len(e.drv.pending))
	}
	// Resolve out of order: descriptor 2 first.
	e.drv.Resolve(e.drv.pending[1])
	e.eng.Run()
	if len(e.completions) != 0 {
		t.Fatal("later fault resolution released earlier packets")
	}
	e.drv.Resolve(e.drv.pending[0])
	e.eng.Run()
	if len(e.completions) != 3 {
		t.Fatalf("completions = %d, want 3", len(e.completions))
	}
	for i, c := range e.completions {
		if c.Payload.(int) != i {
			t.Fatalf("out of order: %+v", e.completions)
		}
	}
}

func TestBackupRingFullPark(t *testing.T) {
	// No descriptors posted at all: backup policy parks (ring-full case of
	// Figure 6); the resolver waits for PostRx.
	e := newEnv(t, PolicyBackup, 4, 8)
	e.drv.manual = true
	e.inject("early", 1000)
	e.eng.Run()
	if len(e.drv.pending) != 1 {
		t.Fatalf("parked = %d, want 1", len(e.drv.pending))
	}
	entry := e.drv.pending[0]
	if entry.Missing != nil {
		t.Fatalf("ring-full park should have no missing pages, got %v", entry.Missing)
	}
	// Driver waits for the tail to move.
	e.ch.Rx.WatchTail(func() {
		e.ch.Rx.WatchTail(nil)
		e.prefault(0, 1)
		e.drv.Resolve(entry)
	})
	e.postRx(0, 4)
	e.eng.Run()
	if len(e.completions) != 1 || e.completions[0].Payload != "early" {
		t.Fatalf("completions = %+v", e.completions)
	}
}

func TestBmSizeBoundsParkedPackets(t *testing.T) {
	e := newEnv(t, PolicyBackup, 8, 2) // bitmap of 2
	e.drv.manual = true
	e.postRx(0, 8) // cold descriptors
	e.inject(0, 1000)
	e.inject(1, 1000)
	e.inject(2, 1000) // exceeds bm_size
	e.eng.Run()
	if e.dev.RxToBackup.N != 2 {
		t.Fatalf("parked = %d, want 2", e.dev.RxToBackup.N)
	}
	if e.dev.RxDroppedFault.N != 1 {
		t.Fatalf("dropped = %d, want 1", e.dev.RxDroppedFault.N)
	}
}

func TestBackupRingOverflowDrops(t *testing.T) {
	e := newEnv(t, PolicyBackup, 64, 64)
	e.drv.manual = true
	e.dev.Backup.size = 3
	e.postRx(0, 64)
	for i := 0; i < 6; i++ {
		e.inject(i, 1000)
	}
	// Interrupt drains the queue asynchronously; inject before running.
	e.eng.Run()
	if e.dev.RxToBackup.N >= 6 {
		t.Fatalf("backup accepted all %d packets despite capacity 3", e.dev.RxToBackup.N)
	}
	if e.dev.RxDroppedFault.N == 0 {
		t.Fatal("backup overflow did not drop")
	}
}

func TestPinnedPolicyPanicsOnFault(t *testing.T) {
	e := newEnv(t, PolicyPinned, 8, 8)
	e.postRx(0, 8) // cold buffers under pinned policy: invariant violation
	defer func() {
		if recover() == nil {
			t.Fatal("pinned-policy fault did not panic")
		}
	}()
	e.inject("x", 1000)
	e.eng.Run()
}

func TestMultiPageBufferFaults(t *testing.T) {
	e := newEnv(t, PolicyBackup, 4, 4)
	// One descriptor spanning 4 pages, pages 1-2 resident only.
	e.prefault(1, 2)
	e.ch.Rx.PostRx(Descriptor{Buffer: 0, Len: 4 * mem.PageSize})
	e.drv.manual = true
	e.inject("big", 4*mem.PageSize)
	e.eng.Run()
	if len(e.drv.pending) != 1 {
		t.Fatalf("pending = %d", len(e.drv.pending))
	}
	miss := e.drv.pending[0].Missing
	if len(miss) != 2 || miss[0] != 0 || miss[1] != 3 {
		t.Fatalf("missing = %v, want [0 3]", miss)
	}
	e.drv.Resolve(e.drv.pending[0])
	e.eng.Run()
	if len(e.completions) != 1 {
		t.Fatalf("completions = %d", len(e.completions))
	}
}

func TestTxFaultSuspendsAndResumes(t *testing.T) {
	// Two devices on one fabric; send from cold TX buffer.
	eng := sim.NewEngine(1)
	net := fabric.New(eng, fabric.DefaultEthernet())
	cfg := DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	m := mem.NewMachine(eng, 1<<30)

	src := NewDevice(eng, net, cfg)
	dst := NewDevice(eng, net, cfg)
	srcAS := m.NewAddressSpace("src", nil)
	srcAS.MapBytes(1 << 20)
	dstAS := m.NewAddressSpace("dst", nil)
	dstAS.MapBytes(1 << 20)

	srcCh := src.NewChannel("src0", srcAS, 8, PolicyBackup)
	dstCh := dst.NewChannel("dst0", dstAS, 8, PolicyBackup)

	recv := &testEnv{eng: eng}
	dstCh.SetRxHandler(recv)
	drv := &testDriver{}
	src.SetNPFSink(drv)
	dst.SetNPFSink(&testDriver{})

	// Warm destination ring.
	dstAS.TouchPages(0, 8, true)
	dstCh.Domain.Map(0, 8)
	for i := 0; i < 8; i++ {
		dstCh.Rx.PostRx(Descriptor{Buffer: mem.PageNum(i).Base(), Len: mem.PageSize})
	}

	srcCh.Tx.Post(
		TxDesc{Buffer: 0, Len: 2000, Frame: &fabric.Packet{Dst: dst.Node, Flow: dstCh.Flow, Payload: "one"}},
		TxDesc{Buffer: mem.PageNum(4).Base(), Len: 2000, Frame: &fabric.Packet{Dst: dst.Node, Flow: dstCh.Flow, Payload: "two"}},
	)
	if !srcCh.Tx.suspended {
		t.Fatal("cold TX buffer did not suspend the queue")
	}
	eng.Run()
	if drv.txEvents != 2 {
		t.Fatalf("tx NPF events = %d, want 2 (both descriptors cold)", drv.txEvents)
	}
	if len(recv.completions) != 2 {
		t.Fatalf("delivered = %d, want 2", len(recv.completions))
	}
	if recv.completions[0].Payload != "one" || recv.completions[1].Payload != "two" {
		t.Fatalf("order broken: %+v", recv.completions)
	}
	if src.TxFaults.N != 2 {
		t.Fatalf("TxFaults = %d", src.TxFaults.N)
	}
}

func TestTxWarmNoFault(t *testing.T) {
	e := newEnv(t, PolicyBackup, 8, 8)
	peer := NewDevice(e.eng, e.net, e.dev.Cfg)
	peerAS := e.m.NewAddressSpace("peer", nil)
	peerAS.MapBytes(1 << 20)
	peerCh := peer.NewChannel("p0", peerAS, 8, PolicyBackup)
	peer.SetNPFSink(&testDriver{})
	sink := &testEnv{eng: e.eng}
	peerCh.SetRxHandler(sink)
	peerAS.TouchPages(0, 8, true)
	peerCh.Domain.Map(0, 8)
	for i := 0; i < 8; i++ {
		peerCh.Rx.PostRx(Descriptor{Buffer: mem.PageNum(i).Base(), Len: mem.PageSize})
	}

	e.prefault(0, 1)
	e.ch.Tx.Post(TxDesc{Buffer: 0, Len: 1500, Frame: &fabric.Packet{Dst: peer.Node, Flow: peerCh.Flow, Payload: "hi"}, Cookie: 7})
	e.eng.Run()
	if e.dev.TxFaults.N != 0 {
		t.Fatal("warm TX faulted")
	}
	if len(e.txDone) != 1 || e.txDone[0].Cookie != 7 {
		t.Fatalf("tx completions = %+v", e.txDone)
	}
	if len(sink.completions) != 1 || sink.completions[0].Payload != "hi" {
		t.Fatalf("peer completions = %+v", sink.completions)
	}
}

// Property: with the backup policy and an auto-resolving driver, every
// injected packet is eventually delivered exactly once, in order, no matter
// which descriptors start cold — provided parking never exceeds bm_size or
// backup capacity (sized generously here).
func TestBackupNeverLosesProperty(t *testing.T) {
	f := func(coldMask uint16, n uint8) bool {
		count := int(n%16) + 1
		e := newEnv(t, PolicyBackup, 32, 32)
		for i := 0; i < 16; i++ {
			if coldMask&(1<<i) == 0 {
				e.prefault(mem.PageNum(i), 1)
			}
		}
		e.postRx(0, 16)
		for i := 0; i < count; i++ {
			e.inject(i, 1000)
		}
		e.eng.Run()
		if len(e.completions) != count {
			return false
		}
		for i, c := range e.completions {
			if c.Payload.(int) != i {
				return false
			}
		}
		return e.dev.RxDroppedFault.N == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
