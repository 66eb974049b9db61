package core

import (
	"testing"

	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

func TestFaultCommitSkipsReclaimedPages(t *testing.T) {
	// A page evicted while the driver is mid-resolution must not be mapped
	// at commit time (the device would DMA to a reused frame).
	e := newIBEnv(t, 1<<30, nil)
	e.asA.TouchPages(0, 1, true)
	e.a.Domain.Map(0, 1)
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	// The recv NPF fires around t≈140µs; the driver's software phase takes
	// a few µs and commits at ≈150µs. Evict the page in that window.
	evicted := false
	e.eng.At(146*sim.Microsecond, func() {
		if e.asB.Resident(0) && !e.b.Domain.Present(0) {
			n, _ := e.asB.EvictPages(0, 1)
			evicted = n == 1
		}
	})
	received := false
	e.b.OnRecv = func(rc.RecvCompletion) { received = true }
	e.eng.Run()
	if !received {
		t.Fatal("message never delivered")
	}
	if evicted && e.drv.NPFs.N < 2 {
		t.Fatalf("NPFs = %d; mid-flight eviction should force a second resolution", e.drv.NPFs.N)
	}
}

func TestDriverCountsMinorVsMajor(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	e.asA.TouchPages(0, 4, true)
	e.a.Domain.Map(0, 4)
	// First recv buffer: cold (minor). Second: swapped out (major).
	e.asB.TouchPages(4, 1, true)
	e.asB.EvictPages(4, 1)
	got := 0
	e.b.OnRecv = func(rc.RecvCompletion) { got++ }
	e.b.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: mem.PageSize})
	e.b.PostRecv(rc.RecvWQE{ID: 2, Addr: mem.PageNum(4).Base(), Len: mem.PageSize})
	e.a.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: 4096})
	e.a.PostSend(rc.SendWQE{ID: 2, Laddr: 0, Len: 4096})
	e.eng.Run()
	if got != 2 {
		t.Fatalf("received %d", got)
	}
	if e.drv.NPFs.N != 2 || e.drv.MajorNPFs.N != 1 {
		t.Fatalf("NPFs=%d major=%d, want 2/1", e.drv.NPFs.N, e.drv.MajorNPFs.N)
	}
}

func TestInvalidationFastPathCounters(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	// Resident but never device-mapped: eviction takes the fast path.
	e.asB.TouchPages(100, 8, true)
	e.asB.EvictPages(100, 8)
	if e.drv.Inv.FastPath.N != 8 {
		t.Fatalf("fast-path invalidations = %d", e.drv.Inv.FastPath.N)
	}
	if e.drv.Inv.Mapped.N != 0 {
		t.Fatalf("mapped invalidations = %d", e.drv.Inv.Mapped.N)
	}
}

func TestSharedDomainNotifierRegisteredOnce(t *testing.T) {
	e := newIBEnv(t, 1<<30, nil)
	// A second QP sharing asB+domain: enabling ODP again must not stack a
	// second notifier (which would double invalidation costs).
	qp2 := e.b.HCA().NewQPShared(e.asB, e.b.Domain)
	e.drv.EnableODPQP(qp2)
	e.asB.TouchPages(0, 1, true)
	e.b.Domain.Map(0, 1)
	e.asB.EvictPages(0, 1)
	if e.drv.Inv.Mapped.N != 1 {
		t.Fatalf("mapped invalidations = %d, want exactly 1", e.drv.Inv.Mapped.N)
	}
}

func TestStaticPinCost(t *testing.T) {
	eng := sim.NewEngine(1)
	m := mem.NewMachine(eng, 1<<30)
	drv := NewDriver(eng, DefaultConfig())
	_ = drv
	as := m.NewAddressSpace("p", nil)
	as.MapBytes(64 << 20)
	u := newTestDomain(eng, m)
	cost, err := StaticPinAll(as, u)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("static pinning should cost time")
	}
	if as.PinnedBytes() != 64<<20 {
		t.Fatalf("pinned = %d", as.PinnedBytes())
	}
	if u.Mapped != 64<<20/mem.PageSize {
		t.Fatalf("mapped = %d", u.Mapped)
	}
}

// newTestDomain builds a standalone IOMMU domain for pinning tests.
func newTestDomain(eng *sim.Engine, m *mem.Machine) *iommu.Domain {
	return iommu.New(0).NewDomain()
}

// TestFaultPrepAnyPageOrder: faultPrep uses an ascending miss list in
// place and copies and sorts any other, so both orders cost the same and
// the caller's list is left as it was.
func TestFaultPrepAnyPageOrder(t *testing.T) {
	prep := func(pages []mem.PageNum) (sim.Time, sim.Time, bool) {
		eng := sim.NewEngine(1)
		m := mem.NewMachine(eng, 1<<30)
		as := m.NewAddressSpace("p", nil)
		as.MapBytes(1 << 20)
		d := NewDriver(eng, DefaultConfig())
		sw, os, major, err := d.faultPrep(as, pages, true)
		if err != nil {
			t.Fatal(err)
		}
		return sw, os, major
	}
	ascending := []mem.PageNum{1, 2, 3, 7, 8, 12}
	shuffled := []mem.PageNum{8, 3, 12, 1, 7, 2}
	keep := append([]mem.PageNum(nil), shuffled...)
	sw1, os1, major1 := prep(ascending)
	sw2, os2, major2 := prep(shuffled)
	if sw1 != sw2 || os1 != os2 || major1 != major2 {
		t.Fatalf("ascending: sw=%v os=%v major=%v; shuffled: sw=%v os=%v major=%v",
			sw1, os1, major1, sw2, os2, major2)
	}
	for i := range keep {
		if shuffled[i] != keep[i] {
			t.Fatalf("faultPrep reordered its input: %v, was %v", shuffled, keep)
		}
	}
}
