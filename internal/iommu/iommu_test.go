package iommu

import (
	"testing"
	"testing/quick"

	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

func TestMapTranslateUnmap(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	if cost := d.Map(10, 4); cost < u.Costs.MapSync {
		t.Fatalf("map cost %v below sync floor", cost)
	}
	if d.Mapped != 4 {
		t.Fatalf("mapped = %d, want 4", d.Mapped)
	}
	_, missing := d.Translate(mem.PageNum(10).Base(), 4*mem.PageSize)
	if len(missing) != 0 {
		t.Fatalf("missing = %v, want none", missing)
	}
	cost, n := d.Unmap(10, 4)
	if n != 4 || cost < u.Costs.InvalidateSync {
		t.Fatalf("unmap: n=%d cost=%v", n, cost)
	}
	_, missing = d.Translate(mem.PageNum(10).Base(), 1)
	if len(missing) != 1 || missing[0] != 10 {
		t.Fatalf("missing = %v, want [10]", missing)
	}
	if u.Faults.N != 1 {
		t.Fatalf("faults = %d, want 1", u.Faults.N)
	}
}

func TestUnmapAbsentIsFastPath(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	cost, n := d.Unmap(100, 16)
	if n != 0 || cost != 0 {
		t.Fatalf("absent unmap: n=%d cost=%v, want free no-op", n, cost)
	}
}

func TestTranslatePartialMiss(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	d.Map(0, 1)
	d.Map(2, 1)
	// Range spanning pages 0..3 with 1 and 3 missing.
	_, missing := d.Translate(0, 4*mem.PageSize)
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 3 {
		t.Fatalf("missing = %v, want [1 3]", missing)
	}
}

func TestTranslateMidPageRange(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	d.Map(0, 1)
	// 100 bytes starting near the end of page 0 spill into page 1.
	addr := mem.VAddr(mem.PageSize - 10)
	_, missing := d.Translate(addr, 100)
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("missing = %v, want [1]", missing)
	}
}

func TestIOTLBHitSkipsWalk(t *testing.T) {
	u := New(64)
	d := u.NewDomain()
	d.Map(5, 1)
	c1, _ := d.Translate(mem.PageNum(5).Base(), 1) // miss, walks, fills
	c2, _ := d.Translate(mem.PageNum(5).Base(), 1) // hit
	if c2 >= c1 {
		t.Fatalf("IOTLB hit cost %v not below miss cost %v", c2, c1)
	}
	if u.iotlb.Hits.N != 1 || u.iotlb.Misses.N != 1 {
		t.Fatalf("hits=%d misses=%d", u.iotlb.Hits.N, u.iotlb.Misses.N)
	}
}

// TestSetTracerPublishesIOTLB checks that the unit's metrics read its own
// counters, the private IOTLB's included, and that a unit without an IOTLB
// still lists the IOTLB names at 0.
func TestSetTracerPublishesIOTLB(t *testing.T) {
	for _, entries := range []int{64, 0} {
		u := New(entries)
		tr := trace.New(sim.NewEngine(1))
		u.SetTracer(tr)
		d := u.NewDomain()
		d.Map(5, 2)
		d.Translate(mem.PageNum(5).Base(), 3*mem.PageSize) // 3 misses (page 7 faults), or 3 walks
		d.Translate(mem.PageNum(5).Base(), 2*mem.PageSize) // 2 hits, or 2 walks
		var hits, misses uint64
		if u.iotlb != nil {
			hits, misses = u.iotlb.Hits.N, u.iotlb.Misses.N
		}
		for name, want := range map[string]uint64{
			"iommu.iotlb_hits":   hits,
			"iommu.iotlb_misses": misses,
			"iommu.walks":        u.Walks.N,
			"iommu.faults":       u.Faults.N,
			"iommu.map_pages":    u.MapPages.N,
			"iommu.map_batches":  u.MapBatches.N,
		} {
			if got := tr.Counter(name).Value(); got != want {
				t.Errorf("entries=%d: %s = %d, want %d", entries, name, got, want)
			}
		}
		if entries > 0 && (hits != 2 || misses != 3) {
			t.Errorf("hits=%d misses=%d, want 2/3", hits, misses)
		}
		if entries == 0 && u.Walks.N != 5 {
			t.Errorf("walks=%d without an IOTLB, want 5", u.Walks.N)
		}
	}
}

func TestIOTLBInvalidatedOnUnmap(t *testing.T) {
	u := New(64)
	d := u.NewDomain()
	d.Map(7, 1)
	d.Translate(mem.PageNum(7).Base(), 1) // fill IOTLB
	d.Unmap(7, 1)
	_, missing := d.Translate(mem.PageNum(7).Base(), 1)
	if len(missing) != 1 {
		t.Fatal("stale IOTLB entry served an unmapped page")
	}
}

func TestIOTLBCapacityEviction(t *testing.T) {
	u := New(2)
	d := u.NewDomain()
	d.Map(0, 3)
	d.Translate(0, 3*mem.PageSize) // fills 3 > capacity 2
	if u.iotlb.cached != 2 {
		t.Fatalf("iotlb entries = %d, want 2", u.iotlb.cached)
	}
	// Page 0 was evicted (oldest): translating it again misses.
	before := u.iotlb.Misses.N
	d.Translate(0, 1)
	if u.iotlb.Misses.N != before+1 {
		t.Fatal("expected IOTLB miss after capacity eviction")
	}
}

func TestDomainsAreIsolated(t *testing.T) {
	u := New(0)
	a, b := u.NewDomain(), u.NewDomain()
	a.Map(3, 1)
	if b.Present(3) {
		t.Fatal("mapping leaked across domains")
	}
	_, missing := b.Translate(mem.PageNum(3).Base(), 1)
	if len(missing) != 1 {
		t.Fatal("domain b should fault on domain a's mapping")
	}
}

// Property: after an arbitrary interleaving of Map/Unmap, Present matches a
// reference model, and Mapped equals the reference count.
func TestMapUnmapModelProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		u := New(8) // small IOTLB to exercise invalidation paths
		d := u.NewDomain()
		ref := make(map[mem.PageNum]bool)
		for _, op := range ops {
			pn := mem.PageNum(op % 64)
			cnt := int(op%5) + 1
			if op%2 == 0 {
				d.Map(pn, cnt)
				for i := 0; i < cnt; i++ {
					ref[pn+mem.PageNum(i)] = true
				}
			} else {
				d.Unmap(pn, cnt)
				for i := 0; i < cnt; i++ {
					delete(ref, pn+mem.PageNum(i))
				}
			}
		}
		count := 0
		for pn := mem.PageNum(0); pn < 80; pn++ {
			if d.Present(pn) != ref[pn] {
				return false
			}
			_, missing := d.Translate(pn.Base(), 1)
			if (len(missing) == 0) != ref[pn] {
				return false
			}
			if ref[pn] {
				count++
			}
		}
		return d.Mapped == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
