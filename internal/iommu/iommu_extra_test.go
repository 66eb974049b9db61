package iommu

import (
	"testing"

	"npf/internal/mem"
)

func TestMapBatchSingleSync(t *testing.T) {
	u := New(0)
	a, b := u.NewDomain(), u.NewDomain()
	pages := []mem.PageNum{3, 7, 100, 101}
	costBatch := a.MapBatch(pages)
	var costSingles int64
	for _, pn := range pages {
		costSingles += int64(b.Map(pn, 1))
	}
	if int64(costBatch) >= costSingles {
		t.Fatalf("batch %v not cheaper than singles %v", costBatch, costSingles)
	}
	for _, pn := range pages {
		if !a.Present(pn) {
			t.Fatalf("page %d missing after batch", pn)
		}
	}
	if a.Mapped != 4 {
		t.Fatalf("mapped = %d", a.Mapped)
	}
}

func TestMapBatchEmpty(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	if cost := d.MapBatch(nil); cost != 0 {
		t.Fatalf("empty batch cost %v", cost)
	}
}

func TestUnmapBatch(t *testing.T) {
	u := New(16)
	d := u.NewDomain()
	d.MapBatch([]mem.PageNum{1, 2, 3, 50})
	d.Translate(mem.PageNum(1).Base(), 3*mem.PageSize) // fill IOTLB
	cost, removed := d.UnmapBatch([]mem.PageNum{1, 3, 50, 99})
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	if cost < u.Costs.InvalidateSync || cost > u.Costs.InvalidateSync+10*u.Costs.InvalidatePerPage {
		t.Fatalf("cost = %v", cost)
	}
	if d.Mapped != 1 || !d.Present(2) {
		t.Fatalf("wrong survivors: mapped=%d", d.Mapped)
	}
	// IOTLB must not serve stale entries.
	_, missing := d.Translate(mem.PageNum(1).Base(), 1)
	if len(missing) != 1 {
		t.Fatal("stale IOTLB entry after UnmapBatch")
	}
}

func TestUnmapBatchAllAbsent(t *testing.T) {
	u := New(0)
	d := u.NewDomain()
	cost, removed := d.UnmapBatch([]mem.PageNum{5, 6})
	if cost != 0 || removed != 0 {
		t.Fatalf("absent batch: cost=%v removed=%d", cost, removed)
	}
}
