package iommu

import (
	"testing"

	"npf/internal/mem"
	"npf/internal/sim"
)

// refDomains is the reference model of a Unit's domains: one map per
// domain from present page to its writable bit, in front of the
// linear-list LRU the IOTLB must match.
type refDomains struct {
	costs   Costs
	present map[DomainID]map[mem.PageNum]bool
	tlb     *refLRU
	faults  uint64
	hits    uint64
}

func (r *refDomains) mapPages(dom DomainID, pages []mem.PageNum, writable bool) sim.Time {
	if len(pages) == 0 {
		return 0
	}
	cost := r.costs.MapSync
	for _, pn := range pages {
		cost += r.costs.MapPerPage
		w, ok := r.present[dom][pn]
		if !ok {
			r.present[dom][pn] = writable
		} else if writable && !w {
			r.present[dom][pn] = true
			r.tlb.invalidate(iotlbKey{dom, pn})
		}
	}
	return cost
}

func (r *refDomains) unmapPages(dom DomainID, pages []mem.PageNum) (sim.Time, int) {
	removed := 0
	for _, pn := range pages {
		if _, ok := r.present[dom][pn]; ok {
			delete(r.present[dom], pn)
			r.tlb.invalidate(iotlbKey{dom, pn})
			removed++
		}
	}
	if removed == 0 {
		return 0, 0
	}
	return r.costs.InvalidateSync + sim.Time(removed)*r.costs.InvalidatePerPage, removed
}

func (r *refDomains) translate(dom DomainID, addr mem.VAddr, length int, write bool) (sim.Time, []mem.PageNum) {
	if length <= 0 {
		return 0, nil
	}
	var cost sim.Time
	var missing []mem.PageNum
	first := addr.Page()
	for i := 0; i < mem.PagesSpanned(addr, length); i++ {
		pn := first + mem.PageNum(i)
		k := iotlbKey{dom, pn}
		if r.tlb.lookup(k, write) {
			r.hits++
			continue
		}
		cost += r.costs.WalkLatency
		if w, ok := r.present[dom][pn]; ok && (!write || w) {
			r.tlb.insert(k, w)
		} else {
			r.faults++
			missing = append(missing, pn)
		}
	}
	return cost, missing
}

// fuzzPage maps one input byte to a page: mostly a small set, so
// operations collide, with the top values spread over distant leaves. A
// wide input also maps 160–199 to pages 508–517 of leaves 0–3, so ranges
// from them straddle the 512-page leaf boundaries.
func fuzzPage(b byte, wide bool) mem.PageNum {
	switch {
	case b >= 200:
		return mem.PageNum(b) * 600
	case wide && b >= 160:
		return mem.PageNum((b-160)%4)*512 + 508 + mem.PageNum((b-160)/4)
	}
	return mem.PageNum(b % 40)
}

// fuzzCount maps one input byte to a page count of 0–5. A wide input maps
// the top values to 300–1,800 pages instead, a range over several leaves.
func fuzzCount(c byte, wide bool) int {
	if wide && c >= 250 {
		return int(c-249) * 300
	}
	return int(c % 6)
}

// batchPages is a MapBatchPerm/UnmapBatch page list: first, then count
// pages from the input in any order, or for a count over 5 (wide inputs
// only) the ascending run of count pages after first, which crosses
// leaves.
func batchPages(first mem.PageNum, count int, wide bool, next func() (byte, bool)) []mem.PageNum {
	pages := []mem.PageNum{first}
	for i := 1; i <= count; i++ {
		if count > 5 {
			pages = append(pages, first+mem.PageNum(i))
		} else if b, ok := next(); ok {
			pages = append(pages, fuzzPage(b, wide))
		}
	}
	return pages
}

// FuzzDomainIOTLB drives two domains sharing one Unit (and so one IOTLB)
// through arbitrary Map/MapBatchPerm/Unmap/UnmapBatch/TranslateAccess
// sequences and checks them, operation by operation, against the map
// model: the same costs, misses, faults and hits; Mapped equal to the
// present page count; every cached translation present in its domain with
// the same writable bit; and the IOTLB's LRU order equal to the
// reference's. The first byte picks the IOTLB capacity (its low three
// bits) and, with its top bit set, the wide decoding of fuzzPage and
// fuzzCount: ranges that start just below leaf boundaries and run over
// several 512-page leaves.
func FuzzDomainIOTLB(f *testing.F) {
	f.Add([]byte{3, 0, 1, 4, 20, 0, 1, 0x30, 2, 7, 5, 1, 2, 3, 4, 5, 1, 0, 3})
	f.Add([]byte{0, 2, 0, 9, 4, 1, 0, 9, 0x40, 7, 0, 1, 9, 3, 1, 1, 0, 9, 2, 2, 9, 8})
	// Wide: leaf-straddling ranges in a 3-entry IOTLB: map 300 pages from page
	// 511 and translate them for read and write; map 300 pages from page
	// 1,020 read-only, fault a write on them, upgrade them and write
	// again; unmap 600 pages from 1,020; translate 1,500 pages from 508;
	// then the same map and translate in the second domain.
	f.Add([]byte{0x82, 0, 172, 250, 14, 172, 250, 74, 172, 250, 1, 161, 250, 74, 161, 250,
		81, 161, 250, 74, 161, 250, 2, 161, 251, 14, 160, 254, 5, 160, 251, 19, 160, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity, wide := 1+int(data[0]%8), data[0] >= 0x80
		data = data[1:]
		u := New(capacity)
		doms := []*Domain{u.NewDomain(), u.NewDomain()}
		ref := &refDomains{
			costs:   u.Costs,
			present: map[DomainID]map[mem.PageNum]bool{doms[0].ID: {}, doms[1].ID: {}},
			tlb:     &refLRU{capacity: capacity},
		}
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for step := 0; ; step++ {
			op, ok1 := next()
			a, ok2 := next()
			c, ok3 := next()
			if !ok1 || !ok2 || !ok3 {
				break
			}
			d := doms[(op/5)%2]
			writable := op&0x40 != 0
			count := fuzzCount(c, wide)
			var gotCost, wantCost sim.Time
			switch op % 5 {
			case 0: // Map
				pages := make([]mem.PageNum, count)
				for i := range pages {
					pages[i] = fuzzPage(a, wide) + mem.PageNum(i)
				}
				gotCost, wantCost = d.Map(fuzzPage(a, wide), count), ref.mapPages(d.ID, pages, true)
			case 1: // MapBatchPerm
				pages := batchPages(fuzzPage(a, wide), count, wide, next)
				gotCost, wantCost = d.MapBatchPerm(pages, writable), ref.mapPages(d.ID, pages, writable)
			case 2: // Unmap
				pages := make([]mem.PageNum, count)
				for i := range pages {
					pages[i] = fuzzPage(a, wide) + mem.PageNum(i)
				}
				var got, want int
				gotCost, got = d.Unmap(fuzzPage(a, wide), count)
				wantCost, want = ref.unmapPages(d.ID, pages)
				if got != want {
					t.Fatalf("step %d: Unmap removed %d, model %d", step, got, want)
				}
			case 3: // UnmapBatch
				pages := batchPages(fuzzPage(a, wide), count, wide, next)
				var got, want int
				gotCost, got = d.UnmapBatch(pages)
				wantCost, want = ref.unmapPages(d.ID, pages)
				if got != want {
					t.Fatalf("step %d: UnmapBatch removed %d, model %d", step, got, want)
				}
			default: // TranslateAccess
				addr := fuzzPage(a, wide).Base() + mem.VAddr(c)*16
				length := int(op>>3) * 700
				if count > 5 {
					length = count*mem.PageSize - int(c)
				}
				var gotMiss, wantMiss []mem.PageNum
				gotCost, gotMiss = d.TranslateAccess(addr, length, writable)
				wantCost, wantMiss = ref.translate(d.ID, addr, length, writable)
				if len(gotMiss) != len(wantMiss) {
					t.Fatalf("step %d: missing %v, model %v", step, gotMiss, wantMiss)
				}
				for i := range gotMiss {
					if gotMiss[i] != wantMiss[i] {
						t.Fatalf("step %d: missing %v, model %v", step, gotMiss, wantMiss)
					}
				}
			}
			if gotCost != wantCost {
				t.Fatalf("step %d (op %d): cost %v, model %v", step, op%5, gotCost, wantCost)
			}
			if u.Faults.N != ref.faults || u.iotlb.Hits.N != ref.hits {
				t.Fatalf("step %d: %d faults / %d hits, model %d / %d", step, u.Faults.N, u.iotlb.Hits.N, ref.faults, ref.hits)
			}
			for _, dd := range doms {
				if dd.Mapped != len(ref.present[dd.ID]) {
					t.Fatalf("step %d: domain %d Mapped %d, %d pages present", step, dd.ID, dd.Mapped, len(ref.present[dd.ID]))
				}
			}
			for i := u.iotlb.head; i >= 0; i = u.iotlb.entries[i].next {
				e := u.iotlb.entries[i]
				dd := doms[e.key.dom-1]
				if !dd.Present(e.key.pn) || dd.Writable(e.key.pn) != e.writable {
					t.Fatalf("step %d: IOTLB caches %+v, domain has present=%v writable=%v", step, e, dd.Present(e.key.pn), dd.Writable(e.key.pn))
				}
			}
			checkSameLRU(t, step, u.iotlb, ref.tlb)
		}
	})
}
