package mem

import (
	"fmt"
	"testing"

	"npf/internal/sim"
)

// rangePages is how many pages the range fuzz target maps: three full
// leaves and part of a fourth, so ranges cross two leaf boundaries and run
// off the end of the mapping.
const rangePages = 3*ptLeafSize + 40

// rangeSpace is one side of FuzzAddressSpaceRanges: an address space in a
// cgroup on its own machine, with a notifier that logs every invalidation
// and prices it by page, so costs depend on which pages were invalidated.
type rangeSpace struct {
	eng *sim.Engine
	as  *AddressSpace
	log []PageNum // first page and count of each invalidation
}

func newRangeSpace(limitPages int64) *rangeSpace {
	eng := sim.NewEngine(1)
	m := NewMachine(eng, 1<<30)
	r := &rangeSpace{eng: eng, as: m.NewAddressSpace("p", NewGroup("cg", limitPages*PageSize))}
	r.as.MapBytes(rangePages * PageSize)
	r.as.RegisterNotifier(NotifierFunc(func(first PageNum, count int) sim.Time {
		r.log = append(r.log, first, PageNum(count))
		return sim.Time(first%7+1) * sim.Nanosecond
	}))
	return r
}

// perPage runs op on each page of [first, first+count) in turn, stopping
// at the first error, and sums the results: the page-at-a-time reference
// for a range operation.
func perPage(first PageNum, count int, op func(pn PageNum) (TouchResult, error)) (TouchResult, error) {
	var sum TouchResult
	for i := 0; i < count; i++ {
		r, err := op(first + PageNum(i))
		sum.Cost += r.Cost
		sum.Minor += r.Minor
		sum.Major += r.Major
		if err != nil {
			return sum, err
		}
	}
	return sum, nil
}

// sameState fails unless the two spaces hold the same per-page state,
// counters, LRU order and invalidation log.
func sameState(t *testing.T, step int, got, want *rangeSpace) {
	t.Helper()
	a, b := got.as, want.as
	if a.MinorFaults != b.MinorFaults || a.MajorFaults != b.MajorFaults || a.Evicted != b.Evicted ||
		a.residentBytes != b.residentBytes || a.pinnedBytes != b.pinnedBytes ||
		a.ptes != b.ptes || a.groups[0].Used() != b.groups[0].Used() {
		t.Fatalf("step %d: counters differ:\nrange    %s\nper-page %s", step, spaceCounters(a), spaceCounters(b))
	}
	for pn := PageNum(-1); pn <= rangePages; pn++ {
		p, q := a.pages.Get(pn), b.pages.Get(pn)
		if (p == nil) != (q == nil) {
			t.Fatalf("step %d: page %d materialised %v, per-page %v", step, pn, p != nil, q != nil)
		}
		if p == nil {
			continue
		}
		ps := [...]bool{p.present, p.pinned, p.dirty, p.inSwap, p.next != nil}
		qs := [...]bool{q.present, q.pinned, q.dirty, q.inSwap, q.next != nil}
		if ps != qs || p.access != q.access {
			t.Fatalf("step %d: page %d flags %v at %v, per-page %v at %v", step, pn, ps, p.access, qs, q.access)
		}
	}
	pl, ql := lruPages(a), lruPages(b)
	if fmt.Sprint(pl) != fmt.Sprint(ql) {
		t.Fatalf("step %d: LRU %v, per-page %v", step, pl, ql)
	}
	if fmt.Sprint(got.log) != fmt.Sprint(want.log) {
		t.Fatalf("step %d: invalidations %v, per-page %v", step, got.log, want.log)
	}
}

func spaceCounters(as *AddressSpace) string {
	return fmt.Sprintf("minor %d major %d evicted %d resident %d pinned %d ptes %d cgroup %d",
		as.MinorFaults.N, as.MajorFaults.N, as.Evicted.N, as.residentBytes, as.pinnedBytes, as.ptes, as.groups[0].Used())
}

// lruPages lists the LRU from coldest to most recently used.
func lruPages(as *AddressSpace) []PageNum {
	var pns []PageNum
	for p := as.lru.next; p != &as.lru; p = p.next {
		pns = append(pns, PageNum(p.pn))
	}
	return pns
}

// rangeFirst maps an input byte to a range's first page: most values land
// up to 7 pages before one of the three leaf boundaries inside the
// mapping, the rest at page 0, just before the end of the mapping, or at a
// negative page.
func rangeFirst(b byte) PageNum {
	switch {
	case b < 200:
		return PageNum(1+b%3)*ptLeafSize - PageNum(b/3%8)
	case b < 220:
		return 0
	case b < 240:
		return rangePages - PageNum(b-220)
	}
	return -PageNum(b - 239)
}

// rangeCount maps an input byte to a page count: a few pages, or (top
// values) up to three leaves.
func rangeCount(b byte) int {
	if b >= 200 {
		return int(b-199) * 30
	}
	return 1 + int(b%12)
}

// FuzzAddressSpaceRanges checks the range operations, over ranges that
// cross 512-page leaf boundaries, against the same operations one page at a time on a twin space:
// TouchPages, FaultInRange, DiscardPages and EvictPages must give the same
// cost, fault counts, invalidations, LRU order and per-page state as
// calling them on each page in turn, including partial progress up to an
// ErrSegv page or a cgroup out-of-memory failure. TouchResident must
// succeed exactly when every page is resident, then act as Touch;
// otherwise it must change nothing. Pin, Unpin and clock steps set the
// stage.
func FuzzAddressSpaceRanges(f *testing.F) {
	// An 832-page cgroup: read 300 pages from page 505, across a leaf
	// boundary; step the clock twice; DMA-touch 505–517 for write and read;
	// write 508–519; discard 505–513; fault in pages for write from 1,535
	// to the end of the mapping (ErrSegv); pin three pages; evict 300
	// pages from 505.
	f.Add([]byte{0x60, 0, 21, 209, 8, 0, 50, 7, 0, 0, 22, 21, 11, 4, 21, 11,
		18, 12, 11, 2, 21, 8, 19, 5, 219, 5, 13, 2, 3, 21, 209})
	// A 64-page cgroup: pin 60 pages from 505, touch and pin 1,020–1,023,
	// so faulting in 12 pages from 1,020 runs out of memory at 1,024 after
	// writing four; unpin; touch 12 pages from 1,535 (reclaiming); touch
	// from a negative page and over the end of the mapping (ErrSegv after
	// ten pages).
	f.Add([]byte{0, 5, 21, 201, 0, 13, 3, 5, 13, 3, 19, 13, 11, 6, 21, 201, 0, 5, 11, 0, 245, 11, 0, 230, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := 64 + int64(data[0])*8 // cgroup limit in pages: 64–2,104
		data = data[1:]
		got, want := newRangeSpace(limit), newRangeSpace(limit)
		for step := 0; len(data) >= 3; step++ {
			op, a, c := data[0], data[1], data[2]
			data = data[3:]
			first, count, write := rangeFirst(a), rangeCount(c), op&0x10 != 0
			switch op % 9 {
			case 0, 1: // TouchPages, FaultInRange
				batch := op%9 == 1
				touch := got.as.TouchPages
				if batch {
					touch = got.as.FaultInRange
				}
				g, gerr := touch(first, count, write)
				trapPaid := false
				w, werr := perPage(first, count, func(pn PageNum) (TouchResult, error) {
					if !batch {
						return want.as.TouchPages(pn, 1, write)
					}
					faults := !want.as.Resident(pn) && want.as.Mapped(pn)
					r, err := want.as.FaultInRange(pn, 1, write)
					if faults && err == nil && trapPaid {
						r.Cost -= want.as.m.Costs.MinorFault // the range pays the trap once
					}
					trapPaid = trapPaid || faults && err == nil
					return r, err
				})
				if g != w || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("step %d: range(%d, %d, write=%v, batch=%v) = %+v, %v; per page %+v, %v", step, first, count, write, batch, g, gerr, w, werr)
				}
			case 2, 3: // DiscardPages, EvictPages
				swap := op%9 == 3
				gotDrop, wantDrop := got.as.DiscardPages, want.as.DiscardPages
				if swap {
					gotDrop, wantDrop = got.as.EvictPages, want.as.EvictPages
				}
				gn, gc := gotDrop(first, count)
				wn, wc := 0, sim.Time(0)
				for i := 0; i < count; i++ {
					n, c := wantDrop(first+PageNum(i), 1)
					wn, wc = wn+n, wc+c
				}
				if gn != wn || gc != wc {
					t.Fatalf("step %d: drop(%d, %d, swap=%v) = %d, %v; per page %d, %v", step, first, count, swap, gn, gc, wn, wc)
				}
			case 4: // TouchResident
				addr := first.Base() + VAddr(c)*16
				length := count*PageSize - int(c)
				ok := true
				for pn := addr.Page(); pn < addr.Page()+PageNum(PagesSpanned(addr, length)); pn++ {
					p := want.as.pages.Get(pn)
					ok = ok && p != nil && p.present
				}
				if ok {
					if r, err := want.as.Touch(addr, length, write); err != nil || r.Minor+r.Major != 0 {
						t.Fatalf("step %d: reference Touch of resident pages = %+v, %v", step, r, err)
					}
				}
				if got.as.TouchResident(addr, length, write) != ok {
					t.Fatalf("step %d: TouchResident(%#x, %d, write=%v) = %v, want %v", step, addr, length, write, !ok, ok)
				}
			case 5: // Pin (of a non-negative page: Pin takes no negative page)
				if first < 0 {
					continue
				}
				_, gerr := got.as.Pin(first, count)
				_, werr := want.as.Pin(first, count)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("step %d: Pin errors %v, %v", step, gerr, werr)
				}
			case 6: // Unpin
				got.as.Unpin(first, count)
				want.as.Unpin(first, count)
			default: // advance the clock, so access times differ
				for _, r := range []*rangeSpace{got, want} {
					r.eng.After(sim.Time(c)+1, func() {})
					r.eng.Run()
				}
			}
			sameState(t, step, got, want)
		}
	})
}

// TestTouchResidentRefusesFaults: a DMA touch of a range with a
// non-resident page reports failure and leaves every page's state, the LRU
// order and the counters as they were, even when the offending page is the
// last of a range that crosses a leaf boundary.
func TestTouchResidentRefusesFaults(t *testing.T) {
	got, want := newRangeSpace(1<<20), newRangeSpace(1<<20)
	for _, r := range []*rangeSpace{got, want} {
		if _, err := r.as.TouchPages(ptLeafSize-4, 8, false); err != nil {
			t.Fatal(err)
		}
		if _, err := r.as.TouchPages(ptLeafSize+4, 1, true); err != nil {
			t.Fatal(err)
		}
		r.eng.After(sim.Microsecond, func() {})
		r.eng.Run()
	}
	cases := []struct {
		addr   VAddr
		length int
		write  bool
	}{
		{PageNum(ptLeafSize - 4).Base(), 10 * PageSize, false},    // page 517 not resident
		{PageNum(ptLeafSize - 4).Base(), 10 * PageSize, true},     // page 517 not resident
		{PageNum(ptLeafSize + 4).Base(), PageSize + 1, false},     // page 517 not resident
		{PageNum(3 * ptLeafSize).Base(), PageSize, false},         // leaf never allocated
		{PageNum(rangePages + ptLeafSize).Base(), PageSize, true}, // beyond the mapping
	}
	for i, c := range cases {
		if got.as.TouchResident(c.addr, c.length, c.write) {
			t.Fatalf("case %d: TouchResident(%#x, %d, write=%v) succeeded", i, c.addr, c.length, c.write)
		}
		sameState(t, i, got, want)
	}
	// A touch of resident pages acts as Touch does.
	if !got.as.TouchResident(PageNum(ptLeafSize-4).Base(), 9*PageSize, true) {
		t.Fatal("TouchResident refused a write of resident pages")
	}
	if r, err := want.as.Touch(PageNum(ptLeafSize-4).Base(), 9*PageSize, true); err != nil || r.Minor+r.Major != 0 {
		t.Fatalf("reference Touch = %+v, %v", r, err)
	}
	sameState(t, len(cases), got, want)
	if lru := lruPages(got.as); lru[len(lru)-1] != ptLeafSize+4 {
		t.Fatalf("LRU %v: page %d should be most recent", lru, ptLeafSize+4)
	}
}

// TestTouchResidentNoAlloc: the DMA touch allocates nothing, across a leaf
// boundary too.
func TestTouchResidentNoAlloc(t *testing.T) {
	r := newRangeSpace(1 << 20)
	if _, err := r.as.TouchPages(0, rangePages, true); err != nil {
		t.Fatal(err)
	}
	touch := func() {
		if !r.as.TouchResident(PageNum(ptLeafSize-1).Base()+100, 2*PageSize, true) ||
			!r.as.TouchResident(7*PageSize, PageSize, false) {
			t.Fatal("TouchResident refused resident pages")
		}
	}
	if allocs := testing.AllocsPerRun(1000, touch); allocs != 0 {
		t.Fatalf("TouchResident allocates %.2f objects per run, want 0", allocs)
	}
}
