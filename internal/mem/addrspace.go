package mem

import (
	"errors"
	"fmt"

	"npf/internal/sim"
	"npf/internal/trace"
)

// ErrSegv is returned when touching an address that no VMA covers.
var ErrSegv = errors.New("mem: segmentation fault (address not mapped)")

// pte is the state of one virtual page.
type pte struct {
	pn      PageNum
	present bool
	pinned  bool
	dirty   bool // content exists; eviction must swap out, not drop
	inSwap  bool // next fault-in must read the swap device (major)
	wp      bool // write-protected (COW-shared after Fork)
	cowCopy bool // first materialisation must copy from the fork parent
	access  sim.Time
	// prev and next link the page into its space's LRU, a circular list
	// through the space's sentinel; both are non-nil iff present && !pinned.
	prev, next *pte
}

// TouchResult summarises the outcome of an access.
type TouchResult struct {
	// Cost is the synchronous time the access spent in the memory
	// subsystem (fault service, reclaim, swap reads). Zero for hits.
	Cost sim.Time
	// Minor and Major count the page faults taken.
	Minor, Major int
}

// Kind reports the most severe fault taken, for single-page touches.
func (r TouchResult) Kind() FaultKind {
	switch {
	case r.Major > 0:
		return MajorFault
	case r.Minor > 0:
		return MinorFault
	default:
		return NoFault
	}
}

// AddressSpace is the virtual address space of one IOuser (process or VM).
// All state mutation happens on the simulation thread; no locking.
type AddressSpace struct {
	Name string
	m    *Machine
	// groups lists the accounting domains this space charges, innermost
	// first (cgroup, then machine RAM).
	groups []*Group

	pages PageTable[*pte]
	ptes  int // entries of pages ever materialised
	// lru is the sentinel of the list of resident, unpinned pages:
	// lru.next is the coldest, lru.prev the most recently used.
	lru pte

	// vmas is a bump allocator: pages [0, mappedPages) are mapped.
	mappedPages PageNum

	pinnedBytes   int64
	residentBytes int64
	// MemlockLimit caps pinnedBytes (RLIMIT_MEMLOCK). 0 means unlimited.
	MemlockLimit int64

	notifiers []Notifier

	MinorFaults sim.Counter
	MajorFaults sim.Counter
	Evicted     sim.Counter
	CowBreaks   sim.Counter
	Migrations  sim.Counter
}

// NewAddressSpace creates an address space on machine m, optionally confined
// to a cgroup. It registers with every group for reclaim.
func (m *Machine) NewAddressSpace(name string, cgroup *Group) *AddressSpace {
	as := &AddressSpace{Name: name, m: m}
	as.lru.prev, as.lru.next = &as.lru, &as.lru
	if cgroup != nil {
		as.groups = append(as.groups, cgroup)
	}
	as.groups = append(as.groups, m.RAM)
	for _, g := range as.groups {
		g.addMember(as)
	}
	m.spaces = append(m.spaces, as)
	return as
}

// Machine returns the host machine this space lives on.
func (as *AddressSpace) Machine() *Machine { return as.m }

// MapBytes maps a fresh, zero-filled, demand-paged region of at least n
// bytes and returns its base address. Nothing becomes resident until
// touched (delayed allocation).
func (as *AddressSpace) MapBytes(n int64) VAddr {
	pages := PageNum((n + PageSize - 1) / PageSize)
	base := as.mappedPages.Base()
	as.mappedPages += pages
	return base
}

// Mapped reports whether page pn is covered by a VMA.
func (as *AddressSpace) Mapped(pn PageNum) bool { return pn >= 0 && pn < as.mappedPages }

// MappedBytes reports the total bytes covered by VMAs (the address-space
// size static pinning must lock down).
func (as *AddressSpace) MappedBytes() int64 { return int64(as.mappedPages) * PageSize }

// ResidentBytes reports bytes currently backed by physical frames.
func (as *AddressSpace) ResidentBytes() int64 { return as.residentBytes }

// PinnedBytes reports bytes currently pinned.
func (as *AddressSpace) PinnedBytes() int64 { return as.pinnedBytes }

// PTEs reports how many page-table entries the space has materialised.
// PTEs are allocated lazily on first touch, so this is the model-state
// footprint a scale-out host actually pays for this space — the number the
// topology layer's bytes-per-host accounting folds in.
func (as *AddressSpace) PTEs() int { return as.ptes }

// RegisterNotifier adds an MMU notifier invoked on invalidations.
func (as *AddressSpace) RegisterNotifier(n Notifier) { as.notifiers = append(as.notifiers, n) }

func (as *AddressSpace) pte(pn PageNum) *pte {
	pp := as.pages.At(pn)
	if *pp == nil {
		*pp = &pte{pn: pn}
		as.ptes++
	}
	return *pp
}

// lruPush appends resident, unpinned page p to the LRU as its most recently
// used page.
//
//npf:noalloc
func (as *AddressSpace) lruPush(p *pte) {
	tail := as.lru.prev
	p.prev, p.next = tail, &as.lru
	tail.next = p
	as.lru.prev = p
}

// lruRemove unlinks p from the LRU.
//
//npf:noalloc
func (as *AddressSpace) lruRemove(p *pte) {
	p.prev.next = p.next
	p.next.prev = p.prev
	p.prev, p.next = nil, nil
}

// lruTouch makes p, if it is on the LRU, the most recently used page.
func (as *AddressSpace) lruTouch(p *pte) {
	if p.next != nil && p.next != &as.lru {
		as.lruRemove(p)
		as.lruPush(p)
	}
}

// Resident reports whether page pn is currently backed by a frame.
func (as *AddressSpace) Resident(pn PageNum) bool {
	p := as.pages.Get(pn)
	return p != nil && p.present
}

// Pinned reports whether page pn is pinned.
func (as *AddressSpace) Pinned(pn PageNum) bool {
	p := as.pages.Get(pn)
	return p != nil && p.pinned
}

// Touch accesses the byte range [addr, addr+length), faulting pages in on
// demand. write marks the pages dirty (their content must survive
// eviction).
func (as *AddressSpace) Touch(addr VAddr, length int, write bool) (TouchResult, error) {
	if length <= 0 {
		return TouchResult{}, nil
	}
	return as.TouchPages(addr.Page(), PagesSpanned(addr, length), write)
}

// TouchPages is Touch at page granularity.
func (as *AddressSpace) TouchPages(first PageNum, count int, write bool) (TouchResult, error) {
	var res TouchResult
	now := as.m.Eng.Now()
	for i := 0; i < count; i++ {
		pn := first + PageNum(i)
		if !as.Mapped(pn) {
			return res, fmt.Errorf("%w: page %d in %s", ErrSegv, pn, as.Name)
		}
		p := as.pte(pn)
		if p.present {
			p.access = now
			if write {
				if p.wp {
					// COW break: a write fault plus the page copy.
					res.Cost += as.m.Costs.MinorFault + as.cowBreak(p)
					res.Minor++
				}
				p.dirty = true
			}
			as.lruTouch(p)
			continue
		}
		cost, major, err := as.faultIn(p)
		if err != nil {
			return res, err
		}
		if write {
			p.dirty = true
		}
		res.Cost += cost
		if major {
			res.Major++
		} else {
			res.Minor++
		}
	}
	return res, nil
}

// FaultInRange populates count pages starting at first in one batched
// operation, as a driver resolving a DMA page fault does: the trap cost is
// paid once and each page adds only the allocation increment (plus swap
// reads for major pages). CPU touches should use TouchPages instead, which
// pays a full fault per page.
func (as *AddressSpace) FaultInRange(first PageNum, count int, write bool) (TouchResult, error) {
	var res TouchResult
	trapPaid := false
	for i := 0; i < count; i++ {
		pn := first + PageNum(i)
		if !as.Mapped(pn) {
			return res, fmt.Errorf("%w: page %d in %s", ErrSegv, pn, as.Name)
		}
		p := as.pte(pn)
		if p.present {
			p.access = as.m.Eng.Now()
			if write {
				if p.wp {
					res.Cost += as.m.Costs.MinorFault + as.cowBreak(p)
					res.Minor++
				}
				p.dirty = true
			}
			as.lruTouch(p)
			continue
		}
		cost, major, err := as.faultIn(p)
		if err != nil {
			return res, err
		}
		// Replace the per-page trap cost with the batched increment for
		// all pages after the first fault.
		if trapPaid {
			cost -= as.m.Costs.MinorFault
		}
		trapPaid = true
		cost += as.m.Costs.PerPageAlloc
		if write {
			p.dirty = true
		}
		res.Cost += cost
		if major {
			res.Major++
		} else {
			res.Minor++
		}
	}
	return res, nil
}

// faultIn makes page p resident, charging groups (which may reclaim) and
// reading swap if needed. The page ends up unpinned and on the LRU.
func (as *AddressSpace) faultIn(p *pte) (cost sim.Time, major bool, err error) {
	charged, err := as.chargeGroups(PageSize)
	if err != nil {
		return 0, false, err
	}
	cost = charged + as.m.Costs.MinorFault
	if p.inSwap {
		cost += as.m.Swap.ReadCost(PageSize)
		p.inSwap = false
		major = true
		as.MajorFaults.Inc()
		as.m.cMajor.Inc()
	} else {
		as.MinorFaults.Inc()
		as.m.cMinor.Inc()
	}
	if p.cowCopy {
		// Materialising a forked page copies it from the parent.
		cost += CowCopyCost
		p.cowCopy = false
	}
	as.m.lFault.Observe(cost)
	p.present = true
	p.access = as.m.Eng.Now()
	as.lruPush(p)
	as.residentBytes += PageSize
	return cost, major, nil
}

func (as *AddressSpace) chargeGroups(n int64) (sim.Time, error) {
	var cost sim.Time
	for i, g := range as.groups {
		c, err := g.charge(n)
		cost += c
		if err != nil {
			for j := 0; j < i; j++ {
				as.groups[j].uncharge(n)
			}
			return cost, err
		}
	}
	return cost, nil
}

func (as *AddressSpace) unchargeGroups(n int64) {
	for _, g := range as.groups {
		g.uncharge(n)
	}
}

// Pin faults in and pins count pages starting at first. Pinned pages are
// immune to reclaim. Fails with ErrMemlockLimit if the space's
// RLIMIT_MEMLOCK would be exceeded; in that case no pages are pinned.
func (as *AddressSpace) Pin(first PageNum, count int) (TouchResult, error) {
	need := int64(0)
	for i := 0; i < count; i++ {
		if p := as.pages.Get(first + PageNum(i)); p == nil || !p.pinned {
			need += PageSize
		}
	}
	if as.MemlockLimit > 0 && as.pinnedBytes+need > as.MemlockLimit {
		return TouchResult{}, fmt.Errorf("%w: %s pinned %d + %d > limit %d",
			ErrMemlockLimit, as.Name, as.pinnedBytes, need, as.MemlockLimit)
	}
	// Touch and pin page by page: pinning immediately protects each page
	// from being reclaimed by the faults the rest of this very call takes.
	var res TouchResult
	var pinnedHere []PageNum
	for i := 0; i < count; i++ {
		pn := first + PageNum(i)
		p := as.pte(pn)
		if p.pinned {
			continue
		}
		tr, err := as.TouchPages(pn, 1, false)
		res.Cost += tr.Cost
		res.Minor += tr.Minor
		res.Major += tr.Major
		if err != nil {
			// Unwind: a failed pin must not leave partial pins behind.
			for _, upn := range pinnedHere {
				as.Unpin(upn, 1)
			}
			return res, err
		}
		p.pinned = true
		if p.next != nil {
			as.lruRemove(p)
		}
		as.pinnedBytes += PageSize
		res.Cost += as.m.Costs.PinPage
		pinnedHere = append(pinnedHere, pn)
	}
	return res, nil
}

// Unpin releases the pin on count pages starting at first; they rejoin the
// LRU and become reclaimable.
func (as *AddressSpace) Unpin(first PageNum, count int) sim.Time {
	var cost sim.Time
	for i := 0; i < count; i++ {
		p := as.pages.Get(first + PageNum(i))
		if p == nil || !p.pinned {
			continue
		}
		p.pinned = false
		as.pinnedBytes -= PageSize
		if p.present && p.next == nil {
			p.access = as.m.Eng.Now()
			as.lruPush(p)
		}
		cost += as.m.Costs.UnpinPage
	}
	return cost
}

// evictable interface -------------------------------------------------------

func (as *AddressSpace) oldestAccess() (sim.Time, bool) {
	if as.lru.next == &as.lru {
		return 0, false
	}
	return as.lru.next.access, true
}

func (as *AddressSpace) evictOldest() (int64, sim.Time, bool) {
	p := as.lru.next
	if p == &as.lru {
		return 0, 0, false
	}
	cost := as.invalidate(p)
	if p.dirty {
		as.m.Swap.WriteCost(PageSize)
		p.inSwap = true
		p.dirty = false
	}
	as.Evicted.Inc()
	as.m.cEvict.Inc()
	// Reclaim context for the fault flight recorder: an eviction (and its
	// invalidation sync) is exactly what tail-fault excerpts need to show.
	as.m.tr.FaultContext(trace.FSReclaim, as.m.Eng.Now(), cost, int64(p.pn), 0)
	return PageSize, cost, true
}

// invalidate removes page p's frame: MMU notifiers run first (Figure 2,
// steps a–d: the OS must not reuse the frame until devices stop using the
// IOVA), then the frame is freed.
func (as *AddressSpace) invalidate(p *pte) sim.Time {
	var cost sim.Time
	as.m.cInval.Inc()
	for _, n := range as.notifiers {
		cost += n.InvalidatePages(p.pn, 1)
	}
	p.present = false
	if p.next != nil {
		as.lruRemove(p)
	}
	as.residentBytes -= PageSize
	as.unchargeGroups(PageSize)
	return cost
}

// DiscardPages drops count resident unpinned pages starting at first
// without writing them to swap: the next touch is a minor fault. Fault
// injectors use this to synthesize minor rNPFs (§6.4); it models events
// like page migration or COW breaking that leave content reconstructible
// without device I/O.
func (as *AddressSpace) DiscardPages(first PageNum, count int) (int, sim.Time) {
	discarded := 0
	var cost sim.Time
	for i := 0; i < count; i++ {
		p := as.pages.Get(first + PageNum(i))
		if p == nil || !p.present || p.pinned {
			continue
		}
		cost += as.invalidate(p)
		p.dirty = false
		p.inSwap = false
		as.Evicted.Inc()
		discarded++
	}
	return discarded, cost
}

// EvictPages forcibly reclaims count resident unpinned pages starting at
// first (used to construct cold-memory scenarios and by tests). It returns
// how many were evicted and the notifier cost.
func (as *AddressSpace) EvictPages(first PageNum, count int) (int, sim.Time) {
	evicted := 0
	var cost sim.Time
	for i := 0; i < count; i++ {
		p := as.pages.Get(first + PageNum(i))
		if p == nil || !p.present || p.pinned {
			continue
		}
		cost += as.invalidate(p)
		if p.dirty {
			as.m.Swap.WriteCost(PageSize)
			p.inSwap = true
			p.dirty = false
		}
		as.Evicted.Inc()
		evicted++
	}
	return evicted, cost
}
