package core

import (
	"container/list"

	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

// This file implements the zero-copy pinning strategies of §2.2 that every
// experiment compares NPFs against: static pinning and the pin-down cache.
// The §6.2 copy baseline's cost is mem.CopyCost.

// StaticPin pins and maps an entire region — used to statically pin a whole
// IOuser address space (SRIOV/DPDK production practice). It fails with
// mem.ErrOutOfMemory when physical memory cannot hold it, which is exactly
// Table 5's "N/A" entries.
func StaticPin(as *mem.AddressSpace, dom *iommu.Domain, addr mem.VAddr, length int64) (sim.Time, error) {
	first := addr.Page()
	count := int((length + mem.PageSize - 1) / mem.PageSize)
	res, err := as.Pin(first, count)
	if err != nil {
		return res.Cost, err
	}
	return res.Cost + dom.MapBatch(pageRange(first, count)), nil
}

// StaticPinAll pins an address space's entire mapped range.
func StaticPinAll(as *mem.AddressSpace, dom *iommu.Domain) (sim.Time, error) {
	return StaticPin(as, dom, 0, as.MappedBytes())
}

// PinDownCache is the §2.2 coarse-grained strategy: a bounded cache of
// pinned pages with LRU eviction. Given a big-enough bound it behaves like
// static pinning (HPC practice); with pressure it dynamically (un)pins —
// at the cost the paper's Figure 9 "pin" line shows, and of "thousands of
// lines" of bookkeeping in real middleware (§6.3).
type PinDownCache struct {
	AS       *mem.AddressSpace
	Dom      *iommu.Domain
	Capacity int64 // bytes of pinned memory allowed; 0 = unlimited

	pages map[mem.PageNum]*list.Element
	lru   *list.List

	Hits      sim.Counter
	Misses    sim.Counter
	Evictions sim.Counter
	// LookupCost models the cache's own bookkeeping per operation.
	LookupCost sim.Time

	tr *trace.Tracer
}

// SetTracer publishes the cache's hit/miss/eviction counters in the
// metrics registry and records a "pin" span per miss (the synchronous
// registration work an operation stalls on).
func (c *PinDownCache) SetTracer(tr *trace.Tracer) {
	c.tr = tr
	tr.Counter("pin.cache_hits", &c.Hits)
	tr.Counter("pin.cache_misses", &c.Misses)
	tr.Counter("pin.cache_evictions", &c.Evictions)
	//npf:probepure — PinnedBytes only reads list.Len (a pure field read the analyzer cannot see into container/list)
	tr.Probe("pin.pinned_bytes", func() float64 {
		return float64(c.PinnedBytes())
	})
	// Probes under one name sum, so with several caches on one tracer this
	// column reads as summed per-cache hit rates (divide by the cache count
	// when interpreting); single-cache setups read it directly as a ratio.
	tr.Probe("pin.cache_hit_rate", func() float64 {
		total := c.Hits.N + c.Misses.N
		if total == 0 {
			return 0
		}
		return float64(c.Hits.N) / float64(total)
	})
}

// NewPinDownCache creates a cache bounding pinned memory to capacity bytes.
func NewPinDownCache(as *mem.AddressSpace, dom *iommu.Domain, capacity int64) *PinDownCache {
	return &PinDownCache{
		AS: as, Dom: dom, Capacity: capacity,
		pages:      make(map[mem.PageNum]*list.Element),
		lru:        list.New(),
		LookupCost: 150 * sim.Nanosecond,
	}
}

// PinnedBytes reports the cache's current pinned footprint.
func (c *PinDownCache) PinnedBytes() int64 { return int64(c.lru.Len()) * mem.PageSize }

// Acquire ensures [addr, addr+length) is pinned and mapped, registering
// (and possibly evicting) as needed. It returns the synchronous cost. The
// buffer stays pinned until evicted by capacity pressure.
func (c *PinDownCache) Acquire(addr mem.VAddr, length int) (sim.Time, error) {
	cost := c.LookupCost
	first := addr.Page()
	count := mem.PagesSpanned(addr, length)
	var toPin []mem.PageNum
	for i := 0; i < count; i++ {
		pn := first + mem.PageNum(i)
		if el, ok := c.pages[pn]; ok {
			c.lru.MoveToBack(el)
			continue
		}
		toPin = append(toPin, pn)
	}
	if len(toPin) == 0 {
		c.Hits.Inc()
		return cost, nil
	}
	c.Misses.Inc()
	// Make room first, evicting as one batch (one invalidation sync, the
	// way real registration caches deregister whole regions).
	var victims []mem.PageNum
	for c.Capacity > 0 && int64(c.lru.Len()+len(toPin))*mem.PageSize > c.Capacity {
		front := c.lru.Front()
		if front == nil {
			break
		}
		pn := front.Value.(mem.PageNum)
		c.lru.Remove(front)
		delete(c.pages, pn)
		c.Evictions.Inc()
		cost += c.AS.Unpin(pn, 1)
		victims = append(victims, pn)
	}
	if len(victims) > 0 {
		uc, _ := c.Dom.UnmapBatch(victims)
		cost += uc
	}
	for _, pn := range toPin {
		res, err := c.AS.Pin(pn, 1)
		cost += res.Cost
		if err != nil {
			return cost, err
		}
		c.pages[pn] = c.lru.PushBack(pn)
	}
	cost += c.Dom.MapBatch(toPin)
	c.tr.FaultContext(trace.FSPinAcquire, c.tr.Now(), cost, int64(len(toPin)), int64(len(victims)), 0)
	return cost, nil
}

func (c *PinDownCache) evictOne() (sim.Time, bool) {
	front := c.lru.Front()
	if front == nil {
		return 0, false
	}
	pn := front.Value.(mem.PageNum)
	c.lru.Remove(front)
	delete(c.pages, pn)
	c.Evictions.Inc()
	cost := c.AS.Unpin(pn, 1)
	uc, _ := c.Dom.Unmap(pn, 1)
	return cost + uc, true
}

// Flush unpins everything (teardown).
func (c *PinDownCache) Flush() sim.Time {
	var cost sim.Time
	for {
		cst, ok := c.evictOne()
		if !ok {
			return cost
		}
		cost += cst
	}
}

func pageRange(first mem.PageNum, count int) []mem.PageNum {
	pages := make([]mem.PageNum, count)
	for i := range pages {
		pages[i] = first + mem.PageNum(i)
	}
	return pages
}
