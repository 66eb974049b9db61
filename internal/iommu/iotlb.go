package iommu

import (
	"npf/internal/mem"
	"npf/internal/sim"
)

// iotlbKey identifies one cached translation.
type iotlbKey struct {
	dom DomainID
	pn  mem.PageNum
}

// iotlbEntry is one cache slot. prev and next link it by slot index (-1 =
// none): into the LRU list while it holds a translation, into the free list
// (next only) after an invalidation.
type iotlbEntry struct {
	key        iotlbKey
	writable   bool
	prev, next int32
}

// iotlb is a fully associative LRU translation cache. Real IOTLBs are
// set-associative, but for fault-behaviour studies only capacity misses and
// invalidations matter.
//
// The LRU list is intrusive over a slot array, so a miss, an insert or an
// eviction allocates nothing once the array has grown: entries grows on
// demand (never past capacity; most units never fill their cache). index
// finds each cached key's slot: one radix table per domain (domain IDs are
// dense from 1), holding slot+1 so that the zero entry means "not cached".
// An index leaf, once allocated, is reused by every later entry in its
// 512-page range.
type iotlb struct {
	capacity int
	entries  []iotlbEntry
	index    []mem.PageTable[int32]
	cached   int // slots holding a translation
	// head is the least recently used slot, tail the most recently used;
	// free heads the list of slots vacated by invalidations.
	head, tail, free int32

	Hits   sim.Counter
	Misses sim.Counter
}

func newIOTLB(capacity int) *iotlb {
	return &iotlb{
		capacity: capacity,
		head:     -1,
		tail:     -1,
		free:     -1,
	}
}

// lookup reports whether the translation is cached with sufficient
// permission, refreshing its LRU position on a hit.
//
//npf:noalloc
func (t *iotlb) lookup(dom DomainID, pn mem.PageNum, write bool) bool {
	if i := t.find(dom, pn); i >= 0 && (!write || t.entries[i].writable) {
		if i != t.tail {
			t.unlink(i)
			t.pushBack(i)
		}
		t.Hits.Inc()
		return true
	}
	t.Misses.Inc()
	return false
}

// insert caches a translation, evicting the LRU entry at capacity. An
// already-cached translation only takes the new permission; its LRU
// position is unchanged.
//
//npf:noalloc
func (t *iotlb) insert(dom DomainID, pn mem.PageNum, writable bool) {
	if i := t.find(dom, pn); i >= 0 {
		t.entries[i].writable = writable
		return
	}
	var i int32
	switch {
	case t.free >= 0:
		i = t.free
		t.free = t.entries[i].next
	case len(t.entries) < t.capacity:
		i = int32(len(t.entries))
		t.entries = append(t.entries, iotlbEntry{}) //npf:allocok — grows to at most capacity, once
	default:
		i = t.head
		t.unlink(i)
		victim := t.entries[i].key
		*t.index[victim.dom].Lookup(victim.pn) = 0
		t.cached--
	}
	t.entries[i] = iotlbEntry{key: iotlbKey{dom, pn}, writable: writable}
	t.pushBack(i)
	*t.slot(dom, pn) = i + 1 //npf:allocok — a domain's first insert and each new 512-page range allocate an index leaf, once
	t.cached++
}

// invalidate drops one cached translation if present.
//
//npf:noalloc
func (t *iotlb) invalidate(dom DomainID, pn mem.PageNum) {
	if i := t.find(dom, pn); i >= 0 {
		t.unlink(i)
		*t.index[dom].Lookup(pn) = 0
		t.cached--
		t.entries[i].next = t.free
		t.free = i
	}
}

// find returns the slot caching (dom, pn), or -1.
func (t *iotlb) find(dom DomainID, pn mem.PageNum) int32 {
	if int(dom) >= len(t.index) {
		return -1
	}
	return t.index[dom].Get(pn) - 1
}

// slot returns (dom, pn)'s index entry, growing the index to dom and
// allocating the entry's leaf on first use.
func (t *iotlb) slot(dom DomainID, pn mem.PageNum) *int32 {
	if n := int(dom) + 1; n > len(t.index) {
		t.index = append(t.index, make([]mem.PageTable[int32], n-len(t.index))...)
	}
	return t.index[dom].At(pn)
}

// unlink removes slot i from the LRU list.
func (t *iotlb) unlink(i int32) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

// pushBack appends slot i to the LRU list as the most recently used.
func (t *iotlb) pushBack(i int32) {
	e := &t.entries[i]
	e.prev, e.next = t.tail, -1
	if t.tail >= 0 {
		t.entries[t.tail].next = i
	} else {
		t.head = i
	}
	t.tail = i
}
