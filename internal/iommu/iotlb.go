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
// The LRU list is intrusive over a slot array, so a miss, an install or an
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

// hit reports whether the index entry ref caches a translation with
// sufficient permission, refreshing its LRU position on a hit. ref is nil
// when the entry's index leaf was never allocated: a miss.
//
//npf:noalloc
func (t *iotlb) hit(ref *int32, write bool) bool {
	if ref != nil {
		if i := *ref - 1; i >= 0 && (!write || t.entries[i].writable) {
			if i != t.tail {
				t.unlink(i)
				t.pushBack(i)
			}
			t.Hits.Inc()
			return true
		}
	}
	t.Misses.Inc()
	return false
}

// install caches (dom, pn), whose index entry is ref (nil: not yet
// allocated), evicting the LRU entry at capacity. An already-cached
// translation only takes the new permission; its LRU position is
// unchanged.
//
//npf:noalloc
func (t *iotlb) install(ref *int32, dom DomainID, pn mem.PageNum, writable bool) {
	if ref != nil && *ref > 0 {
		t.entries[*ref-1].writable = writable
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
	if ref == nil {
		ref = t.slot(dom, pn) //npf:allocok — a domain's first install and each new 512-page range allocate an index leaf, once
	}
	*ref = i + 1
	t.cached++
}

// invalidate drops one cached translation if present.
//
//npf:noalloc
func (t *iotlb) invalidate(dom DomainID, pn mem.PageNum) {
	if ref := t.ref(dom, pn); ref != nil && *ref > 0 {
		i := *ref - 1
		t.unlink(i)
		*ref = 0
		t.cached--
		t.entries[i].next = t.free
		t.free = i
	}
}

// ref returns (dom, pn)'s index entry, or nil if its leaf was never
// allocated.
func (t *iotlb) ref(dom DomainID, pn mem.PageNum) *int32 {
	if int(dom) >= len(t.index) {
		return nil
	}
	return t.index[dom].Lookup(pn)
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
