package iommu

import (
	"npf/internal/mem"
	"npf/internal/sim"
)

// iotlbKey identifies one cached translation. The domain is widened to 64
// bits so the key has no padding: the map then hashes it as 16 plain bytes
// instead of field by field.
type iotlbKey struct {
	dom int64
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
// demand (never past capacity; most units never fill their cache), and
// index maps each cached key to its slot.
type iotlb struct {
	capacity int
	entries  []iotlbEntry
	index    map[iotlbKey]int32
	// head is the least recently used slot, tail the most recently used;
	// free heads the list of slots vacated by invalidations.
	head, tail, free int32

	Hits   sim.Counter
	Misses sim.Counter
}

func newIOTLB(capacity int) *iotlb {
	return &iotlb{
		capacity: capacity,
		index:    make(map[iotlbKey]int32),
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
	if i, ok := t.index[iotlbKey{int64(dom), pn}]; ok && (!write || t.entries[i].writable) {
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
	key := iotlbKey{int64(dom), pn}
	if i, ok := t.index[key]; ok {
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
		delete(t.index, t.entries[i].key)
	}
	t.entries[i] = iotlbEntry{key: key, writable: writable}
	t.pushBack(i)
	t.index[key] = i //npf:allocok — the map stops growing once it holds capacity keys
}

// invalidate drops one cached translation if present.
//
//npf:noalloc
func (t *iotlb) invalidate(dom DomainID, pn mem.PageNum) {
	key := iotlbKey{int64(dom), pn}
	if i, ok := t.index[key]; ok {
		t.unlink(i)
		delete(t.index, key)
		t.entries[i].next = t.free
		t.free = i
	}
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
