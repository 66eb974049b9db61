// Package apps implements the paper's evaluation workloads on top of the
// simulated stack: a memcached-style key-value store driven by a
// memaslap-style load generator (§5, §6.1), a tgt/iSER-style storage target
// driven by a fio-style initiator (§6.1), MPI collectives in the style of
// the Intel MPI Benchmarks and beff (§6.2), and netperf/ib_send_bw-style
// stream benchmarks with synthetic rNPF injection (§6.4).
package apps

import (
	"container/list"
	"errors"
	"fmt"

	"npf/internal/mem"
	"npf/internal/sim"
)

// ErrArenaExhausted reports that a Set could not carve a value slot from
// the store's arena. Callers degrade gracefully — evict (EvictOldest) and
// retry, or shed the op — rather than crash.
var ErrArenaExhausted = errors.New("kvstore: arena exhausted")

// KVStore is a memcached-like LRU item cache. Item values live in the
// IOuser's address space, so gets and sets demand-page real (simulated)
// memory — under memory pressure the OS may evict item pages to swap, and
// under the store's own capacity bound the LRU evicts whole items (real
// misses, the metric of Figure 7).
type KVStore struct {
	as *mem.AddressSpace
	// Capacity bounds total value bytes held (memcached's -m). 0 means
	// unbounded (the address space size is then the only bound).
	Capacity int64

	items map[string]*kvItem
	lru   *list.List
	used  int64

	// Optional arena: when set, slots are carved from [arenaNext, arenaEnd)
	// instead of growing the address space — item memory then lives inside
	// a pre-mapped (possibly pre-pinned) VM memory region.
	arenaNext, arenaEnd mem.VAddr
	arenaSet            bool

	// freeSlots recycles value slots by size (all values in one experiment
	// share a size, as memaslap does).
	freeSlots map[int][]mem.VAddr

	Hits   sim.Counter
	Misses sim.Counter
	Sets   sim.Counter
}

type kvItem struct {
	key     string
	addr    mem.VAddr
	size    int
	lruElem *list.Element
}

// NewKVStore creates a store backed by as.
func NewKVStore(as *mem.AddressSpace, capacity int64) *KVStore {
	return &KVStore{
		as:        as,
		Capacity:  capacity,
		items:     make(map[string]*kvItem),
		lru:       list.New(),
		freeSlots: make(map[int][]mem.VAddr),
	}
}

// SetArena confines item storage to the pre-mapped region
// [base, base+size) — used when the store lives inside a VM whose memory
// was mapped (and possibly pinned) up front.
func (kv *KVStore) SetArena(base mem.VAddr, size int64) {
	kv.arenaNext, kv.arenaEnd, kv.arenaSet = base, base+mem.VAddr(size), true
}

// UsedBytes reports bytes of live item values.
func (kv *KVStore) UsedBytes() int64 { return kv.used }

// Items reports the number of cached items.
func (kv *KVStore) Items() int { return kv.lru.Len() }

// Get looks a key up; on a hit it touches the value memory (which may
// major-fault if the OS paged it out) and returns the memory cost.
func (kv *KVStore) Get(key string) (hit bool, size int, cost sim.Time, err error) {
	it, ok := kv.items[key]
	if !ok {
		kv.Misses.Inc()
		return false, 0, 0, nil
	}
	res, err := kv.as.Touch(it.addr, it.size, false) //npf:allocok — only a page fault allocates; a resident value does not
	if err != nil {
		return false, 0, res.Cost, err
	}
	kv.lru.MoveToBack(it.lruElem) //npf:allocok — relinks an existing element
	kv.Hits.Inc()
	return true, it.size, res.Cost, nil
}

// Set stores a value of the given size, evicting LRU items past Capacity.
func (kv *KVStore) Set(key string, size int) (cost sim.Time, err error) {
	kv.Sets.Inc()
	if it, ok := kv.items[key]; ok && it.size == size {
		res, err := kv.as.Touch(it.addr, it.size, true) //npf:allocok — only a page fault allocates; a resident value does not
		kv.lru.MoveToBack(it.lruElem)                   //npf:allocok — relinks an existing element
		return res.Cost, err
	} else if ok {
		kv.removeItem(it) //npf:allocok — a value that changes size gives its slot back
	}
	return kv.insert(key, size)
}

// insert stores a key the store does not hold.
//
//npf:allocok — first use of a key: its item, LRU element and table entry
func (kv *KVStore) insert(key string, size int) (cost sim.Time, err error) {
	for kv.Capacity > 0 && kv.used+int64(size) > kv.Capacity {
		front := kv.lru.Front()
		if front == nil {
			return 0, fmt.Errorf("kvstore: item of %d bytes exceeds capacity %d", size, kv.Capacity)
		}
		kv.removeItem(front.Value.(*kvItem))
	}
	addr, err := kv.allocSlot(size)
	if err != nil {
		return 0, err
	}
	res, err := kv.as.Touch(addr, size, true)
	if err != nil {
		return res.Cost, err
	}
	it := &kvItem{key: key, addr: addr, size: size}
	it.lruElem = kv.lru.PushBack(it)
	kv.items[key] = it
	kv.used += int64(size)
	return res.Cost, nil
}

func (kv *KVStore) removeItem(it *kvItem) {
	kv.lru.Remove(it.lruElem)
	delete(kv.items, it.key)
	kv.used -= int64(it.size)
	kv.freeSlots[it.size] = append(kv.freeSlots[it.size], it.addr)
}

func (kv *KVStore) allocSlot(size int) (mem.VAddr, error) {
	if slots := kv.freeSlots[size]; len(slots) > 0 {
		addr := slots[len(slots)-1]
		kv.freeSlots[size] = slots[:len(slots)-1]
		return addr, nil
	}
	// Page-align slots so distinct items never share pages (memcached's
	// slab allocator at our value sizes behaves the same way).
	alloc := (int64(size) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if kv.arenaSet {
		if kv.arenaNext+mem.VAddr(alloc) > kv.arenaEnd {
			return 0, fmt.Errorf("%w (%d items live)", ErrArenaExhausted, kv.Items())
		}
		addr := kv.arenaNext
		kv.arenaNext += mem.VAddr(alloc)
		return addr, nil
	}
	return kv.as.MapBytes(alloc), nil
}

// EvictOldest drops the least-recently-used item, recycling its slot. It
// reports false on an empty store.
func (kv *KVStore) EvictOldest() bool {
	front := kv.lru.Front()
	if front == nil {
		return false
	}
	kv.removeItem(front.Value.(*kvItem))
	return true
}

// Peek returns key's value location and size without touching memory or
// LRU state (for registration-cost modelling and snapshots).
func (kv *KVStore) Peek(key string) (mem.VAddr, int, bool) {
	it, ok := kv.items[key]
	if !ok {
		return 0, 0, false
	}
	return it.addr, it.size, true
}

// Keys returns all live keys in LRU order (oldest first) — a deterministic
// iteration order for snapshots.
func (kv *KVStore) Keys() []string {
	out := make([]string, 0, kv.lru.Len())
	for e := kv.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*kvItem).key)
	}
	return out
}

// Reset drops every item, recycling all slots (the receiving side of a
// snapshot resync). Counters are preserved.
func (kv *KVStore) Reset() {
	for kv.lru.Front() != nil {
		kv.removeItem(kv.lru.Front().Value.(*kvItem))
	}
}
