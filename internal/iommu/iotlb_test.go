package iommu

import (
	"testing"

	"npf/internal/mem"
	"npf/internal/sim"
)

// refLRU is the obviously correct model of the IOTLB: a slice ordered from
// least to most recently used, searched linearly.
type refLRU struct {
	capacity int
	ents     []iotlbEntry // key and writable only
}

func (r *refLRU) find(k iotlbKey) int {
	for i, e := range r.ents {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (r *refLRU) remove(i int) { r.ents = append(r.ents[:i], r.ents[i+1:]...) }

func (r *refLRU) lookup(k iotlbKey, write bool) bool {
	i := r.find(k)
	if i < 0 || (write && !r.ents[i].writable) {
		return false
	}
	e := r.ents[i]
	r.remove(i)
	r.ents = append(r.ents, e)
	return true
}

// insert returns the evicted key, if any.
func (r *refLRU) insert(k iotlbKey, writable bool) (victim iotlbKey, evicted bool) {
	if i := r.find(k); i >= 0 {
		r.ents[i].writable = writable
		return victim, false
	}
	if len(r.ents) >= r.capacity {
		victim, evicted = r.ents[0].key, true
		r.remove(0)
	}
	r.ents = append(r.ents, iotlbEntry{key: k, writable: writable})
	return victim, evicted
}

func (r *refLRU) invalidate(k iotlbKey) {
	if i := r.find(k); i >= 0 {
		r.remove(i)
	}
}

// find returns the slot caching (dom, pn), or -1.
func (t *iotlb) find(dom DomainID, pn mem.PageNum) int32 {
	if ref := t.ref(dom, pn); ref != nil {
		return *ref - 1
	}
	return -1
}

// checkSameLRU walks the IOTLB's list from least to most recently used and
// compares it, key and permission, with the reference.
func checkSameLRU(t *testing.T, step int, tl *iotlb, ref *refLRU) {
	t.Helper()
	if tl.cached != len(ref.ents) {
		t.Fatalf("step %d: %d cached, reference %d", step, tl.cached, len(ref.ents))
	}
	i := tl.head
	for n, want := range ref.ents {
		if i < 0 {
			t.Fatalf("step %d: list ends after %d entries, reference has %d", step, n, len(ref.ents))
		}
		e := tl.entries[i]
		if slot := tl.find(e.key.dom, e.key.pn); e.key != want.key || e.writable != want.writable || slot != i {
			t.Fatalf("step %d: LRU position %d holds %+v (index %d), reference %+v", step, n, e, slot, want)
		}
		i = e.next
	}
	if i >= 0 {
		t.Fatalf("step %d: list longer than the reference's %d entries", step, len(ref.ents))
	}
}

// TestIOTLBMatchesReferenceLRU drives the IOTLB and the reference through
// one seeded random sequence of read and write lookups, inserts,
// invalidations and permission upgrades, asserting the same hit/miss
// sequence, the same eviction victims and the same LRU order after every
// operation.
func TestIOTLBMatchesReferenceLRU(t *testing.T) {
	const ops = 12000
	for _, capacity := range []int{1, 2, 64} {
		rng := sim.NewRand(int64(capacity))
		tl := newIOTLB(capacity)
		ref := &refLRU{capacity: capacity}
		// Twice the capacity in distinct pages per domain, so lookups
		// both hit and miss and inserts both fill and evict.
		key := func() iotlbKey {
			return iotlbKey{DomainID(1 + rng.Intn(2)), mem.PageNum(rng.Intn(2*capacity + 2))}
		}
		hits, evictions := 0, 0
		for step := 0; step < ops; step++ {
			k := key()
			switch op := rng.Intn(10); {
			case op < 4: // lookup, one in four with write intent
				write := op == 0
				got, want := tl.hit(tl.ref(k.dom, k.pn), write), ref.lookup(k, write)
				if got != want {
					t.Fatalf("cap %d step %d: hit(%v, write=%v) hit=%v, reference %v", capacity, step, k, write, got, want)
				}
				if got {
					hits++
				}
			case op < 8: // insert, half of them read-only
				var victim iotlbKey
				cached := tl.find(k.dom, k.pn) >= 0
				full := !cached && tl.cached == capacity
				if full {
					victim = tl.entries[tl.head].key
				}
				tl.install(tl.ref(k.dom, k.pn), k.dom, k.pn, op < 6)
				refVictim, evicted := ref.insert(k, op < 6)
				if full != evicted || victim != refVictim {
					t.Fatalf("cap %d step %d: install(%v) evicted %v (%v), reference %v (%v)", capacity, step, k, victim, full, refVictim, evicted)
				}
				if evicted {
					evictions++
				}
			case op < 9:
				tl.invalidate(k.dom, k.pn)
				ref.invalidate(k)
			default: // permission upgrade of a cached entry, in place
				if len(ref.ents) == 0 {
					continue
				}
				k = ref.ents[rng.Intn(len(ref.ents))].key
				tl.install(tl.ref(k.dom, k.pn), k.dom, k.pn, true)
				ref.insert(k, true)
			}
			checkSameLRU(t, step, tl, ref)
		}
		if hits == 0 || evictions == 0 {
			t.Fatalf("cap %d: sequence too tame: %d hits, %d evictions", capacity, hits, evictions)
		}
		if tl.Hits.N != uint64(hits) {
			t.Fatalf("cap %d: Hits counter %d, want %d", capacity, tl.Hits.N, hits)
		}
	}
}

// churnIOTLB fills an IOTLB to capacity; churn then misses, inserts and
// evicts once per call, cycling through twice the capacity in pages.
func churnIOTLB(capacity int) (tl *iotlb, churn func()) {
	tl = newIOTLB(capacity)
	pn := mem.PageNum(0)
	churn = func() {
		if tl.hit(tl.ref(1, pn), false) {
			panic("churn: unexpected IOTLB hit")
		}
		tl.install(tl.ref(1, pn), 1, pn, true)
		pn = (pn + 1) % mem.PageNum(2*capacity)
	}
	for i := 0; i < 4*capacity; i++ {
		churn()
	}
	return tl, churn
}

// TestIOTLBChurnNoAlloc: at capacity, a miss that inserts and evicts
// allocates nothing, and neither does invalidating and refilling a slot.
func TestIOTLBChurnNoAlloc(t *testing.T) {
	const capacity = 256
	tl, churn := churnIOTLB(capacity)
	if tl.cached != capacity {
		t.Fatalf("warm-up left %d entries, want %d", tl.cached, capacity)
	}
	if allocs := testing.AllocsPerRun(10*capacity, churn); allocs != 0 {
		t.Fatalf("IOTLB miss/insert/evict allocates %.2f per op, want 0", allocs)
	}
	refill := func() {
		tl.invalidate(1, 3)
		tl.install(tl.ref(1, 3), 1, 3, false)
	}
	if allocs := testing.AllocsPerRun(1000, refill); allocs != 0 {
		t.Fatalf("IOTLB invalidate/refill allocates %.2f per op, want 0", allocs)
	}
}

// BenchmarkIOTLBChurn times one IOTLB miss, insert and LRU eviction at
// capacity.
func BenchmarkIOTLBChurn(b *testing.B) {
	b.ReportAllocs()
	_, churn := churnIOTLB(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// missInstallDomain returns a domain with 256 mapped pages behind a
// 64-entry IOTLB, and a one-page translate that cycles through them, so
// every call misses, walks, installs and evicts.
func missInstallDomain() (d *Domain, translate func()) {
	d = New(64).NewDomain()
	d.Map(0, 256)
	pn := mem.PageNum(0)
	translate = func() {
		if _, missing := d.TranslateAccess(pn.Base(), mem.PageSize, true); missing != nil {
			panic("translate: unexpected fault")
		}
		pn = (pn + 1) % 256
	}
	for i := 0; i < 512; i++ {
		translate()
	}
	return d, translate
}

// TestTranslateAllocs: a one-page translate that misses the IOTLB and
// installs (evicting at capacity) allocates nothing, and a 1,024-page
// translate of unmapped memory — the 4 MB receive buffer of a faulting RC
// message — allocates exactly one object, its miss list.
func TestTranslateAllocs(t *testing.T) {
	d, translate := missInstallDomain()
	misses := d.unit.iotlb.Misses.N
	if allocs := testing.AllocsPerRun(1000, translate); allocs != 0 {
		t.Fatalf("one-page miss-then-install translate allocates %.2f objects, want 0", allocs)
	}
	if d.unit.iotlb.Misses.N-misses != 1001 || d.unit.iotlb.Hits.N != 0 {
		t.Fatalf("%d misses, %d hits over 1001 translates; want every one a miss", d.unit.iotlb.Misses.N-misses, d.unit.iotlb.Hits.N)
	}
	cold := New(1024).NewDomain()
	cold.Map(4096, 1) // the domain has a page table and an IOTLB index
	fault := func() {
		if _, missing := cold.TranslateAccess(0, 4<<20, true); len(missing) != 1024 {
			panic("fault: want 1,024 missing pages")
		}
	}
	if allocs := testing.AllocsPerRun(100, fault); allocs != 1 {
		t.Fatalf("faulting 1,024-page translate allocates %.2f objects, want 1 (the miss list)", allocs)
	}
}
