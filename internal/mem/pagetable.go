package mem

// ptLeafBits sizes a PageTable leaf: 512 entries, the fan-out of one level
// of an x86-64 or on-NIC radix page table.
const ptLeafBits = 9

const ptLeafSize = 1 << ptLeafBits

// ptDenseLeaves bounds the directly indexed part of a PageTable's
// directory: leaves for pages below ptDenseLeaves*ptLeafSize (32 M pages,
// 128 GiB of address space) sit in a slice indexed by pn>>ptLeafBits.
// Leaves above it, which only synthetic inputs reach, sit in a sorted
// overflow list, so a huge page number costs a search rather than a
// directory sized to it.
const ptDenseLeaves = 1 << 16

// PageTable is a radix map from page number to T: a directory of
// 512-entry leaves, each allocated on its first write. It is the one
// page-keyed structure of the fault path — a process page table, an I/O
// page table, an IOTLB index and a guest permission table are all
// PageTables. Reads never allocate; an absent entry reads as the zero
// value. The zero value is an empty table.
type PageTable[T any] struct {
	dir []*[ptLeafSize]T
	far []ptFarLeaf[T] // leaves at directory index >= ptDenseLeaves, by index
}

type ptFarLeaf[T any] struct {
	idx  uint64
	leaf *[ptLeafSize]T
}

// Get returns the entry for pn, or the zero value if it was never written.
// Any pn is accepted, negative ones included.
//
//npf:noalloc
func (t *PageTable[T]) Get(pn PageNum) T {
	if p := t.Lookup(pn); p != nil {
		return *p
	}
	var zero T
	return zero
}

// Lookup returns a pointer to pn's entry, or nil if no entry in pn's leaf
// was ever written (including for a negative pn). The pointer stays valid
// for the table's lifetime.
//
//npf:noalloc
func (t *PageTable[T]) Lookup(pn PageNum) *T {
	i := uint64(pn) >> ptLeafBits // a negative pn wraps far out of range
	if i < uint64(len(t.dir)) {
		if leaf := t.dir[i]; leaf != nil {
			return &leaf[pn&(ptLeafSize-1)]
		}
		return nil
	}
	if i < ptDenseLeaves || pn < 0 {
		return nil
	}
	if k := t.farIndex(i); k < len(t.far) && t.far[k].idx == i {
		return &t.far[k].leaf[pn&(ptLeafSize-1)]
	}
	return nil
}

// Span returns the entries of the pages [pn, pn+k) (n >= 1): pn's entry
// and those after it in pn's leaf, at most n of them. s is nil if no entry
// of the leaf was ever written (including for negative pages), else s has
// length k and aliases the table, so writes through it land and later
// writes show in it. A range walk takes one Span per 512-page leaf instead
// of one Lookup per page:
//
//	for count > 0 {
//		s, k := t.Span(pn, count)
//		... // s[j] is page pn+j's entry
//		pn, count = pn+PageNum(k), count-k
//	}
//
//npf:noalloc
func (t *PageTable[T]) Span(pn PageNum, n int) (s []T, k int) {
	off := int(pn & (ptLeafSize - 1))
	k = min(n, ptLeafSize-off)
	var leaf *[ptLeafSize]T
	switch i := uint64(pn) >> ptLeafBits; { // a negative pn wraps far out of range
	case i < uint64(len(t.dir)):
		leaf = t.dir[i]
	case i >= ptDenseLeaves && pn >= 0:
		if j := t.farIndex(i); j < len(t.far) && t.far[j].idx == i {
			leaf = t.far[j].leaf
		}
	}
	if leaf == nil {
		return nil, k
	}
	return leaf[off : off+k], k
}

// At returns a pointer to pn's entry, allocating its leaf on first use. The
// pointer stays valid for the table's lifetime. Page numbers are never
// negative; a negative pn is an invariant violation and panics.
func (t *PageTable[T]) At(pn PageNum) *T {
	if pn < 0 {
		panic("mem: invariant violated: PageTable.At on a negative page number")
	}
	i := uint64(pn) >> ptLeafBits
	if i >= ptDenseLeaves {
		return &t.farLeaf(i)[pn&(ptLeafSize-1)]
	}
	if i >= uint64(len(t.dir)) {
		t.dir = append(t.dir, make([]*[ptLeafSize]T, int(i)+1-len(t.dir))...)
	}
	leaf := t.dir[i]
	if leaf == nil {
		leaf = new([ptLeafSize]T)
		t.dir[i] = leaf
	}
	return &leaf[pn&(ptLeafSize-1)]
}

// farIndex is the position of directory index i in the overflow list, or
// where it would be inserted.
func (t *PageTable[T]) farIndex(i uint64) int {
	lo, hi := 0, len(t.far)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.far[m].idx < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// farLeaf returns the overflow leaf at directory index i, inserting it in
// order on first use.
func (t *PageTable[T]) farLeaf(i uint64) *[ptLeafSize]T {
	k := t.farIndex(i)
	if k < len(t.far) && t.far[k].idx == i {
		return t.far[k].leaf
	}
	leaf := new([ptLeafSize]T)
	t.far = append(t.far, ptFarLeaf[T]{})
	copy(t.far[k+1:], t.far[k:])
	t.far[k] = ptFarLeaf[T]{idx: i, leaf: leaf}
	return leaf
}
