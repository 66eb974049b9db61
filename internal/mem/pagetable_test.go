package mem

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestPageTableReadsNeverAllocate(t *testing.T) {
	var pt PageTable[*pte]
	*pt.At(3) = &pte{pn: 3}
	*pt.At(ptDenseLeaves*ptLeafSize + 9) = &pte{pn: 9}
	pns := []PageNum{-1, 0, 3, 511, 512, 1 << 40, ptDenseLeaves*ptLeafSize + 9, -1 << 63}
	allocs := testing.AllocsPerRun(100, func() {
		for _, pn := range pns {
			_ = pt.Get(pn)
			_ = pt.Lookup(pn)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get/Lookup allocate %.1f per run, want 0", allocs)
	}
	if pt.Get(3).pn != 3 || pt.Get(ptDenseLeaves*ptLeafSize+9).pn != 9 || pt.Get(4) != nil {
		t.Fatal("PageTable lost an entry")
	}
}

func TestPageTableAtNegativePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "invariant") {
			t.Fatalf("At(-1) recovered %v, want an invariant panic", r)
		}
	}()
	var pt PageTable[bool]
	pt.At(-1)
}

func TestPageTableWalkInPageOrder(t *testing.T) {
	var pt PageTable[int]
	far := PageNum(ptDenseLeaves*ptLeafSize + 3*ptLeafSize + 1)
	for _, pn := range []PageNum{far + 5*ptLeafSize, 2000, 7, far, 513} {
		*pt.At(pn) = int(pn)
	}
	var got []PageNum
	last := PageNum(-1)
	pt.Walk(func(pn PageNum, v *int) {
		if pn <= last {
			t.Fatalf("Walk visited %d after %d", pn, last)
		}
		last = pn
		if *v != 0 {
			if *v != int(pn) {
				t.Fatalf("page %d holds %d", pn, *v)
			}
			got = append(got, pn)
		}
	})
	want := []PageNum{7, 513, 2000, far, far + 5*ptLeafSize}
	if len(got) != len(want) {
		t.Fatalf("Walk found %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk found %v, want %v", got, want)
		}
	}
}

// fuzzPN decodes one page number from data: a small page, a page spread
// over many leaves, a page in the overflow directory, a small negative one,
// or eight raw bytes (huge and negative values).
func fuzzPN(mode byte, data []byte) (PageNum, []byte, bool) {
	switch mode % 5 {
	case 0:
		if len(data) < 1 {
			return 0, nil, false
		}
		return PageNum(data[0]), data[1:], true
	case 1:
		if len(data) < 2 {
			return 0, nil, false
		}
		return PageNum(binary.LittleEndian.Uint16(data)) * 7, data[2:], true
	case 2:
		if len(data) < 2 {
			return 0, nil, false
		}
		return ptDenseLeaves*ptLeafSize + PageNum(binary.LittleEndian.Uint16(data))*513, data[2:], true
	case 3:
		if len(data) < 1 {
			return 0, nil, false
		}
		return -PageNum(data[0]) - 1, data[1:], true
	default:
		if len(data) < 8 {
			return 0, nil, false
		}
		return PageNum(binary.LittleEndian.Uint64(data)), data[8:], true
	}
}

// FuzzPageTable runs arbitrary Get/Lookup/At sequences against a map
// model. The only panic allowed is At on a negative page number.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{2, 5, 0, 5, 1, 5})
	f.Add([]byte{5, 0xff, 0xff, 3, 1, 0, 8, 0, 0, 0x10, 0, 0, 0, 0, 0x40, 12, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pt PageTable[int64]
		model := make(map[PageNum]int64)
		leaves := make(map[uint64]bool)
		ptrs := make(map[PageNum]*int64)
		next := int64(1)
		for len(data) > 0 {
			op := data[0]
			pn, rest, ok := fuzzPN(op/3, data[1:])
			if !ok {
				break
			}
			data = rest
			switch op % 3 {
			case 0:
				if got := pt.Get(pn); got != model[pn] {
					t.Fatalf("Get(%d) = %d, model %d", pn, got, model[pn])
				}
			case 1:
				p := pt.Lookup(pn)
				hasLeaf := pn >= 0 && leaves[uint64(pn)>>ptLeafBits]
				if (p != nil) != hasLeaf {
					t.Fatalf("Lookup(%d) = %v, leaf allocated %v", pn, p, hasLeaf)
				}
				if p != nil && *p != model[pn] {
					t.Fatalf("Lookup(%d) reads %d, model %d", pn, *p, model[pn])
				}
			case 2:
				if pn < 0 {
					func() {
						defer func() {
							r := recover()
							if s, _ := r.(string); !strings.Contains(s, "invariant") {
								t.Fatalf("At(%d) recovered %v, want an invariant panic", pn, r)
							}
						}()
						pt.At(pn)
					}()
					continue
				}
				p := pt.At(pn)
				if q, seen := ptrs[pn]; seen && q != p {
					t.Fatalf("At(%d) moved its entry", pn)
				}
				if *p != model[pn] {
					t.Fatalf("At(%d) reads %d, model %d", pn, *p, model[pn])
				}
				ptrs[pn] = p
				leaves[uint64(pn)>>ptLeafBits] = true
				*p = next
				model[pn] = next
				next++
			}
		}
		seen := 0
		last := PageNum(-1)
		pt.Walk(func(pn PageNum, v *int64) {
			if pn <= last {
				t.Fatalf("Walk visited %d after %d", pn, last)
			}
			last = pn
			if *v != model[pn] {
				t.Fatalf("Walk: page %d holds %d, model %d", pn, *v, model[pn])
			}
			if *v != 0 {
				seen++
			}
		})
		if seen != len(model) {
			t.Fatalf("Walk saw %d written entries, model has %d", seen, len(model))
		}
	})
}
