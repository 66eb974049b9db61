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
// model. The only panic allowed is At on a negative page number. After each
// operation it checks Span from the operation's page against the model;
// the span's length comes from the operation byte's high bits (op/15),
// which choose nothing else.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{2, 5, 0, 5, 1, 5})
	f.Add([]byte{5, 0xff, 0xff, 3, 1, 0, 8, 0, 0, 0x10, 0, 0, 0, 0, 0x40, 12, 1})
	// At in a dense and an overflow leaf, then Spans of 630 pages over the
	// dense leaf from page 0 and from page 10 (to the leaf's end), of 593
	// from the overflow page, of 593 from page 200, and of 75 from a
	// negative page.
	f.Add([]byte{2, 10, 255, 0, 255, 10, 8, 3, 0, 246, 3, 0, 240, 200, 40, 7})
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
			checkSpan(t, &pt, pn, 1+37*int(op/15), model, leaves, ptrs)
		}
		for pn, v := range model {
			if got := pt.Get(pn); got != v {
				t.Fatalf("Get(%d) = %d after the run, model %d", pn, got, v)
			}
		}
	})
}

// checkSpan checks Span(pn, n) against the FuzzPageTable model: its length,
// nil exactly when pn's leaf was never allocated, entries equal to the
// model's, and entries aliasing At's pointers.
func checkSpan(t *testing.T, pt *PageTable[int64], pn PageNum, n int, model map[PageNum]int64, leaves map[uint64]bool, ptrs map[PageNum]*int64) {
	t.Helper()
	s, k := pt.Span(pn, n)
	want := min(n, ptLeafSize-int(uint64(pn)%ptLeafSize))
	if k != want {
		t.Fatalf("Span(%d, %d) covers %d pages, want %d", pn, n, k, want)
	}
	hasLeaf := pn >= 0 && leaves[uint64(pn)>>ptLeafBits]
	if (s != nil) != hasLeaf {
		t.Fatalf("Span(%d, %d) = %v, leaf allocated %v", pn, n, s != nil, hasLeaf)
	}
	if s == nil {
		return
	}
	if len(s) != k {
		t.Fatalf("Span(%d, %d) has %d entries, covers %d pages", pn, n, len(s), k)
	}
	for j := range s {
		q := pn + PageNum(j)
		if s[j] != model[q] {
			t.Fatalf("Span(%d, %d)[%d] reads %d, model %d", pn, n, j, s[j], model[q])
		}
		if p, seen := ptrs[q]; seen && p != &s[j] {
			t.Fatalf("Span(%d, %d)[%d] does not alias At(%d)", pn, n, j, q)
		}
	}
}
