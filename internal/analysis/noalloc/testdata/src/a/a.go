// Package a exercises the //npf:noalloc fence: Hot carries the annotation
// and contains one allocating construct per line, plus calls covering every
// cross-package verdict (fact-carrying, proven-clean, trusted boundary,
// allowlisted, unanalyzed, dynamic).
package a

import (
	"dep"
	"strings"
)

var sink interface{}

// Hot is a fenced hot path.
//
//npf:noalloc
func Hot(f func(), s []int, str, str2 string, m map[string]int) {
	s = append(s, 1)                 // want `append may grow the backing array inside //npf:noalloc fence of Hot`
	_ = make([]byte, 8)              // want `make allocates inside //npf:noalloc fence of Hot`
	_ = new(int)                     // want `new allocates inside //npf:noalloc fence of Hot`
	_ = &dep.T{}                     // want `composite literal escapes to the heap inside //npf:noalloc fence of Hot`
	_ = map[string]int{}             // want `map literal allocates inside //npf:noalloc fence of Hot`
	_ = []int{1, 2}                  // want `slice literal allocates inside //npf:noalloc fence of Hot`
	m[str] = 1                       // want `map assignment may allocate inside //npf:noalloc fence of Hot`
	_ = str + str2                   // want `string concatenation allocates inside //npf:noalloc fence of Hot`
	_ = []byte(str)                  // want `string-to-slice conversion allocates inside //npf:noalloc fence of Hot`
	sink = 42                        // want `interface boxing allocates inside //npf:noalloc fence of Hot`
	_ = func() int { return len(s) } // want `closure captures variables \(allocates\) inside //npf:noalloc fence of Hot`
	give(&s)                         // want `interface boxing allocates inside //npf:noalloc fence of Hot`
	f()                              // want `dynamic call \(allocation behavior unknown\) inside //npf:noalloc fence of Hot`
	_ = strings.ToUpper(str)         // want `call to strings\.ToUpper \(package strings has no allocation summaries\) inside //npf:noalloc fence of Hot`
	s = dep.Grow(s, 3)               // want `call to dep\.Grow allocates: append may grow the backing array inside //npf:noalloc fence of Hot`
	go noop()                        // want `go statement allocates a goroutine inside //npf:noalloc fence of Hot`
	_ = dep.Pure(4)
	_ = dep.Boundary()
	viaHelper()
	buf := make([]byte, 4) //npf:allocok — reviewed: scratch buffer reaches steady state
	_ = buf
}

// viaHelper is pulled into Hot's fence transitively: its construct is a
// finding even though viaHelper itself is unannotated.
func viaHelper() *dep.T {
	return &dep.T{} // want `composite literal escapes to the heap inside //npf:noalloc fence of Hot`
}

// give exists to exercise boxing at argument positions.
func give(v interface{}) { _ = v }

// noop is a clean target for the go-statement fixture line.
func noop() {}

// Cold is unfenced: the same constructs produce facts, not diagnostics.
func Cold() []int {
	m := map[string]int{"k": 1}
	return append([]int(nil), m["k"])
}

// HotGeneric calls generic methods, across packages and within this one:
// each call names an instantiation and is judged by its declaration.
//
//npf:noalloc
func HotGeneric(st *dep.Stack[int], b *box[int]) {
	st.Push(1) // want `call to dep\.Stack\.Push allocates: append may grow the backing array inside //npf:noalloc fence of HotGeneric`
	_ = st.Len()
	b.add(2)
}

type box[E any] struct{ v []E }

func (b *box[E]) add(v E) {
	b.v = append(b.v, v) // want `append may grow the backing array inside //npf:noalloc fence of HotGeneric`
}
