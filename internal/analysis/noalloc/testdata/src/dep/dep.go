// Package dep is a fixture dependency: its Allocates facts and Analyzed
// package fact are what the fenced package imports.
package dep

// T is a payload type for composite-literal fixtures.
type T struct{ N int }

// Grow allocates (growing append): it exports an Allocates fact but no
// diagnostic — dep has no fences of its own.
func Grow(s []int, v int) []int { return append(s, v) }

// Pure is proven allocation-free, so fences may call it.
func Pure(x int) int { return x + 1 }

// Boundary is a trusted boundary: the annotation keeps its allocation out
// of its exported summary, so fences may call it.
//
//npf:allocok — reviewed boundary: one warm-up allocation by design
func Boundary() *T { return &T{} }

// Stack is generic: a fence calls an instantiation (Stack[int].Push), and
// the verdict comes from the facts on the declared methods.
type Stack[E any] struct{ s []E }

// Push allocates (growing append).
func (k *Stack[E]) Push(v E) { k.s = append(k.s, v) }

// Len is proven allocation-free.
func (k *Stack[E]) Len() int { return len(k.s) }
