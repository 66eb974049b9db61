package sim

import "testing"

// TestRingFIFO: interleaved pushes and pops come out in push order.
func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round%5 && r.Len() > 0; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

// TestRingGrowWhileWrapped: growth with the queue wrapped around the end
// of the buffer keeps FIFO order and restarts the queue at index 0.
func TestRingGrowWhileWrapped(t *testing.T) {
	var r Ring[int]
	for i := 0; i < minRingCap; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop()
	r.Push(minRingCap)
	r.Push(minRingCap + 1) // full again, wrapped: head = 2
	if r.head == 0 || len(r.buf) != minRingCap {
		t.Fatalf("setup: head=%d cap=%d, want a wrapped full ring of %d", r.head, len(r.buf), minRingCap)
	}
	r.Push(minRingCap + 2) // grows while wrapped
	if len(r.buf) != 2*minRingCap || r.head != 0 {
		t.Fatalf("after growth: cap=%d head=%d, want cap %d head 0", len(r.buf), r.head, 2*minRingCap)
	}
	for want := 2; want <= minRingCap+2; want++ {
		if got := r.Peek(); got != want {
			t.Fatalf("Peek = %d, want %d", got, want)
		}
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after draining", r.Len())
	}
}

// TestRingClearsPoppedSlots: a popped element is no longer referenced by
// the buffer, so the ring never keeps a dead packet alive.
func TestRingClearsPoppedSlots(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 3; i++ {
		v := i
		r.Push(&v)
	}
	r.Pop()
	r.Pop()
	for i, p := range r.buf {
		if live := i == r.head; (p != nil) != live {
			t.Fatalf("slot %d = %v; only the head slot %d should be set", i, p, r.head)
		}
	}
}

func TestRingEmptyPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(*Ring[int])
	}{
		{"Pop", func(r *Ring[int]) { r.Pop() }},
		{"Peek", func(r *Ring[int]) { r.Peek() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty ring did not panic", c.name)
				}
			}()
			var r Ring[int]
			r.Push(1)
			r.Pop()
			c.f(&r)
		}()
	}
}

// TestRingSteadyStateAllocs: once the buffer has reached the high-water
// mark, pushes and pops do not allocate.
func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	cycle := func() {
		for i := 0; i < 10; i++ {
			r.Push(v)
		}
		for i := 0; i < 10; i++ {
			r.Pop()
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f per cycle, want 0", allocs)
	}
}

// TestRingAt: At indexes from the oldest element across the wrap point,
// writes through its pointer land in the queue, and an out-of-range index
// panics.
func TestRingAt(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	r.Pop()
	r.Pop()
	r.Push(4)
	r.Push(5) // wraps: the buffer holds 4 5 2 3
	for i := 0; i < r.Len(); i++ {
		if got := *r.At(i); got != i+2 {
			t.Fatalf("At(%d) = %d, want %d", i, got, i+2)
		}
	}
	*r.At(3) = 50
	for _, want := range []int{2, 3, 4, 50} {
		if got := r.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
	}
	for _, i := range []int{-1, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) on an empty ring did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
}
