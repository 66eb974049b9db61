package sim

// Ring is a FIFO queue over a circular buffer, for the model layers'
// per-packet queues. Unlike a slice queue (q = q[1:] plus append), popping
// never strands the head of the backing array, so once the buffer has grown
// to the queue's high-water mark, Push and Pop never allocate. The zero
// value is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// minRingCap is the first buffer size: small, because some model objects
// (one TX queue per channel, two ports per fabric node) exist by the
// thousand and most never queue more than a few entries.
const minRingCap = 4

// Len reports the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail, doubling the buffer when it is full.
//
//npf:noalloc
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow() //npf:allocok — doubles up to the high-water mark, then never again
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// Peek returns the oldest element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("sim: Peek on empty Ring")
	}
	return r.buf[r.head]
}

// At returns a pointer to the i-th oldest element (0 is the head), for
// in-place reads and updates. The pointer is valid only until the next
// Push, which may move the buffer, or until the element is popped. It
// panics if i is out of range.
//
//npf:noalloc
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("sim: Ring index out of range")
	}
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

// Pop removes and returns the oldest element. Its slot is zeroed, so the
// ring keeps no reference to a popped element. It panics on an empty ring.
//
//npf:noalloc
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop on empty Ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// grow doubles the buffer, unwrapping the queue to start at index 0.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), minRingCap))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
