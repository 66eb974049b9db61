// Package sim provides the deterministic discrete-event simulation engine
// that every other subsystem in this repository runs on.
//
// A single Engine owns a virtual clock and one priority queue of events,
// those due at the current instant included. Components schedule
// callbacks with At/After (or a bound func and its argument with
// AtArg/AfterArg); Run drains the queue in (time, sequence) order, so two
// runs with the same seed and the same schedule produce byte-identical
// results. ReserveSeqs and AtArgSeq split an AtArg in two: the sequence
// number is taken when the timer is armed, the event is queued later, and
// it runs where the AtArg would have run it.
//
// The hot path is allocation-free in steady state: executed and cancelled
// events return to a free list and are reused by later At/After calls, and
// Cancel marks events dead in place (lazy deletion) instead of paying a
// heap fix-up. Events beyond the current epoch wait in a calendar tier of
// per-epoch lists and reach the heap only when their epoch comes up. None
// of these optimizations can change the execution order — see DESIGN.md §6
// ("Engine hot path") for the invariants.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, usable as sim.Time spans.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Forever is a time later than any event the engine will ever execute.
// Events scheduled at exactly Forever (the result of a saturated Add) are
// legal but never run.
const Forever Time = math.MaxInt64

// Add returns t+d saturated to [0, Forever] instead of wrapping:
// scheduling arithmetic on long lookahead windows must never travel back
// in time.
func (t Time) Add(d Time) Time {
	s := t + d
	if d >= 0 {
		if s < t {
			return Forever
		}
	} else if s < 0 || s > t {
		return 0
	}
	return s
}

// Duration converts a standard library duration into a virtual time span.
// It is the one sanctioned wall-clock-type boundary in the sim layers.
//
//npf:realtime
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as floating-point seconds, for human-readable output.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

func (t Time) String() string {
	return time.Duration(t).String()
}

// event is a scheduled callback: fn(arg) at time at. seq breaks ties
// between events scheduled for the same instant, preserving scheduling
// order, and is unique per engine, so it doubles as the generation of the
// pooled struct: an EventID names (event, seq), and a struct reused by a
// later At carries a new seq. fn == nil marks an event that was cancelled
// or has already run. next links the calendar-tier lists; it is nil in
// the heap. The struct is exactly 48 bytes, one size class (TestEventSize).
type event struct {
	at   Time
	seq  uint64
	fn   func(any)
	arg  any
	next *event
}

// plain is a func() carried as an argument: pointer-shaped, so boxing it
// allocates nothing. It is the arg of an At/After event.
type plain func()

// callPlain runs a plain argument. It is the fn of an At/After event and
// of an Engine.Call delivered as mail.
func callPlain(arg any) { arg.(plain)() }

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and never cancels anything.
type EventID struct {
	ev  *event
	seq uint64
}

// Seq returns the scheduling sequence number of the event id names: its
// tie-break among events due at the same instant, unique per engine. An
// event can compare it with Engine.EventSeq to learn whether it is the
// event id names.
func (id EventID) Seq() uint64 { return id.seq }

// maxFreeEvents caps the free list; beyond it, recycled events are left to
// the garbage collector. The cap bounds pool memory after a burst while
// keeping every steady-state workload allocation-free.
const maxFreeEvents = 1 << 16

// compactMinDead is the floor below which Cancel never triggers
// compaction; tiny queues are cheaper to let pop-skip clean up.
const compactMinDead = 64

// Calendar tier geometry. An event's epoch is at>>epochShift (~131 µs).
// The ring holds one list per epoch for the ringEpochs-1 epochs after the
// current one (~134 ms); later epochs wait on the overflow list.
const (
	epochShift = 17
	ringEpochs = 1 << 10
	ringMask   = ringEpochs - 1
	ringWords  = ringEpochs / 64
	noEpoch    = math.MaxInt64
)

// epochOf returns the calendar epoch of t.
func epochOf(t Time) int64 { return int64(t) >> epochShift }

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now Time
	seq uint64
	// heap is a manual binary min-heap ordered by (at, seq). It holds every
	// pending event of epoch <= cur, so its top is the global (at, seq)
	// minimum.
	heap []*event
	// The calendar tier holds every later event. ring[ep&ringMask] lists
	// the events of epoch ep for cur < ep < cur+ringEpochs, and ringBits
	// marks the non-empty lists. over lists later epochs and every event
	// at Forever; overMin is a lower bound on its epochs, ignoring Forever
	// (noEpoch when there are none). An epoch's lists move into the heap
	// only once the heap is empty. far counts the tier's events, live or
	// dead.
	cur      int64
	ring     [ringEpochs]*event
	ringBits [ringWords]uint64
	over     *event
	overMin  int64
	far      int
	// running is the seq of the event executing now, or of the last one
	// to have run.
	running uint64
	// free is the event pool; live drives Pending, and dead (cancelled
	// events still in the heap or the calendar tier) drives compaction.
	free    []*event
	live    int
	dead    int
	rng     *Rand
	stopped bool
	// executed counts events run, for diagnostics and runaway detection.
	executed uint64
	// MaxEvents aborts Run with a panic after this many events, guarding
	// against accidental infinite simulations. Zero means no limit.
	MaxEvents uint64
	// group/part name the PDES group the engine is a partition of, and
	// its index there; every engine has one. callSeq numbers this
	// engine's cross-partition Calls for deterministic timestamp
	// tie-breaks.
	group   *Group
	part    int
	callSeq uint64
}

// NewEngine returns partition 0 of a new one-partition group: its clock
// reads zero and its random source is seeded with seed, exactly as
// NewGroup(seed, 1, L).Engine(0).
func NewEngine(seed int64) *Engine { return NewGroup(seed, 1, 0).Engine(0) }

// newEngine returns a partition's engine, before NewGroup links it.
func newEngine(seed int64) *Engine {
	return &Engine{rng: NewRand(seed), overMin: noEpoch}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Group returns the PDES group this engine is a partition of. It is never
// nil: NewEngine builds a one-partition group.
func (e *Engine) Group() *Group { return e.group }

// Partition returns the engine's partition index within its group.
func (e *Engine) Partition() int { return e.part }

// NextEventTime returns the timestamp of the earliest scheduled event, or
// Forever when nothing is pending. It is the conservative-sync protocol's
// view of the engine's next action.
func (e *Engine) NextEventTime() Time {
	if ev := e.peek(); ev != nil {
		return ev.at
	}
	return Forever
}

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are currently scheduled (cancelled events
// are not counted, even while they still occupy queue slots).
func (e *Engine) Pending() int { return e.live }

// alloc takes an event from the pool, or allocates one when the pool is
// empty, and stamps it with seq.
func (e *Engine) alloc(t Time, seq uint64, fn func(any), arg any) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{} //npf:allocok — pool miss; amortized away once the pool warms up
	}
	ev.at, ev.seq, ev.fn, ev.arg = t, seq, fn, arg
	return ev
}

// recycle returns an event to the pool. Its seq stays until the next
// alloc stamps a new one, and fn == nil already makes every EventID that
// still names it a no-op.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = nil
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev) //npf:allocok — pool refill; capacity reaches steady state
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (before Now) panics: that is always a component bug.
//
//npf:noalloc
func (e *Engine) At(t Time, fn func()) EventID {
	return e.AtArg(t, callPlain, plain(fn)) //npf:allocok — a func value is pointer-shaped; boxing it does not allocate
}

// AtArg schedules fn(arg) to run at absolute virtual time t, in the same
// (time, seq) order as At. It is allocation-free when fn is bound once
// (a method value or closure built ahead of time, not per call) and arg
// is pointer-shaped (a pointer, a map, a chan or a func): an interface
// stores those as they are, where any other value is boxed on the heap.
// fn must not be nil.
//
//npf:noalloc
func (e *Engine) AtArg(t Time, fn func(any), arg any) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //npf:allocok — dying anyway
	}
	if fn == nil {
		panic("sim: AtArg with a nil fn")
	}
	ev := e.alloc(t, e.seq, fn, arg)
	e.seq++
	e.live++
	e.schedule(ev)
	return EventID{ev, ev.seq}
}

// ReserveSeqs takes the next n seqs without scheduling anything and
// returns the first: the seqs that n AtArg calls made now would take, in
// the same order. AtArgSeq later schedules an event under each of them.
func (e *Engine) ReserveSeqs(n int) uint64 {
	if n < 0 {
		panic("sim: ReserveSeqs with a negative count")
	}
	first := e.seq
	e.seq += uint64(n)
	return first
}

// AtArgSeq schedules fn(arg) at absolute virtual time t under seq, a seq
// that ReserveSeqs returned and no event has used yet: the event runs
// exactly where an AtArg call made at the reservation would have run it.
// It has AtArg's allocation contract. It panics when seq was never
// reserved, or when (t, seq) comes before (Now, EventSeq), the event
// running now: that event would run out of (time, seq) order.
//
//npf:noalloc
func (e *Engine) AtArgSeq(t Time, seq uint64, fn func(any), arg any) EventID {
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: AtArgSeq with seq %d, which was never reserved", seq)) //npf:allocok — dying anyway
	}
	if t < e.now || t == e.now && seq < e.running {
		panic(fmt.Sprintf("sim: AtArgSeq at (%v, %d) before the running event (%v, %d)", t, seq, e.now, e.running)) //npf:allocok — dying anyway
	}
	if fn == nil {
		panic("sim: AtArgSeq with a nil fn")
	}
	ev := e.alloc(t, seq, fn, arg)
	e.live++
	e.schedule(ev)
	return EventID{ev, seq}
}

// schedule files an event by epoch: the heap for epochs up to cur, the
// epoch's ring list for the next ringEpochs-1, overflow beyond that. An
// event due now is filed like any other: the heap orders it among the
// pending events due now by its seq, which AtArgSeq may have reserved
// before theirs.
//
//npf:noalloc
func (e *Engine) schedule(ev *event) {
	ep := epochOf(ev.at)
	switch {
	case ep <= e.cur:
		e.pushHeap(ev)
		return
	case ep < e.cur+ringEpochs && ev.at != Forever:
		slot := ep & ringMask
		ev.next = e.ring[slot]
		e.ring[slot] = ev
		e.ringBits[slot>>6] |= 1 << (slot & 63)
	default:
		ev.next = e.over
		e.over = ev
		if ev.at != Forever && ep < e.overMin {
			e.overMin = ep
		}
	}
	e.far++
}

// After schedules fn to run d nanoseconds from now. The target time
// saturates at Forever instead of wrapping, and events at Forever never
// execute, so arbitrarily long delays are safe no-ops.
//
//npf:noalloc
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), callPlain, plain(fn)) //npf:allocok — a func value is pointer-shaped; boxing it does not allocate
}

// AfterArg schedules fn(arg) to run d nanoseconds from now, with After's
// saturation and AtArg's allocation contract.
//
//npf:noalloc
func (e *Engine) AfterArg(d Time, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// EventSeq returns the seq of the event executing now (EventID.Seq of the
// ID its At, AtArg or AtArgSeq returned). Group mail is not an event and
// leaves it as the last event set it. A handler bound once for many
// timers compares it with the seq of the timer its owner has due, to
// tell that timer's event from a superseded one.
func (e *Engine) EventSeq() uint64 { return e.running }

// Cancel removes a scheduled event. Cancelling an event that already ran or
// was already cancelled is a no-op; Cancel reports whether the event was
// actually removed. An ID never cancels a later event that reuses its
// struct: the seqs differ. Removal is lazy: the event is marked dead and
// skipped (and its struct recycled) when it reaches the front of its queue
// or its epoch moves into the heap, with a full compaction of the heap and
// the calendar tier once dead events outnumber live ones there.
//
//npf:noalloc
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.seq != id.seq || ev.fn == nil {
		return false
	}
	ev.fn = nil
	ev.arg = nil
	e.live--
	e.dead++
	if e.dead >= compactMinDead && e.dead*2 > len(e.heap)+e.far {
		e.compact()
	}
	return true
}

// compact drops every dead event from the heap and the calendar tier and
// restores the heap property. Order is unaffected: (at, seq) is a total
// order, so any valid heap over the same live set pops in the same
// sequence, and no live event changes tier.
func (e *Engine) compact() {
	for w, word := range e.ringBits {
		for word != 0 {
			slot := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if e.ring[slot] = e.sweep(e.ring[slot]); e.ring[slot] == nil {
				e.ringBits[w] &^= 1 << (slot & 63)
			}
		}
	}
	e.over = e.sweep(e.over)
	e.overMin = noEpoch
	for ev := e.over; ev != nil; ev = ev.next {
		if ep := epochOf(ev.at); ev.at != Forever && ep < e.overMin {
			e.overMin = ep
		}
	}
	kept := e.heap[:0]
	for _, ev := range e.heap {
		if ev.fn == nil {
			e.recycle(ev)
		} else {
			kept = append(kept, ev) //npf:allocok — appends into e.heap's own backing (kept = e.heap[:0]); never grows
		}
	}
	for i := len(kept); i < len(e.heap); i++ {
		e.heap[i] = nil
	}
	e.heap = kept
	e.dead = 0
	e.heapify()
}

// sweep unlinks and recycles the dead events of one calendar list and
// returns its new head.
func (e *Engine) sweep(head *event) *event {
	link := &head
	for ev := *link; ev != nil; ev = *link {
		if ev.fn == nil {
			*link = ev.next
			e.far--
			e.recycle(ev)
		} else {
			link = &ev.next
		}
	}
	return head
}

// refill runs when the heap is empty: it advances cur to the earliest
// epoch the calendar tier holds and moves that epoch's events into the
// heap, recycling dead ones, until the heap holds a live event or only
// Forever events remain. Moving one whole epoch preserves the invariant
// that the heap holds every pending event of epoch <= cur.
func (e *Engine) refill() {
	for len(e.heap) == 0 {
		next := e.overMin
		if d := e.ringNext(); d != 0 && e.cur+d < next {
			next = e.cur + d
		}
		if next == noEpoch {
			return
		}
		e.cur = next
		if e.overMin <= next {
			e.spill()
		}
		slot := next & ringMask
		for ev := e.ring[slot]; ev != nil; {
			nx := ev.next
			ev.next = nil
			e.far--
			if ev.fn == nil {
				e.dead--
				e.recycle(ev)
			} else {
				e.heap = append(e.heap, ev) //npf:allocok — heap backing reaches steady-state capacity
			}
			ev = nx
		}
		e.ring[slot] = nil
		e.ringBits[slot>>6] &^= 1 << (slot & 63)
		e.heapify()
	}
}

// ringNext returns the distance from cur to the earliest non-empty ring
// epoch (1 to ringEpochs-1), or 0 when the ring is empty. The bitmap
// search costs at most ringWords+1 word tests, however long the idle gap.
func (e *Engine) ringNext() int64 {
	start := (e.cur + 1) & ringMask
	w := start >> 6
	if m := e.ringBits[w] >> (start & 63); m != 0 {
		return int64(bits.TrailingZeros64(m)) + 1
	}
	for i := int64(1); i <= ringWords; i++ {
		wi := (w + i) & (ringWords - 1)
		if m := e.ringBits[wi]; m != 0 {
			slot := wi<<6 + int64(bits.TrailingZeros64(m))
			return (slot-start)&ringMask + 1
		}
	}
	return 0
}

// spill refiles the overflow list against the current epoch: events now
// within the ring's reach move to the heap or their ring list, dead ones
// are recycled, and overMin is recomputed over the rest. Every event left
// behind is at least ringEpochs past cur, so cur advances a full ring
// between spills.
func (e *Engine) spill() {
	ev := e.over
	e.over, e.overMin = nil, noEpoch
	for ev != nil {
		nx := ev.next
		ev.next = nil
		e.far--
		if ev.fn == nil {
			e.dead--
			e.recycle(ev)
		} else {
			e.schedule(ev)
		}
		ev = nx
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Forever) }

// peek returns the next live event, the heap's top, discarding any dead
// events that have surfaced. It returns nil when nothing is scheduled.
func (e *Engine) peek() *event {
	for len(e.heap) > 0 && e.heap[0].fn == nil {
		e.dead--
		e.recycle(e.popHeap())
	}
	if len(e.heap) == 0 && e.far != 0 {
		e.refill()
	}
	if len(e.heap) == 0 {
		return nil
	}
	return e.heap[0]
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// after the deadline remain queued. When every such event has run, the
// clock advances to the deadline (unless it is Forever); when an event
// calls Stop, the clock stays at that event, so the events the Stop left
// queued still run later in (time, seq) order.
func (e *Engine) RunUntil(deadline Time) Time {
	if !e.runThrough(deadline) {
		e.park(deadline)
	}
	return e.now
}

// park advances the clock to t when t is ahead of it and not Forever. The
// caller has run every event <= t, so every pending event stays in the
// future. t may lie in a later epoch than cur; an event then scheduled
// at the new Now waits in the calendar tier like any future one.
func (e *Engine) park(t Time) {
	if t != Forever && e.now < t {
		e.now = t
	}
}

// runThrough is the engine's one event loop: it executes events with
// timestamps <= target, in (at, seq) order, until none is left or an
// event calls Stop, and reports whether one did. Unlike RunUntil it never
// moves the clock past the last executed event.
func (e *Engine) runThrough(target Time) (stopped bool) {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil || next.at > target || next.at == Forever {
			return false
		}
		e.popHeap()
		e.live--
		e.now = next.at
		e.executed++
		if e.MaxEvents != 0 && e.executed > e.MaxEvents {
			panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now))
		}
		fn, arg := next.fn, next.arg
		e.running = next.seq
		e.recycle(next)
		fn(arg)
	}
	return true
}

// ---------------------------------------------------------------------------
// Manual binary min-heap over (at, seq). Hand-rolled instead of
// container/heap to keep the hot path free of interface dispatch.

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushHeap(ev *event) {
	e.heap = append(e.heap, ev) //npf:allocok — heap backing reaches steady-state capacity
	e.siftUp(len(e.heap) - 1)
}

func (e *Engine) popHeap() *event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	e.heap = h[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

// heapify restores the heap property over the whole slice in O(n).
func (e *Engine) heapify() {
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ev := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h[r], h[l]) {
			m = r
		}
		if !eventLess(h[m], ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}
