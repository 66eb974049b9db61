// Conservative parallel discrete-event simulation (PDES).
//
// A Group shards one simulation across several Engines — one per
// partition — and synchronizes them with a conservative lookahead
// protocol. The contract is the same as the rest of this repository:
// results are byte-identical for any thread count.
//
// # Protocol
//
// Cross-partition interactions go through per-partition mailboxes: a
// timestamped call posted with Post(from, to, at, src, seq, fn, arg) runs
// fn(arg) on the destination partition's engine at virtual time at,
// ordered by (at, src, seq) against other mail and after local events with
// the same timestamp. The sender promises that every post it issues
// satisfies
//
//	at >= clock_sender + lookahead
//
// where clock_sender is the sender's published clock at the moment of the
// send. That promise is exactly what fabric propagation latency provides:
// a message sent while executing an event at time t arrives at t+L.
//
// Every driver executes a partition in batches below an exclusive bound
// B. Within a batch, mail below B is delivered in (at, src, seq) order:
// first the local events at or before m.at run (a same-instant local
// event always predates injected mail), then the clock is set to m.at and
// the mail runs. The local tail below B follows. A Stop shrinks the
// horizon mid-batch: nothing past it runs, and mail past it stays in the
// box for a later RunUntil. The engine clock never parks at B itself: B
// is a property of the driver's slicing, not of the simulation, so final
// Now() values would otherwise depend on it.
//
// # One thread
//
// With one thread (SetThreads(1), the default) a sequential driver runs
// the partitions lowest-timestamp-first, with no atomics, locks or sync
// rounds. Each round takes the partition p whose next action
// T_p = min(next local event, mailbox head) is lowest (lowest index on
// ties), and runs it strictly below
//
//	B = min(T_second, T_p + L) + L, clamped to horizon+1,
//
// where T_second is the lowest next action among the other partitions.
// Safety: while p's batch runs, no other partition runs. Afterwards, a
// partition q can act no earlier than min(T_q, T_p + L) — its own next
// action, or mail from p, which was sent at T_p or later — and the same
// bound holds for anything q's or a third partition's mail then wakes.
// Mail to p lands L after its sender acts, so none can land below B after
// the batch: the set of mail below B is fixed before the batch starts,
// exactly as in the threaded protocol below. The driver therefore
// executes the same per-engine event sequence as any thread count.
//
// # Threads
//
// With two or more threads each partition i repeatedly:
//
//  1. publishes raw_i = min(next local event, earliest mail in box);
//  2. reads a consistent floor M = min_j min(raw_j, box_j head) (see
//     floor), then publishes clock_i = min(raw_i, M+L), with raw_i
//     re-read from its box. The M+L term is what lets a quiescent
//     partition jump its clock across a long idle gap in one step
//     instead of creeping by L per iteration: nothing anywhere can
//     execute before M, so nothing can send mail arriving before M+L.
//  3. computes the exclusive execution bound
//     B = min( min_{j≠i} clock_j + L , horizon+1 )
//     and executes the batch below it.
//
// Safety: no mail can arrive below a receiver's executed frontier.
// Mail sent after partition i read clock_j carries a timestamp
// >= clock_j + L >= B_i's contribution from j, and published clocks
// never decrease, so the set of mail below B is fixed before the batch
// starts. Equal-timestamp mail from different sources cannot race
// either: for i to be executing time t at all, every other clock
// exceeds t-L, so any future send lands strictly after t.
//
// Determinism: each engine therefore executes an identical event
// sequence regardless of how batches are sliced, i.e. regardless of the
// number of worker threads (SetThreads). Injected mail runs between
// engine events and consume no engine sequence numbers, so seq
// assignment of the events they schedule is also timing-independent.
//
// Termination uses the same floor, not clocks: when every partition's
// published raw and mailbox head exceed the horizon (or are Forever), no
// partition can ever create work at or below the horizon.
//
// Stop is deterministic too: with two or more partitions, stopping from
// an event executing at time s shrinks the shared horizon to s+L-1 with
// an atomic min. Every
// partition's frontier is provably below s+L at that moment, so every
// run — any thread count — executes exactly the events with timestamps
// <= s+L-1. See DESIGN.md §S19 for the full argument.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// mail is one cross-partition injection: run fn(arg) on the destination
// engine at virtual time at, ordered by (at, src, seq).
type mail struct {
	at  Time
	src uint64
	seq uint64
	fn  func(any)
	arg any
}

// mailLess compares two box entries in place: a mail is six words, and
// the heap compares on every sift step.
func mailLess(a, b *mail) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// mailbox is a mutex-protected min-heap of mail ordered by (at, src, seq),
// with the head timestamp mirrored in a lock-free atomic. The mirror is
// what makes the synchronization loop cheap: partitions poll every box's
// head on every iteration (floor computation, quiescence checks), and an
// idle partition spinning on another's mutex would throttle the very
// thread it is waiting for. Only push/popBelow — the rare, actual
// mutations — take the lock; headAt is updated before the lock is
// released, so a reader that has observed any later atomic write by the
// pushing thread (e.g. its republished raw) is guaranteed to observe the
// new head too. The one-thread driver pops without the lock: every
// access is then on one goroutine.
type mailbox struct {
	mu     sync.Mutex
	h      []mail
	headAt atomic.Int64 // b.h[0].at, or Forever when empty
	high   int          // high-water mark of len(h)
}

func (b *mailbox) push(m mail) {
	b.mu.Lock()
	b.h = append(b.h, m)
	i := len(b.h) - 1
	if len(b.h) > b.high {
		b.high = len(b.h)
	}
	for i > 0 {
		p := (i - 1) / 2
		if !mailLess(&b.h[i], &b.h[p]) {
			break
		}
		b.h[i], b.h[p] = b.h[p], b.h[i]
		i = p
	}
	b.headAt.Store(int64(b.h[0].at))
	b.mu.Unlock()
}

// head returns the earliest pending timestamp, or Forever when empty.
func (b *mailbox) head() Time {
	return Time(b.headAt.Load())
}

// pop removes the earliest mail from a non-empty box. The caller holds mu,
// or is the one-thread driver.
func (b *mailbox) pop() {
	n := len(b.h) - 1
	b.h[0] = b.h[n]
	b.h[n] = mail{}
	b.h = b.h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && mailLess(&b.h[r], &b.h[l]) {
			m = r
		}
		if !mailLess(&b.h[m], &b.h[i]) {
			break
		}
		b.h[i], b.h[m] = b.h[m], b.h[i]
		i = m
	}
	if n > 0 {
		b.headAt.Store(int64(b.h[0].at))
	} else {
		b.headAt.Store(int64(Forever))
	}
}

// popBelow removes and returns the earliest mail with at < bound from the
// partition's box. The mail stays covered by a published lower bound the
// whole time: raw drops to its timestamp before it leaves the box, and
// uncovers is bumped so a concurrent floor snapshot retries.
func (ps *partState) popBelow(bound Time, uncovers *atomic.Uint64) (mail, bool) {
	b := &ps.box
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.h) == 0 || b.h[0].at >= bound {
		return mail{}, false
	}
	top := b.h[0]
	if top.at < Time(ps.raw.Load()) {
		ps.raw.Store(int64(top.at))
	}
	uncovers.Add(1)
	b.pop()
	return top, true
}

// partState is the per-partition synchronization state. raw and clock are
// written only by the partition's owning worker thread and read by all;
// the counters are written only by the owning thread.
type partState struct {
	box   mailbox
	raw   atomic.Int64 // min(next local event, earliest mail): next action
	clock atomic.Int64 // conservative promise: no future send arrives < clock+L
	// delivered counts mail executed here; posted[q] counts mail this
	// partition posted to partition q. Mail runs between engine events,
	// so Executed folds delivered in for cross-mode accounting.
	delivered uint64
	posted    []uint64
}

// Group runs one simulation sharded across several engines. Create one
// with NewGroup, schedule work on the per-partition engines (Engine(i)),
// route every cross-partition interaction through Post, and drive the
// whole ensemble with Run/RunUntil.
type Group struct {
	engines []*Engine
	parts   []*partState
	look    Time
	horizon atomic.Int64 // inclusive execution horizon for the current run
	threads int
	// batches counts the one-thread driver's batches.
	batches uint64
	// uncovers counts withdrawals of a published lower bound — a raw
	// raised, a mail popped — so floor can detect a torn snapshot.
	uncovers atomic.Uint64
	// done latches the shared termination decision for the current run:
	// threads must stop together, since a partition that looks exhausted
	// can still be fed by another thread's batch.
	done atomic.Bool
}

// splitmix64 decorrelates per-partition engine seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// NewGroup creates a group of parts engines. Partition 0 is seeded with
// seed itself (NewEngine(seed) is NewGroup(seed, 1, 0).Engine(0)); the
// rest get splitmix64-derived seeds. lookahead is the minimum
// cross-partition latency every Post must respect; with two or more
// partitions it must be positive. One partition is the single-engine
// mode (see RunUntil).
func NewGroup(seed int64, parts int, lookahead Time) *Group {
	if parts < 1 {
		panic("sim: group needs at least one partition")
	}
	if lookahead <= 0 && parts > 1 {
		panic("sim: group lookahead must be positive")
	}
	g := &Group{look: lookahead, threads: 1}
	for i := 0; i < parts; i++ {
		s := seed
		if i > 0 {
			s = int64(splitmix64(uint64(seed) ^ uint64(i)*0x9E3779B97F4A7C15))
		}
		e := newEngine(s)
		e.group, e.part = g, i
		g.engines = append(g.engines, e)
		ps := &partState{posted: make([]uint64, parts)}
		ps.box.headAt.Store(int64(Forever)) // empty box: no pending mail
		g.parts = append(g.parts, ps)
	}
	return g
}

// Parts returns the number of partitions.
func (g *Group) Parts() int { return len(g.engines) }

// Engine returns partition i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Engines returns all partition engines, indexed by partition.
func (g *Group) Engines() []*Engine { return g.engines }

// Lookahead returns the group's conservative lookahead window.
func (g *Group) Lookahead() Time { return g.look }

// SetThreads sets the number of worker goroutines used by Run/RunUntil.
// Values below 1 mean 1, and RunUntil uses at most Parts() of them. One
// thread selects the sequential driver, more the threaded protocol.
// Results are byte-identical for any setting; threads only change
// wall-clock speed.
func (g *Group) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	g.threads = n
}

// Executed reports the total work done: engine events across all
// partitions plus delivered mail. The total is deterministic and identical
// for any thread count.
func (g *Group) Executed() uint64 {
	var total uint64
	for i, e := range g.engines {
		total += e.Executed() + g.parts[i].delivered
	}
	return total
}

// PartStats counts one partition's share of a group's work.
type PartStats struct {
	Events  uint64   // engine events executed
	Mail    uint64   // mail delivered to this partition
	Posted  []uint64 // mail this partition posted, by destination partition
	BoxHigh int      // most mail this partition's box has held at once
}

// GroupStats is a snapshot of a group's counters. Events, Mail and Posted
// are a function of the simulation alone, identical for any thread count.
// BoxHigh and Batches depend on how the driver slices its batches: exact
// and deterministic at one thread, timing-dependent beyond it.
type GroupStats struct {
	Parts   []PartStats
	Batches uint64 // batches run by the one-thread driver
}

// Stats returns the group's counters. Call it between runs, not from an
// event.
func (g *Group) Stats() GroupStats {
	s := GroupStats{Parts: make([]PartStats, len(g.engines)), Batches: g.batches}
	for i, ps := range g.parts {
		s.Parts[i] = PartStats{
			Events:  g.engines[i].Executed(),
			Mail:    ps.delivered,
			Posted:  append([]uint64(nil), ps.posted...),
			BoxHigh: ps.box.high,
		}
	}
	return s
}

// Post schedules fn(arg) to run on partition to's engine at absolute
// virtual time at, on behalf of partition from, which must be the
// partition whose event is executing (or any partition before the group
// runs). (src, seq) break timestamp ties deterministically, so each source
// must number its posts from a counter owned by its own partition. The
// caller must guarantee at >= its clock + lookahead, which holds for any
// message that traverses a fabric link.
//
// Post is for cross-partition mail only, and it panics when from == to:
// a partition's execution bound is derived from the other partitions'
// actions, so its local tail could legally run past a self-posted
// timestamp and execute out of order. Same-partition work belongs on the
// engine's own queue (After/At), where it is ordered exactly.
//
// Mail is allocation-free when fn is bound once and arg is a pointer (or
// another pointer-shaped value, a func included): the box stores both as
// they are. Whatever arg points at changes partition with the mail; the
// box's lock orders the sender's writes before the receiver's reads, so
// the sender must not touch it after Post.
func (g *Group) Post(from, to int, at Time, src, seq uint64, fn func(any), arg any) {
	if at < 0 {
		panic(fmt.Sprintf("sim: group post at negative time %d", at))
	}
	if from == to {
		panic(fmt.Sprintf("sim: partition %d posted to itself", from))
	}
	g.parts[from].posted[to]++
	g.parts[to].box.push(mail{at: at, src: src, seq: seq, fn: fn, arg: arg})
}

// callSrc tags Engine.Call mail sources so they can never collide with a
// model-layer source id (fabric node ids and the like are small ints).
const callSrc = uint64(1) << 63

// Call executes fn in target's partition. When both engines are one
// partition — in particular on a one-partition group — or belong to
// different groups, fn runs immediately, the historical synchronous
// behaviour. Across partitions of one group, fn is delivered through the
// group mailbox one lookahead ahead of e's clock, the earliest instant
// the conservative protocol can order deterministically; delivery order
// among Calls from the same engine follows call order. Call must be
// invoked either from an event running on e or before the group starts.
func (e *Engine) Call(target *Engine, fn func()) {
	if e.group != target.group || e.part == target.part {
		fn()
		return
	}
	e.callSeq++
	e.group.Post(e.part, target.part, e.now.Add(e.group.look), callSrc|uint64(e.part), e.callSeq, callPlain, plain(fn))
}

// Run executes the whole group until every partition is quiescent.
func (g *Group) Run() Time { return g.RunUntil(Forever) }

// RunUntil executes every event with timestamp <= until across all
// partitions, then advances every engine's clock to the final horizon
// (which Stop may have shrunk below until). It returns that horizon.
// RunUntil may be called repeatedly with nondecreasing horizons.
//
// A one-partition group is the single-engine mode: RunUntil is that
// engine's own RunUntil, so a Stop ends the run at the stopping event and
// Run on the group and on its engine are the same call.
func (g *Group) RunUntil(until Time) Time {
	if until < 0 {
		panic("sim: group horizon must be nonnegative")
	}
	if len(g.engines) == 1 {
		return g.engines[0].RunUntil(until)
	}
	g.horizon.Store(int64(until))
	threads := g.threads
	if threads > len(g.engines) {
		threads = len(g.engines)
	}
	if threads <= 1 {
		g.runSequential()
	} else {
		g.runThreaded(threads)
	}
	final := Time(g.horizon.Load())
	if final != Forever {
		for _, e := range g.engines {
			if e.now < final {
				e.RunUntil(final) // no events remain <= final; advances the clock
			}
		}
	}
	return final
}

// runSequential is the one-thread driver: lowest-timestamp-first batches,
// each bounded as the package doc's "One thread" section derives.
func (g *Group) runSequential() {
	for {
		p, first, second := 0, Forever, Forever
		for i, e := range g.engines {
			t := e.NextEventTime()
			if h := g.parts[i].box.head(); h < t {
				t = h
			}
			if t < first {
				p, first, second = i, t, first
			} else if t < second {
				second = t
			}
		}
		horizon := Time(g.horizon.Load())
		if first == Forever || first > horizon {
			return
		}
		w := first.Add(g.look)
		if second < w {
			w = second
		}
		bound := w.Add(g.look)
		if h1 := horizon.Add(1); h1 < bound {
			bound = h1
		}
		g.batches++
		g.runBatch(p, bound)
	}
}

// runBatch executes partition p's mail and local events strictly below
// bound, for the one-thread driver. No other partition runs meanwhile, so
// p's box changes only by its own pops and needs no lock.
func (g *Group) runBatch(p int, bound Time) {
	e, ps := g.engines[p], g.parts[p]
	b := &ps.box
	for len(b.h) > 0 {
		if h1 := Time(g.horizon.Load()).Add(1); h1 < bound {
			bound = h1
		}
		m := b.h[0]
		if m.at >= bound || !g.runLocal(e, m.at) {
			break
		}
		b.pop()
		m.fn(m.arg)
		ps.delivered++
	}
	g.runTail(e, bound)
}

// runThreaded runs the threaded protocol on threads goroutines.
func (g *Group) runThreaded(threads int) {
	g.done.Store(false)
	// Re-seed the synchronization state single-threaded: nothing is
	// executing, so each partition's next action is exact and clocks may
	// jump straight to it (stale clocks from a previous RunUntil would
	// otherwise force a slow creep back up to the current time). Clocks
	// are seeded to min(raw, globalMin + L), the same promise
	// runPartition publishes: an idle partition must NOT claim Forever,
	// because any live partition's mail can still wake it — a Forever
	// clock would unbound the others' execution and let them run causally
	// ahead of replies this partition has yet to produce.
	minRaw := Forever
	for i, e := range g.engines {
		ps := g.parts[i]
		raw := e.NextEventTime()
		if h := ps.box.head(); h < raw {
			raw = h
		}
		ps.raw.Store(int64(raw))
		if raw < minRaw {
			minRaw = raw
		}
	}
	for _, ps := range g.parts {
		clock := minRaw.Add(g.look)
		if raw := Time(ps.raw.Load()); raw < clock {
			clock = raw
		}
		ps.clock.Store(int64(clock))
	}
	var wg sync.WaitGroup
	for tid := 1; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g.runThread(tid, threads)
		}(tid)
	}
	g.runThread(0, threads)
	wg.Wait()
}

// runThread services partitions tid, tid+T, tid+2T, ... until the whole
// group is quiescent beyond the horizon. The partition->thread map is
// static, so each engine is touched by exactly one goroutine per run.
func (g *Group) runThread(tid, threads int) {
	idle := 0
	for {
		if g.done.Load() {
			return
		}
		progressed := false
		for p := tid; p < len(g.engines); p += threads {
			if g.runPartition(p) {
				progressed = true
			}
		}
		if progressed {
			idle = 0
			continue
		}
		if g.quiescent() {
			g.done.Store(true)
			return
		}
		idle++
		if idle > 64 {
			runtime.Gosched()
		}
	}
}

// quiescent reports whether no partition holds — or can ever create —
// work at or below the horizon.
func (g *Group) quiescent() bool {
	f := g.floor()
	return f == Forever || f > Time(g.horizon.Load())
}

// floor returns the minimum over every partition's published raw and
// mailbox head: a lower bound on all future execution anywhere. Pending
// work is always covered by a raw or a box head, and every hand-off covers
// the new place before uncovering the old — a sender's pushes land before
// it republishes its raw, a receiver lowers its raw before it pops. Reads
// of the two places are not simultaneous, so a hand-off can slip between
// them; the snapshot is retried whenever an uncover lands while it is
// being read.
func (g *Group) floor() Time {
	for {
		gen := g.uncovers.Load()
		f := Forever
		for _, ps := range g.parts {
			if r := Time(ps.raw.Load()); r < f {
				f = r
			}
			if h := ps.box.head(); h < f {
				f = h
			}
		}
		if g.uncovers.Load() == gen {
			return f
		}
	}
}

// runPartition performs one synchronization-and-execute iteration for
// partition p. It reports whether any work was done.
func (g *Group) runPartition(p int) bool {
	e := g.engines[p]
	ps := g.parts[p]

	// (1) Publish the next-action estimate.
	raw := e.NextEventTime()
	if h := ps.box.head(); h < raw {
		raw = h
	}
	if raw > Time(ps.raw.Load()) {
		g.uncovers.Add(1)
	}
	ps.raw.Store(int64(raw))

	// (2) Publish the conservative clock: min(raw, globalFloor + L), where
	// the floor is a consistent lower bound on all future execution
	// anywhere. Mail that reached this box before the floor was read is
	// this partition's own next action, so raw is re-read from the box;
	// anything arriving later was sent at or above the floor and so lands
	// at or above floor + L.
	minRaw := g.floor()
	if h := ps.box.head(); h < raw {
		raw = h
	}
	clock := minRaw.Add(g.look)
	if raw < clock {
		clock = raw
	}
	// Published clocks must never decrease: receivers trust that any send
	// issued after they read clock_j arrives at or beyond that value + L.
	// An older (higher) clock was a valid bound on all execution after its
	// publish instant, which includes everything still to come.
	if prev := Time(ps.clock.Load()); clock < prev {
		clock = prev
	}
	ps.clock.Store(int64(clock))

	horizon := Time(g.horizon.Load())
	if raw > horizon || raw == Forever {
		return false // nothing runnable this side of the horizon
	}

	// (3) Execution bound: strictly below every other clock + lookahead,
	// and never beyond the horizon. The horizon is re-read inside the
	// loop because Stop may shrink it mid-batch.
	bound := Forever
	for q, qs := range g.parts {
		if q == p {
			continue
		}
		if w := Time(qs.clock.Load()).Add(g.look); w < bound {
			bound = w
		}
	}
	if h1 := horizon.Add(1); h1 < bound {
		bound = h1
	}

	executed, delivered := e.executed, ps.delivered
	for {
		if h1 := Time(g.horizon.Load()).Add(1); h1 < bound {
			bound = h1
		}
		m, ok := ps.popBelow(bound, &g.uncovers)
		if !ok {
			break
		}
		if !g.runLocal(e, m.at) {
			// A Stop moved the horizon below this mail; requeue it so a
			// later RunUntil with a larger horizon can still deliver it.
			ps.box.push(m)
			break
		}
		m.fn(m.arg)
		ps.delivered++
	}
	g.runTail(e, bound)
	return e.executed != executed || ps.delivered != delivered
}

// runLocal runs e's local events at or before at, the timestamp of the
// mail about to be delivered, folding any Stop they issue into the group
// horizon and never running past that horizon. It reports whether the
// mail is still within the horizon; if so, the clock is set to at for the
// mail to run.
func (g *Group) runLocal(e *Engine, at Time) bool {
	for {
		target := at
		if h := Time(g.horizon.Load()); h < target {
			target = h
		}
		if !e.runThrough(target) {
			break
		}
		g.StopFrom(e)
	}
	if at > Time(g.horizon.Load()) {
		return false
	}
	e.park(at)
	return true
}

// runTail runs e's local events strictly below bound, re-clamping to the
// horizon after any Stop. The clock stays at the last executed event.
func (g *Group) runTail(e *Engine, bound Time) {
	for {
		target := bound - 1
		if bound == Forever {
			target = Forever
		}
		if h := Time(g.horizon.Load()); h < target {
			target = h
		}
		if !e.runThrough(target) {
			return
		}
		g.StopFrom(e)
	}
}

// StopFrom deterministically ends the current run shortly after the
// calling event: the horizon shrinks to e.Now() + lookahead - 1, which
// every partition's frontier is provably still below, so every run
// executes exactly the same event set regardless of thread count. e must
// be the engine the calling event is executing on; like Stop, StopFrom
// ends e's current event loop, so the driver re-reads the horizon before
// e runs another event. On a one-partition group it is Stop: the run
// ends at the calling event.
func (g *Group) StopFrom(e *Engine) {
	e.stopped = true
	newH := int64(e.now.Add(g.look) - 1)
	for {
		cur := g.horizon.Load()
		if cur <= newH {
			return
		}
		if g.horizon.CompareAndSwap(cur, newH) {
			return
		}
	}
}
