package sim

import (
	"slices"
	"sort"
	"testing"
)

// refEngine is the reference model FuzzEngineOrder checks the Engine
// against: every pending event in one slice sorted by (at, seq). It has no
// tiers, no FIFO, no pool and no lazy deletion, so it states the engine's
// contract directly.
type refEngine struct {
	now      Time
	seq      uint64
	pend     []refEvent
	queued   []bool // by id: in pend
	executed uint64
	stopped  bool
	run      func(id int) // executes event id's script against the model
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refEngine) at(t Time, id int) {
	// seq only grows, so the new event goes after every event at or
	// before t.
	i := sort.Search(len(r.pend), func(i int) bool { return r.pend[i].at > t })
	r.pend = slices.Insert(r.pend, i, refEvent{t, r.seq, id})
	r.seq++
	for len(r.queued) <= id {
		r.queued = append(r.queued, false)
	}
	r.queued[id] = true
}

func (r *refEngine) cancel(id int) bool {
	if id >= len(r.queued) || !r.queued[id] {
		return false
	}
	r.queued[id] = false
	for i, ev := range r.pend {
		if ev.id == id {
			r.pend = slices.Delete(r.pend, i, i+1)
			return true
		}
	}
	return false
}

func (r *refEngine) nextEventTime() Time {
	if len(r.pend) > 0 {
		return r.pend[0].at
	}
	return Forever
}

// runUntil runs every event due by deadline and then moves the clock to
// it, unless an event stopped the run: the clock then stays at that
// event, so the events the Stop left queued are never behind it.
func (r *refEngine) runUntil(deadline Time) Time {
	r.stopped = false
	for !r.stopped && len(r.pend) > 0 {
		ev := r.pend[0]
		if ev.at > deadline || ev.at == Forever {
			break
		}
		r.pend = r.pend[1:]
		r.queued[ev.id] = false
		r.now = ev.at
		r.executed++
		r.run(ev.id)
	}
	if !r.stopped && deadline != Forever && r.now < deadline {
		r.now = deadline
	}
	return r.now
}

// fuzzScript is what an event does when it runs: log its id, optionally
// schedule its child (an event with no script of its own, whose id is
// reserved up front so both engines agree on it) and optionally Stop.
// mode picks the call that schedules the child: At, AtArg, After or
// AfterArg.
type fuzzScript struct {
	child      int // 0: none
	class, arg byte
	mode       byte
	stop       bool
}

// fuzzOffset maps an offset class and argument to a time at or after now
// in a chosen calendar region: the current instant, less than one epoch
// ahead, a few epochs ahead, anywhere in the ring, past the ring, next to
// an epoch boundary, or Forever.
func fuzzOffset(now Time, class, arg byte) Time {
	const epoch = Time(1) << epochShift
	switch class % 7 {
	case 0:
		return now
	case 1:
		return now + Time(arg)*500
	case 2:
		return now + Time(1+arg%8)*epoch + Time(arg)*37
	case 3:
		return now + Time(arg)*4*epoch + Time(arg)
	case 4:
		return now + (ringEpochs+Time(arg)*8)*epoch + Time(arg)
	case 5:
		return (now/epoch+1+Time(arg%3))*epoch - 1 + Time(arg%3)
	default:
		return Forever
	}
}

// fuzzMaxEvents and fuzzMaxSteps bound the events one input schedules and
// the operations it runs, keeping every input fast enough for the fuzzer
// to make progress.
const (
	fuzzMaxEvents = 4096
	fuzzMaxSteps  = 1024
)

// FuzzEngineOrder drives the Engine and refEngine with the same decoded
// operation stream — At, AtArg, After and AfterArg in every calendar
// region, Cancel of live, fired and stale IDs (singly and in bursts large
// enough to compact), RunUntil and Run, NextEventTime, and Stop from
// inside events — and requires the same execution order, Now, Pending and
// Executed after every operation and the same NextEventTime wherever the
// stream asks for it. Whenever a new event takes the pooled struct of the
// event that ran last, the old ID must cancel nothing. Each stream runs
// twice: on a standalone engine, and on the engine of a one-partition
// Group driven through Group.RunUntil and Group.Run. The call an event is
// scheduled with (At, AtArg, After or AfterArg) is read from input bits
// the older decoding ignored, so the committed corpus entries replay the
// sequences they were found with.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 0, 2, 9, 1, 0, 4, 3, 3, 0, 6, 200, 0, 4, 2, 1})
	f.Add([]byte{0, 6, 0, 2, 6, 0, 0, 0, 3, 3, 7, 5, 3, 7, 1, 4, 0, 5})
	f.Add([]byte{2, 3, 90, 2, 4, 100, 2, 2, 120, 3, 2, 1, 4, 6, 0, 6, 3, 0, 1, 5})
	f.Add([]byte{0, 2, 9, 0x71, 1, 0, 1, 1, 0, 4, 3, 4, 8, 5, 0, 0, 7, 0x15, 4, 2, 3, 5})
	f.Add([]byte{2, 5, 255, 2, 2, 80, 3, 0, 2, 6, 0, 4, 0, 3, 4, 5, 2, 3, 1, 7, 5})
	f.Add([]byte{0, 0x09, 5, 0x05, 0, 0x0a, 9, 0x0d, 4, 3, 3, 0, 0x10, 0, 0x08, 1, 2, 0, 0x18, 3, 0x0c, 5, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine(1)
		fuzzEngineStream(t, "engine", data, e, e.RunUntil, e.Run)
		g := NewGroup(1, 1, Microsecond)
		fuzzEngineStream(t, "group", data, g.Engine(0), g.RunUntil, g.Run)
	})
}

// fuzzEngineStream runs one FuzzEngineOrder stream on e against a fresh
// model, driving the run operations through runUntil and run.
func fuzzEngineStream(t *testing.T, name string, data []byte, e *Engine, runUntil func(Time) Time, run func() Time) {
	t.Helper()
	ref := &refEngine{}
	scripts := []fuzzScript{{}} // id 0 is never scheduled
	ids := []EventID{{}}
	var got, want []int
	var fn func(id int) func()
	var argFn func(any)
	// reused requires that when event id has taken the pooled struct of
	// the event that ran last, that event's ID cancels nothing.
	reused := func(id int) {
		if len(got) == 0 {
			return
		}
		last := got[len(got)-1]
		if old := ids[last]; old.ev == ids[id].ev && e.Cancel(old) {
			t.Fatalf("%s: Cancel of the ID of event %d, which ran, cancelled event %d in its reused struct", name, last, id)
		}
	}
	// script runs event id's script; the plain and the argument forms
	// share it.
	script := func(id int) {
		got = append(got, id)
		s := scripts[id]
		if s.child != 0 {
			ids[s.child] = schedule(e, s.mode, fuzzOffset(e.Now(), s.class, s.arg), s.child, fn, argFn)
			reused(s.child)
		}
		if s.stop {
			e.Stop()
		}
	}
	fn = func(id int) func() { return func() { script(id) } }
	argFn = func(arg any) { script(*arg.(*int)) }
	ref.run = func(id int) {
		want = append(want, id)
		s := scripts[id]
		if s.child != 0 {
			ref.at(fuzzOffset(ref.now, s.class, s.arg), s.child)
		}
		if s.stop {
			ref.stopped = true
		}
	}
	// add schedules a new event with script s at the offset class/arg
	// names, reserving an id for its child when it has one.
	add := func(class, arg byte, s fuzzScript) {
		if len(scripts) >= fuzzMaxEvents {
			return
		}
		id := len(scripts)
		scripts = append(scripts, s)
		ids = append(ids, EventID{})
		if s.child != 0 {
			scripts[id].child = id + 1
			scripts = append(scripts, fuzzScript{})
			ids = append(ids, EventID{})
		}
		at := fuzzOffset(e.Now(), class, arg)
		ids[id] = schedule(e, class>>3, at, id, fn, argFn)
		ref.at(at, id)
		reused(id)
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	checked := 0
	for step := 0; len(data) > 0 && step < fuzzMaxSteps; step++ {
		switch op := next(); op % 7 {
		case 0: // one event; flags pick a child, its region, its call, and Stop
			class, arg, flags := next(), next(), next()
			add(class, arg, fuzzScript{child: int(flags & 1), class: flags >> 4, arg: arg ^ flags, mode: flags >> 2, stop: flags&2 != 0})
		case 1: // cancel one id: live, fired, stale, or never scheduled
			id := int(next()) % len(ids)
			if g, w := e.Cancel(ids[id]), ref.cancel(id); g != w {
				t.Fatalf("%s step %d: Cancel(%d) = %v, model %v", name, step, id, g, w)
			}
		case 2: // a burst of events across one region
			class, arg, n := next(), next(), int(next())%160+1
			for i := 0; i < n; i++ {
				add(class, arg+byte(i), fuzzScript{})
			}
		case 3: // cancel every id in one residue class
			m := int(next())%4 + 2
			r := int(next()) % m
			for id := r; id < len(ids); id += m {
				if g, w := e.Cancel(ids[id]), ref.cancel(id); g != w {
					t.Fatalf("%s step %d: Cancel(%d) = %v, model %v", name, step, id, g, w)
				}
			}
		case 4:
			deadline := fuzzOffset(e.Now(), next(), next())
			if g, w := runUntil(deadline), ref.runUntil(deadline); g != w {
				t.Fatalf("%s step %d: RunUntil(%v) = %v, model %v", name, step, deadline, g, w)
			}
		case 5:
			if g, w := run(), ref.runUntil(Forever); g != w {
				t.Fatalf("%s step %d: Run() = %v, model %v", name, step, g, w)
			}
		case 6:
			if g, w := e.NextEventTime(), ref.nextEventTime(); g != w {
				t.Fatalf("%s step %d: NextEventTime() = %v, model %v", name, step, g, w)
			}
		}
		if !slices.Equal(got[checked:], want[checked:]) {
			t.Fatalf("%s step %d: ran %v, model ran %v", name, step, got[checked:], want[checked:])
		}
		checked = len(got)
		if e.Now() != ref.now || e.Pending() != len(ref.pend) || e.Executed() != ref.executed {
			t.Fatalf("%s step %d: Now/Pending/Executed = %v/%d/%d, model %v/%d/%d",
				name, step, e.Now(), e.Pending(), e.Executed(), ref.now, len(ref.pend), ref.executed)
		}
	}
}

// schedule puts event id on e at time at through the call mode picks: At,
// AtArg, After or AfterArg. The Arg forms carry id behind a pointer and
// share one bound argFn, as allocation-free callers do.
func schedule(e *Engine, mode byte, at Time, id int, fn func(int) func(), argFn func(any)) EventID {
	arg := new(int)
	*arg = id
	switch mode % 4 {
	case 0:
		return e.At(at, fn(id))
	case 1:
		return e.AtArg(at, argFn, arg)
	case 2:
		return e.After(at-e.Now(), fn(id))
	default:
		return e.AfterArg(at-e.Now(), argFn, arg)
	}
}
