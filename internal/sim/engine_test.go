package sim

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var step func()
	step = func() {
		fired = append(fired, e.Now())
		if len(fired) < 5 {
			e.After(7, step)
		}
	}
	e.After(7, step)
	e.Run()
	for i, ft := range fired {
		if want := Time(7 * (i + 1)); ft != want {
			t.Fatalf("fired[%d]=%v want %v", i, ft, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	id := e.At(10, func() { ran = true })
	if !e.Cancel(id) {
		t.Fatal("first Cancel should report true")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(20)
	if len(ran) != 2 {
		t.Fatalf("ran %v events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.Run()
	if len(ran) != 3 {
		t.Fatalf("remaining event did not run: %v", ran)
	}
}

func TestEngineRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	// Run resumes.
	e.Run()
	if n != 10 {
		t.Fatalf("resume ran to %d, want 10", n)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		e := NewEngine(seed)
		var out []uint64
		var step func()
		step = func() {
			out = append(out, e.Rand().Uint64())
			if len(out) < 100 {
				e.After(Time(e.Rand().Intn(50)+1), step)
			}
		}
		e.After(1, step)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Cancelled events are deleted lazily; survivors must still run in exact
// (time, seq) order and Pending must count only live events.
func TestEngineCancelLazyOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	var ids []EventID
	for i := 0; i < 1000; i++ {
		i := i
		ids = append(ids, e.At(Time(i%10+1), func() { order = append(order, i) }))
	}
	// Cancel enough to force compaction (dead > live).
	cancelled := map[int]bool{}
	for i := 0; i < 1000; i++ {
		if i%4 != 0 {
			if !e.Cancel(ids[i]) {
				t.Fatalf("Cancel(%d) reported false", i)
			}
			cancelled[i] = true
		}
	}
	if e.Pending() != 250 {
		t.Fatalf("Pending = %d, want 250", e.Pending())
	}
	e.Run()
	if len(order) != 250 {
		t.Fatalf("ran %d events, want 250", len(order))
	}
	for k, i := range order {
		if cancelled[i] {
			t.Fatalf("cancelled event %d ran", i)
		}
		if k > 0 {
			prev := order[k-1]
			pt, ct := Time(prev%10+1), Time(i%10+1)
			if ct < pt || (ct == pt && i < prev) {
				t.Fatalf("order violated at %d: %d after %d", k, i, prev)
			}
		}
	}
}

// EventIDs must go stale when their event runs or is cancelled, even
// though the underlying struct is pooled and reused by later events: seq,
// unique per engine, is the struct's generation, so an ID names one
// scheduling and never a later one.
func TestEngineEventIDReuseSafety(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	id := e.At(1, func() { ran++ })
	e.Run()
	// The struct behind id is now on top of the free list; this At reuses it.
	reused := e.At(e.Now()+1, func() { ran++ })
	if reused.ev != id.ev || reused.seq == id.seq {
		t.Fatalf("reuse: struct %p seq %d after %p seq %d; want the same struct under a new seq",
			reused.ev, reused.seq, id.ev, id.seq)
	}
	if e.Cancel(id) {
		t.Fatal("Cancel of an already-run event reported true")
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (stale Cancel must not hit the reused event)", ran)
	}

	// A cancelled event's ID goes stale the same way, and cancelling it
	// twice is a no-op, whether the event is due now, later in the current
	// epoch or in the calendar tier.
	for _, d := range []Time{0, 10, Time(1) << (epochShift + 2)} {
		victim := e.After(d, func() { t.Fatalf("cancelled event (delay %v) ran", d) })
		if !e.Cancel(victim) || e.Cancel(victim) {
			t.Fatalf("delay %v: Cancel, Cancel = want true, false", d)
		}
		e.Run() // recycles the dead struct
		next := e.AfterArg(d, func(any) { ran++ }, nil)
		if e.Cancel(victim) {
			t.Fatalf("delay %v: stale Cancel of a cancelled event hit seq %d", d, next.seq)
		}
		e.Run()
	}
	if ran != 5 {
		t.Fatalf("ran = %d, want 5", ran)
	}
}

// TestEventSize pins the event struct at 48 bytes, one allocation size
// class: an argument event fits fn and arg by folding the generation into
// seq and the cancelled flag into fn.
func TestEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 48 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 48", sz)
	}
}

// EventSeq reads, inside a running event, the seq its EventID carries:
// the check a once-bound timer handler uses to skip stale timers.
func TestEngineEventSeq(t *testing.T) {
	e := NewEngine(1)
	var ids [3]EventID
	var seen []uint64
	h := func(any) { seen = append(seen, e.EventSeq()) }
	ids[0] = e.AfterArg(5, h, nil)
	ids[1] = e.AfterArg(0, h, nil)
	ids[2] = e.AtArg(5, h, nil)
	e.Run()
	want := []uint64{ids[1].seq, ids[0].seq, ids[2].seq}
	if !slices.Equal(seen, want) {
		t.Fatalf("EventSeq in order = %v, want %v", seen, want)
	}
}

// A seq ReserveSeqs took runs its AtArgSeq event where an AtArg made at
// the reservation would have run it: before a same-instant event
// scheduled after the reservation, even one scheduled before the
// AtArgSeq call.
func TestEngineReservedSeqOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	h := func(arg any) { order = append(order, *arg.(*string)) }
	name := func(s string) *string { return &s }
	first := e.ReserveSeqs(2)
	e.AtArg(10, h, name("plain"))
	e.AtArgSeq(10, first+1, h, name("reserved second"))
	e.AtArgSeq(10, first, h, name("reserved first"))
	e.Run()
	if want := []string{"reserved first", "reserved second", "plain"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// AtArgSeq refuses a seq ReserveSeqs never returned, and a (time, seq)
// key before the running event's: that event would run out of order.
func TestEngineAtArgSeqPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine) // runs inside an event at (10, seq 2)
		want string
	}{
		{"never reserved", func(e *Engine) { e.AtArgSeq(20, 3, func(any) {}, nil) }, "never reserved"},
		{"never reserved, at the next seq", func(e *Engine) {
			s := e.ReserveSeqs(1)
			e.AtArgSeq(20, s+1, func(any) {}, nil)
		}, "never reserved"},
		{"earlier seq at the running instant", func(e *Engine) { e.AtArgSeq(10, 1, func(any) {}, nil) }, "before the running event"},
		{"earlier time", func(e *Engine) { e.AtArgSeq(9, 1, func(any) {}, nil) }, "before the running event"},
	} {
		e := NewEngine(1)
		first := e.ReserveSeqs(2) // seqs 0 and 1, never scheduled
		var got any
		e.AtArg(10, func(any) {
			defer func() { got = recover() }()
			tc.call(e)
		}, nil)
		e.Run()
		if first != 0 || e.EventSeq() != 2 {
			t.Fatalf("%s: reserved from %d, ran seq %d; want 0 and 2", tc.name, first, e.EventSeq())
		}
		if msg, _ := got.(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panic %v, want one naming %q", tc.name, got, tc.want)
		}
	}
	// A seq reserved by the running event may run at its instant.
	e := NewEngine(1)
	var ran bool
	e.AtArg(10, func(any) {
		e.AtArgSeq(10, e.ReserveSeqs(1), func(any) { ran = e.Now() == 10 }, nil)
	}, nil)
	e.Run()
	if !ran {
		t.Fatal("an AtArgSeq at the running instant under a new seq did not run then")
	}
}

// After(0) inside a callback runs after every event already due at the same
// instant, including ones still in the heap from before the clock arrived.
func TestEngineImmediateOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(5, func() {
		order = append(order, "a")
		e.After(0, func() { order = append(order, "imm1") })
		e.After(0, func() { order = append(order, "imm2") })
	})
	e.At(5, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "imm1", "imm2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Stop with same-instant events still queued, then more At(now) scheduling,
// then resume: (time, seq) order must hold across the interruption, and a
// deadline jump must not strand events due now. A deadline that parks the
// clock in an epoch past the heap's files events due now in the calendar
// tier, which must still run them in seq order before later events.
func TestEngineStopResumeImmediate(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(5, func() { order = append(order, "a"); e.Stop() })
	e.At(5, func() { order = append(order, "b") })
	e.Run()
	e.At(5, func() { order = append(order, "c") }) // now == 5: due now, after b
	e.RunUntil(9)                                  // runs b, c; clock jumps to 9
	if e.Now() != 9 {
		t.Fatalf("clock = %v, want 9", e.Now())
	}
	e.At(9, func() { order = append(order, "d"); e.Stop() })
	e.At(9, func() { order = append(order, "e") })
	e.Run()        // runs d, stops with e still due now
	e.RunUntil(20) // deadline jump: e must run first, not be stranded
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	want := "a b c d e"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += " "
		}
		got += s
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}

	// Park the clock 3 epochs past cur (the ring) and then a full ring past
	// it (overflow), with a later event pending when the now-events arrive.
	for _, park := range []Time{3<<epochShift + 7, (ringEpochs+8)<<epochShift + 7} {
		e.RunUntil(park)
		if ep := epochOf(e.Now()); ep <= e.cur {
			t.Fatalf("park %v: clock epoch %d not past cur %d", park, ep, e.cur)
		}
		order = order[:0]
		e.At(park+2<<epochShift, func() { order = append(order, "late") })
		e.At(e.Now(), func() { order = append(order, "n1") })
		e.At(e.Now(), func() { order = append(order, "n2") })
		e.After(0, func() { order = append(order, "n3") })
		if len(e.heap) != 0 || e.far != 4 {
			t.Fatalf("park %v: heap %d, calendar %d; want every event in the calendar tier", park, len(e.heap), e.far)
		}
		e.Run()
		if got := strings.Join(order, " "); got != "n1 n2 n3 late" {
			t.Fatalf("park %v: order = %q, want %q", park, got, "n1 n2 n3 late")
		}
	}
}

// Property: events always execute in non-decreasing time order, whatever the
// schedule.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var times []Time
		for _, d := range delays {
			e.At(Time(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
