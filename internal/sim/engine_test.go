package sim

import (
	"slices"
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
	if reused.ev != id.ev || reused.Seq() == id.Seq() {
		t.Fatalf("reuse: struct %p seq %d after %p seq %d; want the same struct under a new seq",
			reused.ev, reused.Seq(), id.ev, id.Seq())
	}
	if e.Cancel(id) {
		t.Fatal("Cancel of an already-run event reported true")
	}
	e.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (stale Cancel must not hit the reused event)", ran)
	}

	// A cancelled event's ID goes stale the same way, and cancelling it
	// twice is a no-op, for heap, calendar and immediate events alike.
	for _, d := range []Time{0, 10, Time(1) << (epochShift + 2)} {
		victim := e.After(d, func() { t.Fatalf("cancelled event (delay %v) ran", d) })
		if !e.Cancel(victim) || e.Cancel(victim) {
			t.Fatalf("delay %v: Cancel, Cancel = want true, false", d)
		}
		e.Run() // recycles the dead struct
		next := e.AfterArg(d, func(any) { ran++ }, nil)
		if e.Cancel(victim) {
			t.Fatalf("delay %v: stale Cancel of a cancelled event hit seq %d", d, next.Seq())
		}
		e.Run()
	}
	if ran != 5 {
		t.Fatalf("ran = %d, want 5", ran)
	}
}

// TestEventSize pins the event struct at 48 bytes, one allocation size
// class: an argument event fits fn and arg by folding the generation into
// seq, the cancelled flag into fn and the immediate flag into next.
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
	want := []uint64{ids[1].Seq(), ids[0].Seq(), ids[2].Seq()}
	if !slices.Equal(seen, want) {
		t.Fatalf("EventSeq in order = %v, want %v", seen, want)
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
// deadline jump must not strand immediate events.
func TestEngineStopResumeImmediate(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(5, func() { order = append(order, "a"); e.Stop() })
	e.At(5, func() { order = append(order, "b") })
	e.Run()
	e.At(5, func() { order = append(order, "c") }) // now == 5: immediate queue
	e.RunUntil(9)                                  // runs b, c; clock jumps to 9
	if e.Now() != 9 {
		t.Fatalf("clock = %v, want 9", e.Now())
	}
	e.At(9, func() { order = append(order, "d"); e.Stop() })
	e.At(9, func() { order = append(order, "e") })
	e.Run()        // runs d, stops with e still immediate
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
