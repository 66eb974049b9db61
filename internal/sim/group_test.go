package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// runTokenRing drives a 3-partition group: each partition runs a jittered
// local tick load off its own RNG, and a single token hops between
// partitions through the mailbox. The mailbox mutex serializes the hop
// chain, so the shared hop counter is race-free. Returns the per-partition
// logs, total executed work, and each engine's final event count.
func runTokenRing(t *testing.T, threads int, until Time) ([][]string, uint64) {
	t.Helper()
	const lookahead = 2 * Microsecond
	g := NewGroup(42, 3, lookahead)
	logs := make([][]string, 3)
	var seqs [3]uint64

	for p := 0; p < 3; p++ {
		p := p
		e := g.Engine(p)
		var tick func()
		tick = func() {
			logs[p] = append(logs[p], fmt.Sprintf("tick p%d t=%d r=%d", p, e.Now(), e.Rand().Intn(100)))
			if e.Now() < 300*Microsecond {
				e.After(Time(1+e.Rand().Intn(3))*Microsecond, tick)
			}
		}
		e.After(Time(p)*Microsecond, tick)
	}

	hops := 0
	var send func(from, to int)
	send = func(from, to int) {
		at := g.Engine(from).Now().Add(lookahead)
		seqs[from]++
		g.Post(from, to, at, uint64(from), seqs[from], func(any) {
			logs[to] = append(logs[to], fmt.Sprintf("mail %d->%d t=%d", from, to, g.Engine(to).Now()))
			hops++
			if hops < 200 {
				send(to, (to+1)%3)
			}
		}, nil)
	}
	g.Engine(0).After(0, func() { send(0, 1) })

	g.SetThreads(threads)
	g.RunUntil(until)
	return logs, g.Executed()
}

// TestGroupDeterministicAcrossThreads is the core PDES contract: the same
// partitioned simulation produces identical per-partition event logs and
// identical total work for any worker-thread count.
func TestGroupDeterministicAcrossThreads(t *testing.T) {
	refLogs, refExec := runTokenRing(t, 1, Forever)
	if refExec == 0 {
		t.Fatal("reference run executed nothing")
	}
	for _, threads := range []int{2, 3} {
		logs, exec := runTokenRing(t, threads, Forever)
		if exec != refExec {
			t.Fatalf("threads=%d executed %d, want %d", threads, exec, refExec)
		}
		if !reflect.DeepEqual(logs, refLogs) {
			t.Fatalf("threads=%d produced different logs", threads)
		}
	}
}

// TestGroupFiniteHorizonDeterministic repeats the contract for a bounded
// RunUntil, where every engine must land exactly on the horizon.
func TestGroupFiniteHorizonDeterministic(t *testing.T) {
	const horizon = 150 * Microsecond
	refLogs, refExec := runTokenRing(t, 1, horizon)
	for _, threads := range []int{2, 3} {
		logs, exec := runTokenRing(t, threads, horizon)
		if exec != refExec || !reflect.DeepEqual(logs, refLogs) {
			t.Fatalf("threads=%d diverged under finite horizon", threads)
		}
	}
	g := NewGroup(1, 2, Microsecond)
	g.Engine(0).After(10*Microsecond, func() {})
	if end := g.RunUntil(horizon); end != horizon {
		t.Fatalf("RunUntil returned %v, want %v", end, horizon)
	}
	for i, e := range g.Engines() {
		if e.Now() != horizon {
			t.Fatalf("engine %d at %v after RunUntil, want %v", i, e.Now(), horizon)
		}
	}
}

// TestGroupMailOrdering pins the deterministic drain order: local events
// first at a shared instant, then mail by (at, src, seq). Every mail runs
// one bound func, so the log also checks that each arg reaches its own
// delivery.
func TestGroupMailOrdering(t *testing.T) {
	g := NewGroup(7, 2, Microsecond)
	var got []string
	record := func(arg any) { got = append(got, arg.(string)) }
	at := 5 * Microsecond
	g.Post(0, 1, at, 9, 2, record, "src9.seq2")
	g.Post(0, 1, at, 9, 1, record, "src9.seq1")
	g.Post(0, 1, at, 3, 7, record, "src3.seq7")
	g.Post(0, 1, at+Microsecond, 1, 1, record, "late")
	g.Engine(1).At(at, func() { got = append(got, "local") })
	g.Run()
	want := []string{"local", "src3.seq7", "src9.seq1", "src9.seq2", "late"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order %v, want %v", got, want)
	}
	// Partition 0 never acts, so the one-thread driver runs all of
	// partition 1 in one batch, below 5µs + 2L.
	wantStats := GroupStats{Parts: []PartStats{
		{Posted: []uint64{0, 4}},
		{Events: 1, Mail: 4, Posted: []uint64{0, 0}, BoxHigh: 4},
	}, Batches: 1}
	if s := g.Stats(); !reflect.DeepEqual(s, wantStats) {
		t.Fatalf("stats %+v, want %+v", s, wantStats)
	}
	if g.Executed() != 5 {
		t.Fatalf("Executed() = %d, want 5", g.Executed())
	}
}

// TestGroupStopDeterministic: an engine-level Stop() from inside a grouped
// run shrinks the horizon to stopTime+lookahead-1 identically for every
// thread count, so the executed event set is the same.
func TestGroupStopDeterministic(t *testing.T) {
	const lookahead = 2 * Microsecond
	run := func(threads int) ([]Time, Time) {
		g := NewGroup(11, 2, lookahead)
		var times []Time
		e1 := g.Engine(1)
		var tick func()
		tick = func() {
			times = append(times, e1.Now())
			e1.After(Microsecond/2, tick)
		}
		e1.After(0, tick)
		g.Engine(0).After(10*Microsecond, func() { g.Engine(0).Stop() })
		g.SetThreads(threads)
		end := g.RunUntil(Forever)
		return times, end
	}
	wantEnd := 10*Microsecond + lookahead - 1
	refTimes, refEnd := run(1)
	if refEnd != wantEnd {
		t.Fatalf("stop horizon %v, want %v", refEnd, wantEnd)
	}
	if last := refTimes[len(refTimes)-1]; last > wantEnd {
		t.Fatalf("event at %v executed past stop horizon %v", last, wantEnd)
	}
	for _, threads := range []int{2} {
		times, end := run(threads)
		if end != refEnd || !reflect.DeepEqual(times, refTimes) {
			t.Fatalf("threads=%d stop diverged: end=%v events=%d (want end=%v events=%d)",
				threads, end, len(times), refEnd, len(refTimes))
		}
	}
}

// TestGroupRepeatedRunUntil drives the same group through successive
// horizons, as staged benchmarks do, and checks mail queued beyond an
// early horizon is delivered by a later one.
func TestGroupRepeatedRunUntil(t *testing.T) {
	g := NewGroup(3, 2, Microsecond)
	var got []string
	g.Post(0, 1, 50*Microsecond, 1, 1, func(any) { got = append(got, "late-mail") }, nil)
	g.Engine(0).After(5*Microsecond, func() { got = append(got, "early") })
	g.RunUntil(10 * Microsecond)
	if !reflect.DeepEqual(got, []string{"early"}) {
		t.Fatalf("after first horizon: %v", got)
	}
	g.RunUntil(100 * Microsecond)
	if !reflect.DeepEqual(got, []string{"early", "late-mail"}) {
		t.Fatalf("after second horizon: %v", got)
	}
}

// TestTimeAddSaturates pins the overflow clamp on scheduling arithmetic.
func TestTimeAddSaturates(t *testing.T) {
	if got := Time(1).Add(Forever); got != Forever {
		t.Fatalf("1+Forever = %v, want Forever", got)
	}
	if got := Forever.Add(Forever); got != Forever {
		t.Fatalf("Forever+Forever = %v, want Forever", got)
	}
	if got := Time(3).Add(4); got != 7 {
		t.Fatalf("3+4 = %v", got)
	}
	if got := Time(3).Add(-4); got != 0 {
		t.Fatalf("3+(-4) = %v, want clamp to 0", got)
	}
}

// TestAfterOverflowClamp: After with a delay that would wrap past Forever
// schedules a never-executed event instead of panicking or time-warping.
func TestAfterOverflowClamp(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.After(10, func() {})
	e.RunUntil(10)
	e.After(Forever-5, func() { fired = true })
	e.After(Forever, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event scheduled past Forever executed")
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 parked at Forever", e.Pending())
	}
	// A bounded run must also skip Forever events without advancing into them.
	if now := e.RunUntil(20); now != 20 {
		t.Fatalf("RunUntil(20) = %v", now)
	}
}
