package sim

import "testing"

func BenchmarkEngineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(10, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	e.Run()
}

// BenchmarkEngineArgThroughput is BenchmarkEngineEventThroughput through
// AfterArg: one handler bound once, a pointer argument, no closure per
// event.
func BenchmarkEngineArgThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func(any)
	step = func(arg any) {
		n++
		if n < b.N {
			e.AfterArg(10, step, arg)
		}
	}
	b.ResetTimer()
	e.AfterArg(1, step, &n)
	e.Run()
}

// BenchmarkEngineReservedSeq is BenchmarkEngineArgThroughput through a
// reserved seq: each event reserves the next one's seq, then schedules it
// with AtArgSeq, the way a swarm host arms its timers.
func BenchmarkEngineReservedSeq(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func(any)
	step = func(arg any) {
		n++
		if n < b.N {
			seq := e.ReserveSeqs(1)
			e.AtArgSeq(e.Now()+10, seq, step, arg)
		}
	}
	b.ResetTimer()
	e.AtArgSeq(1, e.ReserveSeqs(1), step, &n)
	e.Run()
}

// BenchmarkEngineImmediate measures a chain of After(0) events: each one
// is filed in the heap as the only pending event and popped next.
func BenchmarkEngineImmediate(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(0, step)
		}
	}
	b.ResetTimer()
	e.After(0, step)
	e.Run()
}

func BenchmarkEngineScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.At(Time(i+1), func() {})
		e.Cancel(id)
	}
}

// BenchmarkEngineTimerChurn mimics TCP retransmission timers: a window of
// far-future timers that are almost always cancelled (acked) before firing,
// with a live event chain driving the clock. This is the pattern lazy
// deletion and heap compaction exist for.
func BenchmarkEngineTimerChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	const window = 256
	var timers [window]EventID
	n := 0
	var step func()
	step = func() {
		slot := n % window
		e.Cancel(timers[slot])
		timers[slot] = e.After(1_000_000, func() {})
		n++
		if n < b.N {
			e.After(10, step)
		}
	}
	b.ResetTimer()
	e.After(1, step)
	e.Run()
}

// BenchmarkEngineLargePending is the fleet's regime: 8,000 closed-loop
// clients each complete an op every 3–5 ms and leave behind a retry timer
// 37.5–62.5 ms out that fires as a no-op, so about 100k timers are pending
// at any time. One op is one completion.
func BenchmarkEngineLargePending(b *testing.B) {
	b.ReportAllocs()
	const clients = 8000
	e := NewEngine(1)
	rng := NewRand(1)
	timer := func() {}
	n, stopAt := 0, -1 // no Stop during warm-up
	done := make([]func(), clients)
	for c := range done {
		done[c] = func() {
			n++
			if n == stopAt {
				e.Stop()
			}
			e.After(37_500_000+Time(rng.Int63n(25_000_001)), timer)
			e.After(3_000_000+Time(rng.Int63n(2_000_001)), done[c])
		}
	}
	for c := range done {
		e.After(Time(rng.Int63n(4_000_000)), done[c])
	}
	// Warm up until the timer population and every queue's capacity reach
	// steady state.
	e.RunUntil(200 * Millisecond)
	if p := e.Pending(); p < 90_000 {
		b.Fatalf("warm engine holds %d pending events, want about 100k", p)
	}
	n, stopAt = 0, b.N
	b.ResetTimer()
	e.Run()
}

// BenchmarkGroupMail is the one-thread driver's cost per delivered mail: 8
// partitions pass 64 tokens around, each hop one pre-bound func posted with
// the receiving partition's state as its pointer argument to a random
// other partition one lookahead plus a jitter ahead, so mail is the
// group's only work. One op is one delivered mail.
func BenchmarkGroupMail(b *testing.B) {
	b.ReportAllocs()
	const (
		parts  = 8
		tokens = 64
		look   = Microsecond
	)
	g := NewGroup(1, parts, look)
	type part struct{ p int }
	var (
		seqs  [parts]uint64
		state [parts]part
		hop   func(any)
	)
	n, limit := 0, 0
	post := func(p int) {
		e := g.Engine(p)
		q := (p + 1 + e.Rand().Intn(parts-1)) % parts
		seqs[p]++
		g.Post(p, q, e.Now()+look+Time(e.Rand().Intn(int(look))), uint64(p), seqs[p], hop, &state[q])
	}
	for p := range state {
		state[p].p = p
	}
	hop = func(arg any) {
		if n++; n < limit {
			post(arg.(*part).p)
		}
	}
	run := func(mails int) {
		n, limit = 0, mails
		for i := 0; i < tokens; i++ {
			post(i % parts)
		}
		g.Run()
	}
	// Warm up. At most tokens mails are ever in flight, so once every box
	// has held tokens mails at once its backing array never grows again;
	// the run that follows brings the rest to steady state.
	for q := 0; q < parts; q++ {
		p := (q + 1) % parts
		for i := 0; i < tokens; i++ {
			seqs[p]++
			g.Post(p, q, g.Engine(p).Now()+look, uint64(p), seqs[p], func(any) {}, nil)
		}
	}
	g.Run()
	run(16 * tokens)
	b.ResetTimer()
	run(b.N)
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Add(float64(i & 1023))
	}
}

// BenchmarkHistogramAddRepeat is the driver's Inv.Total pattern: every
// invalidation costs the same, so every sample repeats the last one.
func BenchmarkHistogramAddRepeat(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(48.04)
	}
}

// BenchmarkHistogramAddDistinct adds samples that never repeat, so no run
// forms: the raw-slice case, which must not get slower than a plain append.
// Every 64Ki samples it restarts from empty, so memory stays bounded and
// each op pays its share of growing the slice, as a fresh histogram does.
func BenchmarkHistogramAddDistinct(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			h = Histogram{}
		}
		h.Add(float64(i) * 0.5)
	}
}

// BenchmarkHistogramAddThenP99 is kv's probe pattern: each op is one sample
// period, 32 latency samples followed by the p50/p99/p99.9 probes, on a
// histogram restarted every 256 periods so that ns/op does not grow with
// b.N. Like kv's latencies, values repeat only in runs of one to three,
// too short to fold.
func BenchmarkHistogramAddThenP99(b *testing.B) {
	r := NewRand(1)
	vals := make([]float64, 0, 1<<12)
	for len(vals) < cap(vals) {
		v := 50 + float64(r.Intn(256))*0.25
		for k := 1 + r.Intn(3); k > 0 && len(vals) < cap(vals); k-- {
			vals = append(vals, v)
		}
	}
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			h = Histogram{}
		}
		for k := 0; k < 32; k++ {
			h.Add(vals[(i*32+k)&(len(vals)-1)])
		}
		histSink = h.Percentile(50) + h.Percentile(99) + h.Percentile(99.9)
	}
}

var histSink float64

// TestEngineSteadyStateAllocs gates the free-list contract the same way
// TestTracerDisabledNoAlloc gates the tracer: once the pool and queue slices
// are warm, scheduling, cancelling, and running events must not allocate.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	cycle := func() {
		e.After(5, fn)
		e.After(0, fn)
		id := e.After(100, fn)
		e.Cancel(id)
		e.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/run allocates %.1f per cycle, want 0", allocs)
	}
}

// TestEngineAfterArgSteadyStateAllocs is TestEngineSteadyStateAllocs for
// argument events: a handler bound once and a pointer argument schedule,
// cancel and run without allocating, whether the event is due now, later
// in the current epoch or in the calendar tier.
func TestEngineAfterArgSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	type client struct{ n int }
	var c client
	fn := func(arg any) { arg.(*client).n++ }
	cycle := func() {
		e.AfterArg(5, fn, &c)
		e.AfterArg(0, fn, &c)
		e.AfterArg(Time(1)<<(epochShift+1), fn, &c)
		id := e.AfterArg(100, fn, &c)
		e.Cancel(id)
		e.Run()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state AfterArg schedule/cancel/run allocates %.1f per cycle, want 0", allocs)
	}
	if want := 3 * (100 + 1000 + 1); c.n != want {
		t.Fatalf("handler ran %d times, want %d", c.n, want)
	}
}

// TestEngineTimerChurnAllocs runs the retransmission-timer pattern under
// AllocsPerRun: cancellations must be absorbed by lazy deletion and the
// pool, not fresh allocations.
func TestEngineTimerChurnAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	const window = 128
	var timers [window]EventID
	n := 0
	cycle := func() {
		slot := n % window
		e.Cancel(timers[slot])
		timers[slot] = e.After(1_000_000, fn)
		n++
		e.After(1, fn)
		e.RunUntil(e.Now() + 2)
	}
	for i := 0; i < 4*window; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("timer churn allocates %.1f per cycle, want 0", allocs)
	}
}

// TestEngineFarCancelRetention re-arms far timers the way TCP re-arms its
// RTO: each step cancels one of 1,000 timers 37.5–62.5 ms out and
// schedules its replacement, 100k times. Lazy cancellation may keep dead
// events, but compaction of the heap and the calendar tier bounds what the
// queue retains to 2×live + compactMinDead at every step.
func TestEngineFarCancelRetention(t *testing.T) {
	e := NewEngine(1)
	rng := NewRand(1)
	fn := func() {}
	var timers [1000]EventID
	retained := func() int { return len(e.heap) + e.far }
	worst := 0
	for i := 0; i < 100_000; i++ {
		slot := i % len(timers)
		e.Cancel(timers[slot])
		timers[slot] = e.After(37_500_000+Time(rng.Int63n(25_000_001)), fn)
		e.After(10*Microsecond, fn)
		e.RunUntil(e.Now() + 10*Microsecond)
		r, live := retained(), e.Pending()
		if r > 2*live+compactMinDead {
			t.Fatalf("step %d: queue retains %d events for %d live, bound %d", i, r, live, 2*live+compactMinDead)
		}
		if r > worst {
			worst = r
		}
	}
	t.Logf("worst retention %d events for about %d live", worst, len(timers))
}
