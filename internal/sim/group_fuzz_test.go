package sim

import (
	"reflect"
	"testing"
)

// groupLogEntry is one executed event or mail: the engine's clock and the
// node that ran.
type groupLogEntry struct {
	now  Time
	node int
}

// groupFuzzRun is everything a FuzzGroupOrder run must reproduce for
// every thread count.
type groupFuzzRun struct {
	logs     [][]groupLogEntry
	nows     []Time
	ends     []Time
	executed uint64
	events   []uint64
	mail     []uint64
	posted   [][]uint64
}

// groupFuzzBudget bounds the events and mail one partition spawns, so
// every input stays small.
const groupFuzzBudget = 200

// runGroupFuzz decodes data into a partitioned simulation and runs it at
// the given thread count (0: one thread per partition). data holds the
// partition count, the lookahead, the RunUntil horizons, and then a
// script of (kind, arg) pairs: node i runs script entry i mod len. A node
// logs itself and then, by kind, schedules an After(0) chain, a delayed
// local event, a Post or Engine.Call to another partition at or after
// now+L, a Stop (engine-level or StopFrom) followed by a local event, or
// both a local event and a Post. Every spawn draws on the spawning
// partition's budget, which only that partition touches.
func runGroupFuzz(data []byte, threads int) groupFuzzRun {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	parts := 2 + int(at(0))%3
	look := []Time{1, 2, 5, 1000}[at(1)%4]
	script := data[min(len(data), 5):]
	if len(script) < 2 {
		script = []byte{0, 0}
	}

	g := NewGroup(int64(at(1)), parts, look)
	run := groupFuzzRun{logs: make([][]groupLogEntry, parts)}
	budget := make([]int, parts)
	seqs := make([]uint64, parts)
	for p := range budget {
		budget[p] = groupFuzzBudget
	}
	// Mail carries its node as the argument of one bound func, the
	// allocation-free shape model layers post.
	deliver := func(n any) { n.(func())() }
	var node func(p, i int) func()
	node = func(p, i int) func() {
		return func() {
			e := g.Engine(p)
			run.logs[p] = append(run.logs[p], groupLogEntry{e.Now(), i})
			if budget[p] <= 0 {
				return
			}
			budget[p]--
			j := 2 * (i % (len(script) / 2))
			kind, arg := script[j], script[j+1]
			q := (p + 1 + int(arg)%(parts-1)) % parts
			post := func(child int) {
				seqs[p]++
				g.Post(p, q, e.Now().Add(look+Time(arg%4)*look/2), uint64(p), seqs[p], deliver, node(q, child))
			}
			switch kind % 6 {
			case 0:
				e.After(0, node(p, i+1))
			case 1:
				e.After(Time(arg%8), node(p, i+1))
			case 2:
				post(i + 1)
			case 3:
				e.Call(g.Engine(q), node(q, i+1))
				e.After(Time(arg%3)*look, node(p, i+2))
			case 4:
				if arg%2 == 0 {
					e.Stop()
				} else {
					g.StopFrom(e)
				}
				e.After(Time(arg%5), node(p, i+1))
			default:
				e.After(Time(arg%4), node(p, i+1))
				post(i + 2)
			}
		}
	}
	for p := 0; p < parts; p++ {
		g.Engine(p).At(Time(at(2+p%3)%8), node(p, 3*p))
		q := (p + 1) % parts
		seqs[p]++
		g.Post(p, q, look+Time(at(p)%4), uint64(p), seqs[p], deliver, node(q, 3*p+1))
	}

	if threads == 0 {
		threads = parts
	}
	g.SetThreads(threads)
	h := Time(0)
	for k := 0; k < 1+int(at(2))%3; k++ {
		b := at(2 + k)
		if k == 2 && b%2 == 1 {
			h = Forever
		} else {
			h += Time(b%64) * look
		}
		run.ends = append(run.ends, g.RunUntil(h))
	}
	for _, e := range g.Engines() {
		run.nows = append(run.nows, e.Now())
	}
	run.executed = g.Executed()
	for _, ps := range g.Stats().Parts {
		run.events = append(run.events, ps.Events)
		run.mail = append(run.mail, ps.Mail)
		run.posted = append(run.posted, ps.Posted)
	}
	return run
}

// FuzzGroupOrder runs the same random partitioned simulation under the
// one-thread driver and under the threaded protocol with one thread per
// partition, and requires identical per-engine (Now, node) logs, final
// clocks, RunUntil results, and event and mail counts.
func FuzzGroupOrder(f *testing.F) {
	f.Add([]byte{0, 0, 2, 9, 3, 0, 1, 2, 3, 5, 2, 1, 7})
	f.Add([]byte{1, 1, 4, 40, 7, 3, 2, 5, 1, 2, 0, 0, 0, 4, 3})
	f.Add([]byte{2, 2, 5, 20, 60, 2, 2, 2, 3, 0, 0, 5, 1, 4, 0, 2, 2})
	f.Add([]byte{1, 3, 1, 3, 255, 2, 6, 3, 1, 5, 9, 4, 1, 0, 4})
	f.Add([]byte{0, 1, 7, 12, 33, 4, 2, 4, 4, 2, 5, 3, 3, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := runGroupFuzz(data, 1)
		thr := runGroupFuzz(data, 0)
		for p := range seq.logs {
			if !reflect.DeepEqual(seq.logs[p], thr.logs[p]) {
				t.Fatalf("partition %d log differs:\none thread: %v\nthreaded:   %v", p, seq.logs[p], thr.logs[p])
			}
		}
		if !reflect.DeepEqual(seq.nows, thr.nows) || !reflect.DeepEqual(seq.ends, thr.ends) {
			t.Fatalf("clocks differ: Now %v vs %v, RunUntil %v vs %v", seq.nows, thr.nows, seq.ends, thr.ends)
		}
		if seq.executed != thr.executed || !reflect.DeepEqual(seq.events, thr.events) ||
			!reflect.DeepEqual(seq.mail, thr.mail) || !reflect.DeepEqual(seq.posted, thr.posted) {
			t.Fatalf("counts differ: executed %d vs %d, events %v vs %v, mail %v vs %v, posted %v vs %v",
				seq.executed, thr.executed, seq.events, thr.events, seq.mail, thr.mail, seq.posted, thr.posted)
		}
	})
}
