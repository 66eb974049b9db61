package main

import (
	"container/heap"
	"sort"
	"time"
)

// yardRef is the yardstick rate of the machine the bounds in BENCHMARK.json
// were calibrated on (a 2-vCPU VM; see README.md). Host-timed metrics are
// scaled to it: a rate r measured while the yardstick read y is reported as
// r * yardRef / y, and a duration d as d * y / yardRef.
const yardRef = 2.2e6

// yardstick measures the machine's current speed on fixed work shaped like
// the simulator's: small objects allocated and collected at a high rate,
// dependent reads through a table larger than the per-core caches, and a
// priority queue of pending events. It returns steps per second, the median of
// several short samples so that one preempted sample does not count.
//
// The machine this benchmark is calibrated on is shared: for minutes at a
// time it runs the same code 20-50% slower, which the simulator and the
// yardstick feel alike. Scaling each rep by the yardstick measured between
// its set-up and its measured phase removes most of that drift from
// run-to-run comparisons.
func yardstick() float64 {
	const (
		samples = 5
		steps   = 1 << 16
		live    = 1 << 15 // objects kept reachable
		slots   = 1 << 21 // uint64 slots in the read table (16 MiB)
	)
	type obj struct {
		next *obj
		key  uint64
		pad  [5]uint64
	}
	table := make([]uint64, slots)
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	ring := make([]*obj, live)
	var q eventQueue
	x := uint64(1)
	rates := make([]float64, samples)
	for s := range rates {
		start := time.Now()
		for i := 0; i < steps; i++ {
			x = x*6364136223846793005 + 1442695040888963407 + table[x>>43]
			o := &obj{key: x, next: ring[(x>>20)%live]}
			ring[i%live] = o
			heap.Push(&q, o.key)
			if q.Len() > 4096 {
				heap.Pop(&q)
			}
		}
		rates[s] = steps / time.Since(start).Seconds()
	}
	yardSink = ring[0]
	sort.Float64s(rates)
	return rates[samples/2]
}

// yardSink keeps the yardstick's objects reachable until it returns.
var yardSink any

type eventQueue []uint64

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(uint64)) }
func (q *eventQueue) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}
