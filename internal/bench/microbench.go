package bench

import (
	"math"
	"testing"

	"npf/internal/artifact"
	"npf/internal/sim"
)

// microbenchEvents is the fixed event count of one EngineMicrobench run.
const microbenchEvents = 10000

// EngineMicrobench runs the same steady-state schedule-and-dispatch loop as
// BenchmarkEngineEventThroughput in internal/sim for a fixed event count and
// reports its allocations per event, rounded up so that any steady-state
// allocation shows. The engine's free list absorbs all event churn, so the
// perf gate in scripts/ci.sh asserts AllocsPerOp == 0.
func EngineMicrobench() artifact.EngineBench {
	e := sim.NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < microbenchEvents {
			e.After(10, step)
		}
	}
	run := func() {
		n = 0
		e.After(1, step)
		e.Run()
	}
	run() // warm the free list and the queue
	allocs := testing.AllocsPerRun(10, run)
	return artifact.EngineBench{AllocsPerOp: int64(math.Ceil(allocs / microbenchEvents))}
}
