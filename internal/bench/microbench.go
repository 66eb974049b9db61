package bench

import (
	"testing"

	"npf/internal/artifact"
	"npf/internal/sim"
)

// EngineMicrobench runs the same steady-state schedule-and-dispatch loop as
// BenchmarkEngineEventThroughput in internal/sim and returns its figures.
// Steady state must be allocation-free (the engine's free list absorbs all
// event churn); the perf gate in scripts/ci.sh asserts AllocsPerOp == 0.
func EngineMicrobench() artifact.EngineBench {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
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
	})
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	res := artifact.EngineBench{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if ns > 0 {
		res.EventsPerSec = 1e9 / ns
	}
	return res
}
