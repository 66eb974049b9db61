package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"npf/internal/sim"
)

// Workers is the fan-out for RunParallel when an experiment does not pass an
// explicit count: the number of goroutines the figure/ablation sweeps spread
// their independent sub-runs across. 1 (the default) runs everything
// serially on the calling goroutine; cmd/npfbench sets it from -parallel.
//
// Parallelism never changes results: every job owns a private sim.Engine
// (seed-isolated by construction), jobs write only their own result slots,
// and all cross-job merging happens after the pool drains, in job order. So
// output is byte-identical for any Workers value.
var Workers = 1

// Engines selects the engine topology the env constructors build (see
// newEnvGroup). 0 (the default) is the single-engine mode: a
// one-partition sim.Group whose one engine carries every host of an env.
// Any value >= 1 switches the constructors to partitioned PDES mode —
// each env becomes a two-partition sim.Group, one engine per host side,
// synchronized conservatively through the fabric's propagation-latency
// lookahead — and is the TOTAL worker-thread budget
// for a sweep: runJobs fans jobs across min(len(jobs), Engines)
// goroutines and gives each env's group the remaining budget,
// max(1, Engines/workers) threads (capped at GOMAXPROCS — see
// pdesThreads). The partition structure is fixed by the env shape, never
// by the thread budget, so results are byte-identical for every
// Engines >= 1; only wall-clock changes. cmd/npfbench sets it from
// -engines.
var Engines = 0

// envThreads is the per-env thread allotment while a PDES runJobs pool
// drains. Written single-threadedly before the pool spawns, read by jobs
// through pdesThreads, reset after the pool joins.
var envThreads int

// pdesThreads reports the worker-thread budget the next env group gets.
// The allotment is capped at the host's GOMAXPROCS: a group granted more
// threads than the scheduler has processors just ping-pongs goroutines
// through the conservative-sync windows (strictly slower than sweeping
// the partitions on one thread). Results are identical either way — the
// cap, like every thread setting, only changes wall-clock.
func pdesThreads() int {
	t := envThreads
	if t <= 0 {
		t = 1
		if Engines > 1 {
			t = Engines
		}
	}
	if c := runtime.GOMAXPROCS(0); t > c {
		t = c
	}
	return t
}

// DefaultWorkers reports the worker count for "use all cores": GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunParallel executes every job, fanning them across min(workers, len(jobs))
// goroutines. Jobs must be independent: each builds its own engines and
// writes only to result slots no other job touches. RunParallel returns only
// after every job has finished, so callers may read all slots (and merge
// them in job order) immediately after it returns.
func RunParallel(workers int, jobs []func()) {
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, job := range jobs {
			job()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				jobs[i]()
			}
		}()
	}
	wg.Wait()
}

// runJobs is the sweep-internal shorthand. In single-engine mode it fans
// jobs across the global Workers setting. In PDES mode (Engines >= 1) the
// engine budget drives the fan-out instead: min(len(jobs), Engines) job
// goroutines, with the leftover budget handed to each job's env group as
// intra-env worker threads.
func runJobs(jobs []func()) {
	if Engines >= 1 {
		workers := Engines
		if workers > len(jobs) {
			workers = len(jobs)
		}
		envThreads = Engines / workers
		if envThreads < 1 {
			envThreads = 1
		}
		RunParallel(workers, jobs)
		envThreads = 0
		return
	}
	RunParallel(Workers, jobs)
}

// ---------------------------------------------------------------------------
// Engine statistics registry. cmd/npfbench -json uses it to report how many
// engines an experiment built and how many events they executed, without
// threading a collector through every Run function.

var engineReg struct {
	mu      sync.Mutex
	enabled bool
	groups  []*sim.Group
}

// StartEngineStats begins collecting every engine group built through
// newBenchGroup.
func StartEngineStats() {
	engineReg.mu.Lock()
	engineReg.enabled = true
	engineReg.groups = nil
	engineReg.mu.Unlock()
}

// StopEngineStats ends collection and reports the engines registered since
// StartEngineStats and the total events they executed. Call it only after
// the experiment's Run function has returned: RunParallel's barrier makes
// every engine's counters safe to read then.
func StopEngineStats() (engines int, events uint64) {
	engineReg.mu.Lock()
	defer engineReg.mu.Unlock()
	for _, g := range engineReg.groups {
		// Group.Executed folds in cross-partition mail injections, which
		// are not engine events, so the total is stable across thread
		// budgets.
		events += g.Executed()
		engines += g.Parts()
	}
	engineReg.enabled = false
	engineReg.groups = nil
	return engines, events
}

// newBenchGroup is the constructor every experiment engine goes through:
// a conservative-sync group of `parts` engines with the runaway-event
// guard applied per engine, the current thread budget installed, and the
// whole group registered once for -json statistics. A single-engine
// experiment runs on newBenchGroup(seed, 1, 0).Engine(0).
func newBenchGroup(seed int64, parts int, lookahead sim.Time) *sim.Group {
	g := sim.NewGroup(seed, parts, lookahead)
	for _, e := range g.Engines() {
		e.MaxEvents = MaxEngineEvents
	}
	g.SetThreads(pdesThreads())
	engineReg.mu.Lock()
	if engineReg.enabled {
		engineReg.groups = append(engineReg.groups, g)
	}
	engineReg.mu.Unlock()
	return g
}

// newEnvGroup builds the engine group of a two-sided testbed — server and
// client, or IB sides A and B — and is where Engines picks the topology:
// one partition carrying both sides at Engines == 0, two partitions (side
// one on partition 0, side two on partition 1) at Engines >= 1.
func newEnvGroup(seed int64, lookahead sim.Time) *sim.Group {
	parts := 1
	if Engines >= 1 {
		parts = 2
	}
	return newBenchGroup(seed, parts, lookahead)
}
