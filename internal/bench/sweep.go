package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"npf/internal/sim"
	"npf/internal/trace"
)

// Scope is one run's settings and statistics: every Run function, every
// chaos scenario, and every env built with EthOpts.Scope or IBOpts.Scope,
// takes its fan-out, thread budget and tracer factory from the scope and
// registers the engine groups it builds there. Two runs on two scopes share nothing, so they
// can run side by side in one process. A nil *Scope is the default run:
// serial jobs, one thread per group, no tracer factory, nothing counted.
// Use a fresh scope per run: Stats counts every group built on it.
//
// Settings never change results: every job owns private engines
// (seed-isolated by construction), writes only its own result slots, and
// all cross-job merging happens after the pool drains, in job order; the
// partition structure is fixed by the experiment, never by a setting.
// Every two-sided env, kv deployment and chaos testbed runs on one
// partition; only the scale-out fleet is partitioned. So output is
// byte-identical for any Workers and Engines value.
type Scope struct {
	// Workers is the fan-out of the sweep jobs when Engines is 0: 1 (or
	// less) runs them serially on the calling goroutine. cmd/npfbench
	// sets it from -parallel.
	Workers int
	// Engines is the worker-thread budget of a sweep whose groups are
	// partitioned (the scale-out fleet's; see pdesThreads). At 0 each
	// such group runs on one thread and Workers sets the fan-out. Any
	// value >= 1 is the TOTAL budget: runJobs fans jobs across
	// min(len(jobs), Engines) goroutines and gives each group
	// max(1, Engines/workers) threads (capped at GOMAXPROCS). A
	// one-partition group has no threads to use. cmd/npfbench sets it
	// from -engines.
	Engines int
	// Trace, when non-nil, is called for every traced engine the env
	// constructors build, and its tracer is wired through the whole
	// stack (drivers, machines, devices/HCAs). cmd/npfbench sets it for
	// -trace and -series. With Workers > 1 envs are built from worker
	// goroutines, so it must be safe for concurrent calls.
	Trace func(*sim.Engine) *trace.Tracer
	// Root is the repository root the loc experiment reads ("" is the
	// working directory); cmd/npfbench sets it from -root.
	Root string

	// threads is the per-group thread allotment while a runJobs pool
	// drains: written before the pool spawns, read by its jobs through
	// pdesThreads, reset after the pool joins.
	threads int
	mu      sync.Mutex
	groups  []*sim.Group // every group built on the scope, for Stats
}

// pdesThreads reports the worker-thread budget the next group gets.
// The allotment is capped at the host's GOMAXPROCS: a group granted more
// threads than the scheduler has processors just ping-pongs goroutines
// through the conservative-sync windows (strictly slower than sweeping
// the partitions on one thread). Results are identical either way — the
// cap, like every thread setting, only changes wall-clock.
func (s *Scope) pdesThreads() int {
	if s == nil {
		return 1
	}
	t := s.threads
	if t <= 0 {
		t = max(1, s.Engines)
	}
	return min(t, runtime.GOMAXPROCS(0))
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

// runJobs is the sweep-internal shorthand. At Engines 0 it fans jobs
// across the scope's Workers. At Engines >= 1 the thread budget drives
// the fan-out instead: min(len(jobs), Engines) job goroutines, with the
// leftover budget handed to each job's group as worker threads.
func (s *Scope) runJobs(jobs []func()) {
	switch {
	case s == nil:
		RunParallel(1, jobs)
	case s.Engines >= 1:
		workers := max(1, min(s.Engines, len(jobs)))
		s.threads = s.Engines / workers
		RunParallel(workers, jobs)
		s.threads = 0
	default:
		RunParallel(s.Workers, jobs)
	}
}

// Stats reports the engines of every group built on the scope and the
// total events they executed. Call it only after the run has returned:
// RunParallel's barrier makes every engine's counters safe to read then.
func (s *Scope) Stats() (engines int, events uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.groups {
		// Group.Executed folds in cross-partition mail injections, which
		// are not engine events, so the total is stable across thread
		// budgets.
		events += g.Executed()
		engines += g.Parts()
	}
	return engines, events
}

// newBenchGroup is the constructor every experiment engine goes through:
// a conservative-sync group of `parts` engines with the runaway-event
// guard applied per engine, the current thread budget installed, and the
// whole group registered once on the scope for Stats. A single-engine
// experiment runs on s.newBenchGroup(seed, 1, 0).Engine(0).
func (s *Scope) newBenchGroup(seed int64, parts int, lookahead sim.Time) *sim.Group {
	g := sim.NewGroup(seed, parts, lookahead)
	for _, e := range g.Engines() {
		e.MaxEvents = MaxEngineEvents
	}
	g.SetThreads(s.pdesThreads())
	if s != nil {
		s.mu.Lock()
		s.groups = append(s.groups, g)
		s.mu.Unlock()
	}
	return g
}

// tracer is the tracer an env puts on eng: the scope's Trace factory's
// when one is set, else none.
func (s *Scope) tracer(eng *sim.Engine) *trace.Tracer {
	if s == nil || s.Trace == nil {
		return nil
	}
	return s.Trace(eng)
}
