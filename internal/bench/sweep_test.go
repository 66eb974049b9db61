package bench

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
	"npf/internal/trace/tracetest"
)

func TestRunParallelRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 64} {
		const n = 100
		counts := make([]atomic.Int32, n)
		jobs := make([]func(), n)
		for i := range jobs {
			i := i
			jobs[i] = func() { counts[i].Add(1) }
		}
		RunParallel(workers, jobs)
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestRunParallelEmpty(t *testing.T) {
	RunParallel(8, nil) // must not hang or panic
}

// TestRunParallelSlotWrites is the worker-pool exercise for the -race pass:
// concurrent jobs writing disjoint result slots must be race-free, and the
// slots must hold the same values regardless of fan-out.
func TestRunParallelSlotWrites(t *testing.T) {
	const n = 256
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 8} {
		got := make([]int, n)
		jobs := make([]func(), n)
		for i := range jobs {
			i := i
			jobs[i] = func() { got[i] = i * i }
		}
		RunParallel(workers, jobs)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunParallelFig3Determinism is the regression test for the sweep
// runner's core promise: fanning a figure's jobs across 8 workers renders
// byte-identical output to the serial run.
func TestRunParallelFig3Determinism(t *testing.T) {
	opts := Fig3Opts{Trials: 8, Replicas: 4}
	serial := RunFig3Opts(&Scope{Workers: 1}, opts).Render()
	fanned := RunFig3Opts(&Scope{Workers: 8}, opts).Render()
	if serial != fanned {
		t.Fatalf("fig3 output depends on Workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}

// TestRunParallelAblateDeterminism checks the ablation suite — the most
// heterogeneous job mix (twelve sub-experiments across five stacks) — renders
// identically under serial and parallel execution.
func TestRunParallelAblateDeterminism(t *testing.T) {
	serial := RunAblate(&Scope{Workers: 1}).Render()
	fanned := RunAblate(&Scope{Workers: 8}).Render()
	if serial != fanned {
		t.Fatalf("ablate output depends on Workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}

// TestRunJobsThreadBudget pins how runJobs splits a scope's thread
// budget: each job's group gets the budget divided by the fan-out, at
// least one thread and at most GOMAXPROCS, and a group built after the
// pool drains gets the whole budget again.
func TestRunJobsThreadBudget(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, budget := range []int{0, 1, 2, 8} {
		for _, n := range []int{1, 2, 5} {
			s := &Scope{Workers: budget}
			got := make([]int, n)
			jobs := make([]func(), n)
			for i := range jobs {
				jobs[i] = func() { got[i] = s.pdesThreads() }
			}
			s.runJobs(jobs)
			want := min(max(1, budget/max(1, min(budget, n))), procs)
			for i, g := range got {
				if g != want {
					t.Errorf("budget %d, %d jobs: job %d got %d threads, want %d", budget, n, i, g, want)
				}
			}
			if s.threads != 0 {
				t.Errorf("budget %d, %d jobs: allotment %d left after the pool drained", budget, n, s.threads)
			}
			if g, want := s.pdesThreads(), min(max(1, budget), procs); g != want {
				t.Errorf("budget %d, %d jobs: %d threads after the pool, want %d", budget, n, g, want)
			}
		}
	}
}

// TestRunParallelScopes runs fig3 and ablate at the Test sizing at the
// same time, each on its own scope with a budget of two: a run's settings
// and statistics belong to its scope, so each scope's Stats and manifest
// line, but for the budget, must equal its serial run's.
func TestRunParallelScopes(t *testing.T) {
	names := []string{"fig3", "ablate"}
	serial := make([]tracetest.Output, len(names))
	for i, name := range names {
		serial[i] = checkOutput(t, &Scope{}, name, Test.String(), tableRun(t, name, Test))
	}
	side := make([]tracetest.Output, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		e, _ := Lookup(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &Scope{Workers: 2}
			r, err := e.Run(s, Test)
			if err == nil {
				side[i], err = scopeOutput(s, name, Test.String(), r)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		a, b := side[i], serial[i]
		a.Flag = b.Flag // the thread budget is what the two runs vary
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s beside another run: %d engines, %d events; serial: %d, %d (or its render or rows differ)",
				name, a.Engines, a.Events, b.Engines, b.Events)
		}
	}
}

// captureSeries runs a sweep on scope s with a sampling trace factory
// installed and returns the rendered WriteSeriesSet stream — the byte
// string the determinism pins compare.
func captureSeries(t *testing.T, s *Scope, run func(*Scope)) string {
	t.Helper()
	var mu sync.Mutex
	var tracers []*trace.Tracer
	s.Trace = func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tr.StartSampler(100 * sim.Microsecond)
		mu.Lock()
		tracers = append(tracers, tr)
		mu.Unlock()
		return tr
	}
	run(s)
	var set []*trace.Series
	for _, tr := range tracers {
		if ser := tr.Sampler().Series(); ser != nil && len(ser.Names) > 0 {
			set = append(set, ser)
		}
	}
	if len(set) == 0 {
		t.Fatal("no series captured — did the sweep build any engines?")
	}
	var b strings.Builder
	if err := trace.WriteSeriesSet(&b, set); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunParallelSeriesDeterminism extends the sweep runner's byte-identity
// promise to time-series output: the content-sorted WriteSeriesSet stream
// (and its order-invariant digest) must not depend on the worker count,
// even though engines — and thus samplers — register in scheduling order.
func TestRunParallelSeriesDeterminism(t *testing.T) {
	opts := Fig3Opts{Trials: 6, Replicas: 2}
	run := func(s *Scope) { RunFig3Opts(s, opts) }
	serial := captureSeries(t, &Scope{Workers: 1}, run)
	fanned := captureSeries(t, &Scope{Workers: 8}, run)
	if serial != fanned {
		t.Fatalf("series output depends on Workers:\n--- workers=1 ---\n%.2000s\n--- workers=8 ---\n%.2000s", serial, fanned)
	}
}

// TestFig3OptsDefaultsMatchRunFig3 pins the satellite requirement that the
// hoisted seed option preserves the historical results: RunFig3 must be
// exactly RunFig3Opts with the default seed and a single replica.
func TestFig3OptsDefaultsMatchRunFig3(t *testing.T) {
	a := RunFig3(nil, 6).Render()
	b := RunFig3Opts(nil, Fig3Opts{Trials: 6, Seed: fig3DefaultSeed, Replicas: 1}).Render()
	if a != b {
		t.Fatalf("RunFig3 and explicit-default RunFig3Opts diverge:\n%s\nvs\n%s", a, b)
	}
}
