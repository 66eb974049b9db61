package bench

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"npf/internal/sim"
	"npf/internal/trace"
)

// withWorkers runs fn with the package-level Workers fan-out temporarily set
// to n.
func withWorkers(n int, fn func()) {
	old := Workers
	Workers = n
	defer func() { Workers = old }()
	fn()
}

// withEngines runs fn with the package-level PDES engine-thread budget
// temporarily set to n (0 restores the historical single-engine mode).
func withEngines(n int, fn func()) {
	old := Engines
	Engines = n
	defer func() { Engines = old }()
	fn()
}

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
	var serial, fanned string
	withWorkers(1, func() { serial = RunFig3Opts(opts).Render() })
	withWorkers(8, func() { fanned = RunFig3Opts(opts).Render() })
	if serial != fanned {
		t.Fatalf("fig3 output depends on Workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}

// TestRunParallelAblateDeterminism checks the ablation suite — the most
// heterogeneous job mix (twelve sub-experiments across five stacks) — renders
// identically under serial and parallel execution.
func TestRunParallelAblateDeterminism(t *testing.T) {
	var serial, fanned string
	withWorkers(1, func() { serial = RunAblate().Render() })
	withWorkers(8, func() { fanned = RunAblate().Render() })
	if serial != fanned {
		t.Fatalf("ablate output depends on Workers:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", serial, fanned)
	}
}

// TestEnginesFig3Determinism is the PDES counterpart of the Workers pins,
// on the RC/InfiniBand transport: the same fig3 sweep must render
// byte-identically for every engine-thread budget. (Engines 0 — the legacy
// single-engine topology — is a different RNG split and legitimately
// differs; the identity promise covers every Engines >= 1.)
func TestEnginesFig3Determinism(t *testing.T) {
	opts := Fig3Opts{Trials: 6, Replicas: 2}
	outs := map[int]string{}
	for _, n := range []int{1, 2, 8} {
		withEngines(n, func() { outs[n] = RunFig3Opts(opts).Render() })
	}
	for _, n := range []int{2, 8} {
		if outs[n] != outs[1] {
			t.Fatalf("fig3 output depends on Engines:\n--- engines=1 ---\n%s\n--- engines=%d ---\n%s", outs[1], n, outs[n])
		}
	}
}

// TestEnginesFig4aDeterminism covers the Ethernet transport: a shortened
// fig4a startup sweep (ring refills, NPF backup path, memaslap load) must
// render byte-identically for Engines 1, 2, and 8.
func TestEnginesFig4aDeterminism(t *testing.T) {
	outs := map[int]string{}
	for _, n := range []int{1, 2, 8} {
		withEngines(n, func() { outs[n] = RunFig4a(sim.Second).Render() })
	}
	for _, n := range []int{2, 8} {
		if outs[n] != outs[1] {
			t.Fatalf("fig4a output depends on Engines:\n--- engines=1 ---\n%s\n--- engines=%d ---\n%s", outs[1], n, outs[n])
		}
	}
}

// TestEnginesTable5Determinism covers table5's partitioned runs (one to
// four memcached instances per server, NPF and pinning): budgets 1 and 8,
// which run the one-thread driver and the threaded protocol, must render
// byte-identically and execute the same number of events.
func TestEnginesTable5Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment; skipped in -short mode")
	}
	outs := map[int]string{}
	events := map[int]uint64{}
	for _, n := range []int{1, 8} {
		withEngines(n, func() {
			StartEngineStats()
			outs[n] = RunTable5().Render()
			_, events[n] = StopEngineStats()
		})
	}
	if outs[8] != outs[1] {
		t.Fatalf("table5 output depends on Engines:\n--- engines=1 ---\n%s\n--- engines=8 ---\n%s", outs[1], outs[8])
	}
	if events[1] == 0 || events[8] != events[1] {
		t.Fatalf("table5 executed %d events at engines=1, %d at engines=8", events[1], events[8])
	}
}

// captureSeriesUnder runs a sweep with a sampling trace factory installed
// (wrapped by the caller-supplied budget setter) and returns the rendered
// WriteSeriesSet stream — the byte string the determinism pins compare.
func captureSeriesUnder(t *testing.T, wrap func(func()), run func()) string {
	t.Helper()
	old := TraceFactory
	defer func() { TraceFactory = old }()
	var mu sync.Mutex
	var tracers []*trace.Tracer
	TraceFactory = func(eng *sim.Engine) *trace.Tracer {
		tr := trace.New(eng)
		tr.StartSampler(100 * sim.Microsecond)
		mu.Lock()
		tracers = append(tracers, tr)
		mu.Unlock()
		return tr
	}
	wrap(run)
	var set []*trace.Series
	for _, tr := range tracers {
		if s := tr.Sampler().Series(); s != nil && len(s.Names) > 0 {
			set = append(set, s)
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

// captureSeries is captureSeriesUnder with a Workers budget.
func captureSeries(t *testing.T, workers int, run func()) string {
	t.Helper()
	return captureSeriesUnder(t, func(f func()) { withWorkers(workers, f) }, run)
}

// TestRunParallelSeriesDeterminism extends the sweep runner's byte-identity
// promise to time-series output: the content-sorted WriteSeriesSet stream
// (and its order-invariant digest) must not depend on the worker count,
// even though engines — and thus samplers — register in scheduling order.
func TestRunParallelSeriesDeterminism(t *testing.T) {
	opts := Fig3Opts{Trials: 6, Replicas: 2}
	serial := captureSeries(t, 1, func() { RunFig3Opts(opts) })
	fanned := captureSeries(t, 8, func() { RunFig3Opts(opts) })
	if serial != fanned {
		t.Fatalf("series output depends on Workers:\n--- workers=1 ---\n%.2000s\n--- workers=8 ---\n%.2000s", serial, fanned)
	}
}

// TestEnginesSeriesDeterminism extends the byte-identity promise of
// partitioned runs to sampler output: the WriteSeriesSet stream (the
// instrumented server partition of every env) must not depend on the
// engine-thread budget.
func TestEnginesSeriesDeterminism(t *testing.T) {
	opts := Fig3Opts{Trials: 4, Replicas: 2}
	outs := map[int]string{}
	for _, n := range []int{1, 2, 8} {
		outs[n] = captureSeriesUnder(t,
			func(f func()) { withEngines(n, f) },
			func() { RunFig3Opts(opts) })
	}
	for _, n := range []int{2, 8} {
		if outs[n] != outs[1] {
			t.Fatalf("series output depends on Engines:\n--- engines=1 ---\n%.2000s\n--- engines=%d ---\n%.2000s", outs[1], n, outs[n])
		}
	}
}

// TestFig3OptsDefaultsMatchRunFig3 pins the satellite requirement that the
// hoisted seed option preserves the historical results: RunFig3 must be
// exactly RunFig3Opts with the default seed and a single replica.
func TestFig3OptsDefaultsMatchRunFig3(t *testing.T) {
	a := RunFig3(6).Render()
	b := RunFig3Opts(Fig3Opts{Trials: 6, Seed: fig3DefaultSeed, Replicas: 1}).Render()
	if a != b {
		t.Fatalf("RunFig3 and explicit-default RunFig3Opts diverge:\n%s\nvs\n%s", a, b)
	}
}
