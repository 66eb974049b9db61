// Command npfbench regenerates the paper's evaluation tables and figures on
// the simulated stack. Its experiments are the entries of bench.Experiments:
// run with no arguments for the default list, or name experiments:
//
//	npfbench fig3 table4 fig4a fig4b table5 fig7 fig8a fig8b fig9 table6 fig10 ablate loc kv
//
// Every name is checked before anything runs (an unknown one exits 2); an
// experiment that fails, such as loc run outside the repository root,
// exits 1 without writing -json. Three experiments are not in the default
// list and run only when named: kv (the distributed-KV registration
// ablation), anatomy (the causal fault profiler over the same deployment:
// each registration policy's per-stage NPF latency table and the critical
// path of its p99 tail) and scaleout (the 1,008-host, 101,000-client
// cluster sweep on one fixed 8-partition group, byte-identical for every
// -parallel value). Their rows land in the -json artifact's kv,
// fault_anatomy and scale_out sections; with -trace or -series the
// artifact also sums dropped flight-recorder events and fault records in
// trace_drops. The artifact's types and their npfstat gates are declared
// in internal/artifact.
//
// Flags:
//
//	-quick      run every experiment at its quick sizing (CI-friendly)
//	-root       repository root for the loc experiment (default ".")
//	-parallel   the run's thread budget N (0 = one per CPU; default 1):
//	            an experiment's independent jobs fan across min(jobs, N)
//	            goroutines and share the rest of N as threads of their
//	            partitioned groups (scaleout's fixed 8 partitions). Every
//	            other env, kv deployment and -chaos testbed runs on one
//	            partition, so no N changes any output
//	-json       write a machine-readable BENCH_results.json-style artifact
//	            (per-experiment engines and events, engine allocs/op,
//	            section rows); a pure function of the code, the experiment
//	            list and -quick, so byte-identical for every -parallel
//	            value and on every host. Host timing lives only in
//	            cmd/npfperf. Not accepted with -chaos
//	-trace      write a Chrome trace_event JSON (load in Perfetto /
//	            about:tracing) covering every engine the selected
//	            experiments build
//	-series     write deterministic metric time-series CSV sampled on the
//	            virtual clock (one section per engine, content-sorted so
//	            the file is byte-identical for any -parallel N); render
//	            with `npfstat -render FILE`
//	-sample-every  sampling interval in virtual time for -series
//	            (default 10ms)
//	-chaos      run a named fault-injection scenario instead of the paper
//	            experiments ("all" runs the whole catalogue; "list" prints
//	            it); exits non-zero if any invariant fails. -trace and
//	            -series cover every testbed engine the scenarios build
//	-seed       RNG seed for -chaos runs (default 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"npf/internal/artifact"
	"npf/internal/bench"
	"npf/internal/sim"
	"npf/internal/trace"
)

// runChaos runs one named chaos scenario (or all of them) on scope s and
// returns the process exit code: 0 when every invariant held, 1
// otherwise.
func runChaos(name string, seed int64, s *bench.Scope, stdout, stderr io.Writer) int {
	if name == "list" {
		for _, s := range bench.Scenarios() {
			fmt.Fprintf(stdout, "  %-24s %s\n", s.Name, s.Desc)
		}
		return 0
	}
	var names []string
	if name == "all" {
		for _, s := range bench.Scenarios() {
			names = append(names, s.Name)
		}
	} else {
		names = []string{name}
	}
	code := 0
	for _, n := range names {
		rep, err := bench.RunScenario(n, seed, s)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "==== chaos %s ====\n%s\n", n, rep.Render())
		if !rep.Pass {
			code = 1
		}
	}
	return code
}

// selectExperiments resolves the named experiments (the default list when
// none is named) against bench.Experiments.
func selectExperiments(names []string) ([]bench.Experiment, error) {
	if len(names) == 0 {
		for _, e := range bench.Experiments {
			if e.Default {
				names = append(names, e.Name)
			}
		}
	}
	exps := make([]bench.Experiment, len(names))
	for i, n := range names {
		e, ok := bench.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		exps[i] = e
	}
	return exps, nil
}

// writeFile creates path and fills it.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is npfbench with its arguments and output streams; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced-size experiments")
	root := fs.String("root", ".", "repository root (for the loc experiment)")
	parallel := fs.Int("parallel", 1, "thread budget: job goroutines, then group threads (0 = one per CPU); changes no output")
	jsonOut := fs.String("json", "", "write machine-readable results to this file")
	traceOut := fs.String("trace", "", "write Chrome trace JSON to this file")
	seriesOut := fs.String("series", "", "write sampled metric time-series CSV to this file")
	sampleEvery := fs.Duration("sample-every", 10*time.Millisecond, "virtual-time sampling interval for -series")
	chaosName := fs.String("chaos", "", "run a fault-injection scenario (name, \"all\", or \"list\")")
	seed := fs.Int64("seed", 1, "RNG seed for -chaos runs")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *seriesOut != "" && *sampleEvery <= 0 {
		fmt.Fprintln(stderr, "-sample-every must be positive")
		return 2
	}

	if *parallel < 0 {
		fmt.Fprintln(stderr, "-parallel must be >= 0")
		return 2
	}

	if *chaosName != "" && *jsonOut != "" {
		fmt.Fprintln(stderr, "-json does not apply to -chaos runs")
		return 2
	}

	var tracers []*trace.Tracer
	var factory func(*sim.Engine) *trace.Tracer
	if *traceOut != "" || *seriesOut != "" {
		// Engines are built on worker goroutines under -parallel, so the
		// factory must be safe for concurrent calls.
		interval := sim.Duration(*sampleEvery)
		withSeries := *seriesOut != ""
		var mu sync.Mutex
		factory = func(eng *sim.Engine) *trace.Tracer {
			tr := trace.New(eng)
			if withSeries {
				tr.StartSampler(interval)
			}
			mu.Lock()
			tracers = append(tracers, tr)
			mu.Unlock()
			return tr
		}
	}

	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	// newScope is every run's scope: the chaos scenarios share one, and
	// each experiment gets its own, so its statistics count only the
	// engines it built.
	newScope := func() *bench.Scope {
		return &bench.Scope{Workers: *parallel, Trace: factory, Root: *root}
	}

	code := 0
	doc := &artifact.Artifact{Quick: *quick}
	if *chaosName != "" {
		if code = runChaos(*chaosName, *seed, newScope(), stdout, stderr); code == 2 {
			return code
		}
	} else {
		exps, err := selectExperiments(fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		size := bench.Full
		if *quick {
			size = bench.Quick
		}
		for _, e := range exps {
			scope := newScope()
			r, err := e.Run(scope, size)
			engines, events := scope.Stats()
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
				return 1
			}
			if rec, ok := r.(bench.Recorder); ok {
				rec.Record(doc)
			}
			doc.Experiments = append(doc.Experiments,
				artifact.Experiment{Name: e.Name, Engines: engines, Events: events})
			fmt.Fprintf(stdout, "==== %s ====\n%s\n", e.Name, r.Render())
		}
	}

	if len(tracers) > 0 {
		td := &artifact.TraceDrops{Tracers: len(tracers)}
		for _, tr := range tracers {
			td.FaultEvents += tr.DroppedFaultEvents()
			td.FaultRecords += tr.DroppedFaultRecords()
			td.PendingFaults += tr.PendingFaults()
			td.CompletedFault += tr.FaultRecordCount()
		}
		doc.TraceDrops = td
		if td.FaultEvents+td.FaultRecords > 0 {
			fmt.Fprintf(stdout, "trace drops: %d fault events, %d fault records across %d tracers\n",
				td.FaultEvents, td.FaultRecords, td.Tracers)
		}
	}

	if *seriesOut != "" {
		var set []*trace.Series
		for _, tr := range tracers {
			// Engines that finished inside the first interval with no
			// metrics registered produce empty sections; skip them.
			if s := tr.Sampler().Series(); s != nil && len(s.Names) > 0 {
				set = append(set, s)
			}
		}
		if err := writeFile(*seriesOut, func(w io.Writer) error { return trace.WriteSeriesSet(w, set) }); err != nil {
			fmt.Fprintf(stderr, "series: %v\n", err)
			return 1
		}
		samples, names := 0, map[string]bool{}
		for _, s := range set {
			samples += len(s.Times)
			for _, n := range s.Names {
				names[n] = true
			}
		}
		doc.Series = &artifact.Series{
			Engines:    len(set),
			Samples:    samples,
			Metrics:    len(names),
			IntervalNs: int64(sim.Duration(*sampleEvery)),
			Digest:     fmt.Sprintf("%016x", trace.DigestSeries(set)),
		}
		fmt.Fprintf(stdout, "series: wrote %d samples across %d engines (%d metrics) to %s\n",
			samples, len(set), len(names), *seriesOut)
	}

	if *jsonOut != "" {
		doc.EngineBench = bench.EngineMicrobench()
		err := writeFile(*jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
		if err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "json: wrote %d experiment rows to %s (engine bench: %d allocs/op)\n",
			len(doc.Experiments), *jsonOut, doc.EngineBench.AllocsPerOp)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error { return trace.ExportChromeTrace(w, tracers) }); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		ctx, npfs := 0, 0
		for _, tr := range tracers {
			ctx += len(trace.ContextSpans(tr.FaultEvents()))
			npfs += len(trace.FaultSpans(tr.FaultRecords()))
		}
		fmt.Fprintf(stdout, "trace: wrote %d context and %d NPF spans from %d engines to %s\n", ctx, npfs, len(tracers), *traceOut)
	}
	return code
}
