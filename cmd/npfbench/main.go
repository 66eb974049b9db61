// Command npfbench regenerates the paper's evaluation tables and figures on
// the simulated stack. Run with no arguments for the full suite, or name
// specific experiments:
//
//	npfbench fig3 table4 fig4a fig4b table5 fig7 fig8a fig8b fig9 table6 fig10 ablate loc kv
//
// The extra "anatomy" experiment (not in the default set) runs the fault
// profiler: the distributed-KV deployment per registration policy with the
// causal fault recorder always on, landing the per-policy anatomy rows in
// the -json artifact's "fault_anatomy" section (also rendered standalone by
// `npftrace anatomy`). When any tracers were built (-trace/-series), the
// artifact additionally carries a "trace_drops" section summing dropped
// flight-recorder events and fault records. The artifact's types and their
// npfstat gates are declared in internal/artifact.
//
// The extra "scaleout" experiment (also not in the default set) runs the
// million-user cluster sweep — 1,008 hosts and 101,000 logical clients per
// transport on one fixed 8-partition group — and records the fleet shape,
// per-tenant tails, bytes-per-host, and the run fingerprint in the -json
// artifact's "scale_out" section. The partition count is fixed by the
// fleet, so the section is byte-identical for every -engines and -parallel
// value; -quick shrinks the fleet for smokes.
//
// Flags:
//
//	-quick      smaller trial counts / shorter runs (CI-friendly)
//	-kv         append the distributed-KV registration ablation (the "kv"
//	            experiment) to the selected set
//	-scaleout   append the million-user cluster sweep (the "scaleout"
//	            experiment) to the selected set
//	-root       repository root for the loc experiment (default ".")
//	-parallel   fan independent sweep jobs across N worker goroutines
//	            (0 = one per CPU); results are byte-identical to -parallel 1
//	-engines    partitioned PDES mode: build every env as a multi-engine
//	            sim.Group (one engine per host side, conservative lookahead
//	            sync) with a total worker-thread budget of N; results are
//	            byte-identical for every N >= 1 (0 = historical
//	            single-engine mode). Applies to -chaos scenarios too.
//	-json       write a machine-readable BENCH_results.json-style artifact
//	            (per-experiment engines and events, engine allocs/op,
//	            section rows); a pure function of the code, the experiment
//	            list, -quick and -engines, so byte-identical for every
//	            -parallel value and on every host. Host timing lives only
//	            in cmd/npfperf
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
//	            it); exits non-zero if any invariant fails
//	-seed       RNG seed for -chaos runs (default 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"npf/internal/artifact"
	"npf/internal/bench"
	"npf/internal/chaos"
	"npf/internal/sim"
	"npf/internal/trace"
)

// runChaos runs one named chaos scenario (or all of them) and returns the
// process exit code: 0 when every invariant held, 1 otherwise.
func runChaos(name string, seed int64) int {
	if name == "list" {
		for _, s := range chaos.Scenarios() {
			fmt.Printf("  %-24s %s\n", s.Name, s.Desc)
		}
		return 0
	}
	var names []string
	if name == "all" {
		for _, s := range chaos.Scenarios() {
			names = append(names, s.Name)
		}
	} else {
		names = []string{name}
	}
	code := 0
	for _, n := range names {
		rep, err := chaos.RunScenario(n, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			return 2
		}
		fmt.Printf("==== chaos %s ====\n%s\n", n, rep.Render())
		if !rep.Pass {
			code = 1
		}
	}
	return code
}

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments")
	kvExp := flag.Bool("kv", false, "append the distributed-KV ablation to the selected experiments")
	scaleoutExp := flag.Bool("scaleout", false, "append the million-user cluster sweep (the \"scaleout\" experiment) to the selected experiments")
	root := flag.String("root", ".", "repository root (for the loc experiment)")
	parallel := flag.Int("parallel", 1, "sweep worker goroutines (0 = one per CPU)")
	engines := flag.Int("engines", 0, "partitioned PDES engine-thread budget (0 = single-engine mode)")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	traceOut := flag.String("trace", "", "write Chrome trace JSON to this file")
	seriesOut := flag.String("series", "", "write sampled metric time-series CSV to this file")
	sampleEvery := flag.Duration("sample-every", 10*time.Millisecond, "virtual-time sampling interval for -series")
	chaosName := flag.String("chaos", "", "run a fault-injection scenario (name, \"all\", or \"list\")")
	seed := flag.Int64("seed", 1, "RNG seed for -chaos runs")
	flag.Parse()

	if *seriesOut != "" && *sampleEvery <= 0 {
		fmt.Fprintln(os.Stderr, "-sample-every must be positive")
		os.Exit(2)
	}

	if *engines < 0 {
		fmt.Fprintln(os.Stderr, "-engines must be >= 0")
		os.Exit(2)
	}
	chaos.Engines = *engines

	if *chaosName != "" {
		os.Exit(runChaos(*chaosName, *seed))
	}

	if *parallel <= 0 {
		*parallel = bench.DefaultWorkers()
	}
	bench.Workers = *parallel
	bench.Engines = *engines

	var tracers []*trace.Tracer
	if *traceOut != "" || *seriesOut != "" {
		// Engines are built on worker goroutines under -parallel, so the
		// factory must be safe for concurrent calls.
		interval := sim.Duration(*sampleEvery)
		withSeries := *seriesOut != ""
		var mu sync.Mutex
		bench.TraceFactory = func(eng *sim.Engine) *trace.Tracer {
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

	experiments := flag.Args()
	if len(experiments) == 0 {
		experiments = []string{"fig3", "table4", "fig4a", "fig4b", "table5",
			"fig7", "fig8a", "fig8b", "fig9", "table6", "fig10", "ablate", "loc"}
	}
	if *kvExp {
		seen := false
		for _, e := range experiments {
			seen = seen || e == "kv"
		}
		if !seen {
			experiments = append(experiments, "kv")
		}
	}
	if *scaleoutExp {
		seen := false
		for _, e := range experiments {
			seen = seen || e == "scaleout"
		}
		if !seen {
			experiments = append(experiments, "scaleout")
		}
	}

	doc := &artifact.Artifact{Engines: *engines, Quick: *quick}

	for _, exp := range experiments {
		bench.StartEngineStats()
		var out string
		switch exp {
		case "fig3":
			trials := 200
			if *quick {
				trials = 30
			}
			out = bench.RunFig3(trials).Render()
		case "table4":
			trials := 5000
			if *quick {
				trials = 500
			}
			out = bench.RunTable4(trials).Render()
		case "fig4a":
			dur := 80 * sim.Second
			if *quick {
				dur = 30 * sim.Second
			}
			out = bench.RunFig4a(dur).Render()
		case "fig4b":
			ops, rings, timeout := 10000, []int(nil), 600*sim.Second
			if *quick {
				ops, rings, timeout = 2000, []int{16, 64, 256, 1024}, 200*sim.Second
			}
			out = bench.RunFig4b(ops, rings, timeout).Render()
		case "table5":
			out = bench.RunTable5().Render()
		case "fig7":
			out = bench.RunFig7().Render()
		case "fig8a":
			out = bench.RunFig8a().Render()
		case "fig8b":
			out = bench.RunFig8b().Render()
		case "fig9":
			ranks, iters := 8, 100
			if *quick {
				ranks, iters = 4, 30
			}
			out = bench.RunFig9(ranks, iters).Render()
		case "table6":
			ranks := 8
			if *quick {
				ranks = 4
			}
			out = bench.RunTable6(ranks).Render()
		case "fig10":
			out = bench.RunFig10().Render()
		case "ablate":
			out = bench.RunAblate().Render()
		case "kv":
			r := bench.RunKV(*quick)
			doc.KV = r.Rows()
			out = r.Render()
		case "anatomy":
			r := bench.RunAnatomy(*quick)
			doc.FaultAnatomy = r.Rows()
			out = r.Render()
		case "scaleout":
			r := bench.RunScaleout(*quick)
			doc.ScaleOut = r.Rows()
			out = r.Render()
		case "loc":
			r, err := bench.RunLOC(*root)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loc: %v\n", err)
				bench.StopEngineStats()
				continue
			}
			out = r.Render()
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
			os.Exit(2)
		}
		engines, events := bench.StopEngineStats()
		doc.Experiments = append(doc.Experiments,
			artifact.Experiment{Name: exp, Engines: engines, Events: events})
		fmt.Printf("==== %s ====\n%s\n", exp, out)
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
			fmt.Printf("trace drops: %d fault events, %d fault records across %d tracers\n",
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
		f, err := os.Create(*seriesOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "series: %v\n", err)
			os.Exit(1)
		}
		if err := trace.WriteSeriesSet(f, set); err != nil {
			fmt.Fprintf(os.Stderr, "series: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "series: %v\n", err)
			os.Exit(1)
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
		fmt.Printf("series: wrote %d samples across %d engines (%d metrics) to %s\n",
			samples, len(set), len(names), *seriesOut)
	}

	if *jsonOut != "" {
		doc.EngineBench = bench.EngineMicrobench()
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("json: wrote %d experiment rows to %s (engine bench: %d allocs/op)\n",
			len(doc.Experiments), *jsonOut, doc.EngineBench.AllocsPerOp)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := trace.ExportChromeTrace(f, tracers); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		ctx, npfs := 0, 0
		for _, tr := range tracers {
			ctx += len(trace.ContextSpans(tr.FaultEvents()))
			npfs += len(trace.FaultSpans(tr.FaultRecords()))
		}
		fmt.Printf("trace: wrote %d context and %d NPF spans from %d engines to %s\n", ctx, npfs, len(tracers), *traceOut)
	}
}
