// Command npftrace runs small, seeded NPF scenarios with tracing enabled
// and prints what the telemetry subsystem recorded: the NPF tree derived
// from the fault records followed by the recorded span tree, the slowest
// NPFs, a per-stage latency breakdown of the fault records (the measured
// equivalent of the paper's Figure 3a, with fault-report as the
// detect-and-report stage), and the metrics snapshot.
//
// Scenarios:
//
//	single   one cold receive on an IB QP → a single recv-side rNPF
//	fig3     repeated minor rNPFs (Figure 3a conditions, 4KB messages)
//	backup   TCP into a cold 16-entry server ring under the backup-ring
//	         policy (§5) — parked faults plus TCP retransmission spans
//
// Flags:
//
//	-scenario  which scenario to run (default "single")
//	-seed      engine seed (default 7)
//	-trials    NPF count for fig3 (default 50)
//	-k         how many slowest NPFs to list (default 5)
//	-size      message bytes for single/fig3 (default 4096)
//	-o         also write a Chrome trace_event JSON (Perfetto-loadable)
//
// Subcommands (the causal fault profiler; see internal/trace/fault.go):
//
//	npftrace anatomy  [-quick] [-parallel N] [-engines N] [-json]
//	    the per-stage NPF latency breakdown per registration policy,
//	    from the distributed-KV deployment under reclaim waves
//	npftrace critpath [-quick] [-parallel N] [-engines N] [-json]
//	    only the critical-path extraction for the p99 tail
//
// Both renderings contain no wall-clock time and are byte-identical for
// every -parallel and -engines value.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"npf/internal/apps"
	"npf/internal/bench"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/trace"
)

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "anatomy" || os.Args[1] == "critpath") {
		os.Exit(runAnatomyCmd(os.Args[1], os.Args[2:]))
	}
	scenario := flag.String("scenario", "single", "scenario: single, fig3, backup")
	seed := flag.Int64("seed", 7, "engine seed")
	trials := flag.Int("trials", 50, "NPF count for the fig3 scenario")
	topK := flag.Int("k", 5, "how many slowest NPFs to list")
	size := flag.Int("size", 4096, "message bytes for single/fig3")
	out := flag.String("o", "", "write Chrome trace JSON to this file")
	flag.Parse()

	var tr *trace.Tracer
	switch *scenario {
	case "single":
		tr = runIB(*seed, 1, *size)
	case "fig3":
		tr = runIB(*seed, *trials, *size)
	case "backup":
		tr = runBackup(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	recs := tr.FaultRecords()
	npfs := trace.FaultSpans(recs)
	if *scenario == "single" {
		fmt.Println("== span tree ==")
		trace.WriteTree(os.Stdout, npfs)
		trace.WriteTree(os.Stdout, tr.Spans())
		fmt.Println()
	}

	fmt.Printf("== top %d slowest NPFs ==\n", *topK)
	for _, r := range trace.TopSlowest(npfs, "npf", *topK) {
		fmt.Printf("  #%-6d %-14s %8.1fus  @%.1fus\n",
			r.Span.ID, r.Span.Name, r.Dur.Micros(), r.Span.Start.Micros())
	}
	fmt.Println()

	stages := trace.FaultStageBreakdown(recs)
	fmt.Println("== NPF stage breakdown (µs, fault records, Fig. 3a) ==")
	trace.WriteStageTable(os.Stdout, stages)
	fmt.Printf("hardware share (fault-report-parked+update+resume): %.1f%%  (paper: ~90%% at 4KB)\n\n",
		trace.HardwareShare(stages)*100)

	fmt.Println("== metrics ==")
	fmt.Print(tr.MetricsSnapshot())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "npftrace: %v\n", err)
			os.Exit(1)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "npftrace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "npftrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d recorded and %d derived NPF spans to %s\n", tr.SpanCount(), len(npfs), *out)
	}
}

// runAnatomyCmd runs the fault-anatomy profiler (bench.RunAnatomy) and
// renders it as text or JSON. The -parallel/-engines knobs mirror
// npfbench's: they change only wall-clock time, never a byte of output.
func runAnatomyCmd(cmd string, args []string) int {
	fs := flag.NewFlagSet("npftrace "+cmd, flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced op count")
	parallel := fs.Int("parallel", 0, "sweep worker goroutines (0 = GOMAXPROCS)")
	engines := fs.Int("engines", 0, "PDES engine budget (0 = single-engine jobs)")
	jsonOut := fs.Bool("json", false, "emit the fault_anatomy rows as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	bench.Workers = *parallel
	bench.Engines = *engines
	r := bench.RunAnatomy(*quick)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Rows()); err != nil {
			fmt.Fprintf(os.Stderr, "npftrace: %v\n", err)
			return 1
		}
		return 0
	}
	if cmd == "critpath" {
		fmt.Print(r.RenderCritPath())
	} else {
		fmt.Print(r.Render())
	}
	return 0
}

// runIB reproduces the Figure 3a conditions: a warm sender posting
// size-byte messages into cold receive buffers, each receive raising a
// minor rNPF on the responder.
func runIB(seed int64, trials, size int) *trace.Tracer {
	e := bench.NewIBEnv(bench.IBOpts{Seed: seed, Trace: true})
	pages := (size + mem.PageSize - 1) / mem.PageSize
	bench.Warm(e.QPA, 0, pages*2)
	const window = 8
	done := 0
	var runTrial func()
	runTrial = func() {
		if done >= trials {
			e.Eng.Stop()
			return
		}
		base := mem.VAddr(done%window*pages) * mem.PageSize
		e.QPB.PostRecv(rc.RecvWQE{ID: int64(done), Addr: base, Len: size})
		e.QPA.PostSend(rc.SendWQE{ID: int64(done), Laddr: 0, Len: size})
	}
	e.QPB.OnRecv = func(rc.RecvCompletion) {
		base := mem.PageNum(done % window * pages)
		e.ASB.DiscardPages(base, pages)
		done++
		runTrial()
	}
	runTrial()
	e.Eng.Run()
	return e.Tracer
}

// runBackup drives TCP traffic into a cold 16-entry server ring under the
// backup-ring policy: faulting packets are parked and replayed, so the
// trace shows rx-backup roots with long "parked" stages alongside the TCP
// sender's retransmission episodes.
func runBackup(seed int64) *trace.Tracer {
	e := bench.NewEthEnv(bench.EthOpts{Seed: seed, Policy: nic.PolicyBackup, RingSize: 16, Trace: true})
	store := apps.NewKVStore(e.Server.AS, 0)
	apps.NewKVServer(e.Server.Stack, store, 50*sim.Microsecond)
	slap := apps.NewMemaslap(e.Client.Stack, apps.MemaslapConfig{
		Conns: 4, GetRatio: 0.9, ValueSize: 1024, Keys: 200,
		KeyPrefix: "k", Prepopulate: true,
	}, sim.Second)
	slap.Start(e.Server.Chan.Dev.Node, e.Server.Chan.Flow)
	e.Eng.RunUntil(2 * sim.Second)
	return e.Tracer
}
