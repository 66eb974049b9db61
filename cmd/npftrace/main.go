// Command npftrace runs small, seeded NPF scenarios with tracing enabled
// and prints what the telemetry subsystem recorded: the NPF tree derived
// from the fault records followed by the context span tree derived from
// the flight recorder's context events, the slowest
// NPFs, a per-stage latency breakdown of the fault records (the measured
// equivalent of the paper's Figure 3a, with fault-report as the
// detect-and-report stage), and the metrics snapshot.
//
// Scenarios:
//
//	single   one cold receive on an IB QP → a single recv-side rNPF
//	fig3     repeated minor rNPFs (Figure 3a conditions, 4KB messages)
//	backup   TCP into a cold 16-entry server ring under the backup-ring
//	         policy (§5) — parked faults; parked packets are replayed,
//	         not dropped, so TCP never retransmits
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
// The causal fault profiler over the distributed-KV deployment (per-stage
// NPF latency and the p99 critical path per registration policy) is
// `npfbench anatomy`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"npf/internal/apps"
	"npf/internal/bench"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

func main() {
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
		tr = runIB(nil, *seed, 1, *size)
	case "fig3":
		tr = runIB(nil, *seed, *trials, *size)
	case "backup":
		tr = runBackup(nil, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
		os.Exit(2)
	}

	report(os.Stdout, *scenario, tr, *topK)

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
		fmt.Printf("\nwrote %d context and %d NPF spans to %s\n",
			len(trace.ContextSpans(tr.FaultEvents())), len(trace.FaultSpans(tr.FaultRecords())), *out)
	}
}

// report prints what the scenario's tracer recorded: the span trees (single
// only), the topK slowest NPFs, the stage breakdown and the metrics.
func report(w io.Writer, scenario string, tr *trace.Tracer, topK int) {
	recs := tr.FaultRecords()
	npfs := trace.FaultSpans(recs)
	if scenario == "single" {
		fmt.Fprintln(w, "== span tree ==")
		trace.WriteTree(w, npfs)
		trace.WriteTree(w, trace.ContextSpans(tr.FaultEvents()))
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "== top %d slowest NPFs ==\n", topK)
	for _, r := range trace.TopSlowest(npfs, "npf", topK) {
		fmt.Fprintf(w, "  #%-6d %-14s %8.1fus  @%.1fus\n",
			r.Span.ID, r.Span.Name, r.Dur.Micros(), r.Span.Start.Micros())
	}
	fmt.Fprintln(w)

	stages := trace.FaultStageBreakdown(recs)
	fmt.Fprintln(w, "== NPF stage breakdown (µs, fault records, Fig. 3a) ==")
	trace.WriteStageTable(w, stages)
	fmt.Fprintf(w, "hardware share (fault-report-parked+update+resume): %.1f%%  (paper: ~90%% at 4KB)\n\n",
		trace.HardwareShare(stages)*100)

	fmt.Fprintln(w, "== metrics ==")
	fmt.Fprint(w, tr.MetricsSnapshot())
}

// runIB reproduces the Figure 3a conditions: a warm sender posting
// size-byte messages into cold receive buffers, each receive raising a
// minor rNPF on the responder. The env is built on scope s (nil: the
// default run).
func runIB(s *bench.Scope, seed int64, trials, size int) *trace.Tracer {
	e := bench.NewIBEnv(bench.IBOpts{Seed: seed, Trace: true, Scope: s})
	bench.MinorNPFs(e, size, trials)
	return e.Tracer
}

// runBackup drives TCP traffic into a cold 16-entry server ring under the
// backup-ring policy: faulting packets are parked and replayed, so the
// trace shows rx-backup roots with long "parked" stages. Parked packets
// are replayed, not dropped, so the TCP sender never retransmits and the
// trace has no retransmission episodes. The env is built on scope s (nil:
// the default run).
func runBackup(s *bench.Scope, seed int64) *trace.Tracer {
	e := bench.NewEthEnv(bench.EthOpts{Seed: seed, Policy: nic.PolicyBackup, RingSize: 16, Trace: true, Scope: s})
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
