package bench

import (
	"fmt"
	"strings"

	"npf/internal/core"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// Fig3Result holds the NPF and invalidation execution breakdowns of
// Figure 3 (µs, means).
type Fig3Result struct {
	// NPF breakdown per message size.
	NPF map[string]Fig3Breakdown
	// InvalidationMapped / InvalidationFast are the Figure 3b components.
	InvalidationMapped float64
	InvalidationFast   float64
}

// Fig3Breakdown is one bar of Figure 3a.
type Fig3Breakdown struct {
	Trigger, Driver, Update, Resume, Total float64
}

// Fig3Opts configures the Figure 3 reproduction.
type Fig3Opts struct {
	// Trials is the number of minor NPFs measured per message size.
	Trials int
	// Seed is the base seed for the IB testbeds. Zero means the historical
	// default (7), so existing results do not move.
	Seed int64
	// Replicas splits Trials across this many seed-isolated engines (seeds
	// Seed, Seed+1, ...), whose histograms are merged in replica order.
	// The default (1) reproduces the original single-engine run; any value
	// gives output independent of the Workers fan-out.
	Replicas int
}

// fig3DefaultSeed is the seed RunFig3 has always used.
const fig3DefaultSeed = 7

var fig3Sizes = []struct {
	name  string
	bytes int
}{{"4KB", 4 << 10}, {"4MB", 4 << 20}}

// RunFig3 reproduces Figure 3: repeated minor NPFs on 4KB and 4MB messages,
// plus the invalidation flow.
func RunFig3(trials int) *Fig3Result {
	return RunFig3Opts(Fig3Opts{Trials: trials})
}

// MinorNPFs runs the Figure 3a trial loop on e, a fresh IB env: a warm sender
// posts trials messages of bytes each, one at a time, into receive buffers
// that cycle through an 8-slot window and are discarded after each receive,
// so every receive takes a cold minor rNPF on side B. It runs e until the
// last receive completes; the faults land in e.DrvB.Hist (and e's tracers).
func MinorNPFs(e *IBEnv, bytes, trials int) {
	pages := (bytes + mem.PageSize - 1) / mem.PageSize
	Warm(e.QPA, 0, pages*2)
	const window = 8
	done := 0
	// runTrial is always invoked on side B; the next send is handed to
	// side A through Engine.Call (inline on a shared engine, mailbox mail
	// in partitioned mode).
	var runTrial func()
	runTrial = func() {
		if done >= trials {
			e.EngB.Stop()
			return
		}
		id := int64(done)
		base := mem.VAddr(done%window*pages) * mem.PageSize
		e.QPB.PostRecv(rc.RecvWQE{ID: id, Addr: base, Len: bytes})
		e.EngB.Call(e.Eng, func() {
			e.QPA.PostSend(rc.SendWQE{ID: id, Laddr: 0, Len: bytes})
		})
	}
	e.QPB.OnRecv = func(rc.RecvCompletion) {
		e.ASB.DiscardPages(mem.PageNum(done%window*pages), pages)
		done++
		runTrial()
	}
	runTrial()
	e.Run()
}

// RunFig3Opts is RunFig3 with explicit seeding and replica fan-out. Every
// (size, replica) pair and the invalidation flow is an independent job on
// its own engine, executed through the sweep runner; results are merged in
// job order, so output does not depend on Workers.
func RunFig3Opts(o Fig3Opts) *Fig3Result {
	if o.Seed == 0 {
		o.Seed = fig3DefaultSeed
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	res := &Fig3Result{NPF: make(map[string]Fig3Breakdown)}

	hists := make([][]*core.Breakdown, len(fig3Sizes))
	var jobs []func()
	for si, size := range fig3Sizes {
		si, size := si, size
		hists[si] = make([]*core.Breakdown, o.Replicas)
		for rep := 0; rep < o.Replicas; rep++ {
			rep := rep
			trials := o.Trials / o.Replicas
			if rep < o.Trials%o.Replicas {
				trials++
			}
			jobs = append(jobs, func() {
				e := NewIBEnv(IBOpts{Seed: o.Seed + int64(rep)})
				MinorNPFs(e, size.bytes, trials)
				hists[si][rep] = &e.DrvB.Hist
			})
		}
	}

	// Figure 3b: invalidations of mapped pages (evicting DMA-mapped
	// buffers) vs the unmapped fast path.
	jobs = append(jobs, func() {
		e := NewIBEnv(IBOpts{Seed: o.Seed})
		Warm(e.QPB, 0, 256)
		var mappedCost, fastCost sim.Time
		for i := 0; i < 256; i++ {
			_, c := e.ASB.EvictPages(mem.PageNum(i), 1)
			mappedCost += c
		}
		// Fast path: pages resident but never device-mapped.
		e.ASB.TouchPages(1024, 256, true)
		for i := 0; i < 256; i++ {
			_, c := e.ASB.EvictPages(1024+mem.PageNum(i), 1)
			fastCost += c
		}
		res.InvalidationMapped = (mappedCost / 256).Micros()
		res.InvalidationFast = (fastCost / 256).Micros()
	})

	runJobs(jobs)

	for si, size := range fig3Sizes {
		var h core.Breakdown
		for _, rep := range hists[si] {
			h.Merge(rep)
		}
		res.NPF[size.name] = Fig3Breakdown{
			Trigger: h.Trigger.Mean(),
			Driver:  h.DriverSW.Mean(),
			Update:  h.UpdateHW.Mean(),
			Resume:  h.Resume.Mean(),
			Total:   h.Total.Mean(),
		}
	}
	return res
}

// Render prints the breakdown tables with the paper's reference values.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3(a): NPF execution breakdown (minor faults, µs)\n")
	rows := [][]string{}
	for _, name := range []string{"4KB", "4MB"} {
		v := r.NPF[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", v.Trigger),
			fmt.Sprintf("%.1f", v.Driver),
			fmt.Sprintf("%.1f", v.Update),
			fmt.Sprintf("%.1f", v.Resume),
			fmt.Sprintf("%.1f", v.Total),
		})
	}
	b.WriteString(table(
		[]string{"msg", "trigger[hw]", "driver[sw]", "updatePT[sw+hw]", "resume[hw]", "total"},
		rows))
	b.WriteString("paper: 4KB ≈ 220 µs (~90% hardware), 4MB ≈ 350 µs\n\n")
	b.WriteString("Figure 3(b): invalidation flow (µs)\n")
	fmt.Fprintf(&b, "  mapped page:   %.1f   (paper: ≈55-60)\n", r.InvalidationMapped)
	fmt.Fprintf(&b, "  unmapped page: %.1f   (paper: ≈10, fast path)\n", r.InvalidationFast)
	return b.String()
}

// Table4Result holds the NPF tail latencies (µs).
type Table4Result struct {
	Rows map[string]Table4Row
}

// Table4Row is one row of Table 4.
type Table4Row struct {
	P50, P95, P99, Max float64
}

// RunTable4 reproduces Table 4: NPF latency percentiles with firmware
// jitter enabled. Each message size runs as an independent job.
func RunTable4(trials int) *Table4Result {
	res := &Table4Result{Rows: make(map[string]Table4Row)}
	rows := make([]Table4Row, len(fig3Sizes))
	jobs := make([]func(), len(fig3Sizes))
	for si, size := range fig3Sizes {
		si, size := si, size
		jobs[si] = func() {
			e := NewIBEnv(IBOpts{Seed: 11, Jitter: true})
			MinorNPFs(e, size.bytes, trials)
			h := &e.DrvB.Hist.Total
			rows[si] = Table4Row{
				P50: h.Percentile(50), P95: h.Percentile(95),
				P99: h.Percentile(99), Max: h.Max(),
			}
		}
	}
	runJobs(jobs)
	for si, size := range fig3Sizes {
		res.Rows[size.name] = rows[si]
	}
	return res
}

// Render prints Table 4.
func (r *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 4: tail latency of NPFs (µs)\n")
	rows := [][]string{}
	for _, name := range []string{"4KB", "4MB"} {
		v := r.Rows[name]
		rows = append(rows, []string{name,
			fmt.Sprintf("%.0f", v.P50), fmt.Sprintf("%.0f", v.P95),
			fmt.Sprintf("%.0f", v.P99), fmt.Sprintf("%.0f", v.Max)})
	}
	b.WriteString(table([]string{"message size", "50%", "95%", "99%", "max"}, rows))
	b.WriteString("paper: 4KB 215/250/261/464; 4MB 352/431/440/687\n")
	return b.String()
}
