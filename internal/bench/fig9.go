package bench

import (
	"fmt"
	"strings"

	"npf/internal/apps"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// mkMPIHosts returns a host factory on a shared fabric: one machine, HCA,
// and ODP driver per rank (the paper's eight DL380p nodes).
func mkMPIHosts(eng *sim.Engine, net *fabric.Network) func(int) (*mem.AddressSpace, *rc.HCA, *core.Driver) {
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	cfg.MTU = 16 << 10 // jumbo MTU keeps event counts tractable
	return func(rank int) (*mem.AddressSpace, *rc.HCA, *core.Driver) {
		m := mem.NewMachine(eng, 128<<30)
		drv := core.NewDriver(eng, core.DefaultConfig())
		hca := rc.NewHCA(eng, net, cfg)
		drv.AttachHCA(hca)
		as := m.NewAddressSpace(fmt.Sprintf("rank%d", rank), nil)
		return as, hca, drv
	}
}

var fig9Modes = []apps.RegMode{apps.RegCopy, apps.RegPin, apps.RegODP}

// runIMB runs one IMB-style benchmark and returns the measured elapsed
// virtual time. Like IMB, a warm-up pass runs untimed first (the paper's
// registration caches and ODP mappings are warm in steady state).
func runIMB(s *Scope, kind string, mode apps.RegMode, ranks, msgSize, iters int) sim.Time {
	eng := s.newBenchGroup(19, 1, 0).Engine(0)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	job := apps.NewMPIJob(eng, mkMPIHosts(eng, net), apps.MPIConfig{
		Ranks: ranks, Mode: mode,
		OffCacheBuffers: 16, // IMB "off_cache": defeat registration reuse
		PinCacheBytes:   512 << 20,
	})
	run := func(n int, done func(sim.Time)) {
		switch kind {
		case "sendrecv":
			job.RunSendRecv(msgSize, n, done)
		case "bcast":
			job.RunBcast(msgSize, n, done)
		case "alltoall":
			job.RunAlltoall(msgSize, n, done)
		}
	}
	var elapsed sim.Time
	// A full pass over the off-cache buffer rotation, even for patterns
	// that consume only one buffer per rank per iteration (bcast leaves).
	warmup := 16
	run(warmup, func(sim.Time) {
		run(iters, func(e sim.Time) { elapsed = e })
	})
	eng.Run()
	return elapsed
}

// Fig9Result holds IMB runtimes (seconds) per benchmark, message size, and
// mode.
type Fig9Result struct {
	Benchmarks []string
	SizesKB    []int
	// Seconds[bench][mode][sizeIdx]
	Seconds map[string]map[string][]float64
}

// RunFig9 reproduces Figure 9: IMB sendrecv/bcast/alltoall runtime vs
// message size for copy, pin-down cache, and NPF.
func RunFig9(s *Scope, ranks, iters int) *Fig9Result {
	res := &Fig9Result{
		Benchmarks: []string{"sendrecv", "bcast", "alltoall"},
		SizesKB:    []int{16, 32, 64, 128},
		Seconds:    make(map[string]map[string][]float64),
	}
	// One job per (benchmark, mode, size) IMB run, each on a private engine.
	var jobs []func()
	for _, bench := range res.Benchmarks {
		bench := bench
		res.Seconds[bench] = make(map[string][]float64)
		for _, mode := range fig9Modes {
			mode := mode
			col := make([]float64, len(res.SizesKB))
			res.Seconds[bench][mode.String()] = col
			for ki, kb := range res.SizesKB {
				ki, kb := ki, kb
				jobs = append(jobs, func() {
					col[ki] = runIMB(s, bench, mode, ranks, kb<<10, iters).Seconds()
				})
			}
		}
	}
	s.runJobs(jobs)
	return res
}

// Render prints runtimes with the copy/pin ratio labels the paper annotates.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: IMB runtime [s] vs message size (off_cache mode)\n")
	for _, bench := range r.Benchmarks {
		fmt.Fprintf(&b, "%s:\n", bench)
		var rows [][]string
		for i, kb := range r.SizesKB {
			cp := r.Seconds[bench]["copy"][i]
			pin := r.Seconds[bench]["pin"][i]
			npf := r.Seconds[bench]["npf"][i]
			rows = append(rows, []string{
				fmt.Sprintf("%dKB", kb),
				fmt.Sprintf("%.4f", cp),
				fmt.Sprintf("%.4f", pin),
				fmt.Sprintf("%.4f", npf),
				fmt.Sprintf("%.2fx", cp/pin),
				fmt.Sprintf("%.2f", npf/pin),
			})
		}
		b.WriteString(table([]string{"msg", "copy", "pin", "npf", "copy/pin", "npf/pin"}, rows))
	}
	b.WriteString("paper shape: copy/pin grows with message size (sendrecv 1.1→2.1x,\n")
	b.WriteString("alltoall 1.2→2.2x); npf tracks the pin-down cache (npf/pin ≈ 1)\n")
	return b.String()
}

// Table6Result holds the beff-style aggregate bandwidth per mode.
type Table6Result struct {
	MBps map[string]float64
}

// RunTable6 reproduces Table 6: a beff-style mixed sweep (several message
// sizes and patterns) reporting accumulated bandwidth.
func RunTable6(s *Scope, ranks int) *Table6Result {
	res := &Table6Result{MBps: make(map[string]float64)}
	sizes := []int{64 << 10, 256 << 10, 1 << 20}
	iters := 30
	for _, mode := range fig9Modes {
		eng := s.newBenchGroup(23, 1, 0).Engine(0)
		net := fabric.New(eng, fabric.DefaultInfiniBand())
		job := apps.NewMPIJob(eng, mkMPIHosts(eng, net), apps.MPIConfig{
			Ranks: ranks, Mode: mode, OffCacheBuffers: 16, PinCacheBytes: 512 << 20,
		})
		totalBytes := int64(0)
		var measureStart, elapsed sim.Time
		// Sequence: for each size run sendrecv then alltoall; the whole
		// sweep runs twice and only the second (warm) pass is measured.
		type phase struct {
			kind string
			size int
		}
		var phases []phase
		for pass := 0; pass < 2; pass++ {
			for _, sz := range sizes {
				phases = append(phases, phase{"sendrecv", sz}, phase{"alltoall", sz})
			}
		}
		half := len(phases) / 2
		idx := 0
		var runNext func()
		runNext = func() {
			if idx == half {
				measureStart = eng.Now()
			}
			if idx >= len(phases) {
				elapsed = eng.Now() - measureStart
				return
			}
			p := phases[idx]
			idx++
			measured := idx > half
			switch p.kind {
			case "sendrecv":
				if measured {
					totalBytes += int64(p.size) * int64(ranks) * int64(iters)
				}
				job.RunSendRecv(p.size, iters, func(sim.Time) { runNext() })
			case "alltoall":
				if measured {
					totalBytes += int64(p.size) * int64(ranks) * int64(ranks-1) * int64(iters)
				}
				job.RunAlltoall(p.size, iters, func(sim.Time) { runNext() })
			}
		}
		runNext()
		eng.Run()
		res.MBps[mode.String()] = float64(totalBytes) / elapsed.Seconds() / 1e6
	}
	return res
}

// Render prints Table 6.
func (r *Table6Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 6: beff-style accumulated bandwidth [MB/s]\n")
	rows := [][]string{{
		fmt.Sprintf("%.0f", r.MBps["pin"]),
		fmt.Sprintf("%.0f", r.MBps["npf"]),
		fmt.Sprintf("%.0f", r.MBps["copy"]),
	}}
	b.WriteString(table([]string{"pinning", "NPF", "copying"}, rows))
	b.WriteString("paper: 16410 / 16440 / 8020 — pin ≈ NPF ≈ 2x copy\n")
	return b.String()
}
