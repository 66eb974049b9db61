package bench

import (
	"fmt"
	"math"
	"strings"

	"npf/internal/apps"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
)

// Fig10Result holds stream throughput versus synthetic rNPF frequency.
// Frequency is per received page (4 KB), expressed as 2^-Exp.
type Fig10Result struct {
	Exps []int // x axis: fault probability 2^-exp per page
	// Ethernet Gb/s by configuration.
	MinorBrng, MajorBrng, MinorDrop, MajorDrop []float64
	// InfiniBand Gb/s (minor faults) and the optimum for the % axis.
	IBMinor   []float64
	IBOptimum float64
}

// RunFig10 reproduces Figure 10: the what-if analysis under synthetic rNPFs.
// Every (frequency, configuration) stream is an independent job on its own
// engine.
func RunFig10(s *Scope) *Fig10Result {
	res := &Fig10Result{Exps: []int{8, 10, 12, 14, 16, 18, 20}}
	n := len(res.Exps)
	res.MinorBrng = make([]float64, n)
	res.MajorBrng = make([]float64, n)
	res.MinorDrop = make([]float64, n)
	res.MajorDrop = make([]float64, n)
	res.IBMinor = make([]float64, n)
	var jobs []func()
	for i, exp := range res.Exps {
		i := i
		perByte := math.Pow(2, -float64(exp)) / float64(mem.PageSize)
		jobs = append(jobs,
			func() { res.MinorBrng[i] = runEthStream(s, perByte, false, true) },
			func() { res.MajorBrng[i] = runEthStream(s, perByte, true, true) },
			func() { res.MinorDrop[i] = runEthStream(s, perByte, false, false) },
			func() { res.MajorDrop[i] = runEthStream(s, perByte, true, false) },
			func() { res.IBMinor[i] = runIBStream(s, perByte) },
		)
	}
	jobs = append(jobs, func() { res.IBOptimum = runIBStream(s, 0) })
	s.runJobs(jobs)
	return res
}

// runEthStream measures one Ethernet stream configuration (Gb/s).
func runEthStream(s *Scope, freqPerByte float64, major, backup bool) float64 {
	eng := s.newBenchGroup(41, 1, 0).Engine(0)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 8<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())
	mkStack := func(name string, pol nic.FaultPolicy) *tcp.Stack {
		dcfg := nic.DefaultConfig()
		dcfg.FirmwareJitterSigma = 0
		dev := nic.NewDevice(eng, net, dcfg)
		drv.AttachDevice(dev)
		as := m.NewAddressSpace(name, nil)
		ch := dev.NewChannel(name, as, 256, pol, 256)
		drv.EnableODP(ch)
		st := tcp.NewStack(ch, tcp.DefaultConfig())
		st.WarmBuffers() // pre-fault the ring: no cold-ring effects here
		return st
	}
	pol := nic.PolicyDrop
	if backup {
		pol = nic.PolicyBackup
	}
	recv := mkStack("recv", pol)
	send := mkStack("send", nic.PolicyBackup)
	strm := apps.NewEthStream(send, recv, 64<<10, 64<<20)
	if freqPerByte > 0 {
		rxBase, rxLen := recv.RxBuffers()
		strm.Injector = apps.NewFaultInjector(recv.Channel().AS, rxBase.Page(),
			int(rxLen/mem.PageSize), freqPerByte, major)
	}
	strm.Start()
	eng.RunUntil(120 * sim.Second)
	return strm.ThroughputGbps(eng.Now())
}

// runIBStream measures the ib_send_bw-style configuration (Gb/s).
func runIBStream(s *Scope, freqPerByte float64) float64 {
	eng := s.newBenchGroup(43, 1, 0).Engine(0)
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	m := mem.NewMachine(eng, 8<<30)
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	drv := core.NewDriver(eng, core.DefaultConfig())
	hcaS, hcaR := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
	drv.AttachHCA(hcaS)
	drv.AttachHCA(hcaR)
	asS := m.NewAddressSpace("s", nil)
	asR := m.NewAddressSpace("r", nil)
	snd, rcv := hcaS.NewQP(asS), hcaR.NewQP(asR)
	rc.Connect(snd, rcv)
	drv.EnableODPQP(snd)
	drv.EnableODPQP(rcv)
	strm := apps.NewIBStream(snd, rcv, 64<<10, 128<<20)
	if freqPerByte > 0 {
		base, pages := strm.RecvRegion()
		strm.Injector = apps.NewFaultInjector(asR, base, pages, freqPerByte, false)
	}
	strm.Start()
	eng.RunUntil(120 * sim.Second)
	return strm.ThroughputGbps(eng.Now())
}

// Render prints both panels.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 10: stream throughput vs synthetic rNPF frequency (per 4KB page)\n\n")
	b.WriteString("Ethernet [Gb/s]:\n")
	var rows [][]string
	for i, exp := range r.Exps {
		rows = append(rows, []string{
			fmt.Sprintf("2^-%d", exp),
			fmt.Sprintf("%.2f", r.MinorBrng[i]),
			fmt.Sprintf("%.2f", r.MajorBrng[i]),
			fmt.Sprintf("%.2f", r.MinorDrop[i]),
			fmt.Sprintf("%.2f", r.MajorDrop[i]),
		})
	}
	b.WriteString(table([]string{"freq", "minor brng", "major brng", "minor drop", "major drop"}, rows))
	b.WriteString("\nInfiniBand [Gb/s and % of optimum], minor faults:\n")
	rows = nil
	for i, exp := range r.Exps {
		rows = append(rows, []string{
			fmt.Sprintf("2^-%d", exp),
			fmt.Sprintf("%.1f", r.IBMinor[i]),
			fmt.Sprintf("%.0f%%", 100*r.IBMinor[i]/r.IBOptimum),
		})
	}
	b.WriteString(table([]string{"freq", "Gb/s", "% optimum"}, rows))
	fmt.Fprintf(&b, "optimum (no faults): %.1f Gb/s\n", r.IBOptimum)
	b.WriteString("paper shape: backup ring >> drop at every frequency; drop is equally\n")
	b.WriteString("bad for minor and major (TCP's RTO dwarfs the fault type); backup\n")
	b.WriteString("degrades with major faults; IB's RNR-based hardware solution recovers\n")
	b.WriteString("quickly but wastes more of the link than the backup ring\n")
	return b.String()
}
