package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"npf/internal/apps"
	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/topo"
)

// AblateResult collects the design-choice ablations called out in §4's
// "Optimizations" discussion.
type AblateResult struct {
	// Batched vs ATS/PRI-style one-page-per-request faulting of a cold
	// 4 MB message: fault events and total transfer latency.
	BatchedEvents, BatchedMs   float64
	PagewiseEvents, PagewiseMs float64
	// Pin-down cache capacity sweep: alltoall runtime (ms) per capacity.
	PinCapsMB []int
	PinMs     []float64
	// RNR timeout sweep: cold-buffer message latency (ms) per timeout.
	RNRTimeoutsUs []int
	RNRMs         []float64
	// In-flight bitmap suppression (§4): driver fault reports for one
	// cold-ring burst with the firmware optimization on vs off.
	BitmapOnReports, BitmapOffReports float64
	// 2D translation (§2.4): IB stream throughput with and without a guest
	// table (Gb/s).
	FlatGbps, NestedGbps float64
	// §4 future-work extension: read-RNR vs baseline drop+rewind on
	// cold-destination RDMA reads — wasted (dropped) response chunks and
	// total time (ms).
	ReadBaseDrops, ReadExtDrops float64
	ReadBaseMs, ReadExtMs       float64
}

// RunAblate runs the ablations. Every sub-measurement is an independent,
// seed-isolated job executed through the sweep runner; each writes only its
// own result fields, so output does not depend on the Workers fan-out.
func RunAblate(s *Scope) *AblateResult {
	res := &AblateResult{}
	res.PinCapsMB = []int{1, 4, 16, 64}
	res.PinMs = make([]float64, len(res.PinCapsMB))
	res.RNRTimeoutsUs = []int{50, 280, 1000, 5000}
	res.RNRMs = make([]float64, len(res.RNRTimeoutsUs))
	var jobs []func()

	// 1. Scatter-gather batching/prefetch vs one-page-per-request (§4:
	// "minor page fault overhead induced by sending a cold 4MB message
	// would have been prohibitive").
	jobs = append(jobs,
		func() { res.BatchedEvents, res.BatchedMs = ablateColdSend(s, true) },
		func() { res.PagewiseEvents, res.PagewiseMs = ablateColdSend(s, false) },
	)

	// 2. Pin-down cache capacity: shrink it below the off-cache working
	// set and watch eviction thrash (the coarse-grained pinning tradeoff
	// of Table 3).
	for i, mb := range res.PinCapsMB {
		i, mb := i, mb
		jobs = append(jobs, func() {
			eng := s.newBenchGroup(29, 1, 0).Engine(0)
			net := fabric.New(eng, fabric.DefaultInfiniBand())
			job := apps.NewMPIJob(eng, mkMPIHosts(eng, net), apps.MPIConfig{
				Ranks: 4, Mode: apps.RegPin, OffCacheBuffers: 16,
				PinCacheBytes: int64(mb) << 20,
			})
			var elapsed sim.Time
			job.RunAlltoall(128<<10, 50, func(e sim.Time) { elapsed = e })
			eng.Run()
			res.PinMs[i] = float64(elapsed) / float64(sim.Millisecond)
		})
	}

	// 3. RNR timeout: the pause the firmware asks of senders on rNPFs.
	for i, us := range res.RNRTimeoutsUs {
		i, us := i, us
		jobs = append(jobs, func() {
			e := NewIBEnv(IBOpts{Seed: 5, Scope: s, Tweak: func(c *rc.Config) {
				c.RNRTimeout = sim.Time(us) * sim.Microsecond
			}})
			const msg = 64 << 10
			Warm(e.QPA, 0, 2*msg/mem.PageSize)
			done := 0
			var doneAt sim.Time
			e.QPB.OnRecv = func(rc.RecvCompletion) {
				done++
				doneAt = e.EngB.Now()
				if done < 50 {
					// Next message into a fresh cold buffer.
					id := int64(done)
					base := mem.VAddr(done*msg/mem.PageSize) * mem.PageSize
					e.QPB.PostRecv(rc.RecvWQE{ID: id, Addr: base, Len: msg})
					e.EngB.Call(e.Eng, func() {
						e.QPA.PostSend(rc.SendWQE{ID: id, Laddr: 0, Len: msg})
					})
				}
			}
			e.QPB.PostRecv(rc.RecvWQE{ID: 0, Addr: 0, Len: msg})
			e.QPA.PostSend(rc.SendWQE{ID: 0, Laddr: 0, Len: msg})
			e.RunUntil(30 * sim.Second)
			res.RNRMs[i] = float64(doneAt) / float64(sim.Millisecond) / 50
		})
	}

	// 4. In-flight bitmap: suppress duplicate fault reports while a
	// descriptor's resolution is pending (drop policy makes duplicates
	// visible: a burst repeatedly hits the same faulting descriptor).
	jobs = append(jobs,
		func() { res.BitmapOnReports = ablateDropBurst(s, false) },
		func() { res.BitmapOffReports = ablateDropBurst(s, true) },
	)

	// 5. 2D translation overhead: a warm IB stream with and without a
	// guest table (strict protection costs a second-level walk, nothing
	// else).
	jobs = append(jobs,
		func() { res.FlatGbps = ablateStream(s, false) },
		func() { res.NestedGbps = ablateStream(s, true) },
	)

	// 6. The paper's §4 recommendation: extend RC end-to-end flow control
	// to remote reads. Cold-destination reads with the extension suspend
	// the responder; the baseline drops the in-flight stream and rewinds.
	jobs = append(jobs,
		func() { res.ReadBaseDrops, res.ReadBaseMs = ablateReadRNR(s, false) },
		func() { res.ReadExtDrops, res.ReadExtMs = ablateReadRNR(s, true) },
	)

	s.runJobs(jobs)
	return res
}

// ablateColdSend measures a cold 4MB receive with and without scatter-gather
// prefetch, returning fault events and delivery time.
func ablateColdSend(s *Scope, prefetch bool) (events float64, ms float64) {
	e := NewIBEnv(IBOpts{Seed: 3, Scope: s, Tweak: func(c *rc.Config) { c.PrefetchWQE = prefetch }})
	const msg = 4 << 20
	Warm(e.QPA, 0, msg/mem.PageSize) // sender warm; receiver cold
	var doneAt sim.Time
	e.QPB.OnRecv = func(rc.RecvCompletion) { doneAt = e.EngB.Now() }
	e.QPB.PostRecv(rc.RecvWQE{ID: 1, Addr: 0, Len: msg})
	e.QPA.PostSend(rc.SendWQE{ID: 1, Laddr: 0, Len: msg})
	e.RunUntil(10 * sim.Second)
	return float64(e.HCAB.Faults.N), float64(doneAt) / float64(sim.Millisecond)
}

// ablateDropBurst counts driver fault reports for one cold-ring burst under
// the drop policy, with the in-flight bitmap on or off.
func ablateDropBurst(s *Scope, disable bool) float64 {
	eng := s.newBenchGroup(31, 1, 0).Engine(0)
	net := fabric.New(eng, fabric.DefaultEthernet())
	host := topo.HostSpec{RAM: 8 << 30}.Build(eng, net, nil, "u")
	dcfg := nic.DefaultConfig()
	dcfg.FirmwareJitterSigma = 0
	dcfg.DisableInflightBitmap = disable
	dev := host.AttachNIC(net, dcfg, nil)
	as := host.M.NewAddressSpace("u", nil)
	as.MapBytes(1 << 20)
	ch := dev.NewChannel("u", as, 64, nic.PolicyDrop)
	host.Drv.EnableODP(ch)
	for i := 0; i < 64; i++ {
		ch.Rx.PostRx(nic.Descriptor{Buffer: mem.VAddr(i) * mem.PageSize, Len: mem.PageSize})
	}
	src := host.AttachNIC(net, dcfg, nil) // traffic source
	for i := 0; i < 200; i++ {
		net.Send(&fabric.Packet{Src: src.Node, Dst: dev.Node, Flow: ch.Flow, Size: 4096})
	}
	eng.RunUntil(sim.Second)
	return float64(host.Drv.RxReports.N)
}

// ablateReadRNR measures repeated 512KB RDMA reads into cold destinations.
func ablateReadRNR(s *Scope, ext bool) (drops, ms float64) {
	e := NewIBEnv(IBOpts{Seed: 13, Scope: s, Tweak: func(c *rc.Config) {
		c.ReadRNRExtension = ext
		c.ReadWindow = 128
	}})
	Warm(e.QPB, 4096, 1024)
	const reads = 8
	const size = 512 << 10
	done := 0
	var doneAt sim.Time
	var next func()
	next = func() {
		if done >= reads {
			doneAt = e.Eng.Now()
			return
		}
		e.QPA.PostRead(rc.ReadWQE{
			ID:    int64(done),
			Laddr: mem.VAddr(done) * size,
			Raddr: mem.PageNum(4096).Base(),
			Len:   size,
		})
	}
	e.QPA.OnReadComplete = func(int64) { done++; next() }
	next()
	e.RunUntil(10 * sim.Second)
	return float64(e.HCAA.DroppedRNPF.N), float64(doneAt) / float64(sim.Millisecond)
}

// ablateStream measures a warm 64KB IB stream, optionally behind a
// permissive guest table.
func ablateStream(s *Scope, nested bool) float64 {
	e := NewIBEnv(IBOpts{Seed: 9, Scope: s})
	if nested {
		g := iommu.NewGuestTable()
		g.Allow(0, 4096)
		e.QPA.Domain.SetGuestTable(g)
		e.QPB.Domain.SetGuestTable(g)
	}
	const msg = 64 << 10
	Warm(e.QPA, 0, 16*msg/mem.PageSize)
	Warm(e.QPB, 0, 16*msg/mem.PageSize)
	received := 0
	var lastAt sim.Time
	e.QPB.OnRecv = func(rc.RecvCompletion) { received++; lastAt = e.EngB.Now() }
	const count = 200
	for i := 0; i < count; i++ {
		e.QPB.PostRecv(rc.RecvWQE{ID: int64(i), Addr: mem.VAddr(i%16) * msg, Len: msg})
		e.QPA.PostSend(rc.SendWQE{ID: int64(i), Laddr: mem.VAddr(i%16) * msg, Len: msg})
	}
	e.Run()
	if received != count || lastAt == 0 {
		return -1
	}
	return float64(count*msg) * 8 / lastAt.Seconds() / 1e9
}

// Render prints the ablations.
func (r *AblateResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations (§4 design choices)\n\n")
	b.WriteString("1. Cold 4MB message: batched scatter-gather faulting vs ATS/PRI-style\n")
	fmt.Fprintf(&b, "   batched:   %4.0f fault events, %8.2f ms to deliver\n", r.BatchedEvents, r.BatchedMs)
	fmt.Fprintf(&b, "   page-wise: %4.0f fault events, %8.2f ms to deliver\n", r.PagewiseEvents, r.PagewiseMs)
	b.WriteString("   (paper: one page per PRI request would cost >220 ms)\n\n")
	b.WriteString("2. Pin-down cache capacity vs alltoall(128KB, off-cache) runtime:\n")
	for i, mb := range r.PinCapsMB {
		fmt.Fprintf(&b, "   %3d MB: %8.2f ms\n", mb, r.PinMs[i])
	}
	b.WriteString("   (small caches thrash: the coarse-grained pinning tradeoff of Table 3)\n\n")
	b.WriteString("3. RNR timeout vs per-message latency on always-cold buffers:\n")
	for i, us := range r.RNRTimeoutsUs {
		fmt.Fprintf(&b, "   %5d µs: %8.3f ms/msg\n", us, r.RNRMs[i])
	}
	b.WriteString("   (too short: wasted retries; too long: idle link after resolution)\n\n")
	b.WriteString("4. In-flight fault bitmap (drop policy, 200-packet burst on a cold ring):\n")
	fmt.Fprintf(&b, "   suppression on:  %4.0f driver fault reports\n", r.BitmapOnReports)
	fmt.Fprintf(&b, "   suppression off: %4.0f driver fault reports\n", r.BitmapOffReports)
	b.WriteString("   (the firmware bitmap keeps duplicate reports off the slow path)\n\n")
	b.WriteString("5. 2D IOMMU translation (guest table for strict protection, §2.4):\n")
	fmt.Fprintf(&b, "   flat:   %6.2f Gb/s\n", r.FlatGbps)
	fmt.Fprintf(&b, "   nested: %6.2f Gb/s\n", r.NestedGbps)
	b.WriteString("   (protection via the guest level is nearly free at stream rates)\n\n")
	b.WriteString("6. §4 future-work: RC flow control extended to remote reads\n")
	b.WriteString("   (8 × 512KB reads into cold destinations):\n")
	fmt.Fprintf(&b, "   baseline (drop + rewind): %5.0f wasted chunks, %7.2f ms\n", r.ReadBaseDrops, r.ReadBaseMs)
	fmt.Fprintf(&b, "   read-RNR extension:       %5.0f wasted chunks, %7.2f ms\n", r.ReadExtDrops, r.ReadExtMs)
	b.WriteString("   (the initiator suspends the responder like an RNR NACK, so only\n")
	b.WriteString("   the in-flight round trip is wasted)\n")
	return b.String()
}

// LOCResult is the §6.3 programming-complexity comparison, measured on this
// repository's own implementations.
type LOCResult struct {
	PinDownCacheLOC int
	ODPCallSites    int
}

// RunLOC counts lines of code the way §6.3 does: what the pin-down cache
// machinery costs middleware vs what ODP asks of an application.
func RunLOC(repoRoot string) (*LOCResult, error) {
	res := &LOCResult{}
	src, err := os.ReadFile(filepath.Join(repoRoot, "internal", "core", "pinning.go"))
	if err != nil {
		return nil, err
	}
	inPDC := false
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "// PinDownCache") {
			inPDC = true
		}
		if strings.HasPrefix(line, "func ") && !strings.Contains(line, "PinDownCache") {
			inPDC = false
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			continue
		}
		if inPDC {
			res.PinDownCacheLOC++
		}
	}
	// ODP usage in the MPI app: EnableODPQP call sites.
	mpi, err := os.ReadFile(filepath.Join(repoRoot, "internal", "apps", "mpi.go"))
	if err != nil {
		return nil, err
	}
	res.ODPCallSites = strings.Count(string(mpi), "EnableODP")
	return res, nil
}

// Render prints the comparison.
func (r *LOCResult) Render() string {
	var b strings.Builder
	b.WriteString("§6.3 programming complexity (measured on this repository)\n")
	fmt.Fprintf(&b, "  pin-down cache implementation: %d LOC (plus every policy decision)\n", r.PinDownCacheLOC)
	fmt.Fprintf(&b, "  ODP usage in the MPI middleware: %d call site(s) — register once, done\n", r.ODPCallSites)
	b.WriteString("  paper: tgt port to NPFs ≈ 40 LOC changed; pin-down caches cost\n")
	b.WriteString("  thousands of LOC (Firehose: ≈8.5K LOC)\n")
	return b.String()
}
