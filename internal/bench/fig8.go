package bench

import (
	"errors"
	"fmt"
	"strings"

	"npf/internal/apps"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// Figure 8 runs at 1/8 of the paper's memory scale: 4 GB LUN → 512 MB, 1 GB
// communication buffers → 128 MB, 4–8 GB RAM → 512–1024 MB, OS/tgt baseline
// 2 GB → 256 MB. The locked-memory budget (20% of RAM) reproduces the
// paper's "fails to load below 5 GB" threshold at the scaled 640 MB point.
const (
	f8Scale    = 8
	f8LUN      = (4 << 30) / f8Scale
	f8CommBuf  = (1 << 30) / f8Scale
	f8Baseline = (2 << 30) / f8Scale
	f8Slot     = 512 << 10 // tgt's fixed per-transaction chunk is NOT scaled
)

// storageRig is one configured target+initiators instance.
type storageRig struct {
	eng    *sim.Engine
	target *apps.StorageTarget
	fios   []*apps.FioInitiator
}

// buildStorageRig assembles the testbed; returns an error when the pinned
// configuration is refused.
func buildStorageRig(s *Scope, seed int64, ramBytes int64, pinned bool, blockSize int, sessions, iodepth int, targetBytes int64) (*storageRig, error) {
	eng := s.newBenchGroup(seed, 1, 0).Engine(0)
	cfg := rc.DefaultConfig()
	cfg.FirmwareJitterSigma = 0
	cfg.MTU = 64 << 10 // jumbo IB MTU keeps event counts tractable
	net := fabric.New(eng, fabric.DefaultInfiniBand())
	m := mem.NewMachine(eng, ramBytes)
	mI := mem.NewMachine(eng, 8<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())
	hcaT, hcaI := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
	drv.AttachHCA(hcaT)
	drv.AttachHCA(hcaI)

	// OS + tgt baseline footprint (unreclaimable).
	baseline := m.NewAddressSpace("baseline", nil)
	baseline.MapBytes(f8Baseline)
	if _, err := baseline.Pin(0, int(f8Baseline/mem.PageSize)); err != nil {
		return nil, fmt.Errorf("baseline does not fit: %w", err)
	}

	asT := m.NewAddressSpace("tgt", nil)
	disk := &mem.SwapDevice{ReadLatency: 400 * sim.Microsecond, ReadBandwidth: 1200e6}
	cache := m.NewPageCache("lun", nil, disk, int64(blockSize))
	tcfg := apps.DefaultStorageTargetConfig()
	tcfg.CommBufBytes = f8CommBuf
	tcfg.SlotBytes = f8Slot
	tcfg.SlotsPerSession = 4
	tcfg.Pinned = pinned
	target, err := apps.NewStorageTarget(asT, cache, tcfg)
	if err != nil {
		return nil, err
	}
	rig := &storageRig{eng: eng, target: target}
	for s := 0; s < sessions; s++ {
		qpT := hcaT.NewQP(asT)
		asI := mI.NewAddressSpace(fmt.Sprintf("fio%d", s), nil)
		qpI := hcaI.NewQP(asI)
		rc.Connect(qpT, qpI)
		if !pinned {
			drv.EnableODPQP(qpT)
		}
		drv.EnableODPQP(qpI)
		target.AddSession(qpT)
		fio := apps.NewFioInitiator(qpI, asI, apps.FioConfig{
			BlockSize: blockSize, IODepth: iodepth,
			LUNBytes: f8LUN, TargetBytes: targetBytes,
		})
		rig.fios = append(rig.fios, fio)
	}
	return rig, nil
}

// Fig8aResult holds bandwidth versus memory size.
type Fig8aResult struct {
	MemGB []float64 // paper-scale GB labels
	NPF   []float64 // GB/s; negative = failed to start
	Pin   []float64
}

// RunFig8a reproduces Figure 8(a): random 512 KB read bandwidth vs memory.
// Each (memory size, pinned) point is an independent job on its own rig.
func RunFig8a(s *Scope) *Fig8aResult {
	res := &Fig8aResult{}
	var rams []int64
	for ram := int64(512 << 20); ram <= 1024<<20; ram += 64 << 20 {
		rams = append(rams, ram)
		res.MemGB = append(res.MemGB, float64(ram*f8Scale)/float64(1<<30))
	}
	res.NPF = make([]float64, len(rams))
	res.Pin = make([]float64, len(rams))
	var jobs []func()
	for ri, ram := range rams {
		ri, ram := ri, ram
		for _, pinned := range []bool{false, true} {
			pinned := pinned
			jobs = append(jobs, func() {
				rig, err := buildStorageRig(s, 31, ram, pinned, 512<<10, 1, 16, 0)
				bw := -1.0
				if err == nil {
					rig.fios[0].Start()
					// Warm the page cache to steady state, then measure.
					rig.eng.RunUntil(3 * sim.Second)
					bytesBefore := rig.fios[0].Bytes.N
					rig.eng.RunUntil(6 * sim.Second)
					bw = float64(rig.fios[0].Bytes.N-bytesBefore) / 3 / 1e9
				} else if !errors.Is(err, apps.ErrPinnedTooLarge) {
					panic(err)
				}
				if pinned {
					res.Pin[ri] = bw
				} else {
					res.NPF[ri] = bw
				}
			})
		}
	}
	s.runJobs(jobs)
	return res
}

// Render prints the bandwidth table.
func (r *Fig8aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8(a): storage bandwidth [GB/s] vs memory (sizes at paper scale; run at 1/8)\n")
	var rows [][]string
	for i := range r.MemGB {
		row := []string{fmt.Sprintf("%.1f GB", r.MemGB[i])}
		for _, v := range []float64{r.NPF[i], r.Pin[i]} {
			if v < 0 {
				row = append(row, "N/A (failed to load)")
			} else {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
		}
		rows = append(rows, row)
	}
	b.WriteString(table([]string{"memory", "npf", "pin"}, rows))
	b.WriteString("paper shape: pin fails below 5 GB; NPF runs at 4 GB; NPF up to 1.9x\n")
	b.WriteString("faster until the pinned config finally caches the whole disk (≥7 GB)\n")
	return b.String()
}

// Fig8bResult holds tgt resident memory versus initiator sessions.
type Fig8bResult struct {
	Sessions []int
	// GB at paper scale, by configuration.
	Pin      []float64
	NPF512KB []float64
	NPF64KB  []float64
}

// RunFig8b reproduces Figure 8(b): tgt memory usage vs #initiators at a
// fixed memory limit, 64 KB vs 512 KB blocks.
func RunFig8b(s *Scope) *Fig8bResult {
	res := &Fig8bResult{Sessions: []int{1, 10, 20, 40, 60, 80}}
	ram := int64((6 << 30) / f8Scale)
	res.Pin = make([]float64, len(res.Sessions))
	res.NPF512KB = make([]float64, len(res.Sessions))
	res.NPF64KB = make([]float64, len(res.Sessions))
	var jobs []func()
	for si, sessions := range res.Sessions {
		si, sessions := si, sessions
		for _, cfg := range []struct {
			pinned bool
			block  int
			out    []float64
		}{
			{true, 512 << 10, res.Pin},
			{false, 512 << 10, res.NPF512KB},
			{false, 64 << 10, res.NPF64KB},
		} {
			cfg := cfg
			jobs = append(jobs, func() {
				rig, err := buildStorageRig(s, 37, ram, cfg.pinned, cfg.block, sessions, 4,
					int64(sessions)*8<<20)
				if err != nil {
					// Pinned at 6 GB (scaled 768 MB): 128 MB < 20% → loads.
					panic(err)
				}
				for _, f := range rig.fios {
					f.Start()
				}
				rig.eng.RunUntil(20 * sim.Second)
				cfg.out[si] = float64(rig.target.CommBufResident()) * f8Scale / float64(1<<30)
			})
		}
	}
	s.runJobs(jobs)
	return res
}

// Render prints the memory-usage table.
func (r *Fig8bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8(b): tgt communication-buffer memory [GB at paper scale] vs sessions\n")
	var rows [][]string
	for i, s := range r.Sessions {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%.2f", r.Pin[i]),
			fmt.Sprintf("%.2f", r.NPF512KB[i]),
			fmt.Sprintf("%.2f", r.NPF64KB[i]),
		})
	}
	b.WriteString(table([]string{"sessions", "pin (any block)", "npf 512KB", "npf 64KB"}, rows))
	b.WriteString("paper shape: pin flat at 1 GB; npf grows with use; 64 KB blocks touch\n")
	b.WriteString("only 1/8 of each fixed 512 KB chunk, so npf-64KB stays far below\n")
	return b.String()
}
