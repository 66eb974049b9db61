package bench

import (
	"testing"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
)

// BenchmarkFaultPath measures one end-to-end minor rNPF on the IB stack:
// a 4 KB message lands in a cold receive buffer, the HCA raises the fault,
// the driver resolves it, the page table updates, and delivery resumes. The
// page is discarded after every iteration so each receive faults again.
// This is the simulated fault pipeline itself — the figure most sensitive
// to engine-scheduling overhead.
func BenchmarkFaultPath(b *testing.B) {
	e := NewIBEnv(IBOpts{Seed: 1})
	const window = 8
	Warm(e.QPA, 0, 2) // sender warm; receiver always cold
	e.QPB.OnRecv = func(rc.RecvCompletion) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := mem.PageNum(i % window)
		e.QPB.PostRecv(rc.RecvWQE{ID: int64(i), Addr: mem.VAddr(page) * mem.PageSize, Len: mem.PageSize})
		e.QPA.PostSend(rc.SendWQE{ID: int64(i), Laddr: 0, Len: mem.PageSize})
		e.Eng.Run()
		e.ASB.DiscardPages(page, 1)
	}
}

// BenchmarkBackupReplay measures the Ethernet backup-ring path: a packet
// arrives for a cold descriptor, diverts to the backup ring, and is replayed
// into the original buffer once the driver resolves the fault. Each
// iteration discards the buffer page so the next packet diverts again.
func BenchmarkBackupReplay(b *testing.B) {
	eng := sim.NewEngine(2)
	net := fabric.New(eng, fabric.DefaultEthernet())
	m := mem.NewMachine(eng, 8<<30)
	drv := core.NewDriver(eng, core.DefaultConfig())
	dcfg := nic.DefaultConfig()
	dcfg.FirmwareJitterSigma = 0
	dev := nic.NewDevice(eng, net, dcfg)
	drv.AttachDevice(dev)
	as := m.NewAddressSpace("u", nil)
	as.MapBytes(1 << 20)
	ch := dev.NewChannel("u", as, 64, nic.PolicyBackup, 64)
	drv.EnableODP(ch)
	src := nic.NewDevice(eng, net, dcfg) // traffic source
	drv.AttachDevice(src)
	const window = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := mem.PageNum(i % window)
		ch.Rx.PostRx(nic.Descriptor{Buffer: mem.VAddr(page) * mem.PageSize, Len: mem.PageSize})
		net.Send(&fabric.Packet{Src: src.Node, Dst: dev.Node, Flow: ch.Flow, Size: 4096})
		eng.Run()
		as.DiscardPages(page, 1)
	}
}

// TestEngineMicrobenchAllocFree pins the -json artifact's engine_bench row:
// the fixed-count run reports 0 allocs/op, the value CI asserts.
func TestEngineMicrobenchAllocFree(t *testing.T) {
	if got := EngineMicrobench().AllocsPerOp; got != 0 {
		t.Fatalf("EngineMicrobench allocs/op = %d, want 0", got)
	}
}
