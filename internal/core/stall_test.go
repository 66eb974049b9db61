package core

import (
	"testing"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
)

// TestFirmwareDelayHook drives the one firmware fault path through both
// adapter kinds: with jitter off, a delay hook of 3×lat + 100 µs stretches
// the driver's trigger stage to IntLatency + 3×FirmwareFault + 100 µs, and
// removing the hook restores IntLatency + FirmwareFault (133 µs).
func TestFirmwareDelayHook(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns the adapter's firmware, its driver and a func that
		// makes the adapter take one cold fault on buffer i.
		build func(eng *sim.Engine, m *mem.Machine) (*nic.Firmware, *Driver, func(i int))
	}{
		{"nic", func(eng *sim.Engine, m *mem.Machine) (*nic.Firmware, *Driver, func(int)) {
			net := fabric.New(eng, fabric.DefaultEthernet())
			cfg := nic.DefaultConfig()
			cfg.FirmwareJitterSigma = 0
			dev, peer := nic.NewDevice(eng, net, cfg), nic.NewDevice(eng, net, cfg)
			drv := NewDriver(eng, DefaultConfig())
			drv.AttachDevice(dev)
			as := m.NewAddressSpace("tx", nil)
			as.MapBytes(1 << 20)
			ch := dev.NewChannel("tx", as, 16, nic.PolicyBackup)
			drv.EnableODP(ch)
			// A send from a cold buffer takes a TX NPF.
			return &dev.Firmware, drv, func(i int) {
				ch.Tx.Post(nic.TxDesc{Buffer: mem.VAddr(i) * mem.PageSize, Len: mem.PageSize,
					Frame: &fabric.Packet{Dst: peer.Node}})
			}
		}},
		{"hca", func(eng *sim.Engine, m *mem.Machine) (*nic.Firmware, *Driver, func(int)) {
			net := fabric.New(eng, fabric.DefaultInfiniBand())
			cfg := rc.DefaultConfig()
			cfg.FirmwareJitterSigma = 0
			hcaA, hcaB := rc.NewHCA(eng, net, cfg), rc.NewHCA(eng, net, cfg)
			drv := NewDriver(eng, DefaultConfig())
			drv.AttachHCA(hcaA)
			drv.AttachHCA(hcaB)
			asA, asB := m.NewAddressSpace("a", nil), m.NewAddressSpace("b", nil)
			asA.MapBytes(1 << 20)
			asB.MapBytes(1 << 20)
			a, b := hcaA.NewQP(asA), hcaB.NewQP(asB)
			rc.Connect(a, b)
			drv.EnableODPQP(a)
			drv.EnableODPQP(b)
			if _, err := asA.TouchPages(0, 1, true); err != nil {
				t.Fatal(err)
			}
			a.Domain.Map(0, 1)
			// A warm send into a cold receive buffer takes an rNPF on B.
			return &hcaB.Firmware, drv, func(i int) {
				b.PostRecv(rc.RecvWQE{ID: int64(i), Addr: mem.VAddr(i) * mem.PageSize, Len: mem.PageSize})
				a.PostSend(rc.SendWQE{ID: int64(i), Len: mem.PageSize})
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			fw, drv, fault := tc.build(eng, mem.NewMachine(eng, 1<<30))
			fwc := nic.DefaultFirmware()
			trig := &drv.Hist.Trigger

			fw.SetFaultDelayHook(func(lat sim.Time) sim.Time { return 3*lat + 100*sim.Microsecond })
			fault(1)
			eng.Run()
			want := fwc.IntLatency + 3*fwc.FirmwareFault + 100*sim.Microsecond
			if trig.Count() != 1 || trig.Max() != want.Micros() {
				t.Errorf("hooked: %d faults, trigger %.3f µs, want 1 at %v", trig.Count(), trig.Max(), want)
			}

			fw.SetFaultDelayHook(nil)
			fault(2)
			eng.Run()
			want = fwc.IntLatency + fwc.FirmwareFault
			if trig.Count() != 2 || trig.Percentile(0) != want.Micros() || want != 133*sim.Microsecond {
				t.Errorf("unhooked: %d faults, trigger %.3f µs, want a second at %v (133 µs)", trig.Count(), trig.Percentile(0), want)
			}
		})
	}
}
