package chaos

import (
	"slices"
	"testing"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/topo"
)

// TestInjectorKeepsOwnPartition pins the injector's reach on a
// two-partition group: Arm keeps only the firmware and drivers on its own
// engine, in order, and a late registration from the other partition
// leaves the targets unchanged.
func TestInjectorKeepsOwnPartition(t *testing.T) {
	fcfg := fabric.DefaultEthernet()
	g := sim.NewGroup(1, 2, fcfg.Lookahead())
	net := fabric.NewOnGroup(g, fcfg)
	ncfg := nic.DefaultConfig()
	spec := topo.HostSpec{NIC: &ncfg}
	a := spec.Build(g.Engine(0), net, nil, "a")
	far := spec.Build(g.Engine(1), net, nil, "far")
	b := spec.Build(g.Engine(0), net, nil, "b")

	ij := Arm(nil, Targets{
		Eng:      g.Engine(0),
		Net:      net,
		Firmware: []*nic.Firmware{&a.Dev.Firmware, &far.Dev.Firmware, &b.Dev.Firmware},
		Drivers:  []*core.Driver{a.Drv, far.Drv, b.Drv},
	})
	wantFW := []*nic.Firmware{&a.Dev.Firmware, &b.Dev.Firmware}
	wantDrv := []*core.Driver{a.Drv, b.Drv}
	check := func(when string) {
		t.Helper()
		if !slices.Equal(ij.T.Firmware, wantFW) {
			t.Fatalf("%s: firmware targets %v, want partition 0's %v", when, ij.T.Firmware, wantFW)
		}
		if !slices.Equal(ij.T.Drivers, wantDrv) {
			t.Fatalf("%s: driver targets %v, want partition 0's %v", when, ij.T.Drivers, wantDrv)
		}
	}
	check("after Arm")
	ij.AddFirmware(&far.Dev.Firmware)
	ij.AddDrivers(far.Drv)
	check("after a late partition-1 registration")

	var none *Injector
	none.AddFirmware(&a.Dev.Firmware)
	none.AddDrivers(a.Drv)
}

func TestGEChainStationaryBehaviour(t *testing.T) {
	p := DefaultGE()
	ge := NewGEChain(p, sim.NewEngine(3).Rand().Split())
	const steps = 400_000
	bad, drops := 0, 0
	for i := 0; i < steps; i++ {
		if ge.Drop() {
			drops++
		}
		if ge.Bad() {
			bad++
		}
	}
	badFrac := float64(bad) / steps
	wantBad := p.StationaryBad()
	if badFrac < wantBad*0.8 || badFrac > wantBad*1.2 {
		t.Errorf("bad-state fraction %.4f, stationary %.4f", badFrac, wantBad)
	}
	lossFrac := float64(drops) / steps
	wantLoss := p.MeanLoss()
	if lossFrac < wantLoss*0.8 || lossFrac > wantLoss*1.2 {
		t.Errorf("loss fraction %.4f, want ~%.4f", lossFrac, wantLoss)
	}
}

func TestGEChainTransitions(t *testing.T) {
	// Deterministic corner: always flip state, always drop while bad.
	ge := NewGEChain(GEParams{PGoodBad: 1, PBadGood: 1, LossBad: 1}, sim.NewEngine(1).Rand())
	for i := 0; i < 10; i++ {
		drop := ge.Drop()
		wantBad := i%2 == 0 // starts Good, flips before the loss draw
		if ge.Bad() != wantBad {
			t.Fatalf("step %d: bad=%v, want %v", i, ge.Bad(), wantBad)
		}
		if drop != wantBad {
			t.Fatalf("step %d: drop=%v in state bad=%v", i, drop, ge.Bad())
		}
	}
	// Degenerate chains never leave their state.
	stuck := NewGEChain(GEParams{PGoodBad: 0, PBadGood: 0, LossBad: 1}, sim.NewEngine(1).Rand())
	for i := 0; i < 100; i++ {
		if stuck.Drop() || stuck.Bad() {
			t.Fatal("chain with PGoodBad=0 left the Good state")
		}
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	cfg := core.Config{RetryBackoffBase: 50 * sim.Microsecond, RetryBackoffMax: 400 * sim.Microsecond}
	want := []sim.Time{
		50 * sim.Microsecond, 100 * sim.Microsecond, 200 * sim.Microsecond,
		400 * sim.Microsecond, 400 * sim.Microsecond, 400 * sim.Microsecond,
	}
	for attempt, w := range want {
		if got := cfg.RetryBackoff(attempt); got != w {
			t.Errorf("attempt %d: backoff %v, want %v", attempt, got, w)
		}
	}
	// Legacy shape: base == max is the historical constant delay.
	legacy := core.DefaultConfig()
	for attempt := 0; attempt < 5; attempt++ {
		if got := legacy.RetryBackoff(attempt); got != 100*sim.Microsecond {
			t.Errorf("default config attempt %d: %v, want 100us", attempt, got)
		}
	}
	// Unset base falls back to 100us; unset max means unbounded doubling.
	var zero core.Config
	if zero.RetryBackoff(0) != 100*sim.Microsecond {
		t.Errorf("zero config base = %v", zero.RetryBackoff(0))
	}
	if zero.RetryBackoff(3) != 800*sim.Microsecond {
		t.Errorf("zero config attempt 3 = %v", zero.RetryBackoff(3))
	}
}
