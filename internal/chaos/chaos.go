// Package chaos is a deterministic fault-injection engine for the simulated
// NPF stack. It perturbs the layers the paper's design must tolerate —
// firmware latency spikes (internal/nic, internal/rc), correlated packet
// loss and link flaps (internal/fabric), delayed or duplicated MMU
// invalidations and memory-pressure waves (internal/mem, internal/core),
// and a slow or wedged fault resolver (internal/core) — through the narrow
// injection hooks those packages expose, never by reaching into their
// internals.
//
// Everything is scheduled on the sim engine from seeded RNG streams split
// at Arm time in deterministic order, so a chaos run replays byte-identical
// for the same seed (the scenarios in internal/bench assert this with
// trace digests).
// Every armed fault and every discrete injected event (a flap, a pressure
// wave, a resolver timeout, a duplicated invalidation) emits an
// internal/trace span in the "chaos" category; high-frequency events
// (individual dropped packets) are counted instead.
package chaos

import (
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

// Targets names the stack objects an Injector may perturb. Any field may be
// nil/empty; faults that need an absent target arm as no-ops. Eng is
// required.
//
// The injector's activations run on Eng, so a fault may touch only state
// of Eng's partition. Arm and AddFirmware/AddDrivers enforce that reach:
// firmware and drivers whose Eng is another engine are dropped, so a
// caller hands over every adapter and driver it has, on one partition or
// many. A mem.Group carries no engine; callers register only groups of
// Eng's partition.
type Targets struct {
	Eng *sim.Engine
	Net *fabric.Network
	// Firmware is the fault path of every targeted adapter, Ethernet NIC
	// or RC HCA alike (FirmwareStall).
	Firmware []*nic.Firmware
	Drivers  []*core.Driver
	Groups   []*mem.Group
	// Tracer receives the "chaos" spans and counters (nil disables, as
	// everywhere else in the stack).
	Tracer *trace.Tracer
}

// Fault is one configured perturbation. Arm schedules its events on the
// injector's engine; it is called exactly once, in Plan order, so any RNG
// stream a fault splits off is deterministic regardless of how the faults
// later interleave at delivery time.
type Fault interface {
	Arm(ij *Injector)
}

// Plan is an ordered list of faults — the unit handed to npf.WithChaos or
// chaos.Arm.
type Plan struct {
	Faults []Fault
}

// NewPlan builds a plan from faults.
func NewPlan(faults ...Fault) *Plan { return &Plan{Faults: faults} }

// Add appends faults and returns the plan for chaining.
func (p *Plan) Add(faults ...Fault) *Plan {
	p.Faults = append(p.Faults, faults...)
	return p
}

// Injector is an armed plan: the bound targets plus the telemetry and RNG
// state the faults share. T is a live pointer — callers that build the
// stack after arming (the root package's cluster facade) may keep
// registering devices and drivers (AddFirmware, AddDrivers) and appending
// groups until the engine runs; faults resolve their targets when they
// activate, not when they arm.
type Injector struct {
	T   *Targets
	rng *sim.Rand

	tr *trace.Tracer

	// Counts of injected events, published as the chaos.* metrics.
	InjectedDrops    sim.Counter
	FirmwareStalls   sim.Counter
	LinkFlaps        sim.Counter
	PressureWaves    sim.Counter
	ResolverTimeouts sim.Counter
	InvDuplicates    sim.Counter
}

// Arm binds a plan to targets and schedules every fault. Call it once per
// run, before Engine.Run; arming is itself deterministic (one RNG split per
// fault, in plan order).
func Arm(p *Plan, t Targets) *Injector {
	if t.Eng == nil {
		panic("chaos: Targets.Eng is required")
	}
	ij := &Injector{
		T:   &Targets{Eng: t.Eng, Net: t.Net, Groups: t.Groups, Tracer: t.Tracer},
		rng: t.Eng.Rand().Split(),
		tr:  t.Tracer,
	}
	ij.AddFirmware(t.Firmware...)
	ij.AddDrivers(t.Drivers...)
	ij.tr.Counter("chaos.injected_drops", &ij.InjectedDrops)
	ij.tr.Counter("chaos.firmware_stalls", &ij.FirmwareStalls)
	ij.tr.Counter("chaos.link_flaps", &ij.LinkFlaps)
	ij.tr.Counter("chaos.pressure_waves", &ij.PressureWaves)
	ij.tr.Counter("chaos.resolver_timeouts", &ij.ResolverTimeouts)
	ij.tr.Counter("chaos.inv_duplicates", &ij.InvDuplicates)
	if p != nil {
		for _, f := range p.Faults {
			f.Arm(ij)
		}
	}
	return ij
}

// AddFirmware registers adapters' firmware with the injector, in order.
// Firmware on another engine than the injector's is out of its reach and
// is dropped. A nil injector (no plan armed) ignores the call.
func (ij *Injector) AddFirmware(fws ...*nic.Firmware) {
	if ij == nil {
		return
	}
	for _, fw := range fws {
		if fw.Eng == ij.T.Eng {
			ij.T.Firmware = append(ij.T.Firmware, fw)
		}
	}
}

// AddDrivers registers NPF drivers with the injector, in order, keeping
// only those on the injector's engine, as AddFirmware does.
func (ij *Injector) AddDrivers(drvs ...*core.Driver) {
	if ij == nil {
		return
	}
	for _, d := range drvs {
		if d.Eng == ij.T.Eng {
			ij.T.Drivers = append(ij.T.Drivers, d)
		}
	}
}

// split returns an independent RNG stream for one fault. Streams are split
// at Arm time in plan order, so each fault's draws are unaffected by what
// the other faults do during the run.
func (ij *Injector) split() *sim.Rand { return ij.rng.Split() }

// record records one injected fault window [start, end) with its kind's
// arguments a and b (trace.ChaosKind names them).
func (ij *Injector) record(kind trace.ChaosKind, start, end sim.Time, a, b int64) {
	ij.tr.FaultContext(trace.FSChaos, start, end-start, a, b, int32(kind))
}

// nodes resolves a fault's target node list: nil means every attached node.
func (ij *Injector) nodes(explicit []fabric.NodeID) []fabric.NodeID {
	if ij.T.Net == nil {
		return nil
	}
	if len(explicit) > 0 {
		return explicit
	}
	return ij.T.Net.NodeIDs()
}

// ---------------------------------------------------------------------------
// Firmware faults (internal/nic's Firmware, shared by NICs and HCAs).

// FirmwareStall stretches the firmware fault-path latency of every NIC and
// HCA during [At, At+Duration): sampled latency becomes lat*Mult + Add.
// It models a firmware scheduling hiccup or a slow error path — the Table 4
// tail made systematic.
type FirmwareStall struct {
	At       sim.Time
	Duration sim.Time
	Mult     float64  // 0 means 1 (no scaling)
	Add      sim.Time // flat extra latency
}

// Arm implements Fault.
func (f FirmwareStall) Arm(ij *Injector) {
	mult := f.Mult
	if mult == 0 {
		mult = 1
	}
	hook := func(lat sim.Time) sim.Time {
		ij.FirmwareStalls.Inc()
		return sim.Time(float64(lat)*mult) + f.Add
	}
	ij.T.Eng.At(f.At, func() {
		ij.record(trace.ChaosFirmwareStall, f.At, f.At+f.Duration, 0, 0)
		for _, fw := range ij.T.Firmware {
			fw.SetFaultDelayHook(hook)
		}
	})
	ij.T.Eng.At(f.At+f.Duration, func() {
		for _, fw := range ij.T.Firmware {
			fw.SetFaultDelayHook(nil)
		}
	})
}

// ---------------------------------------------------------------------------
// Fabric faults (internal/fabric).

// LossBurst drops incoming packets at the target nodes (nil = all) with
// probability Prob during [At, At+Duration) — uncorrelated burst loss, e.g.
// a congested switch tail-dropping.
type LossBurst struct {
	At       sim.Time
	Duration sim.Time
	Prob     float64
	Nodes    []fabric.NodeID
}

// Arm implements Fault.
func (f LossBurst) Arm(ij *Injector) {
	// Targets resolve at activation (so nodes attached after arming count);
	// each node then gets its own stream, split in ascending-NodeID order,
	// so delivery interleaving across nodes cannot shift any node's draws.
	var armed []fabric.NodeID
	ij.T.Eng.At(f.At, func() {
		if ij.T.Net == nil {
			return
		}
		ij.record(trace.ChaosLossBurst, f.At, f.At+f.Duration, int64(f.Prob*1e6), 0)
		for _, nid := range ij.nodes(f.Nodes) {
			rng := ij.split()
			armed = append(armed, nid)
			ij.T.Net.SetLossFunc(nid, func(*fabric.Packet) bool {
				if rng.Bernoulli(f.Prob) {
					ij.InjectedDrops.Inc()
					return true
				}
				return false
			})
		}
	})
	ij.T.Eng.At(f.At+f.Duration, func() {
		for _, nid := range armed {
			ij.T.Net.SetLossFunc(nid, nil)
		}
	})
}

// GilbertElliott applies the two-state Gilbert–Elliott correlated-loss
// model at the target nodes during [At, At+Duration): per delivered packet
// the channel moves Good→Bad with PGoodBad and Bad→Good with PBadGood, and
// drops with LossGood / LossBad depending on the state. Each node gets its
// own chain and RNG stream.
type GilbertElliott struct {
	At       sim.Time
	Duration sim.Time
	Model    GEParams
	Nodes    []fabric.NodeID
}

// Arm implements Fault.
func (f GilbertElliott) Arm(ij *Injector) {
	var armed []fabric.NodeID
	ij.T.Eng.At(f.At, func() {
		if ij.T.Net == nil {
			return
		}
		ij.record(trace.ChaosGilbertElliott, f.At, f.At+f.Duration, 0, 0)
		for _, nid := range ij.nodes(f.Nodes) {
			ge := NewGEChain(f.Model, ij.split())
			armed = append(armed, nid)
			ij.T.Net.SetLossFunc(nid, func(*fabric.Packet) bool {
				if ge.Drop() {
					ij.InjectedDrops.Inc()
					return true
				}
				return false
			})
		}
	})
	ij.T.Eng.At(f.At+f.Duration, func() {
		for _, nid := range armed {
			ij.T.Net.SetLossFunc(nid, nil)
		}
	})
}

// LinkFlap takes a node's link down (both directions blackholed) for Down
// out of every Period, Times times, starting at At — a flapping cable or a
// rebooting ToR port.
type LinkFlap struct {
	Node   fabric.NodeID
	At     sim.Time
	Down   sim.Time
	Period sim.Time // >= Down; defaults to 2*Down
	Times  int      // defaults to 1
}

// Arm implements Fault.
func (f LinkFlap) Arm(ij *Injector) {
	times := f.Times
	if times <= 0 {
		times = 1
	}
	period := f.Period
	if period < f.Down {
		period = 2 * f.Down
	}
	for i := 0; i < times; i++ {
		start := f.At + sim.Time(i)*period
		ij.T.Eng.At(start, func() {
			if ij.T.Net == nil {
				return
			}
			ij.LinkFlaps.Inc()
			ij.record(trace.ChaosLinkFlap, start, start+f.Down, int64(f.Node), 0)
			ij.T.Net.SetLinkDown(f.Node, true)
		})
		ij.T.Eng.At(start+f.Down, func() {
			if ij.T.Net == nil {
				return
			}
			ij.T.Net.SetLinkDown(f.Node, false)
		})
	}
}

// ---------------------------------------------------------------------------
// Memory faults (internal/mem, internal/core).

// MemoryPressure squeezes the target groups (nil target list = all) in
// waves: every Period starting at At, the group limit drops to LowBytes
// (synchronously reclaiming LRU pages — evictions that race in-flight NPFs)
// and recovers to HighBytes half a period later.
type MemoryPressure struct {
	At        sim.Time
	Period    sim.Time
	Waves     int
	LowBytes  int64
	HighBytes int64
	Groups    []*mem.Group // nil = Targets.Groups
}

// Arm implements Fault.
func (f MemoryPressure) Arm(ij *Injector) {
	// Groups resolve at wave time so cgroups registered after arming (the
	// root package's cluster facade builds hosts after NewCluster arms the
	// plan) are still squeezed.
	groups := func() []*mem.Group {
		if f.Groups != nil {
			return f.Groups
		}
		return ij.T.Groups
	}
	for i := 0; i < f.Waves; i++ {
		start := f.At + sim.Time(i)*f.Period
		ij.T.Eng.At(start, func() {
			gs := groups()
			if len(gs) == 0 {
				return
			}
			ij.PressureWaves.Inc()
			var evicted int64
			for _, g := range gs {
				before := g.Used()
				g.SetLimit(f.LowBytes)
				evicted += before - g.Used()
			}
			ij.record(trace.ChaosPressureWave, start, start+f.Period/2, evicted, 0)
		})
		ij.T.Eng.At(start+f.Period/2, func() {
			for _, g := range groups() {
				g.SetLimit(f.HighBytes)
			}
		})
	}
}

// InvalidationChaos perturbs the MMU-notifier flow of every target driver
// during [At, At+Duration): each invalidation is stretched by Extra, and
// with probability DupProb the same unmap is redelivered Duplicates more
// times — the delayed/duplicated notifier ordering the Figure 2 a–d flow
// must tolerate.
type InvalidationChaos struct {
	At         sim.Time
	Duration   sim.Time
	Extra      sim.Time
	Duplicates int
	DupProb    float64 // 0 with Duplicates>0 means always
}

type invalInjector struct {
	f   InvalidationChaos
	ij  *Injector
	rng *sim.Rand
}

func (v *invalInjector) OnInvalidate(first mem.PageNum, count int) (sim.Time, int) {
	now := v.ij.T.Eng.Now()
	if now < v.f.At || now >= v.f.At+v.f.Duration {
		return 0, 0
	}
	dups := v.f.Duplicates
	if v.f.DupProb > 0 && !v.rng.Bernoulli(v.f.DupProb) {
		dups = 0
	}
	if dups > 0 {
		v.ij.InvDuplicates.Add(uint64(dups))
		v.ij.record(trace.ChaosInvDuplicate, now, now+v.f.Extra, int64(first), int64(count))
	}
	return v.f.Extra, dups
}

// Arm implements Fault.
func (f InvalidationChaos) Arm(ij *Injector) {
	inj := &invalInjector{f: f, ij: ij, rng: ij.split()}
	// Install at activation so drivers registered after arming are covered;
	// the injector's own window check handles deactivation.
	ij.T.Eng.At(f.At, func() {
		for _, d := range ij.T.Drivers {
			d.SetInvalidationInjector(inj)
		}
	})
}

// ---------------------------------------------------------------------------
// Resolver faults (internal/core).

// ResolverSlowdown makes every target driver's fault resolution slow or
// wedged during [At, At+Duration): each attempt gains Extra software
// latency and, with probability TimeoutProb, times out entirely — forcing
// the driver's exponential-backoff retry, and eventually its
// MaxNPFRetries escape hatch if the config enables one.
type ResolverSlowdown struct {
	At          sim.Time
	Duration    sim.Time
	Extra       sim.Time
	TimeoutProb float64
}

type resolverInjector struct {
	f   ResolverSlowdown
	ij  *Injector
	rng *sim.Rand
}

func (r *resolverInjector) ResolveDelay(attempt, pages int) (sim.Time, bool) {
	now := r.ij.T.Eng.Now()
	if now < r.f.At || now >= r.f.At+r.f.Duration {
		return 0, false
	}
	if r.f.TimeoutProb > 0 && r.rng.Bernoulli(r.f.TimeoutProb) {
		r.ij.ResolverTimeouts.Inc()
		r.ij.record(trace.ChaosResolverTimeout, now, now+r.f.Extra, int64(attempt), int64(pages))
		return r.f.Extra, true
	}
	return r.f.Extra, false
}

// Arm implements Fault.
func (f ResolverSlowdown) Arm(ij *Injector) {
	inj := &resolverInjector{f: f, ij: ij, rng: ij.split()}
	// Install at activation so drivers registered after arming are covered;
	// the injector's own window check handles deactivation.
	ij.T.Eng.At(f.At, func() {
		for _, d := range ij.T.Drivers {
			d.SetResolverInjector(inj)
		}
	})
}

// ---------------------------------------------------------------------------
// Escape hatch.

// Callback runs Fn at At — for scenario-specific perturbations (targeted
// evictions, mid-run reconfiguration) that don't warrant a fault type.
type Callback struct {
	At sim.Time
	Fn func(ij *Injector)
}

// Arm implements Fault.
func (f Callback) Arm(ij *Injector) {
	ij.T.Eng.At(f.At, func() {
		ij.record(trace.ChaosCallback, f.At, f.At, 0, 0)
		f.Fn(ij)
	})
}
