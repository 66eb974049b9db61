// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated stack. Each experiment has a Run
// function returning a result struct with a Render method that prints the
// same rows/series the paper reports, plus paper-reference values where
// useful. EXPERIMENTS.md records paper-vs-measured for each.
package bench

import (
	"fmt"
	"strings"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
	"npf/internal/topo"
	"npf/internal/trace"
)

// MaxEngineEvents bounds every experiment engine: the heaviest shipped
// experiments execute a few tens of millions of events, so a runaway
// scenario (a stuck retransmission loop, an event chain that never
// converges) trips the engine's diagnostic panic instead of hanging CI.
const MaxEngineEvents = 2_000_000_000

// partTracers returns one tracer per partition of g, each made by mk on
// that partition's engine; all nil when mk is nil. A tracer is driven by
// its own engine only, so a one-partition group has exactly one, shared
// by every side of the env.
func partTracers(g *sim.Group, mk func(*sim.Engine) *trace.Tracer) []*trace.Tracer {
	trs := make([]*trace.Tracer, g.Parts())
	if mk != nil {
		for i, eng := range g.Engines() {
			trs[i] = mk(eng)
		}
	}
	return trs
}

// EthHost bundles one Ethernet endpoint: device, channel, stack, driver.
type EthHost struct {
	Dev   *nic.Device
	AS    *mem.AddressSpace
	Chan  *nic.Channel
	Stack *tcp.Stack
}

// EthEnv is a two-host Ethernet testbed like the paper's (§6 setup): a
// server with the NPF-supporting prototype NIC and an unmodified client.
type EthEnv struct {
	Eng     *sim.Engine
	Net     *fabric.Network
	M       *mem.Machine // server machine
	ClientM *mem.Machine
	Drv     *core.Driver
	Server  *EthHost
	Client  *EthHost
	// G is the env's engine group (see newEnvGroup): the server lives on
	// partition 0 (Eng) and the client on the last partition (ClientEng),
	// which with one partition is Eng itself. ClientDrv is the client
	// host's own driver.
	G         *sim.Group
	ClientEng *sim.Engine
	ClientDrv *core.Driver
	// Tracer is non-nil when the env was built with EthOpts.Trace or on a
	// scope with a Trace factory. It lives on the server engine; the client
	// host runs untraced.
	Tracer *trace.Tracer
}

// Run drives the env to quiescence and returns the end time.
func (e *EthEnv) Run() sim.Time { return e.G.Run() }

// RunUntil advances every host of the env to t.
func (e *EthEnv) RunUntil(t sim.Time) sim.Time { return e.G.RunUntil(t) }

// EthOpts configures the testbed.
type EthOpts struct {
	Seed         int64
	ServerRAM    int64
	Policy       nic.FaultPolicy // server ring policy
	RingSize     int
	ServerCgroup *mem.Group
	PrefaultRing bool
	Jitter       bool
	Trace        bool // attach a trace.Tracer even without a Trace factory
	// Scope is the run the env belongs to (nil: the default run).
	Scope *Scope
}

// NewEthEnv builds the testbed. The client is always statically pinned
// (unmodified); the server is pinned or ODP per Policy.
func NewEthEnv(o EthOpts) *EthEnv {
	if o.ServerRAM == 0 {
		o.ServerRAM = 8 << 30
	}
	if o.RingSize == 0 {
		o.RingSize = 64
	}
	dcfg := core.DefaultConfig()
	dcfg.PrefaultRing = o.PrefaultRing
	fcfg := fabric.DefaultEthernet()
	g := o.Scope.newEnvGroup(o.Seed+1, fcfg.Lookahead())
	eng, ceng := g.Engine(0), g.Engine(g.Parts()-1)
	tr := o.Scope.tracer(eng, o.Trace)
	net := fabric.NewOnGroup(g, fcfg)
	// One spec stamps out both substrates (machines and drivers don't
	// split RNGs, so the per-host grouping preserves seeded results).
	spec := topo.HostSpec{RAM: o.ServerRAM, Driver: dcfg}
	srv := spec.Build(eng, net, tr, "server")
	spec.RAM = 8 << 30
	cli := spec.Build(ceng, net, nil, "client")
	e := &EthEnv{Eng: eng, G: g, ClientEng: ceng, Net: net, M: srv.M,
		ClientM: cli.M, Drv: srv.Drv, ClientDrv: cli.Drv, Tracer: tr}
	e.Server = e.newHost(e.Eng, e.Drv, e.M, "server", o.Policy, o.RingSize, o.ServerCgroup, o.Jitter)
	e.Client = e.newHost(e.ClientEng, e.ClientDrv, e.ClientM, "client", nic.PolicyPinned, 256, nil, o.Jitter)
	return e
}

// AddServerInstance adds another IOuser (channel+stack) on the server NIC —
// one more "VM" for the overcommitment experiments. vmBytes maps the VM's
// guest-physical memory in its address space before the stack's buffers.
// Pinned instances whose memory does not fit return an error (the paper's
// Table 5 "N/A").
func (e *EthEnv) AddServerInstance(name string, policy nic.FaultPolicy, ringSize int, cgroup *mem.Group, vmBytes int64) (*EthHost, error) {
	h := &EthHost{Dev: e.Server.Dev}
	h.AS = e.M.NewAddressSpace(name, cgroup)
	if vmBytes > 0 {
		h.AS.MapBytes(vmBytes)
	}
	h.Chan = h.Dev.NewChannel(name, h.AS, ringSize, policy, ringSize)
	if policy != nic.PolicyPinned {
		e.Drv.EnableODP(h.Chan)
	}
	h.Stack = tcp.NewStack(h.Chan, tcp.DefaultConfig())
	if policy == nic.PolicyPinned {
		if _, err := core.StaticPinAll(h.AS, h.Chan.Domain); err != nil {
			return nil, fmt.Errorf("bench: pinning %s: %w", name, err)
		}
	}
	return h, nil
}

// AddClientInstance adds another (pinned) client stack on the client NIC.
func (e *EthEnv) AddClientInstance(name string) *EthHost {
	h := &EthHost{Dev: e.Client.Dev}
	h.AS = e.ClientM.NewAddressSpace(name, nil)
	h.Chan = h.Dev.NewChannel(name, h.AS, 256, nic.PolicyPinned, 256)
	h.Stack = tcp.NewStack(h.Chan, tcp.DefaultConfig())
	if _, err := core.StaticPinAll(h.AS, h.Chan.Domain); err != nil {
		panic(err)
	}
	return h
}

func (e *EthEnv) newHost(eng *sim.Engine, drv *core.Driver, m *mem.Machine, name string, policy nic.FaultPolicy, ringSize int, cgroup *mem.Group, jitter bool) *EthHost {
	dcfg := nic.DefaultConfig()
	if !jitter {
		dcfg.FirmwareJitterSigma = 0
	}
	dev := nic.NewDevice(eng, e.Net, dcfg)
	// The server device is the traced one; stacks inherit the tracer from
	// their device at construction, so set it before tcp.NewStack below.
	if name == "server" {
		dev.SetTracer(e.Tracer)
	}
	drv.AttachDevice(dev)
	h := &EthHost{Dev: dev}
	h.AS = m.NewAddressSpace(name, cgroup)
	h.Chan = dev.NewChannel(name, h.AS, ringSize, policy, ringSize)
	if policy != nic.PolicyPinned {
		drv.EnableODP(h.Chan)
	}
	h.Stack = tcp.NewStack(h.Chan, tcp.DefaultConfig())
	if policy == nic.PolicyPinned {
		if _, err := core.StaticPinAll(h.AS, h.Chan.Domain); err != nil {
			panic(fmt.Sprintf("bench: pinning %s: %v", name, err))
		}
	}
	return h
}

// IBEnv is a pair of InfiniBand hosts with ODP drivers.
type IBEnv struct {
	Eng        *sim.Engine
	Net        *fabric.Network
	MA, MB     *mem.Machine
	DrvA, DrvB *core.Driver
	HCAA, HCAB *rc.HCA
	ASA, ASB   *mem.AddressSpace
	QPA, QPB   *rc.QP
	// G is the env's engine group (see newEnvGroup): side A lives on
	// partition 0 (Eng) and side B on the last partition (EngB), which
	// with one partition is Eng itself.
	G    *sim.Group
	EngB *sim.Engine
	// Tracer is non-nil when the env was built with IBOpts.Trace or on a
	// scope with a Trace factory. Each side's tracer is its partition's:
	// Tracer belongs to side A and TracerB to side B, the same tracer with
	// one partition.
	Tracer  *trace.Tracer
	TracerB *trace.Tracer
}

// Run drives the env to quiescence and returns the end time.
func (e *IBEnv) Run() sim.Time { return e.G.Run() }

// RunUntil advances both sides of the env to t.
func (e *IBEnv) RunUntil(t sim.Time) sim.Time { return e.G.RunUntil(t) }

// IBOpts configures the IB testbed.
type IBOpts struct {
	Seed   int64
	Jitter bool
	MTU    int
	Tweak  func(*rc.Config)
	Trace  bool // attach a trace.Tracer even without a Trace factory
	// Scope is the run the env belongs to (nil: the default run).
	Scope *Scope
}

// NewIBEnv builds a two-node IB testbed with a connected, ODP-enabled QP
// pair.
func NewIBEnv(o IBOpts) *IBEnv {
	cfg := rc.DefaultConfig()
	if !o.Jitter {
		cfg.FirmwareJitterSigma = 0
	}
	if o.MTU != 0 {
		cfg.MTU = o.MTU
	}
	if o.Tweak != nil {
		o.Tweak(&cfg)
	}
	fcfg := fabric.DefaultInfiniBand()
	g := o.Scope.newEnvGroup(o.Seed+1, fcfg.Lookahead())
	trs := partTracers(g, func(eng *sim.Engine) *trace.Tracer { return o.Scope.tracer(eng, o.Trace) })
	e := &IBEnv{Eng: g.Engine(0), G: g, EngB: g.Engine(g.Parts() - 1),
		Net: fabric.NewOnGroup(g, fcfg), Tracer: trs[0], TracerB: trs[len(trs)-1]}
	// The spec builds the sides back to back, A first, so HCA A's RNG
	// splits before HCA B's on a shared engine.
	spec := topo.HostSpec{RAM: 128 << 30, HCA: &cfg}
	a, b := spec.Build(e.Eng, e.Net, e.Tracer, "a"), spec.Build(e.EngB, e.Net, e.TracerB, "b")
	e.MA, e.MB = a.M, b.M
	e.DrvA, e.DrvB = a.Drv, b.Drv
	e.HCAA, e.HCAB = a.HCA, b.HCA
	e.ASA = e.MA.NewAddressSpace("a", nil)
	e.ASA.MapBytes(8 << 30)
	e.ASB = e.MB.NewAddressSpace("b", nil)
	e.ASB.MapBytes(8 << 30)
	e.QPA, e.QPB = e.HCAA.NewQP(e.ASA), e.HCAB.NewQP(e.ASB)
	rc.Connect(e.QPA, e.QPB)
	e.DrvA.EnableODPQP(e.QPA)
	e.DrvB.EnableODPQP(e.QPB)
	return e
}

// Warm makes a page range resident and mapped on one side.
func Warm(qp *rc.QP, first mem.PageNum, pages int) {
	if _, err := qp.AS.TouchPages(first, pages, true); err != nil {
		panic(err)
	}
	qp.Domain.Map(first, pages)
}

// ---------------------------------------------------------------------------
// Rendering helpers.

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	all := append([][]string{header}, rows...)
	widths := make([]int, len(header))
	for _, row := range all {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for r, row := range all {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if r == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
