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
// that partition's engine. A tracer is driven by its own engine only, so a
// one-partition group has exactly one, shared by every side of the env.
func partTracers(g *sim.Group, mk func(*sim.Engine) *trace.Tracer) []*trace.Tracer {
	trs := make([]*trace.Tracer, g.Parts())
	for i, eng := range g.Engines() {
		trs[i] = mk(eng)
	}
	return trs
}

// EthHost bundles one Ethernet endpoint: device, address space, channel
// and stack.
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
	// Tracer is non-nil when the env was built on a scope with a Trace
	// factory. It lives on the server engine; the client host runs
	// untraced.
	Tracer *trace.Tracer

	srv, cli *topo.Host
}

// Run drives the env to quiescence and returns the end time.
func (e *EthEnv) Run() sim.Time { return e.G.Run() }

// RunUntil advances every host of the env to t.
func (e *EthEnv) RunUntil(t sim.Time) sim.Time { return e.G.RunUntil(t) }

// EthOpts configures the testbed.
type EthOpts struct {
	Seed      int64
	ServerRAM int64           // default 8 GiB
	Policy    nic.FaultPolicy // server ring policy
	RingSize  int             // server ring entries (default 64)
	// Scope is the run the env belongs to (nil: the default run).
	Scope *Scope
}

// NewEthEnv builds the testbed. The client is always statically pinned
// (unmodified); the server is pinned or ODP per Policy. Both NICs run
// without firmware jitter.
func NewEthEnv(o EthOpts) *EthEnv {
	if o.ServerRAM == 0 {
		o.ServerRAM = 8 << 30
	}
	if o.RingSize == 0 {
		o.RingSize = 64
	}
	ncfg := nic.DefaultConfig()
	ncfg.FirmwareJitterSigma = 0
	fcfg := fabric.DefaultEthernet()
	g := o.Scope.newEnvGroup(o.Seed+1, fcfg.Lookahead())
	eng, ceng := g.Engine(0), g.Engine(g.Parts()-1)
	tr := o.Scope.tracer(eng)
	net := fabric.NewOnGroup(g, fcfg)
	// The machines and drivers come first (they split no RNG, so the
	// per-host grouping preserves seeded results). The NICs attach
	// afterwards, server first, in the order their RNGs split.
	srv := topo.HostSpec{RAM: o.ServerRAM}.Build(eng, net, tr, "server")
	cli := topo.HostSpec{RAM: 8 << 30}.Build(ceng, net, nil, "client")
	e := &EthEnv{Eng: eng, G: g, ClientEng: ceng, Net: net, M: srv.M,
		ClientM: cli.M, Drv: srv.Drv, ClientDrv: cli.Drv, Tracer: tr, srv: srv, cli: cli}
	// The server device is the traced one; stacks inherit the tracer from
	// their device at construction, so it is set before any endpoint.
	srv.AttachNIC(net, ncfg, tr)
	var err error
	if e.Server, err = newEndpoint(srv, "server", o.Policy, o.RingSize, nil, 0); err != nil {
		panic(fmt.Sprintf("bench: pinning server: %v", err))
	}
	cli.AttachNIC(net, ncfg, nil)
	if e.Client, err = newEndpoint(cli, "client", nic.PolicyPinned, 256, nil, 0); err != nil {
		panic(fmt.Sprintf("bench: pinning client: %v", err))
	}
	return e
}

// AddServerInstance adds another IOuser (channel+stack) on the server NIC —
// one more "VM" for the overcommitment experiments. vmBytes maps the VM's
// guest-physical memory in its address space before the stack's buffers.
// Pinned instances whose memory does not fit return an error (the paper's
// Table 5 "N/A").
func (e *EthEnv) AddServerInstance(name string, policy nic.FaultPolicy, ringSize int, cgroup *mem.Group, vmBytes int64) (*EthHost, error) {
	h, err := newEndpoint(e.srv, name, policy, ringSize, cgroup, vmBytes)
	if err != nil {
		return nil, fmt.Errorf("bench: pinning %s: %w", name, err)
	}
	return h, nil
}

// AddClientInstance adds another (pinned) client stack on the client NIC.
func (e *EthEnv) AddClientInstance(name string) *EthHost {
	h, err := newEndpoint(e.cli, name, nic.PolicyPinned, 256, nil, 0)
	if err != nil {
		panic(err)
	}
	return h
}

// newEndpoint opens one IOuser on host's NIC: an address space (with
// vmBytes mapped first), a channel, on-demand paging or a static pin per
// policy, and a TCP stack. A static pin that does not fit returns its
// error; the caller decides whether that is fatal.
func newEndpoint(host *topo.Host, name string, policy nic.FaultPolicy, ringSize int, cgroup *mem.Group, vmBytes int64) (*EthHost, error) {
	h := &EthHost{Dev: host.Dev}
	h.AS = host.M.NewAddressSpace(name, cgroup)
	if vmBytes > 0 {
		h.AS.MapBytes(vmBytes)
	}
	h.Chan = h.Dev.NewChannel(name, h.AS, ringSize, policy)
	if policy != nic.PolicyPinned {
		host.Drv.EnableODP(h.Chan)
	}
	h.Stack = tcp.NewStack(h.Chan, tcp.DefaultConfig())
	if policy == nic.PolicyPinned {
		if _, err := core.StaticPinAll(h.AS, h.Chan.Domain); err != nil {
			return nil, err
		}
	}
	return h, nil
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
	// Tracer is non-nil when the env was built on a scope with a Trace
	// factory. Each side's tracer is its partition's:
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
	Jitter bool // keep the HCAs' firmware jitter (default off)
	Tweak  func(*rc.Config)
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
	if o.Tweak != nil {
		o.Tweak(&cfg)
	}
	fcfg := fabric.DefaultInfiniBand()
	g := o.Scope.newEnvGroup(o.Seed+1, fcfg.Lookahead())
	trs := partTracers(g, o.Scope.tracer)
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
