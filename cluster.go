package npf

import (
	"fmt"

	"npf/internal/chaos"
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/topo"
	"npf/internal/trace"
)

// Cluster is a convenience wrapper bundling an engine, a fabric, and host
// construction — the few lines every simulation starts with. Configure it
// with functional options:
//
//	cluster := npf.NewCluster(npf.WithSeed(42), npf.WithFabric(npf.EthernetFabric()))
type Cluster struct {
	// Eng is partition 0's engine, where chaos plans and the KV service
	// live; on a single-engine cluster it is the only engine.
	Eng *Engine
	Net *Network
	// Group is the conservative-lookahead PDES group the cluster runs
	// under: WithEngines(n) partitions for n > 1, one partition (the
	// single-engine mode) otherwise. Use Run/RunUntil (or Group.Run
	// directly) to drive the cluster; on a partitioned cluster Eng.Run
	// would advance partition 0 alone.
	Group *EngineGroup
	// Tracer is non-nil when the cluster was built with WithTracing or
	// WithChaos; it is wired through every host built afterwards. On a
	// partitioned cluster it is partition 0's tracer — each partition owns
	// one (Tracers), since a tracer may only be driven by its own engine.
	Tracer *Tracer
	// Tracers holds one tracer per partition when tracing is on
	// (Tracers[0] == Tracer); a single-engine cluster has just the one.
	Tracers []*Tracer
	// Sampler is non-nil when the cluster was built with WithSampling; it
	// snapshots all metrics every interval of virtual time. On a
	// partitioned cluster it samples partition 0's tracer.
	Sampler *Sampler
	// KV is non-nil when the cluster was built with WithKV: a sharded,
	// replicated key-value service deployed across the fabric.
	KV *KVService
	// Swarm is non-nil when the cluster was built with WithSwarm: a
	// scale-out sweep (O(10^3) hosts, O(10^5..10^6) logical clients) over
	// the cluster's fabric. It starts automatically on Run; read
	// Swarm.Result() afterwards.
	Swarm *ClusterSweep

	injector *chaos.Injector
	nextPart int
}

// NewCluster creates an engine group and fabric in one call. Defaults:
// seed 1, Ethernet fabric, one partition (a single engine), no tracing,
// no chaos.
func NewCluster(opts ...ClusterOption) *Cluster {
	cfg := clusterConfig{seed: 1, fabric: EthernetFabric()}
	for _, o := range opts {
		o.applyCluster(&cfg)
	}
	c := &Cluster{Group: sim.NewGroup(cfg.seed, max(cfg.engines, 1), cfg.fabric.Lookahead())}
	c.Group.SetThreads(cfg.engines)
	c.Eng = c.Group.Engine(0)
	c.Net = fabric.NewOnGroup(c.Group, cfg.fabric)
	if cfg.trace || cfg.plan != nil {
		c.startTracers()
	}
	if cfg.sampleEvery > 0 {
		c.Sampler = c.Tracer.StartSampler(cfg.sampleEvery)
	}
	if cfg.plan != nil {
		// Arm now; hosts and devices created later register themselves with
		// the injector's live target set before the engine runs. The plan is
		// armed on (and its activations run on) partition 0's engine; the
		// injector keeps only the drivers and adapters that live there.
		c.injector = chaos.Arm(cfg.plan, chaos.Targets{Eng: c.Eng, Net: c.Net, Tracer: c.Tracer})
	}
	if cfg.kv != nil {
		// Every KV host runs on partition 0, with the injector, so a plan
		// reaches the whole service on any partition count.
		c.KV = kv.New(c.Eng, c.Net, c.Tracer, *cfg.kv)
		if ij := c.injector; ij != nil {
			ij.AddFirmware(c.KV.Firmware()...)
			ij.AddDrivers(c.KV.Drivers()...)
			ij.T.Groups = append(ij.T.Groups, c.KV.Groups()...)
		}
	}
	if cfg.swarm != nil {
		s, err := topo.New(c.Eng, c.Net, *cfg.swarm)
		if err != nil {
			panic("npf: WithSwarm: " + err.Error())
		}
		c.Swarm = s
	}
	return c
}

// startTracers gives every partition its own tracer.
func (c *Cluster) startTracers() {
	for _, e := range c.Group.Engines() {
		c.Tracers = append(c.Tracers, trace.New(e))
	}
	c.Tracer = c.Tracers[0]
}

// EngineFor returns partition part's engine — the engine to schedule work
// against a host placed there.
func (c *Cluster) EngineFor(part int) *Engine { return c.Group.Engine(part) }

// tracerFor returns the partition's tracer (nil when tracing is off).
func (c *Cluster) tracerFor(part int) *Tracer {
	if len(c.Tracers) == 0 {
		return nil
	}
	return c.Tracers[part]
}

// Run drives the whole cluster — every partition — to quiescence and
// returns the final virtual time. A WithSwarm sweep is started first.
func (c *Cluster) Run() Time { return c.RunUntil(sim.Forever) }

// RunUntil drives the whole cluster to the horizon (or quiescence,
// whichever comes first) and returns the final virtual time. A WithSwarm
// sweep is started first.
func (c *Cluster) RunUntil(until Time) Time {
	if c.Swarm != nil {
		c.Swarm.Start()
	}
	return c.Group.RunUntil(until)
}

// Digest condenses every partition's trace into one value; same-seed runs
// produce identical digests for any engine/thread count. Zero when the
// cluster was built without tracing.
func (c *Cluster) Digest() uint64 { return trace.DigestAll(c.Tracers) }

// Host is one machine: memory, an NPF driver, and optionally a NIC and/or
// an HCA.
type Host struct {
	Name string
	// Eng is the engine the host's components live on: its partition's
	// engine under WithEngines, the cluster engine otherwise. Schedule any
	// work touching this host (sends, chaos callbacks, stops) here.
	Eng *Engine
	// Part is the host's PDES partition (0 on a single-engine cluster).
	Part    int
	Machine *Machine
	Driver  *Driver
	NIC     *Device
	HCA     *HCA

	host    *topo.Host
	cluster *Cluster
}

// NewHost adds a machine and an NPF driver, built by the same recipe as
// every other simulated host (topo.HostSpec). Defaults: 8 GiB of RAM
// (override with WithRAM) and the Figure-3-calibrated driver. On a
// partitioned cluster the host lands on the next partition round-robin
// unless WithPartition pins it; everything the host builds afterwards
// lives on that partition's engine and tracer. A misconfigured host (e.g.
// WithPartition out of range) panics; use TryNewHost to get the error.
func (c *Cluster) NewHost(name string, opts ...HostOption) *Host {
	h, err := c.TryNewHost(name, opts...)
	if err != nil {
		panic("npf: " + err.Error())
	}
	return h
}

// TryNewHost is NewHost returning configuration errors instead of
// panicking. In particular, WithPartition(p) with p outside the cluster's
// engine range is reported here, at construction — not as a late index
// panic when the partitioned run first touches the host.
func (c *Cluster) TryNewHost(name string, opts ...HostOption) (*Host, error) {
	cfg := hostConfig{ram: 8 << 30, part: -1}
	for _, o := range opts {
		o.applyHost(&cfg)
	}
	part := cfg.part
	if cfg.partSet {
		// Validate the explicit pin against the real engine count. On a
		// single-engine cluster any in-range-looking value is documented as
		// ignored, but a negative pin is a bug everywhere.
		if part < 0 {
			return nil, fmt.Errorf("host %q: WithPartition(%d) is negative", name, part)
		}
		if c.Group.Parts() > 1 && part >= c.Group.Parts() {
			return nil, fmt.Errorf("host %q: WithPartition(%d) out of range: cluster has %d engines",
				name, part, c.Group.Parts())
		}
	}
	if c.Group.Parts() == 1 {
		part = 0
	} else if part < 0 {
		part = c.nextPart % c.Group.Parts()
		c.nextPart++
	}
	th := topo.HostSpec{RAM: cfg.ram}.Build(c.EngineFor(part), c.Net, c.tracerFor(part), name)
	h := &Host{Name: name, Eng: th.Eng, Part: part, Machine: th.M, Driver: th.Drv, host: th, cluster: c}
	c.injector.AddDrivers(h.Driver)
	return h, nil
}

// AttachNIC gives the host an Ethernet NIC wired to its driver.
func (h *Host) AttachNIC() *Device {
	h.NIC = h.host.AttachNIC(h.cluster.Net, nic.DefaultConfig(), h.cluster.tracerFor(h.Part))
	h.cluster.injector.AddFirmware(&h.NIC.Firmware)
	return h.NIC
}

// AttachHCA gives the host an InfiniBand adapter wired to its driver.
func (h *Host) AttachHCA() *HCA {
	h.HCA = h.host.AttachHCA(h.cluster.Net, rc.DefaultConfig(), h.cluster.tracerFor(h.Part))
	h.cluster.injector.AddFirmware(&h.HCA.Firmware)
	return h.HCA
}

// NewProcess creates an IOuser address space on the host's machine.
func (h *Host) NewProcess(name string) *AddressSpace {
	return h.Machine.NewAddressSpace(name, nil)
}

// OpenChannel creates a direct I/O channel for as on the host's NIC and —
// for non-pinned policies — enables on-demand paging through the host
// driver. The channel takes the address space's name. Defaults: a
// 256-entry ring, PolicyBackup; override with WithRingSize, WithPolicy.
// A WithChaos plan passed here is armed against this channel's device,
// driver, and address space only:
//
//	ch := host.OpenChannel(as, npf.WithRingSize(256), npf.WithPolicy(npf.PolicyBackup), npf.WithChaos(plan))
func (h *Host) OpenChannel(as *AddressSpace, opts ...ChannelOption) *Channel {
	cfg := channelConfig{ringSize: 256, policy: PolicyBackup}
	for _, o := range opts {
		o.applyChannel(&cfg)
	}
	if h.NIC == nil {
		h.AttachNIC()
	}
	ch := h.NIC.NewChannel(as.Name, as, cfg.ringSize, cfg.policy)
	if cfg.policy != PolicyPinned {
		h.Driver.EnableODP(ch)
	}
	if cfg.plan != nil {
		if h.cluster.Tracer == nil {
			h.cluster.startTracers()
		}
		// A per-channel plan targets this host only, so it arms on the
		// host's own engine — on a partitioned cluster its activations run
		// on the host's partition, wherever that is.
		chaos.Arm(cfg.plan, chaos.Targets{
			Eng:      h.Eng,
			Net:      h.cluster.Net,
			Firmware: []*Firmware{&h.NIC.Firmware},
			Drivers:  []*Driver{h.Driver},
			Tracer:   h.cluster.tracerFor(h.Part),
		})
	}
	return ch
}

// OpenQP creates an ODP-enabled queue pair for as on the host's HCA.
func (h *Host) OpenQP(as *AddressSpace) *QP {
	if h.HCA == nil {
		h.AttachHCA()
	}
	qp := h.HCA.NewQP(as)
	h.Driver.EnableODPQP(qp)
	return qp
}
