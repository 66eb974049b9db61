package npf

import (
	"fmt"

	"npf/internal/chaos"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/kv"
	"npf/internal/mem"
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
	// Eng is the cluster's engine — with WithEngines(n>1), partition 0's
	// engine, where chaos plans and the KV server tier live.
	Eng *Engine
	Net *Network
	// Group is non-nil when the cluster was built with WithEngines(n>1):
	// the conservative-lookahead PDES group the partitions run under. Use
	// Run/RunUntil (or Group.Run directly) to drive a partitioned cluster;
	// Eng.Run would advance partition 0 alone.
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

// NewCluster creates an engine and fabric in one call. Defaults: seed 1,
// Ethernet fabric, one sequential engine, no tracing, no chaos.
func NewCluster(opts ...ClusterOption) *Cluster {
	cfg := clusterConfig{seed: 1, fabric: EthernetFabric()}
	for _, o := range opts {
		o.applyCluster(&cfg)
	}
	c := &Cluster{}
	if cfg.engines > 1 {
		c.Group = sim.NewGroup(cfg.seed, cfg.engines, cfg.fabric.Lookahead())
		c.Group.SetThreads(cfg.engines)
		c.Eng = c.Group.Engine(0)
		c.Net = fabric.NewOnGroup(c.Group, cfg.fabric)
	} else {
		c.Eng = sim.NewEngine(cfg.seed)
		c.Net = fabric.New(c.Eng, cfg.fabric)
	}
	if cfg.trace || cfg.plan != nil {
		for _, e := range c.engines() {
			c.Tracers = append(c.Tracers, trace.New(e))
		}
		c.Tracer = c.Tracers[0]
	}
	if cfg.sampleEvery > 0 {
		c.Sampler = c.Tracer.StartSampler(cfg.sampleEvery)
	}
	if cfg.plan != nil {
		// Arm now; hosts and devices created later register themselves with
		// the injector's live target set before the engine runs. The plan is
		// armed on (and its activations run on) partition 0's engine, so on
		// a partitioned cluster only partition-0 components may join it.
		c.injector = chaos.Arm(cfg.plan, chaos.Targets{Eng: c.Eng, Net: c.Net, Tracer: c.Tracer})
	}
	if cfg.kv != nil {
		kcfg := *cfg.kv
		if c.Group != nil && len(c.Tracers) > 1 {
			kcfg.ClientTracer = c.Tracers[1]
		}
		c.KV = kv.New(c.Eng, c.Net, c.Tracer, kcfg)
		if ij := c.injector; ij != nil {
			if c.Group != nil {
				// Partitioned: the client tier lives on partition 1, out of
				// the injector's reach — register the server tier only.
				ij.T.Devs = append(ij.T.Devs, c.KV.ServerDevices()...)
				ij.T.HCAs = append(ij.T.HCAs, c.KV.ServerHCAs()...)
				ij.T.Drivers = append(ij.T.Drivers, c.KV.ServerDrivers()...)
			} else {
				ij.T.Devs = append(ij.T.Devs, c.KV.Devices()...)
				ij.T.HCAs = append(ij.T.HCAs, c.KV.HCAs()...)
				ij.T.Drivers = append(ij.T.Drivers, c.KV.Drivers()...)
			}
			// Shard groups, value arenas, and transport buffers are all
			// server-tier state regardless of partitioning.
			ij.T.Groups = append(ij.T.Groups, c.KV.Groups()...)
			ij.T.Spaces = append(ij.T.Spaces, c.KV.Spaces()...)
			ij.T.Spaces = append(ij.T.Spaces, c.KV.NetSpaces()...)
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

// engines lists every engine: the group's partitions, or the single one.
func (c *Cluster) engines() []*Engine {
	if c.Group != nil {
		return c.Group.Engines()
	}
	return []*Engine{c.Eng}
}

// EngineFor returns partition part's engine — the engine to schedule work
// against a host placed there. On a single-engine cluster every partition
// maps to the one engine.
func (c *Cluster) EngineFor(part int) *Engine {
	if c.Group != nil {
		return c.Group.Engine(part)
	}
	return c.Eng
}

// tracerFor returns the partition's tracer (nil when tracing is off).
func (c *Cluster) tracerFor(part int) *Tracer {
	if len(c.Tracers) == 0 {
		return nil
	}
	if c.Group != nil {
		return c.Tracers[part]
	}
	return c.Tracer
}

// Run drives the whole cluster — every partition — to quiescence and
// returns the final virtual time. A WithSwarm sweep is started first.
func (c *Cluster) Run() Time {
	if c.Swarm != nil {
		c.Swarm.Start()
	}
	if c.Group != nil {
		return c.Group.Run()
	}
	return c.Eng.Run()
}

// RunUntil drives the whole cluster to the horizon (or quiescence,
// whichever comes first) and returns the final virtual time. A WithSwarm
// sweep is started first.
func (c *Cluster) RunUntil(until Time) Time {
	if c.Swarm != nil {
		c.Swarm.Start()
	}
	if c.Group != nil {
		return c.Group.RunUntil(until)
	}
	return c.Eng.RunUntil(until)
}

// Digest condenses every partition's trace into one value; same-seed runs
// produce identical digests for any engine/thread count. Zero when the
// cluster was built without tracing.
func (c *Cluster) Digest() uint64 {
	if len(c.Tracers) == 0 {
		return 0
	}
	if len(c.Tracers) == 1 {
		return c.Tracer.Digest()
	}
	return trace.DigestAll(c.Tracers)
}

// Injector returns the armed chaos injector, or nil when the cluster was
// built without WithChaos.
func (c *Cluster) Injector() *chaos.Injector { return c.injector }

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

	cluster *Cluster
}

// NewHost adds a machine and an NPF driver. Defaults: 8 GiB of RAM,
// DefaultDriverConfig(); override with WithRAM and WithDriverConfig. On a
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
	cfg := hostConfig{ram: 8 << 30, driver: core.DefaultConfig(), part: -1}
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
		if c.Group != nil && part >= c.Group.Parts() {
			return nil, fmt.Errorf("host %q: WithPartition(%d) out of range: cluster has %d engines",
				name, part, c.Group.Parts())
		}
	}
	if c.Group == nil {
		part = 0
	} else if part < 0 {
		part = c.nextPart % c.Group.Parts()
		c.nextPart++
	}
	eng := c.EngineFor(part)
	tr := c.tracerFor(part)
	h := &Host{
		Name:    name,
		Eng:     eng,
		Part:    part,
		Machine: mem.NewMachine(eng, cfg.ram),
		Driver:  core.NewDriver(eng, cfg.driver),
		cluster: c,
	}
	h.Machine.SetTracer(tr)
	h.Driver.SetTracer(tr)
	// Cluster-level chaos activations run on partition 0; hosts elsewhere
	// are out of the injector's reach and must stay unregistered.
	if c.injector != nil && part == 0 {
		c.injector.T.Drivers = append(c.injector.T.Drivers, h.Driver)
	}
	return h, nil
}

// HostTemplate is a reusable recipe for batch host construction: a name
// pattern plus the options every host built from it shares. Templates are
// values — define one per role (server, client, ...) and stamp out fleets:
//
//	tmpl := npf.HostTemplate{NamePattern: "srv-%03d", Options: []npf.HostOption{npf.WithRAM(32 << 30)}}
//	servers, err := cluster.TryNewHosts(tmpl, 100)
type HostTemplate struct {
	// NamePattern is a fmt pattern receiving the host's index within the
	// batch (default "host-%03d").
	NamePattern string
	// Options apply to every host built from the template, in order,
	// before any per-call extras.
	Options []HostOption
}

// NewHosts adds n hosts in one call, named "host-000".., all built with
// the same options — the batch form of NewHost. On a partitioned cluster
// the batch round-robins across partitions unless WithPartition pins it
// (placement is identical to n NewHost calls in a loop). Use TryNewHosts
// with a HostTemplate to control naming or collect errors.
func (c *Cluster) NewHosts(n int, opts ...HostOption) []*Host {
	hosts, err := c.TryNewHosts(HostTemplate{Options: opts}, n)
	if err != nil {
		panic("npf: " + err.Error())
	}
	return hosts
}

// TryNewHosts builds n hosts from a template. Construction is in index
// order (host i's RNG splits before host i+1's), so a batch is
// byte-equivalent to the loop it replaces. The first configuration error
// aborts the batch.
func (c *Cluster) TryNewHosts(t HostTemplate, n int) ([]*Host, error) {
	if n < 0 {
		return nil, fmt.Errorf("TryNewHosts: negative count %d", n)
	}
	pattern := t.NamePattern
	if pattern == "" {
		pattern = "host-%03d"
	}
	hosts := make([]*Host, 0, n)
	for i := 0; i < n; i++ {
		h, err := c.TryNewHost(fmt.Sprintf(pattern, i), t.Options...)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	return hosts, nil
}

// AttachNIC gives the host an Ethernet NIC wired to its driver.
func (h *Host) AttachNIC() *Device {
	h.NIC = nic.NewDevice(h.Eng, h.cluster.Net, nic.DefaultConfig())
	h.NIC.SetTracer(h.cluster.tracerFor(h.Part))
	h.Driver.AttachDevice(h.NIC)
	if ij := h.cluster.injector; ij != nil && h.Part == 0 {
		ij.T.Devs = append(ij.T.Devs, h.NIC)
	}
	return h.NIC
}

// AttachHCA gives the host an InfiniBand adapter wired to its driver.
func (h *Host) AttachHCA() *HCA {
	h.HCA = rc.NewHCA(h.Eng, h.cluster.Net, rc.DefaultConfig())
	h.HCA.SetTracer(h.cluster.tracerFor(h.Part))
	h.Driver.AttachHCA(h.HCA)
	if ij := h.cluster.injector; ij != nil && h.Part == 0 {
		ij.T.HCAs = append(ij.T.HCAs, h.HCA)
	}
	return h.HCA
}

// NewProcess creates an IOuser address space, optionally inside a memory
// cgroup. Cgroup'd spaces become visible to cluster-level chaos plans
// (MemoryPressure waves target registered groups).
func (h *Host) NewProcess(name string, cgroup *MemGroup) *AddressSpace {
	as := h.Machine.NewAddressSpace(name, cgroup)
	if ij := h.cluster.injector; ij != nil && h.Part == 0 {
		ij.T.Spaces = append(ij.T.Spaces, as)
		if cgroup != nil {
			ij.T.Groups = append(ij.T.Groups, cgroup)
		}
	}
	return as
}

// OpenChannel creates a direct I/O channel for as on the host's NIC and —
// for non-pinned policies — enables on-demand paging through the host
// driver. Defaults: the address space's name, a 256-entry ring,
// PolicyBackup; override with WithChannelName, WithRingSize, WithPolicy.
// A WithChaos plan passed here is armed against this channel's device,
// driver, and address space only:
//
//	ch := host.OpenChannel(as, npf.WithRingSize(256), npf.WithPolicy(npf.PolicyBackup), npf.WithChaos(plan))
func (h *Host) OpenChannel(as *AddressSpace, opts ...ChannelOption) *Channel {
	cfg := channelConfig{name: as.Name, ringSize: 256, policy: PolicyBackup}
	for _, o := range opts {
		o.applyChannel(&cfg)
	}
	if h.NIC == nil {
		h.AttachNIC()
	}
	ch := h.NIC.NewChannel(cfg.name, as, cfg.ringSize, cfg.policy, cfg.ringSize)
	if cfg.policy != PolicyPinned {
		h.Driver.EnableODP(ch)
	}
	if cfg.plan != nil {
		if h.cluster.Tracer == nil {
			for _, e := range h.cluster.engines() {
				h.cluster.Tracers = append(h.cluster.Tracers, trace.New(e))
			}
			h.cluster.Tracer = h.cluster.Tracers[0]
		}
		// A per-channel plan targets this host only, so it arms on the
		// host's own engine — on a partitioned cluster its activations run
		// on the host's partition, wherever that is.
		chaos.Arm(cfg.plan, chaos.Targets{
			Eng:     h.Eng,
			Net:     h.cluster.Net,
			Devs:    []*Device{h.NIC},
			Drivers: []*Driver{h.Driver},
			Spaces:  []*AddressSpace{as},
			Tracer:  h.cluster.tracerFor(h.Part),
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

// OpenPinnedQP creates a queue pair whose memory the caller pins and
// registers explicitly (no ODP).
func (h *Host) OpenPinnedQP(as *AddressSpace) *QP {
	if h.HCA == nil {
		h.AttachHCA()
	}
	return h.HCA.NewQP(as)
}
