package npf

// ClusterOption configures NewCluster.
type ClusterOption interface{ applyCluster(*clusterConfig) }

// HostOption configures Cluster.NewHost.
type HostOption interface{ applyHost(*hostConfig) }

// ChannelOption configures Host.OpenChannel.
type ChannelOption interface{ applyChannel(*channelConfig) }

type clusterConfig struct {
	seed        int64
	engines     int
	fabric      FabricConfig
	trace       bool
	sampleEvery Time
	plan        *ChaosPlan
	kv          *KVConfig
	swarm       *SweepConfig
}

type hostConfig struct {
	ram     int64
	part    int  // -1 = round-robin across partitions
	partSet bool // WithPartition was given explicitly (validate it)
}

type channelConfig struct {
	ringSize int
	policy   FaultPolicy
	plan     *ChaosPlan
}

type clusterOption func(*clusterConfig)

func (f clusterOption) applyCluster(c *clusterConfig) { f(c) }

type hostOption func(*hostConfig)

func (f hostOption) applyHost(c *hostConfig) { f(c) }

type channelOption func(*channelConfig)

func (f channelOption) applyChannel(c *channelConfig) { f(c) }

// WithSeed sets the cluster's deterministic RNG seed (default 1). Two
// clusters built with the same seed and workload replay byte-identically.
func WithSeed(seed int64) ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.seed = seed })
}

// WithEngines shards the cluster across n per-partition engines running
// under a conservative-lookahead PDES group (the group's lookahead is the
// fabric's propagation latency). Hosts are placed round-robin across
// partitions unless pinned with WithPartition; cross-partition packets ride
// the group's timestamped mailboxes, so results — trace digests, sampler
// series, final clocks — are byte-identical to any other engine/thread
// count for the same partition layout. n also sets the group's worker
// thread budget (Cluster.Group.SetThreads adjusts it). n <= 1 builds a
// one-partition group, the single-engine mode: one engine carries every
// host and runs its own event loop, with no batching.
//
// With WithKV, the service splits server tier (partition 0) from client
// tier (partition 1). A WithChaos plan is armed on partition 0, and its
// injector keeps only the drivers and adapters of partition-0 hosts and
// of the KV server tier.
func WithEngines(n int) ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.engines = n })
}

// WithFabric selects the fabric configuration (default EthernetFabric()).
func WithFabric(cfg FabricConfig) ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.fabric = cfg })
}

// WithTracing attaches a Tracer to the cluster's engine and wires it
// through every host built afterwards (drivers, machines, devices, HCAs).
// The tracer is reachable as Cluster.Tracer.
func WithTracing() ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.trace = true })
}

// WithSampling attaches a time-series Sampler ticking every `every` of
// virtual time, snapshotting every published counter and the
// per-subsystem probes every host registers into deterministic series.
// Sampling implies tracing; the sampler is reachable as Cluster.Sampler.
func WithSampling(every Time) ClusterOption {
	return clusterOption(func(c *clusterConfig) {
		c.trace = true
		c.sampleEvery = every
	})
}

// WithKV deploys a sharded, replicated key-value service across the
// cluster's fabric: cfg.ServerHosts machines of shard replicas plus
// cfg.ClientHosts machines for workload generators, all built on the
// cluster's engine and fabric. The service is reachable as Cluster.KV;
// start it (or a workload, which starts it implicitly) before Run. When the
// cluster also carries a WithChaos plan, every KV host's driver and
// adapter on the plan's partition, and every shard cgroup, joins the
// plan's target set, so cluster-level faults (MemoryPressure,
// InvalidationChaos, LinkFlap, ...) land on the service. Each shard replica's value arena is sized from
// cfg.ExpectedKeys. A zero KVConfig is a small but fully functional
// deployment; the fabric transport follows cfg.Transport, so pair
// KVTransportRC with WithFabric(InfiniBandFabric()).
func WithKV(cfg KVConfig) ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.kv = &cfg })
}

// WithSwarm deploys a scale-out sweep on the cluster's fabric: cfg.Servers
// paper-stack server machines and cfg.SwarmHosts lightweight swarm hosts
// multiplexing the tenants' logical clients (O(10^5..10^6) on one
// simulation), with per-tenant memory cgroups (sized from each tenant's
// key count) and registration policies so pinned / pin-down-cache / ODP
// show up as fleet-wide tail latency. The sweep is reachable as
// Cluster.Swarm; Run starts it automatically and Swarm.Result()
// aggregates afterwards. Workload shaping uses the same WorkloadConfig as
// WithKV tenants. Pair TransportUD with WithFabric(InfiniBandFabric()).
//
// Determinism: for byte-identical results across machine sizes keep
// WithEngines(n) fixed (it sets the partition layout) and vary only
// Cluster.Group.SetThreads — or use the bench layer's RunScaleout, which
// fixes the partition count for you. A misconfigured sweep panics at
// NewCluster with the configuration error.
func WithSwarm(cfg SweepConfig) ClusterOption {
	return clusterOption(func(c *clusterConfig) { c.swarm = &cfg })
}

// WithRAM sets the host's physical memory in bytes (default 8 GiB).
func WithRAM(bytes int64) HostOption {
	return hostOption(func(c *hostConfig) { c.ram = bytes })
}

// WithPartition pins the host to PDES partition p of a WithEngines(n)
// cluster (default: round-robin placement). Components the host builds —
// machine, driver, NIC, HCA — live on that partition's engine; schedule
// work touching them there (Cluster.EngineFor). p must name a real
// partition: out-of-range pins are a configuration error reported by
// TryNewHost (NewHost panics on it) instead of a late index panic once
// the run first touches the host. On single-engine clusters a
// non-negative p is ignored as documented.
func WithPartition(p int) HostOption {
	return hostOption(func(c *hostConfig) { c.part = p; c.partSet = true })
}

// WithRingSize sets the channel's RX descriptor ring size (default 256).
func WithRingSize(n int) ChannelOption {
	return channelOption(func(c *channelConfig) { c.ringSize = n })
}

// WithPolicy sets the channel's receive fault policy (default
// PolicyBackup). Non-pinned policies get on-demand paging through the
// host's driver; PolicyPinned leaves residence to the caller
// (StaticPinAll).
func WithPolicy(p FaultPolicy) ChannelOption {
	return channelOption(func(c *channelConfig) { c.policy = p })
}

// ChaosOption carries a fault-injection plan. It is accepted by both
// NewCluster (the plan is armed against the whole cluster as hosts and
// devices are added) and OpenChannel (the plan is armed against that
// channel's device, driver, and address space only).
type ChaosOption struct{ plan *ChaosPlan }

func (o ChaosOption) applyCluster(c *clusterConfig) { c.plan = o.plan }
func (o ChaosOption) applyChannel(c *channelConfig) { c.plan = o.plan }

// WithChaos injects the given fault plan; see the chaos re-exports
// (ChaosPlan, FirmwareStall, LossBurst, GilbertElliott, LinkFlap,
// MemoryPressure, InvalidationChaos, ResolverSlowdown) for the faults a
// plan can carry. Arming a plan implies tracing, so every injected fault
// leaves a span and runs stay digest-comparable.
func WithChaos(plan *ChaosPlan) ChaosOption { return ChaosOption{plan: plan} }

// compile-time interface checks
var (
	_ ClusterOption = ChaosOption{}
	_ ChannelOption = ChaosOption{}
)
