package topo

import (
	"fmt"
	"math"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/workload"
)

// Transport selects the sweep's wire protocol.
type Transport int

const (
	// TransportEth sends raw Ethernet frames into per-tenant NIC receive
	// rings — the paper's Figure 6 receive path, at fleet scale.
	TransportEth Transport = iota
	// TransportUD sends InfiniBand unreliable datagrams with per-WQE
	// address handles: one QP per swarm host reaches every server, so the
	// fleet needs O(hosts) QPs, not O(hosts^2) connections (§4: the NPF
	// machinery "applies also to UD").
	TransportUD
)

func (t Transport) String() string {
	if t == TransportUD {
		return "ud"
	}
	return "eth"
}

// RegPolicy is a tenant's memory-registration strategy — the §2.2 spectrum
// the sweep compares fleet-wide.
type RegPolicy int

const (
	// RegODP relies on NIC page faults: nothing pinned, reclaim allowed,
	// faulting receives parked in the backup ring (Figure 6).
	RegODP RegPolicy = iota
	// RegPinDown uses a bounded pin-down cache over the arena; rings stay
	// on ODP.
	RegPinDown
	// RegPinned pins rings and arena up front: no faults, no reclaim.
	RegPinned
)

func (r RegPolicy) String() string {
	switch r {
	case RegPinDown:
		return "pindown"
	case RegPinned:
		return "pinned"
	default:
		return "odp"
	}
}

// TenantSpec is one tenant: a workload shape plus a registration policy.
// Its per-server memory follows from the shape: an arena of two value
// slots per key on the server plus eight, a memory group capped at arena,
// ring and one page of slack (reclaim waves squeeze it), and, under
// RegPinDown, a pin-down cache half the arena.
type TenantSpec struct {
	// Workload shapes the tenant's load (clients, ops, key popularity,
	// open/closed loop, arrival curve). Defaults via workload.Config.
	Workload workload.Config
	// Reg selects the registration policy.
	Reg RegPolicy
	// Servers bounds how many of the sweep's servers host this tenant
	// (0 = all). Rings, QPs, and arenas exist only on those servers — the
	// lazy-allocation half of cheap per-host state.
	Servers int
}

// SweepConfig sizes a ClusterSweep.
type SweepConfig struct {
	// Servers and SwarmHosts partition the fleet (defaults 16 and 48).
	Servers    int
	SwarmHosts int
	// Transport selects Ethernet rings or IB UD datagrams.
	Transport Transport
	// RingSize is each server tenant's receive ring depth (default 128).
	RingSize int
	// ValueBytes is the stored value size (default 1024; must fit a UD
	// datagram alongside the request header).
	ValueBytes int
	// ServiceTime is the server CPU cost per op before memory costs
	// (default 2 µs).
	ServiceTime sim.Time
	// Tenants lists the workloads; nil gets the canonical three-tenant
	// odp/pindown/pinned comparison.
	Tenants []TenantSpec
	// ReclaimWaves > 0 schedules that many fleet-wide memory-pressure
	// waves, each multiplying every tenant group limit by 3/4, one every
	// WaveEvery.
	ReclaimWaves int
	WaveEvery    sim.Time
}

const (
	reqHeaderBytes = 64
	repHeaderBytes = 64
	slotAlign      = 256

	// hostsPerRack sets the topology granularity.
	hostsPerRack = 16
	// serverRAM and swarmRAM size host memory.
	serverRAM = 512 << 20
	swarmRAM  = 64 << 20
	// maxAttempts bounds an op's sends; an op whose last attempt times
	// out is counted lost, not retried forever.
	maxAttempts = 6
)

// withDefaults fills the zero config; it does not validate.
func (c SweepConfig) withDefaults() SweepConfig {
	if c.Servers == 0 {
		c.Servers = 16
	}
	if c.SwarmHosts == 0 {
		c.SwarmHosts = 48
	}
	if c.RingSize == 0 {
		c.RingSize = 128
	}
	if c.ValueBytes == 0 {
		c.ValueBytes = 1024
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 2 * sim.Microsecond
	}
	if c.WaveEvery == 0 {
		c.WaveEvery = 20 * sim.Millisecond
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantSpec{
			{Workload: workload.Config{Tenant: "odp"}, Reg: RegODP},
			{Workload: workload.Config{Tenant: "pindown"}, Reg: RegPinDown},
			{Workload: workload.Config{Tenant: "pinned"}, Reg: RegPinned},
		}
	}
	for i := range c.Tenants {
		c.Tenants[i].Workload = c.Tenants[i].Workload.WithDefaults(4096)
	}
	return c
}

// msg is one request attempt on the wire and, rewritten in place, its
// reply: the server turns the request it received into the reply and sends
// the same object back, so a round trip allocates one message. On Ethernet
// msg embeds the frame that carries it, and the frame's Payload points back
// at it; on UD it rides as the datagram's payload and the frame is unused.
//
// A message has one owner at a time. The swarm host builds it and sends
// it; the server owns it from delivery until it sends the reply; the swarm
// host owns the reply. It changes hands only through the fabric, whose
// partition mailbox (or, within one partition, the engine's queue) orders
// every write before a handoff ahead of every read after it, and no sender
// keeps a reference after Send. So no message is touched from two
// partitions at once.
type msg struct {
	fabric.Packet
	id     uint64 // swarm-host-local op id (reissue guard)
	swarm  int32  // swarm host index, the reply address
	client int32  // client index on that host
	tenant int32
	key    int32
	get    bool
	hit    bool  // set by the server: the op succeeded and found its key
	server int32 // the server the request goes to
}

// tenantState is the fleet-wide view of one tenant.
type tenantState struct {
	idx     int32
	spec    TenantSpec
	cfg     workload.Config
	servers []int32 // server indices hosting this tenant
	// keysPerServer shards the key space: key k lives on
	// servers[mix64(k) % len], at slot (k / len(servers)) % slots.
	keysPerServer int
}

// Sweep is one instantiated ClusterSweep: the fleet, its tenants, and the
// run's counters. Build with New, arm with Start, drive the group, then
// read Result.
type Sweep struct {
	cfg   SweepConfig
	net   *fabric.Network
	group *sim.Group // the fabric's group
	topo  Topology

	tenants []*tenantState
	servers []*serverHost
	swarms  []*SwarmHost

	// serverNode / serverFlow / serverUD are the immutable routing tables
	// swarm hosts read from any partition: [server] and [server][tenant].
	serverNode []fabric.NodeID
	serverFlow [][]fabric.FlowID
	serverUD   [][]rc.UDRemote

	// The per-op event handlers (bindEvents).
	issueFn, arriveFn, timeoutFn, timeoutOpenFn, replyFn func(any)

	started bool
}

// New builds the fleet on net. eng must be partition 0 of net's group,
// the engine hosts on partition 0 run on. It returns a configuration
// error — not a mid-run panic — for inconsistent sizing.
func New(eng *sim.Engine, net *fabric.Network, cfg SweepConfig) (*Sweep, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sweep{cfg: cfg, net: net, group: net.Group()}
	if s.group.Engine(0) != eng {
		return nil, fmt.Errorf("topo: eng must be the group's partition-0 engine")
	}
	total := cfg.Servers + cfg.SwarmHosts
	s.topo = Topology{Hosts: total, HostsPerRack: hostsPerRack}

	s.bindEvents()
	s.buildTenants()
	s.buildHosts()
	s.buildServerTenants()
	s.buildClients()
	return s, nil
}

func (c SweepConfig) validate() error {
	if c.Servers < 1 || c.SwarmHosts < 1 {
		return fmt.Errorf("topo: need at least one server and one swarm host (got %d/%d)", c.Servers, c.SwarmHosts)
	}
	if c.SwarmHosts > math.MaxUint16+1 {
		return fmt.Errorf("topo: %d swarm hosts; a swarm client addresses at most %d", c.SwarmHosts, math.MaxUint16+1)
	}
	if c.ValueBytes < 0 || repHeaderBytes+c.ValueBytes > mem.PageSize {
		return fmt.Errorf("topo: ValueBytes %d does not fit a one-page datagram buffer", c.ValueBytes)
	}
	if c.RingSize < 8 {
		return fmt.Errorf("topo: RingSize %d too small (minimum 8)", c.RingSize)
	}
	for i, t := range c.Tenants {
		if t.Servers < 0 || t.Servers > c.Servers {
			return fmt.Errorf("topo: tenant %d places on %d servers, fleet has %d", i, t.Servers, c.Servers)
		}
		if t.Reg != RegODP && t.Reg != RegPinDown && t.Reg != RegPinned {
			return fmt.Errorf("topo: tenant %d has unknown registration policy %d", i, t.Reg)
		}
		if t.Workload.Clients < 1 {
			return fmt.Errorf("topo: tenant %d has no clients", i)
		}
	}
	return nil
}

// buildTenants resolves each tenant's server placement: a strided subset so
// tenants spread across racks, computed before any host exists because
// construction must not depend on map or arrival order.
func (s *Sweep) buildTenants() {
	for i, spec := range s.cfg.Tenants {
		t := &tenantState{idx: int32(i), spec: spec, cfg: spec.Workload}
		m := spec.Servers
		if m == 0 {
			m = s.cfg.Servers
		}
		start := (i * 7) % s.cfg.Servers
		for j := 0; j < m; j++ {
			t.servers = append(t.servers, int32((start+j*s.cfg.Servers/m)%s.cfg.Servers))
		}
		t.keysPerServer = (t.cfg.Keys + m - 1) / m
		s.tenants = append(s.tenants, t)
	}
}

// buildHosts lays the fleet out across the topology. Server hosts are
// spread evenly over the host index space (hence over racks and
// partitions); swarm hosts fill the gaps. Hosts are built in host-index
// order so fabric attach order — and every split RNG stream — is fixed.
func (s *Sweep) buildHosts() {
	total := s.cfg.Servers + s.cfg.SwarmHosts
	isServer := make([]bool, total)
	for i := 0; i < s.cfg.Servers; i++ {
		isServer[i*total/s.cfg.Servers] = true
	}
	parts := s.group.Parts()
	s.serverNode = make([]fabric.NodeID, s.cfg.Servers)
	s.serverFlow = make([][]fabric.FlowID, s.cfg.Servers)
	s.serverUD = make([][]rc.UDRemote, s.cfg.Servers)
	for h := 0; h < total; h++ {
		eng := s.group.Engine(s.topo.Partition(h, parts))
		if isServer[h] {
			idx := len(s.servers)
			srv := s.newServerHost(idx, eng)
			s.servers = append(s.servers, srv)
			s.serverNode[idx] = srv.node()
			s.serverFlow[idx] = make([]fabric.FlowID, len(s.tenants))
			s.serverUD[idx] = make([]rc.UDRemote, len(s.tenants))
		} else {
			s.swarms = append(s.swarms, s.newSwarmHost(int32(len(s.swarms)), eng))
		}
	}
}

// buildServerTenants materialises per-(server, tenant) state — ring, QP,
// arena, group — only where the tenant is placed (lazy allocation: a
// thousand-host fleet does not pay for rings it never receives on).
func (s *Sweep) buildServerTenants() {
	for _, t := range s.tenants {
		for _, si := range t.servers {
			st := s.servers[si].addTenant(t)
			if s.cfg.Transport == TransportEth {
				s.serverFlow[si][t.idx] = st.ch.Flow
			} else {
				s.serverUD[si][t.idx] = st.qp.Remote()
			}
		}
	}
}

// buildClients deals each tenant's logical clients round-robin over the
// swarm hosts, splitting one RNG per client in construction order and
// spreading TargetOps across the tenant's clients. The config fixes each
// host's client count and its ops per tenant before the first event, so
// each host's client table is allocated once, at its count, and each
// (host, tenant) latency reservoir is reserved for the host's quotas in
// that tenant: an op records at most one latency.
func (s *Sweep) buildClients() {
	hosts := len(s.swarms)
	for j, sh := range s.swarms {
		n := 0
		for _, t := range s.tenants {
			n += dealt(t.cfg.Clients, hosts, j)
		}
		sh.clients = make([]swarmClient, 0, n)
	}
	for _, t := range s.tenants {
		per := t.cfg.TargetOps / t.cfg.Clients
		extra := t.cfg.TargetOps % t.cfg.Clients
		for i := 0; i < t.cfg.Clients; i++ {
			sh := s.swarms[i%hosts]
			quota := per
			if i < extra {
				quota++
			}
			sh.addClient(t, int32(quota))
		}
		// Host j holds dealt(Clients) clients at per ops each, and the
		// first extra clients, dealt the same way, one op more.
		for j, sh := range s.swarms {
			sh.stats[t.idx].lat.Grow(dealt(t.cfg.Clients, hosts, j)*per + dealt(extra, hosts, j))
		}
	}
}

// dealt reports how many of n items dealt round-robin over k hands land in
// hand j.
func dealt(n, k, j int) int {
	d := n / k
	if j < n%k {
		d++
	}
	return d
}

// pickServer routes a key to its tenant shard's server.
func (s *Sweep) pickServer(t *tenantState, key int32) int32 {
	return t.servers[int(mix64(uint64(key))%uint64(len(t.servers)))]
}

// slotOf maps a key to its arena slot on its server: dividing out the
// server count keeps Zipf-hot keys on the arena's hot head, so the group
// LRU sees a real working set.
func (t *tenantState) slotOf(key int32, slots int64) int64 {
	return (int64(key) / int64(len(t.servers))) % slots
}

// Start arms the load: closed-loop clients stagger in, open-loop clients
// draw their first arrival, and reclaim waves are scheduled. Call after
// New and before running the engines; extra calls are no-ops.
func (s *Sweep) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, sh := range s.swarms {
		sh.start()
	}
	if s.cfg.ReclaimWaves > 0 {
		for _, srv := range s.servers {
			srv.scheduleWaves(s.cfg.ReclaimWaves, s.cfg.WaveEvery)
		}
	}
}

// Run starts the sweep (if not already started) and drives the simulation
// to quiescence, returning the final virtual time.
func (s *Sweep) Run() sim.Time {
	if !s.started {
		s.Start()
	}
	return s.group.Run()
}

// Hosts reports the fleet size.
func (s *Sweep) Hosts() int { return len(s.servers) + len(s.swarms) }

// Clients reports the logical client count across all tenants.
func (s *Sweep) Clients() int {
	n := 0
	for _, t := range s.tenants {
		n += t.cfg.Clients
	}
	return n
}
