// Package kv implements a sharded, replicated distributed key-value
// service on the simulated stack — the production-scale workload the
// paper's registration-policy tradeoff (§2.2, Table 3) is ultimately
// about. Shards are placed on server hosts by consistent hashing, each
// shard runs a primary with synchronous primary→backup replication, and a
// client tier drives Zipf-distributed traffic through the real `tcp` or
// `rc` transports, so ODP page faults, pin-down-cache registration, and
// cgroup reclaim all surface as end-to-end tail latency.
//
// Everything is deterministic: placement is pure hashing, failover
// decisions are driven by heartbeat timestamps on the virtual clock, and
// every RNG is split from the engine at construction time, so same-seed
// runs replay byte-identically regardless of host parallelism.
package kv

import (
	"fmt"

	"npf/internal/apps"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/topo"
	"npf/internal/trace"
	"npf/internal/workload"
)

// Transport selects the wire protocol shard traffic rides on.
type Transport int

const (
	// TransportTCP serves the KV protocol over the simulated TCP stack on
	// Ethernet NICs (the memcached deployment model).
	TransportTCP Transport = iota
	// TransportRC serves it over reliable-connection queue pairs on HCAs
	// (the RDMA deployment model).
	TransportRC
)

func (t Transport) String() string {
	if t == TransportRC {
		return "rc"
	}
	return "tcp"
}

// RegPolicy is the memory-registration policy applied to the server hosts'
// network buffers and value arenas — the paper's §2.2 design space.
type RegPolicy int

const (
	// RegODP leaves server memory unpinned: network rings and value arenas
	// demand-page, and reclaim can evict them mid-flight.
	RegODP RegPolicy = iota
	// RegPinDown keeps rings on ODP but registers value-arena pages
	// through a bounded pin-down cache on every access, paying
	// registration churn when the working set exceeds the cache.
	RegPinDown
	// RegPinned statically pins rings and arenas up front: no faults, no
	// churn, but the memory is never reclaimable (no overcommit).
	RegPinned
)

func (p RegPolicy) String() string {
	switch p {
	case RegPinDown:
		return "pin-down-cache"
	case RegPinned:
		return "pinned"
	}
	return "odp"
}

// Config sizes the service. Zero fields take the defaults documented on
// each; a zero Config is a small but fully functional deployment.
type Config struct {
	ServerHosts int // hosts running shard replicas (default 4)
	ClientHosts int // hosts running client workloads (default 2)
	Shards      int // shard count (default 8)
	Replicas    int // replicas per shard, primary included (default 2)

	Transport Transport // default TransportTCP
	Reg       RegPolicy // default RegODP

	// ExpectedKeys sizes each replica's value arena (see arenaBytes) and is
	// the workloads' default key count (default 2048).
	ExpectedKeys int

	ServiceTime    sim.Time // per-op CPU cost at the server (default 2µs)
	HeartbeatEvery sim.Time // server-to-server heartbeat period (default 10ms)
	FailoverAfter  sim.Time // missed-heartbeat window before promotion (default 40ms)
	ReplTimeout    sim.Time // sync-replication ack timeout (default 15ms)

	// ClientTracer receives the client tier's telemetry (workload probes,
	// op/retry/front-cache counters) when the service runs partitioned: the
	// client hosts live on their own engine, so their counters must belong
	// to a tracer on that engine. Nil means the server tracer is used —
	// correct whenever the service runs on a single engine.
	ClientTracer *trace.Tracer
}

const (
	// valueBytes is the uniform value size; keys are drawn by the workload
	// generators.
	valueBytes = 1024
	// ringEntries sizes every host's NIC RX descriptor ring (TransportTCP).
	ringEntries = 256
	// logCap bounds each primary's replication log; gaps beyond it force a
	// full-snapshot resync.
	logCap = 8192
)

func (c Config) withDefaults() Config {
	if c.ServerHosts == 0 {
		c.ServerHosts = 4
	}
	if c.ClientHosts == 0 {
		c.ClientHosts = 2
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Replicas > c.ServerHosts {
		c.Replicas = c.ServerHosts
	}
	if c.ExpectedKeys == 0 {
		c.ExpectedKeys = 2048
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 2 * sim.Microsecond
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 10 * sim.Millisecond
	}
	if c.FailoverAfter == 0 {
		c.FailoverAfter = 40 * sim.Millisecond
	}
	if c.ReplTimeout == 0 {
		c.ReplTimeout = 15 * sim.Millisecond
	}
	return c
}

// arenaBytes is each replica's pre-mapped value arena: two page-rounded
// value slots per expected key on a shard (2x headroom for hash skew) plus
// eight. A RegPinDown replica's pin-down cache holds half of it, about one
// slot per expected key plus four: every key a workload touches fits, so
// the cache never evicts and the pin-down tenant's latency tracks ODP's.
func (c Config) arenaBytes() int64 {
	slot := (int64(valueBytes) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	perShard := int64(c.ExpectedKeys)/int64(c.Shards) + 1
	return slot * (2*perShard + 8)
}

// HostNode is one simulated machine participating in the service: servers
// house shard replicas, clients house workload generators. Index is the
// host's position in Service.Hosts; the first Cfg.ServerHosts entries are
// servers.
type HostNode struct {
	Index  int
	Name   string
	Server bool

	// eng is the engine this host's events run on: the service engine for
	// servers, the client engine for clients. On a single-engine service
	// both are Service.Eng. tr is the tracer its components publish to.
	eng *sim.Engine
	tr  *trace.Tracer

	M   *mem.Machine
	Drv *core.Driver

	// Exactly one of Dev/HCA is set, per Config.Transport.
	Dev *nic.Device
	HCA *rc.HCA

	svc   *Service
	ep    endpoint
	netAS *mem.AddressSpace // transport buffer address space
	mgmt  fabric.NodeID     // management-network port (heartbeats)

	// sendReplyFn is h.sendReply, bound once (servers only).
	sendReplyFn func(any)

	// free is the host's list of recycled data-path messages. Only the
	// host's own engine touches it (see rpcMsg for the ownership rule).
	free []*rpcMsg

	// Replicas hosted here, ordered by shard ID (servers only).
	replicas       []*replica
	replicaByShard map[int]*replica

	// Failure-detector state: last heartbeat seen per server host, and
	// the last heartbeat seen from anyone (the self-partition guard).
	lastHB    []sim.Time
	lastAnyHB sim.Time
	// quietUntil defers promotions after a partition heals: peers' queued
	// heartbeats recover at different retransmission times, so a rejoined
	// host would otherwise declare slow-recovering peers dead and reclaim
	// their shards. Every stale peer that comes back extends the window.
	quietUntil sim.Time

	// frontCache is the host-level hot-key cache client workloads share.
	frontCache *frontCache

	// connFails counts transport connection failures observed by this
	// host's dialer. Per-host (single-writer under PDES: both the server
	// and the client tier dial).
	connFails sim.Counter
}

// Service is one deployment: hosts, placement, shards, and counters. Build
// with New, attach workloads with NewWorkload, then run the engine.
type Service struct {
	Eng    *sim.Engine
	Net    *fabric.Network
	Tracer *trace.Tracer
	Cfg    Config

	// cliEng is the engine the client hosts run on. On a single-engine
	// service it is Eng; when Net spans a PDES group the servers live on
	// partition 0 (Eng) and the clients on partition 1. TracerC is the
	// client tier's tracer (Cfg.ClientTracer, or Tracer when unset).
	cliEng  *sim.Engine
	TracerC *trace.Tracer

	Hosts []*HostNode
	place *Placement
	// cliPrimary is the client tier's view of each shard's primary host.
	// The placement table is server-tier state, so a promotion forwards
	// the new route to the client engine through Engine.Call (inline on
	// one partition) and clients route from this snapshot. Stale routes
	// (bounded by the fabric lookahead) resolve through redirects, exactly
	// like stale routes on a real network.
	cliPrimary []int

	shards    [][]*replica // shard -> replicas in placement order
	workloads []*Workload
	nextReq   uint64 // service-global request IDs (client-partition state)
	// keys interns the canonical key names once per service; the per-op
	// path indexes it instead of Sprintf-ing. Client-partition state:
	// written only from prepopulation (pre-traffic) and cliEng events.
	keys workload.KeyTable

	started bool
	// stopped is split per partition so each side's control loops read
	// only their own engine's state: stoppedSrv parks the heartbeat and
	// detector loops, stoppedCli parks client-side re-dials. Stop sets
	// both (the server side's through Engine.Call).
	stoppedSrv bool
	stoppedCli bool

	// Counters. All of these are written from server-partition events
	// only.
	Failovers    sim.Counter
	Redirects    sim.Counter
	ReplTimeouts sim.Counter
	Resyncs      sim.Counter
	Shed         sim.Counter
	ArenaEvicts  sim.Counter
}

// ClientEngine returns the engine the client hosts run on: Eng on a
// single-engine service, the client partition's engine when partitioned.
// Events that interact with workloads (e.g. scheduling Stop after OnDone)
// must run on this engine.
func (s *Service) ClientEngine() *sim.Engine { return s.cliEng }

// New builds the service on eng and net: hosts, transports (a full mesh
// between every host pair), shard replicas with their per-shard memory
// groups and arenas, and the registration policy's pinning state. tr may
// be nil (telemetry off).
//
// When net's group has two or more partitions, eng must be partition 0's
// engine: the server hosts are placed there and every client host on
// partition 1, so one cluster executes on two engine threads while staying
// byte-identical to the single-engine run of the same seed. Construction,
// Start, and prepopulation are single-threaded (pre-run), so they may
// touch both partitions' state freely.
func New(eng *sim.Engine, net *fabric.Network, tr *trace.Tracer, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{Eng: eng, Net: net, Tracer: tr, Cfg: cfg}
	s.cliEng = eng
	s.TracerC = tr
	if g := net.Group(); g.Parts() > 1 {
		if eng != g.Engine(0) {
			panic("kv: partitioned service must be built on the group's partition-0 engine")
		}
		s.cliEng = g.Engine(1)
		if cfg.ClientTracer != nil {
			s.TracerC = cfg.ClientTracer
		}
	}
	// The per-workload counts are client-tier state: NewWorkload publishes
	// each workload's fields under these names on the client tracer.
	s.TracerC.Counter("kv.ops")
	tr.Counter("kv.failovers", &s.Failovers)
	tr.Counter("kv.repl_timeouts", &s.ReplTimeouts)
	tr.Counter("kv.resyncs", &s.Resyncs)
	tr.Counter("kv.shed", &s.Shed)
	tr.Counter("kv.redirects", &s.Redirects)
	s.TracerC.Counter("kv.frontcache_hits")
	s.TracerC.Counter("kv.retries")
	// Causal-recorder depth on the server tier: completed vs in-flight NPF
	// lifecycle records (trace/fault.go), sampled per tick.
	//npf:probepure — FaultRecordCount/PendingFaults only read recorder lengths
	tr.Probe("kv.fault_records", func() float64 { return float64(tr.FaultRecordCount()) })
	tr.Probe("kv.pending_faults", func() float64 { return float64(tr.PendingFaults()) })

	serverIdx := make([]int, cfg.ServerHosts)
	for i := range serverIdx {
		serverIdx[i] = i
	}
	s.place = NewPlacement(cfg.Shards, cfg.Replicas, serverIdx)
	s.cliPrimary = make([]int, cfg.Shards)
	for i := range s.cliPrimary {
		s.cliPrimary[i] = s.place.PrimaryHost(i)
	}

	total := cfg.ServerHosts + cfg.ClientHosts
	for i := 0; i < total; i++ {
		s.Hosts = append(s.Hosts, s.newHost(i))
	}
	s.buildMesh()
	s.buildShards()
	return s
}

func (s *Service) newHost(i int) *HostNode {
	server := i < s.Cfg.ServerHosts
	role := "server"
	if !server {
		role = "client"
	}
	h := &HostNode{
		Index:          i,
		Name:           fmt.Sprintf("kv-%s%d", role, i),
		Server:         server,
		svc:            s,
		replicaByShard: make(map[int]*replica),
	}
	h.eng, h.tr = s.Eng, s.Tracer
	if !server {
		h.eng, h.tr = s.cliEng, s.TracerC
	} else {
		h.sendReplyFn = h.sendReply
	}
	// The substrate comes from a shared topo.HostSpec; Build's construction
	// order (machine, driver, adapter) is the historical kv order, so RNG
	// split order — and every seeded result — is unchanged.
	spec := topo.HostSpec{}
	switch s.Cfg.Transport {
	case TransportRC:
		hcfg := rc.DefaultConfig()
		spec.HCA = &hcfg
	default:
		ncfg := nic.DefaultConfig()
		spec.NIC = &ncfg
	}
	b := spec.Build(h.eng, s.Net, h.tr, h.Name)
	h.M, h.Drv, h.Dev, h.HCA = b.M, b.Drv, b.Dev, b.HCA
	h.netAS = h.M.NewAddressSpace(h.Name+"-net", nil)
	h.mgmt = s.Net.AttachOn(&mgmtPort{svc: s, host: h}, h.eng)
	h.frontCache = newFrontCache(0)
	return h
}

// sendReply sends a client reply once its service delay ends. Its
// argument is the reply, whose From names the client host until send
// stamps the sender; a get hit carries the value's Size.
//
//npf:noalloc
func (h *HostNode) sendReply(arg any) {
	m := arg.(*rpcMsg)
	h.svc.send(h, m.From, rpcHeader+m.Size, m)
}

// hostODP reports whether host h's network buffers run unpinned: clients
// are always warm and pinned (unmodified machines); servers follow Reg.
func (s *Service) hostODP(h *HostNode) bool {
	return h.Server && s.Cfg.Reg != RegPinned
}

// buildShards carves each shard replica's memory: a per-shard cgroup, an
// address space holding the value arena, the KVStore over it, and the
// registration policy's pinning state.
func (s *Service) buildShards() {
	arena := s.Cfg.arenaBytes()
	s.shards = make([][]*replica, s.Cfg.Shards)
	for shard := 0; shard < s.Cfg.Shards; shard++ {
		for pos, hIdx := range s.place.ReplicaHosts(shard) {
			h := s.Hosts[hIdx]
			name := fmt.Sprintf("kv-shard%d-r%d", shard, pos)
			// The group is unlimited, but it exists so chaos plans and
			// reclaim waves can squeeze it at runtime. The store is
			// unbounded too: the arena is its only bound.
			group := mem.NewGroup(name, 0)
			as := h.M.NewAddressSpace(name, group)
			base := as.MapBytes(arena)
			store := apps.NewKVStore(as, 0)
			store.SetArena(base, arena)
			r := &replica{
				svc:     s,
				shard:   shard,
				host:    h,
				group:   group,
				as:      as,
				store:   store,
				primary: pos == 0 && hIdx == s.place.PrimaryHost(shard),
				pending: make(map[uint64]pendingSet),
				buffer:  make(map[uint64]*rpcMsg),
			}
			r.replicateFn, r.replTimeoutFn, r.ackDrainFn = r.replicate, r.replTimeout, r.ackDrain
			switch {
			case s.Cfg.Reg == RegPinned:
				pages := int(arena / mem.PageSize)
				if _, err := as.Pin(base.Page(), pages); err != nil {
					panic(fmt.Sprintf("kv: pinning %s arena: %v", name, err))
				}
			case s.Cfg.Reg == RegPinDown && h.Server:
				dom := s.hostMMUDomain(h)
				r.pdc = core.NewPinDownCache(as, dom, arena/2)
				r.pdc.SetTracer(s.Tracer)
			}
			h.replicas = append(h.replicas, r)
			h.replicaByShard[shard] = r
			s.shards[shard] = append(s.shards[shard], r)
		}
	}
}

// hostMMUDomain returns a fresh translation domain on the host's I/O MMU
// for pin-down registration of value arenas.
func (s *Service) hostMMUDomain(h *HostNode) *iommu.Domain {
	if h.HCA != nil {
		return h.HCA.MMU.NewDomain()
	}
	return h.Dev.MMU.NewDomain()
}

// Start arms the heartbeat and failure-detector loops. Workload Start
// calls it implicitly; it is idempotent. Call it before the run begins
// (construction is single-threaded): the loops it arms live on the server
// engine.
func (s *Service) Start() {
	if s.started {
		return
	}
	s.started = true
	now := s.Eng.Now()
	for _, h := range s.Hosts[:s.Cfg.ServerHosts] {
		h.lastHB = make([]sim.Time, s.Cfg.ServerHosts)
		for i := range h.lastHB {
			h.lastHB[i] = now
		}
		h.lastAnyHB = now
		// Stagger the loops deterministically so heartbeats from all
		// hosts never collapse onto identical timestamps.
		stagger := sim.Time(h.Index+1) * 13 * sim.Microsecond
		h := h
		s.Eng.After(stagger, func() { s.heartbeatLoop(h) })
		s.Eng.After(stagger+s.Cfg.FailoverAfter/2, func() { s.detectorLoop(h) })
	}
}

// Stop quiesces the control plane: heartbeat and detector loops park at
// their next tick, client-side re-dials stop. In-flight data-path work
// drains normally. Call it from a client-partition event (e.g. a workload
// OnDone) or before the run: the server side's flag travels over the
// group mailbox when the service is partitioned.
func (s *Service) Stop() {
	s.stoppedCli = true
	s.cliEng.Call(s.Eng, func() { s.stoppedSrv = true })
}

// sideStopped reports whether h's partition has been told to stop.
func (s *Service) sideStopped(h *HostNode) bool {
	if h.eng == s.cliEng {
		return s.stoppedCli
	}
	return s.stoppedSrv
}

func (s *Service) heartbeatLoop(h *HostNode) {
	if s.stoppedSrv {
		return
	}
	// Advertise the applied sequence of every primary hosted here (the
	// backups' anti-entropy signal).
	var shards []int
	var seqs []uint64
	for _, r := range h.replicas {
		if r.primary {
			shards = append(shards, r.shard)
			seqs = append(seqs, r.seq)
		}
	}
	wire := rpcHeader + 16*len(shards)
	m := &rpcMsg{Kind: rpcHeartbeat, From: h.Index, Shards: shards, Seqs: seqs}
	for peer := 0; peer < s.Cfg.ServerHosts; peer++ {
		if peer == h.Index {
			continue
		}
		// Heartbeats ride the management network (see mgmtPort), not the
		// data transports: a reliable conn's retransmission backoff would
		// blind the failure detector for far longer than the outage.
		s.Net.Send(&fabric.Packet{
			Src: h.mgmt, Dst: s.Hosts[peer].mgmt, Size: wire, Payload: m,
		})
	}
	s.Eng.After(s.Cfg.HeartbeatEvery, func() { s.heartbeatLoop(h) })
}

// detectorLoop is each server's failure detector: promote a backup when
// the shard's primary has missed heartbeats, demote (and resync) when the
// placement table says someone else took the shard over.
func (s *Service) detectorLoop(h *HostNode) {
	if s.stoppedSrv {
		return
	}
	now := s.Eng.Now()
	// A host that is not hearing anyone is the partitioned side; it must
	// not elect itself (the classic split-brain guard).
	selfConnected := now-h.lastAnyHB <= s.Cfg.FailoverAfter
	for _, r := range h.replicas {
		ph := s.place.PrimaryHost(r.shard)
		if ph == h.Index {
			if !r.primary {
				r.promote()
			}
			continue
		}
		if r.primary {
			r.demote()
			continue
		}
		// A replication gap that outlived ReplTimeout will not fill
		// itself: catch up from the primary.
		if len(r.buffer) > 0 && !r.resyncing && now-r.gapAt > s.Cfg.ReplTimeout {
			r.requestResync(false)
		}
		// A resync whose request or response rode a connection that then
		// failed would otherwise hang forever: re-issue it.
		if r.resyncing && now-r.resyncAt > 2*s.Cfg.ReplTimeout {
			r.requestResync(r.resyncFull)
		}
		if !selfConnected || now < h.quietUntil || now-h.lastHB[ph] <= s.Cfg.FailoverAfter {
			continue
		}
		// The primary looks dead. Promotion goes to the first live
		// replica in placement order; defer if that is someone else.
		for _, cand := range s.place.ReplicaHosts(r.shard) {
			if cand == ph {
				continue
			}
			if cand == h.Index {
				s.place.Promote(r.shard, h.Index)
				// Forward the new route to the client tier; across
				// partitions it lands one lookahead later, like a routing
				// update crossing a real network.
				shard, idx := r.shard, h.Index
				s.Eng.Call(s.cliEng, func() { s.cliPrimary[shard] = idx })
				s.Failovers.Inc()
				r.promote()
				break
			}
			if now-h.lastHB[cand] <= s.Cfg.FailoverAfter {
				break // a live candidate precedes us
			}
		}
	}
	s.Eng.After(s.Cfg.FailoverAfter/2, func() { s.detectorLoop(h) })
}

// Placement exposes the control-plane table (for tests and invariants).
func (s *Service) Placement() *Placement { return s.place }

// CheckConsistency verifies the replication invariant after a run has
// quiesced: every replica of every shard applied the same op sequence and
// holds identical item state. It returns human-readable violations.
func (s *Service) CheckConsistency() []string {
	var bad []string
	for shard, reps := range s.shards {
		first := reps[0]
		primaries := 0
		for _, r := range reps {
			if r.primary {
				primaries++
			}
			if r.seq != first.seq {
				bad = append(bad, fmt.Sprintf(
					"shard %d: replica on host %d at seq %d, host %d at seq %d",
					shard, r.host.Index, r.seq, first.host.Index, first.seq))
			}
			if r.store.Items() != first.store.Items() || r.store.UsedBytes() != first.store.UsedBytes() {
				bad = append(bad, fmt.Sprintf(
					"shard %d: replica state diverged (host %d: %d items/%d B, host %d: %d items/%d B)",
					shard, r.host.Index, r.store.Items(), r.store.UsedBytes(),
					first.host.Index, first.store.Items(), first.store.UsedBytes()))
			}
		}
		if primaries != 1 {
			bad = append(bad, fmt.Sprintf("shard %d: %d primaries", shard, primaries))
		}
	}
	return bad
}

// Groups returns every per-shard memory group, shard-major — the targets
// memory-pressure chaos squeezes.
func (s *Service) Groups() []*mem.Group {
	var out []*mem.Group
	for _, reps := range s.shards {
		for _, r := range reps {
			out = append(out, r.group)
		}
	}
	return out
}

// NetSpaces returns the server hosts' transport-buffer address spaces —
// the ODP-registered memory whose invalidations traverse the NPF driver.
func (s *Service) NetSpaces() []*mem.AddressSpace {
	var out []*mem.AddressSpace
	for _, h := range s.Hosts[:s.Cfg.ServerHosts] {
		out = append(out, h.netAS)
	}
	return out
}

// Spaces returns every value-arena address space, shard-major.
func (s *Service) Spaces() []*mem.AddressSpace {
	var out []*mem.AddressSpace
	for _, reps := range s.shards {
		for _, r := range reps {
			out = append(out, r.as)
		}
	}
	return out
}

// Drivers returns every host's NPF driver.
func (s *Service) Drivers() []*core.Driver {
	var out []*core.Driver
	for _, h := range s.Hosts {
		out = append(out, h.Drv)
	}
	return out
}

// Devices returns every Ethernet NIC (empty under TransportRC).
func (s *Service) Devices() []*nic.Device {
	var out []*nic.Device
	for _, h := range s.Hosts {
		if h.Dev != nil {
			out = append(out, h.Dev)
		}
	}
	return out
}

// Firmware returns the firmware of every host's adapter (NICs under
// TransportTCP, HCAs under TransportRC), in host order.
func (s *Service) Firmware() []*nic.Firmware {
	var out []*nic.Firmware
	for _, h := range s.Hosts {
		if h.Dev != nil {
			out = append(out, &h.Dev.Firmware)
		}
		if h.HCA != nil {
			out = append(out, &h.HCA.Firmware)
		}
	}
	return out
}

// NPFs sums network page faults across every host driver.
func (s *Service) NPFs() uint64 {
	var n uint64
	for _, h := range s.Hosts {
		n += h.Drv.NPFs.N
	}
	return n
}

// GroupEvictions sums reclaim evictions across the per-shard groups.
func (s *Service) GroupEvictions() uint64 {
	var n uint64
	for _, g := range s.Groups() {
		n += g.Evictions.N
	}
	return n
}

// MajorFaults sums major (swap-in) faults across the value arenas.
func (s *Service) MajorFaults() uint64 {
	var n uint64
	for _, as := range s.Spaces() {
		n += as.MajorFaults.N
	}
	return n
}

// ServerNode returns the data-path fabric node of host i (for link chaos).
func (s *Service) ServerNode(i int) fabric.NodeID {
	h := s.Hosts[i]
	if h.HCA != nil {
		return h.HCA.Node
	}
	return h.Dev.Node
}

// SetHostDown severs (or restores) host i entirely: both its data-path
// link and its management-network port. This is the "host wedged /
// top-of-rack died" fault the failover machinery exists for; downing only
// the data link (Net.SetLinkDown on ServerNode) models a partition the
// failure detector cannot see.
func (s *Service) SetHostDown(i int, down bool) {
	s.Net.SetLinkDown(s.ServerNode(i), down)
	s.Net.SetLinkDown(s.Hosts[i].mgmt, down)
}
