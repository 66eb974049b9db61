// Package fabric simulates the physical network joining the hosts: per-node
// egress and ingress ports with line-rate serialization, propagation delay,
// bounded buffering, optional random loss, and 802.3x-style link-level
// pause (flow control).
//
// The fabric is deliberately dumb: it moves packets and can lose them.
// Reliability is the transports' job (internal/rc, internal/tcp), and NPF
// handling is the NIC's and driver's job — exactly the paper's layering.
package fabric

import (
	"fmt"

	"npf/internal/sim"
)

// NodeID identifies one host/NIC attachment point.
type NodeID int

// FlowID steers packets to a receive ring at the destination NIC. Flow
// assignment is the simulator's stand-in for RSS/flow-steering hardware.
type FlowID int64

// Packet is one frame on the wire. Size covers headers+payload for timing;
// Payload carries the protocol message as a Go value.
type Packet struct {
	Src, Dst NodeID
	Flow     FlowID
	Size     int
	Payload  any
}

// Endpoint receives packets from the fabric — implemented by the NIC.
type Endpoint interface {
	Deliver(pkt *Packet)
}

// Config sets fabric-wide defaults; per-node rates can be overridden with
// SetNodeRate.
type Config struct {
	// RateBps is the default line rate in bits per second.
	RateBps int64
	// Propagation is the one-way wire+switch latency per hop.
	Propagation sim.Time
	// IngressBufferBytes bounds each ingress port's queue. When the queue
	// is full, behaviour depends on Lossless: drop (Ethernet) or
	// backpressure-free infinite buffering (InfiniBand's credit-based
	// lossless fabric, approximated). Zero means a 512 KiB default.
	IngressBufferBytes int
	// Lossless selects InfiniBand-style no-drop behaviour.
	Lossless bool
	// LossProbability drops each delivered packet with this probability
	// (fault injection for transport tests).
	LossProbability float64
}

// DefaultEthernet matches the paper's ConnectX-3 prototype: 12 Gb/s
// effective (packet duplication halves the 24 Gb/s PCIe ceiling), ~2 µs
// switch+wire latency.
func DefaultEthernet() Config {
	return Config{RateBps: 12e9, Propagation: 2 * sim.Microsecond}
}

// DefaultInfiniBand matches the Connect-IB testbed: 56 Gb/s, ~1 µs fabric
// latency, lossless.
func DefaultInfiniBand() Config {
	return Config{RateBps: 56e9, Propagation: sim.Microsecond, Lossless: true}
}

// LossFunc decides the fate of one packet about to be delivered at a node's
// ingress: returning true drops it. Installed per link by fault injectors
// (internal/chaos); nil means no injected loss.
type LossFunc func(pkt *Packet) bool

// Network is the fabric instance. All hosts attach to the same Network,
// which spans the PDES group of the engine it was built on. Each node
// lives on the partition engine it was attached with, and propagation
// between nodes on different partitions crosses through the group's
// deterministic mailboxes.
type Network struct {
	eng   *sim.Engine
	group *sim.Group
	cfg   Config
	rng   *sim.Rand

	// nodes is indexed by NodeID. IDs are dense from 1, so slot 0 is nil.
	nodes []*node
	// arriveMail is the cross-partition hop's mail, bound once: it takes
	// the packet as its argument, so a hop posts no closure.
	arriveMail func(any)
}

type node struct {
	id       NodeID
	endpoint Endpoint
	// eng is the engine (partition) this node lives on; every event the
	// node's ports schedule, and every delivery to its endpoint, runs here.
	eng  *sim.Engine
	part int
	// seq numbers this node's in-flight propagations: the deterministic
	// tiebreak for same-timestamp mailbox deliveries from different sources.
	seq     uint64
	egress  port
	ingress port
	// prop holds the packets this node sent on same-engine hops that are
	// still propagating, oldest first; each one's land event pops it. The
	// propagation delay is one constant per network, so a source's land
	// events fire in the order it scheduled them, which is FIFO order.
	prop sim.Ring[*Packet]
	land func()
	// rng is this link's private loss stream: each node draws from its own
	// deterministic sequence, so loss outcomes on one link do not depend on
	// how deliveries interleave with other links' traffic.
	rng  *sim.Rand
	loss LossFunc
	// Wire statistics are per-node (single-writer under PDES) and summed
	// by the Network's aggregate accessors after a run.
	delivered     sim.Counter
	dropped       sim.Counter
	injectedDrops sim.Counter
}

// New creates a network on eng with the given configuration. It spans
// eng's group: Attach places nodes on eng, AttachOn on any partition, and
// cross-partition propagation rides the group mailboxes with
// cfg.Propagation as the conservative lookahead (Lookahead reports it for
// group construction).
func New(eng *sim.Engine, cfg Config) *Network {
	g := eng.Group()
	if cfg.Propagation < g.Lookahead() {
		panic("fabric: propagation below group lookahead")
	}
	if cfg.IngressBufferBytes == 0 {
		cfg.IngressBufferBytes = 512 << 10
	}
	n := &Network{
		eng:   eng,
		group: g,
		cfg:   cfg,
		rng:   eng.Rand().Split(),
		nodes: make([]*node, 1),
	}
	n.arriveMail = func(arg any) {
		p := arg.(*Packet)
		n.arrive(n.nodes[p.Dst], p)
	}
	return n
}

// NewOnGroup creates a network spanning g, built on its partition 0.
func NewOnGroup(g *sim.Group, cfg Config) *Network { return New(g.Engine(0), cfg) }

// Lookahead is the minimum cross-partition latency this fabric guarantees:
// its per-hop propagation delay.
func (cfg Config) Lookahead() sim.Time { return cfg.Propagation }

// Group returns the PDES group this fabric spans. Layers built on top
// (e.g. kv) read its partition count to decide where to place hosts.
func (n *Network) Group() *sim.Group { return n.group }

// Attach adds an endpoint to the fabric and returns its node id. Each node
// receives its own RNG stream, split off the fabric's at attach time:
// attachment order is deterministic, so per-link loss sequences are too.
func (n *Network) Attach(ep Endpoint) NodeID {
	return n.AttachOn(ep, n.eng)
}

// AttachOn adds an endpoint that lives on eng, the partition engine of
// the host that owns it; eng must be a partition of the network's group.
// Attachment must happen before the group runs (construction is
// single-threaded).
func (n *Network) AttachOn(ep Endpoint, eng *sim.Engine) NodeID {
	if eng.Group() != n.group {
		panic("fabric: attach on an engine outside the network's group")
	}
	id := NodeID(len(n.nodes))
	nd := &node{id: id, endpoint: ep, eng: eng, part: eng.Partition(), rng: n.rng.Split()}
	nd.egress.init(nd, n.cfg.RateBps, 1<<30, true, func(p *Packet) { n.hop(nd, p) })
	nd.ingress.init(nd, n.cfg.RateBps, n.cfg.IngressBufferBytes, n.cfg.Lossless, func(p *Packet) { n.deliver(nd, p) })
	nd.land = func() {
		p := nd.prop.Pop()
		n.arrive(n.nodes[p.Dst], p)
	}
	n.nodes = append(n.nodes, nd)
	return id
}

// node returns the attached node with the given id, or nil.
func (n *Network) node(id NodeID) *node {
	if id <= 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// Delivered counts packets delivered to endpoints, across all nodes.
func (n *Network) Delivered() uint64 { return n.sum(func(nd *node) uint64 { return nd.delivered.N }) }

// Dropped counts packets lost anywhere in the fabric.
func (n *Network) Dropped() uint64 { return n.sum(func(nd *node) uint64 { return nd.dropped.N }) }

// InjectedDrops counts packets dropped by per-link LossFuncs and downed
// links (a subset of Dropped).
func (n *Network) InjectedDrops() uint64 {
	return n.sum(func(nd *node) uint64 { return nd.injectedDrops.N })
}

// sum folds a per-node statistic.
func (n *Network) sum(f func(*node) uint64) uint64 {
	var total uint64
	for _, nd := range n.nodes[1:] {
		total += f(nd)
	}
	return total
}

// SetNodeRate overrides both port rates of one node (e.g. a slow NIC on an
// otherwise faster fabric). The 12 Gb/s prototype NIC needs no override:
// it is DefaultEthernet's RateBps.
func (n *Network) SetNodeRate(id NodeID, rateBps int64) {
	nd := n.nodes[id]
	nd.egress.rateBps = rateBps
	nd.ingress.rateBps = rateBps
}

// Send injects a packet at its source's egress port. The packet reaches
// Dst's endpoint after egress serialization, propagation, and ingress
// serialization — unless it is dropped by a full ingress buffer or the loss
// injector.
func (n *Network) Send(pkt *Packet) {
	src := n.node(pkt.Src)
	if src == nil {
		panic(fmt.Sprintf("fabric: send from unattached node %d", pkt.Src)) //npf:allocok — invariant violation
	}
	if n.node(pkt.Dst) == nil {
		panic(fmt.Sprintf("fabric: send to unattached node %d", pkt.Dst)) //npf:allocok — invariant violation
	}
	src.egress.enqueue(pkt)
}

// hop runs when a packet leaves src's egress port: after propagation it
// reaches the destination's ingress port. A cross-partition hop rides the
// group mailbox — (src node id, per-node seq) is the deterministic
// tiebreak for same-instant arrivals from different senders; the packet
// itself is the mail's argument, so the hop allocates nothing, and it
// belongs to the destination partition from then on. A hop between nodes
// of the same partition must NOT use the mailbox: a partition's execution
// bound is derived from the other partitions' clocks only, so its local
// tail could run past a self-posted mail and execute events out of
// timestamp order. The engine's own queue orders it correctly (and local
// events deterministically precede same-instant cross-partition mail).
func (n *Network) hop(src *node, p *Packet) {
	dst := n.nodes[p.Dst]
	if dst.eng != src.eng {
		src.seq++
		n.group.Post(src.part, dst.part, src.eng.Now().Add(n.cfg.Propagation),
			uint64(src.id), src.seq, n.arriveMail, p)
		return
	}
	src.prop.Push(p)
	src.eng.After(n.cfg.Propagation, src.land)
}

// arrive runs on the destination node's partition: the packet enters
// ingress serialization.
func (n *Network) arrive(dst *node, p *Packet) { dst.ingress.enqueue(p) }

// deliver runs when a packet leaves dst's ingress port: loss decisions
// drawn from the destination's private stream, then the endpoint.
func (n *Network) deliver(dst *node, p *Packet) {
	if dst.loss != nil && dst.loss(p) {
		dst.dropped.Inc()
		dst.injectedDrops.Inc()
		return
	}
	if n.cfg.LossProbability > 0 && dst.rng.Bernoulli(n.cfg.LossProbability) {
		dst.dropped.Inc()
		return
	}
	dst.delivered.Inc()
	dst.endpoint.Deliver(p)
}

// SetLossFunc installs (or, with nil, removes) an injected per-link loss
// decision on a node's ingress. The function runs once per packet that
// survives buffering, before the config-level LossProbability draw.
func (n *Network) SetLossFunc(id NodeID, fn LossFunc) {
	n.nodes[id].loss = fn
}

// SetLinkDown severs (or restores) a node's link in both directions:
// while down, everything it sends or should receive is silently dropped —
// a cable pull, unlike Pause which buffers.
func (n *Network) SetLinkDown(id NodeID, down bool) {
	nd := n.nodes[id]
	nd.ingress.blackhole = down
	nd.egress.blackhole = down
}

// NodeIDs returns every attached node id in ascending order (a stable
// enumeration for fault injectors and diagnostics).
func (n *Network) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes)-1)
	for _, nd := range n.nodes[1:] {
		ids = append(ids, nd.id)
	}
	return ids
}

// SetBlackhole makes a node's ingress silently discard all traffic (on) —
// a true black hole for loss testing, unlike Pause which buffers.
func (n *Network) SetBlackhole(id NodeID, on bool) {
	n.nodes[id].ingress.blackhole = on
}

// Pause asserts or releases link-level flow control on a node's ingress:
// while paused, packets queue at the ingress port (and, if the buffer
// fills, are dropped on lossy fabrics — congestion spreading is out of
// scope, as the paper excludes this mechanism for rNPFs anyway).
func (n *Network) Pause(id NodeID, paused bool) {
	n.nodes[id].ingress.setPaused(paused)
}

// QueuedBytes reports bytes buffered at a node's ingress (visibility for
// tests).
func (n *Network) QueuedBytes(id NodeID) int {
	return n.nodes[id].ingress.queuedBytes
}

// port is a rate-limited FIFO stage. It belongs to one node and schedules
// all of its events on that node's engine.
type port struct {
	owner    *node
	rateBps  int64
	capBytes int
	lossless bool

	// cur is the packet being serialized, nil while the port is idle; queue
	// holds the packets waiting behind it.
	cur         *Packet
	queue       sim.Ring[*Packet]
	queuedBytes int
	paused      bool
	blackhole   bool

	// done takes each packet as its serialization completes; fire is the
	// serialization-complete event. Both are bound once, at attach time, so
	// a hop creates no closure.
	done func(*Packet)
	fire func()
}

func (p *port) init(owner *node, rateBps int64, capBytes int, lossless bool, done func(*Packet)) {
	p.owner, p.rateBps, p.capBytes, p.lossless = owner, rateBps, capBytes, lossless
	p.done = done
	p.fire = p.serialized
}

//npf:noalloc
func (p *port) enqueue(pkt *Packet) {
	if p.blackhole {
		p.owner.dropped.Inc()
		return
	}
	if !p.lossless && p.queuedBytes+pkt.Size > p.capBytes {
		p.owner.dropped.Inc()
		return
	}
	p.queue.Push(pkt)
	p.queuedBytes += pkt.Size
	p.kick()
}

func (p *port) setPaused(paused bool) {
	p.paused = paused
	if !paused {
		p.kick()
	}
}

//npf:noalloc
func (p *port) kick() {
	if p.cur != nil || p.paused || p.queue.Len() == 0 {
		return
	}
	pkt := p.queue.Pop()
	p.queuedBytes -= pkt.Size
	p.cur = pkt
	ser := sim.Time(int64(pkt.Size) * 8 * int64(sim.Second) / p.rateBps)
	p.owner.eng.After(ser, p.fire)
}

// serialized is the fire event: the in-service packet has left the port.
func (p *port) serialized() {
	pkt := p.cur
	p.cur = nil
	p.done(pkt)
	p.kick()
}
