package topo

import (
	"fmt"
	"math"
	"unsafe"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/rc"
	"npf/internal/sim"
)

// SwarmHost multiplexes many logical clients over one fabric attachment —
// the cheap-per-host half of the scale-out story. On Ethernet a swarm host
// is just an endpoint (no NIC, no machine: the client side models load, the
// server side models the paper's mechanisms). On InfiniBand it carries a
// minimal pinned machine and ONE UD QP whose per-WQE address handles reach
// every server, so a fleet of a thousand hosts needs a thousand QPs rather
// than a connection mesh.
//
// Clients are value structs in one slice; each embeds its split RNG state
// by value and draws from its tenant's one Config, so 10^5 clients cost
// one allocation.
type SwarmHost struct {
	sweep *Sweep
	idx   int32
	eng   *sim.Engine
	node  fabric.NodeID

	// UD transport state (nil/zero on Ethernet).
	host    *Host
	qp      *rc.QP
	udAddr  rc.UDRemote
	sendBuf mem.VAddr
	rxBase  mem.VAddr
	rxDepth int64
	udHead  int64

	clients []swarmClient
	nextID  uint64
	stats   []swStats // per tenant
}

// swarmClient is one closed-loop logical client. Its op state is inline so
// the steady-state path allocates nothing per client, and it draws from
// its tenant's Config with its own RNG. It holds no pointer
// (TestSwarmClientPointerFree): a fleet's client slice is the largest
// object on the heap, and a pointer-free slice is never scanned. Its 48
// bytes (TestSwarmClientFootprint) enter StateBytes, and so the fleet
// fingerprint.
type swarmClient struct {
	rng    sim.Rand
	tenant int32
	quota  int32  // ops left to complete
	curID  uint32 // the open op's host-local id; 0: none
	key    int32
	server int32
	// attempts counts the open op's sends; timer is the EventID.Seq of
	// the retry timer its last send armed, the only one that is current.
	attempts int8
	get      bool
	host     uint16 // the SwarmHost's index in Sweep.swarms
	timer    uint64
	start    sim.Time
}

// swStats is one (swarm host, tenant) stat block; per-tenant results merge
// these across hosts after the run, in host order.
type swStats struct {
	ops      uint64
	hits     uint64
	timeouts uint64
	lost     uint64
	lat      sim.Histogram
}

// swarmPort is the Ethernet swarm endpoint: replies only.
type swarmPort struct{ sh *SwarmHost }

func (p *swarmPort) Deliver(pkt *fabric.Packet) {
	p.sh.deliverReply(pkt.Payload.(*msg))
}

func (s *Sweep) newSwarmHost(idx int32, eng *sim.Engine) *SwarmHost {
	sh := &SwarmHost{
		sweep: s,
		idx:   idx,
		eng:   eng,
		stats: make([]swStats, len(s.cfg.Tenants)),
	}
	if s.cfg.Transport == TransportEth {
		sh.node = s.net.AttachOn(&swarmPort{sh}, eng)
		return sh
	}
	// UD: minimal pinned substrate — one machine, one address space (send
	// staging plus a reply ring), one QP.
	cfg := rc.DefaultConfig()
	spec := HostSpec{RAM: swarmRAM, HCA: &cfg}
	sh.host = spec.Build(eng, s.net, nil, fmt.Sprintf("swarm-%04d", idx))
	sh.node = sh.host.HCA.Node
	sh.rxDepth = int64(s.cfg.RingSize)
	as := sh.host.M.NewAddressSpace(sh.host.Name+"-ud", nil)
	sh.sendBuf = as.MapBytes(mem.PageSize)
	sh.rxBase = as.MapBytes(sh.rxDepth * mem.PageSize)
	sh.qp = sh.host.HCA.NewQP(as)
	// Client-side buffers are conventional pinned verbs memory: the swarm
	// models load, the servers model registration policy.
	if _, err := core.StaticPinAll(as, sh.qp.Domain); err != nil {
		panic(fmt.Sprintf("topo: pinning %s: %v", sh.host.Name, err))
	}
	sh.udAddr = sh.qp.Remote()
	for i := int64(0); i < sh.rxDepth; i++ {
		sh.postUD(i)
	}
	sh.qp.OnRecv = func(c rc.RecvCompletion) {
		sh.udHead++
		sh.postUD(sh.udHead)
		sh.deliverReply(c.Payload.(*msg))
	}
	return sh
}

func (sh *SwarmHost) postUD(i int64) {
	sh.qp.PostRecv(rc.RecvWQE{
		ID:   i % sh.rxDepth,
		Addr: sh.rxBase + mem.VAddr((i%sh.rxDepth)*mem.PageSize),
		Len:  mem.PageSize,
	})
}

// addClient appends one logical client, splitting its RNG off this host's
// engine stream in construction order.
func (sh *SwarmHost) addClient(t *tenantState, quota int32) {
	sh.clients = append(sh.clients, swarmClient{
		rng:    *sh.eng.Rand().Split(),
		tenant: t.idx,
		quota:  quota,
		host:   uint16(sh.idx),
	})
}

// bindEvents binds the fleet's per-op event handlers once. A client
// event's argument is its client, a *swarmClient into its host's client
// slice, and a service delay's is the request: scheduling either
// allocates nothing.
func (s *Sweep) bindEvents() {
	s.issueFn = func(c any) { sh, ci := s.client(c); sh.issue(ci) }
	s.timeoutFn = func(c any) { sh, ci := s.client(c); sh.timeout(ci) }
	s.replyFn = func(req any) {
		m := req.(*msg)
		s.servers[m.server].tenants[m.tenant].reply(m)
	}
}

// client returns the swarm host of c, a per-client event's argument, and
// c's index in that host's client slice.
func (s *Sweep) client(c any) (*SwarmHost, int32) {
	p := c.(*swarmClient)
	sh := s.swarms[p.host]
	off := uintptr(unsafe.Pointer(p)) - uintptr(unsafe.Pointer(unsafe.SliceData(sh.clients)))
	return sh, int32(off / unsafe.Sizeof(swarmClient{}))
}

// start arms every client with ops to run, staggered 3 µs apart (the
// historical kv ramp).
func (sh *SwarmHost) start() {
	for i := range sh.clients {
		c := &sh.clients[i]
		if c.quota > 0 {
			sh.eng.AfterArg(sim.Time(i+1)*3*sim.Microsecond, sh.sweep.issueFn, c)
		}
	}
}

// newOpID returns the host's next op id. Clients keep theirs in 32 bits,
// so the count must not pass math.MaxUint32.
func (sh *SwarmHost) newOpID() uint64 {
	if sh.nextID == math.MaxUint32 {
		panic(fmt.Sprintf("topo: swarm host %d ran out of op ids", sh.idx))
	}
	sh.nextID++
	return sh.nextID
}

// retryDelay is the timeout for c's attempt number c.attempts (1-based):
// exponential backoff capped at 8x, with ±25% jitter drawn from the
// client's own stream. The jitter is what breaks fleet-wide retry
// synchronization — without it every client that lost a datagram to the
// same fault retries in the same instant, and on UD (no backup ring to
// park the storm) the synchronized bursts outrun fault resolution forever.
func (sh *SwarmHost) retryDelay(c *swarmClient) sim.Time {
	d := sh.sweep.tenants[c.tenant].cfg.RequestTimeout
	for i := int8(1); i < c.attempts && i < 4; i++ {
		d *= 2
	}
	return sim.Time(float64(d) * (0.75 + 0.5*c.rng.Float64()))
}

// send puts one request on the wire to req.server (Ethernet frame into the
// server tenant's ring, or a UD datagram via the address handle). The
// server owns req from here on.
func (sh *SwarmHost) send(req *msg) {
	s, server := sh.sweep, req.server
	size := reqHeaderBytes
	if !req.get {
		size += s.cfg.ValueBytes
	}
	if sh.qp != nil {
		sh.qp.PostSendUDTo(s.serverUD[server][req.tenant],
			rc.SendWQE{Laddr: sh.sendBuf, Len: size, Payload: req})
		return
	}
	req.Packet = fabric.Packet{
		Src: sh.node, Dst: s.serverNode[server],
		Flow: s.serverFlow[server][req.tenant],
		Size: size, Payload: req,
	}
	s.net.Send(&req.Packet)
}

func (sh *SwarmHost) issue(ci int32) {
	c := &sh.clients[ci]
	t := sh.sweep.tenants[c.tenant]
	get, key := t.cfg.NextOp(&c.rng)
	c.curID = uint32(sh.newOpID())
	c.get, c.key = get, int32(key)
	c.server = sh.sweep.pickServer(t, c.key)
	c.start = sh.eng.Now()
	c.attempts = 0
	sh.sendOp(ci)
}

func (sh *SwarmHost) sendOp(ci int32) {
	c := &sh.clients[ci]
	c.attempts++
	sh.send(&msg{
		id: uint64(c.curID), swarm: sh.idx, client: ci, server: c.server,
		tenant: c.tenant, key: c.key, get: c.get,
	})
	c.timer = sh.eng.AfterArg(sh.retryDelay(c), sh.sweep.timeoutFn, c).Seq()
}

// timeout runs when a retry timer of client ci fires. Only the timer its
// last send armed is current, and only while the op is open; every other
// one belongs to a completed op and is a no-op.
func (sh *SwarmHost) timeout(ci int32) {
	c := &sh.clients[ci]
	if c.curID == 0 || c.timer != sh.eng.EventSeq() {
		return // completed; stale timer
	}
	st := &sh.stats[c.tenant]
	if c.attempts >= maxAttempts {
		st.lost++
		sh.complete(ci, false)
		return
	}
	st.timeouts++
	sh.sendOp(ci)
}

func (sh *SwarmHost) complete(ci int32, hit bool) {
	c := &sh.clients[ci]
	c.curID = 0
	st := &sh.stats[c.tenant]
	st.ops++
	if hit {
		st.hits++
	}
	st.lat.AddTime(sh.eng.Now() - c.start)
	c.quota--
	if c.quota > 0 {
		sh.issue(ci)
	}
}

// deliverReply completes the op a reply answers. A reply whose id is not
// its client's open op is a duplicate (a retransmitted request answered
// twice) or belongs to an op already completed, and is dropped.
func (sh *SwarmHost) deliverReply(rep *msg) {
	if rep.id != uint64(sh.clients[rep.client].curID) {
		return // duplicate or stale reply
	}
	sh.complete(rep.client, rep.hit)
}
