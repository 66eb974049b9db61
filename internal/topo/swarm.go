package topo

import (
	"fmt"
	"math"

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

	// timers is the host's timer heap: each client's staggered start, then
	// its open op's retry timer, at most one entry per client. Only the
	// top has an engine event (arm). idle is the latest timer removed
	// before it had one; the host's last completion gives it its event
	// (armIdle).
	timers []swarmTimer
	idle   swarmTimer
}

// swarmTimer is one entry of a swarm host's timer heap: a client's start
// while the client has no open op, its retry timer while it has one. due
// and seq are the (time, seq) key the AfterArg call that armed the timer
// used to take; armed records that an engine event carries that key.
type swarmTimer struct {
	due    sim.Time
	seq    uint64
	client int32
	armed  bool
}

// noTimer is swarmClient.timer when the client has no heap entry.
const noTimer = -1

func timerLess(a, b *swarmTimer) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
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
	// attempts counts the open op's sends; timer is the client's index in
	// its host's timer heap, or noTimer.
	attempts int8
	get      bool
	timer    int32
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
		timer:  noTimer,
	})
}

// bindEvents binds the fleet's per-op event handlers once. A timer
// event's argument is its *SwarmHost and a service delay's is the request:
// scheduling either allocates nothing.
func (s *Sweep) bindEvents() {
	s.timerFn = func(sh any) { sh.(*SwarmHost).fire() }
	s.replyFn = func(req any) {
		m := req.(*msg)
		s.servers[m.server].tenants[m.tenant].reply(m)
	}
}

// start queues every client with ops to run, staggered 3 µs apart (the
// historical kv ramp), each under the seq an AfterArg would take here.
func (sh *SwarmHost) start() {
	sh.timers = make([]swarmTimer, 0, len(sh.clients))
	now := sh.eng.Now()
	for i := range sh.clients {
		if sh.clients[i].quota > 0 {
			sh.pushTimer(now.Add(sim.Time(i+1)*3*sim.Microsecond), sh.eng.ReserveSeqs(1), int32(i))
		}
	}
}

// fire runs a timer event. Only the heap's top acts: the event of a
// timer its op's completion removed first, or the idle timer's event,
// finds another seq or no timer there. The top starts its client when the
// client has no open op, and times the open op out otherwise.
func (sh *SwarmHost) fire() {
	if len(sh.timers) == 0 || sh.timers[0].seq != sh.eng.EventSeq() {
		return // superseded
	}
	ci := sh.timers[0].client
	sh.removeTimer(0)
	if sh.sweep.onTimer != nil {
		sh.sweep.onTimer(sh, ci)
	}
	if sh.clients[ci].curID == 0 {
		sh.issue(ci)
	} else {
		sh.timeout(ci)
	}
}

// pushTimer files client ci's timer at (due, seq).
func (sh *SwarmHost) pushTimer(due sim.Time, seq uint64, ci int32) {
	sh.timers = append(sh.timers, swarmTimer{due: due, seq: seq, client: ci})
	if sh.siftUp(int32(len(sh.timers)-1)) == 0 {
		sh.arm()
	}
}

// removeTimer drops heap entry i. A timer that never had an event is
// remembered as idle when it is the latest yet.
func (sh *SwarmHost) removeTimer(i int32) {
	h := sh.timers
	if t := &h[i]; !t.armed && timerLess(&sh.idle, t) {
		sh.idle = *t
	}
	sh.clients[h[i].client].timer = noTimer
	n := int32(len(h)) - 1
	sh.timers = h[:n]
	if i == n {
		return
	}
	h[i] = h[n]
	// The top is every entry's minimum, so only a removal at the top can
	// change it.
	if sh.siftDown(i) == i {
		sh.siftUp(i)
	}
	if i == 0 {
		sh.arm()
	}
}

// arm gives the heap's top its engine event, once: the top's seq was
// reserved and never used, and its key is still ahead of the running
// event's.
func (sh *SwarmHost) arm() {
	if t := &sh.timers[0]; !t.armed {
		t.armed = true
		sh.eng.AtArgSeq(t.due, t.seq, sh.sweep.timerFn, sh)
	}
}

// armIdle gives the idle timer its event once the host's last op has
// completed, so the host's engine clock ends where an event per timer left
// it: the sweep's FinalTime is the latest event's time.
func (sh *SwarmHost) armIdle() {
	if t := &sh.idle; t.due > sh.eng.Now() {
		sh.eng.AtArgSeq(t.due, t.seq, sh.sweep.timerFn, sh)
	}
}

// siftUp moves entry i toward the root and returns where it lands,
// keeping each moved client's index.
func (sh *SwarmHost) siftUp(i int32) int32 {
	h := sh.timers
	t := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !timerLess(&t, &h[p]) {
			break
		}
		h[i] = h[p]
		sh.clients[h[i].client].timer = i
		i = p
	}
	h[i] = t
	sh.clients[t.client].timer = i
	return i
}

// siftDown moves entry i toward the leaves and returns where it lands,
// keeping each moved client's index.
func (sh *SwarmHost) siftDown(i int32) int32 {
	h := sh.timers
	n := int32(len(h))
	t := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && timerLess(&h[r], &h[l]) {
			m = r
		}
		if !timerLess(&h[m], &t) {
			break
		}
		h[i] = h[m]
		sh.clients[h[i].client].timer = i
		i = m
	}
	h[i] = t
	sh.clients[t.client].timer = i
	return i
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
	due := sh.eng.Now().Add(sh.retryDelay(c))
	sh.pushTimer(due, sh.eng.ReserveSeqs(1), ci)
}

// timeout runs when the retry timer of client ci's open op fires: the op
// is resent, or given up after its last attempt.
func (sh *SwarmHost) timeout(ci int32) {
	c := &sh.clients[ci]
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
	if c.timer != noTimer {
		sh.removeTimer(c.timer)
	}
	st := &sh.stats[c.tenant]
	st.ops++
	if hit {
		st.hits++
	}
	st.lat.AddTime(sh.eng.Now() - c.start)
	c.quota--
	if c.quota > 0 {
		sh.issue(ci)
	} else if len(sh.timers) == 0 {
		sh.armIdle() // every client is done
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
