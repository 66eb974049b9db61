package kv

import (
	"fmt"

	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/tcp"
)

// rpcHeader is the wire overhead of every KV protocol message, on top of
// the value payload it may carry.
const rpcHeader = 64

type rpcKind int

const (
	// rpcFree is the zero kind: a message on a host's free list. No
	// handler accepts it, so a zeroed (recycled) message is never a valid
	// get, and Service.deliver panics if one arrives.
	rpcFree rpcKind = iota
	rpcGet
	rpcSet
	rpcReply
	rpcRepl
	rpcReplAck
	rpcHeartbeat
	rpcResyncReq
	rpcResyncData
)

// rpcMsg is the single wire message of the KV protocol. Fields are used
// per Kind; unused fields stay zero. Payload bytes are simulated by the
// transport's length argument, so the struct itself carries only metadata.
//
// A data-path message (a get or set, its reply, a replicated set and its
// ack) belongs to the host that last received it. That host rewrites it
// in place into the message it sends back, or returns it to its own free
// list (HostNode.freeMsg); the sender never touches it after send.
type rpcMsg struct {
	Kind  rpcKind
	From  int // sending host index
	Shard int
	Epoch uint64

	// Data path.
	Key    string
	Size   int
	ReqID  uint64 // client request id (echoed in the reply)
	Client int    // issuing client id (reply routing)
	Hit    bool   // reply: get hit
	OK     bool   // reply: set applied (false = shed)
	// Redirect marks a reply from a replica that is no longer (or not yet)
	// the shard's primary; the client re-reads placement and retries.
	Redirect bool

	// Replication.
	Seq uint64 // rpcRepl: op sequence; rpcReplAck: acked sequence
	// Resync: Full requests a snapshot; a data message carries a batch of
	// (key, size) entries starting at SeqStart, Reset clears the store
	// first, Last closes the resync.
	Full     bool
	Reset    bool
	Last     bool
	SeqStart uint64
	Keys     []string
	Sizes    []int

	// Heartbeat piggyback: the sender's primary shards and their applied
	// sequences, so a backup that lost replication traffic outright (empty
	// gap buffer, nothing left in flight) still detects it is stale.
	Shards []int
	Seqs   []uint64
}

// endpoint abstracts the per-host transport: send a message of wireBytes
// total to another host. Delivery calls Service.deliver on the receiver.
type endpoint interface {
	send(to int, wireBytes int, m *rpcMsg)
}

// mgmtPort is a host's management-network attachment: an unreliable
// fixed-function datagram port carrying only failure-detector heartbeats.
// Real deployments run their failure detectors over UDP or a management
// NIC precisely because a reliable transport's retransmission backoff
// turns a short partition into minutes of silence — exactly the pathology
// this avoids. Packets are lost while the link is down and flow again the
// instant it heals.
type mgmtPort struct {
	svc  *Service
	host *HostNode
}

func (p *mgmtPort) Deliver(pkt *fabric.Packet) {
	p.svc.deliver(p.host, pkt.Payload.(*rpcMsg))
}

// buildMesh wires every host pair. It must run after all hosts exist.
func (s *Service) buildMesh() {
	switch s.Cfg.Transport {
	case TransportRC:
		s.buildRCMesh()
	default:
		s.buildTCPMesh()
	}
}

// ---------------------------------------------------------------------------
// TCP transport: one tcp.Stack per host and a full mesh of ordered
// connections (host i sends to j exclusively over the conn i dialed), so
// no peer-identification handshake is needed.

type tcpEndpoint struct {
	svc   *Service
	host  *HostNode
	stack *tcp.Stack
	conns []*tcp.Conn // by destination host index; nil for self
}

func (s *Service) buildTCPMesh() {
	eps := make([]*tcpEndpoint, len(s.Hosts))
	for i, h := range s.Hosts {
		policy := nic.PolicyPinned
		if s.hostODP(h) {
			policy = nic.PolicyBackup
		}
		ch := h.Dev.NewChannel(h.Name, h.netAS, ringEntries, policy)
		if s.hostODP(h) {
			h.Drv.EnableODP(ch)
		}
		st := tcp.NewStack(ch, tcp.DefaultConfig())
		if !s.hostODP(h) {
			// Pinned endpoints are resident and mapped up front.
			if _, err := core.StaticPinAll(h.netAS, ch.Domain); err != nil {
				panic("kv: pinning transport buffers: " + err.Error())
			}
		}
		ep := &tcpEndpoint{svc: s, host: h, stack: st, conns: make([]*tcp.Conn, len(s.Hosts))}
		h.ep = ep
		eps[i] = ep
		h := h
		st.Listen(func(c *tcp.Conn) {
			c.OnMessage = func(payload any, n int) {
				s.deliver(h, payload.(*rpcMsg))
			}
		})
	}
	for i, ep := range eps {
		for j := range s.Hosts {
			if i != j {
				ep.dial(j)
			}
		}
	}
}

func (e *tcpEndpoint) dial(to int) {
	peerCh := e.svc.Hosts[to].ep.(*tcpEndpoint).stack.Channel()
	c := e.stack.Dial(peerCh.Dev.Node, peerCh.Flow)
	c.OnFail = func(err error) {
		e.host.connFails.Inc()
		// Re-dial so a long partition does not sever the pair forever;
		// queued messages on the failed conn are lost (clients retry).
		// OnFail fires on the dialing host's engine, so it reads its own
		// partition's stop flag.
		if !e.svc.sideStopped(e.host) {
			e.dial(to)
		}
	}
	e.conns[to] = c
}

//npf:noalloc
func (e *tcpEndpoint) send(to int, wireBytes int, m *rpcMsg) {
	if c := e.conns[to]; c != nil {
		c.Send(wireBytes, m) //npf:allocok — an *rpcMsg is pointer-shaped; boxing it does not allocate
	}
}

// ---------------------------------------------------------------------------
// RC transport: a queue pair per (unordered) host pair with a posted
// receive ring per side; messages ride SendWQE payloads.

// rcSlotBytes bounds one RC message (resync batches are chunked to fit).
const rcSlotBytes = 64 << 10

// rcRingSlots is the posted-receive (and send-buffer) depth per peer.
const rcRingSlots = 32

type rcPeer struct {
	qp     *rc.QP
	rxBase mem.VAddr
	txBase mem.VAddr
	txNext int
}

type rcEndpoint struct {
	svc   *Service
	host  *HostNode
	peers []*rcPeer // by destination host index; nil for self
}

func (s *Service) buildRCMesh() {
	eps := make([]*rcEndpoint, len(s.Hosts))
	for i, h := range s.Hosts {
		eps[i] = &rcEndpoint{svc: s, host: h, peers: make([]*rcPeer, len(s.Hosts))}
		h.ep = eps[i]
	}
	for i := range s.Hosts {
		for j := i + 1; j < len(s.Hosts); j++ {
			a := eps[i].newPeer(j)
			b := eps[j].newPeer(i)
			rc.Connect(a.qp, b.qp)
		}
	}
}

// newPeer allocates buffer rings and a QP toward host `to`, applying the
// host's registration policy.
func (e *rcEndpoint) newPeer(to int) *rcPeer {
	s, h := e.svc, e.host
	p := &rcPeer{}
	p.rxBase = h.netAS.MapBytes(rcRingSlots * rcSlotBytes)
	p.txBase = h.netAS.MapBytes(rcRingSlots * rcSlotBytes)
	p.qp = h.HCA.NewQP(h.netAS)
	if s.hostODP(h) {
		h.Drv.EnableODPQP(p.qp)
	} else {
		// Pinned (or client) endpoints: resident and mapped up front.
		for _, r := range []mem.VAddr{p.rxBase, p.txBase} {
			pages := rcRingSlots * rcSlotBytes / mem.PageSize
			if _, err := h.netAS.Pin(r.Page(), pages); err != nil {
				panic("kv: pinning rc rings: " + err.Error())
			}
			p.qp.Domain.Map(r.Page(), pages)
		}
	}
	for slot := 0; slot < rcRingSlots; slot++ {
		p.qp.PostRecv(rc.RecvWQE{
			ID:   int64(slot),
			Addr: p.rxBase + mem.VAddr(slot)*rcSlotBytes,
			Len:  rcSlotBytes,
		})
	}
	p.qp.OnRecv = func(c rc.RecvCompletion) {
		// Recycle the consumed slot, then deliver.
		p.qp.PostRecv(rc.RecvWQE{
			ID:   c.WQEID,
			Addr: p.rxBase + mem.VAddr(c.WQEID)*rcSlotBytes,
			Len:  rcSlotBytes,
		})
		s.deliver(h, c.Payload.(*rpcMsg))
	}
	e.peers[to] = p
	return p
}

//npf:noalloc
func (e *rcEndpoint) send(to int, wireBytes int, m *rpcMsg) {
	p := e.peers[to]
	if p == nil {
		return
	}
	if wireBytes > rcSlotBytes {
		wireBytes = rcSlotBytes
	}
	slot := p.txNext % rcRingSlots
	p.txNext++
	p.qp.PostSend(rc.SendWQE{
		ID:      int64(slot),
		Laddr:   p.txBase + mem.VAddr(slot)*rcSlotBytes,
		Len:     wireBytes,
		Payload: m,
	})
}

// send routes one protocol message from host h to host `to`. The message
// leaves h's hands: the receiving host owns it from delivery on.
//
//npf:noalloc
func (s *Service) send(h *HostNode, to int, wireBytes int, m *rpcMsg) {
	m.From = h.Index
	h.ep.send(to, wireBytes, m) //npf:allocok — both endpoints' send methods are fenced themselves
}

// takeMsg returns a zeroed message from h's free list, allocating only
// when the list is empty. Only h's own engine calls it.
//
//npf:noalloc
func (h *HostNode) takeMsg() *rpcMsg {
	n := len(h.free)
	if n == 0 {
		return new(rpcMsg) //npf:allocok — list refill, up to the host's messages in flight
	}
	m := h.free[n-1]
	h.free[n-1] = nil
	h.free = h.free[:n-1]
	return m
}

// freeMsg zeroes a data-path message h received and puts it on h's free
// list; its kind becomes rpcFree until the next takeMsg.
//
//npf:noalloc
func (h *HostNode) freeMsg(m *rpcMsg) {
	*m = rpcMsg{}
	h.free = append(h.free, m) //npf:allocok — list growth, up to the host's messages in flight
}

// deliver dispatches a received message on host h.
func (s *Service) deliver(h *HostNode, m *rpcMsg) {
	switch m.Kind {
	case rpcFree:
		panic(fmt.Sprintf("kv: %s received a recycled message: a data-path rpcMsg belongs to "+
			"the host that last received it, so its sender must not recycle or reuse it", h.Name))
	case rpcHeartbeat:
		if h.Server && h.lastHB != nil && m.From < len(h.lastHB) {
			now := s.Eng.Now()
			if now-h.lastHB[m.From] > s.Cfg.FailoverAfter {
				// A peer we had written off is back: hold promotions until
				// the remaining connections have had time to recover too.
				h.quietUntil = now + s.Cfg.FailoverAfter
			}
			h.lastHB[m.From] = now
			h.lastAnyHB = now
			// Anti-entropy: a backup behind the advertised primary sequence
			// with no buffered tail lost replication traffic — catch up.
			for i, shard := range m.Shards {
				r, ok := h.replicaByShard[shard]
				if ok && !r.primary && !r.resyncing && len(r.buffer) == 0 && r.seq < m.Seqs[i] {
					r.requestResync(false)
				}
			}
		}
	case rpcReply:
		s.deliverReply(h, m)
	case rpcGet, rpcSet, rpcRepl, rpcReplAck, rpcResyncReq, rpcResyncData:
		if r, ok := h.replicaByShard[m.Shard]; ok {
			r.handle(m)
		}
	}
}

// maxResyncBatch bounds resync batch entries so one message fits an RC
// receive slot (and keeps TCP resync bursts from monopolizing a conn).
const maxResyncBatch = (rcSlotBytes - rpcHeader) / valueBytes
