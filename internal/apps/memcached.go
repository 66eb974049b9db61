package apps

import (
	"fmt"

	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/tcp"
)

// KVOp is a key-value operation code.
type KVOp int

const (
	OpGet KVOp = iota
	OpSet
)

// KVRequest is the one wire object of a memcached round trip: the client
// sends it, the server writes the result into it and sends the same object
// back as the reply.
//
// Ownership: a request belongs to the side that last received it. The
// client must not touch it between Send and the reply's arrival, and the
// server must not touch it after sending the reply. Memaslap's closed loop
// keeps exactly one request outstanding per connection, so it reuses one
// KVRequest per connection for every op.
type KVRequest struct {
	Op  KVOp
	Key string
	// Size is the value size in bytes: a set carries it to the server, and
	// a get hit carries the stored value's size back.
	Size int
	// Hit is the result: the key was found (always true for a set).
	Hit bool

	conn *tcp.Conn // the server-side connection the request arrived on
}

const kvHeader = 60 // request/response framing overhead in bytes

// KVServer serves the memcached protocol over a TCP stack bound to a direct
// channel (the paper's running example: memcached in a container over lwIP
// and a kernel-bypass Ethernet channel).
type KVServer struct {
	Store *KVStore
	// ServiceTime is the CPU cost per request outside memory effects
	// (parsing, hashing, event loop). The simulation is scaled: see
	// EXPERIMENTS.md.
	ServiceTime sim.Time

	stack *tcp.Stack
	eng   *sim.Engine

	Requests sim.Counter
}

// NewKVServer attaches a server to stack.
func NewKVServer(stack *tcp.Stack, store *KVStore, service sim.Time) *KVServer {
	s := &KVServer{Store: store, ServiceTime: service, stack: stack, eng: stack.Channel().Dev.Eng}
	stack.Listen(func(c *tcp.Conn) {
		c.OnMessage = func(payload any, n int) { s.handle(c, payload.(*KVRequest)) }
	})
	return s
}

// handle serves one request that arrived on c: it writes the result into
// req and schedules the reply after the request's CPU and memory cost.
//
//npf:noalloc
func (s *KVServer) handle(c *tcp.Conn, req *KVRequest) {
	s.Requests.Inc()
	req.conn = c
	cost := s.ServiceTime
	switch req.Op {
	case OpGet:
		hit, size, memCost, err := s.Store.Get(req.Key)
		if err != nil {
			panic(fmt.Sprintf("kvserver: get %q: %v", req.Key, err)) //npf:allocok — invariant violation
		}
		cost += memCost
		req.Hit, req.Size = hit, size
	case OpSet:
		memCost, err := s.Store.Set(req.Key, req.Size)
		if err != nil {
			panic(fmt.Sprintf("kvserver: set %q: %v", req.Key, err)) //npf:allocok — invariant violation
		}
		cost += memCost
		req.Hit = true
	}
	s.eng.AfterArg(cost, sendReply, req) //npf:allocok — a *KVRequest is pointer-shaped; boxing it does not allocate
}

// sendReply sends a served request back on the connection it arrived on.
// It is a plain function, so scheduling it creates no closure.
//
//npf:noalloc
func sendReply(arg any) {
	req := arg.(*KVRequest)
	size := kvHeader
	if req.Op == OpGet && req.Hit {
		size += req.Size
	}
	req.conn.Send(size, req) //npf:allocok — a *KVRequest is pointer-shaped; boxing it does not allocate
}

// MemaslapConfig parameterises the load generator.
type MemaslapConfig struct {
	Conns     int
	GetRatio  float64 // memaslap default: 0.9
	ValueSize int     // memaslap default here: 1 KB
	Keys      int     // working-set size in distinct keys
	KeyPrefix string  // distinguishes instances sharing a fabric
	// TargetOps stops the generator after this many completed operations
	// (Figure 4b); 0 means run forever.
	TargetOps int
	// Prepopulate issues one set per key before the measured load.
	Prepopulate bool
}

// Memaslap is the closed-loop load generator: each connection keeps exactly
// one request outstanding.
type Memaslap struct {
	Cfg   MemaslapConfig
	stack *tcp.Stack
	eng   *sim.Engine
	rng   *sim.Rand

	issued    int
	prepIdx   int
	stopped   bool
	DoneAt    sim.Time // when TargetOps completed (0 if not yet)
	Failed    bool     // a connection was aborted by TCP
	Ops       sim.Counter
	Hits      sim.Counter
	OpsTS     *sim.TimeSeries
	HitsTS    *sim.TimeSeries
	OnDone    func()
	latencies sim.Histogram
	// keys caches key(i) for every index drawn so far, so a steady-state
	// op formats no string.
	keys []string
}

// slapConn is one closed-loop connection: the request object it reuses for
// every op and when the outstanding op was issued.
type slapConn struct {
	m        *Memaslap
	c        *tcp.Conn
	req      KVRequest
	issuedAt sim.Time
}

// NewMemaslap builds a generator on the client stack, bucketing its time
// series at tsInterval.
func NewMemaslap(stack *tcp.Stack, cfg MemaslapConfig, tsInterval sim.Time) *Memaslap {
	eng := stack.Channel().Dev.Eng
	return &Memaslap{
		Cfg:    cfg,
		stack:  stack,
		eng:    eng,
		rng:    eng.Rand().Split(),
		OpsTS:  sim.NewTimeSeries(tsInterval),
		HitsTS: sim.NewTimeSeries(tsInterval),
	}
}

// Latency returns the request latency histogram (µs).
func (m *Memaslap) Latency() *sim.Histogram { return &m.latencies }

// SetWorkingSet changes the number of distinct keys accessed from now on
// (Figure 7's working-set flip).
func (m *Memaslap) SetWorkingSet(keys int) { m.Cfg.Keys = keys }

// Start dials the server and begins issuing load.
func (m *Memaslap) Start(serverNode fabric.NodeID, serverFlow fabric.FlowID) {
	for i := 0; i < m.Cfg.Conns; i++ {
		c := m.stack.Dial(serverNode, serverFlow)
		sc := &slapConn{m: m, c: c}
		c.OnConnect = sc.issue
		c.OnFail = func(err error) { m.Failed = true }
		c.OnMessage = sc.onReply
	}
}

// Stop halts issuing (outstanding requests drain).
func (m *Memaslap) Stop() { m.stopped = true }

// onReply completes the connection's outstanding op and issues the next.
//
//npf:noalloc
func (sc *slapConn) onReply(payload any, n int) {
	m := sc.m
	req := payload.(*KVRequest)
	now := m.eng.Now()
	m.Ops.Inc()
	m.OpsTS.Observe(now, 1) //npf:allocok — a new bucket, once per interval
	if req.Hit {
		m.Hits.Inc()
		m.HitsTS.Observe(now, 1) //npf:allocok — a new bucket, once per interval
	}
	m.latencies.AddTime(now - sc.issuedAt) //npf:allocok — amortized: the sample slice doubles
	if m.Cfg.TargetOps > 0 && int(m.Ops.N) >= m.Cfg.TargetOps {
		if m.DoneAt == 0 {
			m.DoneAt = now
			m.stopped = true
			if m.OnDone != nil {
				m.OnDone() //npf:allocok — once, when TargetOps completes
			}
		}
		return
	}
	sc.issue()
}

// issue fills the connection's request with the next op and sends it.
func (sc *slapConn) issue() {
	m := sc.m
	sc.issuedAt = m.eng.Now()
	if m.stopped {
		return
	}
	if m.Cfg.TargetOps > 0 && m.issued >= m.Cfg.TargetOps {
		return
	}
	m.issued++
	op, k, size := OpSet, m.prepIdx, m.Cfg.ValueSize
	switch {
	case m.Cfg.Prepopulate && m.prepIdx < m.Cfg.Keys:
		m.prepIdx++
	case m.rng.Float64() < m.Cfg.GetRatio:
		op, k, size = OpGet, m.rng.Intn(m.Cfg.Keys), 0
	default:
		k = m.rng.Intn(m.Cfg.Keys)
	}
	sc.req = KVRequest{Op: op, Key: m.key(k), Size: size}
	// A set carries its value; a get carries only the header.
	sc.c.Send(kvHeader+size, &sc.req) //npf:allocok — a *KVRequest is pointer-shaped; boxing it does not allocate
}

func (m *Memaslap) key(i int) string {
	for len(m.keys) <= i {
		m.keys = append(m.keys, fmt.Sprintf("%s-%d", m.Cfg.KeyPrefix, len(m.keys))) //npf:allocok — first use of each key index; warm ops reuse the cached string
	}
	return m.keys[i]
}
