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

// KVRequest is the wire request of the memcached-style protocol.
type KVRequest struct {
	Op   KVOp
	Key  string
	Size int // value size for sets
}

// KVReply is the wire response.
type KVReply struct {
	Hit  bool
	Size int
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

func (s *KVServer) handle(c *tcp.Conn, req *KVRequest) {
	s.Requests.Inc()
	cost := s.ServiceTime
	reply := &KVReply{}
	switch req.Op {
	case OpGet:
		hit, size, memCost, err := s.Store.Get(req.Key)
		if err != nil {
			panic(fmt.Sprintf("kvserver: get %q: %v", req.Key, err))
		}
		cost += memCost
		reply.Hit, reply.Size = hit, size
	case OpSet:
		memCost, err := s.Store.Set(req.Key, req.Size)
		if err != nil {
			panic(fmt.Sprintf("kvserver: set %q: %v", req.Key, err))
		}
		cost += memCost
		reply.Hit = true
	}
	s.eng.After(cost, func() {
		size := kvHeader
		if req.Op == OpGet && reply.Hit {
			size += reply.Size
		}
		c.Send(size, reply)
	})
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
	conns []*tcp.Conn

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
		m.conns = append(m.conns, c)
		conn := c
		issuedAt := sim.Time(0)
		c.OnConnect = func() { issuedAt = m.eng.Now(); m.issue(conn) }
		c.OnFail = func(err error) { m.Failed = true }
		c.OnMessage = func(payload any, n int) {
			reply := payload.(*KVReply)
			m.Ops.Inc()
			m.OpsTS.Observe(m.eng.Now(), 1)
			if reply.Hit {
				m.Hits.Inc()
				m.HitsTS.Observe(m.eng.Now(), 1)
			}
			m.latencies.AddTime(m.eng.Now() - issuedAt)
			if m.Cfg.TargetOps > 0 && int(m.Ops.N) >= m.Cfg.TargetOps {
				if m.DoneAt == 0 {
					m.DoneAt = m.eng.Now()
					m.stopped = true
					if m.OnDone != nil {
						m.OnDone()
					}
				}
				return
			}
			issuedAt = m.eng.Now()
			m.issue(conn)
		}
	}
}

// Stop halts issuing (outstanding requests drain).
func (m *Memaslap) Stop() { m.stopped = true }

func (m *Memaslap) issue(c *tcp.Conn) {
	if m.stopped {
		return
	}
	if m.Cfg.TargetOps > 0 && m.issued >= m.Cfg.TargetOps {
		return
	}
	m.issued++
	var req *KVRequest
	switch {
	case m.Cfg.Prepopulate && m.prepIdx < m.Cfg.Keys:
		req = &KVRequest{Op: OpSet, Key: m.key(m.prepIdx), Size: m.Cfg.ValueSize}
		m.prepIdx++
	case m.rng.Float64() < m.Cfg.GetRatio:
		req = &KVRequest{Op: OpGet, Key: m.key(m.rng.Intn(m.Cfg.Keys))}
	default:
		req = &KVRequest{Op: OpSet, Key: m.key(m.rng.Intn(m.Cfg.Keys)), Size: m.Cfg.ValueSize}
	}
	size := kvHeader
	if req.Op == OpSet {
		size += req.Size
	}
	c.Send(size, req)
}

func (m *Memaslap) key(i int) string {
	for len(m.keys) <= i {
		m.keys = append(m.keys, fmt.Sprintf("%s-%d", m.Cfg.KeyPrefix, len(m.keys)))
	}
	return m.keys[i]
}
