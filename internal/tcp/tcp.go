// Package tcp implements the transport the paper's Ethernet IOusers run
// over their direct channels: a TCP stack in the spirit of lwIP/Linux with
// slow start, congestion avoidance, retransmission timeouts with
// exponential backoff, duplicate-ACK fast retransmit, SYN retries, and
// abort after too many retries.
//
// These mechanisms — not raw bandwidth — are what make dropping
// rNPF-faulting packets catastrophic (§5's cold-ring problem): drops look
// like congestion, the sender backs off exactly when the receiver needs
// more packets to page its ring in, and the two sides converge to a
// near-deadlock or a declared connection failure.
//
// The stack is message-oriented at the API (applications send and receive
// framed messages) but fully byte-stream sequenced on the wire, so loss,
// reordering, and partial delivery behave like real TCP.
package tcp

import (
	"errors"
	"fmt"

	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

// ErrTooManyRetries is reported to the application when the stack gives up
// on a connection (§5: "the TCP maximal retry number is exceeded and the
// stack announces a failure to the application layer").
var ErrTooManyRetries = errors.New("tcp: connection failed: too many retransmissions")

// Config holds stack parameters; defaults mirror the paper-era Linux 3.x
// values that shape Figure 4.
type Config struct {
	MSS             int      // payload bytes per segment
	HeaderBytes     int      // wire overhead per segment
	RWndBytes       int      // receiver window (fixed)
	InitialCwndSegs int      // IW (Linux 3.x: 10)
	InitRTO         sim.Time // RFC 6298 initial RTO
	MinRTO          sim.Time
	MaxRTO          sim.Time
	MaxRetries      int // data retransmissions before abort (Linux tcp_retries2)
	SynRTO          sim.Time
	SynMaxRetries   int // Linux tcp_syn_retries
	TxRingEntries   int // transmit buffer ring size
}

// DefaultConfig returns Linux-3.x-like parameters with a 4000-byte MSS
// (jumbo frames keep simulated event counts tractable; see DESIGN.md §6).
func DefaultConfig() Config {
	return Config{
		MSS:             4000,
		HeaderBytes:     66,
		RWndBytes:       1 << 20,
		InitialCwndSegs: 10,
		InitRTO:         sim.Second,
		MinRTO:          200 * sim.Millisecond,
		MaxRTO:          60 * sim.Second,
		MaxRetries:      15,
		SynRTO:          sim.Second,
		SynMaxRetries:   6,
		TxRingEntries:   512,
	}
}

type segKind int

const (
	segSyn segKind = iota
	segSynAck
	segData // carries Len payload bytes (Len may be 0 for a pure ACK)
)

// msgEnd marks the application message whose last byte the segment
// carries; its payload is delivered when the receiver consumes the
// segment in order. Len is zero on a segment that ends no message.
type msgEnd struct {
	Len     int
	Payload any
}

// segment is the wire unit. Send attaches a message only to the chunk that
// carries its last byte, so a segment ends at most one message. The
// sender's node is the frame's Packet.Src, which the NIC stamps.
type segment struct {
	Conn    uint64
	Kind    segKind
	Seq     uint64
	Len     int
	Ack     uint64
	Msg     msgEnd
	SrcFlow fabric.FlowID
}

// frame is one segment on the wire: the fabric packet that carries it, with
// Payload pointing back at the frame, so each wire segment is one object.
// Frames come from the sending stack's free list (Stack.transmit) and
// return to it once the receiving stack has handled them (Stack.RxComplete).
type frame struct {
	fabric.Packet
	seg  segment
	from *Stack // the sending stack, whose free list the frame returns to
}

// ConnState is the connection lifecycle state.
type ConnState int

const (
	StateSynSent ConnState = iota
	StateEstablished
	StateFailed
	StateClosed
)

func (s ConnState) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateEstablished:
		return "established"
	case StateFailed:
		return "failed"
	case StateClosed:
		return "closed"
	}
	return "invalid"
}

// Stack is one TCP endpoint bound to a NIC channel. It owns the channel's
// receive ring buffers and a transmit buffer ring in the IOuser's address
// space — under ODP these are ordinary unpinned memory and fault on first
// touch (the cold ring).
type Stack struct {
	Cfg Config
	ch  *nic.Channel
	eng *sim.Engine

	conns    map[uint64]*Conn
	nextConn uint64
	listen   func(*Conn)

	rxBufBase mem.VAddr
	txBufBase mem.VAddr
	txNext    int
	// free holds frames this stack sent that have been delivered and
	// handled on this stack's engine, ready for reuse by transmit.
	free []*frame

	// Stats.
	SegsSent    sim.Counter
	SegsRecv    sim.Counter
	Retransmits sim.Counter
	Timeouts    sim.Counter
	FastRetx    sim.Counter
	Failures    sim.Counter

	// Telemetry, inherited from the channel's device at construction (nil
	// when the device is untraced).
	tr *trace.Tracer
}

// NewStack builds a stack over ch and posts the full receive ring. Buffers
// are allocated (mapped, not touched) from the channel's address space.
func NewStack(ch *nic.Channel, cfg Config) *Stack {
	s := &Stack{
		Cfg:   cfg,
		ch:    ch,
		eng:   ch.Dev.Eng,
		conns: make(map[uint64]*Conn),
	}
	s.tr = ch.Dev.Tracer
	s.tr.Counter("tcp.retransmits", &s.Retransmits)
	s.tr.Counter("tcp.timeouts", &s.Timeouts)
	s.tr.Counter("tcp.fast_retx", &s.FastRetx)
	s.tr.Counter("tcp.failures", &s.Failures)
	s.tr.Probe("tcp.inflight_segs", func() float64 {
		sum := 0.0
		//npf:orderinvariant — summing per-connection windows is commutative
		for _, c := range s.conns {
			sum += float64(c.sent)
		}
		return sum
	})
	bufBytes := int64(mem.PageSize)
	ringSize := ch.Rx.Size()
	s.rxBufBase = ch.AS.MapBytes(int64(ringSize) * bufBytes)
	s.txBufBase = ch.AS.MapBytes(int64(cfg.TxRingEntries) * bufBytes)
	ch.SetRxHandler(s)
	ch.SetTxHandler(s)
	for i := 0; i < ringSize; i++ {
		ch.Rx.PostRx(nic.Descriptor{Buffer: s.rxBuf(int64(i)), Len: mem.PageSize})
	}
	return s
}

// Channel returns the underlying NIC channel.
func (s *Stack) Channel() *nic.Channel { return s.ch }

// RxBuffers returns the base address and byte length of the receive-ring
// buffer region (used by pinning strategies and fault injectors).
func (s *Stack) RxBuffers() (mem.VAddr, int64) {
	return s.rxBufBase, int64(s.ch.Rx.Size()) * mem.PageSize
}

// TxBuffers returns the transmit buffer region.
func (s *Stack) TxBuffers() (mem.VAddr, int64) {
	return s.txBufBase, int64(s.Cfg.TxRingEntries) * mem.PageSize
}

// WarmBuffers pre-faults and maps the RX then the TX buffer region, so an
// ODP stack starts warm (testbed setup: no cold-ring effects).
func (s *Stack) WarmBuffers() {
	warm := func(base mem.VAddr, n int64) {
		pages := int(n / mem.PageSize)
		if _, err := s.ch.AS.TouchPages(base.Page(), pages, true); err != nil {
			panic(err)
		}
		s.ch.Domain.Map(base.Page(), pages)
	}
	warm(s.RxBuffers())
	warm(s.TxBuffers())
}

func (s *Stack) rxBuf(i int64) mem.VAddr {
	return s.rxBufBase + mem.VAddr(i%int64(s.ch.Rx.Size()))*mem.PageSize
}

// Listen installs the accept callback for incoming connections.
func (s *Stack) Listen(fn func(*Conn)) { s.listen = fn }

// Dial opens a connection to the stack listening on (peerNode, peerFlow).
// The returned Conn is usable immediately: writes queue until the handshake
// completes.
func (s *Stack) Dial(peerNode fabric.NodeID, peerFlow fabric.FlowID) *Conn {
	s.nextConn++
	// Connection ids must be unique across every stack in the simulation:
	// combine the fabric node, the channel flow, and a local counter.
	id := uint64(s.ch.Dev.Node)<<48 | uint64(s.ch.Flow)<<32 | s.nextConn
	c := newConn(s, id, peerNode, peerFlow, StateSynSent)
	s.conns[id] = c
	c.sendSyn()
	return c
}

// RxComplete implements nic.RxHandler. Once a segment is handled, its frame
// goes back to the sender's free list — but only when the sender runs on
// this stack's engine. A frame that crossed partitions is left to the
// garbage collector, so no free list is ever touched from two engines'
// goroutines.
func (s *Stack) RxComplete(ch *nic.Channel, comps []nic.RxCompletion) {
	for _, comp := range comps {
		s.SegsRecv.Inc()
		f := comp.Payload.(*frame)
		s.handleSegment(f)
		// lwIP-style fixed buffers: recycle the completed buffer.
		ch.Rx.PostRx(nic.Descriptor{Buffer: s.rxBuf(comp.Index), Len: mem.PageSize})
		if from := f.from; from.eng == s.eng {
			// Zeroed, so a handler that kept a field past its return reads
			// garbage at once rather than a later segment's value by chance.
			*f = frame{Packet: fabric.Packet{Payload: comp.Payload}}
			from.free = append(from.free, f)
		}
	}
}

// TxComplete implements nic.TxHandler. Buffers are recycled round-robin;
// nothing to do.
func (s *Stack) TxComplete(ch *nic.Channel, comps []nic.TxCompletion) {}

// handleSegment handles the segment f carries; a SYN's sender is the
// frame's Packet.Src.
func (s *Stack) handleSegment(f *frame) {
	seg := &f.seg
	switch seg.Kind {
	case segSyn:
		c, ok := s.conns[seg.Conn]
		if !ok {
			if s.listen == nil {
				return
			}
			c = newConn(s, seg.Conn, f.Src, seg.SrcFlow, StateEstablished)
			s.conns[seg.Conn] = c
			s.listen(c)
		}
		// Respond to every SYN, including duplicates: the client may have
		// lost our SYN-ACK to a cold ring.
		c.sendSegment(&segment{Conn: c.id, Kind: segSynAck})
	case segSynAck:
		c, ok := s.conns[seg.Conn]
		if !ok || c.state != StateSynSent {
			return
		}
		c.establish()
	case segData:
		c, ok := s.conns[seg.Conn]
		if !ok || c.state == StateFailed || c.state == StateClosed {
			return
		}
		c.handleData(seg)
	}
}

// transmit posts one segment to the NIC, copied once into a frame drawn
// from the free list and stamped with ack and the sender's flow. The TX
// buffer may fault (send-side NPF) under ODP; the NIC suspends and the
// driver resolves it.
//
//npf:noalloc
func (s *Stack) transmit(peerNode fabric.NodeID, peerFlow fabric.FlowID, seg *segment, ack uint64) {
	s.SegsSent.Inc()
	var f *frame
	if n := len(s.free); n > 0 {
		f = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		f = newFrame() //npf:allocok — pool refill, up to the number of frames in flight
	}
	f.seg = *seg
	f.seg.Ack = ack
	f.seg.SrcFlow = s.ch.Flow
	f.Dst = peerNode
	f.Flow = peerFlow
	f.from = s
	buf := s.txBufBase + mem.VAddr(s.txNext%s.Cfg.TxRingEntries)*mem.PageSize
	s.txNext++
	s.ch.Tx.Post(nic.TxDesc{
		Buffer: buf,
		Len:    seg.Len + s.Cfg.HeaderBytes,
		Frame:  &f.Packet,
	})
}

// newFrame allocates a frame whose packet payload points back at it.
func newFrame() *frame {
	f := new(frame)
	f.Payload = f
	return f
}

func (s *Stack) String() string { return fmt.Sprintf("tcp-stack(%s)", s.ch.Name) }
