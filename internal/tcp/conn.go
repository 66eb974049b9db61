package tcp

import (
	"npf/internal/fabric"
	"npf/internal/sim"
	"npf/internal/trace"
)

// Conn is one TCP connection. Applications write framed messages with Send
// and receive them via OnMessage; on the wire everything is a sequenced
// byte stream.
type Conn struct {
	stack    *Stack
	id       uint64
	peerNode fabric.NodeID
	peerFlow fabric.FlowID
	state    ConnState

	// Application callbacks.
	OnMessage func(payload any, length int)
	OnConnect func()
	OnFail    func(err error)

	// Sender state (bytes).
	sndUna   uint64
	sndNxt   uint64
	sndMax   uint64 // highest sequence ever transmitted (survives rewinds)
	written  uint64
	cwnd     int
	ssthresh int
	// q holds every unacknowledged segment in sequence order, segmented at
	// Send time; the first sent of them are on the wire, the rest wait for
	// the window. An RTO rewind sets sent back to zero (go-back-N).
	q       sim.Ring[segment]
	sent    int
	dupAcks int

	// RTO state.
	srtt, rttvar sim.Time
	rto          sim.Time
	retries      int
	synRetries   int
	timer        sim.EventID
	timerArmed   bool
	// fire is the timer callback (onTimer), bound once so arming the timer
	// creates no closure.
	fire func()
	// rttSeq/rttSentAt sample one segment per window for RTT estimation
	// (Karn's algorithm: never sample retransmitted data).
	rttSeq    uint64
	rttSentAt sim.Time
	rttValid  bool

	// Receiver state.
	rcvNxt uint64
	ooo    map[uint64]segment

	// retxStart is the start of the open retransmission episode, -1 when
	// none is open. An episode opens at the first RTO and closes when new
	// data is finally acknowledged (or the connection fails); under the
	// cold-ring problem these stretch to seconds.
	retxStart sim.Time
}

func newConn(s *Stack, id uint64, peerNode fabric.NodeID, peerFlow fabric.FlowID, st ConnState) *Conn {
	c := &Conn{
		stack:     s,
		id:        id,
		peerNode:  peerNode,
		peerFlow:  peerFlow,
		state:     st,
		cwnd:      initialCwndSegs * mss,
		ssthresh:  rwndBytes,
		rto:       s.Cfg.InitRTO,
		ooo:       make(map[uint64]segment),
		retxStart: -1,
	}
	c.fire = c.onTimer
	return c
}

// Send writes one framed application message of length bytes. The payload
// travels with the segment carrying the message's final byte and is
// delivered to the peer's OnMessage once the stream is contiguous there.
//
//npf:noalloc
func (c *Conn) Send(length int, payload any) {
	if c.state == StateFailed {
		return
	}
	remaining := length
	for remaining > 0 {
		chunk := remaining
		if chunk > mss {
			chunk = mss
		}
		c.q.Push(segment{Conn: c.id, Kind: segData, Seq: c.written, Len: chunk})
		c.written += uint64(chunk)
		remaining -= chunk
	}
	if length > 0 {
		c.q.At(c.q.Len() - 1).Msg = msgEnd{Len: length, Payload: payload}
	}
	if c.state == StateEstablished {
		c.trySend()
	}
}

// ---------------------------------------------------------------------------
// Handshake.

func (c *Conn) sendSyn() {
	c.sendSegment(&segment{Conn: c.id, Kind: segSyn})
	c.armTimer(c.backoff(c.stack.Cfg.SynRTO, c.synRetries))
}

// onSynTimeout retries the SYN with backoff, or gives up.
func (c *Conn) onSynTimeout() {
	c.synRetries++
	c.stack.Retransmits.Inc()
	if c.synRetries > c.stack.Cfg.SynMaxRetries {
		c.fail()
		return
	}
	c.sendSyn()
}

func (c *Conn) establish() {
	c.state = StateEstablished
	c.disarmTimer()
	c.retries = 0
	if c.OnConnect != nil {
		c.OnConnect()
	}
	c.trySend()
}

func (c *Conn) fail() {
	c.state = StateFailed
	c.disarmTimer()
	c.stack.Failures.Inc()
	if c.retxStart >= 0 {
		// A failed retx episode (B = -1 marks failure).
		c.stack.tr.FaultContext(trace.FSRetx, c.retxStart, c.stack.eng.Now()-c.retxStart, int64(c.id), -1, 0)
		c.retxStart = -1
	}
	if c.OnFail != nil {
		c.OnFail(ErrTooManyRetries)
	}
}

// ---------------------------------------------------------------------------
// Sender.

func (c *Conn) inflightBytes() int {
	return int(c.sndNxt - c.sndUna)
}

// trySend transmits queued segments within min(cwnd, rwnd).
//
//npf:noalloc
func (c *Conn) trySend() {
	wnd := c.cwnd
	if wnd > rwndBytes {
		wnd = rwndBytes
	}
	moved := false
	for c.sent < c.q.Len() {
		seg := c.q.At(c.sent)
		if c.inflightBytes()+seg.Len > wnd {
			break
		}
		c.sent++
		c.sndNxt = seg.Seq + uint64(seg.Len)
		if c.sndNxt > c.sndMax {
			c.sndMax = c.sndNxt
		}
		if !c.rttValid {
			c.rttSeq = seg.Seq + uint64(seg.Len)
			c.rttSentAt = c.stack.eng.Now()
			c.rttValid = true
		}
		c.sendSegment(seg)
		moved = true
	}
	if moved {
		c.ensureRTOTimer()
	}
}

// sendSegment puts seg on the wire with the current cumulative ACK. The
// frame gets its own copy, so a queued segment keeps no trace of earlier
// sends.
func (c *Conn) sendSegment(seg *segment) {
	c.stack.transmit(c.peerNode, c.peerFlow, seg, c.rcvNxt)
}

func (c *Conn) sendAck() {
	c.sendSegment(&segment{Conn: c.id, Kind: segData, Seq: c.sndNxt, Len: 0})
}

// handleAck processes the cumulative acknowledgment on an incoming segment.
//
//npf:noalloc
func (c *Conn) handleAck(ack uint64) {
	if ack > c.sndMax {
		return // acking data we never sent; ignore
	}
	if ack > c.sndUna {
		// New data acknowledged. A late ACK may land after a rewind, in
		// which case it also moves the (rewound) send point forward.
		c.sndUna = ack
		if c.sndNxt < ack {
			c.sndNxt = ack
		}
		c.dupAcks = 0
		if c.retxStart >= 0 {
			// The episode ends when the peer finally acknowledges new data.
			c.stack.tr.FaultContext(trace.FSRetx, c.retxStart, c.stack.eng.Now()-c.retxStart, int64(c.id), int64(c.retries), 0)
			c.retxStart = -1
		}
		c.retries = 0
		// Drop every covered segment, including any a rewind requeued
		// that this late ACK now covers: those are never sent again.
		for c.q.Len() > 0 {
			if seg := c.q.At(0); seg.Seq+uint64(seg.Len) > ack {
				break
			}
			c.q.Pop()
			if c.sent > 0 {
				c.sent--
			}
		}
		// RTT sample (Karn: only if the sampled range is fully acked and
		// was never retransmitted; retransmission invalidates the sample).
		if c.rttValid && ack >= c.rttSeq {
			c.updateRTT(c.stack.eng.Now() - c.rttSentAt)
			c.rttValid = false
		}
		// Congestion window growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += mss // slow start
		} else {
			c.cwnd += mss * mss / c.cwnd // congestion avoidance
		}
		if c.sent == 0 {
			c.disarmTimer()
		} else {
			c.restartRTOTimer()
		}
		c.trySend()
		return
	}
	if ack == c.sndUna && c.sent > 0 {
		c.dupAcks++
		if c.dupAcks == 3 {
			// Fast retransmit.
			c.stack.FastRetx.Inc()
			c.stack.Retransmits.Inc()
			c.ssthresh = max(c.inflightBytes()/2, 2*mss)
			c.cwnd = c.ssthresh
			c.rttValid = false
			c.sendSegment(c.q.At(0))
			c.restartRTOTimer()
		}
	}
}

func (c *Conn) updateRTT(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.stack.Cfg.MinRTO {
		c.rto = c.stack.Cfg.MinRTO
	}
	if c.rto > c.stack.Cfg.MaxRTO {
		c.rto = c.stack.Cfg.MaxRTO
	}
}

// backoff doubles d n times, capped at MaxRTO.
func (c *Conn) backoff(d sim.Time, n int) sim.Time {
	for i := 0; i < n && d < c.stack.Cfg.MaxRTO; i++ {
		d *= 2
	}
	if d > c.stack.Cfg.MaxRTO {
		d = c.stack.Cfg.MaxRTO
	}
	return d
}

func (c *Conn) ensureRTOTimer() {
	if !c.timerArmed {
		c.restartRTOTimer()
	}
}

func (c *Conn) restartRTOTimer() {
	c.armTimer(c.backoff(c.rto, c.retries))
}

// onTimer is the connection's one timer callback: a SYN retry while the
// handshake is open, the retransmission timeout after it.
func (c *Conn) onTimer() {
	c.timerArmed = false
	if c.state == StateSynSent {
		c.onSynTimeout()
		return
	}
	c.onRTO()
}

func (c *Conn) onRTO() {
	if c.state != StateEstablished || c.sent == 0 {
		return
	}
	cfg := c.stack.Cfg
	c.stack.Timeouts.Inc()
	c.retries++
	if c.retries > cfg.MaxRetries {
		c.fail()
		return
	}
	if c.retxStart < 0 {
		c.retxStart = c.stack.eng.Now()
	}
	// Loss is taken as congestion: collapse the window, go back to the
	// first unacked segment (go-back-N), and back the timer off.
	c.ssthresh = max(c.inflightBytes()/2, 2*mss)
	c.cwnd = mss
	c.dupAcks = 0
	c.rttValid = false
	// Every segment on the wire counts as unsent again.
	c.sent = 0
	c.sndNxt = c.sndUna
	c.stack.Retransmits.Inc()
	c.trySend()
	// trySend arms the timer with the backed-off RTO.
	if c.sent > 0 {
		c.restartRTOTimer()
	}
}

func (c *Conn) armTimer(d sim.Time) {
	c.disarmTimer()
	c.timerArmed = true
	c.timer = c.stack.eng.After(d, c.fire)
}

func (c *Conn) disarmTimer() {
	if c.timerArmed {
		c.stack.eng.Cancel(c.timer)
		c.timerArmed = false
	}
}

// ---------------------------------------------------------------------------
// Receiver.

func (c *Conn) handleData(seg *segment) {
	c.handleAck(seg.Ack)
	if seg.Len == 0 {
		return // pure ACK
	}
	switch {
	case seg.Seq == c.rcvNxt:
		c.consume(seg)
		// Drain any out-of-order segments that are now contiguous.
		for len(c.ooo) > 0 {
			next, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.consume(&next)
		}
		c.sendAck()
	case seg.Seq > c.rcvNxt:
		// Hole: buffer and send a duplicate ACK.
		c.ooo[seg.Seq] = *seg
		c.sendAck()
	default:
		// Already received (retransmission overlap): re-ack.
		c.sendAck()
	}
}

func (c *Conn) consume(seg *segment) {
	c.rcvNxt = seg.Seq + uint64(seg.Len)
	if c.OnMessage != nil && seg.Msg.Len > 0 {
		c.OnMessage(seg.Msg.Payload, seg.Msg.Len)
	}
}
