package rc

import (
	"fmt"

	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

// SendWQE is a send or RDMA-write work request.
type SendWQE struct {
	ID    int64
	Laddr mem.VAddr // local source buffer
	Len   int
	// Raddr is the remote target for RDMA writes; ignored for sends.
	Raddr mem.VAddr
	// Write selects RDMA write (no remote receive WQE consumed).
	Write bool
	// Payload is the simulated content, delivered to the remote completion
	// (sends) or remote-write callback.
	Payload any

	firstPSN uint64
}

// RecvWQE posts a receive buffer.
type RecvWQE struct {
	ID   int64
	Addr mem.VAddr
	Len  int
}

// ReadWQE is an RDMA read: fetch Len bytes from the peer's Raddr into the
// local Laddr.
type ReadWQE struct {
	ID    int64
	Laddr mem.VAddr
	Raddr mem.VAddr
	Len   int
}

// RecvCompletion reports a fully placed incoming send message.
type RecvCompletion struct {
	WQEID   int64
	Len     int
	Payload any
	// From is the sender's address handle, set for UD datagrams only
	// (RC connections already know their peer). Reply with PostSendUDTo.
	From UDRemote
}

// QP is one reliable-connection queue pair. Wire both ends with Connect.
type QP struct {
	hca    *HCA
	QPN    QPN
	AS     *mem.AddressSpace
	Domain *iommu.Domain

	peerNode  int // fabric.NodeID, kept as int to avoid the import in hot structs
	peerQPN   QPN
	connected bool

	// Completion callbacks (invoked after interrupt latency).
	OnRecv         func(RecvCompletion)
	OnSendComplete func(wqeID int64)
	OnReadComplete func(wqeID int64)
	OnRemoteWrite  func(raddr mem.VAddr, length int, payload any, last bool)

	// Requester state.
	sq         sim.Ring[SendWQE] // posted, not yet fully acknowledged
	assignPSN  uint64            // next PSN to hand to a queued WQE
	sndNxt     uint64
	sndUna     uint64
	sendPaused bool // local (send-side) NPF pending
	rnrWait    bool // paused by an RNR NACK
	retxArmed  bool
	retxSnap   uint64 // sndUna when the armed retransmission timer was set
	retxFire   func() // the retransmission timer event, bound once

	// Responder state.
	expPSN        uint64
	rq            sim.Ring[RecvWQE]
	rcvMsgOff     int
	unacked       int
	recvFaultOpen bool // NPF already reported, suppress duplicates
	// seqNacked is the expPSN value a sequence-error NAK was last sent
	// for; one NAK per gap (+1 so PSN 0 gaps are NACKable).
	seqNacked uint64

	// RDMA read state.
	nextReqID   int64
	reads       map[int64]*readState  // initiator side
	respStreams map[int64]*respStream // responder side

	// cq holds completions whose interrupt is still on its way. Every entry
	// is due IntLatency after it was queued, so entries fire in queue
	// order; cqFire, bound once, is the event that delivers the oldest.
	cq     sim.Ring[cqEntry]
	cqFire func()
}

type cqKind uint8

const (
	cqSend        cqKind = iota // send or RDMA write complete: OnSendComplete(id)
	cqRecv                      // send received: OnRecv(recv)
	cqRemoteWrite               // RDMA write chunk placed: OnRemoteWrite
	cqRead                      // RDMA read data placed: OnReadComplete(id)
)

// cqEntry is one completion awaiting its interrupt. A remote-write entry
// carries its chunk length and payload in recv.Len and recv.Payload.
type cqEntry struct {
	kind  cqKind
	id    int64          // cqSend, cqRead: the WQE ID
	recv  RecvCompletion // cqRecv; cqRemoteWrite's length and payload
	raddr mem.VAddr      // cqRemoteWrite
	last  bool           // cqRemoteWrite
}

// readState is the initiator's view of an outstanding RDMA read.
type readState struct {
	wqe        ReadWQE
	placedOff  int
	faulted    bool
	uncredited int // chunks placed since the last credit grant
}

// respStream is the responder's view: it streams read-response chunks
// under credit-based flow control (ReadWindow), paced at line rate.
type respStream struct {
	reqID   int64
	dstQPN  QPN
	dstNode int
	src     mem.VAddr
	length  int
	off     int
	paused  bool
	credits int
	pumping bool // a paced emission event is scheduled
	// pauseStart is the start of the open ReadRNR-extension suspension
	// window, -1 when none is open.
	pauseStart sim.Time
}

// NewQP allocates a queue pair on h bound to address space as, with its own
// translation domain.
func (h *HCA) NewQP(as *mem.AddressSpace) *QP {
	return h.NewQPShared(as, nil)
}

// NewQPShared allocates a queue pair using an existing translation domain —
// the verbs model, where memory regions belong to a protection domain
// shared by all of a process's QPs. A nil domain allocates a fresh one.
func (h *HCA) NewQPShared(as *mem.AddressSpace, dom *iommu.Domain) *QP {
	if dom == nil {
		dom = h.MMU.NewDomain()
	}
	h.nextQP++
	qp := &QP{
		hca:         h,
		QPN:         h.nextQP,
		AS:          as,
		Domain:      dom,
		reads:       make(map[int64]*readState),
		respStreams: make(map[int64]*respStream),
	}
	qp.retxFire = qp.retxTimeout
	qp.cqFire = qp.deliverCompletion
	h.qps[qp.QPN] = qp
	return qp
}

// Connect wires two QPs into a reliable connection.
func Connect(a, b *QP) {
	a.peerNode, a.peerQPN, a.connected = int(b.hca.Node), b.QPN, true
	b.peerNode, b.peerQPN, b.connected = int(a.hca.Node), a.QPN, true
}

// HCA returns the owning adapter.
func (qp *QP) HCA() *HCA { return qp.hca }

func (qp *QP) npkts(length int) uint64 {
	if length <= 0 {
		return 1
	}
	return uint64((length + qp.hca.Cfg.MTU - 1) / qp.hca.Cfg.MTU)
}

// PostSend queues a send or RDMA-write work request.
//
//npf:noalloc
func (qp *QP) PostSend(wqe SendWQE) {
	if !qp.connected {
		panic("rc: PostSend on unconnected QP")
	}
	wqe.firstPSN = qp.assignPSN
	qp.assignPSN += qp.npkts(wqe.Len)
	qp.sq.Push(wqe)
	qp.sendLoop()
}

// PostRecv posts a receive buffer. Receives complete in order.
//
//npf:noalloc
func (qp *QP) PostRecv(wqe RecvWQE) { qp.rq.Push(wqe) }

// PostRead issues an RDMA read.
func (qp *QP) PostRead(wqe ReadWQE) {
	if !qp.connected {
		panic("rc: PostRead on unconnected QP")
	}
	qp.nextReqID++
	id := qp.nextReqID
	qp.reads[id] = &readState{wqe: wqe}
	pkt := qp.peerPacket(pktReadReq)
	pkt.ReqID, pkt.Raddr, pkt.MsgLen = id, wqe.Raddr, wqe.Len
	qp.toPeer(pkt, 0)
}

// ---------------------------------------------------------------------------
// Requester: send engine.

func (qp *QP) inflight() uint64 { return qp.sndNxt - qp.sndUna }

// positionOf locates PSN psn within the send queue. The WQE pointer is
// valid until the next PostSend.
func (qp *QP) positionOf(psn uint64) (wqe *SendWQE, off int) {
	for i := 0; i < qp.sq.Len(); i++ {
		w := qp.sq.At(i)
		n := qp.npkts(w.Len)
		if psn < w.firstPSN+n {
			chunkIdx := int(psn - w.firstPSN)
			return w, chunkIdx * qp.hca.Cfg.MTU
		}
	}
	panic(fmt.Sprintf("rc: PSN %d beyond send queue", psn)) //npf:allocok — invariant violation
}

// sendLoop emits packets while the window allows and no fault or RNR pause
// holds the QP.
func (qp *QP) sendLoop() {
	cfg := &qp.hca.Cfg
	for !qp.sendPaused && !qp.rnrWait &&
		qp.inflight() < uint64(sendWindow) && qp.sndNxt < qp.assignPSN {
		w, off := qp.positionOf(qp.sndNxt)
		chunk := w.Len - off
		if chunk > cfg.MTU {
			chunk = cfg.MTU
		}
		if chunk < 0 {
			chunk = 0
		}
		_, missing := qp.Domain.Translate(w.Laddr+mem.VAddr(off), chunk)
		if len(missing) > 0 {
			qp.sendFault(missing, w.Laddr, w.Len) //npf:allocok — fault path: one NPF per faulting WQE, not per packet
			return
		}
		qp.dmaTouch(w.Laddr+mem.VAddr(off), chunk, false)
		pkt := qp.peerPacket(pktData)
		pkt.PSN, pkt.ChunkLen, pkt.MsgLen, pkt.MsgOff = qp.sndNxt, chunk, w.Len, off
		pkt.Last = off+chunk >= w.Len
		if w.Write {
			pkt.Op = opWrite
			pkt.Raddr = w.Raddr + mem.VAddr(off)
			pkt.App = w.Payload
		} else if pkt.Last {
			pkt.App = w.Payload
		}
		qp.toPeer(pkt, chunk)
		qp.sndNxt++
	}
	qp.armRetxTimer()
}

// sendFault reports a local fault reading a send buffer: the send engine
// stops until the driver resolves it (the faulting data is local, §4).
func (qp *QP) sendFault(missing []mem.PageNum, laddr mem.VAddr, length int) {
	qp.sendPaused = true
	qp.hca.raiseFault(QPFault{
		QP:      qp,
		Class:   FaultSendLocal,
		Missing: qp.faultPages(missing, laddr, length, false),
		Resolved: func() {
			qp.hca.Eng.After(qp.hca.Cfg.FirmwareResume, func() {
				qp.sendPaused = false
				qp.sendLoop()
			})
		},
	})
}

// armRetxTimer schedules the local-ACK-timeout safety net.
func (qp *QP) armRetxTimer() {
	if qp.retxArmed || qp.inflight() == 0 {
		return
	}
	qp.retxArmed = true
	qp.retxSnap = qp.sndUna
	qp.hca.Eng.After(qp.hca.Cfg.RetxTimeout, qp.retxFire)
}

// retxTimeout is the retransmission timer event: with no progress since it
// was armed, rewind to the oldest unacknowledged packet.
func (qp *QP) retxTimeout() {
	qp.retxArmed = false
	if qp.inflight() > 0 && qp.sndUna == qp.retxSnap && !qp.rnrWait && !qp.sendPaused {
		qp.hca.Retransmits.Inc()
		qp.sndNxt = qp.sndUna
		qp.sendLoop()
	} else {
		qp.armRetxTimer()
	}
}

// handleAck processes a cumulative acknowledgment.
//
//npf:noalloc
func (qp *QP) handleAck(cum uint64) {
	if cum <= qp.sndUna {
		return
	}
	qp.handleAckOnly(cum)
	qp.sendLoop()
}

// complete queues one completion and schedules its interrupt.
func (qp *QP) complete(e cqEntry) {
	qp.cq.Push(e)
	qp.hca.Eng.After(qp.hca.Cfg.IntLatency, qp.cqFire)
}

// deliverCompletion is the interrupt event of the oldest queued completion.
func (qp *QP) deliverCompletion() {
	e := qp.cq.Pop()
	switch e.kind {
	case cqSend:
		qp.OnSendComplete(e.id)
	case cqRecv:
		qp.OnRecv(e.recv)
	case cqRemoteWrite:
		qp.OnRemoteWrite(e.raddr, e.recv.Len, e.recv.Payload, e.last)
	case cqRead:
		qp.OnReadComplete(e.id)
	}
}

// handleRNRNack rewinds to the NACKed PSN and pauses for the RNR timeout.
// Data between the NACKed PSN and sndNxt was dropped at the receiver; RC
// retransmission recovers it without touching congestion state (§4).
func (qp *QP) handleRNRNack(psn uint64) {
	if qp.rnrWait {
		return // already waiting; duplicate NACKs for retried packets
	}
	if psn > qp.sndUna {
		qp.handleAckOnly(psn)
	}
	qp.hca.Retransmits.Add(qp.sndNxt - psn)
	qp.hca.Tracer.FaultContext(trace.FSRNRWait, qp.hca.Eng.Now(), qp.hca.Cfg.RNRTimeout, int64(qp.QPN), int64(qp.sndNxt-psn), 0)
	qp.sndNxt = psn
	qp.rnrWait = true
	qp.hca.Eng.After(qp.hca.Cfg.RNRTimeout, func() {
		qp.rnrWait = false
		qp.sendLoop()
	})
}

// handleSeqNack rewinds to the NACKed PSN and resumes immediately — the
// receiver saw a sequence gap, so everything from psn on must be resent.
// Unlike the RNR case there is nothing to wait for.
func (qp *QP) handleSeqNack(psn uint64) {
	if qp.rnrWait || psn >= qp.sndNxt {
		return
	}
	if psn > qp.sndUna {
		qp.handleAckOnly(psn)
	}
	if psn < qp.sndUna {
		psn = qp.sndUna // everything below is already acknowledged
	}
	qp.hca.Retransmits.Add(qp.sndNxt - psn)
	qp.sndNxt = psn
	qp.sendLoop()
}

// handleAckOnly advances sndUna/completions without restarting the loop
// (used from the RNR path where the loop must stay paused). Sends and RDMA
// writes share the send completion queue.
func (qp *QP) handleAckOnly(cum uint64) {
	if cum <= qp.sndUna {
		return
	}
	qp.sndUna = cum
	for qp.sq.Len() > 0 {
		if w := qp.sq.At(0); w.firstPSN+qp.npkts(w.Len) > qp.sndUna {
			break
		}
		w := qp.sq.Pop()
		if qp.OnSendComplete != nil {
			qp.complete(cqEntry{kind: cqSend, id: w.ID})
		}
	}
}

// ---------------------------------------------------------------------------
// Responder: packet handling.

func (qp *QP) handlePacket(pkt *packet) {
	switch pkt.Kind {
	case pktAck:
		qp.handleAck(pkt.AckPSN)
	case pktRNRNack:
		qp.handleRNRNack(pkt.AckPSN)
	case pktSeqNack:
		qp.handleSeqNack(pkt.AckPSN)
	case pktData:
		qp.handleData(pkt)
	case pktReadReq:
		qp.handleReadReq(pkt)
	case pktReadResp:
		qp.handleReadResp(pkt)
	case pktReadCredit:
		qp.handleReadCredit(pkt)
	case pktReadRNR:
		qp.handleReadRNR(pkt)
	case pktReadResume:
		qp.handleReadResume(pkt)
	case pktReadDone:
		delete(qp.respStreams, pkt.ReqID)
	case pktUD:
		qp.handleUD(pkt)
	}
}

//npf:noalloc
func (qp *QP) handleData(pkt *packet) {
	if pkt.PSN != qp.expPSN {
		if pkt.PSN < qp.expPSN {
			// Duplicate from a rewind overlap: re-ack to resync.
			qp.sendAck()
		} else {
			qp.hca.DroppedRNPF.Inc()
			if qp.recvFaultOpen {
				// Gap after a faulting packet we RNR-NACKed: drop silently;
				// the sender is already rewinding.
				return
			}
			// A genuine sequence error (lost packet on a lossy fabric,
			// e.g. RoCE): ask the sender to rewind immediately rather than
			// waiting out its retransmission timer. One NAK per gap.
			if qp.seqNacked != qp.expPSN+1 {
				qp.seqNacked = qp.expPSN + 1
				qp.unacked = 0
				qp.sendAckKind(pktSeqNack)
			}
		}
		return
	}
	var dst mem.VAddr
	var wqe *RecvWQE // valid until the next PostRecv
	switch pkt.Op {
	case opSend:
		if qp.rq.Len() == 0 {
			// Literal receiver-not-ready.
			qp.sendRNRNack()
			return
		}
		wqe = qp.rq.At(0)
		dst = wqe.Addr + mem.VAddr(qp.rcvMsgOff)
	case opWrite:
		dst = pkt.Raddr
	}
	if qp.Domain.Blocked(dst, pkt.ChunkLen) {
		// Guest-table protection violation (§2.4): drop, no NPF.
		qp.hca.ProtectionDrops.Inc()
		return
	}
	_, missing := qp.Domain.TranslateAccess(dst, pkt.ChunkLen, true)
	if len(missing) > 0 {
		// Receive NPF: firmware immediately suspends the sender with an
		// RNR NACK and reports the fault once.
		qp.sendRNRNack()
		if !qp.recvFaultOpen {
			qp.recvFault(missing, wqe, pkt) //npf:allocok — fault path: one NPF per faulting message, not per packet
		}
		return
	}
	qp.dmaTouch(dst, pkt.ChunkLen, true)
	qp.expPSN++
	qp.unacked++
	if pkt.Op == opSend {
		qp.rcvMsgOff += pkt.ChunkLen
		if pkt.Last {
			w := qp.rq.Pop()
			qp.rcvMsgOff = 0
			if qp.OnRecv != nil {
				qp.complete(cqEntry{kind: cqRecv, recv: RecvCompletion{WQEID: w.ID, Len: pkt.MsgLen, Payload: pkt.App}})
			}
		}
	} else if qp.OnRemoteWrite != nil {
		qp.complete(cqEntry{
			kind: cqRemoteWrite, raddr: pkt.Raddr, last: pkt.Last,
			recv: RecvCompletion{Len: pkt.ChunkLen, Payload: pkt.App},
		})
	}
	if qp.unacked >= ackEvery || pkt.Last {
		qp.sendAck()
	}
}

// recvFault reports a receive NPF on an incoming send (wqe is its receive
// WQE) or RDMA write (wqe is nil).
func (qp *QP) recvFault(missing []mem.PageNum, wqe *RecvWQE, pkt *packet) {
	qp.recvFaultOpen = true
	var miss []mem.PageNum
	if wqe != nil {
		miss = qp.faultPages(missing, wqe.Addr, wqe.Len, true)
	} else {
		miss = qp.faultPages(missing, pkt.Raddr, pkt.MsgLen-pkt.MsgOff, true)
	}
	qp.hca.raiseFault(QPFault{
		QP:      qp,
		Class:   FaultRecvRNPF,
		Missing: miss,
		Resolved: func() {
			qp.hca.Eng.After(qp.hca.Cfg.FirmwareResume, func() {
				qp.recvFaultOpen = false
			})
		},
	})
}

func (qp *QP) sendAck() {
	qp.unacked = 0
	qp.sendAckKind(pktAck)
}

func (qp *QP) sendRNRNack() {
	qp.hca.RNRNacks.Inc()
	qp.unacked = 0
	qp.sendAckKind(pktRNRNack)
}

// sendAckKind sends the peer an acknowledgment-class packet (ACK, RNR NACK
// or sequence NAK) carrying expPSN.
func (qp *QP) sendAckKind(kind pktKind) {
	pkt := qp.peerPacket(kind)
	pkt.AckPSN = qp.expPSN
	qp.toPeer(pkt, 0)
}

// ---------------------------------------------------------------------------
// RDMA read.

func (qp *QP) handleReadReq(pkt *packet) {
	// A rewind re-request replaces any previous stream for this ReqID; a
	// superseded stream may still emit up to its remaining credits (the
	// initiator drops the stale offsets), then starves - bounded waste,
	// exactly like the hardware it models.
	st := &respStream{
		reqID:      pkt.ReqID,
		dstQPN:     pkt.SrcQPN,
		dstNode:    qp.peerNode,
		src:        pkt.Raddr,
		length:     pkt.MsgLen,
		off:        pkt.ReadOff,
		credits:    qp.hca.Cfg.ReadWindow,
		pauseStart: -1,
	}
	qp.respStreams[pkt.ReqID] = st
	qp.pumpReadResp(st)
}

// handleReadCredit replenishes a response stream's window.
func (qp *QP) handleReadCredit(pkt *packet) {
	st, ok := qp.respStreams[pkt.ReqID]
	if !ok {
		return
	}
	st.credits += pkt.ChunkLen // credit count rides in ChunkLen
	qp.pumpReadResp(st)
}

// handleReadRNR implements the §4 future-work extension on the responder:
// the initiator faulted placing response data; suspend the stream until it
// resumes us — no chunks are wasted on a dead receiver.
func (qp *QP) handleReadRNR(pkt *packet) {
	if st, ok := qp.respStreams[pkt.ReqID]; ok {
		st.paused = true
		if st.pauseStart < 0 {
			st.pauseStart = qp.hca.Eng.Now()
		}
	}
}

// handleReadResume rewinds a suspended stream to the initiator's placement
// point and restarts it with a fresh window.
func (qp *QP) handleReadResume(pkt *packet) {
	st, ok := qp.respStreams[pkt.ReqID]
	if !ok {
		return
	}
	st.off = pkt.ReadOff
	st.paused = false
	st.credits = qp.hca.Cfg.ReadWindow
	if st.pauseStart >= 0 {
		qp.hca.Tracer.FaultContext(trace.FSReadPause, st.pauseStart, qp.hca.Eng.Now()-st.pauseStart, st.reqID, 0, 0)
		st.pauseStart = -1
	}
	qp.pumpReadResp(st)
}

// pumpReadResp streams response chunks at line rate (one emission event
// per chunk, so suspension takes effect mid-stream); a local fault
// suspends the stream.
func (qp *QP) pumpReadResp(st *respStream) {
	if st.pumping {
		return
	}
	cfg := qp.hca.Cfg
	if st.paused || st.off >= st.length || st.credits <= 0 {
		// The stream stays allocated even when fully sent: the initiator
		// may still fault on the tail and ask us to rewind (resume) — it
		// frees us with pktReadDone once everything is placed.
		return
	}
	chunk := st.length - st.off
	if chunk > cfg.MTU {
		chunk = cfg.MTU
	}
	addr := st.src + mem.VAddr(st.off)
	_, missing := qp.Domain.Translate(addr, chunk)
	if len(missing) > 0 {
		st.paused = true
		qp.hca.raiseFault(QPFault{
			QP:      qp,
			Class:   FaultReadResponder,
			Missing: qp.faultPages(missing, addr, st.length-st.off, false),
			Resolved: func() {
				qp.hca.Eng.After(cfg.FirmwareResume, func() {
					st.paused = false
					qp.pumpReadResp(st)
				})
			},
		})
		return
	}
	qp.dmaTouch(addr, chunk, false)
	pkt := qp.hca.take(pktReadResp, qp.QPN, st.dstQPN)
	pkt.ReqID, pkt.ReadOff, pkt.ChunkLen = st.reqID, st.off, chunk
	pkt.Last = st.off+chunk >= st.length
	qp.hca.post(pkt, fabricNode(st.dstNode), chunk)
	st.off += chunk
	st.credits--
	if st.off < st.length {
		st.pumping = true
		wire := sim.Time(int64(chunk+headerBytes) * 8 * int64(sim.Second) / lineRateBps)
		qp.hca.Eng.After(wire, func() {
			st.pumping = false
			qp.pumpReadResp(st)
		})
	}
}

func (qp *QP) handleReadResp(pkt *packet) {
	reqID := pkt.ReqID // pkt is reused once this handler returns
	st, ok := qp.reads[reqID]
	if !ok {
		return
	}
	if st.faulted || pkt.ReadOff != st.placedOff {
		// §4: no RNR NACK exists for reads — drop everything until the
		// fault is resolved, then rewind.
		qp.hca.DroppedRNPF.Inc()
		return
	}
	dst := st.wqe.Laddr + mem.VAddr(st.placedOff)
	_, missing := qp.Domain.TranslateAccess(dst, pkt.ChunkLen, true)
	if len(missing) > 0 {
		st.faulted = true
		qp.hca.DroppedRNPF.Inc()
		// Incoming response packets are dropped from now until the fault
		// resolves (§4's rewind case).
		dropStart := qp.hca.Eng.Now()
		resumeOff := st.placedOff
		ext := qp.hca.Cfg.ReadRNRExtension
		if ext {
			// §4 future-work extension: suspend the responder immediately,
			// exactly like an RNR NACK on the send/receive path.
			qp.hca.RNRNacks.Inc()
			rnr := qp.peerPacket(pktReadRNR)
			rnr.ReqID = reqID
			qp.toPeer(rnr, 0)
		}
		qp.hca.raiseFault(QPFault{
			QP:      qp,
			Class:   FaultReadInitiator,
			Missing: qp.faultPages(missing, dst, st.wqe.Len-st.placedOff, true),
			Resolved: func() {
				qp.hca.Eng.After(qp.hca.Cfg.FirmwareResume, func() {
					st.faulted = false
					qp.hca.Tracer.FaultContext(trace.FSReadDrop, dropStart, qp.hca.Eng.Now()-dropStart, reqID, int64(resumeOff), 0)
					if ext {
						// Resume the suspended stream where we left off.
						resume := qp.peerPacket(pktReadResume)
						resume.ReqID, resume.ReadOff = reqID, resumeOff
						qp.toPeer(resume, 0)
						return
					}
					qp.hca.ReadRewinds.Inc()
					// Baseline RC: no way to stop the responder; rewind by
					// re-requesting the remainder.
					req := qp.peerPacket(pktReadReq)
					req.ReqID, req.Raddr, req.MsgLen, req.ReadOff = reqID, st.wqe.Raddr, st.wqe.Len, resumeOff
					qp.toPeer(req, 0)
				})
			},
		})
		return
	}
	qp.dmaTouch(dst, pkt.ChunkLen, true)
	st.placedOff += pkt.ChunkLen
	st.uncredited++
	if st.placedOff >= st.wqe.Len {
		delete(qp.reads, reqID)
		done := qp.peerPacket(pktReadDone)
		done.ReqID = reqID
		qp.toPeer(done, 0)
		if qp.OnReadComplete != nil {
			qp.complete(cqEntry{kind: cqRead, id: st.wqe.ID})
		}
		return
	}
	// Grant credits in half-window batches.
	if st.uncredited >= qp.hca.Cfg.ReadWindow/2 {
		credit := qp.peerPacket(pktReadCredit)
		credit.ReqID, credit.ChunkLen = reqID, st.uncredited
		qp.toPeer(credit, 0)
		st.uncredited = 0
	}
}

// ---------------------------------------------------------------------------
// UD: single-packet unreliable datagrams. A receive fault drops the
// datagram and demand-pages the buffer, like the Ethernet drop policy (§4
// "the NPF solution described next applies also to UD").

// UDRemote is a UD address handle: the fabric attachment of an HCA and a
// QP number on it. Real verbs UD carries an address handle per send WQE —
// one QP reaches any peer — which is exactly what lets a client swarm
// address thousands of servers without per-pair connection state.
type UDRemote struct {
	Node fabric.NodeID
	QPN  QPN
}

// Remote returns this QP's own UD address, for peers to reply to.
func (qp *QP) Remote() UDRemote { return UDRemote{Node: qp.hca.Node, QPN: qp.QPN} }

// PostSendUDTo sends one unreliable datagram (length <= MTU) to an explicit
// address handle; the QP needs no connection to the destination.
func (qp *QP) PostSendUDTo(dst UDRemote, wqe SendWQE) {
	if wqe.Len > qp.hca.Cfg.MTU {
		panic("rc: UD message larger than MTU")
	}
	_, missing := qp.Domain.Translate(wqe.Laddr, wqe.Len)
	if len(missing) > 0 {
		qp.sendPaused = true
		qp.hca.raiseFault(QPFault{
			QP: qp, Class: FaultSendLocal,
			Missing: qp.faultPages(missing, wqe.Laddr, wqe.Len, false),
			Resolved: func() {
				qp.hca.Eng.After(qp.hca.Cfg.FirmwareResume, func() {
					qp.sendPaused = false
					qp.PostSendUDTo(dst, wqe)
				})
			},
		})
		return
	}
	qp.dmaTouch(wqe.Laddr, wqe.Len, false)
	pkt := qp.hca.take(pktUD, qp.QPN, dst.QPN)
	pkt.SrcNode, pkt.ChunkLen, pkt.MsgLen, pkt.Last, pkt.App = int(qp.hca.Node), wqe.Len, wqe.Len, true, wqe.Payload
	qp.hca.post(pkt, dst.Node, wqe.Len)
}

func (qp *QP) handleUD(pkt *packet) {
	if qp.rq.Len() == 0 {
		qp.hca.UDDropsFault.Inc()
		return
	}
	wqe := qp.rq.Peek()
	_, missing := qp.Domain.TranslateAccess(wqe.Addr, pkt.ChunkLen, true)
	if len(missing) > 0 {
		qp.hca.UDDropsFault.Inc()
		if !qp.recvFaultOpen {
			qp.recvFaultOpen = true
			qp.hca.raiseFault(QPFault{
				QP: qp, Class: FaultRecvRNPF,
				Missing: qp.faultPages(missing, wqe.Addr, wqe.Len, true),
				Resolved: func() {
					qp.hca.Eng.After(qp.hca.Cfg.FirmwareResume, func() {
						qp.recvFaultOpen = false
					})
				},
			})
		}
		return
	}
	qp.dmaTouch(wqe.Addr, pkt.ChunkLen, true)
	qp.rq.Pop()
	if qp.OnRecv != nil {
		qp.complete(cqEntry{kind: cqRecv, recv: RecvCompletion{
			WQEID: wqe.ID, Len: pkt.MsgLen, Payload: pkt.App,
			From: UDRemote{Node: fabricNode(pkt.SrcNode), QPN: pkt.SrcQPN},
		}})
	}
}

// ---------------------------------------------------------------------------
// Shared helpers.

// peerPacket takes a packet of the given kind from this QP to its
// connected peer; fill it in place and send it with toPeer.
func (qp *QP) peerPacket(kind pktKind) *packet { return qp.hca.take(kind, qp.QPN, qp.peerQPN) }

// toPeer sends pkt, taken with peerPacket, to the connected peer.
func (qp *QP) toPeer(pkt *packet, payloadBytes int) {
	qp.hca.post(pkt, fabricNode(qp.peerNode), payloadBytes)
}

// faultPages reports which pages to request from the driver: with
// PrefetchWQE (the paper's batching optimization) every missing page of
// [bufAddr, bufAddr+bufLen) — the whole buffer, or the rest of the message
// from the faulting chunk on — else only the pages that actually faulted.
func (qp *QP) faultPages(chunkMissing []mem.PageNum, bufAddr mem.VAddr, bufLen int, write bool) []mem.PageNum {
	if !qp.hca.Cfg.PrefetchWQE {
		return chunkMissing
	}
	_, all := qp.Domain.TranslateAccess(bufAddr, bufLen, write)
	return all
}

// dmaTouch is the device access to memory the IOMMU just translated: the
// pages are resident, so the access only refreshes their LRU position.
//
//npf:noalloc
func (qp *QP) dmaTouch(addr mem.VAddr, length int, write bool) {
	if !qp.AS.TouchResident(addr, length, write) {
		panic(fmt.Sprintf("rc: DMA to non-resident memory on QP %d (addr=%#x len=%d write=%v)", qp.QPN, addr, length, write)) //npf:allocok — invariant violation
	}
}
