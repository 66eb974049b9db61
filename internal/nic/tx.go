package nic

import (
	"npf/internal/fabric"
	"npf/internal/mem"
)

// TxDesc is one send descriptor: read Len bytes from Buffer and transmit
// them to (Dst, DstFlow). Payload is the simulated wire content; Cookie is
// returned in the TX completion so the stack can recycle the buffer.
type TxDesc struct {
	Buffer  mem.VAddr
	Len     int
	Dst     fabric.NodeID
	DstFlow fabric.FlowID
	Payload any
	Cookie  any
}

// TxQueue is the send side of an IOchannel. Descriptors are processed in
// order; a send-side NPF suspends the queue until the driver resolves it
// (§4: "when a sender encounters an NPF, it can simply stop sending and
// wait until the NPF is resolved, as the faulting data is local").
type TxQueue struct {
	ch        *Channel
	queue     []TxDesc
	suspended bool

	compPending bool
	completions []TxCompletion
}

func newTxQueue(ch *Channel) *TxQueue {
	return &TxQueue{ch: ch}
}

// Suspended reports whether the queue is stalled on an NPF.
func (q *TxQueue) Suspended() bool { return q.suspended }

// QueuedPackets reports descriptors awaiting transmission.
func (q *TxQueue) QueuedPackets() int { return len(q.queue) }

// Post enqueues descriptors for transmission.
func (q *TxQueue) Post(descs ...TxDesc) {
	q.queue = append(q.queue, descs...)
	q.kick()
}

// kick drains the queue until it is empty or a fault suspends it.
func (q *TxQueue) kick() {
	dev := q.ch.Dev
	for !q.suspended && len(q.queue) > 0 {
		d := q.queue[0]
		if q.ch.Domain.Blocked(d.Buffer, d.Len) {
			// Guest-table protection violation: the descriptor is
			// discarded (the IOuser misprogrammed its own table).
			q.queue = q.queue[1:]
			dev.TxDroppedProtect.Inc()
			continue
		}
		_, missing := q.ch.Domain.Translate(d.Buffer, d.Len)
		if len(missing) > 0 {
			if q.ch.Rx.policy == PolicyPinned {
				panic("nic: TX NPF on pinned channel " + q.ch.Name)
			}
			q.suspended = true
			dev.TxFaults.Inc()
			ev := TxNPF{
				Channel: q.ch,
				Missing: missing,
				Start:   dev.Eng.Now(),
				Resume: func() {
					// Figure 3a component (v): the NIC notices the
					// page-table update and resumes.
					dev.Eng.After(dev.Cfg.FirmwareResume, func() {
						q.suspended = false
						q.kick()
					})
				},
			}
			// Firmware detects the fault and raises the NPF interrupt
			// (components i–ii).
			ev.Fault = dev.mintFault()
			lat := dev.firmwareFaultLatency() + dev.Cfg.IntLatency
			dev.Tracer.FaultMinted(ev.Fault, "tx", ev.Start, -1, int64(d.Dst), len(missing))
			dev.Eng.After(lat, func() {
				dev.sink.HandleTxNPF(ev)
			})
			return
		}
		q.queue = q.queue[1:]
		q.ch.dmaTouch(d.Buffer, d.Len, false)
		dev.Net.Send(&fabric.Packet{
			Src:     dev.Node,
			Dst:     d.Dst,
			Flow:    d.DstFlow,
			Size:    d.Len,
			Payload: d.Payload,
		})
		dev.TxSent.Inc()
		q.complete(TxCompletion{Cookie: d.Cookie})
	}
}

// complete queues a TX completion, delivered coalesced after the interrupt
// latency.
func (q *TxQueue) complete(c TxCompletion) {
	q.completions = append(q.completions, c)
	if q.compPending {
		return
	}
	q.compPending = true
	dev := q.ch.Dev
	dev.Eng.After(dev.Cfg.IntLatency, func() {
		q.compPending = false
		comps := q.completions
		q.completions = nil
		if q.ch.txHandler != nil {
			q.ch.txHandler.TxComplete(q.ch, comps)
		}
	})
}
