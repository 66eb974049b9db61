package nic

import (
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/sim"
)

// TxDesc is one send descriptor: read Len bytes from Buffer and transmit
// them as Frame. The stack owns Frame and sets its Dst, Flow and Payload
// (the simulated wire content); the queue stamps Src and Size when it
// sends. Cookie is returned in the TX completion so the stack can recycle
// the buffer.
type TxDesc struct {
	Buffer mem.VAddr
	Len    int
	Frame  *fabric.Packet
	Cookie any
}

// TxQueue is the send side of an IOchannel. Descriptors are processed in
// order; a send-side NPF suspends the queue until the driver resolves it
// (§4: "when a sender encounters an NPF, it can simply stop sending and
// wait until the NPF is resolved, as the faulting data is local").
type TxQueue struct {
	ch        *Channel
	queue     sim.Ring[TxDesc]
	suspended bool

	// completions collects the batch the pending flush will deliver; spare
	// is the previous batch's buffer, reused by the next one. flush is the
	// completion interrupt, bound once so a batch creates no closure.
	compPending bool
	completions []TxCompletion
	spare       []TxCompletion
	flush       func()
}

func newTxQueue(ch *Channel) *TxQueue {
	q := &TxQueue{ch: ch}
	q.flush = q.flushCompletions
	return q
}

// Post enqueues descriptors for transmission.
func (q *TxQueue) Post(descs ...TxDesc) {
	for _, d := range descs {
		q.queue.Push(d)
	}
	q.kick()
}

// kick drains the queue until it is empty or a fault suspends it.
//
//npf:noalloc
func (q *TxQueue) kick() {
	dev := q.ch.Dev
	for !q.suspended && q.queue.Len() > 0 {
		d := q.queue.Peek()
		if q.ch.Domain.Blocked(d.Buffer, d.Len) {
			// Guest-table protection violation: the descriptor is
			// discarded (the IOuser misprogrammed its own table).
			q.queue.Pop()
			dev.TxDroppedProtect.Inc()
			continue
		}
		_, missing := q.ch.Domain.Translate(d.Buffer, d.Len)
		if len(missing) > 0 {
			if q.ch.Rx.policy == PolicyPinned {
				panic("nic: TX NPF on pinned channel " + q.ch.Name) //npf:allocok — invariant violation
			}
			q.suspended = true
			dev.TxFaults.Inc()
			q.txFault(missing, d.Frame.Dst) //npf:allocok — fault path: one NPF per faulting descriptor, not per packet
			return
		}
		q.queue.Pop()
		q.ch.dmaTouch(d.Buffer, d.Len, false)
		f := d.Frame
		f.Src = dev.Node
		f.Size = d.Len
		dev.Net.Send(f)
		dev.TxSent.Inc()
		q.complete(TxCompletion{Cookie: d.Cookie})
	}
}

// txFault reports a send-side NPF on the descriptor at the head of the
// queue, which stays suspended until the driver calls Resume.
func (q *TxQueue) txFault(missing []mem.PageNum, dst fabric.NodeID) {
	dev := q.ch.Dev
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
	ev.Fault = dev.MintFault()
	lat := dev.FaultLatency()
	dev.Tracer.FaultMinted(ev.Fault, "tx", ev.Start, -1, int64(dst), len(missing))
	dev.Eng.After(lat, func() {
		dev.sink.HandleTxNPF(ev)
	})
}

// complete queues a TX completion, delivered coalesced after the interrupt
// latency.
func (q *TxQueue) complete(c TxCompletion) {
	q.completions = append(q.completions, c) //npf:allocok — batch growth, up to the largest batch
	if q.compPending {
		return
	}
	q.compPending = true
	q.ch.Dev.Eng.After(q.ch.Dev.Cfg.IntLatency, q.flush)
}

// flushCompletions is the coalesced completion interrupt. The two batch
// buffers swap roles, so completions posted while the handler runs start
// the next batch without touching the slice the handler was given.
func (q *TxQueue) flushCompletions() {
	q.compPending = false
	comps := q.completions
	q.completions, q.spare = q.spare[:0], comps
	if q.ch.txHandler != nil {
		q.ch.txHandler.TxComplete(q.ch, comps)
	}
	clear(comps) // drop the cookies until the buffer is reused
}
