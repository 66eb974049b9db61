// Package rc models an InfiniBand host channel adapter (HCA) with reliable
// connection (RC) and unreliable datagram (UD) transports, and the paper's
// §4 network-page-fault support: the transport protocol and the NPF
// machinery live in the same hardware unit, so the firmware can react to a
// receive fault by immediately sending a receiver-not-ready (RNR) NACK that
// suspends the sender, while RC retransmission recovers the packets lost in
// the window before the NACK arrived.
//
// RDMA reads are the exception the paper calls out: RC gives an initiator
// that faults while placing read-response data no way to stop the
// responder, so the initiator drops the incoming stream and rewinds
// (re-issues the remainder of the read) once the fault is resolved.
package rc

import (
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/sim"
	"npf/internal/trace"
)

// FaultClass says which of the four per-QP fault paths fired (§4 limits
// concurrent NPFs to one per class: read/write × initiator/responder).
type FaultClass int

const (
	// FaultSendLocal: the requester faulted reading a send/RDMA-write
	// source buffer. The QP's send engine is suspended until resolution.
	FaultSendLocal FaultClass = iota
	// FaultRecvRNPF: the responder faulted placing an incoming send/write.
	// The firmware already RNR-NACKed the sender; resolution lets the
	// retransmission land.
	FaultRecvRNPF
	// FaultReadResponder: the responder faulted reading the source of an
	// RDMA read response; the response stream is suspended.
	FaultReadResponder
	// FaultReadInitiator: the initiator faulted placing RDMA read response
	// data; incoming response packets are dropped until resolution, then
	// the initiator rewinds the read.
	FaultReadInitiator
)

func (c FaultClass) String() string {
	switch c {
	case FaultSendLocal:
		return "send-local"
	case FaultRecvRNPF:
		return "recv-rnpf"
	case FaultReadResponder:
		return "read-responder"
	case FaultReadInitiator:
		return "read-initiator"
	}
	return "invalid"
}

// QPFault is the NPF interrupt payload handed to the driver.
type QPFault struct {
	QP      *QP
	Class   FaultClass
	Missing []mem.PageNum
	Start   sim.Time // when the device hit the fault
	// Fault is the causal FaultID minted at detection — the firmware's
	// fault token, echoed by the driver.
	Fault trace.FaultID
	// Resolved must be called by the driver once the pages are resident
	// and mapped in the QP's IOMMU domain; it triggers the firmware-resume
	// path.
	Resolved func()
}

// FaultSink is the driver-side NPF handler (implemented by internal/core).
type FaultSink interface {
	HandleQPFault(ev QPFault)
}

// RC's fixed sizing, calibrated to the Connect-IB testbed.
const (
	// headerBytes is per-packet wire overhead.
	headerBytes int = 48
	// sendWindow bounds unacknowledged packets per QP.
	sendWindow int = 128
	// ackEvery coalesces acknowledgments: one ACK per this many packets
	// (an ACK is always sent on a message boundary).
	ackEvery int = 4
	// lineRateBps paces read-response emission (the responder streams at
	// line rate rather than dumping its whole window instantaneously, so
	// suspension can take effect mid-stream).
	lineRateBps int64 = 56e9
)

// Config holds HCA latency and protocol parameters: the firmware fault
// path the adapter shares with the Ethernet NIC (internal/nic), plus RC's
// own.
type Config struct {
	nic.FirmwareConfig
	// MTU is the packet payload size.
	MTU int
	// RNRTimeout is the pause the RNR NACK asks of the sender.
	RNRTimeout sim.Time
	// RetxTimeout is the local-ACK timeout safety net.
	RetxTimeout sim.Time
	// PrefetchWQE enables the paper's batching optimization: a fault
	// reports every missing page of the whole work request, not just the
	// faulting packet's pages (§4, third optimization; ATS/PRI would force
	// one page per request).
	PrefetchWQE bool
	// ReadWindow bounds in-flight RDMA-read response chunks per request;
	// the initiator grants credits as it places data.
	ReadWindow int
	// ReadRNRExtension enables the paper's §4 recommendation: extend RC's
	// end-to-end flow control to remote reads, letting an initiator that
	// faults placing response data suspend the responder (like RNR NACK)
	// instead of dropping the stream and rewinding after resolution.
	ReadRNRExtension bool
}

// DefaultConfig returns parameters calibrated to the Connect-IB testbed and
// Figure 3 / Table 4.
func DefaultConfig() Config {
	return Config{
		FirmwareConfig: nic.DefaultFirmware(),
		MTU:            4096,
		RNRTimeout:     280 * sim.Microsecond,
		RetxTimeout:    10 * sim.Millisecond,
		PrefetchWQE:    true,
		ReadWindow:     64,
	}
}

// HCA is one InfiniBand adapter. It implements fabric.Endpoint.
type HCA struct {
	nic.Firmware
	Cfg Config

	qps    map[QPN]*QP
	nextQP QPN
	sink   FaultSink
	// free holds packets this adapter sent that have been delivered and
	// handled on this adapter's engine, ready for reuse by send.
	free []*packet

	// Counters.
	PacketsSent  sim.Counter
	PacketsRecv  sim.Counter
	RNRNacks     sim.Counter
	Retransmits  sim.Counter
	Faults       sim.Counter
	ReadRewinds  sim.Counter
	DroppedRNPF  sim.Counter // packets discarded at the responder/initiator due to faults
	UDDropsFault sim.Counter
	// ProtectionDrops counts guest-table (2D IOMMU) violations (§2.4).
	ProtectionDrops sim.Counter
}

// NewHCA creates an adapter on eng attached to net.
func NewHCA(eng *sim.Engine, net *fabric.Network, cfg Config) *HCA {
	h := &HCA{Cfg: cfg, qps: make(map[QPN]*QP)}
	h.Attach(eng, net, &h.Cfg.FirmwareConfig, h)
	return h
}

// SetFaultSink installs the driver's NPF handler.
func (h *HCA) SetFaultSink(s FaultSink) { h.sink = s }

// SetTracer wires telemetry into the adapter and its on-NIC IOMMU and
// publishes the adapter's RNR/retransmit/rewind counters. Safe to call
// with nil.
func (h *HCA) SetTracer(tr *trace.Tracer) {
	h.Tracer = tr
	h.MMU.SetTracer(tr)
	tr.Counter("rc.rnr_nacks", &h.RNRNacks)
	tr.Counter("rc.retransmits", &h.Retransmits)
	tr.Counter("rc.read_rewinds", &h.ReadRewinds)
	tr.Probe("rc.rnr_suspended_qps", func() float64 {
		n := 0.0
		//npf:orderinvariant — counting suspended QPs is commutative
		for _, qp := range h.qps {
			if qp.rnrWait {
				n++
			}
		}
		return n
	})
}

// raiseFault reports an NPF to the driver after the firmware fault path.
func (h *HCA) raiseFault(ev QPFault) {
	h.Faults.Inc()
	ev.Start = h.Eng.Now()
	if h.sink == nil {
		panic("rc: NPF with no fault sink attached (ODP used without a driver)")
	}
	ev.Fault = h.MintFault()
	// The cross-host edge: every class but send-local was tripped by the
	// connected peer's op.
	origin := int64(-1)
	if ev.Class != FaultSendLocal {
		origin = int64(ev.QP.peerNode)
	}
	lat := h.FaultLatency()
	h.Tracer.FaultMinted(ev.Fault, ev.Class.String(), ev.Start, origin, int64(ev.QP.QPN), len(ev.Missing))
	h.Eng.After(lat, func() {
		h.sink.HandleQPFault(ev)
	})
}

// Deliver implements fabric.Endpoint: demux to the destination QP. Once
// the QP has handled it, the packet goes back to its sender's free list —
// but only when the sender runs on this adapter's engine. A packet that
// crossed partitions is left to the garbage collector, so no free list is
// ever touched from two engines' goroutines.
func (h *HCA) Deliver(p *fabric.Packet) {
	pkt := p.Payload.(*packet)
	if qp, ok := h.qps[pkt.DstQPN]; ok { // else a stale packet to a destroyed QP
		h.PacketsRecv.Inc()
		qp.handlePacket(pkt)
	}
	if from := pkt.from; from.Eng == h.Eng {
		// Zeroed, so a handler that kept a field past its return reads
		// garbage at once rather than a later packet's value by chance.
		*pkt = packet{Packet: fabric.Packet{Payload: p.Payload}}
		from.free = append(from.free, pkt)
	}
}

// take hands out a packet for one protocol message: drawn from the free
// list, zeroed but for its frame's back-pointer, with its kind and queue
// pair numbers set. The caller fills the other fields in place and posts
// it. Handlers must copy out any field a closure reads later, since the
// object is reused once they return.
//
//npf:noalloc
func (h *HCA) take(kind pktKind, src, dst QPN) *packet {
	var pkt *packet
	if n := len(h.free); n > 0 {
		pkt = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		pkt = h.newPacket() //npf:allocok — pool refill, up to the number of packets in flight
	}
	pkt.Kind, pkt.SrcQPN, pkt.DstQPN = kind, src, dst
	return pkt
}

// post puts pkt, filled since take, on the wire to dst with payloadBytes
// of data.
//
//npf:noalloc
func (h *HCA) post(pkt *packet, dst fabric.NodeID, payloadBytes int) {
	h.PacketsSent.Inc()
	pkt.Src, pkt.Dst = h.Node, dst
	pkt.Flow = fabric.FlowID(pkt.DstQPN)
	pkt.Size = payloadBytes + headerBytes
	pkt.from = h
	h.Net.Send(&pkt.Packet)
}

// newPacket allocates a packet whose frame points back at it.
func (h *HCA) newPacket() *packet {
	pkt := new(packet)
	pkt.Payload = pkt
	return pkt
}
