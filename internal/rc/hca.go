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
	"fmt"

	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
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

// Config holds HCA latency and protocol parameters.
type Config struct {
	// MTU is the packet payload size.
	MTU int
	// HeaderBytes is per-packet wire overhead.
	HeaderBytes int
	// Window bounds unacknowledged packets per QP.
	Window int
	// AckEvery coalesces acknowledgments: one ACK per this many packets
	// (an ACK is always sent on a message boundary).
	AckEvery int
	// RNRTimeout is the pause the RNR NACK asks of the sender.
	RNRTimeout sim.Time
	// RetxTimeout is the local-ACK timeout safety net.
	RetxTimeout sim.Time
	// IntLatency is interrupt/completion delivery latency.
	IntLatency sim.Time
	// FirmwareFault is the firmware cost of detecting an NPF and raising
	// the interrupt (Figure 3a, components i–ii; ~90% of NPF time).
	FirmwareFault sim.Time
	// FirmwareResume is the cost from page-table update to resumed
	// operation (component v).
	FirmwareResume sim.Time
	// FirmwareJitterSigma adds log-normal jitter to FirmwareFault
	// (Table 4's tail). Zero disables.
	FirmwareJitterSigma float64
	// PrefetchWQE enables the paper's batching optimization: a fault
	// reports every missing page of the whole work request, not just the
	// faulting packet's pages (§4, third optimization; ATS/PRI would force
	// one page per request).
	PrefetchWQE bool
	// ReadWindow bounds in-flight RDMA-read response chunks per request;
	// the initiator grants credits as it places data.
	ReadWindow int
	// LineRateBps paces read-response emission (the responder streams at
	// line rate rather than dumping its whole window instantaneously, so
	// suspension can take effect mid-stream).
	LineRateBps int64
	// ReadRNRExtension enables the paper's §4 recommendation: extend RC's
	// end-to-end flow control to remote reads, letting an initiator that
	// faults placing response data suspend the responder (like RNR NACK)
	// instead of dropping the stream and rewinding after resolution.
	ReadRNRExtension bool
	// IOTLBEntries sizes the device IOTLB.
	IOTLBEntries int
}

// DefaultConfig returns parameters calibrated to the Connect-IB testbed and
// Figure 3 / Table 4.
func DefaultConfig() Config {
	return Config{
		MTU:                 4096,
		HeaderBytes:         48,
		Window:              128,
		AckEvery:            4,
		RNRTimeout:          280 * sim.Microsecond,
		RetxTimeout:         10 * sim.Millisecond,
		IntLatency:          3 * sim.Microsecond,
		FirmwareFault:       130 * sim.Microsecond,
		FirmwareResume:      40 * sim.Microsecond,
		FirmwareJitterSigma: 0.12,
		PrefetchWQE:         true,
		ReadWindow:          64,
		LineRateBps:         56e9,
		IOTLBEntries:        1024,
	}
}

// DefaultRoCEConfig returns parameters for RDMA over Converged Ethernet on
// a 40 Gb/s ConnectX-3-class NIC (§4 "Applicability": the same RC protocol
// and NPF machinery run over lossy Ethernet). The tighter retransmission
// timeout plus out-of-sequence NAKs cover genuine packet loss.
func DefaultRoCEConfig() Config {
	cfg := DefaultConfig()
	cfg.RetxTimeout = 4 * sim.Millisecond
	return cfg
}

// HCA is one InfiniBand adapter. It implements fabric.Endpoint.
type HCA struct {
	Eng  *sim.Engine
	Net  *fabric.Network
	Node fabric.NodeID
	MMU  *iommu.Unit
	Cfg  Config

	rng       *sim.Rand
	qps       map[QPN]*QP
	nextQP    QPN
	sink      FaultSink
	faultHook func(sim.Time) sim.Time
	faultSeq  uint64 // per-adapter FaultID sequence (trace/fault.go)
	// free holds packets this adapter sent that have been delivered and
	// handled on this adapter's engine, ready for reuse by send.
	free []*packet

	// Tracer records NPF fault records and RNR spans; nil disables tracing.
	Tracer *trace.Tracer
	cRNR   *trace.Counter
	cRetx  *trace.Counter
	cRwnd  *trace.Counter

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
	h := &HCA{
		Eng: eng,
		Net: net,
		MMU: iommu.New(cfg.IOTLBEntries),
		Cfg: cfg,
		rng: eng.Rand().Split(),
		qps: make(map[QPN]*QP),
	}
	h.Node = net.AttachOn(h, eng)
	return h
}

// SetFaultSink installs the driver's NPF handler.
func (h *HCA) SetFaultSink(s FaultSink) { h.sink = s }

// SetTracer wires telemetry into the adapter and its on-NIC IOMMU. Safe to
// call with nil.
func (h *HCA) SetTracer(tr *trace.Tracer) {
	h.Tracer = tr
	h.MMU.SetTracer(tr)
	h.cRNR = tr.Counter("rc.rnr_nacks")
	h.cRetx = tr.Counter("rc.retransmits")
	h.cRwnd = tr.Counter("rc.read_rewinds")
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

// SetFaultDelayHook installs a transformation on the sampled firmware
// fault-path latency — the injection point fault injectors (internal/chaos)
// use to model firmware stalls. nil removes it.
func (h *HCA) SetFaultDelayHook(fn func(sim.Time) sim.Time) { h.faultHook = fn }

func (h *HCA) firmwareFaultLatency() sim.Time {
	lat := h.Cfg.FirmwareFault
	if h.Cfg.FirmwareJitterSigma > 0 {
		f := h.rng.LogNormal(0, h.Cfg.FirmwareJitterSigma)
		if h.rng.Bernoulli(0.003) {
			f *= 1.7 + 1.3*h.rng.Float64()
		}
		lat = sim.Time(float64(lat) * f)
	}
	if h.faultHook != nil {
		lat = h.faultHook(lat)
	}
	return lat
}

// raiseFault reports an NPF to the driver after the firmware fault path.
func (h *HCA) raiseFault(ev QPFault) {
	h.Faults.Inc()
	ev.Start = h.Eng.Now()
	if h.sink == nil {
		panic("rc: NPF with no fault sink attached (ODP used without a driver)")
	}
	h.faultSeq++
	ev.Fault = trace.MintFaultID(int64(h.Node), h.faultSeq)
	// The cross-host edge: every class but send-local was tripped by the
	// connected peer's op.
	origin := int64(-1)
	if ev.Class != FaultSendLocal {
		origin = int64(ev.QP.peerNode)
	}
	lat := h.firmwareFaultLatency() + h.Cfg.IntLatency
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

// send puts one protocol packet on the wire: v's fields in a packet object
// drawn from the free list. Handlers must copy out any field a closure
// reads later, since the object is reused once they return.
//
//npf:noalloc
func (h *HCA) send(dst fabric.NodeID, v packet, payloadBytes int) {
	h.PacketsSent.Inc()
	var pkt *packet
	if n := len(h.free); n > 0 {
		pkt = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		pkt = h.newPacket() //npf:allocok — pool refill, up to the number of packets in flight
	}
	self := pkt.Payload
	*pkt = v
	pkt.Packet = fabric.Packet{
		Src:     h.Node,
		Dst:     dst,
		Flow:    fabric.FlowID(v.DstQPN),
		Size:    payloadBytes + h.Cfg.HeaderBytes,
		Payload: self,
	}
	pkt.from = h
	h.Net.Send(&pkt.Packet)
}

// newPacket allocates a packet whose frame points back at it.
func (h *HCA) newPacket() *packet {
	pkt := new(packet)
	pkt.Payload = pkt
	return pkt
}

func (h *HCA) String() string { return fmt.Sprintf("hca@node%d", h.Node) }
