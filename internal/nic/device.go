// Package nic models an Ethernet NIC with direct I/O channels and network
// page fault (NPF) support: per-IOuser descriptor rings, an RX engine that
// implements the paper's Figure 6 backup-ring pseudo-code, a TX engine that
// can suspend on send-side faults, interrupt delivery with coalescing, and
// an on-NIC IOMMU (internal/iommu).
//
// The package is hardware only. Fault resolution — the driver and OS side
// of Figure 2 — lives in internal/core, which the NIC reaches through the
// NPFSink and RxHandler callback interfaces, mirroring the real split
// between firmware and the IOprovider.
package nic

import (
	"fmt"

	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

// FaultPolicy selects how the RX engine handles receive NPFs, matching the
// paper's evaluated configurations.
type FaultPolicy int

const (
	// PolicyPinned assumes buffers never fault (static pinning); a fault
	// under this policy is a model violation and panics.
	PolicyPinned FaultPolicy = iota
	// PolicyDrop discards faulting packets but still reports the fault so
	// the driver can demand-page the buffer ("drop" in Figures 4 and 10).
	PolicyDrop
	// PolicyBackup stores faulting packets in the IOprovider's pinned
	// backup ring ("backup"/"brng").
	PolicyBackup
)

func (p FaultPolicy) String() string {
	switch p {
	case PolicyPinned:
		return "pin"
	case PolicyDrop:
		return "drop"
	case PolicyBackup:
		return "backup"
	}
	return "invalid"
}

// RxCompletion reports one received packet to the IOuser's stack.
type RxCompletion struct {
	Index   int64 // absolute descriptor index
	Size    int
	Payload any
}

// RxHandler is the IOuser-side completion callback (the channel's network
// stack). Invoked from interrupt context (an engine event), once per
// interrupt with all newly visible completions.
type RxHandler interface {
	RxComplete(ch *Channel, completions []RxCompletion)
}

// TxCompletion tells the stack a send buffer may be reused.
type TxCompletion struct {
	Cookie any
}

// TxHandler receives TX completions.
type TxHandler interface {
	TxComplete(ch *Channel, completions []TxCompletion)
}

// RxNPFEntry describes one faulting (or ring-full) packet parked in the
// backup ring, with the metadata the NIC attaches so the IOprovider can
// resolve it (§5 "they are steered according to meta data").
type RxNPFEntry struct {
	Channel  *Channel
	Index    int64 // target descriptor index in the IOuser ring
	BitIndex int64 // position in the ring's fault bitmap
	Missing  []mem.PageNum
	Packet   *fabric.Packet // nil under PolicyDrop
	Start    sim.Time       // when the device hit the fault
	// Fault is the causal FaultID minted at detection (always set; the
	// recorder ignores it when tracing is off) — the fault token real
	// firmware tags its report with and the driver echoes back.
	Fault trace.FaultID
}

// TxNPF describes a send-side fault: the TX queue is suspended until the
// driver calls Resume.
type TxNPF struct {
	Channel *Channel
	Missing []mem.PageNum
	Resume  func()
	Start   sim.Time // when the device hit the fault
	// Fault is the causal FaultID minted at detection.
	Fault trace.FaultID
}

// NPFSink is the driver (IOprovider) interface for fault events. Both
// methods are invoked from interrupt context after the device's interrupt
// latency.
type NPFSink interface {
	HandleRxNPF(entries []RxNPFEntry)
	HandleTxNPF(ev TxNPF)
}

// Config holds device latency parameters.
type Config struct {
	// IntLatency is interrupt delivery latency (MSI-X write + handler
	// dispatch).
	IntLatency sim.Time
	// FirmwareFault is the firmware-side cost of detecting an NPF and
	// raising the fault interrupt — the dominant hardware component of the
	// paper's Figure 3a ("this duration is typical for Mellanox NIC
	// firmware activity").
	FirmwareFault sim.Time
	// FirmwareResume is the hardware cost from page-table update to the
	// NIC resuming the faulted operation (Figure 3a component v).
	FirmwareResume sim.Time
	// FirmwareJitterSigma adds log-normal jitter to FirmwareFault,
	// producing Table 4's tail. Zero disables jitter.
	FirmwareJitterSigma float64
	// IOTLBEntries sizes the device IOTLB (0 = no IOTLB model).
	IOTLBEntries int
	// DisableInflightBitmap turns off the firmware optimization that
	// suppresses duplicate fault reports for descriptors already being
	// resolved (§4 "Optimizations"; ablation).
	DisableInflightBitmap bool
}

// DefaultConfig returns parameters calibrated to Figure 3/Table 4.
func DefaultConfig() Config {
	return Config{
		IntLatency:          3 * sim.Microsecond,
		FirmwareFault:       130 * sim.Microsecond,
		FirmwareResume:      40 * sim.Microsecond,
		FirmwareJitterSigma: 0.12,
		IOTLBEntries:        1024,
	}
}

// Device is one NIC. It implements fabric.Endpoint.
type Device struct {
	Eng  *sim.Engine
	Net  *fabric.Network
	Node fabric.NodeID
	MMU  *iommu.Unit
	Cfg  Config

	rng       *sim.Rand
	channels  map[fabric.FlowID]*Channel
	nextFlow  fabric.FlowID
	Backup    *BackupRing
	sink      NPFSink
	faultHook func(sim.Time) sim.Time
	faultSeq  uint64 // per-device FaultID sequence (fault.go)

	// Tracer records NPF fault records; nil disables tracing.
	Tracer *trace.Tracer

	// Counters.
	RxDelivered      sim.Counter
	RxToBackup       sim.Counter
	RxDroppedFault   sim.Counter // faulting packets lost (drop policy / backup overflow)
	RxDroppedNoBuf   sim.Counter
	RxDroppedProtect sim.Counter // guest-table protection violations (§2.4)
	TxSent           sim.Counter
	TxFaults         sim.Counter
	TxDroppedProtect sim.Counter
}

// NewDevice creates a NIC on eng, attaches it to net, and returns it.
func NewDevice(eng *sim.Engine, net *fabric.Network, cfg Config) *Device {
	d := &Device{
		Eng:      eng,
		Net:      net,
		MMU:      iommu.New(cfg.IOTLBEntries),
		Cfg:      cfg,
		rng:      eng.Rand().Split(),
		channels: make(map[fabric.FlowID]*Channel),
	}
	d.Node = net.AttachOn(d, eng)
	d.Backup = newBackupRing(d, defaultBackupEntries)
	return d
}

// SetNPFSink installs the driver-side fault handler. Required before any
// channel uses PolicyDrop or PolicyBackup.
func (d *Device) SetNPFSink(s NPFSink) { d.sink = s }

// SetTracer wires telemetry into the device and its on-NIC IOMMU. The
// device opens the root span of each NPF at fault-detection time and
// threads it to the driver through the fault event. Safe to call with nil.
// It also registers the device's time-series probes: ring occupancy, backup
// residency, and firmware fault-queue depth — the transients the paper's
// Fig. 7 and the chaos scenarios reason about.
func (d *Device) SetTracer(tr *trace.Tracer) {
	d.Tracer = tr
	d.MMU.SetTracer(tr)
	tr.Probe("nic.backup_ring_len", func() float64 {
		return float64(d.Backup.Len())
	})
	tr.Probe("nic.rx_ring_occupancy", func() float64 {
		sum := 0.0
		//npf:orderinvariant — summing per-channel occupancy is commutative
		for _, ch := range d.channels {
			sum += float64(ch.Rx.Posted())
		}
		return sum
	})
	tr.Probe("nic.fault_queue_depth", func() float64 {
		sum := 0.0
		//npf:orderinvariant — summing per-channel fault backlogs is commutative
		for _, ch := range d.channels {
			sum += float64(ch.Rx.PendingFaults()) + float64(len(ch.Rx.inflight))
		}
		return sum
	})
}

// SetFaultDelayHook installs a transformation on the sampled firmware
// fault-path latency — the injection point fault injectors (internal/chaos)
// use to model firmware stalls. nil removes it.
func (d *Device) SetFaultDelayHook(fn func(sim.Time) sim.Time) { d.faultHook = fn }

// mintFault issues the next causal FaultID for this device. Minting is
// unconditional (a shift and an add) so IDs are identical whether or not a
// tracer is attached — determinism does not depend on observability.
func (d *Device) mintFault() trace.FaultID {
	d.faultSeq++
	return trace.MintFaultID(int64(d.Node), d.faultSeq)
}

// firmwareFaultLatency samples the firmware fault-path latency, with the
// long-tailed jitter that produces Table 4.
func (d *Device) firmwareFaultLatency() sim.Time {
	lat := d.Cfg.FirmwareFault
	if d.Cfg.FirmwareJitterSigma > 0 {
		f := d.rng.LogNormal(0, d.Cfg.FirmwareJitterSigma)
		// Occasional scheduling hiccup in the firmware's slow error path: a
		// heavy tail reaching ~2x the median, as in Table 4's max column.
		if d.rng.Bernoulli(0.003) {
			f *= 1.7 + 1.3*d.rng.Float64()
		}
		lat = sim.Time(float64(lat) * f)
	}
	if d.faultHook != nil {
		lat = d.faultHook(lat)
	}
	return lat
}

// Channel is one hardware-provided virtual NIC instance (the paper's
// IOchannel) bound to an IOuser address space.
type Channel struct {
	Dev    *Device
	Name   string
	AS     *mem.AddressSpace
	Domain *iommu.Domain
	Flow   fabric.FlowID
	Rx     *RxRing
	Tx     *TxQueue

	rxHandler RxHandler
	txHandler TxHandler
}

// NewChannel creates an IOchannel with an RX ring of ringSize entries under
// the given fault policy. bmSize bounds in-flight rNPFs per the paper's
// bitmap (<=0 defaults to ringSize).
func (d *Device) NewChannel(name string, as *mem.AddressSpace, ringSize int, policy FaultPolicy, bmSize int) *Channel {
	if bmSize <= 0 {
		bmSize = ringSize
	}
	d.nextFlow++
	ch := &Channel{
		Dev:    d,
		Name:   name,
		AS:     as,
		Domain: d.MMU.NewDomain(),
		Flow:   d.nextFlow,
	}
	ch.Rx = newRxRing(ch, ringSize, bmSize, policy)
	ch.Tx = newTxQueue(ch)
	d.channels[ch.Flow] = ch
	return ch
}

// SetRxHandler installs the IOuser stack's receive callback.
func (ch *Channel) SetRxHandler(h RxHandler) { ch.rxHandler = h }

// SetTxHandler installs the IOuser stack's transmit-completion callback.
func (ch *Channel) SetTxHandler(h TxHandler) { ch.txHandler = h }

// Deliver implements fabric.Endpoint: steer the packet to its channel's RX
// ring.
func (d *Device) Deliver(pkt *fabric.Packet) {
	ch, ok := d.channels[pkt.Flow]
	if !ok {
		d.RxDroppedNoBuf.Inc()
		return
	}
	ch.Rx.recv(pkt)
}

// dmaTouch marks pages as accessed by device DMA. The IOMMU said the pages
// translate, so they must be resident; a fault here means the driver broke
// the notifier/unmap invariant.
func (ch *Channel) dmaTouch(addr mem.VAddr, length int, write bool) {
	res, err := ch.AS.Touch(addr, length, write)
	if err != nil || res.Kind() != mem.NoFault {
		panic(fmt.Sprintf("nic: DMA to non-resident memory on %s (res=%+v err=%v): IOMMU/OS invariant broken",
			ch.Name, res, err))
	}
}
