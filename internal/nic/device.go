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
// interrupt with all newly visible completions. The completions slice is
// valid only during the call: the device reuses its backing array for every
// channel's next batch, so a handler that keeps completions must copy them.
type RxHandler interface {
	RxComplete(ch *Channel, completions []RxCompletion)
}

// TxCompletion tells the stack a send buffer may be reused.
type TxCompletion struct {
	Cookie any
}

// TxHandler receives TX completions. The completions slice is valid only
// during the call: the queue reuses its backing array for a later batch,
// so a handler that keeps completions must copy them.
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

// Config holds device latency parameters: the shared firmware fault path
// plus the Ethernet-only knobs.
type Config struct {
	FirmwareConfig
	// DisableInflightBitmap turns off the firmware optimization that
	// suppresses duplicate fault reports for descriptors already being
	// resolved (§4 "Optimizations"; ablation).
	DisableInflightBitmap bool
}

// DefaultConfig returns parameters calibrated to Figure 3/Table 4.
func DefaultConfig() Config {
	return Config{FirmwareConfig: DefaultFirmware()}
}

// Device is one NIC. It implements fabric.Endpoint.
type Device struct {
	Firmware
	Cfg Config

	channels map[fabric.FlowID]*Channel
	nextFlow fabric.FlowID
	Backup   *BackupRing
	sink     NPFSink
	// rxBatch is the RX completion buffer every channel's interrupt builds
	// its batch in (RxRing.interrupt).
	rxBatch []RxCompletion

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
	d := &Device{Cfg: cfg, channels: make(map[fabric.FlowID]*Channel)}
	d.Attach(eng, net, &d.Cfg.FirmwareConfig, d)
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
// the given fault policy. The ring's rNPF bitmap (the paper's Figure 6) has
// one bit per ring entry.
func (d *Device) NewChannel(name string, as *mem.AddressSpace, ringSize int, policy FaultPolicy) *Channel {
	d.nextFlow++
	ch := &Channel{
		Dev:    d,
		Name:   name,
		AS:     as,
		Domain: d.MMU.NewDomain(),
		Flow:   d.nextFlow,
	}
	ch.Rx = newRxRing(ch, ringSize, ringSize, policy)
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
//
//npf:noalloc
func (ch *Channel) dmaTouch(addr mem.VAddr, length int, write bool) {
	if !ch.AS.TouchResident(addr, length, write) {
		panic(fmt.Sprintf("nic: DMA to non-resident memory on %s (addr=%#x len=%d write=%v): IOMMU/OS invariant broken", //npf:allocok — invariant violation
			ch.Name, addr, length, write))
	}
}
