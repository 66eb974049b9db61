package nic

import (
	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/sim"
	"npf/internal/trace"
)

// FirmwareConfig holds the adapter firmware's fault-path parameters. The
// paper's one Mellanox firmware serves both its ConnectX-3 Ethernet
// prototype and its Connect-IB InfiniBand prototype, so the Ethernet
// Device and the RC HCA (internal/rc) embed this one type in their configs.
type FirmwareConfig struct {
	// IntLatency is interrupt delivery latency (MSI-X write + handler
	// dispatch).
	IntLatency sim.Time
	// FirmwareFault is the firmware-side cost of detecting an NPF and
	// raising the fault interrupt — the dominant hardware component of the
	// paper's Figure 3a ("this duration is typical for Mellanox NIC
	// firmware activity").
	FirmwareFault sim.Time
	// FirmwareResume is the hardware cost from page-table update to the
	// adapter resuming the faulted operation (Figure 3a component v).
	FirmwareResume sim.Time
	// FirmwareJitterSigma adds log-normal jitter to FirmwareFault,
	// producing Table 4's tail. Zero disables jitter.
	FirmwareJitterSigma float64
	// IOTLBEntries sizes the device IOTLB (0 = no IOTLB model).
	IOTLBEntries int
}

// DefaultFirmware returns the firmware parameters calibrated to Figure 3
// and Table 4; it is the only place they are set.
func DefaultFirmware() FirmwareConfig {
	return FirmwareConfig{
		// Fig 3a trigger (i)→(ii): 133.0 µs = 3 µs interrupt + 130 µs
		// firmware; with the resume below, the hardware part the paper
		// puts at ~90% of the 4 KB minor NPF's ≈220 µs.
		IntLatency:    3 * sim.Microsecond,
		FirmwareFault: 130 * sim.Microsecond,
		// Fig 3a resume (iv)→(v): 40.0 µs.
		FirmwareResume: 40 * sim.Microsecond,
		// Table 4's tail: log-normal sigma 0.12 on FirmwareFault spreads
		// the 4 KB NPF to the paper's p95/p99 (250/261 µs), and the 0.3%
		// hiccup of 1.7–3× in FaultLatency reaches its max (464 µs).
		FirmwareJitterSigma: 0.12,
		// The on-NIC IOTLB size: a model choice (1,024 entries, a 4 MB
		// message's pages), not fitted to a paper number.
		IOTLBEntries: 1024,
	}
}

// Firmware is the runtime half of an adapter that the Ethernet Device and
// the RC HCA share: its place on the network, its on-NIC IOMMU and tracer,
// and the fault path — the sampled firmware latency, the delay hook fault
// injectors stall it with, and the FaultID sequence. Adapters embed it by
// value, so a field such as Eng stays one load from the adapter pointer.
type Firmware struct {
	Eng  *sim.Engine
	Net  *fabric.Network
	Node fabric.NodeID
	MMU  *iommu.Unit
	// Tracer records NPF fault records; nil disables tracing.
	Tracer *trace.Tracer

	cfg  *FirmwareConfig // the embedding adapter's
	rng  *sim.Rand
	hook func(sim.Time) sim.Time
	seq  uint64 // FaultID sequence (trace/fault.go)
}

// Attach brings up an adapter's firmware on eng: its IOMMU, its jitter
// stream (split from eng's here, so adapters built in the same order
// sample the same latencies) and its port on net, which delivers to ep.
// cfg is the adapter's own configuration, read at every fault.
func (f *Firmware) Attach(eng *sim.Engine, net *fabric.Network, cfg *FirmwareConfig, ep fabric.Endpoint) {
	f.Eng, f.Net, f.cfg = eng, net, cfg
	f.MMU = iommu.New(cfg.IOTLBEntries)
	f.rng = eng.Rand().Split()
	f.Node = net.AttachOn(ep, eng)
}

// SetFaultDelayHook installs a transformation on the sampled firmware
// fault-path latency — the injection point fault injectors (internal/chaos)
// use to model firmware stalls. nil removes it.
func (f *Firmware) SetFaultDelayHook(fn func(sim.Time) sim.Time) { f.hook = fn }

// MintFault issues the next causal FaultID for this adapter. Minting is
// unconditional (a shift and an add) so IDs are identical whether or not a
// tracer is attached — determinism does not depend on observability.
func (f *Firmware) MintFault() trace.FaultID {
	f.seq++
	return trace.MintFaultID(int64(f.Node), f.seq)
}

// FaultLatency samples the time from detecting an NPF to the driver's
// interrupt: the firmware fault path, with the long-tailed jitter that
// produces Table 4 and any installed delay hook, plus IntLatency.
func (f *Firmware) FaultLatency() sim.Time {
	lat := f.cfg.FirmwareFault
	if f.cfg.FirmwareJitterSigma > 0 {
		j := f.rng.LogNormal(0, f.cfg.FirmwareJitterSigma)
		// Occasional scheduling hiccup in the firmware's slow error path: a
		// heavy tail reaching ~2x the median, as in Table 4's max column.
		if f.rng.Bernoulli(0.003) {
			j *= 1.7 + 1.3*f.rng.Float64()
		}
		lat = sim.Time(float64(lat) * j)
	}
	if f.hook != nil {
		lat = f.hook(lat)
	}
	return lat + f.cfg.IntLatency
}
