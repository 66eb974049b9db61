package topo

import (
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/trace"
)

// HostSpec is the reusable recipe for one simulated host's substrate:
// memory machine, NPF driver, and optionally a NIC or HCA. A spec is a
// value — stamp out a thousand hosts from one spec with Build in a loop,
// varying only the engine (partition) and name. It is the host recipe of
// kv, the sweep, the bench and chaos testbeds and the root facade; only
// bench's Figure 8 storage rig, whose one driver serves two machines,
// builds its hosts by hand. The construction order is machine, driver,
// then adapter; a builder that attaches its adapter later (Host.AttachNIC,
// AttachHCA) controls where that adapter's RNG split falls.
type HostSpec struct {
	// RAM is the host's physical memory (default 8 GiB).
	RAM int64
	// Driver configures the NPF driver (default core.DefaultConfig()).
	Driver core.Config
	// NIC, when non-nil, attaches an Ethernet NIC with this config.
	NIC *nic.Config
	// HCA, when non-nil, attaches an InfiniBand adapter with this config.
	HCA *rc.Config
}

// Host is the substrate a HostSpec builds. Higher layers (the sweep's
// servers, kv's service hosts) hang their state off it.
type Host struct {
	Name string
	Eng  *sim.Engine
	M    *mem.Machine
	Drv  *core.Driver
	Dev  *nic.Device // nil unless spec.NIC or AttachNIC
	HCA  *rc.HCA     // nil unless spec.HCA or AttachHCA
}

// Build instantiates the spec on eng, attaching any adapter to net.
// tr may be nil (untraced). The same spec value is safe to Build any
// number of times.
func (sp HostSpec) Build(eng *sim.Engine, net *fabric.Network, tr *trace.Tracer, name string) *Host {
	ram := sp.RAM
	if ram == 0 {
		ram = 8 << 30
	}
	drvCfg := sp.Driver
	if drvCfg == (core.Config{}) {
		drvCfg = core.DefaultConfig()
	}
	h := &Host{Name: name, Eng: eng}
	h.M = mem.NewMachine(eng, ram)
	h.M.SetTracer(tr)
	h.Drv = core.NewDriver(eng, drvCfg)
	h.Drv.SetTracer(tr)
	if sp.NIC != nil {
		h.AttachNIC(net, *sp.NIC, tr)
	}
	if sp.HCA != nil {
		h.AttachHCA(net, *sp.HCA, tr)
	}
	return h
}

// AttachNIC gives the host an Ethernet NIC on net, traced by tr (nil:
// untraced) and served by the host's driver. The device's RNG splits
// here, so hosts that attach later keep the order they attach in. A host
// may carry several adapters; Dev names the last one attached.
func (h *Host) AttachNIC(net *fabric.Network, cfg nic.Config, tr *trace.Tracer) *nic.Device {
	h.Dev = nic.NewDevice(h.Eng, net, cfg)
	h.Dev.SetTracer(tr)
	h.Drv.AttachDevice(h.Dev)
	return h.Dev
}

// AttachHCA gives the host an InfiniBand adapter on net, traced by tr
// (nil: untraced) and served by the host's driver; HCA names the last one
// attached.
func (h *Host) AttachHCA(net *fabric.Network, cfg rc.Config, tr *trace.Tracer) *rc.HCA {
	h.HCA = rc.NewHCA(h.Eng, net, cfg)
	h.HCA.SetTracer(tr)
	h.Drv.AttachHCA(h.HCA)
	return h.HCA
}
