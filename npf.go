// Package npf is a simulation library reproducing "Page Fault Support for
// Network Controllers" (Lesokhin et al., ASPLOS 2017) — the on-demand
// paging (ODP) design that lets NICs take DMA page faults instead of
// forcing IOusers to pin memory.
//
// The library bundles a deterministic discrete-event simulator with every
// layer the paper touches:
//
//   - host virtual memory (frames, demand paging, swap, cgroup limits,
//     MMU notifiers, pinning) — npf/internal/mem
//   - an on-NIC IOMMU with faultable page tables — npf/internal/iommu
//   - a network fabric (line rates, propagation, loss, pause) —
//     npf/internal/fabric
//   - an Ethernet NIC implementing the paper's Figure 6 backup-ring
//     hardware, plus drop and pinned policies — npf/internal/nic
//   - an InfiniBand HCA with RC/UD transports, RNR-NACK-based receive
//     fault handling, and RDMA read rewind — npf/internal/rc
//   - a TCP stack (slow start, RTO backoff, fast retransmit) that exhibits
//     the paper's cold-ring collapse — npf/internal/tcp
//   - the IOprovider driver: the paper's contribution (Figure 2 fault and
//     invalidation flows, backup-ring resolver, batching/prefetch) and its
//     baselines (static and pin-down-cache pinning) —
//     npf/internal/core
//   - the evaluation workloads and an experiment harness regenerating
//     every table and figure — npf/internal/apps, npf/internal/bench
//
// This root package re-exports the pieces a user composes, and offers a
// Cluster convenience wrapper built from functional options:
//
//	cluster := npf.NewCluster(npf.WithSeed(42), npf.WithFabric(npf.EthernetFabric()))
//	host := cluster.NewHost("server", npf.WithRAM(8<<30))
//	ch := host.OpenChannel(as, npf.WithRingSize(256), npf.WithPolicy(npf.PolicyBackup))
//
// # Fault injection
//
// The chaos re-exports (ChaosPlan, FirmwareStall, LossBurst, GilbertElliott,
// LinkFlap, MemoryPressure, InvalidationChaos, ResolverSlowdown) build
// deterministic fault-injection plans — seeded-RNG scheduling, byte-identical
// replay, every injected fault traced. Hand a plan to NewCluster or
// OpenChannel via WithChaos:
//
//	plan := npf.NewChaosPlan(
//		npf.LossBurst{At: 2 * npf.Millisecond, Duration: 3 * npf.Millisecond, Prob: 0.3},
//		npf.FirmwareStall{At: 1 * npf.Millisecond, Duration: 3 * npf.Millisecond, Mult: 3},
//	)
//	cluster := npf.NewCluster(npf.WithSeed(42), npf.WithChaos(plan))
//
// Canned adversarial scenarios with pass/fail invariants live in
// npf/internal/bench (bench.Scenarios) and run with `npfbench -chaos NAME`.
//
// See examples/ for runnable programs and cmd/npfbench for the paper's
// evaluation.
package npf

import (
	"npf/internal/chaos"
	"npf/internal/core"
	"npf/internal/fabric"
	"npf/internal/iommu"
	"npf/internal/kv"
	"npf/internal/mem"
	"npf/internal/nic"
	"npf/internal/rc"
	"npf/internal/sim"
	"npf/internal/tcp"
	"npf/internal/topo"
	"npf/internal/trace"
	"npf/internal/workload"
)

// Simulation engine.
type (
	// Engine is the discrete-event simulator all components share.
	Engine = sim.Engine
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Histogram collects latency samples.
	Histogram = sim.Histogram
	// EngineGroup is a set of per-partition engines advancing together
	// under conservative-lookahead synchronization (WithEngines).
	EngineGroup = sim.Group
)

// Re-exported time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Memory subsystem.
type (
	// Machine is one host's memory substrate.
	Machine = mem.Machine
	// AddressSpace is one IOuser's demand-paged virtual address space.
	AddressSpace = mem.AddressSpace
	// PageCache is an OS page cache over a simulated disk.
	PageCache = mem.PageCache
	// VAddr is a virtual address; PageNum a virtual page number.
	VAddr   = mem.VAddr
	PageNum = mem.PageNum
)

// PageSize is the simulated page size (4 KiB).
const PageSize = mem.PageSize

// Fabric.
type (
	// Network is the fabric joining hosts.
	Network = fabric.Network
	// FabricConfig parameterises it.
	FabricConfig = fabric.Config
	// NodeID identifies an attachment point.
	NodeID = fabric.NodeID
	// FlowID steers packets to channels.
	FlowID = fabric.FlowID
)

// EthernetFabric returns the paper's 12 Gb/s prototype Ethernet config.
func EthernetFabric() FabricConfig { return fabric.DefaultEthernet() }

// InfiniBandFabric returns the 56 Gb/s lossless Connect-IB config.
func InfiniBandFabric() FabricConfig { return fabric.DefaultInfiniBand() }

// Ethernet NIC.
type (
	// Device is an Ethernet NIC with NPF support.
	Device = nic.Device
	// Channel is a direct I/O channel (the paper's IOchannel).
	Channel = nic.Channel
	// Firmware is an adapter's NPF fault path, shared by Device and HCA.
	Firmware = nic.Firmware
	// FaultPolicy selects pinned / drop / backup-ring receive behaviour.
	FaultPolicy = nic.FaultPolicy
)

// Receive fault policies (Figure 4/10 configurations).
const (
	PolicyPinned = nic.PolicyPinned
	PolicyDrop   = nic.PolicyDrop
	PolicyBackup = nic.PolicyBackup
)

// InfiniBand.
type (
	// HCA is an InfiniBand adapter with ODP firmware support.
	HCA = rc.HCA
	// QP is a reliable-connection queue pair.
	QP = rc.QP
	// SendWQE / RecvWQE / ReadWQE are work requests.
	SendWQE = rc.SendWQE
	RecvWQE = rc.RecvWQE
	ReadWQE = rc.ReadWQE
	// RecvCompletion reports an incoming message.
	RecvCompletion = rc.RecvCompletion
)

// ConnectQPs wires two queue pairs into a reliable connection.
func ConnectQPs(a, b *QP) { rc.Connect(a, b) }

// TCP.
type (
	// Stack is a TCP endpoint over a NIC channel.
	Stack = tcp.Stack
	// Conn is one TCP connection.
	Conn = tcp.Conn
	// TCPConfig holds stack parameters.
	TCPConfig = tcp.Config
)

// NewStack builds a TCP stack over ch.
func NewStack(ch *Channel, cfg TCPConfig) *Stack { return tcp.NewStack(ch, cfg) }

// DefaultTCPConfig returns Linux-3.x-like TCP parameters.
func DefaultTCPConfig() TCPConfig { return tcp.DefaultConfig() }

// The driver — the paper's contribution.
type (
	// Driver is the IOprovider's NPF driver (ODP).
	Driver = core.Driver
	// PinDownCache is the coarse-grained pinning baseline.
	PinDownCache = core.PinDownCache
	// IOMMUDomain is a device translation domain.
	IOMMUDomain = iommu.Domain
)

// StaticPinAll pins an entire address space (the SRIOV/DPDK production
// baseline). It fails when physical memory cannot hold it.
func StaticPinAll(as *AddressSpace, dom *IOMMUDomain) (Time, error) {
	return core.StaticPinAll(as, dom)
}

// NewPinDownCache creates a bounded pin-down cache over (as, dom).
func NewPinDownCache(as *AddressSpace, dom *IOMMUDomain, capacity int64) *PinDownCache {
	return core.NewPinDownCache(as, dom, capacity)
}

// Telemetry.
type (
	// Tracer records fault and context events and publishes counters and
	// latency histograms on the engine's virtual clock. A nil *Tracer is
	// inert, so call sites never guard.
	Tracer = trace.Tracer
	// Sampler snapshots all registered metrics every interval of virtual
	// time (see WithSampling); Series is its exportable result, with CSV
	// and sparkline renderers.
	Sampler = trace.Sampler
	Series  = trace.Series
)

// Distributed key-value service (internal/kv).
type (
	// KVService is a sharded, replicated key-value store deployed across
	// simulated hosts on the cluster fabric; deploy one with WithKV.
	KVService = kv.Service
	// KVConfig sizes a deployment: hosts, shards, replicas, transport,
	// registration policy, expected keys and control-plane timing. Value
	// size, rings and arenas follow from it; a zero value is a small but
	// fully functional deployment.
	KVConfig = kv.Config
	// KVHost is one machine of the deployment (servers first, then
	// clients).
	KVHost = kv.HostNode
	// KVWorkload is a load generator with per-op latency accounting;
	// WorkloadConfig shapes it (Zipf skew, open/closed loop, tenant).
	KVWorkload = kv.Workload
	// KVRegPolicy selects how server memory is registered with the NICs;
	// KVTransport selects the wire protocol.
	KVRegPolicy = kv.RegPolicy
	KVTransport = kv.Transport
)

// KV registration policies (the paper's Table 3 spectrum applied to a
// service) and transports.
const (
	KVRegODP     = kv.RegODP
	KVRegPinDown = kv.RegPinDown
	KVRegPinned  = kv.RegPinned

	KVTransportTCP = kv.TransportTCP
	KVTransportRC  = kv.TransportRC
)

// Shared workload shaping (internal/workload) and the scale-out sweep
// (internal/topo).
type (
	// WorkloadConfig sizes one tenant's load generator: clients, target
	// ops, get ratio, Zipf key skew, open/closed loop and arrival rate.
	// One type serves both WithKV tenants (Service.NewWorkload) and
	// WithSwarm sweep tenants, which must be closed-loop.
	WorkloadConfig = workload.Config

	// ClusterSweep is a scale-out experiment: O(10^3) hosts and
	// O(10^5..10^6) logical clients on one deterministic simulation, built
	// by WithSwarm.
	ClusterSweep = topo.Sweep
	// SweepConfig sizes the fleet: servers, swarm hosts, transport, and
	// the tenants with their registration policies.
	SweepConfig = topo.SweepConfig
	// SweepTenant is one tenant of a sweep: its workload shape,
	// registration policy and server count. Its per-server arena, memory
	// group and pin-down cache follow from the shape.
	SweepTenant = topo.TenantSpec
	// SweepResult is the deterministic aggregate (per-tenant tails,
	// fleet-wide NPF activity, bytes-per-host, fingerprint).
	SweepResult = topo.Result
	// SweepTransport selects the sweep's wire protocol; SweepRegPolicy
	// the per-tenant server memory registration.
	SweepTransport = topo.Transport
	SweepRegPolicy = topo.RegPolicy
)

// Sweep transports and registration policies (the paper's Table 3
// spectrum applied to a fleet).
const (
	SweepTransportEth = topo.TransportEth
	SweepTransportUD  = topo.TransportUD

	SweepRegODP     = topo.RegODP
	SweepRegPinDown = topo.RegPinDown
	SweepRegPinned  = topo.RegPinned
)

// Fault injection (internal/chaos).
type (
	// ChaosPlan is an ordered list of faults to inject; ChaosFault is one
	// configured perturbation. WithChaos arms a plan against the cluster
	// or channel.
	ChaosPlan  = chaos.Plan
	ChaosFault = chaos.Fault

	// The fault types a plan can carry.
	FirmwareStall     = chaos.FirmwareStall
	LossBurst         = chaos.LossBurst
	GilbertElliott    = chaos.GilbertElliott
	GEParams          = chaos.GEParams
	LinkFlap          = chaos.LinkFlap
	MemoryPressure    = chaos.MemoryPressure
	InvalidationChaos = chaos.InvalidationChaos
	ResolverSlowdown  = chaos.ResolverSlowdown
	ChaosCallback     = chaos.Callback
)

// NewChaosPlan builds a fault-injection plan; pass it to WithChaos.
func NewChaosPlan(faults ...ChaosFault) *ChaosPlan { return chaos.NewPlan(faults...) }
