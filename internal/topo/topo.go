// Package topo is the scale-out topology layer: it places O(10^3) simulated
// hosts into racks, maps racks onto PDES partitions, and runs a ClusterSweep
// — a fleet-wide benchmark that multiplexes O(10^5..10^6) logical clients
// over lightweight "swarm" hosts driving registration-policy tenants (ODP /
// pin-down cache / pinned) on a shared server pool. The point is the paper's
// §6 question at fleet scale: registration policy is a per-host memory
// decision, but it surfaces as fleet-wide tail latency once thousands of
// hosts contend for memory under reclaim pressure.
//
// Everything is deterministic: the partition structure is fixed by the
// topology (never by the thread budget), per-client RNGs are split in
// construction order, and the per-host memory accounting (StateBytes) is
// computed from model state, not the Go heap — so one seed yields one
// byte-identical result at any thread budget.
package topo

// Topology places hosts into racks and racks onto PDES partitions. Hosts in
// one rack always share a partition; racks are assigned to partitions in
// contiguous blocks, so the partition structure is a pure function of
// (Hosts, HostsPerRack, parts) and never of the thread budget.
type Topology struct {
	// Hosts is the total host count.
	Hosts int
	// HostsPerRack sizes one rack (the co-location granularity).
	HostsPerRack int
}

// Racks reports the rack count (the last rack may be partial).
func (t Topology) Racks() int {
	if t.HostsPerRack <= 0 {
		return 1
	}
	return (t.Hosts + t.HostsPerRack - 1) / t.HostsPerRack
}

// Rack returns the rack index of host h.
func (t Topology) Rack(h int) int {
	if t.HostsPerRack <= 0 {
		return 0
	}
	return h / t.HostsPerRack
}

// Partition maps host h onto one of parts partitions: contiguous rack
// blocks, so intra-rack traffic never crosses a partition boundary. With
// fewer racks than partitions the tail partitions stay empty (and the
// caller should use fewer partitions).
func (t Topology) Partition(h, parts int) int {
	if parts <= 1 {
		return 0
	}
	racks := t.Racks()
	if racks <= parts {
		return t.Rack(h) % parts
	}
	return t.Rack(h) * parts / racks
}

// mix64 is the splitmix64 finalizer — the deterministic key-to-server hash
// (a seeded draw would couple server choice to RNG stream position).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
