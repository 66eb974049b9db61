package mem

import (
	"errors"
	"fmt"

	"npf/internal/sim"
	"npf/internal/trace"
)

// ErrOutOfMemory is returned when an allocation cannot be satisfied even
// after reclaim: every page charged to the constraining group is pinned.
var ErrOutOfMemory = errors.New("mem: out of memory (all reclaimable pages pinned)")

// ErrMemlockLimit is returned by Pin when the address space would exceed its
// RLIMIT_MEMLOCK.
var ErrMemlockLimit = errors.New("mem: RLIMIT_MEMLOCK exceeded")

// SwapDevice models secondary storage used for swapped-out anonymous pages
// and for file-backed reads (the storage experiments' disk). Reads are
// synchronous from the faulting context's perspective — they are what makes
// a fault "major".
type SwapDevice struct {
	// ReadLatency is the fixed cost of one page-granularity read.
	ReadLatency sim.Time
	// ReadBandwidth, in bytes per second, adds size/bandwidth for bulk
	// reads. Zero means infinite.
	ReadBandwidth int64

	Reads  sim.Counter
	Writes sim.Counter
}

// DefaultSwap returns a device with the paper's example 10 ms major-fault
// latency (§3: "T is 10 milliseconds (major page fault)").
func DefaultSwap() *SwapDevice {
	return &SwapDevice{ReadLatency: 10 * sim.Millisecond}
}

// ReadCost returns the time to read n bytes.
func (d *SwapDevice) ReadCost(n int) sim.Time {
	d.Reads.Inc()
	c := d.ReadLatency
	if d.ReadBandwidth > 0 {
		c += sim.Time(int64(n) * int64(sim.Second) / d.ReadBandwidth)
	}
	return c
}

// WriteCost accounts a writeback. Writebacks are asynchronous in the model,
// so they cost the evicting context nothing; the counter still records them.
func (d *SwapDevice) WriteCost(n int) sim.Time {
	d.Writes.Inc()
	return 0
}

// evictable is implemented by anything whose pages can be reclaimed: address
// spaces and page caches. The reclaimer picks the member with the oldest
// least-recently-used page, approximating a machine-wide LRU.
type evictable interface {
	// oldestAccess reports the access stamp of the member's coldest
	// reclaimable page, and whether one exists.
	oldestAccess() (sim.Time, bool)
	// evictOldest reclaims the coldest page, returning the bytes freed and
	// the synchronous cost (MMU-notifier invalidations). ok is false when
	// nothing was reclaimable.
	evictOldest() (bytes int64, cost sim.Time, ok bool)
}

// Group is a memory-accounting domain with an optional byte limit: the
// machine itself is a Group (limit = physical RAM), and cgroup-style
// containers are Groups nested inside experiments. Members charge and
// uncharge resident bytes; charging past the limit reclaims the
// least-recently-used pages of the group's members.
type Group struct {
	Name  string
	Limit int64 // bytes; 0 means unlimited

	used    int64
	members []evictable

	Evictions sim.Counter
	// OOMs counts charge attempts that failed even after reclaim.
	OOMs sim.Counter
}

// NewGroup returns a group with the given byte limit (0 = unlimited).
func NewGroup(name string, limit int64) *Group {
	return &Group{Name: name, Limit: limit}
}

// Used reports the group's current resident bytes.
func (g *Group) Used() int64 { return g.used }

// SetLimit changes the group's byte limit at runtime and synchronously
// reclaims LRU pages until usage fits under the new limit (the kernel's
// behaviour when a cgroup limit is lowered). It returns the reclaim cost
// and how many bytes could not be reclaimed (unreclaimable pinned overhang
// — the memory.max analogue of an OOM). Fault injectors use this to model
// memory-pressure waves; raising the limit never reclaims.
func (g *Group) SetLimit(limit int64) (cost sim.Time, overhang int64) {
	g.Limit = limit
	for g.Limit > 0 && g.used > g.Limit {
		_, c, ok := g.evictLRU()
		if !ok {
			return cost, g.used - g.Limit
		}
		g.Evictions.Inc()
		cost += c
	}
	return cost, 0
}

func (g *Group) addMember(m evictable) { g.members = append(g.members, m) }

// charge accounts n more resident bytes, reclaiming if needed. It returns
// the synchronous reclaim cost. n must be a multiple of PageSize.
func (g *Group) charge(n int64) (sim.Time, error) {
	var cost sim.Time
	for g.Limit > 0 && g.used+n > g.Limit {
		freed, c, ok := g.evictLRU()
		if !ok {
			g.OOMs.Inc()
			return cost, fmt.Errorf("%w (group %q, limit %d)", ErrOutOfMemory, g.Name, g.Limit)
		}
		g.Evictions.Inc()
		cost += c
		_ = freed // uncharge happened inside the member's evictOldest path
	}
	g.used += n
	return cost, nil
}

func (g *Group) uncharge(n int64) {
	g.used -= n
	if g.used < 0 {
		panic("mem: group usage went negative")
	}
}

// evictLRU reclaims the coldest page among all members.
func (g *Group) evictLRU() (int64, sim.Time, bool) {
	var victim evictable
	var oldest sim.Time
	for _, m := range g.members {
		if ts, ok := m.oldestAccess(); ok && (victim == nil || ts < oldest) {
			victim, oldest = m, ts
		}
	}
	if victim == nil {
		return 0, 0, false
	}
	return victim.evictOldest()
}

// Machine bundles the per-host memory substrate: the RAM group, the swap
// device, and the engine. All address spaces and page caches of a host hang
// off its Machine.
type Machine struct {
	Eng   *sim.Engine
	RAM   *Group
	Swap  *SwapDevice
	Costs Costs

	// spaces lists every address space created on this machine, in
	// creation order — the walk set for machine-wide residency probes.
	spaces []*AddressSpace

	// tr feeds reclaim context events into the fault flight recorder.
	// faultLat holds every fault-in cost (µs) on the machine; it exists
	// only while a tracer is attached, so untraced runs keep no samples.
	tr       *trace.Tracer
	faultLat *sim.Histogram
}

// SetTracer publishes machine-wide paging activity (the stats fields of
// every address space on the machine, and the fault-in latencies) in the
// metrics registry, and registers the residency probes the sampler
// snapshots each tick. Safe to call with nil.
func (m *Machine) SetTracer(tr *trace.Tracer) {
	m.tr = tr
	m.faultLat = nil
	if tr.Enabled() {
		m.faultLat = new(sim.Histogram)
	}
	publishPaging(tr, nil) // the names exist before the first space does
	for _, as := range m.spaces {
		publishPaging(tr, as)
	}
	tr.Latency("mem.fault_us", m.faultLat)
	tr.Probe("mem.resident_pages", func() float64 {
		sum := 0.0
		for _, as := range m.spaces {
			sum += float64(as.ResidentBytes() / PageSize)
		}
		return sum
	})
	tr.Probe("mem.pinned_bytes", func() float64 {
		sum := 0.0
		for _, as := range m.spaces {
			sum += float64(as.PinnedBytes())
		}
		return sum
	})
}

// NewMachine returns a machine with ramBytes of physical memory and a
// default swap device.
func NewMachine(eng *sim.Engine, ramBytes int64) *Machine {
	return &Machine{
		Eng:   eng,
		RAM:   NewGroup("ram", ramBytes),
		Swap:  DefaultSwap(),
		Costs: DefaultCosts(),
	}
}
