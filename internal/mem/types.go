// Package mem simulates the host virtual-memory subsystem that the paper's
// NPF mechanism leans on: physical frames, per-IOuser address spaces with
// demand paging, pinning (mlock with RLIMIT_MEMLOCK), LRU reclaim under
// cgroup-style memory limits, a swap device, MMU notifiers, and a page
// cache.
//
// Memory is accounting-only: the simulator tracks presence, pinning, dirty
// and reference state per page, not byte contents. That is exactly the
// granularity at which the paper's mechanisms operate.
package mem

import "npf/internal/sim"

// PageSize is the (only) page size of the simulated machine, 4 KiB, matching
// the paper's testbeds.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VAddr is a virtual address within some address space.
type VAddr uint64

// PageNum is a virtual page number: VAddr >> PageShift.
type PageNum int64

// Page returns the page containing a.
func (a VAddr) Page() PageNum { return PageNum(a >> PageShift) }

// Base returns the first address of page pn.
func (pn PageNum) Base() VAddr { return VAddr(pn) << PageShift }

// PagesSpanned reports how many pages the byte range [addr, addr+length)
// touches.
func PagesSpanned(addr VAddr, length int) int {
	if length <= 0 {
		return 0
	}
	first := addr.Page()
	last := (addr + VAddr(length) - 1).Page()
	return int(last-first) + 1
}

// Notifier is the simulated counterpart of a Linux MMU notifier: it is
// invoked when pages of an address space are invalidated (evicted, unmapped
// or remapped), before their frames are reused. The returned duration is the
// time the invalidation took (e.g. IOMMU page-table update plus IOTLB flush,
// the paper's Figure 2 steps a–d); it is charged to the eviction path.
type Notifier interface {
	InvalidatePages(first PageNum, count int) sim.Time
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(first PageNum, count int) sim.Time

// InvalidatePages implements Notifier.
func (f NotifierFunc) InvalidatePages(first PageNum, count int) sim.Time {
	return f(first, count)
}

// Costs models CPU-side memory-management latencies. The defaults are
// typical of the paper's Linux 3.x testbed.
type Costs struct {
	// MinorFault is the CPU cost of servicing one minor page fault.
	MinorFault sim.Time
	// PerPageAlloc is the incremental cost per additional page when a
	// single fault populates many pages (batched fault-around).
	PerPageAlloc sim.Time
	// PinPage / UnpinPage are per-page get_user_pages/put_page costs.
	PinPage   sim.Time
	UnpinPage sim.Time
}

// MemcpyBps is the CPU copy bandwidth, in bytes per second: the one rate
// behind every copy the model charges (the backup-ring merge, MPI's copy
// mode, the storage target's staging copy).
const MemcpyBps = 10e9

// CopyCost is the CPU time to copy n bytes at MemcpyBps: the §6.2 "copy"
// baseline stages data through a pre-pinned bounce buffer at this cost.
func CopyCost(n int) sim.Time {
	return sim.Time(int64(n) * int64(sim.Second) / MemcpyBps)
}

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs {
	return Costs{
		MinorFault:   1 * sim.Microsecond,
		PerPageAlloc: 60 * sim.Nanosecond,
		PinPage:      250 * sim.Nanosecond,
		UnpinPage:    150 * sim.Nanosecond,
	}
}
