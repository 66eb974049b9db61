// Package iommu models the I/O memory management unit that translates
// device DMA addresses (IOVAs) to physical frames. In the paper's prototype
// the IOMMU lives on the NIC (Connect-IB's own translation tables are used
// in place of ATS/PRI); here a Unit holds per-IOchannel Domains whose page
// tables may contain non-present entries — the prerequisite for network
// page faults.
//
// The Unit does not resolve faults; it only reports missing translations.
// The driver (internal/core) maps pages after the OS faults them in, and
// unmaps them from MMU-notifier callbacks, paying the modelled costs for
// page-table updates and IOTLB invalidations.
package iommu

import (
	"fmt"

	"npf/internal/mem"
	"npf/internal/sim"
	"npf/internal/trace"
)

// DomainID identifies a translation domain (one per IOchannel). A Unit
// numbers its domains densely from 1.
type DomainID int32

// Costs models hardware/software interaction latencies of the on-NIC IOMMU.
// The paper notes (§4) that driver updates to the NIC's DRAM-resident page
// tables require explicit communication with the device due to coherency,
// which is why "update hw PT" is tagged [sw + hw] in Figure 3.
type Costs struct {
	// MapSync is the fixed cost of one page-table update transaction with
	// the device (doorbell + coherency sync).
	MapSync sim.Time
	// MapPerPage is the incremental cost per PTE written in a batch.
	MapPerPage sim.Time
	// InvalidateSync is the fixed cost of an IOTLB invalidation handshake
	// (Figure 2 steps b–c: driver issues invalidation, NIC acknowledges).
	InvalidateSync sim.Time
	// InvalidatePerPage is the incremental cost per invalidated PTE.
	InvalidatePerPage sim.Time
	// WalkLatency is the device-side cost of a page-table walk on an IOTLB
	// miss.
	WalkLatency sim.Time
}

// DefaultCosts returns values calibrated against the paper's Figure 3.
func DefaultCosts() Costs {
	return Costs{
		MapSync:           35 * sim.Microsecond,
		MapPerPage:        35 * sim.Nanosecond,
		InvalidateSync:    30 * sim.Microsecond,
		InvalidatePerPage: 40 * sim.Nanosecond,
		WalkLatency:       200 * sim.Nanosecond,
	}
}

// Unit is one IOMMU instance (one per NIC).
type Unit struct {
	Costs  Costs
	nextID DomainID

	iotlb *iotlb

	// Faults counts translation misses observed by devices.
	Faults sim.Counter

	// Metric handles (nil = disabled; nil handles are inert).
	cHits       *trace.Counter
	cMisses     *trace.Counter
	cWalks      *trace.Counter
	cFaults     *trace.Counter
	cMapPages   *trace.Counter
	cUnmapPages *trace.Counter
	cMapBatch   *trace.Counter
	cInvBatch   *trace.Counter
}

// SetTracer mirrors the unit's IOTLB/walk/map/invalidate activity into the
// metrics registry. Safe to call with nil.
func (u *Unit) SetTracer(tr *trace.Tracer) {
	u.cHits = tr.Counter("iommu.iotlb_hits")
	u.cMisses = tr.Counter("iommu.iotlb_misses")
	u.cWalks = tr.Counter("iommu.walks")
	u.cFaults = tr.Counter("iommu.faults")
	u.cMapPages = tr.Counter("iommu.map_pages")
	u.cUnmapPages = tr.Counter("iommu.unmap_pages")
	u.cMapBatch = tr.Counter("iommu.map_batches")
	u.cInvBatch = tr.Counter("iommu.inv_batches")
}

// New returns a Unit with default costs and an IOTLB of the given capacity
// in entries (0 disables IOTLB modelling: every access walks).
func New(iotlbEntries int) *Unit {
	u := &Unit{Costs: DefaultCosts()}
	if iotlbEntries > 0 {
		u.iotlb = newIOTLB(iotlbEntries)
	}
	return u
}

// Domain is one I/O page table: the set of IOVAs a device may currently DMA
// to. Page numbers are in the owning IOuser's virtual address space (the
// paper's IOVAs equal process virtual addresses for RDMA memory regions).
type Domain struct {
	ID   DomainID
	unit *Unit
	// ptes holds each page's pteMapped and pteWritable bits: the radix
	// table whose update Figure 3 prices as updatePT.
	ptes mem.PageTable[uint8]
	// guest is the optional IOuser-managed first translation level (§2.4).
	guest *GuestTable
	// Mapped counts currently present PTEs.
	Mapped int
}

// PTE bits of a Domain's page table.
const (
	pteMapped   uint8 = 1 << iota // translates for device reads
	pteWritable                   // translates for device writes too
)

// NewDomain allocates a fresh, empty translation domain.
func (u *Unit) NewDomain() *Domain {
	u.nextID++
	return &Domain{ID: u.nextID, unit: u}
}

// Present reports whether page pn currently translates (for at least read
// access).
func (d *Domain) Present(pn mem.PageNum) bool { return d.ptes.Get(pn)&pteMapped != 0 }

// Writable reports whether page pn translates for device writes.
func (d *Domain) Writable(pn mem.PageNum) bool { return d.ptes.Get(pn)&pteWritable != 0 }

// MappedPages returns the number of present PTEs.
func (d *Domain) MappedPages() int { return d.Mapped }

// Map installs translations for count pages starting at first, returning
// the modelled driver+hardware cost. Already-present pages cost only the
// per-page increment (the sync is paid once per batch).
func (d *Domain) Map(first mem.PageNum, count int) sim.Time {
	if count <= 0 {
		return 0
	}
	cost := d.unit.Costs.MapSync
	d.unit.cMapBatch.Inc()
	for i := 0; i < count; i++ {
		cost += d.mapOne(first+mem.PageNum(i), true)
	}
	return cost
}

// mapOne installs or upgrades one PTE, returning the per-page increment.
func (d *Domain) mapOne(pn mem.PageNum, writable bool) sim.Time {
	d.unit.cMapPages.Inc()
	e := d.ptes.At(pn)
	switch {
	case *e == 0:
		*e = pteMapped
		if writable {
			*e |= pteWritable
		}
		d.Mapped++
	case writable && *e&pteWritable == 0:
		*e |= pteWritable // permission upgrade
		if d.unit.iotlb != nil {
			d.unit.iotlb.invalidate(d.ID, pn) // stale read-only entry
		}
	}
	return d.unit.Costs.MapPerPage
}

// MapBatch installs translations for an arbitrary set of pages in one
// device transaction: the sync cost is paid once (the paper's batched
// page-table update, §4's third optimization; ATS/PRI would force one
// transaction per page).
func (d *Domain) MapBatch(pages []mem.PageNum) sim.Time {
	return d.MapBatchPerm(pages, true)
}

// MapBatchPerm is MapBatch with explicit write permission — the driver maps
// pages it resolved without write intent as read-only (the memory region's
// COW protection stays intact), so a later device write faults again and
// upgrades.
func (d *Domain) MapBatchPerm(pages []mem.PageNum, writable bool) sim.Time {
	if len(pages) == 0 {
		return 0
	}
	cost := d.unit.Costs.MapSync
	d.unit.cMapBatch.Inc()
	for _, pn := range pages {
		cost += d.mapOne(pn, writable)
	}
	return cost
}

// Unmap removes translations for count pages starting at first and flushes
// the IOTLB for them. It returns the cost and how many PTEs were actually
// present. Unmapping nothing costs nothing beyond the check (the paper's
// Figure 3b fast path: lazily mapped pages are often absent).
func (d *Domain) Unmap(first mem.PageNum, count int) (sim.Time, int) {
	removed := 0
	for i := 0; i < count; i++ {
		if d.unmapOne(first + mem.PageNum(i)) {
			removed++
		}
	}
	if removed == 0 {
		return 0, 0
	}
	d.unit.cUnmapPages.Add(uint64(removed))
	d.unit.cInvBatch.Inc()
	cost := d.unit.Costs.InvalidateSync + sim.Time(removed)*d.unit.Costs.InvalidatePerPage
	return cost, removed
}

// UnmapBatch removes an arbitrary set of translations in one invalidation
// transaction: the sync cost is paid once for the whole batch.
func (d *Domain) UnmapBatch(pages []mem.PageNum) (sim.Time, int) {
	removed := 0
	for _, pn := range pages {
		if d.unmapOne(pn) {
			removed++
		}
	}
	if removed == 0 {
		return 0, 0
	}
	d.unit.cUnmapPages.Add(uint64(removed))
	d.unit.cInvBatch.Inc()
	return d.unit.Costs.InvalidateSync + sim.Time(removed)*d.unit.Costs.InvalidatePerPage, removed
}

// unmapOne clears one PTE and its IOTLB entry, reporting whether it was
// present.
func (d *Domain) unmapOne(pn mem.PageNum) bool {
	e := d.ptes.Lookup(pn)
	if e == nil || *e == 0 {
		return false
	}
	*e = 0
	d.Mapped--
	if d.unit.iotlb != nil {
		d.unit.iotlb.invalidate(d.ID, pn)
	}
	return true
}

// Translate checks translations for the byte range [addr, addr+length) on
// behalf of a device access. It returns the device-side lookup cost and the
// page numbers that failed to translate (in order, deduplicated). A
// non-empty miss list is a DMA page fault.
func (d *Domain) Translate(addr mem.VAddr, length int) (cost sim.Time, missing []mem.PageNum) {
	return d.TranslateAccess(addr, length, false)
}

// TranslateAccess checks translations for a device access with the given
// intent: with write=true, present-but-read-only pages count as missing (a
// permission fault — indistinguishable from a presence fault at the device,
// both are NPFs).
func (d *Domain) TranslateAccess(addr mem.VAddr, length int, write bool) (cost sim.Time, missing []mem.PageNum) {
	if length <= 0 {
		return 0, nil
	}
	first := addr.Page()
	n := mem.PagesSpanned(addr, length)
	walk := d.unit.Costs.WalkLatency
	if d.guest != nil {
		walk *= 2 // two-dimensional translation: both levels walked
	}
	for i := 0; i < n; i++ {
		pn := first + mem.PageNum(i)
		if d.unit.iotlb != nil {
			if d.unit.iotlb.lookup(d.ID, pn, write) {
				// IOTLB hit: translation cached with sufficient permission,
				// and cached entries are always valid (invalidated on unmap
				// and on permission upgrades).
				d.unit.cHits.Inc()
				continue
			}
			d.unit.cMisses.Inc()
			d.unit.cWalks.Inc()
			cost += walk
			if e := d.ptes.Get(pn); e != 0 && (!write || e&pteWritable != 0) {
				d.unit.iotlb.insert(d.ID, pn, e&pteWritable != 0)
			} else {
				d.unit.Faults.Inc()
				d.unit.cFaults.Inc()
				missing = append(missing, pn) //npf:allocok — only a faulting access grows the miss list
			}
			continue
		}
		cost += walk
		d.unit.cWalks.Inc()
		if e := d.ptes.Get(pn); e == 0 || (write && e&pteWritable == 0) {
			d.unit.Faults.Inc()
			d.unit.cFaults.Inc()
			missing = append(missing, pn) //npf:allocok — only a faulting access grows the miss list
		}
	}
	return cost, missing
}

// String implements fmt.Stringer for diagnostics.
func (d *Domain) String() string {
	return fmt.Sprintf("iommu-domain %d (%d mapped)", d.ID, d.Mapped)
}
