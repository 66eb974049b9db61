package mem

import "npf/internal/sim"

// This file implements the canonical memory optimizations from the paper's
// Table 1 that interact with device DMA beyond plain demand paging: fork
// with copy-on-write semantics, and page migration (NUMA balancing /
// compaction / hot-unplug). §5 names both as sources of "cold sequences"
// on otherwise warm rings: they strip device mappings from resident pages,
// so the next DMA faults even though the application never unmapped
// anything.

// CowCopyCost is the CPU cost of copying one page when breaking COW or
// materialising a forked page.
const CowCopyCost = 450 * sim.Nanosecond

// MigratePerPage is the kernel cost of migrating one page (allocation,
// copy, remap).
const MigratePerPage = 900 * sim.Nanosecond

// Fork creates a copy-on-write child of the address space, as fork(2)
// does:
//
//   - the child covers the same virtual range; its pages materialise
//     lazily on first touch (minor fault + page copy);
//   - every present parent page becomes write-protected; the parent's (and
//     its devices') first write must break COW, so all device mappings are
//     invalidated through the MMU notifiers — exactly the event that
//     re-colds a warm receive ring.
//
// The child is charged for its pages as it touches them (no shared-frame
// accounting: content-free simulation makes sharing invisible except
// through the faults and invalidations modelled here, which are what the
// paper cares about).
func (as *AddressSpace) Fork(name string, cgroup *Group) (*AddressSpace, sim.Time) {
	child := as.m.NewAddressSpace(name, cgroup)
	child.mappedPages = as.mappedPages
	child.MemlockLimit = as.MemlockLimit
	var cost sim.Time
	// The walk is in page order: the write-protect notifiers below reach
	// the driver, which can schedule engine events (e.g. chaos-duplicated
	// invalidations), so any other order would reorder same-timestamp
	// events and break replay.
	as.pages.Walk(func(pn PageNum, pp **pte) {
		p := *pp
		if p == nil || !p.present {
			return
		}
		// Child: lazily copied on first touch.
		cp := child.pte(pn)
		cp.cowCopy = true
		// Parent: write-protect; devices must stop writing through stale
		// mappings immediately.
		if !p.wp && !p.pinned {
			p.wp = true
			for _, n := range as.notifiers {
				cost += n.InvalidatePages(pn, 1)
			}
		}
	})
	return child, cost
}

// cowBreak clears write protection on p, paying the copy.
func (as *AddressSpace) cowBreak(p *pte) sim.Time {
	p.wp = false
	as.CowBreaks.Inc()
	return CowCopyCost
}

// MigratePages moves count resident, unpinned pages to new frames (NUMA
// migration, compaction, hot-unplug). Content survives — the next CPU
// touch is free — but device mappings become stale and are invalidated, so
// the next DMA faults. Returns pages migrated and the synchronous cost.
func (as *AddressSpace) MigratePages(first PageNum, count int) (int, sim.Time) {
	migrated := 0
	var cost sim.Time
	for i := 0; i < count; i++ {
		p := as.pages.Get(first + PageNum(i))
		if p == nil || !p.present || p.pinned {
			continue
		}
		for _, n := range as.notifiers {
			cost += n.InvalidatePages(p.pn, 1)
		}
		cost += MigratePerPage
		as.Migrations.Inc()
		migrated++
	}
	return migrated, cost
}
